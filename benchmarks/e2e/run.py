"""The benchmark command: ``python3 benchmarks/e2e/run.py`` (see ``cli.py``).

A script, not ``-m``, because the manifest's command may only name files
under its own ``paths``; this shim finds the repo root and ``src/`` itself.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

if __name__ == "__main__":
    from benchmarks.e2e.cli import main

    sys.exit(main())
