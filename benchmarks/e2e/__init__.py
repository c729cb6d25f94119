"""The repository benchmark: five workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repo root is the manifest; ``run.py`` is the one
command. See ``README.md`` in this directory for what is measured and why.
"""
