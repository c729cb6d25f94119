"""Model constants (paper Table 2).

The defaults are the paper's measured values on its 3.8 GHz Pentium 4
testbed. :func:`repro.model.recalibrate.recalibrate_from_log` fits the CPU
constants to this host's logged wall time; the disk constants are part of
the simulated disk model and stay at the paper's values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ModelConstants:
    """CPU and I/O cost constants, all in microseconds (PF in blocks).

    Attributes:
        bic: getNext() on a block iterator (BIC).
        tictup: getNext() on a tuple iterator (TICTUP).
        ticcol: getNext() on a column iterator (TICCOL).
        fc: one function call (FC).
        pf: prefetch window in blocks (PF).
        seek: one disk seek (SEEK).
        read: one 64 KB block transfer (READ).
    """

    bic: float = 0.020
    tictup: float = 0.065
    ticcol: float = 0.014
    fc: float = 0.009
    pf: int = 1
    seek: float = 2500.0
    read: float = 1000.0

    def with_overrides(self, **kwargs) -> "ModelConstants":
        return replace(self, **kwargs)

    def as_dict(self) -> dict:
        return {
            "BIC": self.bic,
            "TICTUP": self.tictup,
            "TICCOL": self.ticcol,
            "FC": self.fc,
            "PF": self.pf,
            "SEEK": self.seek,
            "READ": self.read,
        }


PAPER_CONSTANTS = ModelConstants()
"""Table 2 of the paper, verbatim."""
