"""Compressed execution: operator kernels over encoded block data.

The layer ISSUE/ROADMAP call "operating directly on compressed data, end to
end": predicate kernels per encoding (:mod:`~repro.compressed.kernels`), a
representation lattice with explicit morph operators
(:mod:`~repro.compressed.lattice`), and the stay-vs-morph cost rules living
with the rest of the analytical model in :mod:`repro.model.morph`.

``Database(compressed_execution=True)`` (the default) routes DS1 scans
through :func:`scan_block_compressed` and the LM aggregation tail through
run tables / code histograms; results are bit-identical with the layer off,
only the physical work changes — gated by the compressed differential axis.
"""

from .kernels import (
    KERNEL_ENCODINGS,
    group_ids,
    has_kernel,
    scan_block_compressed,
)
from .lattice import (
    ENCODING_REPRESENTATIONS,
    MORPHS,
    Representation,
    codes_to_values,
    deltas_to_values,
    runs_to_values,
)

__all__ = [
    "KERNEL_ENCODINGS",
    "has_kernel",
    "scan_block_compressed",
    "group_ids",
    "Representation",
    "ENCODING_REPRESENTATIONS",
    "MORPHS",
    "runs_to_values",
    "codes_to_values",
    "deltas_to_values",
]
