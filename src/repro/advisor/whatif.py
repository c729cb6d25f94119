"""What-if designs: price a projection that was never built.

The cost predictor never reads block payloads: every term it prices comes
from column *metadata* (block counts, value counts, run lengths, block
min/max descriptors, the write-time histogram), the paper's |C|, ||C||,
RL, F and SF. So a design that does not exist is priced by building its
metadata records and handing them to the unchanged
:func:`repro.model.predictor.predict_select`.

:func:`hypothetical_projection` builds those records from the same classes
a stored design uses: one :class:`~repro.storage.column_file.ColumnFile`
per encoding with no ``path`` (reading a payload from it raises
:class:`~repro.errors.StorageError`), grouped by an in-memory
:class:`~repro.storage.projection.ProjectionColumn` and
:class:`~repro.storage.projection.Projection`. The histogram is the real
source column's — a value distribution does not depend on sort order —
while descriptors and run counts are synthesized for the new sort order,
and the primary sort key is flagged ``indexed`` as a build would index it.

:class:`WhatIfCatalog` adds such projections to a real catalog's
``candidates`` (the one lookup projection routing performs), so
:func:`cheapest_plan_ms` re-runs the router's own candidate × strategy
minimization against the grown design.

Synthesis assumptions (documented approximations):

* a column sorted first runs one run per distinct value
  (``run_length = n / n_distinct``) and its block descriptors carry
  quantile value ranges from the histogram, so the model sees the block
  skipping and fragment locality a sorted build would earn;
* non-sort-key columns get full-range descriptors (no skipping) and run
  length 1 — pessimistic for correlated columns, safe everywhere;
* per-encoding block counts come from a rough bytes-per-value model
  (64 KB blocks), adequate because the model's I/O term only needs block
  *counts*, not exact layouts;
* partition advice is scored through the sorted-descriptor read fraction
  (a zone map prunes the same blocks the descriptors already skip), so
  partitioned candidates reuse the unpartitioned design's records.
"""

from __future__ import annotations

import math

from ..errors import CatalogError, UnsupportedOperationError
from ..storage.block import BlockDescriptor
from ..storage.column_file import ColumnFile
from ..storage.encoding import encoding_by_name
from ..storage.projection import Projection, ProjectionColumn
from .candidates import CandidateDesign, ColumnStats, column_stats, sorted_runs

_BLOCK_BYTES = 64 * 1024
#: Rough encoded bytes per RLE run (value + start + length).
_RUN_BYTES = 24


def _mass_segments(histogram) -> list[tuple[float, float, float]]:
    """(lo, hi, mass) segments covering the histogram's value mass."""
    segments = [
        (float(v), float(v), float(c)) for v, c in histogram.common
    ]
    for i, count in enumerate(histogram.counts):
        segments.append(
            (
                float(histogram.edges[i]),
                float(histogram.edges[i + 1]),
                float(count),
            )
        )
    segments.sort(key=lambda s: (s[0], s[1]))
    return segments


def _sorted_block_ranges(histogram, n_blocks: int):
    """Per-block (min, max) value ranges of a sorted column, equal mass.

    Interpolates quantile cut points from the histogram: block *i* of a
    sorted column holds the values between mass fractions ``i/n`` and
    ``(i+1)/n``. This is what gives a hypothetical sort its predicted
    block-skipping benefit.
    """
    segments = _mass_segments(histogram)
    if not segments:
        return [(0.0, 0.0)] * n_blocks
    lo = min(s[0] for s in segments)
    hi = max(s[1] for s in segments)
    total = sum(s[2] for s in segments)
    if total <= 0 or n_blocks <= 1:
        return [(lo, hi)] * n_blocks
    targets = [total * i / n_blocks for i in range(1, n_blocks)]
    cuts: list[float] = []
    acc = 0.0
    ti = 0
    for s_lo, s_hi, mass in segments:
        while ti < len(targets) and mass > 0 and acc + mass >= targets[ti]:
            frac = (targets[ti] - acc) / mass
            cuts.append(s_lo + (s_hi - s_lo) * frac)
            ti += 1
        acc += mass
    while len(cuts) < n_blocks - 1:
        cuts.append(hi)
    bounds = [lo, *cuts, hi]
    return [(bounds[i], bounds[i + 1]) for i in range(n_blocks)]


def _estimated_blocks(
    encoding_name: str,
    n_values: int,
    n_distinct: int,
    value_nbytes: int,
    run_length: float,
) -> int:
    """Rough 64 KB block count for one encoding of a column."""
    if n_values == 0:
        return 1
    if encoding_name == "rle":
        runs = max(1, math.ceil(n_values / max(run_length, 1.0)))
        payload = runs * _RUN_BYTES
    elif encoding_name == "dictionary":
        code_bytes = 1 if n_distinct <= 256 else (
            2 if n_distinct <= 65536 else 4
        )
        payload = n_values * code_bytes + n_distinct * value_nbytes
    elif encoding_name == "bitvector":
        payload = max(n_distinct, 1) * (n_values // 8 + 1)
    else:  # uncompressed, for
        payload = n_values * max(value_nbytes, 1)
    return max(1, math.ceil(payload / _BLOCK_BYTES))


def _whatif_file(
    column: str,
    stats: ColumnStats,
    ctype,
    encoding_name: str,
    sorted_as_key: bool,
) -> ColumnFile:
    """Synthesize one encoding's metadata from the real column's stats."""
    encoding = encoding_by_name(encoding_name)
    n = stats.n_values
    histogram = stats.histogram
    distinct, sorted_run_length = sorted_runs(histogram, n)
    run_length = sorted_run_length if sorted_as_key else 1.0
    n_blocks = _estimated_blocks(
        encoding_name, n, distinct, ctype.numpy_dtype.itemsize, run_length
    )
    if sorted_as_key and histogram is not None and histogram.n_values:
        ranges = _sorted_block_ranges(histogram, n_blocks)
    else:
        ranges = [(stats.lo, stats.hi)] * n_blocks
    descriptors = []
    per_block = max(1, math.ceil(n / n_blocks)) if n else 0
    pos = 0
    for i, (mn, mx) in enumerate(ranges):
        count = min(per_block, n - pos) if n else 0
        descriptors.append(
            BlockDescriptor(
                index=i,
                offset=0,
                nbytes=0,
                start_pos=pos,
                n_values=max(count, 0),
                min_value=mn,
                max_value=mx,
                crc32=None,
            )
        )
        pos += count
    if encoding.supports_runs:
        total_runs = max(1, math.ceil(n / max(run_length, 1.0))) if n else 0
    else:
        total_runs = n
    return ColumnFile(
        path=None,
        column=column,
        ctype=ctype,
        encoding=encoding,
        n_values=n,
        descriptors=descriptors,
        total_runs=total_runs,
        histogram=histogram,
    )


def hypothetical_projection(source, candidate: CandidateDesign) -> Projection:
    """The metadata *source*'s rows would have under *candidate*'s design.

    *source* is a real projection covering the candidate's columns; its
    whole-projection column statistics
    (:func:`~repro.advisor.candidates.column_stats`: value counts,
    histograms and block ranges over every partition) parameterize the
    synthesis. The candidate's encodings are exactly what an
    :func:`~repro.advisor.plan.apply_plan` build materializes, so what-if
    scores describe the projection apply creates.
    """
    primary = candidate.sort_keys[0] if candidate.sort_keys else None
    columns = {}
    for col in candidate.columns:
        schema = source.schema(col)
        stats = column_stats(source, col)
        files = {
            enc: _whatif_file(col, stats, schema.ctype, enc, col == primary)
            for enc in candidate.encodings.get(col, ("uncompressed",))
        }
        columns[col] = ProjectionColumn.in_memory(
            schema, files, indexed=(col == primary)
        )
    return Projection(
        name=candidate.name,
        directory=None,
        n_rows=source.n_rows,
        sort_keys=list(candidate.sort_keys),
        columns=columns,
        anchor=candidate.anchor,
    )


class WhatIfCatalog:
    """A catalog view: the real projections, plus designs never built.

    Implements the one lookup projection routing performs —
    ``candidates(name)`` — keeping the real catalog's candidate order
    (ties keep resolving to the incumbent) and appending the added
    projections whose name or anchor matches.
    """

    def __init__(self, catalog, adds=()):
        self._catalog = catalog
        self._adds = list(adds)

    def candidates(self, name: str) -> list:
        return self._catalog.candidates(name) + [
            p for p in self._adds if name in (p.name, p.anchor)
        ]


def cheapest_plan_ms(catalog_like, query, constants):
    """The router's own minimization, returning its score.

    Runs :func:`resolve_projection`'s candidate × strategy minimization
    against any catalog-like view and returns ``(best_ms, projection_name,
    strategy_value)``. Raises :class:`CatalogError` when nothing covers
    the query or nothing costs cleanly.
    """
    from ..planner.projection_choice import cheapest_plan, covering_candidates

    best = cheapest_plan(
        covering_candidates(catalog_like, query), query, constants
    )
    if best is None:
        raise CatalogError(
            f"no candidate of {query.projection!r} costs cleanly for "
            "this query"
        )
    ms, projection, strategy = best
    return ms, projection.name, strategy.value


def evaluate_design(catalog_like, weighted_queries, constants):
    """Score a design against a weighted template set.

    *weighted_queries* is ``[(key, weight, query), ...]``. Returns
    ``(total_ms, per_key)`` where ``per_key`` maps each scoreable key to
    ``(weight, best_ms, projection_name, strategy)`` and ``total_ms`` is
    the weight-scaled sum over those keys. Templates the design cannot
    cost (nothing covers them) are omitted from ``per_key`` — callers
    compare designs over the key intersection.
    """
    total = 0.0
    per_key = {}
    for key, weight, query in weighted_queries:
        try:
            ms, proj_name, strategy = cheapest_plan_ms(
                catalog_like, query, constants
            )
        except (CatalogError, UnsupportedOperationError):
            continue
        per_key[key] = (weight, ms, proj_name, strategy)
        total += weight * ms
    return total, per_key
