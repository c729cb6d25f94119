"""Hypothetical catalog entries: what-if costing with no data movement.

The cost predictor never reads block payloads — every term it prices comes
from column *metadata*: block counts, value counts, run lengths, block
min/max descriptors, and the write-time histogram. That makes true what-if
costing cheap: fabricate the metadata a projection **would** have if it
were built (same rows, different sort order / encodings), hand it to the
unchanged :func:`repro.model.predictor.predict_select`, and the model
prices the hypothetical design exactly as it would the real one.

Three duck-typed stand-ins mirror the read surface the predictor and
:mod:`repro.planner.projection_choice` actually touch:

* :class:`HypotheticalColumnFile` — the :class:`~repro.storage.column_file.
  ColumnFile` metadata surface (``n_values``/``n_blocks``/``descriptors``/
  ``total_runs``/``avg_run_length``/``histogram``/``encoding``). The
  histogram is *delegated* from the real source column — a value
  distribution is sort-order-invariant — while descriptors and run counts
  are synthesized for the hypothetical sort order.
* :class:`HypotheticalColumn` — ``file(encoding)`` with the same
  default-order walk and the same :class:`~repro.errors.CatalogError` on a
  missing encoding as :class:`~repro.storage.projection.ProjectionColumn`,
  so encoding overrides disqualify hypothetical candidates exactly like
  real ones.
* :class:`HypotheticalProjection` — ``column``/``column_names``/
  ``n_rows``/``sort_keys``/``is_partitioned``.

:class:`WhatIfCatalog` overlays additions and drops on a real catalog and
exposes the one method projection routing needs (``candidates``), so
:func:`cheapest_plan_ms` can re-run the router's own
candidate × strategy minimization against any hypothetical design.

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
  partitioned candidates reuse the unpartitioned hypothetical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import CatalogError, UnsupportedOperationError
from ..storage.block import BlockDescriptor
from ..storage.encoding import encoding_by_name
from ..storage.projection import ProjectionColumn

_BLOCK_BYTES = 64 * 1024
#: Rough encoded bytes per RLE run (value + start + length).
_RUN_BYTES = 24

#: Sentinel standing in for a clustered index on a hypothetical primary
#: sort key; the predictor only tests ``index is not None``.
_HYPOTHETICAL_INDEX = object()


@dataclass
class HypotheticalColumnFile:
    """Metadata-only stand-in for one encoding of one column."""

    column: str
    encoding: object
    n_values: int
    descriptors: list
    total_runs: int
    histogram: object | None = None

    @property
    def n_blocks(self) -> int:
        return len(self.descriptors)

    @property
    def avg_run_length(self) -> float:
        if self.total_runs == 0:
            return 1.0
        return self.n_values / self.total_runs


@dataclass
class HypotheticalColumn:
    """``ProjectionColumn`` read surface over hypothetical files."""

    name: str
    files: dict[str, HypotheticalColumnFile]
    #: True for the primary sort key: a real build would get a clustered
    #: index there (and only there).
    has_index: bool = False

    @property
    def index(self):
        return _HYPOTHETICAL_INDEX if self.has_index else None

    @property
    def encodings(self) -> list[str]:
        return sorted(self.files)

    def file(self, encoding: str | None = None) -> HypotheticalColumnFile:
        if encoding is None:
            for preferred in ProjectionColumn.DEFAULT_ENCODING_ORDER:
                if preferred in self.files:
                    encoding = preferred
                    break
            else:
                encoding = next(iter(sorted(self.files)))
        if encoding not in self.files:
            raise CatalogError(
                f"column {self.name!r} has no {encoding!r} encoding "
                f"(available: {self.encodings})"
            )
        return self.files[encoding]


@dataclass
class HypotheticalProjection:
    """``Projection`` read surface for a design that was never built."""

    name: str
    anchor: str
    n_rows: int
    sort_keys: list[str]
    columns: dict[str, HypotheticalColumn]

    @property
    def is_partitioned(self) -> bool:
        return False

    @property
    def column_names(self) -> list[str]:
        return list(self.columns)

    def column(self, name: str) -> HypotheticalColumn:
        try:
            return self.columns[name]
        except KeyError:
            raise CatalogError(
                f"hypothetical projection {self.name!r} has no column "
                f"{name!r}"
            ) from None


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


def _hypothetical_file(
    column: str,
    source_file,
    value_nbytes: int,
    encoding_name: str,
    sorted_as_key: bool,
) -> HypotheticalColumnFile:
    """Synthesize one encoding's metadata from the real column's stats."""
    encoding = encoding_by_name(encoding_name)
    n = source_file.n_values
    histogram = source_file.histogram
    distinct = (
        histogram.n_distinct if histogram is not None and histogram.n_values
        else max(n, 1)
    )
    if sorted_as_key:
        run_length = n / max(distinct, 1)
    else:
        run_length = 1.0
    n_blocks = _estimated_blocks(
        encoding_name, n, distinct, value_nbytes, run_length
    )
    if sorted_as_key and histogram is not None and histogram.n_values:
        ranges = _sorted_block_ranges(histogram, n_blocks)
    else:
        lo = min(
            (d.min_value for d in source_file.descriptors), default=0.0
        )
        hi = max(
            (d.max_value for d in source_file.descriptors), default=0.0
        )
        ranges = [(lo, hi)] * n_blocks
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
    return HypotheticalColumnFile(
        column=column,
        encoding=encoding,
        n_values=n,
        descriptors=descriptors,
        total_runs=total_runs,
        histogram=histogram,
    )


def hypothetical_projection(
    source,
    name: str,
    columns,
    sort_keys,
    encodings: dict,
    anchor: str | None = None,
) -> HypotheticalProjection:
    """Fabricate the metadata *source*'s rows would have under a new design.

    *source* is a real, unpartitioned projection covering *columns*; its
    per-column histograms and value counts parameterize the synthesis.
    *encodings* maps each column to the encoding names the design would
    store (exactly what an :func:`~repro.advisor.plan.apply_plan` build
    materializes, so what-if scores describe the projection apply creates).
    """
    primary = sort_keys[0] if sort_keys else None
    cols: dict[str, HypotheticalColumn] = {}
    for col in columns:
        source_file = source.physical_column(col).file()
        value_nbytes = source.schema(col).ctype.numpy_dtype.itemsize
        files = {
            enc: _hypothetical_file(
                col, source_file, value_nbytes, enc, col == primary
            )
            for enc in encodings.get(col, ("uncompressed",))
        }
        cols[col] = HypotheticalColumn(
            name=col, files=files, has_index=(col == primary)
        )
    return HypotheticalProjection(
        name=name,
        anchor=anchor or source.anchor or source.name,
        n_rows=source.n_rows,
        sort_keys=list(sort_keys),
        columns=cols,
    )


class WhatIfCatalog:
    """A catalog view: real projections, plus adds, minus drops.

    Duck-types the one lookup projection routing performs —
    ``candidates(name)`` — preserving the real catalog's candidate order
    (ties keep resolving to the incumbent) and appending hypotheticals
    whose name or anchor matches.
    """

    def __init__(self, catalog, adds=(), drops=()):
        self._catalog = catalog
        self._adds = {p.name: p for p in adds}
        self._drops = set(drops)

    def candidates(self, name: str) -> list:
        out = [
            p
            for p in self._catalog.candidates(name)
            if p.name not in self._drops
        ]
        for p in self._adds.values():
            if p.name == name or p.anchor == name:
                out.append(p)
        return out

    def has(self, name: str) -> bool:
        return bool(self.candidates(name))

    def get(self, name: str):
        if name in self._adds:
            return self._adds[name]
        if name in self._drops:
            raise CatalogError(f"unknown projection {name!r}")
        return self._catalog.get(name)

    def __contains__(self, name: str) -> bool:
        if name in self._adds:
            return True
        if name in self._drops:
            return False
        return name in self._catalog


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
