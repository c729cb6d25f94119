"""Advisor plans: score candidates, rank actions, and apply them.

:func:`advise` closes the loop from observed workload to physical design:

1. distill the query log into weighted templates (``summarize_log``);
2. score the **current** design with the router's own candidate × strategy
   minimization (:func:`~repro.advisor.whatif.evaluate_design`) — this is
   the no-op plan's score, identical by construction to what a plan with
   no actions predicts;
3. greedily add the build candidate with the largest weighted
   predicted-ms delta, re-scoring the remainder against the grown design,
   until nothing improves (adding a candidate can only shrink each
   template's minimum, so per-template deltas are never negative);
4. flag unused advisor-built projections — anchored, never resolved to by
   a logged query, and not the final design's choice for any template —
   as drops.

:func:`apply_plan` executes a plan through the existing catalog + merge
machinery: builds read their rows from a covering stored projection
(merging pending inserts first so no rows are stranded) and write through
``Catalog.create_projection``; drops go through ``Database.
drop_projection``. Applying a plan never rewrites existing projections,
and replay pins each logged query to its recorded projection, so all
previously logged results stay bit-identical — the advisor differential
axis proves exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CatalogError
from ..qlog import own_records
from ..workload import summarize_log
from .candidates import (
    CandidateDesign,
    covering_source,
    generate_candidates,
    weighted_queries,
)
from .whatif import WhatIfCatalog, evaluate_design, hypothetical_projection

#: A candidate must shave at least this fraction of the weighted baseline
#: to be recommended — smaller wins are inside the model's noise floor.
_MIN_RELATIVE_GAIN = 1e-3


@dataclass
class AdvisorAction:
    """One step of an advisor plan."""

    kind: str  # "build" | "drop"
    name: str
    anchor: str | None = None
    columns: tuple = ()
    sort_keys: tuple = ()
    encodings: dict = field(default_factory=dict)
    partitions: int = 1
    #: Weighted predicted simulated-ms the workload saves (positive =
    #: improvement); 0 for drops, which only reclaim storage.
    predicted_delta_ms: float = 0.0
    #: fingerprint -> weighted predicted delta, for the templates this
    #: action improves.
    templates: dict = field(default_factory=dict)
    reason: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "anchor": self.anchor,
            "columns": list(self.columns),
            "sort_keys": list(self.sort_keys),
            "encodings": {c: list(e) for c, e in self.encodings.items()},
            "partitions": self.partitions,
            "predicted_delta_ms": round(self.predicted_delta_ms, 3),
            "templates": {
                fp: round(delta, 3) for fp, delta in self.templates.items()
            },
            "reason": self.reason,
        }


@dataclass
class AdvisorPlan:
    """Ranked actions plus the what-if accounting behind them."""

    actions: list = field(default_factory=list)
    #: Weighted predicted ms of the current design over the scoreable
    #: templates — the no-op plan's score.
    baseline_ms: float = 0.0
    #: Weighted predicted ms after every recommended build.
    predicted_ms: float = 0.0
    n_templates: int = 0
    n_records: int = 0
    #: Scoreable-template fingerprints (what the totals range over).
    scored_templates: tuple = ()

    @property
    def predicted_improvement(self) -> float:
        """baseline / predicted (1.0 = no change)."""
        if self.predicted_ms <= 0:
            return 1.0
        return self.baseline_ms / self.predicted_ms

    def to_dict(self) -> dict:
        return {
            "actions": [a.to_dict() for a in self.actions],
            "baseline_ms": round(self.baseline_ms, 3),
            "predicted_ms": round(self.predicted_ms, 3),
            "predicted_improvement": round(self.predicted_improvement, 4),
            "n_templates": self.n_templates,
            "n_records": self.n_records,
        }

    def render(self) -> str:
        lines = [
            f"records        {self.n_records}",
            f"templates      {self.n_templates} "
            f"({len(self.scored_templates)} scoreable)",
            f"predicted ms   {self.baseline_ms:.1f} -> "
            f"{self.predicted_ms:.1f} weighted "
            f"({self.predicted_improvement:.2f}x)",
        ]
        if not self.actions:
            lines.append("advice         none — current design is best")
            return "\n".join(lines)
        lines.append(f"advice         {len(self.actions)} actions:")
        for a in self.actions:
            if a.kind == "build":
                enc = ", ".join(
                    f"{c}:{'/'.join(e)}" for c, e in sorted(
                        a.encodings.items()
                    )
                )
                detail = (
                    f"sort=({', '.join(a.sort_keys)}) "
                    f"cols=({', '.join(a.columns)}) "
                    f"partitions={a.partitions} [{enc}]"
                )
                lines.append(
                    f"  BUILD {a.name:<28} {detail}"
                )
                lines.append(
                    f"        predicted -{a.predicted_delta_ms:.1f} ms "
                    f"weighted over {len(a.templates)} templates; "
                    f"{a.reason}"
                )
            else:
                lines.append(f"  DROP  {a.name:<28} {a.reason}")
        return "\n".join(lines)


def _recorded_projections(summary) -> set:
    """Every projection name a logged query is recorded to have used."""
    used = set()
    for template in summary.templates.values():
        used.update(template.projections)
    return used


def advise(
    db,
    records=None,
    constants=None,
    max_builds: int = 3,
    max_candidates: int = 12,
) -> AdvisorPlan:
    """Recommend physical design changes from an observed workload.

    *records* is an iterable of query-log dicts; when omitted, the
    database's own query log is flushed and read. *constants* defaults to
    ``db.constants`` — pass :attr:`~repro.model.recalibrate.
    CalibrationReport.constants` from ``repro calibrate`` to score with
    prices fitted to this host's logged wall time.
    """
    records = list(own_records(db, "advise") if records is None else records)
    if constants is None:
        constants = db.constants
    summary = summarize_log(records, db=db, constants=constants)
    weighted = weighted_queries(summary)

    baseline_view = WhatIfCatalog(db.catalog)
    baseline_total, baseline_per = evaluate_design(
        baseline_view, weighted, constants
    )
    plan = AdvisorPlan(
        baseline_ms=baseline_total,
        predicted_ms=baseline_total,
        n_templates=len(summary.templates),
        n_records=len(records),
        scored_templates=tuple(sorted(baseline_per)),
    )

    # Each candidate's what-if projection, synthesized once: it does not
    # depend on which builds were picked before it.
    hypothetical = {}
    for candidate in generate_candidates(
        db.catalog, summary, max_candidates=max_candidates
    ):
        source = covering_source(
            db.catalog, candidate.anchor, candidate.columns
        )
        if source is not None:
            hypothetical[candidate.name] = (
                candidate, hypothetical_projection(source, candidate)
            )
    chosen: list = []  # what-if projections of the builds picked so far
    current_total, current_per = baseline_total, baseline_per
    remaining = list(hypothetical.values())
    while remaining and len(chosen) < max_builds:
        best = None
        for candidate, hyp in remaining:
            view = WhatIfCatalog(db.catalog, adds=[*chosen, hyp])
            with_total, with_per = evaluate_design(view, weighted, constants)
            # Compare over the keys both designs could score; adding a
            # candidate never removes a candidate, so current's keys are
            # a subset of with's.
            delta = sum(
                current_per[k][0] * (current_per[k][1] - with_per[k][1])
                for k in current_per
                if k in with_per
            )
            if best is None or delta > best[0]:
                best = (delta, candidate, hyp, with_total, with_per)
        if best is None:
            break
        delta, candidate, hyp, with_total, with_per = best
        if delta <= max(_MIN_RELATIVE_GAIN * baseline_total, 1e-9):
            break
        per_template = {
            k: current_per[k][0] * (current_per[k][1] - with_per[k][1])
            for k in current_per
            if k in with_per
            and current_per[k][1] - with_per[k][1] > 1e-12
        }
        plan.actions.append(
            AdvisorAction(
                kind="build",
                name=candidate.name,
                anchor=candidate.anchor,
                columns=candidate.columns,
                sort_keys=candidate.sort_keys,
                encodings=dict(candidate.encodings),
                partitions=candidate.partitions,
                predicted_delta_ms=delta,
                templates=per_template,
                reason=candidate.reason,
            )
        )
        chosen.append(hyp)
        remaining = [r for r in remaining if r[0].name != candidate.name]
        current_total, current_per = with_total, with_per
    plan.predicted_ms = current_total

    # Drops: advisor-built (anchored, non-base) projections that no logged
    # query resolved to and the final design does not route anything to.
    used = _recorded_projections(summary)
    used.update(entry[2] for entry in current_per.values())
    used.update(h.name for h in chosen)
    for name in db.catalog.names():
        proj = db.catalog.get(name)
        if not proj.anchor or proj.anchor == proj.name:
            continue
        if name in used:
            continue
        plan.actions.append(
            AdvisorAction(
                kind="drop",
                name=name,
                anchor=proj.anchor,
                predicted_delta_ms=0.0,
                reason=(
                    "no logged query resolved to it and the advised "
                    "design routes nothing to it"
                ),
            )
        )
    return plan


def apply_plan(db, plan: AdvisorPlan) -> list[str]:
    """Execute *plan* against *db*; returns the action names applied.

    Builds read their rows from a covering stored projection of the
    anchor (pending inserts, updates, and deletes are merged first, so a
    new projection is born with the write set already folded in) and
    register through ``Catalog.create_projection``; an already-existing
    name is skipped, so applying a plan twice is a no-op. Existing
    projections are never rewritten — only added or (for drop actions)
    removed — which, with replay's projection pinning, keeps every
    previously logged result bit-identical.

    Every step here is crash-consistent: merges and creates go through the
    catalog's staged-commit protocol (build under ``tmp-*``, fsync, commit
    by manifest replace), and drops commit the manifest before deleting
    files. A crash mid-apply therefore leaves a database that is some
    prefix of the plan — each completed action fully durable, the
    interrupted one invisible — and re-running ``apply_plan`` finishes the
    remainder.
    """
    applied = []
    for action in plan.actions:
        if action.kind == "drop":
            if action.name in db.catalog:
                db.drop_projection(action.name)
                applied.append(f"drop:{action.name}")
            continue
        if action.name in db.catalog:
            continue
        anchor = action.anchor
        if db.pending(anchor):
            db.merge(anchor)
        source = covering_source(db.catalog, anchor, action.columns)
        if source is None:
            raise CatalogError(
                f"no stored projection of {anchor!r} covers "
                f"{sorted(action.columns)}; cannot build {action.name!r}"
            )
        data = {c: source.read_column_values(c) for c in action.columns}
        schemas = {c: source.schema(c) for c in action.columns}
        db.catalog.create_projection(
            action.name,
            data,
            schemas,
            sort_keys=list(action.sort_keys),
            encodings={c: list(e) for c, e in action.encodings.items()},
            anchor=anchor,
            partitions=action.partitions,
        )
        applied.append(f"build:{action.name}")
    if applied:
        db.clear_cache()
    return applied
