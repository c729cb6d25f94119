"""Workload-adaptive physical design advisor.

Closes the loop the paper's cost model opens: the same Section-3 formulas
that pick a materialization strategy per query can rank whole physical
designs, once the workload is known. The query log (PR 7) records the
workload; this package distills it, enumerates candidate designs
(:mod:`~repro.advisor.candidates`), prices each from the metadata records
a build would have, with **no data movement** (:mod:`~repro.advisor.whatif`),
and emits a ranked, appliable plan (:mod:`~repro.advisor.plan`).

Entry points::

    plan = advise(db)                 # from the database's own query log
    plan = advise(db, records)        # from any captured record stream
    print(plan.render())
    apply_plan(db, plan)              # build/drop through the catalog

CLI: ``repro advise [--json] [--apply]``; model recalibration from the
same logs is ``repro calibrate`` (see
:mod:`repro.model.recalibrate`).
"""

from .candidates import CandidateDesign, generate_candidates
from .plan import AdvisorAction, AdvisorPlan, advise, apply_plan
from .whatif import (
    WhatIfCatalog,
    cheapest_plan_ms,
    evaluate_design,
    hypothetical_projection,
)

__all__ = [
    "AdvisorAction",
    "AdvisorPlan",
    "advise",
    "apply_plan",
    "CandidateDesign",
    "generate_candidates",
    "WhatIfCatalog",
    "cheapest_plan_ms",
    "evaluate_design",
    "hypothetical_projection",
]
