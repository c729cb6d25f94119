"""Property-based tests for the physical design advisor.

Hypothesis draws arbitrary subsets of a captured workload trace and checks
the advisor's invariants hold on every one of them:

* the what-if layer is *transparent*: with no what-if designs added,
  it prices every logged query exactly like the real catalog, and a no-op
  plan (``max_builds=0``) scores the current design — predicted equals
  baseline;
* recommendations are *monotone*: a projection is only ever credited to a
  template it makes cheaper (every recorded per-template delta is
  positive), and the plan's predicted total never exceeds its baseline;
* recalibration is *safe*: on any subset of the trace — including empty
  and single-record ones — the refitted constants stay positive and
  finite, and the fit is only adopted when its MAE beats the shipped
  defaults on that same subset.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, MetricsRegistry, Predicate, SelectQuery, load_tpch
from repro.advisor import (
    CandidateDesign,
    WhatIfCatalog,
    advise,
    cheapest_plan_ms,
    generate_candidates,
    hypothetical_projection,
)
from repro.errors import CatalogError, StorageError, UnsupportedOperationError
from repro.model.recalibrate import FITTED_FIELDS, recalibrate_from_log
from repro.qlog import read_query_log
from repro.serving import query_from_dict
from repro.storage.index import ClusteredIndex
from repro.workload import summarize_log

from .differential import STRATEGIES, QueryGenerator

N_QUERIES = 12


@pytest.fixture(scope="module")
def captured(tmp_path_factory):
    """A small database plus a captured multi-strategy trace of it."""
    root = tmp_path_factory.mktemp("advisor_props")
    db = Database(root / "db", metrics=MetricsRegistry())
    load_tpch(db.catalog, scale=0.002, seed=7)
    gen = QueryGenerator(db, projection="lineitem", seed=11)
    for _ in range(N_QUERIES):
        query = gen.next_query()
        for strategy in STRATEGIES:
            try:
                db.query(query, strategy=strategy)
            except UnsupportedOperationError:
                continue
    db.qlog.flush()
    records = read_query_log(db.qlog.directory)
    yield db, records
    db.close()


def _subsets(records):
    return st.sets(
        st.integers(min_value=0, max_value=len(records) - 1), max_size=40
    ).map(lambda idx: [records[i] for i in sorted(idx)])


@given(data=st.data())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_whatif_catalog_is_transparent(captured, data):
    """No adds: what-if pricing == real-catalog pricing."""
    db, records = captured
    subset = data.draw(_subsets(records))
    whatif = WhatIfCatalog(db.catalog)
    for record in subset:
        if record["outcome"] != "ok":
            continue
        qdict = record.get("query") or {}
        if qdict.get("kind", "select") != "select":
            continue
        query = query_from_dict(qdict)
        try:
            real = cheapest_plan_ms(db.catalog, query, db.constants)
        except CatalogError:
            continue
        hypo = cheapest_plan_ms(whatif, query, db.constants)
        assert hypo == real


def test_pricing_is_metadata_only(tpch_db, monkeypatch):
    """Explaining and describing a plan never loads a clustered index, and
    a what-if design's files have no payloads to read."""

    def no_index(path):
        raise AssertionError(f"pricing loaded the index {path}")

    monkeypatch.setattr(ClusteredIndex, "load", no_index)
    db = Database(tpch_db.catalog.root, query_log=False,
                  metrics=MetricsRegistry())
    query = SelectQuery(
        projection="lineitem",
        select=["returnflag", "linenum"],
        predicates=[Predicate("returnflag", "=", 1)],
    )
    try:
        explained = db.explain(query)
        assert "indexed" in db.describe(query, strategy="em-pipelined")
        source = db.projection("lineitem")
    finally:
        db.close()
    assert explained["chosen"]
    whatif = hypothetical_projection(source, CandidateDesign(
        name="lineitem_adv_linenum",
        anchor="lineitem",
        columns=("linenum", "returnflag"),
        sort_keys=("linenum",),
        encodings={"linenum": ("rle", "uncompressed")},
    ))
    linenum = whatif.column("linenum")
    assert linenum.indexed and not whatif.column("returnflag").indexed
    for encoding in ("rle", "uncompressed"):
        with pytest.raises(StorageError, match="linenum"):
            linenum.file(encoding).read_payload(0)


@given(data=st.data())
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_noop_plan_scores_the_current_design(captured, data):
    """A plan that builds nothing predicts exactly the baseline."""
    db, records = captured
    subset = data.draw(_subsets(records))
    plan = advise(db, subset, max_builds=0)
    assert not [a for a in plan.actions if a.kind == "build"]
    assert plan.predicted_ms == plan.baseline_ms


@given(data=st.data())
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_recommendations_never_regress_a_credited_template(captured, data):
    """Every per-template delta is positive; total never exceeds baseline."""
    db, records = captured
    subset = data.draw(_subsets(records))
    plan = advise(db, subset)
    assert plan.predicted_ms <= plan.baseline_ms + 1e-9
    for action in plan.actions:
        if action.kind != "build":
            continue
        assert action.predicted_delta_ms > 0
        for fingerprint, delta in action.templates.items():
            assert delta > 0, (action.name, fingerprint)


@given(data=st.data())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_recalibration_is_safe_on_any_subset(captured, data):
    """Positive, finite constants and an MAE guard on arbitrary subsets."""
    db, records = captured
    subset = data.draw(_subsets(records))
    report = recalibrate_from_log(db, subset)
    constants = report.constants
    for field in FITTED_FIELDS:
        value = getattr(constants, field)
        assert math.isfinite(value), field
        assert value > 0, field
    assert isinstance(constants.pf, int) and constants.pf >= 1
    if report.used_fitted:
        assert report.mae_fitted_ms <= report.mae_baseline_ms
    if report.n_records == 0:
        # Nothing usable: the shipped defaults come back untouched.
        assert constants == report.baseline


def test_recalibration_recovers_known_constants(captured):
    """A trace priced by known constants is fitted back to them: each
    record's ``simulated_ms`` is replaced by its plan's prediction under
    ``k*`` (CPU constants ×3, seek and read ×0.5), and the adopted fit
    predicts that trace exactly. Plans with a multi-input AND are left
    out: its ``m·TICCOL·FC`` term prices no executor counter, so the
    linear fit does not model it."""
    from repro.model import PAPER_CONSTANTS, predict_select
    from repro.workload import price_record

    db, records = captured
    k = PAPER_CONSTANTS
    truth = k.with_overrides(
        bic=3 * k.bic, ticcol=3 * k.ticcol, tictup=3 * k.tictup,
        fc=3 * k.fc, seek=0.5 * k.seek, read=0.5 * k.read,
    )
    trace, events, cache = [], [], {}
    for record in records:
        prediction = price_record(
            db, record, cache,
            lambda *plan: predict_select(*plan, constants=truth),
        )
        if (record.get("outcome") == "ok" and prediction is not None
                and prediction.events.and_products == 0):
            trace.append({**record, "simulated_ms": prediction.total_ms})
            events.append(prediction.events)
    for event in ("block_iterations", "column_iterations", "tuple_iterations",
                  "function_calls", "disk_seeks", "block_reads"):
        assert any(getattr(e, event) > 0 for e in events), event
    report = recalibrate_from_log(db, trace, constants=k)
    mean_ms = sum(r["simulated_ms"] for r in trace) / len(trace)
    assert report.n_records == len(trace) >= 2 * len(FITTED_FIELDS)
    assert report.used_fitted
    assert report.mae_fitted_ms <= 1e-6 * mean_ms
    for field in FITTED_FIELDS:
        assert getattr(report.constants, field) == pytest.approx(
            getattr(truth, field), rel=1e-6
        ), field


def test_fit_that_holds_every_component_adopts_the_baseline(captured):
    """A trace that no positive prices can explain (each record's
    ``simulated_ms`` is minus its plan's prediction under the baseline)
    holds every component at its baseline: the fit equals the baseline,
    so it is not adopted, though its MAE ties the baseline's."""
    from repro.model import PAPER_CONSTANTS, predict_select
    from repro.workload import price_record

    db, records = captured
    k = PAPER_CONSTANTS
    trace, cache = [], {}
    for record in records:
        prediction = price_record(
            db, record, cache,
            lambda *plan: predict_select(*plan, constants=k),
        )
        if (record.get("outcome") == "ok" and prediction is not None
                and prediction.events.and_products == 0):
            trace.append({**record, "simulated_ms": -prediction.total_ms})
    report = recalibrate_from_log(db, trace, constants=k)
    assert report.n_records == len(trace) >= 2 * len(FITTED_FIELDS)
    assert report.fitted == report.baseline
    assert report.mae_fitted_ms == report.mae_baseline_ms
    assert not report.used_fitted
    assert report.constants == report.baseline
    assert "adopted        baseline" in report.render()


def test_out_of_band_component_is_held_and_the_rest_refitted():
    """A raw least-squares solution with one negative price: that price
    is held at its baseline and the other five are re-solved against what
    it leaves, not kept at their raw values."""
    from repro.model import PAPER_CONSTANTS
    from repro.model.recalibrate import _clamped_fit

    k = PAPER_CONSTANTS
    start = np.array([getattr(k, name) for name in FITTED_FIELDS])
    rng = np.random.default_rng(5)
    A = rng.uniform(0.1, 1.0, size=(40, len(FITTED_FIELDS))) / start
    truth = start * np.array([2.0, 3.0, 0.5, 1.5, 1.0, -1.0])
    y = A @ truth
    raw, *_ = np.linalg.lstsq(A, y, rcond=None)
    assert raw[-1] < 0 and (raw[:-1] > 0).all()

    fitted = np.array([getattr(_clamped_fit(k, A, y), name)
                       for name in FITTED_FIELDS])
    assert fitted[-1] == start[-1]
    refit, *_ = np.linalg.lstsq(A[:, :-1], y - A[:, -1] * start[-1],
                                rcond=None)
    assert fitted[:-1] == pytest.approx(refit, rel=1e-9)
    per_component = np.append(raw[:-1], start[-1])
    assert (np.abs(A @ fitted - y).mean()
            < np.abs(A @ per_component - y).mean())


@pytest.mark.parametrize("form", ["disjunction", "conjunction"])
def test_every_where_predicate_is_candidate_evidence(tmp_path, form):
    """Range predicates on ``quantity`` make it a candidate sort column
    whether they are ANDed or sit in the groups of an OR."""
    with Database(tmp_path / "db", metrics=MetricsRegistry()) as db:
        load_tpch(db.catalog, scale=0.001, seed=7)
        for lo, hi in ((5, 45), (8, 40), (3, 47)):
            low = Predicate("quantity", "<", lo)
            high = Predicate("quantity", ">", hi)
            where = (
                {"disjuncts": ((low,), (high,))} if form == "disjunction"
                else {"predicates": (Predicate("quantity", ">", lo),
                                     Predicate("quantity", "<", hi))}
            )
            db.query(SelectQuery("lineitem", ("quantity", "linenum"),
                                 **where))
        db.qlog.flush()
        summary = summarize_log(read_query_log(db.qlog.directory))
        candidates = generate_candidates(db.catalog, summary)
    [candidate] = [c for c in candidates
                   if c.name == "lineitem_adv_quantity"]
    assert candidate.sort_keys == ("quantity",)
    assert {"quantity", "linenum"} <= set(candidate.columns)
