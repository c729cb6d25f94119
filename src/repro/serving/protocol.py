"""Wire format: newline-delimited JSON requests/responses, query (de)serialization.

One request per line, one response per line, each a single JSON object.
Requests carry an ``op`` plus op-specific fields; responses always carry
``ok`` and, on failure, an ``error`` object ``{"type", "message"}`` with
optional ``timeout`` / ``rejected`` markers so clients can distinguish a
deadline from backpressure from a genuine error.

Logical queries cross the wire as plain dicts via :func:`query_to_dict` /
:func:`query_from_dict`, covering every :class:`~repro.planner.SelectQuery`
and :class:`~repro.planner.JoinQuery` field (predicates, IN-lists,
aggregates, encodings, order/limit, disjuncts, having). All engine values
are integers or floats, so the JSON round trip is exact — which is what
makes bit-identical differential comparison over the wire sound. Decoded
replies add strings: dictionary values, and dates as ISO ``YYYY-MM-DD``.
"""

from __future__ import annotations

from datetime import date

from ..operators.aggregate import AggSpec
from ..planner import JoinQuery, SelectQuery
from ..predicates import InPredicate, Predicate


def _predicate_to_dict(pred) -> dict:
    if isinstance(pred, InPredicate):
        return {"column": pred.column, "in": list(pred.in_values)}
    return {"column": pred.column, "op": pred.op, "value": pred.value}


def _predicate_from_dict(payload: dict):
    if "in" in payload:
        return InPredicate(payload["column"], tuple(payload["in"]))
    return Predicate(payload["column"], payload["op"], payload["value"])


def _agg_to_dict(spec: AggSpec) -> dict:
    return {"func": spec.func, "column": spec.column}


def _agg_from_dict(payload: dict) -> AggSpec:
    return AggSpec(payload["func"], payload["column"])


def query_to_dict(query) -> dict:
    """JSON-safe dict for a :class:`SelectQuery` or :class:`JoinQuery`."""
    if isinstance(query, SelectQuery):
        return {
            "kind": "select",
            "projection": query.projection,
            "select": list(query.select),
            "predicates": [_predicate_to_dict(p) for p in query.predicates],
            "group_by": list(query.group_by) if query.group_by else None,
            "aggregates": [_agg_to_dict(a) for a in query.aggregates],
            "encodings": [list(pair) for pair in query.encodings],
            "order_by": [[col, bool(desc)] for col, desc in query.order_by],
            "limit": query.limit,
            "disjuncts": [
                [_predicate_to_dict(p) for p in group]
                for group in query.disjuncts
            ],
            "having": [_predicate_to_dict(p) for p in query.having],
        }
    if isinstance(query, JoinQuery):
        return {
            "kind": "join",
            "left": query.left,
            "right": query.right,
            "left_key": query.left_key,
            "right_key": query.right_key,
            "left_select": list(query.left_select),
            "right_select": list(query.right_select),
            "left_predicates": [
                _predicate_to_dict(p) for p in query.left_predicates
            ],
            "encodings": [list(pair) for pair in query.encodings],
            "left_strategy": query.left_strategy,
            "group_by": list(query.group_by) if query.group_by else None,
            "aggregates": [_agg_to_dict(a) for a in query.aggregates],
        }
    raise TypeError(f"cannot serialize {type(query).__name__}")


def query_from_dict(payload: dict):
    """Inverse of :func:`query_to_dict`."""
    kind = payload.get("kind", "select")
    group_by = payload.get("group_by")
    if kind == "select":
        return SelectQuery(
            projection=payload["projection"],
            select=tuple(payload["select"]),
            predicates=tuple(
                _predicate_from_dict(p) for p in payload.get("predicates", ())
            ),
            group_by=tuple(group_by) if group_by else None,
            aggregates=tuple(
                _agg_from_dict(a) for a in payload.get("aggregates", ())
            ),
            encodings=tuple(
                (col, enc) for col, enc in payload.get("encodings", ())
            ),
            order_by=tuple(
                (col, bool(desc)) for col, desc in payload.get("order_by", ())
            ),
            limit=payload.get("limit"),
            disjuncts=tuple(
                tuple(_predicate_from_dict(p) for p in group)
                for group in payload.get("disjuncts", ())
            ),
            having=tuple(
                _predicate_from_dict(p) for p in payload.get("having", ())
            ),
        )
    if kind == "join":
        return JoinQuery(
            left=payload["left"],
            right=payload["right"],
            left_key=payload["left_key"],
            right_key=payload["right_key"],
            left_select=tuple(payload["left_select"]),
            right_select=tuple(payload["right_select"]),
            left_predicates=tuple(
                _predicate_from_dict(p)
                for p in payload.get("left_predicates", ())
            ),
            encodings=tuple(
                (col, enc) for col, enc in payload.get("encodings", ())
            ),
            left_strategy=payload.get("left_strategy", "late"),
            group_by=tuple(group_by) if group_by else None,
            aggregates=tuple(
                _agg_from_dict(a) for a in payload.get("aggregates", ())
            ),
        )
    raise ValueError(f"unknown query kind {kind!r}")


def json_default(value):
    """``json.dumps`` hook: dates go out as ISO strings, as ``repro query``
    prints them; anything else stays unserialisable."""
    if isinstance(value, date):
        return value.isoformat()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def error_response(
    exc: BaseException, *, timeout: bool = False, rejected: bool = False
) -> dict:
    """Uniform failure payload; markers distinguish deadline/backpressure."""
    out = {
        "ok": False,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    if timeout:
        out["timeout"] = True
    if rejected:
        out["rejected"] = True
    return out
