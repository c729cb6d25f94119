"""Serving layer: sessions, admission control, and the query server.

Turns the single-process engine into a measurable serving system (the
ROADMAP's "heavy traffic" front door): an asyncio TCP server speaking a
newline-delimited JSON protocol over one shared
:class:`~repro.engine.Database`, with per-connection
:class:`~repro.serving.session.Session` state, a bounded
:class:`~repro.serving.admission.AdmissionQueue` with priority classes and
backpressure, per-query deadlines with cooperative cancellation, and
graceful drain. See ``docs/serving.md`` for the protocol and semantics.
"""

from .admission import PRIORITIES, AdmissionQueue
from .client import AsyncQueryClient
from .protocol import query_from_dict, query_to_dict
from .server import QueryServer, ServerThread
from .session import DEFAULT_KNOBS, Session

__all__ = [
    "AdmissionQueue",
    "PRIORITIES",
    "AsyncQueryClient",
    "QueryServer",
    "ServerThread",
    "Session",
    "DEFAULT_KNOBS",
    "query_to_dict",
    "query_from_dict",
]
