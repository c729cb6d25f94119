"""Asyncio query server over one :class:`~repro.engine.Database`.

Architecture — a front-end/worker split (the BRAD pattern scaled down):

* The **asyncio event loop** owns every TCP connection. Each connection gets
  a :class:`~repro.serving.session.Session`; requests are newline-delimited
  JSON (:mod:`repro.serving.protocol`), handled strictly in order per
  connection (closed-loop clients; concurrency comes from many
  connections).
* Executable work (``sql`` / ``query`` / ``explain --analyze``) is bound to
  a query object, given a :class:`~repro.cancel.CancelToken` carrying the
  session's deadline, and *offered* to the bounded
  :class:`~repro.serving.admission.AdmissionQueue` under the session's
  priority class. A full queue rejects immediately — backpressure reaches
  the client as ``{"ok": false, "rejected": true}`` instead of unbounded
  buffering.
* A fixed pool of **worker threads** takes from the queue and runs
  ``Database.query(..., cancel=token, queue_wait_ms=wait)``; the engine's
  execute path is thread-safe (locked buffer pool / decoded cache /
  metrics, per-query stats), so workers share one Database. Results are
  delivered back to the event loop via ``loop.call_soon_threadsafe``.
* **Timeouts and cancellation** are cooperative: the token's deadline
  starts at admission, so time queued counts against the budget, and the
  engine checks the token at every block access. A disconnecting client
  trips the tokens of its in-flight queries. Either a complete result
  comes back or the query unwinds with a truncated-but-valid span tree —
  never a partial result.
* **Graceful drain**: :meth:`QueryServer.shutdown` stops accepting
  connections, rejects new work as ``draining``, waits for the queue and
  in-flight queries to empty, then closes the queue (workers exit) and the
  remaining connections.

:class:`ServerThread` wraps the whole thing in a background thread running
its own event loop — the handle tests, benchmarks and the differential
harness use to stand a server up around an existing Database.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass, field

from ..cancel import CancelToken
from ..errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
)
from ..serving.admission import AdmissionQueue
from ..serving.protocol import error_response, json_default, query_from_dict
from ..serving.session import Session

#: Big enough for a full result set on one JSON line (the stream reader's
#: default 64 KiB limit truncates anything non-trivial).
STREAM_LIMIT = 32 * 1024 * 1024

#: The :meth:`~repro.engine.QueryResult.summary` keys a query reply carries
#: (the row count goes out as ``n_rows``); the degraded pair only when set.
_REPLY_SUMMARY = (
    "strategy", "wall_ms", "simulated_ms", "queue_wait_ms", "total_ms",
    "degraded", "skipped_partitions",
)


@dataclass
class _Work:
    """One admitted query: everything a worker needs to run and reply."""

    kind: str                      # "query" | "explain"
    session: Session
    query: object
    knobs: dict
    token: CancelToken | None
    future: asyncio.Future
    loop: asyncio.AbstractEventLoop
    enqueued_at: float = field(default_factory=time.monotonic)


class QueryServer:
    """Serve one Database over TCP with admission control and sessions."""

    def __init__(
        self,
        db,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        max_queue: int = 64,
        metrics=None,
    ):
        """Args:
            db: the :class:`~repro.engine.Database` to serve. Query
                execution is thread-safe; DDL (load/merge/drop) is not and
                must not run while the server is up.
            host / port: listen address; port 0 binds an ephemeral port
                (read it back from :attr:`port` after :meth:`start`).
            workers: worker threads executing admitted queries. On a
                single core this bounds queue-drain concurrency; the numpy
                kernels release the GIL, so extra workers overlap where
                cores exist.
            max_queue: admission-queue bound; offers past it are rejected.
            metrics: registry for serving counters/histograms (defaults to
                the database's registry).
        """
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.db = db
        self.host = host
        self._requested_port = port
        self.workers = workers
        self.metrics = metrics if metrics is not None else db.metrics
        self.admission = AdmissionQueue(max_depth=max_queue)
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._threads: list[threading.Thread] = []
        self._sessions: dict[int, Session] = {}
        self._writers: set = set()
        self._next_session = 0
        self._draining = False
        self._active = 0
        self._active_lock = threading.Lock()
        self.started_at: float | None = None

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Bind the listener and start the worker pool."""
        self._loop = asyncio.get_running_loop()
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-{i}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self._requested_port,
            limit=STREAM_LIMIT,
        )
        self.started_at = time.time()

    @property
    def port(self) -> int:
        """The bound port (resolves ephemeral port 0 after start)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Run until cancelled (the ``repro serve`` foreground path)."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, optionally drain in-flight work, release workers.

        With ``drain=True`` (default) every admitted query finishes and its
        response is delivered before workers are released; with ``False``
        queued work is dropped on the floor (in-flight queries still run to
        completion — workers are joined either way).
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            while self.admission.depth() > 0 or self._active_count() > 0:
                await asyncio.sleep(0.005)
        self.admission.close()
        for thread in self._threads:
            await asyncio.to_thread(thread.join)
        self._threads.clear()
        for writer in list(self._writers):
            writer.close()

    def _active_count(self) -> int:
        with self._active_lock:
            return self._active

    # ------------------------------------------------------------ connections

    async def _handle_connection(self, reader, writer) -> None:
        self._next_session += 1
        session = Session(self._next_session)
        self._sessions[session.session_id] = session
        self._writers.add(writer)
        try:
            greeting = {
                "ok": True,
                "server": "repro",
                "session_id": session.session_id,
                "knobs": dict(session.knobs),
            }
            await self._send(writer, greeting)
            while True:
                line = await reader.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    request = json.loads(line)
                    response = await self._dispatch(session, request)
                except Exception as exc:  # malformed request, never fatal
                    response = error_response(exc)
                await self._send(writer, response)
                if response.get("closing"):
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            session.cancel_inflight()
            self._writers.discard(writer)
            self._sessions.pop(session.session_id, None)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _send(self, writer, payload: dict) -> None:
        try:
            line = json.dumps(payload, default=json_default)
        except (TypeError, ValueError) as exc:  # unserialisable: say so
            line = json.dumps(error_response(exc))
        writer.write(line.encode("utf-8") + b"\n")
        await writer.drain()

    # -------------------------------------------------------------- dispatch

    async def _dispatch(self, session: Session, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "close":
            return {"ok": True, "closing": True}
        if op == "set":
            try:
                knobs = session.set_knobs(request.get("knobs", {}))
            except ValueError as exc:
                return error_response(exc)
            return {"ok": True, "knobs": knobs}
        if op == "session":
            return {"ok": True, "session": session.describe()}
        if op == "stats":
            return {"ok": True, "stats": self.stats()}
        if op == "metrics":
            return self._metrics_response(request)
        if op in ("sql", "query", "explain"):
            return await self._submit(session, op, request)
        return error_response(ValueError(f"unknown op {op!r}"))

    def _metrics_response(self, request: dict) -> dict:
        """The ``metrics`` op: registry exposition plus live serving stats.

        ``format: "prometheus"`` (default) returns the text exposition
        format ready to write to a scrape endpoint; ``format: "json"``
        returns the raw registry export and server stats for programmatic
        consumers (``repro top``).
        """
        fmt = request.get("format", "prometheus")
        export = self.metrics.export()
        if fmt == "json":
            return {"ok": True, "metrics": export, "stats": self.stats()}
        if fmt != "prometheus":
            return error_response(
                ValueError(f"unknown metrics format {fmt!r}")
            )
        from ..exposition import render_prometheus

        return {
            "ok": True,
            "content_type": "text/plain; version=0.0.4",
            "text": render_prometheus(export, serving=self.stats()),
        }

    async def _submit(self, session: Session, op: str, request: dict) -> dict:
        """Bind, admit, and await one executable request."""
        if self._draining:
            # Pre-bind rejection: no query object yet, log outcome only.
            return self._reject(session, None, "draining",
                                "server is draining")
        try:
            query = self._bind(request)
        except Exception as exc:
            session.record(op, ok=False, detail=str(exc))
            return error_response(exc)
        try:
            knobs = session.effective(request)
        except ValueError as exc:
            return error_response(exc)
        analyze = bool(request.get("analyze", True))
        if op == "explain" and not analyze:
            # Pure model predictions: no execution, no admission needed.
            plan = self.db.explain(query)
            plan.pop("details", None)
            return {"ok": True, "explain": plan}
        timeout_ms = knobs["timeout_ms"]
        token = CancelToken(timeout_ms=timeout_ms)
        work = _Work(
            kind="explain" if op == "explain" else "query",
            session=session,
            query=query,
            knobs=knobs,
            token=token,
            future=self._loop.create_future(),
            loop=self._loop,
        )
        session.track(token)
        try:
            if not self.admission.offer(work, priority=knobs["priority"]):
                self.metrics.counter("serving.rejected_total").inc()
                session.record(op, ok=False, detail="rejected (queue full)")
                depth = self.admission.max_depth
                return self._reject(
                    session, query, f"queue full (depth {depth})",
                    f"admission queue full (depth {depth})",
                )
            response = await work.future
        finally:
            session.untrack(token)
        session.record(
            op,
            ok=bool(response.get("ok")),
            wall_ms=response.get("total_ms"),
            detail=request.get("sql", "")
            or request.get("query", {}).get("projection", ""),
        )
        return response

    def _reject(self, session: Session, query, reason: str,
                message: str) -> dict:
        """Turn a request away: count it, log it, build the error reply."""
        session.rejected += 1
        qlog = getattr(self.db, "qlog", None)
        if qlog is not None:
            qlog.observe_rejected(
                query, reason, session=str(session.session_id)
            )
        return error_response(ReproError(message), rejected=True)

    def _bind(self, request: dict):
        """Turn the request into a logical query object (event-loop side)."""
        if "sql" in request:
            from ..sql import bind, parse

            encodings = request.get("encodings") or None
            return bind(parse(request["sql"]), self.db.catalog,
                        encodings=encodings)
        if "query" in request:
            return query_from_dict(request["query"])
        raise ValueError("request needs 'sql' or 'query'")

    # --------------------------------------------------------------- workers

    def _worker_loop(self) -> None:
        while True:
            work = self.admission.take(timeout=0.1)
            if work is None:
                if self.admission.closed:
                    return
                continue
            with self._active_lock:
                self._active += 1
            try:
                response = self._execute(work)
            finally:
                with self._active_lock:
                    self._active -= 1
            work.loop.call_soon_threadsafe(
                self._deliver, work.future, response
            )

    @staticmethod
    def _deliver(future: asyncio.Future, response: dict) -> None:
        if not future.done():  # connection may have gone away meanwhile
            future.set_result(response)

    def _execute(self, work: _Work) -> dict:
        """Run one admitted query on this worker thread, build the response."""
        wait_ms = (time.monotonic() - work.enqueued_at) * 1000.0
        knobs = work.knobs
        self.metrics.histogram("serving.queue_wait_ms").record(wait_ms)
        try:
            if work.kind == "explain":
                report = self.db.explain(
                    work.query,
                    analyze=True,
                    strategy=knobs["strategy"],
                    cancel=work.token,
                    queue_wait_ms=wait_ms,
                )
                response = {
                    "ok": True,
                    "explain": {
                        k: report[k]
                        for k in (
                            "strategy", "rows", "wall_ms", "simulated_ms",
                            "queue_wait_ms", "total_ms", "text", "json",
                        )
                    },
                    "queue_wait_ms": report["queue_wait_ms"],
                    "total_ms": report["total_ms"],
                }
            else:
                result = self.db.query(
                    work.query,
                    strategy=knobs["strategy"],
                    trace=knobs["trace"],
                    cancel=work.token,
                    queue_wait_ms=wait_ms,
                    origin="served",
                    session=str(work.session.session_id),
                )
                rows = (
                    result.decoded_rows() if knobs["decoded"]
                    else result.rows()
                )
                summary = result.summary()
                response = {
                    "ok": True,
                    "columns": list(result.tuples.columns),
                    "rows": rows,
                    "n_rows": summary["rows"],
                }
                response.update(
                    (key, summary[key]) for key in _REPLY_SUMMARY
                    if key in summary
                )
                if result.spans is not None:
                    response["trace"] = result.spans.to_dict(
                        self.db.constants
                    )
            self.metrics.counter("serving.queries_total").inc()
            self.metrics.histogram("serving.total_ms").record(
                response["total_ms"]
            )
            return response
        except QueryTimeoutError as exc:
            self.metrics.counter("serving.timeouts_total").inc()
            return error_response(exc, timeout=True)
        except QueryCancelledError as exc:
            self.metrics.counter("serving.cancelled_total").inc()
            return error_response(exc)
        except Exception as exc:  # noqa: BLE001 - serialized to the client
            self.metrics.counter("serving.errors_total").inc()
            return error_response(exc)

    # ------------------------------------------------------------- reporting

    def stats(self) -> dict:
        """JSON-safe live server state (the ``stats`` op)."""
        return {
            "sessions": len(self._sessions),
            "workers": self.workers,
            "active": self._active_count(),
            "draining": self._draining,
            "admission": self.admission.metrics(),
            "started_at": self.started_at,
            "uptime_s": (
                round(time.time() - self.started_at, 3)
                if self.started_at
                else 0.0
            ),
        }


class ServerThread:
    """A QueryServer on a background event-loop thread (context manager).

    ::

        with ServerThread(db, workers=4) as server:
            # connect to ("127.0.0.1", server.port)
            ...
        # exiting drains and joins everything
    """

    def __init__(self, db, **kwargs):
        self._db = db
        self._kwargs = kwargs
        self.server: QueryServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-server-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server thread failed to start in time")
        if self._startup_error is not None:
            self._thread.join(timeout=5)
            raise self._startup_error
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self.server = QueryServer(self._db, **self._kwargs)
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:  # surface to the spawning thread
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        self._loop.run_forever()
        self._loop.close()

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def __exit__(self, *exc_info) -> None:
        if self._loop is None or self.server is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(drain=True), self._loop
        )
        future.result(timeout=60)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
