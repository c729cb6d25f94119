"""Deterministic, seedable transient-fault injection for block reads.

Production column stores survive flaky devices — C-Store's K-safety and the
durability machinery of LSM-based columnar stores both assume storage fails
*sometimes* and build recovery around that. This module gives the
reproduction the same property in testable form: a :class:`FaultInjector`
hooked into the buffer pool's physical block reads
(:meth:`repro.buffer.pool.BufferPool.get`) injects three kinds of fault
according to a declarative schedule of :class:`FaultRule` entries:

* ``transient`` — the read raises :class:`~repro.errors.TransientIOError`;
  a bounded number of attempts fail, after which the block reads fine, so a
  retry policy with enough attempts always recovers. This models cable
  glitches, controller timeouts, kernel EIO-with-retry.
* ``corrupt``   — the read raises :class:`~repro.errors.CorruptBlockError`
  on *every* attempt, modelling persistent bit rot that checksum
  verification catches. Only quarantine (or repair) gets past it.
* ``slow``      — the read succeeds but charges extra microseconds to the
  simulated disk clock, modelling a degraded device or a deep queue.

Determinism: whether a given ``(path, block)`` is faulty is decided by a
keyed BLAKE2 hash of the injector seed and the block identity — never by a
shared RNG stream — so the schedule is identical run-over-run *and*
independent of thread interleaving under the parallel scan scheduler. The
per-block attempt counters are guarded by one lock.

The hook is nearly free when disabled: ``BufferPool`` holds ``injector =
None`` and skips the call entirely, so every e2e benchmark workload
(``benchmarks/e2e``) already pays whatever the disabled hook costs.
"""

from __future__ import annotations

import fnmatch
import hashlib
import os
import threading
from dataclasses import dataclass, field

from .errors import (
    CorruptBlockError,
    QuarantinedPartitionError,
    TransientIOError,
)
from .metrics import QueryStats


@dataclass(frozen=True)
class FaultRule:
    """One declarative entry of a fault schedule.

    Attributes:
        kind: ``"transient"``, ``"corrupt"``, or ``"slow"``.
        path_glob: ``fnmatch`` pattern the column file path (or its
            basename) must match; ``"*"`` matches every file.
        block_index: restrict the rule to one block ordinal, or ``None``
            for any block.
        probability: fraction of matching blocks the rule selects
            (decided per ``(path, block)`` by the injector's keyed hash, so
            the selection is deterministic for a given seed).
        times: for ``transient`` rules, how many attempts on a selected
            block fail before reads succeed again. Ignored for ``corrupt``
            (always fails) and ``slow`` (never fails).
        latency_us: for ``slow`` rules, microseconds added to the simulated
            disk clock per read of a selected block.
    """

    kind: str
    path_glob: str = "*"
    block_index: int | None = None
    probability: float = 1.0
    times: int = 1
    latency_us: float = 0.0

    def __post_init__(self):
        if self.kind not in ("transient", "corrupt", "slow"):
            raise ValueError(f"unknown fault kind {self.kind!r}")

    def matches(self, path: str, index: int) -> bool:
        if self.block_index is not None and index != self.block_index:
            return False
        return fnmatch.fnmatch(path, self.path_glob) or fnmatch.fnmatch(
            os.path.basename(path), self.path_glob
        )


class FaultInjector:
    """Applies a fault schedule to physical block reads, deterministically.

    The buffer pool calls :meth:`on_read` immediately before every physical
    block read (cache hits never consult the injector — a resident block
    cannot fail). ``on_read`` either returns extra simulated latency to
    charge (``slow`` faults, usually ``0.0``) or raises
    :class:`~repro.errors.TransientIOError` /
    :class:`~repro.errors.CorruptBlockError` with a message naming the file
    and block.
    """

    def __init__(self, rules=(), seed: int = 0):
        self.rules: tuple[FaultRule, ...] = tuple(rules)
        self.seed = seed
        self._attempts: dict[tuple[str, int, int], int] = {}
        self._lock = threading.Lock()
        #: Faults injected so far, by kind (for tests and metrics).
        self.injected: dict[str, int] = {
            "transient": 0, "corrupt": 0, "slow": 0,
        }

    # ------------------------------------------------------------ selection

    def _selects(self, rule_index: int, rule: FaultRule,
                 path: str, index: int) -> bool:
        """Keyed-hash draw: does *rule* select this ``(path, block)``?

        Hashing the basename (not the absolute path) keeps schedules stable
        across database roots — the same logical file is selected whether
        the database lives in /tmp or a test fixture directory.
        """
        if rule.probability >= 1.0:
            return True
        if rule.probability <= 0.0:
            return False
        key = f"{self.seed}:{rule_index}:{os.path.basename(path)}:{index}"
        digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
        draw = int.from_bytes(digest, "big") / float(1 << 64)
        return draw < rule.probability

    # ----------------------------------------------------------------- hook

    def on_read(self, path: str, index: int,
                stats: QueryStats | None = None) -> float:
        """Consult the schedule for one physical read attempt.

        Returns extra simulated latency in microseconds (``slow`` faults;
        ``0.0`` otherwise) or raises the scheduled error. Each call counts
        as one attempt against the matching rules' per-block budgets.
        """
        latency = 0.0
        for rule_index, rule in enumerate(self.rules):
            if not rule.matches(path, index):
                continue
            if not self._selects(rule_index, rule, path, index):
                continue
            if rule.kind == "slow":
                latency += rule.latency_us
                with self._lock:
                    self.injected["slow"] += 1
                continue
            if rule.kind == "corrupt":
                with self._lock:
                    self.injected["corrupt"] += 1
                raise CorruptBlockError(
                    f"{path}: block {index} failed checksum validation "
                    "(injected corruption)"
                )
            # transient: the first `times` attempts fail, later ones succeed.
            key = (path, index, rule_index)
            with self._lock:
                attempt = self._attempts.get(key, 0)
                self._attempts[key] = attempt + 1
                if attempt < rule.times:
                    self.injected["transient"] += 1
                    raise TransientIOError(
                        f"{path}: block {index} transient I/O error "
                        f"(injected, attempt {attempt + 1})"
                    )
        return latency

    # ------------------------------------------------------------ lifecycle

    def reset(self) -> None:
        """Forget attempt counters and injection tallies (fresh schedule)."""
        with self._lock:
            self._attempts.clear()
            for kind in self.injected:
                self.injected[kind] = 0

    def metrics(self) -> dict:
        """Injection tallies for the metrics registry's collector interface."""
        with self._lock:
            return {"rules": len(self.rules), "seed": self.seed,
                    **{f"injected_{k}": v for k, v in self.injected.items()}}


class SimulatedCrash(BaseException):
    """Process death injected at a write-path boundary.

    Deliberately a :class:`BaseException`: the crash must tear straight
    through ``except Exception`` cleanup (the qlog writer, retry loops) the
    way a real ``kill -9`` would, so no layer can "handle" its own death.
    The harness catches it at the very top, abandons the database object,
    and reopens the directory cold to exercise recovery.
    """

    def __init__(self, op: str, path: str, step: int):
        super().__init__(f"simulated crash at boundary {step}: {op} {path}")
        self.op = op
        self.path = path
        self.step = step


@dataclass(frozen=True)
class CrashPoint:
    """One declarative entry of a crash schedule.

    Attributes:
        op_glob: ``fnmatch`` pattern the boundary's operation name must
            match (``wal.append``, ``wal.torn``, ``wal.fsync``,
            ``wal.truncate``, ``file.write``, ``file.fsync``, ``dir.fsync``,
            ``rename``, ``replace``, ``rmtree``); ``"*"`` matches every
            boundary.
        path_glob: ``fnmatch`` pattern the file path (or its basename) must
            match; ``"*"`` matches every file.
        probability: fraction of matching boundaries the point selects,
            decided by a keyed BLAKE2 hash of the injector seed, the
            boundary's operation, basename, and ordinal — deterministic for
            a given seed, exactly like :class:`FaultRule` selection.
    """

    op_glob: str = "*"
    path_glob: str = "*"
    probability: float = 1.0

    def matches(self, op: str, path: str) -> bool:
        if not fnmatch.fnmatch(op, self.op_glob):
            return False
        return fnmatch.fnmatch(path, self.path_glob) or fnmatch.fnmatch(
            os.path.basename(path), self.path_glob
        )


class CrashInjector:
    """Deterministic, seedable crash-point injection for the write path.

    Every durability-relevant boundary in the write path — WAL appends and
    fsyncs, staging-file writes, directory fsyncs, renames, the manifest
    ``os.replace`` commit point, post-commit cleanup — calls :meth:`hook`
    with an operation name and a path. The injector counts boundaries on a
    monotone step counter and raises :class:`SimulatedCrash` when either

    * ``crash_at == step`` — exhaustive enumeration mode: the differential
      harness first runs the workload with a passive injector to count the
      boundaries, then replays it once per ordinal, crashing each boundary
      in turn; or
    * a :class:`CrashPoint` selects the boundary by keyed hash — schedule
      mode, mirroring :class:`FaultRule`.

    Like the fault injector, the hook is free when disabled (``crash = None``
    callers skip it entirely; the e2e ``htap_ingest_read`` workload runs
    the disabled hooks on every write).
    """

    def __init__(self, points=(), seed: int = 0, crash_at: int | None = None):
        self.points: tuple[CrashPoint, ...] = tuple(points)
        self.seed = seed
        self.crash_at = crash_at
        self.steps = 0
        #: The crash this injector raised, if any (for the harness).
        self.crashed: SimulatedCrash | None = None
        self._lock = threading.Lock()

    def _selects(self, point_index: int, point: CrashPoint,
                 op: str, path: str, step: int) -> bool:
        if point.probability >= 1.0:
            return True
        if point.probability <= 0.0:
            return False
        key = (
            f"{self.seed}:{point_index}:{op}:"
            f"{os.path.basename(path)}:{step}"
        )
        digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
        draw = int.from_bytes(digest, "big") / float(1 << 64)
        return draw < point.probability

    def check(self, op: str, path: str) -> bool:
        """Count one boundary; True when the schedule says to crash here.

        Exposed separately from :meth:`hook` for sites that must do partial
        work *before* dying (the torn-WAL-tail write).
        """
        with self._lock:
            self.steps += 1
            step = self.steps
        if self.crash_at is not None:
            return step == self.crash_at
        for i, point in enumerate(self.points):
            if point.matches(op, str(path)) and self._selects(
                i, point, op, str(path), step
            ):
                return True
        return False

    def hook(self, op: str, path) -> None:
        """Die here if the schedule selects this boundary."""
        if self.check(op, str(path)):
            raise self.crash(op, str(path))

    def crash(self, op: str, path: str) -> SimulatedCrash:
        """Record and return the :class:`SimulatedCrash` for this boundary."""
        exc = SimulatedCrash(op, str(path), self.steps)
        self.crashed = exc
        return exc

    def reset(self) -> None:
        """Restart the boundary counter (fresh workload, same schedule)."""
        with self._lock:
            self.steps = 0
            self.crashed = None

    def metrics(self) -> dict:
        """Crash-schedule state for the metrics registry's collectors."""
        with self._lock:
            return {
                "points": len(self.points),
                "seed": self.seed,
                "crash_at": self.crash_at,
                "steps": self.steps,
                "crashed": self.crashed is not None,
            }


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with simulated exponential backoff for block reads.

    Attributes:
        attempts: total read attempts per block (1 = no retry).
        backoff_us: simulated microseconds charged before retry *n* as
            ``backoff_us * 2**(n-1)`` — the backoff enters
            ``QueryStats.simulated_io_us`` (and therefore the model-replay
            time), never wall-clock: the engine does not actually sleep.
    """

    attempts: int = 3
    backoff_us: float = 500.0

    def __post_init__(self):
        if self.attempts < 1:
            raise ValueError("RetryPolicy needs at least one attempt")

    def backoff_for(self, retry_number: int) -> float:
        """Simulated backoff before the *retry_number*-th retry (1-based)."""
        return self.backoff_us * (2.0 ** (retry_number - 1))


#: Retry disabled: a single attempt, matching the pre-fault-layer engine.
NO_RETRY = RetryPolicy(attempts=1, backoff_us=0.0)


class PartitionQuarantine:
    """Session-scoped registry of partitions taken out of service.

    With ``Database(on_error="degrade")``, a partition that exhausts its
    retry budget or fails checksum validation is *quarantined*: a
    :class:`~repro.errors.QuarantinedPartitionError` is recorded here and
    every later query in the session skips the partition up front (and is
    marked degraded), instead of re-discovering the failure block by block.
    The registry is shared by the parallel scan leaves, so access is locked.
    """

    def __init__(self):
        self._entries: "dict[tuple[str, str], QuarantinedPartitionError]" = {}
        self._lock = threading.Lock()

    def record(
        self, projection: str, partition: str, cause: BaseException | str
    ) -> QuarantinedPartitionError:
        """Quarantine one partition (idempotent; first cause wins)."""
        error = QuarantinedPartitionError(projection, partition, str(cause))
        with self._lock:
            return self._entries.setdefault((projection, partition), error)

    def is_quarantined(self, projection: str, partition: str) -> bool:
        with self._lock:
            return (projection, partition) in self._entries

    def entries(self) -> list[QuarantinedPartitionError]:
        """Every recorded quarantine, in (projection, partition) order."""
        with self._lock:
            return [self._entries[k] for k in sorted(self._entries)]

    def release(self, projection: str, partition: str) -> bool:
        """Take a partition back into service (after an operator repaired
        it); True when it was quarantined."""
        with self._lock:
            return self._entries.pop((projection, partition), None) is not None

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def metrics(self) -> dict:
        """Quarantine state for the metrics registry's collector interface."""
        with self._lock:
            return {
                "quarantined": len(self._entries),
                "partitions": [
                    f"{proj}/{part}" for proj, part in sorted(self._entries)
                ],
            }
