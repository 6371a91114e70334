"""The solve service: request queue, dynamic batching, worker threads.

A long-lived front end for the multigrid solver, shaped like the
serving layer a production analysis campaign would put in front of it:

* clients :meth:`~SolveService.submit` single right-hand sides, or
  :meth:`~SolveService.submit_many` a burst atomically, and get futures;
* ``n_workers`` worker threads pull: a free worker takes the oldest
  pending request plus everything pending for the same (operator,
  tolerance), up to ``max_batch`` systems.  Work-conserving: a lone
  request starts at once, requests coalesce exactly while every worker
  is busy, a burst is one batch (a straggler window was measured at
  +0.05 s per request for at most 1.18x per right-hand side and
  removed; DESIGN.md section 9);
* a batch is one :meth:`~repro.mg.solver.MultigridSolver.solve_multi`
  call, the paper's Section 9 multi-RHS reformulation: every stencil,
  transfer and smoothing matrix on every level is read once for the
  whole batch (a lone request is the batch of one);
* the expensive MG setup is obtained through a :class:`SetupCache`, so
  repeat registrations (or service restarts, with a disk-backed cache)
  skip the near-null-vector generation entirely.

Backpressure is a bounded queue: a request stays in it until a worker
takes it, and once ``queue_capacity`` requests are pending
:meth:`~SolveService.submit` raises :class:`ServiceOverloadedError`.
Every accepted request ends in exactly one counted outcome: after
:meth:`~SolveService.close`, ``submitted == completed + failed +
timeouts + cancelled`` (a ``rejected`` request was never ``submitted``).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import InitVar, dataclass, field

import numpy as np

from ..mg.params import MGParams
from ..mg.solver import MultigridSolver
from ..obs.blackbox import blackbox_document, write_blackbox
from ..obs.convergence import detect_anomalies
from ..obs.slo import SLOMonitor
from ..solvers.base import SolveResult, validate_rhs_stack
from ..telemetry.context import TraceContext, activate, current_trace_id, new_trace_id
from ..telemetry.metrics import get_registry
from ..telemetry.tracer import get_tracer
from .cache import SetupCache
from .counters import Counters
from .slog import RequestEvent, log_event, log_request_event, publish


class ServiceOverloadedError(RuntimeError):
    """The pending queue is full; the client should retry or back off.

    Carries a machine-readable payload so load-shedding clients (the
    fleet router above all) can act on the rejection without parsing
    the message string: ``queue_depth`` and ``capacity`` describe the
    queue at rejection time, ``retry_after_s`` estimates when a slot
    should free up (queue depth times the service's observed mean
    solve time, floored at one solve).
    """

    def __init__(
        self,
        message: str,
        queue_depth: int = 0,
        capacity: int = 0,
        retry_after_s: float = 0.0,
    ):
        super().__init__(message)
        self.queue_depth = int(queue_depth)
        self.capacity = int(capacity)
        self.retry_after_s = float(retry_after_s)

    def to_dict(self) -> dict:
        return {
            "error": "overloaded",
            "queue_depth": self.queue_depth,
            "capacity": self.capacity,
            "retry_after_s": self.retry_after_s,
        }


class ServiceClosedError(RuntimeError):
    """The service is shut down and accepts no new requests."""


class SolveTimeoutError(TimeoutError):
    """The request exceeded its deadline while waiting in the queue."""


@dataclass
class ServeConfig:
    """Tuning knobs of the service.

    The batcher has no timer to tune: a free worker takes what is
    pending (module docstring), ``max_batch`` bounds a batch and nothing
    sizes a wait.
    """

    max_batch: int = 8  # systems coalesced into one multi-RHS solve
    # accepted and discarded — the frozen benchmarks/e2e harness still
    # passes the straggler window this used to size (ROADMAP 0(g))
    max_wait_s: InitVar[object] = None
    queue_capacity: int = 64  # pending-request bound (backpressure)
    n_workers: int = 1  # solver worker threads
    # Postmortem capture: on timeout, failure or detected stall the
    # service assembles a blackbox dump (always kept in memory
    # as ``service.last_blackbox``); a directory here persists each dump
    # to disk for `repro blackbox`.
    blackbox_dir: str | None = None
    # Declarative SLOs (repro.obs.slo.SLOSpec); non-empty installs an
    # SLOMonitor that observes every finished request, with burn-rate
    # alerts into the structured log.
    slo_specs: tuple = ()
    # Identity of this service on shared timelines: fleet shards set it
    # to their node id, and every serve.batch span then carries a
    # ``shard`` attribute — the Perfetto exporter's track key, so
    # stitched cross-shard traces separate into one track per node.
    label: str | None = None

    def __post_init__(self, max_wait_s=None):
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")


def book_metrics(event: RequestEvent) -> None:
    """The metrics subscriber: every ``serve.*`` and ``fleet.*`` series,
    for the service and the router alike."""
    registry = get_registry()
    if registry.enabled:
        kind, op, n = event.kind, event.op, len(event.request_ids)
        if event.in_flight is not None:  # a service edge: its queue now
            registry.gauge("serve.queue_depth").set(event.queue_depth)
            registry.gauge("serve.in_flight").set(event.in_flight)
        if kind == "enqueued":
            registry.counter("serve.requests", op=op).inc(n)
        elif kind == "rejected":
            registry.counter("serve.rejected", op=op).inc(event.burst)
        elif kind == "timeout":
            registry.counter("serve.timeouts", op=op).inc()
        elif kind == "dispatched":
            registry.histogram("serve.batch_size", op=op).observe(n)
            for wait in event.waits_s:
                registry.histogram("serve.queue_wait_s").observe(wait)
        elif kind == "completed":
            latency = registry.histogram("serve.request_latency_s", op=op)
            for wait, tid in zip(event.waits_s, event.trace_ids):
                # the exemplar ties this sample to the request's spans and slog
                latency.observe(wait, trace_id=tid)
            registry.histogram("serve.solve_s", op=op).observe(event.solve_s)
            registry.counter("serve.completed", op=op).inc(n)
        elif kind == "stall":
            for v in event.verdicts:
                registry.counter("serve.stalls", op=op, kind=v.kind).inc()
        elif kind == "routed":
            shard = event.shard
            registry.counter(
                "fleet.routed", shard=shard, op=op, affinity=event.affinity
            ).inc()
            registry.counter("fleet.shard.requests", shard=shard, op=op).inc()
            depth = registry.gauge("fleet.shard.queue_depth", shard=shard)
            depth.set(event.queue_depth)
        elif kind in ("registered", "replicated"):
            name = "fleet.registered" if kind == "registered" else "fleet.replications"
            registry.counter(name, shard=event.shard, op=op).inc()
        elif kind == "shed":
            registry.counter("fleet.shed", op=op).inc()


@dataclass
class _Request:
    op_name: str
    rhs: np.ndarray
    tol: float
    timeout_s: float | None
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.perf_counter)
    id: int = 0
    trace_id: str = ""  # generated at ingress, threads every stream

    def expired(self, now: float) -> bool:
        return self.timeout_s is not None and now - self.enqueued_at > self.timeout_s


@dataclass
class _OperatorEntry:
    op: object
    params: MGParams
    solver: MultigridSolver


class SolveService:
    """Dynamic-batching multigrid solve service.

    Typical use::

        cache = SetupCache(disk_dir="setup-cache")
        with SolveService(ServeConfig(max_batch=8), cache=cache) as svc:
            svc.register("aniso", op, params)
            results = svc.solve_many("aniso", sources)

    Futures resolve to the same :class:`~repro.solvers.base.SolveResult`
    the direct solver returns.
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        cache: SetupCache | None = None,
    ):
        self.config = config if config is not None else ServeConfig()
        self.cache = cache if cache is not None else SetupCache()
        self._ops: dict[str, _OperatorEntry] = {}
        self._pending: deque[_Request] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._ids = itertools.count(1)
        self.stats = Counters(
            (
                "submitted", "completed", "rejected", "timeouts", "failed",
                "cancelled", "batches", "batched_systems", "stalls_detected",
                "blackbox_dumps",
            ),
            # the thread-CPU total excludes cross-service contention on
            # shared cores, which is what the fleet tier's device-time
            # model needs
            seconds=("solve_s_total", "solve_cpu_s_total"),
        )
        self.slo_monitor = (
            SLOMonitor(self.config.slo_specs) if self.config.slo_specs else None
        )
        #: most recent blackbox dump (postmortem state even
        #: when no blackbox_dir is configured)
        self.last_blackbox: dict | None = None
        self._in_flight = 0
        # every lifecycle edge is one RequestEvent handed to these
        # (kinds, sink) pairs in order; kinds None takes every event
        slo = [(None, self._observe_slo)] if self.slo_monitor is not None else []
        self._subscribers = [
            (None, book_metrics),
            (None, log_request_event),
            *slo,
            (("completed",), self._check_stall),
            (("timeout", "failed", "stall"), self._dump_blackbox),
        ]
        # Workers pull: a request stays in the bounded pending queue
        # (where submit() can reject it) until a worker takes it.
        self._workers = [
            threading.Thread(
                target=self._work, name=f"serve-worker-{i}", daemon=True
            )
            for i in range(self.config.n_workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- registration ---------------------------------------------------
    def register(
        self,
        name: str,
        op,
        params: MGParams,
        rng: np.random.Generator | None = None,
    ) -> None:
        """Make ``op`` solvable under ``name``; setup comes via the cache."""
        hierarchy = self.cache.get_or_build(op, params, rng)
        solver = MultigridSolver.from_hierarchy(hierarchy, params)
        with self._cond:
            if self._closed:
                raise ServiceClosedError("service is closed")
            self._ops[name] = _OperatorEntry(op, params, solver)

    def operators(self) -> list[str]:
        with self._cond:
            return sorted(self._ops)

    # -- load introspection ---------------------------------------------
    def queue_depth(self) -> int:
        """Pending (not yet dispatched) requests right now."""
        with self._cond:
            return len(self._pending)

    def in_flight(self) -> int:
        """Systems taken by a worker and not yet settled."""
        with self._cond:
            return self._in_flight

    def load(self) -> int:
        """Queued plus in-flight systems — the router's load signal."""
        with self._cond:
            return len(self._pending) + self._in_flight

    def _retry_after_locked(self) -> float:
        """Retry-hint seconds; caller holds ``self._cond``."""
        mean_solve = self.stats["solve_s_total"] / max(self.stats["completed"], 1)
        return max(len(self._pending), 1) * mean_solve

    # -- submission -----------------------------------------------------
    def submit(
        self,
        op_name: str,
        rhs: np.ndarray,
        tol: float | None = None,
        timeout_s: float | None = None,
    ) -> Future:
        """Enqueue one right-hand side; returns a future of SolveResult.

        Raises :class:`ServiceOverloadedError` when the queue is full,
        :class:`ServiceClosedError` after shutdown, and :class:`ValueError`
        for a right-hand side of the wrong shape for the operator, of a
        non-numeric dtype or with non-finite entries (it is never
        enqueued).  ``timeout_s`` bounds the time the request may wait
        before its batch starts; expired requests fail with
        :class:`SolveTimeoutError`.

        This is the trace ingress: each request gets a ``trace_id``
        here (inheriting the caller's active trace context if one is
        open) that then rides the queue, the batch, the solve spans,
        every slog record and the metric exemplars of this request.
        """
        return self.submit_many(op_name, [rhs], tol, timeout_s)[0]

    def submit_many(
        self,
        op_name: str,
        rhs_list,
        tol: float | None = None,
        timeout_s: float | None = None,
    ) -> list[Future]:
        """Enqueue a burst under one acquisition of the queue lock, so
        the next free worker takes it as one batch per ``max_batch``.

        All or nothing: one malformed right-hand side, or a burst that
        does not fit the queue (one larger than ``queue_capacity`` never
        does), raises as :meth:`submit` does and enqueues none of it.
        """
        with self._cond:
            if self._closed:
                raise ServiceClosedError("service is closed")
            entry = self._ops.get(op_name)
            if entry is None:
                raise KeyError(
                    f"unknown operator {op_name!r}; registered: {sorted(self._ops)}"
                )
            # a malformed right-hand side is its submitter's error:
            # refused here, it cannot fail the well-formed requests of
            # the batch it would have been coalesced into.  Everything
            # accepted is complex128 (what np.stack gave a mixed batch
            # anyway): a request is solved the same alone and coalesced.
            stack = [
                validate_rhs_stack(entry.op, np.asarray(b)[None])[0].astype(
                    np.complex128, copy=False
                )
                for b in rhs_list
            ]
            depth = len(self._pending)
            if depth + len(stack) > self.config.queue_capacity:
                self.stats.bump("rejected", len(stack))
                rejected = RequestEvent(
                    "rejected", op_name, queue_depth=depth, burst=len(stack)
                )
                self._emit(rejected)
                raise ServiceOverloadedError(
                    f"queue full ({depth} pending + {len(stack)} > "
                    f"{self.config.queue_capacity})",
                    queue_depth=depth,
                    capacity=self.config.queue_capacity,
                    retry_after_s=self._retry_after_locked(),
                )
            requests = [
                _Request(
                    op_name=op_name,
                    rhs=rhs,
                    tol=tol if tol is not None else entry.params.outer_tol,
                    timeout_s=timeout_s,
                    id=next(self._ids),
                    trace_id=current_trace_id() or new_trace_id(),
                )
                for rhs in stack
            ]
            self._pending.extend(requests)
            self.stats.bump("submitted", len(requests))
            enqueued = self._event("enqueued", requests, tol=requests[0].tol)
            self._cond.notify_all()
        self._emit(enqueued)
        return [req.future for req in requests]

    def solve(
        self,
        op_name: str,
        rhs: np.ndarray,
        tol: float | None = None,
        timeout_s: float | None = None,
    ) -> SolveResult:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(op_name, rhs, tol=tol, timeout_s=timeout_s).result()

    def solve_many(
        self,
        op_name: str,
        rhs_list,
        tol: float | None = None,
    ) -> list[SolveResult]:
        """:meth:`submit_many` and gather the results in order."""
        return [f.result() for f in self.submit_many(op_name, rhs_list, tol=tol)]

    # -- lifecycle ------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Stop the service.

        ``drain=True`` (default) completes all pending work first;
        ``drain=False`` fails pending requests with
        :class:`ServiceClosedError`.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            if not drain:
                self._cancel_pending_locked()
            self._cond.notify_all()
        for worker in self._workers:
            worker.join()
        with self._cond:
            self._cancel_pending_locked()  # non-empty only if a worker died
        # the subscribers are bound methods: kept, they would leave a
        # closed service (and its hierarchies) to the cycle collector
        self._subscribers = []
        if __debug__:
            s = self.stats.snapshot()
            settled = s["completed"] + s["failed"] + s["timeouts"] + s["cancelled"]
            assert s["submitted"] == settled and self._in_flight == 0, s

    def _cancel_pending_locked(self) -> None:
        self.stats.bump("cancelled", len(self._pending))
        while self._pending:
            future = self._pending.popleft().future
            if future.set_running_or_notify_cancel():  # else: the caller cancelled
                future.set_exception(
                    ServiceClosedError("service closed before dispatch")
                )

    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- workers --------------------------------------------------------
    def _work(self) -> None:
        while (batch := self._take_batch()) is not None:
            self._run_batch(batch)

    def _take_batch(self) -> list[_Request] | None:
        """Block until something is pending; take the head and what is
        pending with its (op, tol), up to ``max_batch`` (None = shut down)."""
        with self._cond:
            while not self._pending:
                if self._closed:
                    return None
                self._cond.wait()
            head = self._pending.popleft()
            batch, kept = [head], deque()
            for req in self._pending:  # oldest first
                same = (req.op_name, req.tol) == (head.op_name, head.tol)
                if same and len(batch) < self.config.max_batch:
                    batch.append(req)
                else:
                    kept.append(req)
            self._pending = kept
            self._in_flight += len(batch)
            return batch

    # -- events ---------------------------------------------------------
    def _event(
        self, kind: str, reqs: list[_Request], at: float | None = None, **fields
    ) -> RequestEvent:
        """``kind`` crossed by ``reqs`` at ``at`` (``perf_counter``
        seconds, default now), with the queue as it stands."""
        at = time.perf_counter() if at is None else at
        with self._cond:
            depth, in_flight = len(self._pending), self._in_flight
        return RequestEvent(
            kind,
            reqs[0].op_name,
            request_ids=tuple(req.id for req in reqs),
            trace_ids=tuple(req.trace_id for req in reqs),
            waits_s=tuple(at - req.enqueued_at for req in reqs),
            queue_depth=depth,
            in_flight=in_flight,
            **fields,
        )

    def _emit(self, event: RequestEvent) -> None:
        publish(self._subscribers, event)

    # -- execution ------------------------------------------------------
    def _run_batch(self, batch: list[_Request]) -> None:
        """Settle every request of ``batch`` with exactly one outcome.

        An outcome is counted and its future settled first; the request
        then leaves ``in_flight``, and only then is its event emitted.
        """
        now = time.perf_counter()
        # past this line no caller can cancel: every future below is
        # RUNNING, so the call that settles it cannot race one
        started = [
            req for req in batch if req.future.set_running_or_notify_cancel()
        ]
        self.stats.bump("cancelled", len(batch) - len(started))
        live = [req for req in started if not req.expired(now)]
        expired = [req for req in started if req.expired(now)]
        for req in expired:
            self.stats.bump("timeouts")
            req.future.set_exception(
                SolveTimeoutError(
                    f"request {req.id} waited {now - req.enqueued_at:.3f}s "
                    f"> {req.timeout_s}s"
                )
            )
        with self._cond:
            self._in_flight -= len(batch) - len(live)
        for req in expired:
            self._emit(self._event("timeout", [req], now, timeout_s=req.timeout_s))
        if not live:
            return
        outcome = None  # the _event arguments of the batch's outcome
        try:
            outcome = self._serve(live, now)
        except BaseException as exc:  # no waiter hangs, whatever escaped
            failed = [req for req in live if not req.future.done()]
            self.stats.bump("failed", len(failed))
            for req in failed:
                req.future.set_exception(exc)
            if failed:
                outcome = dict(kind="failed", reqs=failed, error=repr(exc))
            if not isinstance(exc, Exception):
                raise
        finally:
            with self._cond:
                self._in_flight -= len(live)
            if outcome is not None:
                self._emit(self._event(**outcome))

    def _serve(self, live: list[_Request], now: float) -> dict:
        """Dispatch, solve and deliver one batch; returns the
        :meth:`_event` arguments of its ``completed`` event."""
        head = live[0]
        entry = self._ops[head.op_name]
        self.stats.bump("batches")
        self.stats.bump("batched_systems", len(live))
        self._emit(self._event("dispatched", live, now))
        # The worker thread adopts the batch head's trace context:
        # every span the solve opens (mg.solve, kcycle, halo, ...)
        # inherits its trace_id, and the batch span links the other
        # coalesced traces explicitly.
        head_ctx = TraceContext(
            trace_id=head.trace_id,
            attrs={"request_id": head.id, "op": head.op_name},
        )
        batch_attrs = dict(
            op=head.op_name,
            size=len(live),
            mode="batched" if len(live) > 1 else "single",
            request_ids=[req.id for req in live],
            trace_ids=[req.trace_id for req in live],
        )
        if self.config.label:
            batch_attrs["shard"] = self.config.label
        with activate(head_ctx), get_tracer().span("serve.batch", **batch_attrs):
            t0 = time.perf_counter()
            c0 = time.thread_time()
            # the batch key is (operator, tolerance): one tol for all
            results = entry.solver.solve_multi(
                np.stack([req.rhs for req in live]), tol=head.tol
            )
            dt = time.perf_counter() - t0
            cdt = time.thread_time() - c0
        self.stats.add_seconds(solve_s_total=dt, solve_cpu_s_total=cdt)
        done = time.perf_counter()
        for req, res in zip(live, results):
            # each result carries its own request's trace; the batch ran
            # under the head's context, which stays visible alongside
            batch_tid = res.telemetry.attrs.get("trace_id")
            if batch_tid is not None and batch_tid != req.trace_id:
                res.telemetry.attrs["batch_trace_id"] = batch_tid
            res.telemetry.attrs["trace_id"] = req.trace_id
            # where this request's time went: waiting for a worker, then
            # the solve of the batch it rode in
            res.telemetry.attrs["serve"] = {
                "queue_wait_s": now - req.enqueued_at,
                "solve_s": dt,
                "batch_size": len(live),
            }
            self.stats.bump("completed")
            req.future.set_result(res)
        return dict(
            kind="completed", reqs=live, at=done, results=tuple(results), solve_s=dt
        )

    # -- subscribers ----------------------------------------------------
    def _observe_slo(self, event: RequestEvent) -> None:
        self.slo_monitor.observe(event)
        if event.kind == "completed":  # once per settled batch
            self.slo_monitor.evaluate()

    def _check_stall(self, event: RequestEvent) -> None:
        """Run the convergence detector over each delivered result.

        Works from the result's residual history directly, so stalls
        are caught even with the tracer off.  Error-severity verdicts
        (stall/divergence) are counted and emitted as a ``stall`` event.
        """
        for rid, tid, res in zip(event.request_ids, event.trace_ids, event.results):
            verdicts = detect_anomalies(res.residual_history)
            severe = tuple(v for v in verdicts if v.severity == "error")
            if severe:
                self.stats.bump("stalls_detected", len(severe))
                stall = RequestEvent(
                    "stall", event.op, (rid,), (tid,), verdicts=severe
                )
                self._emit(stall)

    def _dump_blackbox(self, event: RequestEvent) -> None:
        """Assemble the blackbox dump of a ``timeout``, ``failed`` or
        ``stall`` event.

        The dump is always retained in memory as ``self.last_blackbox``;
        when ``config.blackbox_dir`` is set it is also written to disk
        (one JSON file per incident) for ``repro blackbox``.  Capture
        must never take the service down, so disk errors are folded into
        the log stream instead of raised.
        """
        reason = "failure" if event.kind == "failed" else event.kind
        trace_id = event.trace_ids[0]
        if event.kind == "failed":
            ids = list(event.request_ids)
            meta = {"op": event.op, "error": event.error, "request_ids": ids}
        else:
            meta = {"op": event.op, "request_id": event.request_ids[0]}
        if event.kind == "timeout":
            meta.update(waited_s=event.waits_s[0], timeout_s=event.timeout_s)
        elif event.kind == "stall":
            meta["verdicts"] = [v.to_dict() for v in event.verdicts]
        if self.config.label:
            meta["shard"] = self.config.label
        doc = blackbox_document(reason, trace_id=trace_id, meta=meta)
        self.last_blackbox = doc
        self.stats.bump("blackbox_dumps")
        path = None
        if self.config.blackbox_dir is not None:
            try:
                path = write_blackbox(self.config.blackbox_dir, doc)
            except OSError as exc:
                log_event(
                    "blackbox_write_failed",
                    reason=reason,
                    error=repr(exc),
                    trace_id=trace_id,
                )
        log_event(
            "blackbox_dump",
            reason=reason,
            trace_id=trace_id,
            path=str(path) if path is not None else None,
        )
