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

import contextlib
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
from .slog import log_event


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
    # Opt-in runtime verification (repro.verify): "setup" checks the
    # setup-output invariants of every registered hierarchy, "solve"
    # additionally recomputes each delivered result's residual.
    verify_level: str = "off"
    # Postmortem capture: on timeout, failure or detected stall the
    # service assembles a repro.blackbox/v1 dump (always kept in memory
    # as ``service.last_blackbox``); a directory here persists each dump
    # to disk for `repro blackbox`.
    blackbox_dir: str | None = None
    # Declarative SLOs (repro.obs.slo.SLOSpec); non-empty installs an
    # SLOMonitor fed per finished request, with burn-rate alerts into
    # the structured log.
    slo_specs: tuple = ()
    # Identity of this service on shared timelines: fleet shards set it
    # to their node id, and every serve.batch span then carries a
    # ``shard`` attribute — the Perfetto exporter's track key, so
    # stitched cross-shard traces separate into one track per node.
    label: str | None = None

    def __post_init__(self, max_wait_s=None):
        from ..verify.runtime import validate_level

        validate_level(self.verify_level)
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")


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
                "cancelled", "batches", "batched_systems", "verify_checks",
                "verify_failures", "stalls_detected", "blackbox_dumps",
            ),
            # the thread-CPU total excludes cross-service contention on
            # shared cores, which is what the fleet tier's device-time
            # model needs
            seconds=("solve_s_total", "solve_cpu_s_total"),
        )
        self.slo_monitor = (
            SLOMonitor(self.config.slo_specs) if self.config.slo_specs else None
        )
        #: most recent repro.blackbox/v1 document (postmortem state even
        #: when no blackbox_dir is configured)
        self.last_blackbox: dict | None = None
        self._in_flight = 0
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
        if self.config.verify_level != "off":
            from ..verify.runtime import verify_setup

            reports = verify_setup(hierarchy, origin="serve.register")
            self._book_verify(reports)
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

    def _book_verify(self, reports) -> None:
        """Fold runtime-verification reports into the service stats."""
        self.stats.bump("verify_checks", len(reports))
        self.stats.bump("verify_failures", sum(1 for r in reports if not r.passed))

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
        registry = get_registry()
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
                if registry.enabled:
                    registry.counter("serve.rejected", op=op_name).inc(len(stack))
                log_event(
                    "rejected", op=op_name, queue_depth=depth, burst=len(stack)
                )
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
            depth = len(self._pending)
            self._cond.notify_all()
        if registry.enabled:
            registry.counter("serve.requests", op=op_name).inc(len(requests))
            registry.gauge("serve.queue_depth").set(depth)
        for req in requests:
            log_event(
                "enqueued",
                request_id=req.id,
                op=op_name,
                tol=req.tol,
                queue_depth=depth,
                trace_id=req.trace_id,
            )
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
            registry = get_registry()
            if registry.enabled:
                registry.gauge("serve.queue_depth").set(len(self._pending))
                registry.gauge("serve.in_flight").set(self._in_flight)
            return batch

    # -- execution ------------------------------------------------------
    @contextlib.contextmanager
    def _reporting(self, what: str):
        """Around the sinks of one lifecycle edge: a sink that raises is
        logged and costs neither a caller their result nor the worker
        its loop."""
        try:
            yield
        except Exception as exc:
            log_event("sink_failed", sink=what, error=repr(exc))

    def _run_batch(self, batch: list[_Request]) -> None:
        """Settle every request of ``batch`` with exactly one outcome."""
        registry = get_registry()
        # past this line no caller can cancel: every future below is
        # RUNNING, so the call that settles it cannot race one
        started = [
            req for req in batch if req.future.set_running_or_notify_cancel()
        ]
        self.stats.bump("cancelled", len(batch) - len(started))
        try:
            self._serve(started, registry)
        except BaseException as exc:  # no waiter hangs, whatever escaped
            failed = [req for req in started if not req.future.done()]
            self.stats.bump("failed", len(failed))
            for req in failed:
                req.future.set_exception(exc)
            with self._reporting("failed"):
                self._report_failed(failed, exc)
            if not isinstance(exc, Exception):
                raise
        finally:
            with self._cond:
                self._in_flight -= len(batch)
                in_flight = self._in_flight
            if registry.enabled:
                registry.gauge("serve.in_flight").set(in_flight)

    def _report_failed(self, failed: list[_Request], exc: BaseException) -> None:
        if not failed:
            return
        head = failed[0]
        log_event(
            "failed",
            op=head.op_name,
            request_ids=[req.id for req in failed],
            error=repr(exc),
            trace_id=head.trace_id,
            trace_ids=[req.trace_id for req in failed],
        )
        if self.slo_monitor is not None:
            now = time.perf_counter()
            for req in failed:
                self.slo_monitor.record(now - req.enqueued_at, error=True)
        self._dump_blackbox(
            "failure",
            trace_id=head.trace_id,
            meta={
                "op": head.op_name,
                "error": repr(exc),
                "request_ids": [req.id for req in failed],
            },
        )

    def _serve(self, started: list[_Request], registry) -> None:
        now = time.perf_counter()
        live: list[_Request] = []
        for req in started:
            if not req.expired(now):
                live.append(req)
                continue
            waited = now - req.enqueued_at
            self.stats.bump("timeouts")
            req.future.set_exception(
                SolveTimeoutError(
                    f"request {req.id} waited {waited:.3f}s > {req.timeout_s}s"
                )
            )
            with self._reporting("timeout"):
                if registry.enabled:
                    registry.counter("serve.timeouts", op=req.op_name).inc()
                log_event(
                    "timeout",
                    request_id=req.id,
                    op=req.op_name,
                    waited_s=waited,
                    trace_id=req.trace_id,
                )
                if self.slo_monitor is not None:
                    self.slo_monitor.record(waited, timed_out=True)
                self._dump_blackbox(
                    "timeout",
                    trace_id=req.trace_id,
                    meta={
                        "request_id": req.id,
                        "op": req.op_name,
                        "waited_s": waited,
                        "timeout_s": req.timeout_s,
                    },
                )
        if not live:
            return
        head = live[0]
        entry = self._ops[head.op_name]
        self.stats.bump("batches")
        self.stats.bump("batched_systems", len(live))
        mode = "batched" if len(live) > 1 else "single"
        request_ids = [req.id for req in live]
        trace_ids = [req.trace_id for req in live]
        with self._reporting("dispatched"):
            if registry.enabled:
                registry.histogram("serve.batch_size", op=head.op_name).observe(
                    len(live)
                )
                for req in live:
                    registry.histogram("serve.queue_wait_s").observe(
                        now - req.enqueued_at
                    )
            log_event(
                "dispatched",
                op=head.op_name,
                request_ids=request_ids,
                batch_size=len(live),
                mode=mode,
                in_flight=self.in_flight(),
                trace_id=head.trace_id,
                trace_ids=trace_ids,
            )
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
            mode=mode,
            request_ids=request_ids,
            trace_ids=trace_ids,
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
        if self.config.verify_level == "solve":
            from ..verify.runtime import verify_solve

            fine_op = entry.solver.hierarchy.levels[0].op
            for req, res in zip(live, results):
                reports = verify_solve(
                    fine_op, req.rhs, res, origin="serve.solve"
                )
                res.telemetry.attrs["verify"] = [r.to_dict() for r in reports]
                self._book_verify(reports)
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
        with self._reporting("completed"):
            for req, res in zip(live, results):
                latency = done - req.enqueued_at
                if registry.enabled:
                    # the exemplar ties this latency sample back to the
                    # request's span tree and slog records
                    registry.histogram(
                        "serve.request_latency_s", op=req.op_name
                    ).observe(latency, trace_id=req.trace_id)
                log_event(
                    "completed",
                    request_id=req.id,
                    op=req.op_name,
                    latency_s=latency,
                    iterations=int(res.iterations),
                    converged=bool(res.converged),
                    trace_id=req.trace_id,
                    **res.telemetry.attrs["serve"],
                )
                if self.slo_monitor is not None:
                    self.slo_monitor.record(latency, converged=bool(res.converged))
                self._check_stall(req, res)
            if registry.enabled:
                registry.histogram("serve.solve_s", op=head.op_name).observe(dt)
                registry.counter("serve.completed", op=head.op_name).inc(len(live))
            if self.slo_monitor is not None:
                self.slo_monitor.evaluate()

    # -- postmortem -----------------------------------------------------
    def _check_stall(self, req: _Request, res: SolveResult) -> None:
        """Run the convergence detector over a delivered result.

        Works from the result's residual history directly, so stalls
        are caught even with the tracer off.  Error-severity verdicts
        (stall/divergence) trigger a blackbox dump; plateaus only count.
        """
        history = getattr(res, "residual_history", None)
        if not history or len(history) < 2:
            return
        verdicts = detect_anomalies(history)
        severe = [v for v in verdicts if v.severity == "error"]
        if not severe:
            return
        self.stats.bump("stalls_detected", len(severe))
        registry = get_registry()
        if registry.enabled:
            for v in severe:
                registry.counter(
                    "serve.stalls", op=req.op_name, kind=v.kind
                ).inc()
        log_event(
            "stall",
            request_id=req.id,
            op=req.op_name,
            kinds=[v.kind for v in severe],
            trace_id=req.trace_id,
        )
        self._dump_blackbox(
            "stall",
            trace_id=req.trace_id,
            meta={
                "request_id": req.id,
                "op": req.op_name,
                "verdicts": [v.to_dict() for v in severe],
            },
        )

    def _dump_blackbox(
        self, reason: str, trace_id: str | None = None, meta: dict | None = None
    ) -> dict:
        """Assemble a repro.blackbox/v1 postmortem document.

        The dump is always retained in memory as ``self.last_blackbox``;
        when ``config.blackbox_dir`` is set it is also written to disk
        (one JSON file per incident) for ``repro blackbox``.  Capture
        must never take the service down, so disk errors are folded into
        the log stream instead of raised.
        """
        meta = dict(meta or {})
        # the per-op layout choice, next to the process-wide backend the
        # document itself records — layout-specific stalls need both
        entry = self._ops.get(meta.get("op")) if meta.get("op") else None
        if entry is not None:
            meta.setdefault("op_backend", entry.params.backend)
        if self.config.label:
            meta.setdefault("shard", self.config.label)
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
        return doc
