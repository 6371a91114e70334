"""The request-lifecycle event and its structured JSON log.

The serve and fleet tiers :func:`publish` each lifecycle edge as one
:class:`RequestEvent` to their subscribers;
:func:`log_request_event` is one of them.  The log is one JSON object
per line on the ``repro.serve`` logger, one line per lifecycle
transition: ``enqueued``, ``rejected``, ``timeout``, ``dispatched``,
``completed``, ``failed``, ``stall`` (plus ``slo_alert`` /
``slo_recovered`` from the SLO monitor, ``blackbox_dump`` markers and
``sink_failed``).  Every record carries the event name, an epoch ``ts``
*and* its ISO-8601 ``ts_iso``, and — whenever a request trace is active
on the thread or passed explicitly — the ``trace_id``, so log lines
are greppable against span trees and blackbox dumps.

Two sinks, different defaults:

* The **flight recorder** (:mod:`repro.obs.blackbox`) is fed
  *unconditionally*: one dict build and one ring append per event, so
  postmortem dumps always have the recent lifecycle history even when
  nobody configured logging.
* The **logger** is opt-in as before: it has no handler and
  ``log_event`` skips serialization on ``isEnabledFor``, so an
  unconfigured service pays no JSON cost.  Enable with
  :func:`configure` (or any standard ``logging`` configuration that
  attaches a handler to ``repro.serve``).
"""

from __future__ import annotations

import json
import logging
import sys
import time
from dataclasses import dataclass, field

from ..obs.blackbox import get_recorder, iso_ts
from ..telemetry.context import current_trace_id

LOGGER_NAME = "repro.serve"

logger = logging.getLogger(LOGGER_NAME)
# lifecycle events are opt-in; never bubble to the root handler
logger.propagate = False
logger.setLevel(logging.WARNING)


def configure(stream=None, level: int = logging.INFO) -> logging.Logger:
    """Attach a line handler and enable lifecycle logging.

    Idempotent: reconfiguring replaces the previous handler rather than
    stacking duplicates.  Returns the logger for further tweaking.
    """
    for h in list(logger.handlers):
        logger.removeHandler(h)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    logger.addHandler(handler)
    logger.setLevel(level)
    return logger


def disable() -> None:
    """Remove handlers and silence lifecycle logging again."""
    for h in list(logger.handlers):
        logger.removeHandler(h)
    logger.setLevel(logging.WARNING)


def log_event(event: str, **fields) -> None:
    """Record one lifecycle event: always into the flight recorder,
    and as a JSON log line when the logger is enabled.

    ``trace_id`` is attached automatically from the thread's active
    :class:`~repro.telemetry.context.TraceContext` unless the caller
    passes one explicitly (the serve tier does, because a worker thread
    settles requests from several traces in one batch).
    """
    if "trace_id" not in fields:
        tid = current_trace_id()
        if tid is not None:
            fields["trace_id"] = tid
    ts = time.time()
    get_recorder().record(event, **fields)
    if not logger.isEnabledFor(logging.INFO):
        return
    record = {"event": event, "ts": ts, "ts_iso": iso_ts(ts)}
    record.update(fields)
    logger.info(json.dumps(record, sort_keys=True, default=str))


@dataclass(frozen=True)
class RequestEvent:
    """One lifecycle edge, crossed by a request, a burst or a batch.

    Per-request tuples are aligned, oldest first; ``waits_s`` counts
    from each enqueue.  Serve kinds (with the service's queue):
    enqueued, rejected (``burst`` systems), timeout, dispatched,
    completed, failed, stall.  Fleet kinds: registered, replicated,
    routed, shed, and a routed request's completed, failed, timeout or
    cancelled."""

    kind: str
    op: str
    request_ids: tuple[int, ...] = ()
    trace_ids: tuple[str, ...] = ()
    waits_s: tuple[float, ...] = ()
    results: tuple = ()
    solve_s: float = 0.0
    error: str = ""
    verdicts: tuple = ()
    queue_depth: int | None = None
    in_flight: int | None = None
    tol: float | None = None
    timeout_s: float | None = None
    burst: int = 0
    shard: str | None = None
    affinity: str = ""  # routed: home | spill
    ts: float = field(default_factory=time.time)


def publish(subscribers, event: RequestEvent) -> None:
    """Hand ``event`` to each ``(kinds, sink)`` in turn whose ``kinds``
    hold it (``None``: all).  A sink that raises is logged as
    ``sink_failed`` and costs no other sink its event, no caller a
    result and no worker its loop."""
    for kinds, sink in subscribers:
        if kinds is None or event.kind in kinds:
            try:
                sink(event)
            except Exception as exc:
                name = f"{getattr(sink, '__name__', sink)} on {event.kind}"
                log_event("sink_failed", sink=name, error=repr(exc))


def log_request_event(event: RequestEvent) -> None:
    """The structured-log subscriber of the serve tier."""
    kind, op, tids = event.kind, event.op, event.trace_ids
    if kind == "rejected":
        log_event(kind, op=op, queue_depth=event.queue_depth, burst=event.burst)
    elif kind in ("dispatched", "failed"):
        n = len(tids)
        extra = {"error": event.error} if kind == "failed" else {
            "batch_size": n,
            "mode": "batched" if n > 1 else "single",
            "in_flight": event.in_flight,
        }
        log_event(kind, op=op, request_ids=list(event.request_ids),
                  trace_id=tids[0], trace_ids=list(tids), **extra)
    else:
        for i, (rid, tid) in enumerate(zip(event.request_ids, tids)):
            if kind == "enqueued":
                extra = {"tol": event.tol, "queue_depth": event.queue_depth}
            elif kind == "timeout":
                extra = {"waited_s": event.waits_s[i]}
            elif kind == "stall":
                extra = {"kinds": [v.kind for v in event.verdicts]}
            else:  # completed
                res = event.results[i]
                extra = {
                    "latency_s": event.waits_s[i],
                    "iterations": int(res.iterations),
                    "converged": bool(res.converged),
                    **res.telemetry.attrs["serve"],
                }
            log_event(kind, request_id=rid, op=op, trace_id=tid, **extra)
