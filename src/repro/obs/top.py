"""``repro top``: a live terminal dashboard over registry snapshots.

One :class:`Dashboard` polls the global
:class:`~repro.telemetry.metrics.MetricsRegistry` (plus, when attached
to a live :class:`~repro.serve.service.SolveService`, its stats and
setup cache) and renders a fixed-width frame: queue depth, in-flight
systems, throughput since the previous frame, latency quantiles, cache
hit rate and SLO compliance.  The renderer is a pure function of the
polled numbers, so tests drive it with synthetic snapshots and the CLI
just loops ``frame()`` with a clear-screen between refreshes.
"""

from __future__ import annotations

import time

from ..telemetry.metrics import MetricsRegistry, get_registry


def _histogram_stats(snapshot: dict, name: str) -> dict:
    """Merge all label series of one histogram family (count-weighted)."""
    series = snapshot.get("histogram", {}).get(name, [])
    if not series:
        return {"count": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0}
    total = sum(s["count"] for s in series) or 1
    merged = {"count": sum(s["count"] for s in series)}
    for q in ("p50", "p95", "p99", "mean"):
        merged[q] = sum(s[q] * s["count"] for s in series) / total
    return merged


def _counter_total(snapshot: dict, name: str) -> float:
    return sum(s["value"] for s in snapshot.get("counter", {}).get(name, []))


def _gauge_value(snapshot: dict, name: str) -> float:
    series = snapshot.get("gauge", {}).get(name, [])
    return series[0]["value"] if series else 0.0


class Dashboard:
    """Snapshot-to-snapshot dashboard state (throughput needs deltas)."""

    def __init__(self, registry: MetricsRegistry | None = None, service=None,
                 slo_monitor=None):
        self.registry = registry if registry is not None else get_registry()
        self.service = service
        self.slo_monitor = (
            slo_monitor
            if slo_monitor is not None
            else getattr(service, "slo_monitor", None)
        )
        self._prev_ts: float | None = None
        self._prev_completed = 0.0

    def frame(self, now: float | None = None, width: int = 72) -> str:
        now = now if now is not None else time.time()
        snap = self.registry.snapshot()
        completed = _counter_total(snap, "serve.completed")
        rate = 0.0
        if self._prev_ts is not None and now > self._prev_ts:
            rate = (completed - self._prev_completed) / (now - self._prev_ts)
        self._prev_ts = now
        self._prev_completed = completed

        latency = _histogram_stats(snap, "serve.request_latency_s")
        batch = _histogram_stats(snap, "serve.batch_size")
        solve = _histogram_stats(snap, "serve.solve_s")

        bar = "=" * width
        lines = [
            bar,
            f"repro top — {time.strftime('%H:%M:%S', time.localtime(now))}   "
            f"completed {completed:g}   {rate:6.2f} req/s",
            bar,
            f"queue depth {_gauge_value(snap, 'serve.queue_depth'):>6g}    "
            f"in-flight {_gauge_value(snap, 'serve.in_flight'):>6g}    "
            f"rejected {_counter_total(snap, 'serve.rejected'):>6g}    "
            f"timeouts {_counter_total(snap, 'serve.timeouts'):>6g}",
        ]
        # a fresh service has an empty sliding window: render an explicit
        # warming-up placeholder instead of a wall of misleading zeros
        if latency["count"] == 0 and solve["count"] == 0:
            lines.append(
                "latency      (no completed requests yet — window warming up)"
            )
        else:
            lines.append(
                f"latency p50 {latency['p50'] * 1e3:>8.1f} ms   "
                f"p95 {latency['p95'] * 1e3:>8.1f} ms   "
                f"p99 {latency['p99'] * 1e3:>8.1f} ms   (n={latency['count']})"
            )
            lines.append(
                f"batch size mean {batch['mean']:>5.2f}   "
                f"solve p50 {solve['p50'] * 1e3:>8.1f} ms   "
                f"solves {solve['count']:>6}"
            )
        if self.service is not None:
            cache = self.service.cache.stats
            lookups = cache["hits"] + cache["disk_hits"] + cache["misses"]
            if lookups:
                hit = (cache["hits"] + cache["disk_hits"]) / lookups
                hit_rate = f"{hit:>6.1%}"
            else:
                hit_rate = "     —"  # no lookups yet: a rate would lie
            lines.append(
                f"setup cache hit rate {hit_rate}   "
                f"(mem {cache['hits']}, disk {cache['disk_hits']}, "
                f"miss {cache['misses']})   "
                f"ops {len(self.service.operators())}"
            )
        if self.slo_monitor is not None:
            lines.append("")
            lines.append(self.slo_monitor.render(now=now))
        lines.append(bar)
        return "\n".join(lines)


def run_top(
    dataset,
    interval_s: float = 1.0,
    frames: int = 0,
    load_rps: float = 4.0,
    stream=None,
) -> int:
    """Drive a demo service under synthetic load and render the dashboard.

    ``frames == 0`` runs until interrupted (the interactive mode);
    a positive count renders that many frames and exits (CI/tests).
    The load generator is a daemon thread submitting random right-hand
    sides at roughly ``load_rps``; the service is the same
    two-level-hierarchy configuration serve-bench measures.
    """
    import sys
    import threading

    import numpy as np

    from .. import telemetry
    from ..dirac import WilsonCloverOperator
    from ..serve import ServeConfig, SolveService
    from ..workloads.presets import two_level_params
    from .slo import DEFAULT_SLOS, SLOSpec

    out = stream if stream is not None else sys.stdout
    lattice = dataset.lattice()
    op = WilsonCloverOperator(dataset.gauge(), **dataset.operator_kwargs())
    params = two_level_params(dataset, "24/24", null_iters=30)
    telemetry.enable()
    telemetry.reset()
    # generous demo thresholds: the point is the live burn-rate display
    slos = (
        SLOSpec("latency-p99", "latency_p99", threshold=60.0, window_s=120.0),
        *DEFAULT_SLOS[1:],
    )
    config = ServeConfig(max_batch=4, slo_specs=slos)
    stop = threading.Event()
    try:
        with SolveService(config) as svc:
            svc.register(dataset.label, op, params, rng=np.random.default_rng(7))

            def generate_load():
                rng = np.random.default_rng(0)
                shape = (lattice.volume, 4, 3)
                while not stop.is_set():
                    try:
                        svc.submit(
                            dataset.label,
                            rng.standard_normal(shape)
                            + 1j * rng.standard_normal(shape),
                        )
                    except Exception:
                        pass  # overload/shutdown: keep the dashboard alive
                    stop.wait(1.0 / load_rps)

            threading.Thread(
                target=generate_load, name="top-load", daemon=True
            ).start()
            dash = Dashboard(service=svc)
            n = 0
            while frames <= 0 or n < frames:
                if out.isatty():
                    out.write("\x1b[2J\x1b[H")
                out.write(dash.frame() + "\n")
                out.flush()
                n += 1
                if frames > 0 and n >= frames:
                    break
                time.sleep(interval_s)
            stop.set()
    except KeyboardInterrupt:
        stop.set()
    finally:
        telemetry.disable()
    return 0
