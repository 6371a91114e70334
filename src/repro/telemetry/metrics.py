"""Metrics registry: counters, gauges, and labelled histograms.

Every traced multigrid solve publishes the per-level ``LevelStats`` it
counted and its outer iterations here (the ``mg.solve`` row of
:mod:`repro.telemetry.boundary`), next to the solver, serve, fleet and
verify counters.  A metric
is identified by a name plus a frozen label set, so
``registry.counter("mg.op_applies", level=2)`` and ``level=1`` are
independent series that export side by side.

Like the tracer, a disabled registry hands out one shared null metric:
a caller pays a single attribute test and no allocation.
"""

from __future__ import annotations

import math
import random
import re
import threading
import time
from typing import Any, Iterable

LabelKey = tuple[tuple[str, Any], ...]

#: Reservoir size past which histograms subsample (satellite of the
#: observability PR: ``observe()`` used to append forever, an unbounded
#: leak in any long-lived serve process).  Below the cap storage is
#: exact; above it, uniform reservoir sampling keeps percentiles
#: statistically faithful at O(cap) memory.
DEFAULT_SAMPLE_CAP = 2048


def percentile(values: Iterable[float], p: float) -> float:
    """Linear-interpolated percentile ``p`` in [0, 100] of ``values``.

    ``np.percentile``'s default rule, in plain Python.  An out-of-range
    ``p`` raises; no values give 0.0; a single value is every percentile
    of itself.
    """
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (p / 100.0) * (len(ordered) - 1)
    lo, hi = math.floor(rank), math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class _NullMetric:
    """Do-nothing counter/gauge/histogram for the disabled registry."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float, trace_id: str | None = None) -> None:
        pass


_NULL_METRIC = _NullMetric()


class Counter:
    """Monotonically increasing count (matvecs, reductions, bytes...)."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def to_dict(self) -> dict:
        return {"labels": dict(self.labels), "value": self.value}


class Gauge:
    """Last-write-wins instantaneous value (levels, sizes, residuals)."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def to_dict(self) -> dict:
        return {"labels": dict(self.labels), "value": self.value}


class Histogram:
    """Bounded-memory distribution with percentile queries.

    Storage is *exact* up to ``cap`` observations (percentiles are then
    exact, which the latency analysis of the coarse-grid reductions
    (paper §6) needs); past the cap, new observations replace a
    uniformly random kept sample (Vitter's algorithm R), so the
    reservoir remains a uniform sample of everything seen and the
    histogram cannot grow without bound in a long-lived serve process.
    ``count``, ``sum``, ``mean``, ``min`` and ``max`` are always exact —
    they are maintained as running aggregates, not derived from the
    reservoir.

    ``observe(value, trace_id=...)`` additionally keeps the most recent
    traced observation as an *exemplar*, linking the metric series back
    to the request trace that produced it.
    """

    __slots__ = (
        "name",
        "labels",
        "samples",
        "cap",
        "exemplar",
        "_seen",
        "_sum",
        "_min",
        "_max",
        "_rng",
        "_lock",
    )

    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey, cap: int = DEFAULT_SAMPLE_CAP):
        if cap < 1:
            raise ValueError(f"histogram sample cap must be >= 1, got {cap}")
        self.name = name
        self.labels = labels
        self.samples: list[float] = []
        self.cap = int(cap)
        self.exemplar: dict | None = None
        self._seen = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        # deterministic per-series stream so reservoir contents are
        # reproducible across runs of the same observation sequence
        self._rng = random.Random(hash((name, labels)) & 0xFFFFFFFF)
        self._lock = threading.Lock()

    def observe(self, value: float, trace_id: str | None = None) -> None:
        value = float(value)
        with self._lock:
            self._seen += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if len(self.samples) < self.cap:
                self.samples.append(value)
            else:
                j = self._rng.randrange(self._seen)
                if j < self.cap:
                    self.samples[j] = value
            if trace_id is not None:
                self.exemplar = {
                    "value": value,
                    "trace_id": trace_id,
                    "ts": time.time(),
                }

    def _snapshot(self) -> list[float]:
        """Consistent copy of the samples (observe() may race a reader)."""
        with self._lock:
            return list(self.samples)

    @property
    def count(self) -> int:
        """Total observations seen (not the kept-reservoir size)."""
        return self._seen

    @property
    def kept(self) -> int:
        """Samples currently held in the reservoir (== count below cap)."""
        return len(self.samples)

    @property
    def sum(self) -> float:
        return float(self._sum)

    @property
    def mean(self) -> float:
        """Arithmetic mean; 0.0 on an empty histogram (never raises)."""
        if not self._seen:
            return 0.0
        return self._sum / self._seen

    def percentile(self, p: float) -> float:
        """:func:`percentile` ``p`` of the kept samples.

        Exact below the reservoir cap, estimated from the uniform
        reservoir above it — except ``p=0``/``p=100``, which are always
        the exact running min/max.  An out-of-range ``p`` raises even
        when the histogram is empty; an empty histogram returns 0.0.
        """
        samples = self._snapshot()
        if samples and p == 0.0:
            return self._min
        if samples and p == 100.0:
            return self._max
        return percentile(samples, p)

    def to_dict(self) -> dict:
        out = {
            "labels": dict(self.labels),
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
            "max": self._max if self._seen else 0.0,
            "sample_cap": self.cap,
            "samples_kept": self.kept,
        }
        if self.exemplar is not None:
            out["exemplar"] = dict(self.exemplar)
        return out


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


# ----------------------------------------------------------------------
# Prometheus text exposition (format 0.0.4)
# ----------------------------------------------------------------------
_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")


def _prom_name(name: str) -> str:
    """Sanitize a dotted metric name into the Prometheus grammar."""
    out = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not _NAME_OK.match(out):
        out = "_" + out
    return out


def _prom_label_name(name: str) -> str:
    out = re.sub(r"[^a-zA-Z0-9_]", "_", str(name))
    if not _LABEL_OK.match(out):
        out = "_" + out
    return out


def _prom_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value))


def _prom_labels(labels: LabelKey, extra: dict[str, str] | None = None) -> str:
    pairs = [(k, str(v)) for k, v in labels]
    if extra:
        pairs.extend(extra.items())
    if not pairs:
        return ""
    rendered = []
    for key, value in pairs:
        escaped = value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
        rendered.append(f'{_prom_label_name(key)}="{escaped}"')
    return "{" + ",".join(rendered) + "}"


class MetricsRegistry:
    """Lazily-created metric families keyed by (name, labels)."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: dict[tuple[str, str, LabelKey], Any] = {}
        self._lock = threading.Lock()

    # -- hot path -------------------------------------------------------
    def _get(self, cls, name: str, labels: dict[str, Any]):
        if not self.enabled:
            return _NULL_METRIC
        key = (cls.kind, name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.setdefault(key, cls(name, key[2]))
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    # -- inspection / export --------------------------------------------
    def collect(self, kind: str | None = None) -> list:
        with self._lock:
            metrics = list(self._metrics.values())
        if kind is not None:
            metrics = [m for m in metrics if m.kind == kind]
        return metrics

    def value(self, name: str, **labels) -> float:
        """Current value of a counter/gauge (0.0 if never touched)."""
        key_labels = _label_key(labels)
        for m in self.collect():
            if m.name == name and m.labels == key_labels and m.kind != "histogram":
                return m.value
        return 0.0

    def expose_text(self, prefix: str = "repro_", exemplars: bool = False) -> str:
        """Render every metric in the Prometheus text format (0.0.4).

        Dotted names are sanitized (``mg.op_applies`` →
        ``repro_mg_op_applies``); counters and gauges emit one sample
        per label set, histograms are exported as Prometheus
        *summaries*: ``{quantile="0.5|0.9|0.95|0.99"}`` samples plus the
        ``_sum`` and ``_count`` series.  The output ends with a newline
        and parses under the exposition grammar (tested against a
        minimal parser in the test suite) so a scrape endpoint can serve
        it verbatim.
        """
        families: dict[tuple[str, str], list] = {}
        for m in self.collect():
            families.setdefault((m.kind, m.name), []).append(m)
        lines: list[str] = []
        for (kind, name), metrics in sorted(families.items(), key=lambda kv: kv[0][1]):
            prom = _prom_name(prefix + name)
            prom_kind = "summary" if kind == "histogram" else kind
            lines.append(f"# HELP {prom} {name}")
            lines.append(f"# TYPE {prom} {prom_kind}")
            for m in metrics:
                if kind == "histogram":
                    for q in (0.5, 0.9, 0.95, 0.99):
                        value = m.percentile(100.0 * q)
                        labels = _prom_labels(m.labels, {"quantile": str(q)})
                        lines.append(f"{prom}{labels} {_prom_value(value)}")
                    base = _prom_labels(m.labels)
                    lines.append(f"{prom}_sum{base} {_prom_value(m.sum)}")
                    count_line = f"{prom}_count{base} {int(m.count)}"
                    if exemplars and m.exemplar is not None:
                        # OpenMetrics-style exemplar: link the series to
                        # the last traced observation's request trace
                        count_line += (
                            f' # {{trace_id="{m.exemplar["trace_id"]}"}}'
                            f" {_prom_value(m.exemplar['value'])}"
                        )
                    lines.append(count_line)
                else:
                    lines.append(
                        f"{prom}{_prom_labels(m.labels)} {_prom_value(m.value)}"
                    )
        return "\n".join(lines) + "\n" if lines else ""

    def snapshot(self) -> dict:
        """JSON-serializable dump grouped by metric kind and name."""
        out: dict[str, dict[str, list]] = {"counter": {}, "gauge": {}, "histogram": {}}
        for m in self.collect():
            out[m.kind].setdefault(m.name, []).append(m.to_dict())
        return out

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()


_GLOBAL = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The process-wide registry traced solves and the serving layers report into."""
    return _GLOBAL
