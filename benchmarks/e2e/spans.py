"""Benchmark-owned spans, installed around the program's public callables.

The program's own tracer stays off in every timed run; these spans are
recorded from the benchmark's side of each layer boundary by wrapping
public callables on the objects the workload already holds.  A target
that no longer exists is skipped and listed under ``untraced``, so a
refactor of the program degrades the trace visibly instead of breaking
the benchmark.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the recorder's span list
    request_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Keeps spans in memory; one open-span stack per thread.

    A solve served by the service runs on the worker thread, so its
    spans root there; ``request_id`` (set by the single client before
    each operation) ties them to the request that caused them.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.request_id = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name, fn):
        """``fn`` recorded as a span; ``name`` may be a callable of the
        bound instance for class-level wraps."""
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            label = name(args[0]) if callable(name) else name
            span = Span(label, 0.0, 0.0, stack[-1] if stack else None, self.request_id)
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def to_rows(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "request_id": s.request_id,
            }
            for s in self.spans
        ]


@dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0  # inclusive
    self_s: float = 0.0  # duration minus the part direct children cover
    leaf_calls: int = 0  # calls that opened no child span


def span_totals(spans: list[Span]) -> dict[str, SpanTotals]:
    """Per-name call count, inclusive time and self time of a span forest."""
    child_time = [0.0] * len(spans)
    has_child = [False] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
            has_child[span.parent] = True
    out: dict[str, SpanTotals] = {}
    for index, span in enumerate(spans):
        tot = out.setdefault(span.name, SpanTotals())
        tot.calls += 1
        tot.total_s += span.duration
        tot.self_s += span.duration - child_time[index]
        if not has_child[index]:
            tot.leaf_calls += 1
    return out


# -- installation -------------------------------------------------------

#: public operator methods wrapped on every level, and their span suffix
OP_METHODS = {
    "apply": "apply",
    "apply_multi": "apply_multi",
    "apply_hopping": "hop",
    "apply_diag": "diag",
    "apply_diag_inv": "diag_inv",
}
TRANSFER_METHODS = ("restrict", "prolong", "restrict_multi", "prolong_multi")


def op_layer(level: int) -> str:
    """Layer (module) name of a level's operator."""
    return "dirac" if level == 0 else "coarse"


@dataclass
class Installed:
    """What :func:`install` wrapped; ``uninstall`` puts everything back."""

    untraced: list[str] = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def _wrap_attr(installed: Installed, recorder, owner, attr: str, name) -> None:
    """Shadow ``owner.attr`` with a traced version (instance or class)."""
    label = name if isinstance(name, str) else f"{getattr(owner, '__name__', owner)}.{attr}"
    original = getattr(owner, attr, None)
    if owner is None or original is None:
        installed.untraced.append(label)
        return
    own = vars(owner).get(attr) if hasattr(owner, "__dict__") else None
    try:
        setattr(owner, attr, recorder.wrap(name, original))
    except AttributeError:  # slotted or read-only owner: cannot shadow
        installed.untraced.append(label)
        return
    if own is not None:
        installed._undo.append(lambda: setattr(owner, attr, own))
    else:
        installed._undo.append(lambda: delattr(owner, attr))


def install(
    recorder: SpanRecorder,
    hierarchy=None,
    solver=None,
    service=None,
    cache=None,
    router=None,
) -> Installed:
    """Wrap the public callables of whatever the workload holds."""
    installed = Installed()
    for lev in getattr(hierarchy, "levels", []):
        i = lev.index
        for attr, suffix in OP_METHODS.items():
            _wrap_attr(installed, recorder, lev.op, attr, f"{op_layer(i)}.L{i}.{suffix}")
        if lev.transfer is None:  # coarsest level: nothing below it
            continue
        for attr in TRANSFER_METHODS:
            _wrap_attr(installed, recorder, lev.transfer, attr, f"transfer.L{i}.{attr}")
        _wrap_attr(installed, recorder, lev.smoother, "apply", f"mg.smoother.L{i}")
    if solver is not None:
        _wrap_attr(installed, recorder, solver, "solve", "solvers.outer_gcr")
        # inner K-cycles are constructed per coarse solve, so the class
        # of the solver's preconditioner is wrapped, not one instance
        pre = getattr(solver, "preconditioner", None)
        if pre is None:
            installed.untraced.append("mg.kcycle")
        else:
            _wrap_attr(
                installed, recorder, type(pre), "apply",
                lambda self: f"mg.kcycle.L{self.level}",
            )
    if service is not None:
        _wrap_attr(installed, recorder, service, "submit", "serve.submit")
    if cache is not None:
        _wrap_attr(installed, recorder, cache, "get_or_build", "serve.cache.get_or_build")
    if router is not None:
        _wrap_attr(installed, recorder, router, "submit", "fleet.route")
    return installed
