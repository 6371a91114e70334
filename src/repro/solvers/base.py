"""Common solver infrastructure.

Solvers operate on raw complex ndarrays of any shape (the flattened
view defines the inner product), against any operator exposing
``apply(x) -> y``.  Each solve returns a :class:`SolveResult` carrying
the iteration trace and a typed :class:`~repro.telemetry.SolveTelemetry`
payload that the benchmark harness and the performance models consume.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from ..telemetry.result import SolveTelemetry


def vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """Global inner product (conjugate-linear in the first argument)."""
    return complex(np.vdot(a.ravel(), b.ravel()))


def norm2(a: np.ndarray) -> float:
    return float(np.real(np.vdot(a.ravel(), a.ravel())))


def norm(a: np.ndarray) -> float:
    return float(np.sqrt(norm2(a)))


def batch_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-system inner products ``<a_k, b_k>`` of two ``(K, ...)`` stacks:
    the K reductions of a lockstep step, fused into one pass."""
    k = a.shape[0]
    return np.einsum("ki,ki->k", np.conj(a.reshape(k, -1)), b.reshape(k, -1))


def per_system(c: np.ndarray, like: np.ndarray) -> np.ndarray:
    """One coefficient per system, shaped to broadcast over the stack ``like``."""
    return c.reshape((like.shape[0],) + (1,) * (like.ndim - 1))


def validate_rhs_stack(op, bs: np.ndarray) -> np.ndarray:
    """Check that ``bs`` is a well-formed, finite ``(K, ...)`` stack for
    ``op``; the check of the entry points that take right-hand sides
    from outside (``solve_multi``, ``batched_gcr``).

    A bare ``(V, ns, nc)`` field would have its *volume* axis treated as
    the batch axis and solve V nonsense systems, and a NaN system has no
    norm to converge against: raise a :class:`ValueError` naming the
    shape, the dtype or the offending systems instead.  Real and integer
    stacks come back complex (the solvers update iterates in place with
    complex coefficients); a complex stack comes back as it is, complex64
    included — the cycle hands those to ``batched_gcr`` on purpose.
    """
    bs = np.asarray(bs)
    if not np.issubdtype(bs.dtype, np.number):
        raise ValueError(f"rhs stack has non-numeric dtype {bs.dtype}")
    if bs.ndim < 2:
        raise ValueError(
            f"rhs stack must have a batch axis plus at least one field axis, "
            f"got shape {bs.shape}"
        )
    lattice = getattr(op, "lattice", None)
    ns = getattr(op, "ns", None)
    nc = getattr(op, "nc", None)
    if lattice is not None and ns is not None and nc is not None:
        expect = (lattice.volume, ns, nc)
        if bs.shape[1:] != expect:
            raise ValueError(
                f"rhs stack shape {bs.shape} does not match operator "
                f"{type(op).__name__}: expected (K,) + {expect}, got "
                f"per-system shape {bs.shape[1:]}"
            )
    finite = np.isfinite(bs.reshape(bs.shape[0], -1)).all(axis=1)
    if not finite.all():
        raise ValueError(
            f"rhs stack has non-finite entries in system(s) "
            f"{np.flatnonzero(~finite).tolist()} of {bs.shape[0]}"
        )
    if bs.dtype.kind != "c":
        bs = bs.astype(np.result_type(bs, np.complex64))
    return bs


@dataclass
class SolveResult:
    """Outcome of an iterative solve.

    ``telemetry`` is the typed measurement payload; the ``extra``
    constructor keyword seeds ``telemetry.attrs``.
    """

    x: np.ndarray
    converged: bool
    iterations: int
    final_residual: float  # relative |r| / |b|
    residual_history: list[float] = field(default_factory=list)
    matvecs: int = 0
    inner_iterations: int = 0  # total inner iterations for nested solvers
    telemetry: SolveTelemetry = field(default_factory=SolveTelemetry)
    extra: InitVar[dict | None] = None

    def __post_init__(self, extra: dict | None) -> None:
        if extra:
            self.telemetry.attrs.update(extra)

    def to_dict(self, include_solution: bool = False) -> dict:
        """JSON-serializable form (used by the telemetry exporters)."""
        out = {
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "final_residual": float(self.final_residual),
            "residual_history": [float(r) for r in self.residual_history],
            "matvecs": int(self.matvecs),
            "inner_iterations": int(self.inner_iterations),
            "telemetry": self.telemetry.to_dict(),
        }
        if include_solution:
            out["x"] = self.x.tolist()
        out["shape"] = list(np.asarray(self.x).shape)
        return out

    def __repr__(self) -> str:
        return (
            f"SolveResult(converged={self.converged}, iterations={self.iterations}, "
            f"final_residual={self.final_residual:.3e}, matvecs={self.matvecs})"
        )


class OperatorCounter:
    """Wrap an operator and count applications.

    The single counting wrapper of the codebase (it replaced the former
    ``mg.kcycle._CountingOp`` duplicate): ``count`` is the local tally,
    and every application is optionally booked into a ``stats`` sink
    exposing ``op_applies`` (a :class:`~repro.mg.hierarchy.LevelStats`)
    and into a metrics-registry counter via ``metric``.
    """

    def __init__(self, op, stats=None, metric=None):
        self.op = op
        self.count = 0
        self.stats = stats
        self.metric = metric
        self.ns = getattr(op, "ns", None)
        self.nc = getattr(op, "nc", None)

    def apply(self, v: np.ndarray) -> np.ndarray:
        self.count += 1
        if self.stats is not None:
            self.stats.op_applies += 1
        if self.metric is not None:
            self.metric.inc()
        return self.op.apply(v)

    def reset(self) -> None:
        self.count = 0


class ConvergenceError(RuntimeError):
    """Raised when a solver is asked to run in strict mode and stalls."""
