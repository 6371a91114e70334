"""Common solver infrastructure.

Solvers operate on raw complex ndarrays of any shape (the flattened
view defines the inner product), against any operator exposing
``apply(x) -> y``.  Each solve returns a :class:`SolveResult` carrying
the iteration trace and a typed :class:`~repro.telemetry.SolveTelemetry`
payload that the benchmark harness and the performance models consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dirac.stencil import apply_stack
from ..telemetry.result import SolveTelemetry


def vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """Global inner product (conjugate-linear in the first argument)."""
    return complex(np.vdot(a.ravel(), b.ravel()))


def norm2(a: np.ndarray) -> float:
    return float(np.real(np.vdot(a.ravel(), a.ravel())))


def norm(a: np.ndarray) -> float:
    return float(np.sqrt(norm2(a)))


#: Most elements one BLAS ``?dotc`` call reduces.  OpenBLAS splits a dot
#: product of more than 10 000 elements over its threads; in a lockstep
#: loop the wake-ups cost more than they save (DESIGN.md section 28).
DOT_BLOCK = 8192


def batch_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-system inner products ``<a_k, b_k>`` of two ``(K, ...)`` stacks.

    One :func:`numpy.vecdot` over the stack: a BLAS ``?dotc`` per block
    of at most :data:`DOT_BLOCK` elements of each system's row, the
    blocks summed in order.  Nothing in it depends on the other systems,
    so a system's value is bitwise the same at every K (DESIGN.md
    section 28).
    """
    k = a.shape[0]
    n = a.size // k if k else 0
    if n <= DOT_BLOCK:
        return np.vecdot(a.reshape(k, n), b.reshape(k, n))
    blocks = -(-n // DOT_BLOCK)
    while n % blocks:
        blocks += 1
    shape = (k, blocks, n // blocks)
    return np.vecdot(a.reshape(shape), b.reshape(shape)).sum(axis=1)


def per_system(c: np.ndarray, like: np.ndarray) -> np.ndarray:
    """One coefficient per system, shaped to broadcast over the stack
    ``like``; an update ``y += per_system(c, y) * x`` is elementwise, so
    each system's row is updated the same at every K."""
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
    """Outcome of an iterative solve; ``telemetry`` is the typed
    measurement payload."""

    x: np.ndarray
    converged: bool
    iterations: int
    final_residual: float  # relative |r| / |b|
    residual_history: list[float] = field(default_factory=list)
    matvecs: int = 0
    inner_iterations: int = 0  # total inner iterations for nested solvers
    telemetry: SolveTelemetry = field(default_factory=SolveTelemetry)

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


class Lockstep:
    """The state a lockstep driver starts from and assembles its results
    out of; the drivers differ only in their recurrences.

    ``xs`` / ``rs`` start from ``x0s`` (zero when it is ``None``, at the
    cost of no application); a system with a zero (or NaN) right-hand
    side is never ``active``.  Each system's ``targets`` is ``tol`` times
    its norm, its history starts at its relative residual, and
    :meth:`matvec` books an application on the systems still running.
    """

    def __init__(self, op, bs: np.ndarray, x0s: np.ndarray | None, tol: float):
        k = bs.shape[0]
        self.op = op
        self.matvec_batches = 0
        self.matvecs = np.zeros(k, dtype=int)
        if x0s is None:
            self.xs = np.zeros_like(bs)
            self.rs = bs.copy()
        else:
            self.xs = x0s.copy()
            self.rs = bs - self.matvec(self.xs, np.arange(k))
        self.bnorms = np.sqrt(np.real(batch_dot(bs, bs)))
        self.active = self.bnorms > 0
        self.targets = tol * self.bnorms
        rnorms = np.sqrt(np.real(batch_dot(self.rs, self.rs)))
        self.histories = [
            [float(rnorms[i] / self.bnorms[i])] if self.active[i] else [0.0]
            for i in range(k)
        ]
        self.iters = np.zeros(k, dtype=int)

    def matvec(self, vs: np.ndarray, live: np.ndarray) -> np.ndarray:
        """``op`` on the ``live`` systems of ``vs``, booked on each of
        them and once on the stack."""
        self.matvec_batches += 1
        self.matvecs[live] += 1
        return apply_stack(self.op, vs, live)

    def record(self, systems: np.ndarray, rnorms: np.ndarray, it: int) -> None:
        """Iteration ``it`` left ``systems`` (a mask) at residuals ``rnorms``."""
        for i in np.flatnonzero(systems):
            self.iters[i] = it
            self.histories[i].append(float(rnorms[i] / self.bnorms[i]))

    def results(self, converged: np.ndarray) -> list[SolveResult]:
        """One :class:`SolveResult` per system; ``matvecs`` counts the
        applications made while that system was running,
        ``telemetry.attrs["matvec_batches"]`` the stacked calls."""
        attrs = {"matvec_batches": self.matvec_batches, "n_rhs": len(self.histories)}
        return [
            SolveResult(
                self.xs[i],
                bool(converged[i]),
                int(self.iters[i]),
                history[-1],
                history,
                int(self.matvecs[i]),
                telemetry=SolveTelemetry(attrs=dict(attrs)),
            )
            for i, history in enumerate(self.histories)
        ]


class OperatorCounter:
    """Wrap an operator and count its applications in ``count``."""

    def __init__(self, op):
        self.op = op
        self.count = 0
        self.ns = getattr(op, "ns", None)
        self.nc = getattr(op, "nc", None)

    def apply(self, v: np.ndarray) -> np.ndarray:
        self.count += 1
        return self.op.apply(v)

    def reset(self) -> None:
        self.count = 0

