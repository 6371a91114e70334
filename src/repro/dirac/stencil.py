"""Abstract nearest-neighbour stencil operator.

Both the fine-grid Wilson-Clover matrix (paper Eq 2) and every coarse
operator produced by the Galerkin product (paper Eq 3) are
nearest-neighbour stencils: a site-local (block-diagonal) term plus one
hop term per direction and orientation.  This base class fixes that
contract so that red-black preconditioning, Galerkin coarsening, domain
decomposition and the solvers are written once against it.

The hop convention: ``apply_hop(mu, +1, v)`` returns the *signed*
contribution to ``(M v)(x)`` that reads the neighbour ``x + mu_hat``
(any prefactor such as the Wilson ``-1/2`` is included), so

    ``M v = apply_diag(v) + sum_{mu, s=+-1} apply_hop(mu, s, v)``.
"""

from __future__ import annotations

import abc

import numpy as np

from ..fields import SpinorField
from ..lattice import NDIM, Lattice
from ..precision import COMPLEX128
from .gamma import chirality_slices_for


class StencilOperator(abc.ABC):
    """A nearest-neighbour operator on color-spinor data ``(V, ns, nc)``."""

    lattice: Lattice
    ns: int
    nc: int

    # ------------------------------------------------------------------
    # primitive pieces (subclass responsibility)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def apply_diag(self, v: np.ndarray) -> np.ndarray:
        """The site-local term of ``M v``."""

    @abc.abstractmethod
    def apply_diag_inv(self, v: np.ndarray) -> np.ndarray:
        """Inverse of the site-local term (needed for Schur preconditioning)."""

    @abc.abstractmethod
    def apply_hop_gathered(self, mu: int, sign: int, nbr: np.ndarray) -> np.ndarray:
        """The signed hop term given already-gathered neighbour values.

        ``nbr[x] = v(x + sign*mu_hat)``.  Separating the gather from the
        per-site math lets the domain-decomposed execution path source
        the neighbour values from a halo exchange instead of a local
        gather (see :mod:`repro.comm.partitioned`).
        """

    def apply_diag_multi(
        self, vs: np.ndarray, chirality: int | None = None
    ) -> np.ndarray:
        """The site-local term of a ``(K, V, ns, nc)`` stack.

        With ``chirality`` given, ``vs`` is a *chiral stack*
        ``(K, V, ns/2, nc)``: the components in that chirality of a
        stack that is zero in the other (what the Galerkin product
        prolongs a coarse unit vector to); the result is the whole
        ``(K, V, ns, nc)`` term.  The default applies :meth:`apply_diag`
        system by system; operators with per-site matrices override it
        with one batched multiply that reads only the chirality's
        columns.
        """
        return np.stack([self.apply_diag(v) for v in self.full_stack(vs, chirality)])

    def apply_hop(self, mu: int, sign: int, v: np.ndarray) -> np.ndarray:
        """The signed hop term of ``M v`` reading neighbour ``x + sign*mu_hat``."""
        table = self.lattice.fwd[mu] if sign > 0 else self.lattice.bwd[mu]
        return self.apply_hop_gathered(mu, sign, v[table])

    def apply_hop_sites(
        self, mu: int, sign: int, sites: np.ndarray, vs: np.ndarray, chirality: int
    ) -> np.ndarray:
        """The signed hop term on the output sites ``sites`` only, of the
        chiral stack ``vs`` of ``chirality`` (as in
        :meth:`apply_diag_multi`); returns ``(K, len(sites), ns, nc)``.

        What the Galerkin product needs of a hop: its value on the
        prolonged unit columns, aggregate by aggregate.  The default
        evaluates :meth:`apply_hop_gathered` system by system on the full
        stack, zero off ``sites``; operators with per-site matrices
        override it with one batched multiply over the sites that reads
        only the chirality's columns.
        """
        vs = self.full_stack(vs, chirality)
        table = (self.lattice.fwd[mu] if sign > 0 else self.lattice.bwd[mu])[sites]
        out = np.empty((vs.shape[0], len(sites)) + vs.shape[2:], dtype=vs.dtype)
        nbr = np.zeros_like(vs[0])
        for i, v in enumerate(vs):
            nbr[sites] = v[table]
            out[i] = self.apply_hop_gathered(mu, sign, nbr)[sites]
        return out

    def full_stack(self, vs: np.ndarray, chirality: int | None) -> np.ndarray:
        """The ``(K, V, ns, nc)`` stack whose ``chirality`` components are
        the chiral stack ``vs`` and whose others are zero; ``vs`` itself
        when ``chirality`` is ``None``."""
        if chirality is None:
            return vs
        full = np.zeros(vs.shape[:2] + (self.ns, self.nc), dtype=vs.dtype)
        full[:, :, chirality_slices_for(self.ns)[chirality]] = vs
        return full

    # ------------------------------------------------------------------
    # derived operations
    # ------------------------------------------------------------------
    @property
    def site_dof(self) -> int:
        return self.ns * self.nc

    def apply_hopping(self, v: np.ndarray) -> np.ndarray:
        """Sum of all eight hop terms: one gathered sweep per direction
        and orientation.

        Works for any stencil operator; the Wilson-Clover operator
        overrides it with its production kernel.
        """
        out = np.zeros_like(v)
        for mu in range(NDIM):
            out += self.apply_hop(mu, +1, v)
            out += self.apply_hop(mu, -1, v)
        return out

    #: the generic sweep under a second name, which the Wilson-Clover
    #: override of ``apply_hopping`` leaves in place: its test oracle
    hop_sum_reference = apply_hopping

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Full matrix application ``M v`` on raw data: the stack of one."""
        return self._apply_multi(v[None])[0]

    def apply_multi(self, vs: np.ndarray) -> np.ndarray:
        """Apply to ``K`` right-hand sides at once, shape ``(K, V, ns, nc)``.

        The multiple-right-hand-side reformulation of paper Section 9:
        the same stencil matrices serve all systems, increasing temporal
        locality and exposing K-way extra parallelism.
        """
        return self._apply_multi(vs)

    def _apply_multi(self, vs: np.ndarray) -> np.ndarray:
        """The one body of :meth:`apply` and :meth:`apply_multi` (called
        directly, so neither public method runs through the other).  The
        default composes the primitives system by system; subclasses
        override it with a genuinely batched kernel."""
        return np.stack([self.apply_diag(v) + self.apply_hopping(v) for v in vs])

    # -- SpinorField conveniences ----------------------------------------
    def __call__(self, v: SpinorField) -> SpinorField:
        self._check_field(v)
        return SpinorField(self.lattice, self.apply(v.data))

    def _check_field(self, v: SpinorField) -> None:
        if v.lattice != self.lattice or v.ns != self.ns or v.nc != self.nc:
            raise ValueError(
                f"field ({v.lattice!r}, ns={v.ns}, nc={v.nc}) does not match "
                f"operator ({self.lattice!r}, ns={self.ns}, nc={self.nc})"
            )

    # ------------------------------------------------------------------
    # gamma5-type hermiticity structure
    # ------------------------------------------------------------------
    def gamma5_diag(self) -> np.ndarray:
        """Diagonal of the gamma5-analogue in spin space, shape (ns,).

        Fine grid: diag(+1, +1, -1, -1); coarse grids: diag(+1, -1) — the
        chirality labels survive aggregation (paper footnote 1).
        """
        half = self.ns // 2
        return np.concatenate([np.ones(half), -np.ones(half)])

    def apply_gamma5(self, v: np.ndarray) -> np.ndarray:
        return v * self.gamma5_diag()[None, :, None]

    # ------------------------------------------------------------------
    # densification, for exhaustive small-lattice testing
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Dense matrix of the operator, shape (V*ns*nc, V*ns*nc).

        Only sensible on tiny lattices; used by the test suite to check
        hermiticity structure, Schur-complement identities and Galerkin
        products exactly.
        """
        n = self.lattice.volume * self.site_dof
        basis = np.zeros((self.lattice.volume, self.ns, self.nc), dtype=np.complex128)
        out = np.empty((n, n), dtype=np.complex128)
        flat = basis.reshape(-1)
        for j in range(n):
            flat[j] = 1.0
            out[:, j] = self.apply(basis).reshape(-1)
            flat[j] = 0.0
        return out

    # ------------------------------------------------------------------
    # cost accounting hooks (consumed by the performance models)
    # ------------------------------------------------------------------
    def flops_per_site(self) -> float:
        """Floating-point operations per output site for one application.

        Generic dense-stencil count: 8 neighbour matrix-vector products
        plus the diagonal, each ``8 * dof^2`` flops (complex fma = 8
        flops), plus the 8-way accumulation.
        """
        dof = self.site_dof
        return 9 * 8 * dof * dof + 8 * 2 * dof

    def bytes_per_site(self, precision_bytes: float = 8.0) -> float:
        """Minimal memory traffic per site for one application.

        Generic dense-stencil traffic (the coarse-operator model of
        :class:`repro.gpu.kernels.CoarseDslashKernel`): 9 dense dof×dof
        matrices, 9 input dof vectors (8 neighbours + diagonal), one
        output write and one read-modify-write.  ``precision_bytes``
        defaults to 8 (the complex128 reals this NumPy implementation
        actually streams).
        """
        matrices, vectors = self.bytes_per_site_split(precision_bytes)
        return matrices + vectors

    def bytes_per_site_split(
        self, precision_bytes: float = 8.0
    ) -> tuple[float, float]:
        """Per-site traffic split into ``(matrix_bytes, vector_bytes)``.

        The split is what makes the multi-RHS cost model work: a batched
        application over ``K`` systems reads the matrices once but moves
        ``K`` sets of vectors, so arithmetic intensity grows with ``K``
        (paper Section 9 / the Richtmann–Meyer–Wettig MRHS argument).
        """
        dof = self.site_dof
        matrices = 9 * dof * dof * 2 * precision_bytes
        vectors = (9 + 2) * dof * 2 * precision_bytes
        return matrices, vectors

    def application_cost(self, dtype=COMPLEX128) -> tuple[float, float]:
        """``(flops, bytes)`` of one full operator application on a
        ``dtype`` field (bytes at the itemsize actually streamed).

        Cached per instance and dtype: telemetry attributes every traced
        stencil span with this cost (:meth:`repro.telemetry.Span.attribute`),
        so the lookup sits on the hot path even when tracing is on.
        """
        return self.application_cost_multi(1, dtype)

    def application_cost_multi(self, k: int, dtype=COMPLEX128) -> tuple[float, float]:
        """``(flops, bytes)`` of one batched application over ``k`` systems.

        Flops scale with ``k``; the matrix traffic is paid once for the
        whole batch while the vector traffic scales with ``k``.  Cached
        per ``(instance, k, dtype)``.
        """
        cache = self.__dict__.setdefault("_application_cost", {})
        dtype = np.dtype(dtype)
        cached = cache.get((k, dtype))
        if cached is None:
            volume = self.lattice.volume
            matrices, vectors = self.bytes_per_site_split(dtype.itemsize / 2)
            cached = cache[k, dtype] = (
                k * volume * self.flops_per_site(),
                volume * (matrices + k * vectors),
            )
        return cached


def operator_application_cost_multi(
    op, k: int, dtype=COMPLEX128
) -> tuple[float, float]:
    """``(flops, bytes)`` of one application of ``op`` to ``k`` ``dtype``
    fields at once.

    Operators exposing ``application_cost_multi`` (the stencil
    hierarchy) get the matrices-read-once traffic model; one exposing
    only ``application_cost`` costs ``k`` independent applications; an
    opaque wrapper goes unattributed rather than breaking the solve.
    """
    fn = getattr(op, "application_cost_multi", None)
    if fn is not None:
        return fn(k, dtype)
    fn = getattr(op, "application_cost", None)
    if fn is None:
        return (0.0, 0.0)
    flops, nbytes = fn(dtype)
    return (k * flops, k * nbytes)


def apply_stack(op, vs: np.ndarray, live: np.ndarray | None = None) -> np.ndarray:
    """``op`` on a ``(K, ...)`` stack: its ``apply_multi`` when it has
    one, else ``apply`` system by system (counting and partitioned
    wrappers, dense test operators).

    ``live`` (the indices of the systems still running) restricts the
    work to ``vs[live]``: the other rows come back zero, and are not
    applied at all — a lockstep loop pays for its live systems only."""
    if live is not None:
        if not len(live):
            return np.zeros_like(vs)
        if len(live) < len(vs):
            applied = apply_stack(op, vs[live])
            out = np.zeros((len(vs),) + applied.shape[1:], dtype=applied.dtype)
            out[live] = applied
            return out
    fn = getattr(op, "apply_multi", None)
    if fn is not None:
        return fn(vs)
    return np.stack([op.apply(v) for v in vs])
