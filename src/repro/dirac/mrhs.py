"""Batched multi-RHS red-black systems (paper Section 9).

Paper Section 9 argues the multiple-right-hand-side reformulation pays
because "the same stencil operator is used for all systems".  On the
fine grid that is a property of the production kernel
(:mod:`repro.dirac.wilson_kernel`): it takes a leading ``K`` axis and
loops the right-hand sides inside each cache block of sites, so link
and clover tables are read once for all ``K`` systems, and
:class:`~repro.dirac.even_odd.SchurOperator` is the red-black system on
it.  On coarse grids there is no spin structure to exploit;
:class:`BatchedCoarseSchur` folds the batch into the right-hand side of
one dense-block GEMM per site and hop on genuine half-volume fields, at
the dtype of the stack it is handed.  Both have the one red-black
interface of :mod:`repro.dirac.even_odd`, and :func:`batched_schur_for`
is the one place that chooses between them.  A site's row of blocks
spans its *distinct* neighbours only (:class:`_DenseBlockHop`, which
:class:`~repro.coarse.CoarseOperator` applies too): on an extent-2
direction ``x + mu`` and ``x - mu`` are one site and their links are
summed once, when the table is built.

A red-black system small enough to hold densely is not iterated on at
all: :meth:`BatchedCoarseSchur.solve_multi` assembles the Schur matrix
from the operator's blocks, LU-factors it once per dtype and solves a
whole ``K``-stack with one pair of triangular solves
(:func:`solves_directly` is the rule for the system,
:attr:`~repro.mg.hierarchy.MGLevel.solved_directly` for where it sits
in a hierarchy; paper Section 7.1: the coarsest grid is a latency
problem, not a throughput one).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from ..lattice import NDIM
from ..precision import COMPLEX128, compute_dtype
from .even_odd import SchurOperator, SiteMajorNative

#: Largest red-black system, in unknowns, that is factored densely
#: instead of iterated on.  A guard on first-use cost and memory, not a
#: measured crossover: in ``tools/sweep_coarsest_direct.py`` (synthetic
#: operators; DESIGN.md section 20 records the run) the direct solve
#: repays its assembly and factorisation within ~60 coarsest solves
#: (six solves of the outer system) at every size tried, so what places
#: the constant is what the first request of a cold-built hierarchy
#: waits for (one restored from a setup file maps its factors and pays
#: none of it, DESIGN.md section 29):
#: 0.6 s and 32 MB in complex64 at 2048 on the benchmark's coarsest
#: lattice (2-core host, single-threaded BLAS; the assembly is 0.19 s of
#: it since it forms one product per pair of distinct neighbours, 0.41 s
#: with one per pair of directions — DESIGN.md section 26), about what
#: the setup before it costs; 3-4 s — five setups — and 128 MB one
#: doubling further (section 20's run).  No workload in this repository
#: lies above it (the benchmark's coarsest systems have 96 and 1024
#: unknowns); the iterated side — the red-black GCR on the same system —
#: is reached by two-level hierarchies and, in tests, by setting this
#: constant.
DIRECT_MAX_UNKNOWNS = 2048


def supports_dense_block_schur(op) -> bool:
    """Whether ``op`` is a dense-block nearest-neighbour operator
    (:class:`~repro.coarse.coarse_op.CoarseOperator`-shaped) the batched
    coarse Schur kernels can drive directly."""
    return hasattr(op, "x_blocks") and hasattr(op, "hop_blocks")


def neighbour_slots(lattice) -> list[tuple[int, int | None]]:
    """The distinct neighbours of a site of ``lattice``, in stencil order:
    ``(mu, 0)`` for ``x + mu``, ``(mu, 1)`` for ``x - mu`` and
    ``(mu, None)`` for both at once.  Extents are even and at least 2,
    so the two neighbours along ``mu`` coincide exactly where the extent
    is 2 (where ``fwd[mu]`` equals ``bwd[mu]``).  Read from the extents,
    so that booking a table builds no neighbour table: a restored
    hierarchy books its tables before any solve touches its lattices."""
    slots: list[tuple[int, int | None]] = []
    for mu in range(NDIM):
        if lattice.dims[mu] == 2:
            slots.append((mu, None))
        else:
            slots += [(mu, 0), (mu, 1)]
    return slots


class _DenseBlockHop:
    """The dense-block stencil from a source site set to an output site
    set, as one row of blocks per output site over its *distinct*
    neighbour sites.

    There is no spin projector structure to exploit on a coarse grid, so
    each neighbour's whole ``(N, N)`` link block is applied — but where a
    direction has extent 2, ``x + mu`` and ``x - mu`` are one site and
    their two links are summed once, here, into one block.  An output
    site then reads ``D = 8 - (extent-2 directions)`` neighbours (plus
    itself when ``diag`` gives its own block): a ``(V_out, N, D N)``
    table and a ``(V_out, D)`` gather index.  An application is one
    gather of the source to ``(V_out, D N, K)`` and one batched GEMM
    against the table, with the batch last, so every block is read once
    for all ``K`` systems.
    """

    def __init__(
        self, op, out_sites: np.ndarray, src_sites: np.ndarray, dtype=COMPLEX128,
        diag: np.ndarray | None = None,
    ):
        lat = op.lattice
        posmap = np.empty(lat.volume, dtype=np.int64)
        posmap[src_sites] = np.arange(len(src_sites))
        self.slots = neighbour_slots(lat)
        blocks, sites = [], []
        if diag is not None:
            blocks.append(diag[out_sites])
            sites.append(out_sites)
        for mu, d in self.slots:
            fwd, bwd = op.hop_blocks[mu]
            if d is None:  # extent 2: one site, both links
                blocks.append(fwd[out_sites] + bwd[out_sites])
            else:
                blocks.append((fwd, bwd)[d][out_sites])
            sites.append((lat.bwd[mu] if d == 1 else lat.fwd[mu])[out_sites])
        self._vo, n = len(out_sites), op.site_dof
        # (Vo, N, D N), cast from the operator's complex128 blocks
        self._rows = np.stack(blocks, axis=2, dtype=dtype, casting="same_kind").reshape(
            self._vo, n, -1
        )
        self._idx = posmap[np.stack(sites, axis=1)]          # (Vo, D)

    @classmethod
    def adopt(cls, lattice, rows: np.ndarray, idx: np.ndarray) -> "_DenseBlockHop":
        """The table whose :meth:`arrays` these are, gathering nothing:
        how a restored setup holds the tables it read from disk."""
        hop = cls.__new__(cls)
        hop.slots = neighbour_slots(lattice)
        hop._vo = len(idx)
        hop._rows, hop._idx = rows, idx
        return hop

    def arrays(self) -> dict[str, np.ndarray]:
        """The table and its gather index, by the names :meth:`shapes` uses."""
        return {"rows": self._rows, "idx": self._idx}

    @staticmethod
    def shapes(lattice, out_volume: int, n: int, diag: bool = False) -> dict[str, tuple]:
        """Shapes of :meth:`arrays` for ``out_volume`` output sites of
        ``lattice`` — known before they are built."""
        d = len(neighbour_slots(lattice)) + diag
        return {"rows": (out_volume, n, d * n), "idx": (out_volume, d)}

    @property
    def nbytes(self) -> int:
        return self._rows.nbytes + self._idx.nbytes

    def blocks(self) -> np.ndarray:
        """The table as ``(V_out, N, D, N)``: block ``[:, :, j]`` multiplies
        the source at ``_idx[:, j]``."""
        n = self._rows.shape[1]
        return self._rows.reshape(self._vo, n, -1, n)

    def apply(self, src: np.ndarray) -> np.ndarray:
        """``sum_j Y_j src(nbr_j)``: (K, Vs, ns, nc) -> (K, Vo, ns, nc)."""
        k, vs = src.shape[0], src.shape[1]
        ns, nc = src.shape[2], src.shape[3]
        flat = src.reshape(k, vs, ns * nc).transpose(1, 2, 0)  # (Vs, N, K)
        g = np.take(flat, self._idx, axis=0).reshape(self._vo, -1, k)  # (Vo, D N, K)
        out = np.matmul(self._rows, g)                         # (Vo, N, K)
        return np.ascontiguousarray(out.transpose(2, 0, 1)).reshape(
            k, self._vo, ns, nc
        )


def _dense_blocks_apply_multi(mats: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Apply per-site ``(N, N)`` blocks to ``(K, V, ns, nc)`` data, batch last."""
    k, vol = vs.shape[0], vs.shape[1]
    flat = vs.reshape(k, vol, -1).transpose(1, 2, 0)
    out = np.matmul(mats, flat)
    return np.ascontiguousarray(out.transpose(2, 0, 1)).reshape(vs.shape)


class BatchedCoarseSchur(SiteMajorNative):
    """The red-black system of a dense-block (coarse) operator.

    The interface of :class:`SchurOperator` one level down, computing on
    its public stack (it is its own native view): ``apply_multi``
    evaluates ``(X_ee - Y_eo X_oo^{-1} Y_oe) x_e`` on genuine
    half-volume ``(K, V/2, ns, nc)`` stacks, with every dense link and
    site block read once per application for all ``K`` systems.  The
    parity-gathered link stacks and site blocks are built per dtype, the
    first time a stack of that dtype arrives — ``X_oo^{-1}`` inverted
    from the odd sites' blocks alone, in complex128, so the operator
    holds no inverse for it — and so are the dense LU factors
    :meth:`solve_multi` solves with, unless a restored setup holds them
    already (:meth:`adopt`).  What they take is :meth:`streamed_layout`,
    known before they exist.
    """

    def __init__(self, op):
        self.op = op
        self._own = op.lattice.sites_of_parity(0)
        self._other = op.lattice.sites_of_parity(1)
        self._tables: dict = {}
        self._factors: dict = {}

    @property
    def unknowns(self) -> int:
        """Size of the red-black system: half the sites, ``N`` per site."""
        return self._own.size * self.op.site_dof

    def _at(self, dtype):
        """``(hop to other, hop to own, X_ee, X_oo^{-1})`` at ``dtype``."""
        tables = self._tables.get(dtype)
        if tables is None:
            op, own, other = self.op, self._own, self._other
            tables = self._tables[dtype] = (
                _DenseBlockHop(op, out_sites=other, src_sites=own, dtype=dtype),
                _DenseBlockHop(op, out_sites=own, src_sites=other, dtype=dtype),
                np.ascontiguousarray(op.x_blocks[own], dtype=dtype),
                # the odd sites' blocks only, inverted in double
                np.ascontiguousarray(np.linalg.inv(op.x_blocks[other]), dtype=dtype),
            )
        return tables

    def drop_tables(self, dtype) -> None:
        """Forget the parity tables at ``dtype``; the next stack of that
        dtype gathers them again."""
        self._tables.pop(np.dtype(dtype), None)

    _HOPS = ("to_other", "to_own")

    def streamed(self, dtype, factor: bool = False) -> dict[str, np.ndarray]:
        """What a solve at ``dtype`` reads, by name: both hops' tables
        and indices, ``x_ee``, ``x_oo_inv`` and, with ``factor``, the LU
        factors ``lu`` (in LAPACK's column order) and their row order
        ``perm`` — gathered and factored here if no solve has yet.
        :meth:`adopt` holds them again."""
        dtype = np.dtype(dtype)
        *hops, x_ee, x_oo_inv = self._at(dtype)
        out = {
            f"{side}.{name}": array
            for side, hop in zip(self._HOPS, hops)
            for name, array in hop.arrays().items()
        }
        out |= {"x_ee": x_ee, "x_oo_inv": x_oo_inv}
        if factor:
            out["lu"], out["perm"] = self._factor(dtype)
        return out

    def streamed_layout(self, dtype, factor: bool = False) -> dict[str, tuple]:
        """``(shape, dtype)`` of every array :meth:`streamed` returns —
        known before they are built."""
        vh, n = self._own.size, self.op.site_dof
        index = np.dtype(np.int64)
        hop = _DenseBlockHop.shapes(self.op.lattice, vh, n)
        out = {
            f"{side}.{name}": (shape, index if name == "idx" else np.dtype(dtype))
            for side in self._HOPS
            for name, shape in hop.items()
        }
        out["x_ee"] = out["x_oo_inv"] = ((vh, n, n), np.dtype(dtype))
        if factor:
            out["lu"] = ((self.unknowns, self.unknowns), np.dtype(dtype))
            out["perm"] = ((self.unknowns,), index)
        return out

    def adopt(self, dtype, arrays: dict[str, np.ndarray], factor: bool = False) -> None:
        """Hold ``arrays`` — :meth:`streamed` of a system of this shape —
        as the tables (and, with ``factor``, the factors) at ``dtype``:
        nothing is gathered, inverted, assembled or factored.  The LU
        factors must be in column order, which the triangular solves
        read without a copy."""
        dtype = np.dtype(dtype)
        if factor and not arrays["lu"].flags.f_contiguous:
            raise ValueError("LU factors must be Fortran-ordered")
        lattice = self.op.lattice
        hops = [
            _DenseBlockHop.adopt(lattice, arrays[f"{side}.rows"], arrays[f"{side}.idx"])
            for side in self._HOPS
        ]
        self._tables[dtype] = (*hops, arrays["x_ee"], arrays["x_oo_inv"])
        if factor:
            self._factors[dtype] = (arrays["lu"], arrays["perm"])

    def apply_multi(self, halves: np.ndarray) -> np.ndarray:
        to_other, to_own, diag_own, dinv_other = self._at(compute_dtype(halves))
        mid = _dense_blocks_apply_multi(dinv_other, to_other.apply(halves))
        return _dense_blocks_apply_multi(diag_own, halves) - to_own.apply(mid)

    def prepare_multi(self, bs: np.ndarray) -> np.ndarray:
        """Schur right-hand sides ``b_e - Y_eo X_oo^{-1} b_o`` for a stack."""
        _, to_own, _, dinv_other = self._at(compute_dtype(bs))
        b_other = np.ascontiguousarray(bs[:, self._other])
        corr = to_own.apply(_dense_blocks_apply_multi(dinv_other, b_other))
        return bs[:, self._own] - corr

    def reconstruct_multi(self, xs_half: np.ndarray, bs: np.ndarray) -> np.ndarray:
        """Full-lattice solutions ``x_o = X_oo^{-1}(b_o - Y_oe x_e)``."""
        to_other, _, _, dinv_other = self._at(compute_dtype(bs))
        b_other = np.ascontiguousarray(bs[:, self._other])
        rhs_other = b_other - to_other.apply(xs_half)
        x_other = _dense_blocks_apply_multi(dinv_other, rhs_other)
        out = np.empty_like(bs)
        out[:, self._own] = xs_half
        out[:, self._other] = x_other
        return out

    # ------------------------------------------------------------------
    # the dense form
    # ------------------------------------------------------------------
    def to_dense(self, dtype=COMPLEX128) -> np.ndarray:
        """The Schur matrix as one ``(V/2 N, V/2 N)`` array, assembled
        from the blocks at ``dtype``.

        An odd site ``o`` couples its ``D`` distinct even neighbours
        pairwise through ``Y(e_i <- o) X_oo^{-1}(o) Y(o <- e_j)``: one
        product per neighbour pair ``(i, j)``, stacked over the odd sites
        (``D^2`` of them; 64 with no extent-2 direction).  For a fixed
        pair ``o -> (e_i, e_j)`` is one-to-one (a shift of the lattice),
        so each product scatters without collisions; those that land on
        the same block — the diagonal ones — accumulate from one pair to
        the next.
        """
        dtype = np.dtype(dtype)
        to_other, to_own, diag_own, dinv_other = self._at(dtype)
        slots = to_other.slots
        # (D, Vh): the even neighbour of odd site o in slot j
        nbr = to_other._idx.T
        ndir, vh = nbr.shape
        n = self.op.site_dof
        # what carries o to that neighbour is the neighbour's own block of
        # the opposite slot: backward for forward, the same one on extent 2
        opposite = np.array([slots.index((mu, d if d is None else 1 - d)) for mu, d in slots])
        out_links = to_own.blocks()[nbr, :, opposite[:, None], :]  # (D, Vh, N, N)
        # X_oo^{-1} Y(o <- e_j), (Vh, N, D, N)
        in_links = np.matmul(dinv_other, to_other._rows).reshape(vh, n, ndir, n)
        dense = np.zeros((vh, n, vh, n), dtype=dtype)
        sites = np.arange(vh)
        dense[sites, :, sites, :] = diag_own
        for i in range(ndir):
            for j in range(ndir):
                dense[nbr[i], :, nbr[j], :] -= np.matmul(out_links[i], in_links[:, :, j])
        return dense.reshape(vh * n, vh * n)

    def _factor(self, dtype):
        """``(lu, perm)`` at ``dtype``, factored the first time a stack of
        that dtype is to be solved."""
        factor = self._factors.get(dtype)
        if factor is None:
            factor = self._factors[dtype] = self._factorise(dtype)
        return factor

    def _factorise(self, dtype):
        """The LU factors of the dense Schur matrix at ``dtype`` (LAPACK
        at that dtype) and the row order their pivoting leaves."""
        return lu_rows(self.to_dense(dtype))

    def solve_multi(self, rhs_halves: np.ndarray) -> np.ndarray:
        """Exact solutions of the red-black system for a ``(K, V/2, ns,
        nc)`` stack of prepared right-hand sides: one pair of triangular
        solves for all ``K`` of them (``trsm``; ``trsv`` for a single
        one, which ``trsm`` and LAPACK's ``getrs`` run 3x slower)."""
        lu, perm = self._factor(compute_dtype(rhs_halves))
        trsv, trsm = scipy.linalg.get_blas_funcs(("trsv", "trsm"), (lu,))
        k = rhs_halves.shape[0]
        pb = rhs_halves.reshape(k, -1)[:, perm]  # a fresh copy, solved in place
        if k == 1:
            y = trsv(lu, pb[0], lower=1, diag=1, overwrite_x=1)
            x = trsv(lu, y, lower=0, overwrite_x=1)
        else:
            y = trsm(1.0, lu, pb.T, lower=1, diag=1, overwrite_b=1)
            x = trsm(1.0, lu, y, lower=0, overwrite_b=1).T
        return x.reshape(rhs_halves.shape)


def lu_rows(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(lu, perm)``: ``dense`` overwritten by its LU factors and the row
    order LAPACK's pivoting leaves, as one permutation."""
    lu, piv = scipy.linalg.lu_factor(dense, overwrite_a=True, check_finite=False)
    perm = np.arange(len(piv))
    for row, other in enumerate(piv):  # LAPACK's sequential row swaps
        perm[row], perm[other] = perm[other], perm[row]
    return lu, perm


def solves_directly(schur) -> bool:
    """The one rule of the coarsest solve: a red-black system that holds
    dense factors (:meth:`BatchedCoarseSchur.solve_multi`) solves
    directly up to :data:`DIRECT_MAX_UNKNOWNS` unknowns; a larger one is
    iterated on."""
    return hasattr(schur, "solve_multi") and schur.unknowns <= DIRECT_MAX_UNKNOWNS


def batched_schur_for(op):
    """The red-black system of ``op``, and the one place that chooses
    it: stacked dense-block GEMMs on a coarse operator, else the
    production kernel's :class:`~repro.dirac.even_odd.SchurOperator`
    (``TypeError`` for an operator with neither)."""
    if supports_dense_block_schur(op):
        return BatchedCoarseSchur(op)
    return SchurOperator(op)
