"""Shared hypothesis strategies for the lattice-QCD test suite.

Centralizes random generation of the domain objects (lattice
geometries, SU(3) gauge fields, spinors, Wilson-Clover operators, MG
configurations, dense linear systems) so property tests across modules
draw from the same, shrinkable distributions.  Everything is seeded
through drawn integers + ``np.random.default_rng`` so failures replay
deterministically from the hypothesis shrink output.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.dirac import WilsonCloverOperator
from repro.gauge import disordered_field, random_su3
from repro.lattice import Lattice
from repro.mg.params import LevelParams, MGParams

# Keep drawn lattices tiny: every extent even (red-black needs it),
# volume <= 4*4*4*8 so a Wilson apply stays in the millisecond range.
_EXTENTS = (2, 4)
_MAX_VOLUME = 512

SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def lattices(draw, max_volume: int = _MAX_VOLUME):
    """A small 4D lattice with even extents."""
    while True:
        dims = tuple(draw(st.sampled_from(_EXTENTS)) for _ in range(4))
        if int(np.prod(dims)) <= max_volume:
            return Lattice(dims)


@st.composite
def su3_matrices(draw, n: int = 8):
    """A batch of ``n`` random SU(3) matrices, shape (n, 3, 3)."""
    rng = np.random.default_rng(draw(SEEDS))
    return random_su3(rng, n)


@st.composite
def gauge_fields(draw, lattice: Lattice | None = None):
    """A disordered (but smoothed) SU(3) gauge field."""
    lat = lattice if lattice is not None else draw(lattices())
    rng = np.random.default_rng(draw(SEEDS))
    disorder = draw(st.floats(0.2, 0.7))
    return disordered_field(lat, rng, disorder, smear_steps=1)


@st.composite
def spinors(draw, lattice: Lattice, ns: int = 4, nc: int = 3):
    """A complex Gaussian spinor field array of shape (V, ns, nc)."""
    rng = np.random.default_rng(draw(SEEDS))
    shape = (lattice.volume, ns, nc)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@st.composite
def site_fields(draw, lattice: Lattice | None = None, max_k: int = 4):
    """A ``(K, V, ns, nc)`` complex field stack with drawn internal dof.

    Internal degrees of freedom cover both the fine-grid (4, 3) shape
    and coarse-grid (2, nc_hat) shapes, so layout properties (parity
    planes) are exercised for every operator family.
    """
    lat = lattice if lattice is not None else draw(lattices())
    ns = draw(st.sampled_from([2, 4]))
    nc = draw(st.integers(1, 4))
    k = draw(st.integers(1, max_k))
    rng = np.random.default_rng(draw(SEEDS))
    shape = (k, lat.volume, ns, nc)
    return lat, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@st.composite
def wilson_operators(draw, lattice: Lattice | None = None):
    """A Wilson-Clover operator on a drawn gauge field.

    The mass stays in a mildly-negative band (the physically relevant
    regime) but safely away from criticality, so drawn operators remain
    comfortably invertible.
    """
    gauge = draw(gauge_fields(lattice=lattice))
    mass = draw(st.floats(-0.3, 0.3))
    c_sw = draw(st.sampled_from([0.0, 1.0]))
    return WilsonCloverOperator(gauge, mass=mass, c_sw=c_sw)


@st.composite
def mg_params(draw, lattice: Lattice | None = None):
    """A one-coarsening MGParams whose block tiles ``lattice``.

    Drawing the lattice too keeps (lattice, params) consistent; the
    pair is returned so callers can build the matching operator.
    """
    lat = lattice if lattice is not None else draw(lattices())
    # coarse extents must stay even (red-black on the coarse level), so
    # a direction is blocked by 2 only when it has at least 4 sites
    block = tuple(2 if e >= 4 else 1 for e in lat.dims)
    params = MGParams(
        levels=[
            LevelParams(
                block=block,
                n_null=draw(st.sampled_from([2, 4])),
                null_iters=draw(st.integers(5, 20)),
            )
        ],
        outer_tol=1e-6,
    )
    return lat, params


class DenseOperator:
    """A dense matrix behind the package's operator interface."""

    def __init__(self, mat: np.ndarray):
        self.mat = mat
        self.ns = 1
        self.nc = mat.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        return (self.mat @ v.reshape(-1)).reshape(v.shape)

    def apply_multi(self, vs: np.ndarray) -> np.ndarray:
        k = vs.shape[0]
        return (self.mat @ vs.reshape(k, -1).T).T.reshape(vs.shape)

    def gamma5_diag(self):
        return np.ones(1)


@st.composite
def dense_systems(draw, kind: str = "general", max_n: int = 24):
    """A random dense system ``(DenseOperator, b)``.

    ``kind``:
      * ``"hermitian_indefinite"`` — hermitian with both signs in the
        spectrum (full-subspace GCR territory),
      * ``"general"`` — diagonally dominated non-hermitian (BiCGStab).
    """
    n = draw(st.integers(4, max_n))
    rng = np.random.default_rng(draw(SEEDS))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "hermitian_indefinite":
        h = 0.5 * (a + a.conj().T)
        evals, evecs = np.linalg.eigh(h)
        # push every eigenvalue away from zero, keeping its sign; make
        # sure at least one of each sign exists
        evals = np.sign(evals) * (np.abs(evals) + 1.0)
        evals[0] = -abs(evals[0])
        evals[-1] = abs(evals[-1])
        a = (evecs * evals) @ evecs.conj().T
    elif kind == "general":
        a = a + (2.0 * n) * np.eye(n)
    else:
        raise ValueError(f"unknown dense system kind {kind!r}")
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return DenseOperator(a), b


_SPAN_NAMES = ("mg.solve", "smoother", "restrict", "prolong", "coarse-solve")


@st.composite
def span_forests(draw, max_spans: int = 40, max_depth: int = 4):
    """A serialized span forest: the ``doc["spans"]`` of a trace document.

    Names repeat across branches and levels, a ``level`` override sits
    on a random subset of spans (so levels change at random depths),
    and ``flops``/``bytes`` costs are booked on a random subset.  The
    children of a span share at most its duration, so every self-time
    is non-negative.
    """
    budget = [max_spans]

    def build(duration: float, depth: int) -> dict:
        budget[0] -= 1
        attrs = {}
        if draw(st.booleans()):
            attrs["level"] = draw(st.integers(0, 3))
        for cost in ("flops", "bytes"):
            if draw(st.booleans()):
                attrs[cost] = float(draw(st.integers(0, 10**9)))
        n = 0
        if depth < max_depth and budget[0] > 0:
            n = draw(st.integers(0, min(3, budget[0])))
        shares = [draw(st.floats(0.0, 1.0)) for _ in range(n)]
        scale = draw(st.floats(0.0, 1.0)) * duration / max(sum(shares), 1.0)
        return {
            "name": draw(st.sampled_from(_SPAN_NAMES)),
            "duration_s": duration,
            "attrs": attrs,
            "children": [build(s * scale, depth + 1) for s in shares],
        }

    n_roots = draw(st.integers(1, 3))
    return [build(draw(st.floats(0.0, 10.0)), 0) for _ in range(n_roots)]
