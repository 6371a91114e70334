"""Property-based tests of the package's numerical invariants.

Where ``test_verify_registry.py`` checks the preset datasets, this file
draws *random* problems from ``tests/strategies.py`` and requires the
same algebraic identities to hold for every draw: the invariants are
properties of the construction, not of one lucky configuration.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coarse import coarsen_operator
from repro.coarse.galerkin import galerkin_violation
from repro.dirac.even_odd import SchurOperator
from repro.gauge import gauge_fingerprint
from repro.lattice import Blocking
from repro.mg.params import LevelParams, MGParams
from repro.precision import Precision, apply_precision, rel_epsilon
from repro.solvers.base import norm, vdot
from repro.transfer import Transfer
from repro.verify.checks import gamma5_hermiticity_violation
from strategies import (
    SEEDS,
    gauge_fields,
    lattices,
    mg_params,
    spinors,
    su3_matrices,
    wilson_operators,
)

pytestmark = pytest.mark.verify

FAST = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# operator-building draws cost ~100ms each; keep example counts modest
SLOW = dict(FAST, max_examples=6)

EXACT = 1e-10


def _rel(diff, ref):
    return norm(diff) / max(norm(ref), np.finfo(np.float64).tiny)


def _probe(draw_seed, op):
    rng = np.random.default_rng(draw_seed)
    shape = (op.lattice.volume, op.ns, op.nc)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestOperatorIdentities:
    @given(op=wilson_operators(), seed=SEEDS)
    @settings(**SLOW)
    def test_gamma5_hermiticity(self, op, seed):
        v = _probe(seed, op)
        w = _probe(seed + 1, op)
        assert gamma5_hermiticity_violation(op, v, w) < EXACT

    @given(op=wilson_operators(), seed=SEEDS)
    @settings(**SLOW)
    def test_adjoint_is_true_adjoint(self, op, seed):
        v = _probe(seed, op)
        w = _probe(seed + 1, op)
        lhs = vdot(w, op.apply(v))
        # M^dag = g5 M g5
        adjoint_w = op.apply_gamma5(op.apply(op.apply_gamma5(w)))
        rhs = np.conj(vdot(v, adjoint_w))
        assert abs(lhs - rhs) / max(abs(lhs), 1e-300) < EXACT

    @given(op=wilson_operators(), seed=SEEDS)
    @settings(**SLOW)
    def test_schur_equivalence(self, op, seed):
        schur = SchurOperator(op)
        x = _probe(seed, op)[None]
        b = op.apply(x[0])[None]
        x_e = x[:, op.lattice.even_sites]
        rhs = schur.prepare_multi(b)
        assert _rel(schur.apply_multi(x_e) - rhs, rhs) < EXACT
        assert _rel(schur.reconstruct_multi(x_e, b) - x, x) < EXACT


class TestGaugeInvariants:
    @given(u=su3_matrices())
    @settings(**FAST)
    def test_random_su3_is_unitary(self, u):
        eye = np.broadcast_to(np.eye(3), u.shape)
        assert np.abs(u @ np.conj(np.swapaxes(u, -1, -2)) - eye).max() < 1e-12
        assert np.abs(np.linalg.det(u) - 1.0).max() < 1e-12

    @given(gauge=gauge_fields())
    @settings(**SLOW)
    def test_drawn_field_stays_su3(self, gauge):
        assert gauge.unitarity_violation() < 1e-9
        assert gauge.determinant_violation() < 1e-9

    @given(gauge=gauge_fields(), seed=SEEDS)
    @settings(**SLOW)
    def test_fingerprint_detects_single_link_mutation(self, gauge, seed):
        before = gauge_fingerprint(gauge)
        rng = np.random.default_rng(seed)
        mu = rng.integers(4)
        site = rng.integers(gauge.lattice.volume)
        saved = gauge.data[mu, site].copy()
        try:
            gauge.data[mu, site, 0, 0] += 1e-8
            assert gauge_fingerprint(gauge) != before
        finally:
            gauge.data[mu, site] = saved
        assert gauge_fingerprint(gauge) == before


class TestHierarchyIdentities:
    @given(data=st.data())
    @settings(**SLOW)
    def test_transfer_orthonormality_by_construction(self, data):
        lat = data.draw(lattices())
        op = data.draw(wilson_operators(lattice=lat))
        # coarse extents must stay even for red-black, so only block
        # directions with at least 4 sites
        block = tuple(2 if e >= 4 else 1 for e in lat.dims)
        # one generator for both vectors: independently drawn seeds can
        # coincide, which would make the null vectors linearly dependent
        nrng = np.random.default_rng(data.draw(SEEDS))
        shape = (lat.volume, 4, 3)
        nulls = [
            nrng.standard_normal(shape) + 1j * nrng.standard_normal(shape)
            for _ in range(2)
        ]
        transfer = Transfer(Blocking(lat, block), nulls)
        assert transfer.orthonormality_violation() < EXACT
        # P must also be an exact right-inverse of R: R(P v_c) = v_c
        coarse = coarsen_operator(op, transfer)
        vc = _probe(data.draw(SEEDS), coarse)
        assert _rel(transfer.restrict(transfer.prolong(vc)) - vc, vc) < EXACT

    @given(data=st.data())
    @settings(**SLOW)
    def test_galerkin_consistency(self, data):
        lat = data.draw(lattices())
        op = data.draw(wilson_operators(lattice=lat))
        # coarse extents must stay even for red-black, so only block
        # directions with at least 4 sites
        block = tuple(2 if e >= 4 else 1 for e in lat.dims)
        # one generator for both vectors: independently drawn seeds can
        # coincide, which would make the null vectors linearly dependent
        nrng = np.random.default_rng(data.draw(SEEDS))
        shape = (lat.volume, 4, 3)
        nulls = [
            nrng.standard_normal(shape) + 1j * nrng.standard_normal(shape)
            for _ in range(2)
        ]
        transfer = Transfer(Blocking(lat, block), nulls)
        coarse = coarsen_operator(op, transfer)
        probes = [_probe(data.draw(SEEDS), coarse)]
        assert galerkin_violation(op, transfer, coarse, probes) < EXACT


class TestPrecisionBounds:
    @given(data=st.data(), precision=st.sampled_from([Precision.SINGLE, Precision.HALF]))
    @settings(**FAST)
    def test_roundtrip_within_format_bound(self, data, precision):
        lat = data.draw(lattices())
        v = data.draw(spinors(lat))
        err = _rel(apply_precision(v, precision) - v, v)
        assert err <= 8.0 * rel_epsilon(precision) * np.sqrt(v.shape[1] * v.shape[2])

    @given(data=st.data())
    @settings(**FAST)
    def test_double_roundtrip_bit_exact(self, data):
        v = data.draw(spinors(data.draw(lattices())))
        assert np.array_equal(apply_precision(v, Precision.DOUBLE), v)


class TestConfigFingerprints:
    @given(data=st.data())
    @settings(**FAST)
    def test_fingerprint_sensitive_to_numerics(self, data):
        _lat, params = data.draw(mg_params())
        lp = params.levels[0]
        changed = MGParams(
            levels=[LevelParams(block=lp.block, n_null=lp.n_null + 1,
                                null_iters=lp.null_iters)],
            outer_tol=params.outer_tol,
        )
        assert changed.fingerprint() != params.fingerprint()
