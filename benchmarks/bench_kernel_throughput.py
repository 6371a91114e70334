"""Raw throughput of this library's computational kernels.

Not a paper artifact — these benchmarks track the NumPy implementation
itself (lattice-site updates per second for the Wilson-Clover and
coarse stencils, transfer operators, and the halo-exchange path), so
regressions in the vectorized code paths are caught.
"""

import numpy as np
import pytest

from repro.coarse import coarsen_operator
from repro.comm import PartitionedOperator
from repro.dirac import SchurOperator, WilsonCloverOperator
from repro.gauge import disordered_field
from repro.lattice import Blocking, Lattice, Partition
from repro.transfer import Transfer

from tests.conftest import random_spinor

from _shared import record_row


@pytest.fixture(scope="module")
def fine_setup():
    lat = Lattice((8, 8, 8, 16))
    gauge = disordered_field(lat, np.random.default_rng(0), 0.45)
    op = WilsonCloverOperator(gauge, mass=-1.0, c_sw=1.0)
    v = random_spinor(lat, seed=1)
    return lat, op, v


@pytest.fixture(scope="module")
def coarse_setup(fine_setup):
    lat, op, _ = fine_setup
    nulls = [random_spinor(lat, seed=10 + k) for k in range(8)]
    transfer = Transfer(Blocking(lat, (2, 2, 2, 4)), nulls)
    coarse = coarsen_operator(op, transfer)
    rng = np.random.default_rng(2)
    vc = rng.standard_normal((coarse.lattice.volume, 2, 8)) + 1j * rng.standard_normal(
        (coarse.lattice.volume, 2, 8)
    )
    return transfer, coarse, vc


def test_bench_wilson_clover_apply(benchmark, fine_setup):
    lat, op, v = fine_setup
    benchmark(op.apply, v)
    msites = round(lat.volume / benchmark.stats["mean"] / 1e6, 3)
    benchmark.extra_info["msites_per_s"] = msites
    record_row(
        "kernel_throughput",
        benchmark="wilson_clover.apply",
        seconds=benchmark.stats["mean"],
        msites_per_s=msites,
    )


def test_bench_schur_apply(benchmark, fine_setup):
    lat, op, v = fine_setup
    schur = SchurOperator(op)
    halves = v[None, lat.even_sites]
    benchmark(schur.apply_multi, halves)


def test_bench_clover_construction(benchmark, fine_setup):
    lat, op, _ = fine_setup
    from repro.dirac import CloverTerm

    benchmark.pedantic(
        CloverTerm.from_gauge, args=(op.gauge,), kwargs={"c_sw": 1.0},
        rounds=2, iterations=1,
    )


def test_bench_coarse_apply(benchmark, coarse_setup):
    _, coarse, vc = coarse_setup
    benchmark(coarse.apply, vc)


def test_bench_galerkin_construction(benchmark, fine_setup):
    lat, op, _ = fine_setup
    nulls = [random_spinor(lat, seed=30 + k) for k in range(4)]
    transfer = Transfer(Blocking(lat, (2, 2, 2, 4)), nulls)
    benchmark.pedantic(
        coarsen_operator, args=(op, transfer), rounds=2, iterations=1
    )


def test_bench_restrict(benchmark, fine_setup, coarse_setup):
    _, _, v = fine_setup
    transfer, _, _ = coarse_setup
    benchmark(transfer.restrict, v)


def test_bench_prolong(benchmark, coarse_setup):
    transfer, _, vc = coarse_setup
    benchmark(transfer.prolong, vc)


def test_bench_partitioned_apply(benchmark, fine_setup):
    lat, op, v = fine_setup
    pop = PartitionedOperator(op, Partition(lat, (2, 2, 2, 2)))
    benchmark(pop.apply, v)
    benchmark.extra_info["bytes_per_apply"] = pop.exchange_bytes_per_apply()
