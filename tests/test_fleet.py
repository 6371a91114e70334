"""Fleet serving: spec, affinity routing, spill replication, placement."""

from __future__ import annotations

import logging
import time

import numpy as np
import pytest

from repro.dirac import WilsonCloverOperator
from repro.fleet import (
    EnsembleLoad,
    FakeFleetGenerator,
    FleetNode,
    FleetRouter,
    FleetSpec,
    RouterConfig,
    class_throughput,
    model_speed_factor,
    plan_placement,
    speed_factor,
)
from repro.fleet.router import _rendezvous_score
from repro.gauge import disordered_field
from repro.gpu.device import DEVICES, K20X
from repro.lattice import Lattice
from repro.mg import LevelParams, MGParams
from repro.obs.slo import SLOSpec
from repro.serve import (
    ServeConfig,
    ServiceOverloadedError,
    SetupCache,
    setup_cache_key,
)
from repro.telemetry.context import TraceContext, activate
from tests.conftest import busy_workers

pytestmark = pytest.mark.fleet

TOL = 1e-7


@pytest.fixture(scope="module")
def lattice():
    return Lattice((4, 4, 4, 8))


@pytest.fixture(scope="module")
def gauge(lattice):
    return disordered_field(
        lattice, np.random.default_rng(11), 0.55, smear_steps=1
    )


@pytest.fixture(scope="module")
def ops(gauge):
    # two ensembles: same configuration, shifted quark mass
    return {
        "m0": WilsonCloverOperator(gauge, mass=-1.406 + 0.03, c_sw=1.0),
        "m1": WilsonCloverOperator(gauge, mass=-1.406 + 0.035, c_sw=1.0),
    }


@pytest.fixture(scope="module")
def params():
    return MGParams(
        levels=[LevelParams(block=(2, 2, 2, 4), n_null=6, null_iters=30)],
        outer_tol=TOL,
    )


@pytest.fixture(scope="module")
def sources(lattice):
    rng = np.random.default_rng(3)
    shape = (12, lattice.volume, 4, 3)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture(scope="module")
def fleet():
    return FleetSpec(
        name="test2",
        nodes=(
            FleetNode(id="a100-0", device_name="A100"),
            FleetNode(id="t4-0", device_name="T4"),
        ),
    )


@pytest.fixture(scope="module")
def hierarchies(ops, params):
    """Shared prebuilt hierarchy store (one adaptive setup per ensemble)."""
    source = SetupCache()
    for op in ops.values():
        source.get_or_build(op, params, np.random.default_rng(5))
    return source


def make_router(fleet, hierarchies, **cfg_kwargs) -> FleetRouter:
    cfg = RouterConfig(
        spill_threshold=cfg_kwargs.pop("spill_threshold", 2),
        serve=ServeConfig(max_batch=4, queue_capacity=64),
        **cfg_kwargs,
    )
    return FleetRouter(fleet, cfg, hierarchy_source=hierarchies)


# -- fleet spec ---------------------------------------------------------


class TestFleetSpec:
    def test_json_round_trip(self, fleet, tmp_path):
        path = tmp_path / "fleet.json"
        fleet.save(path)
        loaded = FleetSpec.load(path)
        assert loaded == fleet
        assert FleetSpec.from_dict(fleet.to_dict()) == fleet

    def test_generator_is_deterministic(self):
        gen = (
            FakeFleetGenerator()
            .set_node_statistics(8, {"A100": 25, "L4": 25, "T4": 50})
            .set_link_statistics(avg_bandwidth_gbs=1.0, avg_latency_us=500.0)
        )
        a = gen.generate(name="f", seed=42)
        b = gen.generate(name="f", seed=42)
        assert a.to_dict() == b.to_dict()
        assert a.device_mix() == {"A100": 2, "L4": 2, "T4": 4}

    def test_generator_apportions_small_fleets(self):
        spec = (
            FakeFleetGenerator()
            .set_node_statistics(4, {"A100": 25, "L4": 25, "T4": 50})
            .generate(name="f4", seed=0)
        )
        assert sum(spec.device_mix().values()) == 4
        assert spec.device_mix()["T4"] == 2

    def test_subset_takes_fastest_first(self, fleet):
        one = fleet.subset(1)
        assert len(one.nodes) == 1
        assert one.nodes[0].device_name == "A100"

    def test_speed_factors_ordered(self):
        s = {name: speed_factor(dev) for name, dev in DEVICES.items()}
        assert s["Tesla K20X"] == pytest.approx(1.0)
        assert (
            s["A100"] > s["Tesla P100"] > s["L4"] > s["T4"] > s["Tesla K20X"]
        )


# -- affinity hashing ---------------------------------------------------


class TestAffinity:
    def test_rendezvous_is_consistent_under_node_removal(self):
        node_ids = [f"n{i}" for i in range(6)]

        def winner(fp, nodes):
            return max(nodes, key=lambda n: _rendezvous_score(fp, n))

        fingerprints = [f"op{i}" for i in range(64)]
        homes = {fp: winner(fp, node_ids) for fp in fingerprints}
        removed = node_ids[2]
        survivors = [n for n in node_ids if n != removed]
        for fp in fingerprints:
            new_home = winner(fp, survivors)
            if homes[fp] != removed:
                # only operators homed on the removed node move
                assert new_home == homes[fp]

    def test_router_homes_by_fingerprint(self, fleet, hierarchies, ops, params):
        with make_router(fleet, hierarchies) as router:
            home = router.register("m0", ops["m0"], params)
            fp = setup_cache_key(ops["m0"], params)
            assert home == router.affinity_order(fp)[0]
            assert router.replicas("m0") == [home]


# -- overload payload ---------------------------------------------------


class TestOverloadPayload:
    def test_machine_readable_fields(self):
        exc = ServiceOverloadedError(
            "queue full", queue_depth=7, capacity=8, retry_after_s=1.25
        )
        d = exc.to_dict()
        assert d["error"] == "overloaded"
        assert d["queue_depth"] == 7
        assert d["capacity"] == 8
        assert d["retry_after_s"] == pytest.approx(1.25)


# -- hierarchy seeding --------------------------------------------------


class TestHierarchySeeding:
    def test_seed_makes_get_or_build_a_hit(self, ops, params, hierarchies):
        op = ops["m0"]
        built = hierarchies.get_or_build(op, params)
        fresh = SetupCache()
        key = fresh.seed(op, params, built)
        assert key == setup_cache_key(op, params)
        got = fresh.get_or_build(op, params)
        assert got is built
        assert fresh.stats["seeded"] == 1
        assert fresh.stats["misses"] == 0


# -- placement ----------------------------------------------------------


class TestPlacement:
    def test_plan_covers_all_ensembles(self, fleet):
        loads = [
            EnsembleLoad(name=f"e{i}", dims=(4, 4, 4, 8)) for i in range(4)
        ]
        plan = plan_placement(fleet, loads)
        homes = plan.homes
        assert sorted(homes) == [e.name for e in loads]
        node_ids = {n.id for n in fleet.nodes}
        assert set(homes.values()) <= node_ids
        assert plan.makespan_s > 0

    def test_model_speed_factor_ranks_devices(self, fleet):
        load = EnsembleLoad(name="e", dims=(4, 4, 4, 8))
        a100, t4 = fleet.nodes
        fa, ft = model_speed_factor(a100, load), model_speed_factor(t4, load)
        assert fa > ft > 1.0
        k20x = FleetNode(id="k", device_name=K20X.name)
        assert model_speed_factor(k20x, load) == pytest.approx(1.0)

    def test_class_throughput_ranks_fast_class_higher(self, fleet):
        load = EnsembleLoad(name="e", dims=(4, 4, 4, 8))
        caps = class_throughput(fleet, load)
        assert caps["A100"].solves_per_hour > caps["T4"].solves_per_hour


# -- routing under load -------------------------------------------------


def _agg_rps(router, n_requests) -> float:
    busy = [s["device_busy_s"] for s in router.shard_stats()]
    return n_requests / max(busy)


class TestHotKeySkew:
    def test_hot_key_replicates_and_survives(
        self, fleet, hierarchies, ops, params, sources
    ):
        """The acceptance bar: hot-key traffic triggers spill
        replication and stays within 2x of uniform throughput."""
        n = len(sources)
        # uniform: both ensembles, explicit homes on distinct nodes
        with make_router(fleet, hierarchies) as router:
            router.register("m0", ops["m0"], params, home="a100-0")
            router.register("m1", ops["m1"], params, home="t4-0")
            names = ["m0", "m1"]
            futs = [
                router.submit(names[i % 2], b)
                for i, b in enumerate(sources)
            ]
            results = [f.result() for f in futs]
            assert all(r.converged for r in results)
            uniform_rps = _agg_rps(router, n)

        # hot: every request hits one ensemble
        with make_router(fleet, hierarchies) as router:
            router.register("m0", ops["m0"], params, home="a100-0")
            futs = [router.submit("m0", b) for b in sources]
            results = [f.result() for f in futs]
            assert all(r.converged for r in results)
            assert router.stats["replications"] >= 1
            assert len(router.replicas("m0")) == 2
            assert router.stats["spilled"] >= 1
            hot_rps = _agg_rps(router, n)

        assert hot_rps >= 0.5 * uniform_rps, (
            f"hot {hot_rps:.2f} req/s vs uniform {uniform_rps:.2f} req/s"
        )

    def test_replica_adoption_reuses_hierarchy(
        self, fleet, hierarchies, ops, params, sources
    ):
        """Spilling ships the setup: no shard re-runs null-vector work."""
        with make_router(fleet, hierarchies) as router:
            router.register("m0", ops["m0"], params)
            for b in sources[:8]:
                router.submit("m0", b)
            # every shard cache was seeded/adopted, never built
            for shard in router.shards.values():
                assert shard.cache.stats["misses"] == 0
            router.close(drain=True)


# -- trace propagation --------------------------------------------------


class TestTracePropagation:
    def test_ingress_trace_id_survives_router_hop(
        self, fleet, hierarchies, ops, params, sources
    ):
        with make_router(fleet, hierarchies) as router:
            router.register("m0", ops["m0"], params)
            ctx = TraceContext(attrs={"client": "test"})
            with activate(ctx):
                fut = router.submit("m0", sources[0])
            res = fut.result()
        assert res.converged
        assert res.telemetry.attrs["trace_id"] == ctx.trace_id
        # the fleet attribution is stamped by a done-callback; poll
        deadline = time.monotonic() + 2.0
        while "fleet" not in res.telemetry.attrs:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        fleet_attr = res.telemetry.attrs["fleet"]
        assert fleet_attr["shard"] in {n.id for n in fleet.nodes}
        assert fleet_attr["device"] in DEVICES

    def test_router_mints_trace_when_client_has_none(
        self, fleet, hierarchies, ops, params, sources
    ):
        with make_router(fleet, hierarchies) as router:
            router.register("m0", ops["m0"], params)
            res = router.solve("m0", sources[1])
        assert res.telemetry.attrs["trace_id"]


# -- routed outcomes ----------------------------------------------------


class TestRoutedOutcomes:
    def test_a_cancelled_routed_request_is_no_outcome(
        self, fleet, hierarchies, ops, params, sources
    ):
        # f.exception() on a cancelled future raises CancelledError; in a
        # done-callback concurrent.futures logs it as "exception calling
        # callback"
        records: list[logging.LogRecord] = []
        handler = logging.Handler()
        handler.emit = records.append
        futures_log = logging.getLogger("concurrent.futures")
        futures_log.addHandler(handler)
        spec = SLOSpec("latency-p99", "latency_p99", threshold=60.0)
        try:
            with make_router(fleet, hierarchies, slo_specs=(spec,)) as router:
                home = router.register("m0", ops["m0"], params)
                svc = router.shards[home].service
                with busy_workers(svc, "m0", sources[0]):
                    queued = router.submit("m0", sources[1])
                    assert queued.cancel()
                assert router.solve("m0", sources[2]).converged
        finally:
            futures_log.removeHandler(handler)
        assert records == []
        assert svc.stats["cancelled"] == 1
        # the window holds the routed solve, not the cancelled request
        (status,) = router.slo_monitor.evaluate()
        assert status.n == 1
