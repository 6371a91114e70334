"""Fleet scaling benchmark: requests/s versus shard count, with skew.

Drives one request burst through a :class:`~repro.fleet.FleetRouter`
at several shard counts (subsets of one generated heterogeneous
fleet), under two workloads:

* ``uniform`` — requests round-robin over many distinct ensembles, the
  task-parallel analysis campaign the paper's throughput argument is
  about;
* ``hot`` — every request targets one ensemble, the hot-key skew that
  kills pure cache-affinity routing and must be survived by spill
  replication.

Two throughput numbers per row:

* ``wall_rps`` — measured wall-clock requests/s.  Honest but bounded
  by the host's real cores (all shards share this machine), so it does
  not scale.
* ``agg_rps`` — the headline *simulated fleet* requests/s:
  ``n_requests / max over shards of device_busy_s``, where each
  shard's busy time is its measured thread-CPU solve seconds divided
  by its device's roofline speed factor (:mod:`repro.fleet.spec`).
  This is the Helix-simulator-style number: real numerics, modeled
  hardware — it scales exactly as far as the router actually spreads
  the work, which is the property under test.

The resulting document (schema ``repro.fleet/v1``) carries the fleet
spec, the placement plan, per-shard routing stats, replication counts
and per-skew scaling summaries.
"""

from __future__ import annotations

import time

import numpy as np

from ..dirac import WilsonCloverOperator
from ..obs.slo import DEFAULT_SLOS
from ..serve.cache import SetupCache
from ..serve.service import ServeConfig
from .. import telemetry
from ..telemetry.metrics import percentile
from ..workloads.datasets import ANISO40_SCALED, ScaledDataset
from ..workloads.presets import two_level_params
from .placement import (
    EnsembleLoad,
    class_throughput,
    model_speed_factor,
    plan_placement,
)
from .router import FleetRouter, RouterConfig
from .spec import FakeFleetGenerator, FleetSpec

BENCH_SCHEMA = "repro.fleet/v1"

#: Helix-style default mix: a few fast A100s, mid L4s, many T4s
DEFAULT_MIX = {"A100": 25, "L4": 25, "T4": 50}

SKEWS = ("uniform", "hot")


def default_fleet(num_nodes: int, seed: int = 0) -> FleetSpec:
    """The bench's stock heterogeneous fleet."""
    return (
        FakeFleetGenerator()
        .set_node_statistics(num_nodes, DEFAULT_MIX)
        .set_link_statistics(avg_bandwidth_gbs=1.0, avg_latency_us=500.0)
        .generate(name=f"fleet{num_nodes}", seed=seed)
    )


def run_fleet_bench(
    dataset: ScaledDataset = ANISO40_SCALED,
    shard_counts: tuple[int, ...] = (1, 2, 4, 8),
    skew: str = "both",
    n_requests: int = 24,
    n_ops: int | None = None,
    fleet: FleetSpec | None = None,
    null_iters: int = 40,
    max_batch: int = 4,
    spill_threshold: int = 3,
    rhs_seed: int = 2016,
    setup_seed: int = 7,
    metrics_out: str | None = None,
    verbose: bool = False,
) -> dict:
    """Measure router throughput versus shard count and key skew.

    All shard counts are subsets (fastest nodes first) of one fleet;
    all runs share one prebuilt hierarchy store, so the adaptive setup
    is paid once per ensemble for the whole sweep and registration on
    any shard is an adoption, exactly like the router's replication
    path.  Returns a JSON-safe ``repro.fleet/v1`` document.
    """
    # "hot" implies its uniform baseline: hot-key survival is defined
    # as throughput relative to the uniform-load run
    if skew in ("both", "hot"):
        skews: tuple[str, ...] = SKEWS
    elif skew == "uniform":
        skews = ("uniform",)
    else:
        raise ValueError(f"skew must be one of {SKEWS + ('both',)}, got {skew!r}")
    shard_counts = tuple(sorted(set(int(s) for s in shard_counts)))
    if fleet is None:
        fleet = default_fleet(max(shard_counts))
    if max(shard_counts) > len(fleet.nodes):
        raise ValueError(
            f"fleet {fleet.name!r} has {len(fleet.nodes)} nodes; "
            f"cannot run {max(shard_counts)} shards"
        )
    if n_ops is None:
        n_ops = 2 * max(shard_counts)

    with telemetry.prometheus_snapshot(metrics_out):
        lattice = dataset.lattice()
        gauge = dataset.gauge()
        params = two_level_params(dataset, null_iters=null_iters)

        # distinct ensembles: the same configuration at shifted quark
        # masses (a quark-mass scan) — distinct fingerprints, so the
        # router sees n_ops independent cache keys
        base_kwargs = dataset.operator_kwargs()
        ops = {}
        for i in range(n_ops):
            kwargs = dict(base_kwargs)
            kwargs["mass"] = kwargs["mass"] + 1e-3 * i
            ops[f"{dataset.label}/m{i}"] = WilsonCloverOperator(gauge, **kwargs)

        # one shared hierarchy store for the whole sweep
        source = SetupCache()
        t_setup0 = time.perf_counter()
        for name, op in ops.items():
            source.get_or_build(op, params, np.random.default_rng(setup_seed))
        setup_s = time.perf_counter() - t_setup0

        rng = np.random.default_rng(rhs_seed)
        shape = (n_requests, lattice.volume, 4, 3)
        sources = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        op_names = sorted(ops)
        loads = [
            EnsembleLoad(name=name, dims=dataset.dims) for name in op_names
        ]
        # workload-aware node speeds: the same occupancy model the planner
        # prices with, so simulated busy time and placement agree on what
        # each node is worth on grids this small
        factors = {
            node.id: model_speed_factor(node, loads[0]) for node in fleet.nodes
        }

        rows: list[dict] = []
        placement_doc: dict | None = None
        for shards in shard_counts:
            sub = fleet.subset(shards)
            plan = plan_placement(sub, loads)
            if shards == max(shard_counts):
                placement_doc = plan.to_dict()
            for mode in skews:
                cfg = RouterConfig(
                    spill_threshold=spill_threshold,
                    serve=ServeConfig(
                        max_batch=max_batch,
                        queue_capacity=max(4 * n_requests, 64),
                        n_workers=1,
                    ),
                    slo_specs=tuple(DEFAULT_SLOS),
                )
                with FleetRouter(
                    sub, cfg, hierarchy_source=source, speed_factors=factors
                ) as router:
                    homes = plan.homes
                    for name in op_names:
                        router.register(name, ops[name], params, home=homes[name])
                    targets = (
                        [op_names[i % n_ops] for i in range(n_requests)]
                        if mode == "uniform"
                        else [op_names[0]] * n_requests
                    )
                    latencies: list[float] = []
                    t0 = time.perf_counter()
                    futures = []
                    for target, b in zip(targets, sources):
                        start = time.perf_counter()
                        fut = router.submit(target, b)
                        fut.add_done_callback(
                            lambda _f, s=start: latencies.append(
                                time.perf_counter() - s
                            )
                        )
                        futures.append(fut)
                    results = [f.result() for f in futures]
                    wall = time.perf_counter() - t0

                    shard_stats = router.shard_stats()
                    busy = [s["device_busy_s"] for s in shard_stats]
                    makespan = max(busy) if busy else 0.0
                    row = {
                        "skew": mode,
                        "shards": int(shards),
                        "fleet": sub.name,
                        "device_mix": sub.device_mix(),
                        "wall_s": wall,
                        "wall_rps": n_requests / wall,
                        "sim_makespan_s": makespan,
                        "agg_rps": (n_requests / makespan) if makespan > 0 else 0.0,
                        "p50_s": percentile(latencies, 50),
                        "p95_s": percentile(latencies, 95),
                        "all_converged": bool(all(r.converged for r in results)),
                        "timeouts": sum(
                            s["submitted"] - s["completed"] for s in shard_stats
                        ),
                        "spilled": router.stats["spilled"],
                        "replications": router.stats["replications"],
                        "shed": router.stats["shed"],
                        "replica_counts": {
                            name: len(router.replicas(name)) for name in op_names
                        },
                        "shards_detail": shard_stats,
                    }
                    if router.slo_monitor is not None:
                        statuses = router.slo_monitor.evaluate()
                        row["slo"] = [s.to_dict() for s in statuses]
                        row["slo_compliant"] = all(s.compliant for s in statuses)
                rows.append(row)
                if verbose:
                    print(
                        f"[fleet-bench] {mode:>7}  shards={shards:2d}  "
                        f"agg {row['agg_rps']:8.2f} req/s  "
                        f"wall {row['wall_rps']:6.2f} req/s  "
                        f"repl {row['replications']}  spill {row['spilled']}"
                    )

    def _series(mode: str) -> dict[str, float]:
        return {
            str(r["shards"]): r["agg_rps"] for r in rows if r["skew"] == mode
        }

    scaling = {}
    for mode in skews:
        series = _series(mode)
        values = [series[str(s)] for s in shard_counts]
        scaling[mode] = {
            "agg_rps_by_shards": series,
            "monotonic": all(b > a for a, b in zip(values, values[1:])),
            "speedup_max_vs_1": (
                values[-1] / values[0] if values and values[0] > 0 else 0.0
            ),
        }
    doc = {
        "schema": BENCH_SCHEMA,
        "dataset": dataset.label,
        "dims": list(dataset.dims),
        "fleet": fleet.to_dict(),
        "device_mix": fleet.device_mix(),
        "n_ops": int(n_ops),
        "n_requests": int(n_requests),
        "shard_counts": list(shard_counts),
        "skews": list(skews),
        "spill_threshold": int(spill_threshold),
        "setup_s": setup_s,
        "setup_cache": dict(source.stats),
        "speed_factors": {k: float(v) for k, v in factors.items()},
        "rows": rows,
        "scaling": scaling,
        "placement": placement_doc,
        "class_throughput": {
            cls: choice.solves_per_hour
            for cls, choice in class_throughput(fleet, loads[0]).items()
        },
    }
    if len(skews) == 2:
        hot = _series("hot")
        uni = _series("uniform")
        doc["hot_over_uniform"] = {
            s: (hot[s] / uni[s]) if uni[s] > 0 else 0.0 for s in uni
        }
    if metrics_out is not None:
        doc["metrics_out"] = str(metrics_out)
    return doc


def render_fleet_table(doc: dict) -> str:
    """Plain-text summary of one :func:`run_fleet_bench` document."""
    mix = ", ".join(f"{k}x{v}" for k, v in sorted(doc["device_mix"].items()))
    lines = [
        f"fleet-bench {doc['dataset']} — {doc['n_requests']} requests, "
        f"{doc['n_ops']} ensembles, fleet [{mix}]",
        f"{'skew':>8} {'shards':>6} {'agg req/s':>10} {'wall req/s':>10} "
        f"{'p50 ms':>8} {'p95 ms':>8} {'repl':>5} {'spill':>6} {'ok':>3}",
    ]
    for row in doc["rows"]:
        ok = "y" if row["all_converged"] and not row["timeouts"] else "N"
        lines.append(
            f"{row['skew']:>8} {row['shards']:>6} {row['agg_rps']:>10.2f} "
            f"{row['wall_rps']:>10.2f} {row['p50_s'] * 1e3:>8.1f} "
            f"{row['p95_s'] * 1e3:>8.1f} {row['replications']:>5} "
            f"{row['spilled']:>6} {ok:>3}"
        )
    for mode, s in doc["scaling"].items():
        verdict = "monotonic" if s["monotonic"] else "NOT monotonic"
        lines.append(
            f"scaling[{mode}]: {verdict}, "
            f"{s['speedup_max_vs_1']:.2f}x at max shards"
        )
    if "hot_over_uniform" in doc:
        worst = min(doc["hot_over_uniform"].values())
        lines.append(
            f"hot-key survival: hot/uniform throughput >= {worst:.2f} "
            f"(affinity spill replication)"
        )
    cache = doc["setup_cache"]
    lines.append(
        f"hierarchy store: {cache['misses']} setups built once "
        f"({doc['setup_s']:.1f}s), {cache['hits']} adoptions served"
    )
    return "\n".join(lines)
