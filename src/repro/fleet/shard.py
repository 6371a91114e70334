"""One fleet shard: a node-local solve service with a device model.

Each :class:`FleetShard` owns a full :class:`~repro.serve.SolveService`
(its own worker threads and :class:`~repro.serve.SetupCache`)
standing in for one node of the fleet.  Because every shard actually
runs on the same CPU, the node's *device* enters as a simulated speed
factor derived from its roofline (:func:`repro.fleet.spec.speed_factor`):
measured solve seconds divided by the factor give the node's simulated
device-busy seconds, which is what the router's load balancing, the
placement pass and the fleet bench account in.

Replication: :meth:`adopt` installs an operator whose hierarchy was
already built elsewhere — the donor shard's setup is seeded straight
into this shard's cache (production would ship the null vectors over
the node link), so spilling a hot operator costs a solver rebuild, not
a new adaptive setup.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np

from ..serve.cache import SetupCache
from ..serve.service import ServeConfig, SolveService
from ..telemetry.metrics import get_registry
from .spec import FleetNode


class FleetShard:
    """A :class:`SolveService` bound to one :class:`FleetNode`."""

    def __init__(
        self,
        node: FleetNode,
        config: ServeConfig | None = None,
        cache: SetupCache | None = None,
        speed_factor: float | None = None,
    ):
        self.node = node
        config = config if config is not None else ServeConfig()
        if config.label is None:
            # shared fleet configs are copied, not mutated: each shard's
            # serve.batch spans must carry its own node id so stitched
            # Perfetto timelines get one track per shard
            config = dataclasses.replace(config, label=node.id)
        self.config = config
        self.cache = cache if cache is not None else SetupCache()
        self.service = SolveService(self.config, cache=self.cache)
        # default: raw roofline ratio; callers that know the workload
        # pass the workload-aware model factor instead
        # (repro.fleet.placement.model_speed_factor)
        self.speed_factor = (
            speed_factor if speed_factor is not None else node.speed_factor
        )
        self._lock = threading.Lock()
        #: requests routed here, per operator name
        self.routed: dict[str, int] = {}

    # -- registration ---------------------------------------------------
    def register(self, name, op, params, rng=None) -> None:
        self.service.register(name, op, params, rng=rng)

    def adopt(self, name, op, params, hierarchy) -> None:
        """Install ``op`` from an already-built hierarchy (replication)."""
        self.cache.seed(op, params, hierarchy)
        # register now hits the seeded cache entry: no null-vector work
        self.service.register(name, op, params)

    def operators(self) -> list[str]:
        return self.service.operators()

    # -- submission -----------------------------------------------------
    def submit(self, op_name, rhs, tol=None, timeout_s=None):
        """Forward to the node-local service, booking routing stats.

        The caller (router) activates the request's trace context
        before calling, so the service's ingress inherits the fleet
        trace id.
        """
        fut = self.service.submit(op_name, rhs, tol=tol, timeout_s=timeout_s)
        with self._lock:
            self.routed[op_name] = self.routed.get(op_name, 0) + 1
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "fleet.shard.requests", shard=self.node.id, op=op_name
            ).inc()
            registry.gauge(
                "fleet.shard.queue_depth", shard=self.node.id
            ).set(self.service.queue_depth())
        return fut

    # -- load signals ---------------------------------------------------
    def queue_depth(self) -> int:
        return self.service.queue_depth()

    def load(self) -> int:
        """Queued + in-flight systems on this shard."""
        return self.service.load()

    def effective_load(self) -> float:
        """Load normalized by device speed — slow nodes look fuller."""
        return self.service.load() / self.speed_factor

    def device_busy_s(self) -> float:
        """Simulated device-seconds this node has spent solving.

        Measured *thread-CPU* solve seconds (immune to cross-shard
        contention when many shards share the host's cores) scaled by
        the node's roofline speed factor: the same work costs an A100
        shard an eighth of what it costs the K20X baseline.
        """
        return self.service.stats["solve_cpu_s_total"] / self.speed_factor

    def stats(self) -> dict:
        svc = self.service.stats
        return {
            "shard": self.node.id,
            "device": self.node.device_name,
            "speed_factor": self.speed_factor,
            "routed": dict(self.routed),
            "submitted": svc["submitted"],
            "completed": svc["completed"],
            "rejected": svc["rejected"],
            "solve_s_total": svc["solve_s_total"],
            "solve_cpu_s_total": svc["solve_cpu_s_total"],
            "device_busy_s": self.device_busy_s(),
            "setup_cache": dict(self.cache.stats),
        }

    # -- lifecycle ------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        self.service.close(drain=drain)

    def __enter__(self) -> "FleetShard":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"FleetShard({self.node.id}, device={self.node.device_name}, "
            f"speed={self.speed_factor:.2f}x)"
        )
