"""Cache-affinity request router with load-aware spill replication.

Placement by *operator fingerprint*: every registered operator has a
deterministic content hash (:func:`repro.serve.setup_cache_key`), and
rendezvous (highest-random-weight) hashing over (fingerprint, node id)
gives each operator a stable *home shard* — the shard whose setup
cache holds its multigrid hierarchy warm.  Requests for an operator
always prefer its home, so hierarchies are never rebuilt just because
a load balancer felt like moving traffic (the failure mode of naive
round-robin over stateful solvers).

Pure affinity dies under hot-key skew: if every client asks for the
same ensemble, one shard melts while the rest idle.  The router's
answer is *spill replication*: when the home shard's queue depth
crosses ``spill_threshold``, the operator's hierarchy is replicated to
the least-loaded node that does not yet carry it
(:meth:`FleetShard.adopt` — the setup ships, it is not recomputed),
and subsequent traffic splits across the replica set by
speed-normalized load.  Replication is one-way and sticky: once warm,
a replica keeps serving until shutdown.

The router is the fleet's trace ingress: a request that arrives
without an active :class:`~repro.telemetry.context.TraceContext` gets
one here, and the context is activated around the shard hop so the
node-local service (and every span, slog record and metric exemplar
below it) inherits the same ``trace_id``.  Router-level SLOs reuse
:mod:`repro.obs.slo` over per-request outcomes observed at the router.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..obs.slo import SLOMonitor
from ..serve.cache import SetupCache, setup_cache_key
from ..serve.counters import Counters
from ..serve.service import ServeConfig, ServiceOverloadedError
from ..telemetry.context import TraceContext, activate, current_trace
from ..telemetry.metrics import get_registry
from .shard import FleetShard
from .spec import FleetSpec


@dataclass
class RouterConfig:
    """Routing-policy knobs."""

    #: home-shard queue depth at which the router replicates the
    #: operator to another node and starts splitting traffic
    spill_threshold: int = 4
    #: replica-set bound per operator; 0 = up to the whole fleet
    max_replicas: int = 0
    #: per-shard service configuration (each node gets its own copy)
    serve: ServeConfig = field(default_factory=ServeConfig)
    #: router-level SLOs (repro.obs.slo.SLOSpec); empty disables
    slo_specs: tuple = ()

    def __post_init__(self):
        if self.spill_threshold < 1:
            raise ValueError(
                f"spill_threshold must be >= 1, got {self.spill_threshold}"
            )
        if self.max_replicas < 0:
            raise ValueError(
                f"max_replicas must be >= 0, got {self.max_replicas}"
            )


@dataclass
class _FleetEntry:
    """Router-side state of one registered operator."""

    op: object
    params: object
    fingerprint: str
    hierarchy: object  # kept for replication (adopt on spill)
    replicas: list[str]  # node ids, home first


def _rendezvous_score(fingerprint: str, node_id: str) -> int:
    h = hashlib.sha256(f"{fingerprint}:{node_id}".encode()).digest()
    return int.from_bytes(h[:8], "big")


class FleetRouter:
    """Route solve requests across a fleet of shards."""

    def __init__(
        self,
        fleet: FleetSpec,
        config: RouterConfig | None = None,
        hierarchy_source: SetupCache | None = None,
        speed_factors: dict[str, float] | None = None,
    ):
        if not fleet.nodes:
            raise ValueError(f"fleet {fleet.name!r} has no nodes")
        self.fleet = fleet
        self.config = config if config is not None else RouterConfig()
        #: optional shared store of prebuilt hierarchies (a "blob
        #: store"): registration adopts from here instead of running
        #: the adaptive setup on the home shard
        self.hierarchy_source = hierarchy_source
        factors = speed_factors if speed_factors is not None else {}
        self.shards: dict[str, FleetShard] = {
            node.id: FleetShard(
                node,
                ServeConfig(**vars(self.config.serve)),
                speed_factor=factors.get(node.id),
            )
            for node in fleet.nodes
        }
        self._entries: dict[str, _FleetEntry] = {}
        self._lock = threading.Lock()
        self.stats = Counters(
            ("routed", "routed_home", "spilled", "replications", "shed")
        )
        self.slo_monitor = (
            SLOMonitor(self.config.slo_specs) if self.config.slo_specs else None
        )

    # -- placement ------------------------------------------------------
    def affinity_order(self, fingerprint: str) -> list[str]:
        """Node ids by rendezvous weight for this fingerprint, best first.

        Consistent: adding or removing a node only moves the operators
        whose best node changed — every other operator keeps its home
        (and therefore its warm hierarchy).
        """
        return [
            node.id
            for node in sorted(
                self.fleet.nodes,
                key=lambda n: -_rendezvous_score(fingerprint, n.id),
            )
        ]

    def register(
        self,
        name: str,
        op,
        params,
        rng: np.random.Generator | None = None,
        home: str | None = None,
    ) -> str:
        """Place ``op`` on its home shard and make it routable.

        The home is the affinity winner unless the placement pass
        (:mod:`repro.fleet.placement`) supplies an explicit ``home``
        node id.  Returns the chosen home.  With a ``hierarchy_source``
        the setup is adopted from the shared store; otherwise the home
        shard builds it (through its own cache) and the router keeps a
        handle for later replication.
        """
        fingerprint = setup_cache_key(op, params)
        if home is None:
            home = self.affinity_order(fingerprint)[0]
        shard = self.shards[home]  # KeyError on unknown node id
        if self.hierarchy_source is not None:
            hierarchy = self.hierarchy_source.get_or_build(op, params, rng)
            shard.adopt(name, op, params, hierarchy)
        else:
            shard.register(name, op, params, rng=rng)
            hierarchy = shard.cache.get_or_build(op, params)  # memory hit
        with self._lock:
            self._entries[name] = _FleetEntry(
                op=op,
                params=params,
                fingerprint=fingerprint,
                hierarchy=hierarchy,
                replicas=[home],
            )
        registry = get_registry()
        if registry.enabled:
            registry.counter("fleet.registered", shard=home, op=name).inc()
        return home

    def operators(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def replicas(self, name: str) -> list[str]:
        """Current replica set (home first) of one operator."""
        with self._lock:
            return list(self._entries[name].replicas)

    # -- routing --------------------------------------------------------
    def _maybe_replicate(self, name: str, entry: _FleetEntry) -> None:
        """Spill ``name`` to the least-loaded node outside its replicas."""
        with self._lock:
            limit = self.config.max_replicas or len(self.fleet.nodes)
            if len(entry.replicas) >= limit:
                return
            candidates = [
                s for nid, s in self.shards.items() if nid not in entry.replicas
            ]
            if not candidates:
                return
            target = min(
                candidates, key=lambda s: (s.effective_load(), s.node.id)
            )
            # claim the slot inside the lock; adopt outside it
            entry.replicas.append(target.node.id)
        target.adopt(name, entry.op, entry.params, entry.hierarchy)
        self.stats.bump("replications")
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "fleet.replications", shard=target.node.id, op=name
            ).inc()

    def _pick_shard(self, name: str, entry: _FleetEntry) -> FleetShard:
        """Affinity with load-aware spill.

        The home shard wins while its queue is below the spill
        threshold (cache affinity beats marginal load differences);
        past it, the router replicates if it can and routes to the
        least speed-normalized-loaded replica.
        """
        home = self.shards[entry.replicas[0]]
        if home.queue_depth() < self.config.spill_threshold:
            return home
        self._maybe_replicate(name, entry)
        with self._lock:
            replicas = [self.shards[nid] for nid in entry.replicas]
        return min(replicas, key=lambda s: (s.effective_load(), s.node.id))

    def submit(self, name: str, rhs, tol=None, timeout_s=None):
        """Route one right-hand side; returns the shard future.

        Raises :class:`~repro.serve.ServiceOverloadedError` (with the
        machine-readable payload of the *least* overloaded replica)
        only when every replica sheds the request.
        """
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise KeyError(
                f"unknown operator {name!r}; registered: {self.operators()}"
            )
        ctx = current_trace() or TraceContext(attrs={"op": name})
        shard = self._pick_shard(name, entry)
        t0 = time.perf_counter()
        with self._lock:
            ordered = [self.shards[nid] for nid in entry.replicas]
        # try the chosen shard first, then the rest by load
        ordered.sort(key=lambda s: (s is not shard, s.effective_load()))
        last_overload: ServiceOverloadedError | None = None
        for candidate in ordered:
            try:
                with activate(ctx):
                    fut = candidate.submit(
                        name, rhs, tol=tol, timeout_s=timeout_s
                    )
            except ServiceOverloadedError as exc:
                if (
                    last_overload is None
                    or exc.retry_after_s < last_overload.retry_after_s
                ):
                    last_overload = exc
                continue
            self._book_routed(name, candidate, entry)
            self._watch(fut, t0, name, candidate)
            return fut
        self.stats.bump("shed")
        registry = get_registry()
        if registry.enabled:
            registry.counter("fleet.shed", op=name).inc()
        assert last_overload is not None
        raise ServiceOverloadedError(
            f"all {len(ordered)} replica(s) of {name!r} overloaded; "
            f"retry after {last_overload.retry_after_s:.3f}s",
            queue_depth=last_overload.queue_depth,
            capacity=last_overload.capacity,
            retry_after_s=last_overload.retry_after_s,
        )

    def solve(self, name: str, rhs, tol=None, timeout_s=None):
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(name, rhs, tol=tol, timeout_s=timeout_s).result()

    def _book_routed(self, name: str, shard: FleetShard, entry) -> None:
        home = entry.replicas[0]
        spilled = shard.node.id != home
        self.stats.bump("spilled" if spilled else "routed_home")
        self.stats.bump("routed")
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "fleet.routed",
                shard=shard.node.id,
                op=name,
                affinity="spill" if spilled else "home",
            ).inc()

    def _watch(self, fut, t0: float, name: str, shard: FleetShard) -> None:
        """Stamp fleet attribution and feed the router SLO monitor."""

        def _done(f):
            latency = time.perf_counter() - t0
            exc = f.exception()
            if exc is None:
                res = f.result()
                res.telemetry.attrs["fleet"] = {
                    "shard": shard.node.id,
                    "device": shard.node.device_name,
                }
                if self.slo_monitor is not None:
                    self.slo_monitor.record(
                        latency, converged=bool(res.converged)
                    )
            elif self.slo_monitor is not None:
                self.slo_monitor.record(
                    latency,
                    error=True,
                    timed_out=isinstance(exc, TimeoutError),
                )

        fut.add_done_callback(_done)

    # -- introspection --------------------------------------------------
    def shard_stats(self) -> list[dict]:
        return [
            self.shards[node.id].stats() for node in self.fleet.nodes
        ]

    def to_dict(self) -> dict:
        with self._lock:
            replicas = {
                name: list(e.replicas) for name, e in self._entries.items()
            }
        return {
            "fleet": self.fleet.to_dict(),
            "spill_threshold": self.config.spill_threshold,
            "replicas": replicas,
            "stats": self.stats.snapshot(),
            "shards": self.shard_stats(),
        }

    # -- lifecycle ------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        for shard in self.shards.values():
            shard.close(drain=drain)
        if self.slo_monitor is not None:
            self.slo_monitor.evaluate()

    def __enter__(self) -> "FleetRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
