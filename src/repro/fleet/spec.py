"""Fleet specification: named node types over the device catalog.

A *fleet* is the serving tier's view of a heterogeneous cluster: a set
of named nodes, each binding a :class:`~repro.gpu.device.DeviceSpec`
from :data:`repro.gpu.device.DEVICES` plus the bandwidth/latency of the
link that connects it to the router tier (priced with the same
alpha-beta :class:`~repro.machine.network.NetworkSpec` model the
strong-scaling replays use).  The shape follows Helix's heterogeneous
cluster generator — a percentage mix of A100/T4/L4-class nodes with
statistically drawn link parameters — adapted to this repo's device
and network models.

Because this environment has no GPUs, a node's *speed factor* is an
analytic quantity: the ratio of its roofline-attainable GFLOPS to the
paper's K20X baseline at the arithmetic intensity of multigrid work
(~1 flop/byte, squarely memory-bound — Figure 2's regime).  The shard
and bench layers use it to convert measured CPU solve seconds into
simulated device seconds, which is what makes an A100 shard worth more
than a T4 shard to the router and the placement pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..gpu.device import DEVICES, K20X, DeviceSpec
from ..machine.network import NetworkSpec
from ..perf.roofline import Roofline
from ..telemetry.export import write_document

#: arithmetic intensity (flops/byte) representative of MG solve work;
#: both Wilson-clover and coarse stencils sit near 1 on the
#: memory-bound side of every catalog device's ridge.
MG_INTENSITY = 1.0


def speed_factor(device: DeviceSpec, reference: DeviceSpec = K20X) -> float:
    """Relative MG solve speed of ``device`` versus ``reference``.

    Ratio of roofline-attainable GFLOPS at :data:`MG_INTENSITY` — for
    memory-bound MG this is effectively the STREAM bandwidth ratio,
    which is the honest first-order model of how much faster one
    device runs the same solve.
    """
    ours = Roofline.from_device(device).attainable_gflops(MG_INTENSITY)
    base = Roofline.from_device(reference).attainable_gflops(MG_INTENSITY)
    return ours / base


@dataclass(frozen=True)
class FleetNode:
    """One serving node: a device plus its link to the router tier."""

    id: str
    device_name: str  # key into repro.gpu.device.DEVICES
    link_bandwidth_gbs: float = 1.0
    link_latency_us: float = 1000.0

    def __post_init__(self):
        if self.device_name not in DEVICES:
            raise KeyError(
                f"unknown device {self.device_name!r} for node {self.id!r}; "
                f"catalog: {sorted(DEVICES)}"
            )

    @property
    def device(self) -> DeviceSpec:
        return DEVICES[self.device_name]

    @property
    def speed_factor(self) -> float:
        return speed_factor(self.device)

    def link(self) -> NetworkSpec:
        """The node's ingress link as an alpha-beta network."""
        return NetworkSpec(
            name=f"link:{self.id}",
            latency_us=self.link_latency_us,
            bandwidth_gbs=self.link_bandwidth_gbs,
            allreduce_alpha_us=self.link_latency_us,
            allreduce_beta_us=2 * self.link_latency_us,
        )

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "device": self.device_name,
            "link_bandwidth_gbs": self.link_bandwidth_gbs,
            "link_latency_us": self.link_latency_us,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FleetNode":
        return cls(
            id=str(d["id"]),
            device_name=str(d["device"]),
            link_bandwidth_gbs=float(d.get("link_bandwidth_gbs", 1.0)),
            link_latency_us=float(d.get("link_latency_us", 1000.0)),
        )


@dataclass(frozen=True)
class FleetSpec:
    """A named, ordered collection of serving nodes."""

    name: str
    nodes: tuple[FleetNode, ...] = field(default_factory=tuple)

    def __post_init__(self):
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate node ids in fleet {self.name!r}")

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: str) -> FleetNode:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(f"no node {node_id!r} in fleet {self.name!r}")

    def by_speed(self) -> list[FleetNode]:
        """Nodes fastest-first (stable on id for equal devices)."""
        return sorted(self.nodes, key=lambda n: (-n.speed_factor, n.id))

    def subset(self, count: int, fastest_first: bool = True) -> "FleetSpec":
        """The first ``count`` nodes, by default fastest-first.

        This is how the bench scales one generated fleet down to its
        1/2/4/8-shard configurations without regenerating topology.
        """
        if not 1 <= count <= len(self.nodes):
            raise ValueError(
                f"fleet {self.name!r} has {len(self.nodes)} nodes; "
                f"cannot take {count}"
            )
        pool = self.by_speed() if fastest_first else list(self.nodes)
        return FleetSpec(
            name=f"{self.name}[{count}]", nodes=tuple(pool[:count])
        )

    def device_mix(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for n in self.nodes:
            out[n.device_name] = out.get(n.device_name, 0) + 1
        return out

    def total_speed(self) -> float:
        return sum(n.speed_factor for n in self.nodes)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "nodes": [n.to_dict() for n in self.nodes],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FleetSpec":
        return cls(
            name=str(d.get("name", "fleet")),
            nodes=tuple(FleetNode.from_dict(n) for n in d.get("nodes", ())),
        )

    @classmethod
    def load(cls, path) -> "FleetSpec":
        # a fleet spec is configuration, not a schema-tagged document
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path) -> None:
        write_document(path, self.to_dict())


class FakeFleetGenerator:
    """Generate synthetic heterogeneous fleets, Helix-style.

    Mirrors the shape of Helix's ``FakeClusterGenerator``: node
    statistics are a count plus a device-type percentage mix, link
    statistics are mean/spread of bandwidth and latency; ``generate``
    draws a concrete :class:`FleetSpec` from a seed, deterministically.
    """

    def __init__(self):
        self._num_nodes = 4
        self._mix: dict[str, float] = {"A100": 1, "T4": 2, "L4": 1}
        self._avg_bandwidth_gbs = 1.0
        self._var_bandwidth_gbs = 0.0
        self._avg_latency_us = 1000.0
        self._var_latency_us = 0.0

    def set_node_statistics(
        self, num_nodes: int, node_type_percentage: dict[str, float]
    ) -> "FakeFleetGenerator":
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        if not node_type_percentage:
            raise ValueError("node_type_percentage must be non-empty")
        for name in node_type_percentage:
            if name not in DEVICES:
                raise KeyError(
                    f"unknown device {name!r}; catalog: {sorted(DEVICES)}"
                )
        self._num_nodes = int(num_nodes)
        self._mix = dict(node_type_percentage)
        return self

    def set_link_statistics(
        self,
        avg_bandwidth_gbs: float,
        avg_latency_us: float,
        var_bandwidth_gbs: float = 0.0,
        var_latency_us: float = 0.0,
    ) -> "FakeFleetGenerator":
        self._avg_bandwidth_gbs = float(avg_bandwidth_gbs)
        self._var_bandwidth_gbs = float(var_bandwidth_gbs)
        self._avg_latency_us = float(avg_latency_us)
        self._var_latency_us = float(var_latency_us)
        return self

    def generate(self, name: str = "fake-fleet", seed: int = 0) -> FleetSpec:
        """Draw a concrete fleet; same seed, same fleet."""
        rng = np.random.default_rng(seed)
        types = sorted(self._mix)
        weights = np.asarray([self._mix[t] for t in types], dtype=float)
        weights /= weights.sum()
        # largest-remainder apportionment keeps the mix faithful even
        # for small fleets (a pure multinomial draw can miss a class)
        counts = np.floor(weights * self._num_nodes).astype(int)
        remainder = self._num_nodes - int(counts.sum())
        if remainder > 0:
            frac = weights * self._num_nodes - counts
            for i in np.argsort(-frac)[:remainder]:
                counts[i] += 1
        nodes = []
        for dtype, count in zip(types, counts):
            for k in range(int(count)):
                bw = self._avg_bandwidth_gbs + self._var_bandwidth_gbs * float(
                    rng.standard_normal()
                )
                lat = self._avg_latency_us + self._var_latency_us * float(
                    rng.standard_normal()
                )
                nodes.append(
                    FleetNode(
                        id=f"{dtype.lower()}-{k}",
                        device_name=dtype,
                        link_bandwidth_gbs=max(bw, 0.01),
                        link_latency_us=max(lat, 1.0),
                    )
                )
        return FleetSpec(name=name, nodes=tuple(nodes))
