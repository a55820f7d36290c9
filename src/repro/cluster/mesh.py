"""Device meshes and logical views.

A :class:`DeviceMesh` is a homogeneous ``nodes × gpus_per_node`` slice of
the cluster (Table II).  Intra-stage parallelism sees it through a
:class:`LogicalMesh` — a 2-D ``(dp, mp)`` arrangement of the same devices
(Table III) whose axes carry the physical link class they stride across.
Following the paper we only consider homogeneous meshes.

With topology-aware pricing enabled (``REPRO_TOPO=on``), each logical
axis additionally carries a :class:`~.network.LinkPath` describing the
per-hop route its collectives traverse — NVLink inside a node, the PCIe
host bridge out to the NIC, and the cluster fabric between nodes, with
the NIC segment divided among the parallel rings that share it.  The
collectives then price against the bottleneck segment instead of one
flat α-β link, so multi-node platforms produce genuinely different
plans.  With the gate off (the default) the paths are absent and every
cost is bit-identical to the flat model.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .gpu import GPUSpec
from .network import PCIE4, LinkHop, LinkPath, LinkSpec


def topology_enabled() -> bool:
    """True when ``REPRO_TOPO`` opts into topology-aware pricing."""
    return os.environ.get("REPRO_TOPO", "off").lower() in ("on", "1", "true")


@dataclass(frozen=True)
class DeviceMesh:
    """A physical mesh: ``n_nodes`` hosts with ``gpus_per_node`` GPUs each."""

    n_nodes: int
    gpus_per_node: int
    gpu: GPUSpec
    intra_link: LinkSpec
    inter_link: LinkSpec
    #: host bridge between a GPU and the NIC (traversed by every
    #: cross-node hop under topology-aware pricing)
    host_link: LinkSpec = PCIE4

    def __post_init__(self) -> None:
        if self.n_nodes < 1 or self.gpus_per_node < 1:
            raise ValueError("mesh must contain at least one device")

    @property
    def num_devices(self) -> int:
        return self.n_nodes * self.gpus_per_node

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_nodes, self.gpus_per_node)

    def key(self) -> str:
        """Stable identifier used to key per-mesh predictors and noise."""
        base = (f"{self.n_nodes}x{self.gpus_per_node}-{self.gpu.name}"
                f"-{self.intra_link.name}-{self.inter_link.name}")
        if self.host_link != PCIE4:  # non-default host bridge
            base += f"-host:{self.host_link.name}"
        return base

    # ---------------------------------------------------------- logical views
    def _axis_members_per_node(self, size: int, inner: int) -> int:
        """Group members co-located on one node, for an axis of ``size``
        devices striding ``inner`` (the product of faster axes).

        Axes are packed fastest-first: the MP axis strides 1, the DP axis
        strides ``mp``.  An axis whose stride already exceeds the node
        width places one member per node.
        """
        if inner >= self.gpus_per_node:
            return 1
        return max(1, min(size, self.gpus_per_node // inner))

    def _axis_path(self, size: int, inner: int,
                   within_node: bool) -> LinkPath:
        """Per-hop route of one logical axis (topology-aware pricing)."""
        if within_node or size <= 1:
            return LinkPath(self.intra_link.name,
                            (LinkHop(self.intra_link),))
        members = self._axis_members_per_node(size, inner)
        hops = []
        if members > 1:  # intra-node legs of the ring ride NVLink/PCIe
            hops.append(LinkHop(self.intra_link))
        hops.append(LinkHop(self.host_link))
        # every parallel ring of this axis with members on a node funnels
        # through that node's single NIC; divide its bandwidth among them
        sharing = max(1, self.gpus_per_node // members)
        hops.append(LinkHop(self.inter_link, sharing))
        return LinkPath(f"x-node[{size}]", tuple(hops))

    def logical(self, dp: int, mp: int) -> "LogicalMesh":
        """View the mesh as a ``(dp, mp)`` logical arrangement.

        The MP axis is packed onto the fastest links first (devices within
        a node), matching how Alpa maps tensor parallelism; the DP axis
        takes whatever stride remains.  An axis is classified by the
        strides of its groups, not by a device-count comparison: the MP
        axis stays inside a node only when ``mp`` devices fit *and*
        divide the node width (a non-dividing group straddles a node
        boundary and must be priced on the slower fabric); the DP axis —
        packed after MP, i.e. striding ``mp`` — stays inside only when a
        whole ``dp × mp`` tile fits and divides the node.  The seed
        expression ``(mp * dp) <= gpus_per_node`` happened to agree on
        power-of-two meshes only because ``dp·mp == num_devices``; stated
        as stride logic it also classifies dp groups that stride whole
        nodes (the ``mp == gpus_per_node`` multi-node case) and
        non-dividing factorizations correctly.
        """
        if dp * mp != self.num_devices:
            raise ValueError(
                f"logical shape {dp}x{mp} != {self.num_devices} devices")
        gpn = self.gpus_per_node
        mp_within = mp <= gpn and gpn % mp == 0
        dp_within = mp_within and dp * mp <= gpn and gpn % (dp * mp) == 0
        mp_link = self.intra_link if mp_within else self.inter_link
        dp_link = self.intra_link if dp_within else self.inter_link
        dp_path = mp_path = None
        if topology_enabled():
            mp_path = self._axis_path(mp, 1, mp_within)
            dp_path = self._axis_path(dp, mp, dp_within)
        return LogicalMesh(self, dp, mp, dp_link, mp_link, dp_path, mp_path)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"Mesh({self.n_nodes}x{self.gpus_per_node} {self.gpu.name})"


@dataclass(frozen=True)
class LogicalMesh:
    """A 2-D logical arrangement ``(dp, mp)`` of a physical mesh's devices."""

    mesh: DeviceMesh
    dp: int
    mp: int
    dp_link: LinkSpec
    mp_link: LinkSpec
    #: per-hop routes (only set under ``REPRO_TOPO=on``); when present,
    #: :meth:`axis_link` returns the path and collectives price against
    #: its bottleneck segment
    dp_path: LinkPath | None = None
    mp_path: LinkPath | None = None

    @property
    def num_devices(self) -> int:
        return self.dp * self.mp

    @property
    def gpu(self) -> GPUSpec:
        return self.mesh.gpu

    @property
    def topo_aware(self) -> bool:
        """True when this view carries per-hop link paths."""
        return self.dp_path is not None or self.mp_path is not None

    def axis_size(self, axis: str) -> int:
        return self.dp if axis == "dp" else self.mp

    def axis_link(self, axis: str) -> LinkSpec | LinkPath:
        """The pricing surface of one axis: its flat link, or — under
        topology-aware search — its multi-hop path."""
        if axis == "dp":
            return self.dp_path if self.dp_path is not None else self.dp_link
        return self.mp_path if self.mp_path is not None else self.mp_link

    def axis_path(self, axis: str) -> LinkPath | None:
        return self.dp_path if axis == "dp" else self.mp_path

    def key(self) -> str:
        base = f"{self.mesh.key()}-dp{self.dp}mp{self.mp}"
        return base + "-topo" if self.topo_aware else base

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"LogicalMesh(dp={self.dp}, mp={self.mp} on {self.mesh})"


def enumerate_submeshes(cluster: DeviceMesh) -> list[DeviceMesh]:
    """All homogeneous submeshes Alpa's inter-op pass may assign to a stage.

    Following Alpa, a submesh either occupies a fraction ``2^-k`` of one
    node's GPUs or a whole number of nodes.  Results are sorted by device
    count so DP tables index them deterministically.
    """
    subs: list[DeviceMesh] = []
    g = 1
    while g <= cluster.gpus_per_node:
        subs.append(DeviceMesh(1, g, cluster.gpu, cluster.intra_link,
                               cluster.inter_link, cluster.host_link))
        g *= 2
    n = 2
    while n <= cluster.n_nodes:
        subs.append(DeviceMesh(n, cluster.gpus_per_node, cluster.gpu,
                               cluster.intra_link, cluster.inter_link,
                               cluster.host_link))
        n *= 2
    return sorted(subs, key=lambda m: (m.num_devices, m.n_nodes))


def logical_views(mesh: DeviceMesh) -> list[LogicalMesh]:
    """All power-of-two ``(dp, mp)`` factorizations of a mesh (Table III)."""
    views = []
    d = 1
    while d <= mesh.num_devices:
        if mesh.num_devices % d == 0:
            views.append(mesh.logical(mesh.num_devices // d, d))
        d *= 2
    return views
