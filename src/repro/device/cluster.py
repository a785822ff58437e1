"""Multi-device clusters: replica groups and their interconnect.

The paper's experiments are single-accelerator, but the regimes its related
work targets — ZeRO-Offload's data-parallel optimizer partitioning, TBD's
multi-GPU training profiles — need a simulator that models *N replicas plus
an interconnect*.  This module introduces that layer:

* :class:`InterconnectSpec` describes the device↔device link (per-link
  bandwidth plus a fixed per-message latency), with presets spanning the
  PCIe and NVLink classes (:data:`INTERCONNECT_PRESETS`);
* :class:`ClusterSpec` combines a per-device :class:`~repro.device.spec.DeviceSpec`
  with a replica count, an interconnect and an allreduce algorithm, and
  exposes the collective cost model (:meth:`ClusterSpec.allreduce_time_ns`);
* :class:`DeviceGroup` instantiates one replica
  :class:`~repro.device.device.Device` per replica *class* — the ranks the
  simulator cannot tell apart (same shard shape) — each with its own clock
  and recorder — and wires them to one shared
  :class:`~repro.device.collective.CollectiveEngine` that still costs
  collectives for all N replicas; its allreduce is the group's only barrier.

``DeviceGroup`` with ``n_devices=1`` degenerates exactly to a single
:class:`~repro.device.device.Device`: the collective engine costs nothing and
records nothing, so single-device traces are byte-identical to the
pre-cluster code path.

Allreduce cost models
---------------------
Both models express one allreduce of ``S`` bytes over ``N`` devices with
per-link bandwidth ``B`` and per-message latency ``L``:

* ``ring`` (bandwidth-optimal): ``2·(N−1)`` pipeline steps each moving a
  ``S/N`` chunk → ``2·(N−1)·(L + S/(N·B))``;
* ``naive`` (gather-then-broadcast through one root, fully serialized):
  ``2·(N−1)`` transfers of the full buffer → ``2·(N−1)·(L + S/B)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .device import Device
from .spec import DeviceSpec, titan_x_pascal


@dataclass(frozen=True)
class InterconnectSpec:
    """Static description of the device↔device link of a cluster.

    Attributes
    ----------
    name:
        Preset name (e.g. ``"pcie_gen3"``).
    bandwidth:
        Per-link, per-direction bandwidth in bytes/s.
    latency_ns:
        Fixed per-message latency (link traversal + collective launch).
    """

    name: str
    bandwidth: float
    latency_ns: int

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ConfigurationError("interconnect bandwidth must be positive")
        if self.latency_ns < 0:
            raise ConfigurationError("interconnect latency must be non-negative")

    def to_dict(self) -> Dict[str, object]:
        """Serialize the interconnect for trace metadata."""
        return {"name": self.name, "bandwidth": self.bandwidth,
                "latency_ns": self.latency_ns}


def pcie_gen3() -> InterconnectSpec:
    """PCIe 3.0 x16 peer traffic: ~12 GB/s effective, ~10 us per message."""
    return InterconnectSpec(name="pcie_gen3", bandwidth=12e9, latency_ns=10_000)


def pcie_gen4() -> InterconnectSpec:
    """PCIe 4.0 x16 peer traffic: ~24 GB/s effective."""
    return InterconnectSpec(name="pcie_gen4", bandwidth=24e9, latency_ns=10_000)


def nvlink2() -> InterconnectSpec:
    """NVLink 2 (V100-class): ~120 GB/s per direction, low launch latency."""
    return InterconnectSpec(name="nvlink2", bandwidth=120e9, latency_ns=5_000)


def ethernet_25g() -> InterconnectSpec:
    """25 GbE between nodes: ~3 GB/s and tens of microseconds of latency."""
    return InterconnectSpec(name="ethernet_25g", bandwidth=3e9, latency_ns=50_000)


#: Registry of named interconnect presets, usable from sweep configurations.
INTERCONNECT_PRESETS: Dict[str, Callable[[], InterconnectSpec]] = {
    "pcie_gen3": pcie_gen3,
    "pcie_gen4": pcie_gen4,
    "nvlink2": nvlink2,
    "ethernet_25g": ethernet_25g,
}


def get_interconnect(name: str) -> InterconnectSpec:
    """Look up an interconnect preset by name (KeyError lists known presets)."""
    try:
        factory = INTERCONNECT_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(INTERCONNECT_PRESETS))
        raise KeyError(
            f"unknown interconnect preset '{name}'; known presets: {known}") from None
    return factory()


# -- allreduce cost models ------------------------------------------------------------


def ring_allreduce_time_ns(nbytes: int, n_devices: int, bandwidth: float,
                           latency_ns: int) -> int:
    """Ring allreduce: ``2·(N−1)`` steps, each moving an ``S/N`` chunk per link."""
    if n_devices <= 1 or nbytes <= 0:
        return 0
    steps = 2 * (n_devices - 1)
    chunk_ns = 1e9 * (nbytes / n_devices) / bandwidth
    return int(round(steps * (latency_ns + chunk_ns)))


def naive_allreduce_time_ns(nbytes: int, n_devices: int, bandwidth: float,
                            latency_ns: int) -> int:
    """Naive allreduce: serialized gather-to-root then broadcast of the full buffer."""
    if n_devices <= 1 or nbytes <= 0:
        return 0
    steps = 2 * (n_devices - 1)
    full_ns = 1e9 * nbytes / bandwidth
    return int(round(steps * (latency_ns + full_ns)))


#: Registered allreduce algorithms (sweepable by name).
ALLREDUCE_ALGORITHMS: Dict[str, Callable[[int, int, float, int], int]] = {
    "ring": ring_allreduce_time_ns,
    "naive": naive_allreduce_time_ns,
}


@dataclass(frozen=True)
class ClusterSpec:
    """N identical replica devices sharing one interconnect.

    Attributes
    ----------
    device:
        Hardware description shared by every replica.
    n_devices:
        Number of data-parallel replicas (1 degenerates to a single device).
    interconnect:
        The device↔device link used by collectives.
    allreduce_algorithm:
        Name of the collective cost model (``"ring"`` or ``"naive"``).
    """

    device: DeviceSpec
    n_devices: int = 1
    interconnect: InterconnectSpec = None  # type: ignore[assignment]
    allreduce_algorithm: str = "ring"

    def __post_init__(self) -> None:
        if self.n_devices < 1:
            raise ConfigurationError(
                f"n_devices must be at least 1, got {self.n_devices}")
        if self.interconnect is None:
            object.__setattr__(self, "interconnect", pcie_gen3())
        if self.allreduce_algorithm not in ALLREDUCE_ALGORITHMS:
            known = ", ".join(sorted(ALLREDUCE_ALGORITHMS))
            raise ConfigurationError(
                f"unknown allreduce algorithm '{self.allreduce_algorithm}'; "
                f"known algorithms: {known}")

    def allreduce_time_ns(self, nbytes: int) -> int:
        """Simulated duration of one allreduce of ``nbytes`` across the cluster."""
        model = ALLREDUCE_ALGORITHMS[self.allreduce_algorithm]
        return model(int(nbytes), self.n_devices, self.interconnect.bandwidth,
                     self.interconnect.latency_ns)

    def to_dict(self) -> Dict[str, object]:
        """Serialize the cluster for trace metadata."""
        return {
            "device": self.device.to_dict(),
            "n_devices": self.n_devices,
            "interconnect": self.interconnect.to_dict(),
            "allreduce_algorithm": self.allreduce_algorithm,
        }


class DeviceGroup:
    """The replicas of a cluster, one :class:`Device` per replica *class*.

    A replica class is a set of ranks the simulator cannot tell apart: same
    hardware, same model, same shard shape, hence the same event stream.
    ``rank_classes`` labels every rank (equal labels, one class; classes are
    numbered in order of first appearance, so rank 0 is always in class 0);
    by default every rank is its own class.  Only one :class:`Device` per
    class is materialised — its clock, recorder and timing model stand
    for every rank of the class — while :attr:`n_devices` and the
    collective cost model keep the cluster's full replica count.  Iterating,
    indexing and ``len()`` walk the materialised replicas in class order.
    Device-construction keyword arguments (allocator, default dtype, timing
    overrides) are forwarded to every replica so the group is
    homogeneous.
    """

    def __init__(self, cluster: ClusterSpec,
                 rank_classes: Optional[Sequence[Hashable]] = None, **device_kwargs):
        self.cluster = cluster
        labels = (range(cluster.n_devices) if rank_classes is None
                  else list(rank_classes))
        if len(labels) != cluster.n_devices:
            raise ConfigurationError(
                f"rank_classes must label each of the {cluster.n_devices} "
                f"rank(s), got {len(labels)} label(s)")
        ranks_by_label: Dict[Hashable, List[int]] = {}
        for rank, label in enumerate(labels):
            ranks_by_label.setdefault(label, []).append(rank)
        #: Ranks of every class, in rank order (first entry: its representative).
        self.class_ranks: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(ranks) for ranks in ranks_by_label.values())
        class_of = {label: index for index, label in enumerate(ranks_by_label)}
        #: Class index of every rank.
        self.rank_classes: Tuple[int, ...] = tuple(class_of[label] for label in labels)
        self._adopt([Device(cluster.device, **device_kwargs)
                     for _ in self.class_ranks])

    def _adopt(self, devices: List[Device]) -> None:
        from .collective import CollectiveEngine

        self.devices = devices
        self.collective = CollectiveEngine(
            self.cluster, [device.recorder for device in devices])

    @classmethod
    def single(cls, spec: Optional[DeviceSpec] = None, **device_kwargs) -> "DeviceGroup":
        """A degenerate one-replica group (today's single-device behavior)."""
        device_spec = spec if spec is not None else titan_x_pascal()
        return cls(ClusterSpec(device=device_spec, n_devices=1), **device_kwargs)

    @classmethod
    def of(cls, device: Device) -> "DeviceGroup":
        """The one-replica group around an existing ``device``."""
        group = cls.__new__(cls)
        group.cluster = ClusterSpec(device=device.spec, n_devices=1)
        group.class_ranks, group.rank_classes = ((0,),), (0,)
        group._adopt([device])
        return group

    def __len__(self) -> int:
        return len(self.devices)

    def __iter__(self) -> Iterator[Device]:
        return iter(self.devices)

    def __getitem__(self, index: int) -> Device:
        return self.devices[index]

    @property
    def n_devices(self) -> int:
        """Number of replicas in the cluster (materialised or not)."""
        return self.cluster.n_devices

    @property
    def n_materialized(self) -> int:
        """Number of replicas actually simulated (one per replica class)."""
        return len(self.devices)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"DeviceGroup(n={self.n_devices}, "
                f"materialized={self.n_materialized}, "
                f"device={self.cluster.device.name!r}, "
                f"interconnect={self.cluster.interconnect.name!r}, "
                f"allreduce={self.cluster.allreduce_algorithm!r})")
