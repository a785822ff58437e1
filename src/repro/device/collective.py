"""Cross-device collective engine: the gradient allreduce, the one sync point.

Data-parallel training inserts one gradient allreduce per iteration between
the backward pass and the optimizer step.  :class:`CollectiveEngine` models
that operation's *timing*: a collective is a barrier (it starts when the
slowest participating replica arrives) followed by an algorithm-dependent
transfer cost from the cluster's cost model
(:meth:`~repro.device.cluster.ClusterSpec.allreduce_time_ns`), after which
every replica clock has advanced to the same completion time.  The engine
holds one clock per *materialised* replica — one per replica class of the
:class:`~repro.device.cluster.DeviceGroup`; ranks of one class arrive at the
same instant, so the barrier over the class clocks is the barrier over all
ranks — while the cost and the reported ``world_size`` are the cluster's.
The allreduce is the only cross-rank synchronization a run has: every
device is synchronous, so there is no stream to drain, and the timing tape
records it as its one sync atom (:data:`~repro.device.tape.TAPE_ALLREDUCE`).

The engine deliberately knows nothing about tensors: the training loop
(:class:`~repro.train.trainer.DataParallelTrainer`) owns the gradient
buffers, emits their read/write memory behaviors and performs the numeric
averaging in eager mode, just as :meth:`Device.copy_host_to_device
<repro.device.device.Device.copy_host_to_device>` times a copy and leaves the
storage it fills to the tensor.  A one-replica cluster costs nothing and
moves no clock, so single-device runs are unaffected by the engine's
existence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from .clock import DeviceClock
from .cluster import ClusterSpec
from .tape import TAPE_ALLREDUCE


@dataclass(frozen=True)
class CollectiveRecord:
    """One collective operation performed by the engine."""

    kind: str          # e.g. "allreduce"
    nbytes: int
    start_ns: int
    end_ns: int
    algorithm: str
    world_size: int
    tag: str = ""

    @property
    def duration_ns(self) -> int:
        """Duration of the collective in nanoseconds."""
        return self.end_ns - self.start_ns

    def to_dict(self) -> Dict[str, object]:
        """Serialize the record for result summaries."""
        return {
            "kind": self.kind,
            "nbytes": self.nbytes,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ns": self.duration_ns,
            "algorithm": self.algorithm,
            "world_size": self.world_size,
            "tag": self.tag,
        }


def collective_summary(cluster: ClusterSpec, world_size: int, count: int,
                       total_bytes: int, total_time_ns: int) -> Dict[str, object]:
    """A run's ``collective`` block: the engine's aggregate, also built by the
    replay engine from a template's sync atoms and re-priced costs."""
    return {
        "count": count,
        "world_size": world_size,
        "algorithm": cluster.allreduce_algorithm,
        "interconnect": cluster.interconnect.name,
        "total_bytes": total_bytes,
        "total_time_ns": total_time_ns,
        "mean_time_ns": (total_time_ns / count) if count else 0.0,
    }


class CollectiveEngine:
    """Models collectives across the replica clocks of one cluster.

    Parameters
    ----------
    cluster:
        The cluster specification supplying the allreduce cost model.
    clocks:
        One :class:`~repro.device.clock.DeviceClock` per materialised
        replica, in class order; collectives barrier and then advance all of
        them together.
    """

    def __init__(self, cluster: ClusterSpec, clocks: Sequence[DeviceClock]):
        self.cluster = cluster
        self.clocks = list(clocks)
        self.records: List[CollectiveRecord] = []

    @property
    def world_size(self) -> int:
        """Number of replicas participating in collectives (the cluster's)."""
        return self.cluster.n_devices

    def allreduce(self, nbytes: int, tag: str = "") -> CollectiveRecord:
        """Model one allreduce of ``nbytes``: barrier, then the transfer cost.

        The operation starts when the last replica arrives (``max`` over the
        clocks) and every clock is advanced to the shared completion time.
        With one replica the cost is zero and no clock moves.
        """
        start = max(clock.now_ns for clock in self.clocks)
        duration = self.cluster.allreduce_time_ns(nbytes)
        end = start + duration
        for clock in self.clocks:
            clock.advance(end - clock.now_ns, TAPE_ALLREDUCE, int(nbytes))
        record = CollectiveRecord(
            kind="allreduce", nbytes=int(nbytes), start_ns=start, end_ns=end,
            algorithm=self.cluster.allreduce_algorithm, world_size=self.world_size,
            tag=tag,
        )
        self.records.append(record)
        return record

    # -- aggregation ------------------------------------------------------------------

    def total_bytes(self) -> int:
        """Total bytes reduced across all recorded collectives."""
        return sum(record.nbytes for record in self.records)

    def total_time_ns(self) -> int:
        """Total simulated time spent inside collectives."""
        return sum(record.duration_ns for record in self.records)

    def summary(self) -> Dict[str, object]:
        """Compact aggregate used by session results and the scaling report."""
        return collective_summary(self.cluster, self.world_size, len(self.records),
                                  self.total_bytes(), self.total_time_ns())
