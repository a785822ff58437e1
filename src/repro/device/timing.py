"""Analytical kernel timing model.

The access-time intervals (ATIs) characterized by the paper are determined by
how long the GPU spends between consecutive accesses to the same block, i.e.
by kernel durations and host-side gaps.  We model kernel duration with a
classic roofline estimate::

    t_kernel = launch_overhead + max(flops / peak_flops,
                                     bytes_moved / memory_bandwidth)

which reproduces the two regimes the paper observes: small kernels are
launch/latency bound (tens of microseconds) while very large tensors push
durations into the millisecond range.

The model also supports an efficiency factor (< 1.0) because real kernels do
not reach peak throughput, and a fixed software overhead per operator that
accounts for the framework's host-side dispatch (Python + dispatcher), which
in eager PyTorch is a significant part of small-kernel ATIs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict

from .spec import DeviceSpec

#: Fraction of peak FLOP/s dense kernels are modelled to reach.
DEFAULT_COMPUTE_EFFICIENCY = 0.65
#: Fraction of peak DRAM bandwidth memory-bound kernels are modelled to reach.
DEFAULT_BANDWIDTH_EFFICIENCY = 0.75
#: Host-side framework dispatch cost per operator (Python + dispatcher).
DEFAULT_HOST_DISPATCH_OVERHEAD_NS = 6_000
#: Entries each memoized cost function (and each model's duration table)
#: keeps.  A session launches a few hundred distinct (op, shape, dtype)
#: tuples, thousands of times each; a constant, not a setting.
COST_CACHE_SIZE = 4096


@dataclass(frozen=True, slots=True)
class KernelCost:
    """Work estimate for one kernel: floating point ops and bytes moved.

    Immutable and slotted: the cost functions below are memoized (keyed on
    their arguments' values *and* types, so a cached cost has exactly the
    fields the call would have computed), and equal launches share one
    instance.  Every launch looks its duration up by its cost
    (:meth:`KernelTimingModel.op_duration_ns`) and logs its DRAM traffic, so
    the hash — the dataclass's own, over the four fields — and
    :attr:`bytes_moved` are computed once, when the cost is made.
    """

    flops: float = 0.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    name: str = ""
    #: Total DRAM traffic of the kernel in bytes.
    bytes_moved: float = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "bytes_moved", self.bytes_read + self.bytes_written)
        object.__setattr__(self, "_hash", hash((self.flops, self.bytes_read,
                                                self.bytes_written, self.name)))

    def __hash__(self) -> int:
        return self._hash

    def scaled(self, factor: float) -> "KernelCost":
        """Return a copy with all work scaled by ``factor`` (for fused ops)."""
        return KernelCost(
            flops=self.flops * factor,
            bytes_read=self.bytes_read * factor,
            bytes_written=self.bytes_written * factor,
            name=self.name,
        )


class KernelTimingModel:
    """Roofline-style duration estimator for simulated kernels.

    Parameters
    ----------
    spec:
        The device being modelled.
    compute_efficiency:
        Fraction of peak FLOP/s that dense kernels actually achieve.
    bandwidth_efficiency:
        Fraction of peak DRAM bandwidth that memory-bound kernels achieve.
    host_dispatch_overhead_ns:
        Host-side framework overhead added to every operator on top of the
        device-side launch overhead.
    """

    def __init__(
        self,
        spec: DeviceSpec,
        compute_efficiency: float = DEFAULT_COMPUTE_EFFICIENCY,
        bandwidth_efficiency: float = DEFAULT_BANDWIDTH_EFFICIENCY,
        host_dispatch_overhead_ns: int = DEFAULT_HOST_DISPATCH_OVERHEAD_NS,
    ):
        if not 0.0 < compute_efficiency <= 1.0:
            raise ValueError("compute_efficiency must be in (0, 1]")
        if not 0.0 < bandwidth_efficiency <= 1.0:
            raise ValueError("bandwidth_efficiency must be in (0, 1]")
        self.spec = spec
        self.compute_efficiency = compute_efficiency
        self.bandwidth_efficiency = bandwidth_efficiency
        self.host_dispatch_overhead_ns = int(host_dispatch_overhead_ns)
        # The roofline denominators are constants of the model (the spec is
        # frozen, the efficiencies fixed at construction): computed once here,
        # not once per kernel.  The replay engine prices whole grids with the
        # same two numbers.
        self.effective_flops = spec.peak_flops * compute_efficiency
        self.effective_bandwidth = spec.memory_bandwidth * bandwidth_efficiency
        # cost -> op duration.  Everything the duration depends on besides the
        # (frozen) cost is fixed above, so an entry can never go stale.
        self._op_durations: Dict[KernelCost, int] = {}

    # -- estimation -----------------------------------------------------------

    def kernel_duration_ns(self, cost: KernelCost) -> int:
        """Device-side duration of one kernel, in nanoseconds."""
        bytes_moved = cost.bytes_read + cost.bytes_written
        compute_ns = 1e9 * cost.flops / self.effective_flops if cost.flops else 0.0
        memory_ns = 1e9 * bytes_moved / self.effective_bandwidth if bytes_moved else 0.0
        busy_ns = max(compute_ns, memory_ns)
        return int(round(self.spec.kernel_launch_overhead_ns + busy_ns))

    def op_duration_ns(self, cost: KernelCost) -> int:
        """Total operator duration: host dispatch plus kernel time."""
        duration = self._op_durations.get(cost)
        if duration is None:
            if len(self._op_durations) >= COST_CACHE_SIZE:
                self._op_durations.clear()
            duration = self.host_dispatch_overhead_ns + self.kernel_duration_ns(cost)
            self._op_durations[cost] = duration
        return duration

    def memcpy_duration_ns(self, nbytes: int, bandwidth: float) -> int:
        """Duration of a host↔device copy of ``nbytes`` at ``bandwidth`` B/s."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        transfer_ns = 1e9 * nbytes / bandwidth if nbytes else 0.0
        return int(round(self.spec.memcpy_launch_overhead_ns + transfer_ns))


@lru_cache(maxsize=COST_CACHE_SIZE, typed=True)
def matmul_cost(m: int, k: int, n: int, itemsize: int = 4, name: str = "matmul") -> KernelCost:
    """Cost of a dense ``(m, k) @ (k, n)`` matrix multiplication."""
    flops = 2.0 * m * k * n
    bytes_read = itemsize * (m * k + k * n)
    bytes_written = itemsize * (m * n)
    return KernelCost(flops=flops, bytes_read=bytes_read, bytes_written=bytes_written, name=name)


@lru_cache(maxsize=COST_CACHE_SIZE, typed=True)
def elementwise_cost(numel: int, n_inputs: int = 1, flops_per_element: float = 1.0,
                     itemsize: int = 4, name: str = "elementwise") -> KernelCost:
    """Cost of an elementwise kernel over ``numel`` elements."""
    return KernelCost(
        flops=flops_per_element * numel,
        bytes_read=itemsize * numel * n_inputs,
        bytes_written=itemsize * numel,
        name=name,
    )


@lru_cache(maxsize=COST_CACHE_SIZE, typed=True)
def conv2d_cost(batch: int, in_channels: int, out_channels: int,
                out_h: int, out_w: int, kernel_h: int, kernel_w: int,
                itemsize: int = 4, name: str = "conv2d") -> KernelCost:
    """Cost of a direct 2-D convolution producing a ``(batch, out_channels, out_h, out_w)`` map."""
    output_elems = batch * out_channels * out_h * out_w
    flops = 2.0 * output_elems * in_channels * kernel_h * kernel_w
    bytes_read = itemsize * (
        batch * in_channels * out_h * out_w * kernel_h * kernel_w / max(1, kernel_h * kernel_w)
        + out_channels * in_channels * kernel_h * kernel_w
    )
    bytes_written = itemsize * output_elems
    return KernelCost(flops=flops, bytes_read=bytes_read, bytes_written=bytes_written, name=name)


@lru_cache(maxsize=COST_CACHE_SIZE, typed=True)
def reduction_cost(numel: int, itemsize: int = 4, name: str = "reduction") -> KernelCost:
    """Cost of a full reduction over ``numel`` elements."""
    return KernelCost(flops=float(numel), bytes_read=float(itemsize * numel),
                      bytes_written=float(itemsize), name=name)
