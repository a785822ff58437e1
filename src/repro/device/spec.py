"""Hardware specifications of the simulated accelerator.

The paper's experiments run on an Nvidia Titan X (Pascal) GPU and measure the
pinned host↔device memcpy bandwidth with CUDA's ``bandwidthTest`` sample
(6.3 GB/s host→device, 6.4 GB/s device→host).  :class:`DeviceSpec` captures
everything the simulator needs to model that machine: memory capacity, compute
throughput, device memory bandwidth, interconnect bandwidths and the fixed
overheads of launching kernels and memcpys.

Several presets are provided so that experiments can also be run on
hypothetical smaller/larger devices (useful for the swap-planning extension
and for fast unit tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict

from ..units import GIB, MIB


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a simulated DNN accelerator.

    Attributes
    ----------
    name:
        Human-readable device name.
    memory_capacity:
        Device DRAM capacity in bytes.
    peak_flops:
        Peak single-precision throughput in FLOP/s.
    memory_bandwidth:
        Device DRAM bandwidth in bytes/s.
    h2d_bandwidth:
        Pinned host→device copy bandwidth in bytes/s.
    d2h_bandwidth:
        Pinned device→host copy bandwidth in bytes/s.
    kernel_launch_overhead_ns:
        Fixed host+driver overhead added to every kernel launch.
    memcpy_launch_overhead_ns:
        Fixed overhead added to every DMA transfer.
    allocator_overhead_ns:
        Host-side time consumed by a cache-hit allocation in the caching
        allocator (a cache miss additionally pays ``cuda_malloc_overhead_ns``).
    cuda_malloc_overhead_ns:
        Cost of a real ``cudaMalloc``/``cudaFree`` call (segment creation).
    """

    name: str
    memory_capacity: int
    peak_flops: float
    memory_bandwidth: float
    h2d_bandwidth: float
    d2h_bandwidth: float
    kernel_launch_overhead_ns: int = 5_000
    memcpy_launch_overhead_ns: int = 10_000
    allocator_overhead_ns: int = 700
    cuda_malloc_overhead_ns: int = 200_000

    def __post_init__(self) -> None:
        if self.memory_capacity <= 0:
            raise ValueError("memory_capacity must be positive")
        if self.peak_flops <= 0:
            raise ValueError("peak_flops must be positive")
        if self.memory_bandwidth <= 0:
            raise ValueError("memory_bandwidth must be positive")
        if self.h2d_bandwidth <= 0 or self.d2h_bandwidth <= 0:
            raise ValueError("interconnect bandwidths must be positive")

    def with_memory_capacity(self, capacity: int) -> "DeviceSpec":
        """Return a copy of this spec with a different memory capacity."""
        return replace(self, memory_capacity=int(capacity))

    def to_dict(self) -> Dict[str, float]:
        """Serialize the spec for trace metadata."""
        return {
            "name": self.name,
            "memory_capacity": self.memory_capacity,
            "peak_flops": self.peak_flops,
            "memory_bandwidth": self.memory_bandwidth,
            "h2d_bandwidth": self.h2d_bandwidth,
            "d2h_bandwidth": self.d2h_bandwidth,
            "kernel_launch_overhead_ns": self.kernel_launch_overhead_ns,
            "memcpy_launch_overhead_ns": self.memcpy_launch_overhead_ns,
            "allocator_overhead_ns": self.allocator_overhead_ns,
            "cuda_malloc_overhead_ns": self.cuda_malloc_overhead_ns,
        }


def titan_x_pascal() -> DeviceSpec:
    """The paper's testbed: Nvidia Titan X (Pascal), 12 GB GDDR5X.

    The interconnect bandwidths are the pinned-memory numbers the paper
    measured with CUDA's ``bandwidthTest``: 6.3 GB/s host→device and
    6.4 GB/s device→host (decimal GB).
    """
    return DeviceSpec(
        name="NVIDIA Titan X (Pascal)",
        memory_capacity=12 * GIB,
        peak_flops=10.97e12,
        memory_bandwidth=480e9,
        h2d_bandwidth=6.3e9,
        d2h_bandwidth=6.4e9,
    )


def ampere_a100_40gb() -> DeviceSpec:
    """An A100-40GB-like device, referenced in the paper's introduction."""
    return DeviceSpec(
        name="NVIDIA A100 (Ampere) 40GB",
        memory_capacity=40 * GIB,
        peak_flops=19.5e12,
        memory_bandwidth=1555e9,
        h2d_bandwidth=24e9,
        d2h_bandwidth=24e9,
        kernel_launch_overhead_ns=4_000,
    )


def gtx_1080_8gb() -> DeviceSpec:
    """A GTX 1080-like 8 GB device: the capacity-constrained consumer regime.

    Same Pascal generation as the paper's Titan X but with a third less
    memory, so workloads that barely fit the Titan X become swap candidates.
    """
    return DeviceSpec(
        name="NVIDIA GTX 1080 8GB",
        memory_capacity=8 * GIB,
        peak_flops=8.87e12,
        memory_bandwidth=320e9,
        h2d_bandwidth=6.1e9,
        d2h_bandwidth=6.2e9,
    )


def v100_sxm2_16gb() -> DeviceSpec:
    """A V100-SXM2-16GB-like device: NVLink-class interconnect bandwidth.

    The ~3x faster host link widens Eq. 1's swappable window, which is why
    the swap-feasibility results shift so strongly across the device axis.
    """
    return DeviceSpec(
        name="NVIDIA V100 (Volta) SXM2 16GB",
        memory_capacity=16 * GIB,
        peak_flops=15.7e12,
        memory_bandwidth=900e9,
        h2d_bandwidth=20e9,
        d2h_bandwidth=20e9,
        kernel_launch_overhead_ns=4_500,
    )


def rtx_3090_24gb() -> DeviceSpec:
    """An RTX 3090-like 24 GB device: large-memory consumer Ampere."""
    return DeviceSpec(
        name="NVIDIA RTX 3090 24GB",
        memory_capacity=24 * GIB,
        peak_flops=35.6e12,
        memory_bandwidth=936e9,
        h2d_bandwidth=12e9,
        d2h_bandwidth=12e9,
        kernel_launch_overhead_ns=4_000,
    )


def small_test_device(memory_capacity: int = 256 * MIB) -> DeviceSpec:
    """A tiny device used by unit tests to exercise out-of-memory paths."""
    return DeviceSpec(
        name="test-device",
        memory_capacity=memory_capacity,
        peak_flops=1e12,
        memory_bandwidth=100e9,
        h2d_bandwidth=5e9,
        d2h_bandwidth=5e9,
        kernel_launch_overhead_ns=1_000,
        memcpy_launch_overhead_ns=2_000,
        allocator_overhead_ns=100,
        cuda_malloc_overhead_ns=10_000,
    )


#: Registry of named presets, usable from experiment configuration files.
DEVICE_PRESETS = {
    "titan_x_pascal": titan_x_pascal,
    "gtx_1080_8gb": gtx_1080_8gb,
    "v100_sxm2_16gb": v100_sxm2_16gb,
    "rtx_3090_24gb": rtx_3090_24gb,
    "ampere_a100_40gb": ampere_a100_40gb,
    "small_test_device": small_test_device,
}


@lru_cache(maxsize=None)
def get_device_spec(name: str) -> DeviceSpec:
    """Look up a device preset by name (one shared frozen instance per preset).

    Raises ``KeyError`` with the list of known presets if the name is unknown.
    """
    try:
        factory = DEVICE_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(DEVICE_PRESETS))
        raise KeyError(f"unknown device preset '{name}'; known presets: {known}") from None
    return factory()
