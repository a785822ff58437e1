"""Microbenchmarks of the substrate itself.

These measure the reproduction's own machinery (not a paper figure): the
caching allocator's allocate/free throughput, the overhead the trace recorder
adds to a training iteration, and the speed of the ATI analysis on a large
trace.  They guard against performance regressions that would make the
figure-level experiments impractically slow.
"""

import numpy as np
import pytest

from repro.core.ati import compute_access_intervals
from repro.core.profiler import MemoryProfiler
from repro.device import Device, small_test_device, titan_x_pascal
from repro.experiments.configs import small_mlp_config
from repro.train.session import run_training_session
from repro.units import KIB, MIB


@pytest.mark.benchmark(group="micro-allocator")
def test_caching_allocator_alloc_free_throughput(benchmark):
    device = Device(titan_x_pascal(), execution_mode="symbolic")

    def alloc_free_cycle():
        blocks = [device.allocate((i % 64 + 1) * 4 * KIB) for i in range(256)]
        for block in blocks:
            device.free(block)

    benchmark(alloc_free_cycle)
    assert device.allocated_bytes == 0


@pytest.mark.benchmark(group="micro-recorder")
def test_profiling_overhead_per_training_iteration(benchmark):
    """One profiled virtual training iteration of the small MLP."""
    config = small_mlp_config(batch_size=64, iterations=1, hidden_dim=256)
    config.execution_mode = "symbolic"

    result = benchmark.pedantic(run_training_session, args=(config,), rounds=3, iterations=1)
    assert len(result.trace) > 0
    benchmark.extra_info["events_per_iteration"] = len(result.trace)


@pytest.mark.benchmark(group="micro-analysis")
def test_ati_analysis_speed_on_large_trace(benchmark):
    """ATI extraction over a multi-thousand-event trace."""
    config = small_mlp_config(batch_size=64, iterations=20, hidden_dim=256)
    config.execution_mode = "symbolic"
    trace = run_training_session(config).trace

    intervals = benchmark(compute_access_intervals, trace)
    assert len(intervals) > 500
    benchmark.extra_info["num_events"] = len(trace)
    benchmark.extra_info["num_intervals"] = len(intervals)
