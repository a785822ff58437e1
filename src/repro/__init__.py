"""repro — reproduction of "Pinpointing the Memory Behaviors of DNN Training" (ISPASS 2021).

The package is organised as the paper's system is:

* :mod:`repro.device` — a simulated GPU (Titan X Pascal by default) with an
  instrumented, PyTorch-style caching allocator and timing model;
* :mod:`repro.tensor`, :mod:`repro.nn`, :mod:`repro.models`, :mod:`repro.data`,
  :mod:`repro.train` — the DNN training stack that generates memory behaviors;
* :mod:`repro.core` — the paper's contribution: block-level memory-behavior
  recording (malloc/free/read/write) and the analyses behind every figure
  (Gantt charts, ATI distributions, outliers, Eq. 1 swap bounds, occupation
  breakdowns, and the future-work swap planner);
* :mod:`repro.experiments` — one entry point per paper figure/table, all
  backed by the scenario-sweep engine and its on-disk result cache;
* :mod:`repro.viz` — ASCII/SVG renderings and CSV/JSON export of figure data;
* :mod:`repro.swap` — the one registry of memory policies
  (:class:`~repro.swap.policies.MemoryPolicy`: swapping, recomputation and
  parameter compression; the offline estimates, read off a recorded trace's
  columns, are the sweep's policy axis, the executable policies its
  ``--swap`` axis) and the swap-execution overlay: runs eviction/prefetch
  plans after the simulation, over the swap-off recording, on its own copy
  stream and virtual clock, inserts ``swap_out``/``swap_in`` trace events
  and measures the stalls;
* :mod:`repro.report` — regenerates EXPERIMENTS.md and the ``docs/figures/``
  pages from cached sweep results (``repro report`` / ``repro report
  --check``).

Quickstart
----------
>>> from repro import TrainingRunConfig, run_training_session
>>> from repro.core import compute_access_intervals, summarize_intervals
>>> result = run_training_session(TrainingRunConfig(batch_size=256, iterations=5))
>>> summary = summarize_intervals(compute_access_intervals(result.trace))
>>> summary.p90_us  # doctest: +SKIP
"""

from .core import (
    MemoryCategory,
    MemoryEvent,
    MemoryEventKind,
    MemoryProfiler,
    MemoryTrace,
    SwapPlanner,
    TraceRecorder,
)
from .device import Device, DeviceSpec, get_device_spec, titan_x_pascal
from .errors import ReproError
from .swap import SwapExecutor
from .train import SessionResult, Trainer, TrainingRunConfig, run_training_session
from .version import __version__

__all__ = [
    "Device",
    "DeviceSpec",
    "MemoryCategory",
    "MemoryEvent",
    "MemoryEventKind",
    "MemoryProfiler",
    "MemoryTrace",
    "ReproError",
    "SessionResult",
    "SwapExecutor",
    "SwapPlanner",
    "TraceRecorder",
    "Trainer",
    "TrainingRunConfig",
    "__version__",
    "get_device_spec",
    "run_training_session",
    "titan_x_pascal",
]
