"""Sweep grids and scenarios: what a sweep runs, and where its cache lives.

:class:`SweepGrid` declares the cross product of scenario dimensions and
expands it into concrete :class:`Scenario` objects (a
:class:`~repro.train.session.TrainingRunConfig` plus an offline policy); a
scenario's content hash (:meth:`Scenario.key`) names its cache entry.

Sweep axes
----------
``models x batch_sizes x iterations x allocators x device_specs x dtypes x
n_devices x interconnects x swaps x device_memory_capacities x
host_dispatch_overheads_ns x seeds x swap_policies`` — written down once, in
:data:`AXES`, which drives :meth:`SweepGrid.size`, the expansion order and
the construction of each scenario's config.  The ``swaps`` axis
turns the closed-loop swap-execution engine (:mod:`repro.swap`) on inside
each scenario (``off``, ``planner``, ``swap_advisor``, ``zero_offload``,
``lru``, ``unified``) — results then carry the engine's measured stall/peak
numbers next to the policy's predictions.  The ``device_memory_capacities``
axis runs each scenario under a hard capacity: with the swap engine on, the
executor's capacity governor enforces it (forced evictions with stall
accounting, a structured :class:`~repro.errors.InfeasibleScenarioError`
when infeasible); with swap off, the allocator itself is shrunk and OOMs
raw — together they trace a feasibility frontier.
The policy axis is backed by the offline face of the
:mod:`repro.swap.policies` registry (swapping variants, recomputation,
parameter compression); the dtype axis sets the device's default training
precision; the device axis also selects the Eq.-1 bandwidths unless the
runner overrides them explicitly.  The ``n_devices`` and ``interconnects``
axes make each scenario a data-parallel cluster (batch sharded across
replicas, gradient allreduce on the named interconnect before every
optimizer step); results then report *per-replica* peaks plus the collective
summary.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..core.swap import BandwidthConfig
from ..device.spec import get_device_spec
from ..swap.policies import SWAP_EXECUTION_MODES, SWAP_POLICIES
from ..train.session import TrainingRunConfig

#: Version of the cached result schema; bump to invalidate every cache entry.
#: v2: policies generalized to the baselines registry, dtype axis added.
#: v3: data-parallel axes (n_devices, interconnect), collective summaries,
#:     fp32 master weights under half-precision training.
#: v4: symbolic execution mode is the sweep default,
#:     columnar recorder, per-scenario wall time in the summary table.
#: v5: closed-loop swap execution (the ``swaps`` axis / ``--swap`` flag):
#:     scenarios can run the repro.swap engine and results carry the
#:     measured-vs-predicted swap_execution summary.
#: v6: trace-template replay (``--execution replay``): replayed results are
#:     pinned bit-identical to fresh symbolic runs and share their cache
#:     entries; the bump guards against any pre-replay entry produced while
#:     the per-scenario reduction was being factored out.
#: v7: unified keep/swap/recompute policy and real capacity pressure:
#:     ``device_memory_capacity`` became the ``device_memory_capacities``
#:     sweep axis, scenario identities carry the capacity, and swap-execution
#:     summaries gained recompute/pressure counters.
RESULT_SCHEMA_VERSION = 7

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_SWEEP_CACHE"

#: Default on-disk cache location (relative to the working directory).
DEFAULT_CACHE_DIR = Path(".repro_cache") / "sweeps"


#: ``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` without building
#: an encoder per call: the canonical form every scenario key hashes.
_canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@lru_cache(maxsize=None)
def _preset_bandwidths(device_spec: str) -> BandwidthConfig:
    """The Eq.-1 bandwidths of a device preset (one frozen record per name)."""
    return BandwidthConfig.from_device_spec(get_device_spec(device_spec))


def default_cache_dir() -> Path:
    """The cache directory (``$REPRO_SWEEP_CACHE`` or ``.repro_cache/sweeps``)."""
    override = os.environ.get(CACHE_DIR_ENV)
    return Path(override) if override else DEFAULT_CACHE_DIR


@dataclass
class Scenario:
    """One concrete sweep point: a training configuration plus a swap policy."""

    config: TrainingRunConfig
    swap_policy: str = "none"
    #: Route this scenario through the replay engine (``--execution replay``).
    #: Excluded from the fingerprint: replay is pinned bit-identical to a
    #: fresh symbolic run, so both share one cache entry.
    via_replay: bool = False

    @property
    def label(self) -> str:
        """Label for reports (falls back to the config description)."""
        return self.config.label or self.config.describe()

    def resolve_bandwidths(self,
                           bandwidths: Optional[BandwidthConfig] = None) -> BandwidthConfig:
        """The Eq.-1 bandwidths this scenario is evaluated under.

        An explicit override wins; otherwise the bandwidths come from the
        scenario's own device spec (for the paper's Titan X these are exactly
        the measured 6.3/6.4 GB/s), so the device axis changes the
        swap-feasibility results the way real hardware would.
        """
        if bandwidths is not None:
            return bandwidths
        return _preset_bandwidths(self.config.device_spec)

    def fingerprint(self, bandwidths: Optional[BandwidthConfig] = None) -> Dict[str, object]:
        """Canonical JSON-friendly identity of this scenario (cache key input).

        The cosmetic ``label`` is excluded: two scenarios that run the same
        workload hit the same cache entry regardless of how they are named.
        The Eq.-1 bandwidths are *included* (resolved from the device spec
        when unset): they shape ``swappable_fraction`` and every swap-policy
        summary, so results computed under different bandwidths must never
        share a cache entry.
        """
        bandwidths = self.resolve_bandwidths(bandwidths)
        config = self.config.to_dict()
        config.pop("label", None)
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "swap_policy": self.swap_policy,
            "bandwidths": {"h2d_bytes_per_s": bandwidths.h2d_bytes_per_s,
                           "d2h_bytes_per_s": bandwidths.d2h_bytes_per_s},
            "config": config,
        }

    def key(self, bandwidths: Optional[BandwidthConfig] = None,
            fingerprint: Optional[Dict[str, object]] = None) -> str:
        """Content hash of the scenario (the cache file stem).

        ``fingerprint`` is :meth:`fingerprint` under the same bandwidths when
        the caller already built it (the runner writes it into the cache
        entry the key names).
        """
        if fingerprint is None:
            fingerprint = self.fingerprint(bandwidths)
        return hashlib.sha256(_canonical_json(fingerprint).encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """One-line description used by ``repro sweep --dry-run``."""
        c = self.config
        capacity = ("" if c.device_memory_capacity is None
                    else f" cap={c.device_memory_capacity}")
        return (f"{c.model}/{c.dataset} batch={c.batch_size} iters={c.iterations} "
                f"alloc={c.allocator} swap={self.swap_policy} device={c.device_spec} "
                f"dtype={c.dtype} ndev={c.n_devices} link={c.interconnect} "
                f"swap_exec={c.swap}{capacity} mode={c.execution_mode}")


#: Every sweep axis as ``(grid field, scenario field)``, outermost first: the
#: policy varies fastest so that related baselines of one workload sit
#: together in the summary table.  Each scenario field is the
#: :class:`~repro.train.session.TrainingRunConfig` field the axis value lands
#: in, except the last, which is :attr:`Scenario.swap_policy`.
AXES = (
    ("models", "model"),
    ("batch_sizes", "batch_size"),
    ("iterations", "iterations"),
    ("allocators", "allocator"),
    ("device_specs", "device_spec"),
    ("dtypes", "dtype"),
    ("n_devices", "n_devices"),
    ("interconnects", "interconnect"),
    ("swaps", "swap"),
    ("device_memory_capacities", "device_memory_capacity"),
    ("host_dispatch_overheads_ns", "host_dispatch_overhead_ns"),
    ("seeds", "seed"),
    ("swap_policies", "swap_policy"),
)

#: Grid scalars copied into every scenario's config under the same name.
SHARED_FIELDS = ("dataset", "optimizer", "allreduce_algorithm", "host_latency")


@dataclass
class SweepGrid:
    """Declarative cross product of scenario dimensions.

    Every field that is a sequence is a sweep dimension (a row of
    :data:`AXES`); the cross product of all dimensions is expanded by
    :meth:`expand`.  Scalar fields are shared by every scenario.
    """

    models: Sequence[str] = ("mlp",)
    batch_sizes: Sequence[int] = (64,)
    iterations: Sequence[int] = (2,)
    allocators: Sequence[str] = ("caching",)
    swap_policies: Sequence[str] = ("none",)
    device_specs: Sequence[str] = ("titan_x_pascal",)
    dtypes: Sequence[str] = ("float32",)
    n_devices: Sequence[int] = (1,)
    interconnects: Sequence[str] = ("pcie_gen3",)
    swaps: Sequence[str] = ("off",)
    device_memory_capacities: Sequence[Optional[int]] = (None,)
    host_dispatch_overheads_ns: Sequence[Optional[int]] = (None,)
    seeds: Sequence[int] = (0,)
    # shared scalars
    dataset: str = "two_cluster"
    execution_mode: str = "symbolic"
    model_kwargs: Dict[str, object] = field(default_factory=dict)
    dataset_kwargs: Dict[str, object] = field(default_factory=dict)
    optimizer: str = "sgd"
    allreduce_algorithm: str = "ring"
    host_latency: Optional[object] = None  # HostLatencyModel

    def size(self) -> int:
        """Number of scenarios the grid expands to."""
        return math.prod(len(getattr(self, axis)) for axis, _ in AXES)

    def expand(self) -> List[Scenario]:
        """Expand the grid into concrete scenarios (deterministic order)."""
        for policy in self.swap_policies:
            if policy not in SWAP_POLICIES:
                raise ValueError(
                    f"unknown swap policy '{policy}'; known policies: {SWAP_POLICIES}")
        for swap in self.swaps:
            if swap not in SWAP_EXECUTION_MODES:
                raise ValueError(
                    f"unknown swap execution mode '{swap}'; known modes: "
                    f"{SWAP_EXECUTION_MODES}")
        # "replay" is a pseudo-mode: the scenarios themselves are plain
        # symbolic (identical fingerprints, identical results), only routed
        # through the template-replay engine by the runner.
        via_replay = self.execution_mode == "replay"
        shared = {name: getattr(self, name) for name in SHARED_FIELDS}
        shared["execution_mode"] = "symbolic" if via_replay else self.execution_mode
        scenario_fields = [scenario_field for _, scenario_field in AXES]
        scenarios: List[Scenario] = []
        for values in itertools.product(*(getattr(self, axis) for axis, _ in AXES)):
            point = dict(zip(scenario_fields, values))
            policy = point.pop("swap_policy")
            config = TrainingRunConfig(
                model_kwargs=dict(self.model_kwargs),
                dataset_kwargs=dict(self.dataset_kwargs),
                label=f"{point['model']}-batch{point['batch_size']}-{point['allocator']}",
                **shared, **point)
            scenarios.append(Scenario(config=config, swap_policy=policy,
                                      via_replay=via_replay))
        return scenarios
