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
precision; the device axis also selects the Eq.-1 bandwidths.  The
``n_devices`` and ``interconnects`` axes make each scenario a data-parallel
cluster (batch sharded across replicas, gradient allreduce on the named
interconnect before every optimizer step); results then report
*per-replica* peaks plus the collective summary.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from functools import lru_cache
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.swap import BandwidthConfig
from ..device.spec import get_device_spec
from ..swap.policies import SWAP_EXECUTION_MODES, SWAP_POLICIES
from ..train.session import TrainingRunConfig, swap_off_twin

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
#: v8: one execution mode: ``execution_mode`` left the config (so every
#:     fingerprint) and the result's identity fields.
RESULT_SCHEMA_VERSION = 8

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_SWEEP_CACHE"

#: Default on-disk cache location (relative to the working directory).
DEFAULT_CACHE_DIR = Path(".repro_cache") / "sweeps"


#: The C encoder ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``
#: builds on every call, built once: no circular-reference markers (a
#: fingerprint is a tree), ``float.__repr__`` and ``NaN`` / ``Infinity``.
_encode_chunks = c_make_encoder(None, json.JSONEncoder().default,
                                encode_basestring_ascii, None, ":", ",",
                                True, False, True)


def _canonical_json(value) -> str:
    """``json.dumps(value, sort_keys=True, separators=(",", ":"))``: the
    canonical form every scenario key hashes."""
    return "".join(_encode_chunks(value, 0))


#: Config fields that price a run without changing its structure.  One
#: compiled replay structure serves every combination of them, and a scenario
#: key splices them into its structure's canonical JSON row by row.
PRICING_FIELDS = ("label", "device_spec", "host_dispatch_overhead_ns",
                  "interconnect", "allreduce_algorithm", "device_memory_capacity")

_STRUCTURE_FIELDS = [f for f in fields(TrainingRunConfig)
                     if f.name not in PRICING_FIELDS]
#: The structural fields that may hold a dict: the kwargs, and the one
#: optional field, a latency model given as a dataclass or as its plain dict.
_STRUCTURE_DICTS = tuple(f.name for f in _STRUCTURE_FIELDS
                         if f.default_factory is dict or f.default is None)
_STRUCTURE_SCALAR_NAMES = tuple(f.name for f in _STRUCTURE_FIELDS
                                if f.name not in _STRUCTURE_DICTS)
_STRUCTURE_SCALARS = attrgetter(*_STRUCTURE_SCALAR_NAMES)
_STRUCTURE_DICT_VALUES = attrgetter(*_STRUCTURE_DICTS)

#: What a key fills in per row, in this order: the config's pricing fields
#: (the label is no part of a fingerprint), the policy, the Eq.-1 bandwidths.
_ROW_CONFIG_FIELDS = tuple(name for name in PRICING_FIELDS if name != "label")
_ROW_CONFIG = attrgetter(*_ROW_CONFIG_FIELDS)
_ROW_SLOTS = (*_ROW_CONFIG_FIELDS, "swap_policy", "h2d_bytes_per_s",
              "d2h_bytes_per_s")


def _json_value(value) -> str:
    """``_canonical_json(value)``; a plain scalar or an empty dict skips the
    encoder pass, encoded as the C encoder does (``int.__repr__``,
    ``float.__repr__`` for a finite float)."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is dict and not value:
        return "{}"
    return _canonical_json(value)


def structure_token(config: TrainingRunConfig) -> Tuple:
    """Hashable, type-exact identity of every non-pricing field of ``config``.

    Scalars enter with their ``repr`` beside them, and dict-valued fields as
    their canonical JSON (a latency dataclass as its ``asdict`` form, which
    is what the fingerprint holds).  So two configs share a token exactly
    when their fingerprints agree outside the pricing fields: ``1``, ``1.0``
    and ``True`` (or ``0.0`` and ``-0.0``) split it, as they split the JSON.
    Equal tokens share a key template (:meth:`Scenario.key`), a replay
    grouping and a template key.  The field list is derived from the config
    dataclass, so a new field splits tokens unless it is a pricing field.
    """
    scalars = _STRUCTURE_SCALARS(config)
    return (scalars, tuple(map(repr, scalars)),
            *map(_structure_json, _STRUCTURE_DICT_VALUES(config)))


def recording_token(config: TrainingRunConfig) -> Tuple:
    """Hashable, type-exact identity of the recording ``config``'s session
    overlays: its swap-off twin's (:func:`~repro.train.session.swap_off_twin`)
    :func:`structure_token` plus the twin's pricing fields but the label.

    Rows with equal tokens differ at most in ``swap``,
    ``device_memory_capacity`` (a swap-on row records with no capacity; a
    swap-off row keeps its own, since its allocator really shrinks) and the
    label, so one :func:`~repro.train.session.record_session` serves them all.
    """
    twin = swap_off_twin(config)
    pricing = _ROW_CONFIG(twin)
    return structure_token(twin), pricing, tuple(map(repr, pricing))


def _structure_json(value) -> str:
    """The canonical JSON of a dict-valued field as its fingerprint holds it."""
    if value is not None and type(value) is not dict and is_dataclass(value):
        value = asdict(value)
    return _json_value(value)


class _Slot(str):
    """A fingerprint entry a scenario key fills in per row (named by its text)."""


class _Json(str):
    """A fingerprint entry given as its canonical JSON text."""


def _fingerprint(config: Dict[str, object], swap_policy, h2d_bytes_per_s,
                 d2h_bytes_per_s) -> Dict[str, object]:
    """The one layout of a scenario fingerprint (see :meth:`Scenario.fingerprint`)."""
    return {
        "schema_version": RESULT_SCHEMA_VERSION,
        "swap_policy": swap_policy,
        "bandwidths": {"h2d_bytes_per_s": h2d_bytes_per_s,
                       "d2h_bytes_per_s": d2h_bytes_per_s},
        "config": config,
    }


def _canonical_parts(value, parts: List[str]) -> None:
    """Append ``_canonical_json(value)`` to ``parts``, each :class:`_Slot`
    a part of its own and each :class:`_Json` its text."""
    if type(value) is _Slot:
        parts.append(value)
    elif type(value) is _Json:
        parts.append(str(value))
    elif type(value) is dict:
        parts.append("{")
        for position, name in enumerate(sorted(value)):
            parts.append(("," if position else "") + _canonical_json(name) + ":")
            _canonical_parts(value[name], parts)
        parts.append("}")
    else:
        parts.append(_canonical_json(value))


@lru_cache(maxsize=256)
def _key_pieces(token: Tuple) -> Tuple[Tuple[str, ...], Tuple[int, ...]]:
    """The canonical JSON every fingerprint with ``token`` shares, cut at its
    per-row entries: the text pieces around them, and which entry of
    :data:`_ROW_SLOTS` fills each cut."""
    scalars, _reprs, *dicts = token
    config: Dict[str, object] = dict(zip(_STRUCTURE_SCALAR_NAMES, scalars))
    config.update(zip(_STRUCTURE_DICTS, map(_Json, dicts)))
    config.update((name, _Slot(name)) for name in _ROW_CONFIG_FIELDS)
    parts: List[str] = []
    _canonical_parts(_fingerprint(config, *map(_Slot, _ROW_SLOTS[-3:])), parts)
    pieces, slots = [""], []
    for part in parts:
        if type(part) is _Slot:
            slots.append(_ROW_SLOTS.index(part))
            pieces.append("")
        else:
            pieces[-1] += part
    return tuple(pieces), tuple(slots)


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

    def resolve_bandwidths(self) -> BandwidthConfig:
        """The Eq.-1 bandwidths this scenario is evaluated under.

        They come from the scenario's own device spec (for the paper's Titan
        X these are exactly the measured 6.3/6.4 GB/s), so the device axis
        changes the swap-feasibility results the way real hardware would.
        """
        return _preset_bandwidths(self.config.device_spec)

    def fingerprint(self) -> Dict[str, object]:
        """Canonical JSON-friendly identity of this scenario (cache key input).

        The cosmetic ``label`` is excluded: two scenarios that run the same
        workload hit the same cache entry regardless of how they are named.
        The Eq.-1 bandwidths are *included*: they shape
        ``swappable_fraction`` and every swap-policy summary, so results
        computed under different bandwidths must never share a cache entry.
        """
        bandwidths = self.resolve_bandwidths()
        config = self.config.to_dict()
        config.pop("label", None)
        return _fingerprint(config, self.swap_policy, bandwidths.h2d_bytes_per_s,
                            bandwidths.d2h_bytes_per_s)

    def key(self, token: Optional[Tuple] = None) -> str:
        """Content hash of the scenario (the cache file stem).

        ``sha256`` of the canonical JSON of :meth:`fingerprint`, byte for
        byte, built without the fingerprint: the row's pricing fields, policy
        and bandwidths are spliced into the text its structure token's
        fingerprints share (built once per token).  ``token`` is
        :func:`structure_token` of the config when the caller already has it
        (the runner groups replay rows by it too).
        """
        bandwidths = _preset_bandwidths(self.config.device_spec)
        pieces, slots = _key_pieces(structure_token(self.config)
                                    if token is None else token)
        row = (*_ROW_CONFIG(self.config), self.swap_policy,
               bandwidths.h2d_bytes_per_s, bandwidths.d2h_bytes_per_s)
        text = "".join([piece + _json_value(row[slot])
                        for piece, slot in zip(pieces, slots)]) + pieces[-1]
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """One-line description used by ``repro sweep --dry-run``."""
        c = self.config
        capacity = ("" if c.device_memory_capacity is None
                    else f" cap={c.device_memory_capacity}")
        return (f"{c.model}/{c.dataset} batch={c.batch_size} iters={c.iterations} "
                f"alloc={c.allocator} swap={self.swap_policy} device={c.device_spec} "
                f"dtype={c.dtype} ndev={c.n_devices} link={c.interconnect} "
                f"swap_exec={c.swap}{capacity}")


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

#: How a grid's scenarios run: simulated, or priced from trace templates.
EXECUTION_MODES = ("symbolic", "replay")


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
        if self.execution_mode not in EXECUTION_MODES:
            raise ValueError(
                f"unknown execution mode '{self.execution_mode}'; known modes: "
                f"{EXECUTION_MODES}")
        # "replay" routes the very same scenarios (identical fingerprints,
        # identical results) through the template-replay engine.
        via_replay = self.execution_mode == "replay"
        shared = {name: getattr(self, name) for name in SHARED_FIELDS}
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
