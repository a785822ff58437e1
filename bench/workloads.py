"""The six benchmark workloads: seeded inputs, ``prepare()``, one timed sample.

Every workload turns ``--seed`` into a list of :class:`Scenario` objects (or,
for ``cli_pool``, a command line) with its own ``random.Random``; the program
under test only ever sees those generated inputs.  The seed draws the
host-dispatch-overhead points, the ``seeds=`` axis value and the order of the
scenarios — never the *amount* of work, so runs with different seeds are
comparable (the acceptance protocol measures spread across seeds).

Why each workload exists is recorded in ``BENCHMARK.json`` and
``bench/README.md``; the short form is in each class docstring.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.experiments.sweep import (Scenario, ScenarioResult, SweepGrid,
                                     SweepResult, SweepRunner, run_scenario)
from repro.units import MIB

#: ``src/`` of the checkout this harness sits in (children get it as PYTHONPATH).
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

#: Environment variables through which a developer's shell could reach the
#: program under test (default cache location, fault injection).
SCRUBBED_ENV = ("REPRO_SWEEP_CACHE", "REPRO_FAULT_PLAN")

#: The three workload structures every grid is built from.
STRUCTURES = {
    "resnet18": dict(models=("resnet18",), batch_sizes=(8,), dataset="cifar10",
                     model_kwargs={"input_size": 32, "num_classes": 10}),
    "vgg11": dict(models=("vgg11",), batch_sizes=(8,), dataset="cifar10",
                  model_kwargs={"input_size": 32, "num_classes": 10}),
    "mlp": dict(models=("mlp",), batch_sizes=(512,), dataset="two_cluster",
                model_kwargs={"hidden_dim": 1024, "num_hidden_layers": 4}),
}
DEVICE_AXIS = ("titan_x_pascal", "v100_sxm2_16gb", "gtx_1080_8gb",
               "ampere_a100_40gb")
DTYPE_AXIS = ("float32", "float16")
SWAP_MODES = ("off", "planner", "swap_advisor", "zero_offload", "lru", "unified")
CAPACITY_LADDER_MIB = (64, 96, 128, 192, 256)

#: Grid sizes.  The issue's prototype sizes are cut where a sample would
#: otherwise not repeat five times inside one ``--seconds`` window
#: (sim_mixed 24 -> 12, swap_ladder 28 -> 23, cache_* 416 -> 208, cli_pool
#: 24 -> 12 scenarios; replay_price keeps its 1184).
REPLAY_OVERHEADS = 48        # replay_price: 3 x 4 x 2 x 48 + 32 = 1184 scenarios
CACHE_OVERHEADS = 8          # cache_*:      3 x 4 x 2 x  8 + 16 =  208 scenarios
MULTI_RANK_OVERHEADS = 8     # overhead points of the n_devices=2 rows
CACHE_MULTI_RANK_OVERHEADS = 4
CACHE_READ_PASSES = 8
CHECK_SAMPLE = 12            # scenarios re-simulated by differential check (b)


def scrub_environment() -> None:
    """A developer's shell must neither inject faults nor move the cache."""
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: scrubbed, ``PYTHONPATH`` = our src."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC_DIR)
    return env


# -- payloads -------------------------------------------------------------------------


def _without_block_ids(execution: Optional[Dict[str, object]]):
    """``swap_execution`` minus the ``block_id`` of each predicted decision.

    Block ids come from a process-global allocation counter, so the same
    scenario reports different ids depending on what ran before it in the
    process; everything else in the summary is a function of the scenario.
    (A defect in the program under test, recorded in ``bench/README.md``;
    the harness compares what is deterministic and says so.)
    """
    predicted = (execution or {}).get("predicted") or {}
    if not predicted.get("decisions"):
        return execution
    decisions = [{k: v for k, v in decision.items() if k != "block_id"}
                 for decision in predicted["decisions"]]
    return {**execution, "predicted": {**predicted, "decisions": decisions}}


def normalized(result: ScenarioResult) -> ScenarioResult:
    """``result`` without its host-side fields (wall time, cache provenance,
    process-global block ids): equal scenarios give equal normalized results."""
    return dataclasses.replace(
        result, wall_time_s=0.0, from_cache=False,
        swap_execution=_without_block_ids(result.swap_execution))


def payload(result: ScenarioResult) -> Dict[str, object]:
    """The deterministic payload: ``to_dict()`` minus ``wall_time_s``."""
    data = normalized(result).to_dict()
    data.pop("wall_time_s", None)
    return data


def sim_digest(results: Sequence[ScenarioResult]) -> str:
    """sha256 over the canonical payloads, sorted by scenario key."""
    digest = hashlib.sha256()
    for result in sorted(results, key=lambda r: r.key):
        digest.update(json.dumps(payload(result), sort_keys=True,
                                 separators=(",", ":")).encode("utf-8"))
    return digest.hexdigest()


def count_drift(results: Sequence[ScenarioResult],
                reference: Dict[str, ScenarioResult]) -> int:
    """Results whose payload differs from (or is missing in) ``reference``."""
    return sum(1 for result in results
               if reference.get(result.key) != normalized(result))


@dataclasses.dataclass
class Sample:
    """Outcome of one timed sample."""

    wall_s: float
    results: List[ScenarioResult]
    attempted: int
    failed: int = 0
    #: One per ``SweepRunner.run`` call (empty for ``cli_pool``).
    sweeps: List[SweepResult] = dataclasses.field(default_factory=list)
    #: Bytes the sample left on disk, by artifact kind (measured untimed).
    artifacts: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Per-sample check failures (human-readable).
    errors: List[str] = dataclasses.field(default_factory=list)

    @property
    def events(self) -> int:
        """Simulated memory behaviours the sample's results carry."""
        return sum(result.num_events for result in self.results)


def _sweep_sample(sweeps: List[SweepResult], attempted: int, wall_s: float,
                  **extra) -> Sample:
    # strict=False runners: a scenario that raised, was refused or landed in
    # SweepResult.failures is simply absent from the results.
    results = [result for sweep in sweeps for result in sweep.results]
    return Sample(wall_s=wall_s, results=results, attempted=attempted,
                  failed=attempted - len(results), sweeps=sweeps, **extra)


def _dir_bytes(directory: Path, pattern: str) -> int:
    return sum(path.stat().st_size for path in directory.glob(pattern))


# -- generation helpers ---------------------------------------------------------------


def _expand(structure: str, **axes) -> List[Scenario]:
    kwargs = dict(STRUCTURES[structure])
    kwargs.update(axes)
    return SweepGrid(**kwargs).expand()


def _overheads(rng: random.Random, count: int) -> List[int]:
    """``count`` distinct host-dispatch overheads (ns), seeded."""
    return sorted(rng.sample(range(200, 12_000, 25), count))


def _pricing_scenarios(rng: random.Random, overheads: int,
                       multi_rank_overheads: int) -> List[Scenario]:
    """Replay-routed pricing grid: 3 structures x 4 specs x 2 dtypes x
    ``overheads`` points, plus the multi-rank rows (resnet18 on 2 devices x 2
    specs x 2 interconnects x ``multi_rank_overheads`` points)."""
    model_seed = rng.randrange(1, 1_000_000)
    scenarios: List[Scenario] = []
    for structure in STRUCTURES:
        scenarios += _expand(
            structure, execution_mode="replay", iterations=(3,),
            device_specs=DEVICE_AXIS, dtypes=DTYPE_AXIS, seeds=(model_seed,),
            host_dispatch_overheads_ns=_overheads(rng, overheads))
    scenarios += _expand(
        "resnet18", execution_mode="replay", iterations=(3,), n_devices=(2,),
        device_specs=(DEVICE_AXIS[0], DEVICE_AXIS[2]), seeds=(model_seed,),
        interconnects=("pcie_gen3", "nvlink2"),
        host_dispatch_overheads_ns=_overheads(rng, multi_rank_overheads))
    return scenarios


def _structure_representatives(scenarios: Sequence[Scenario]) -> List[Scenario]:
    """One scenario per template variant (structure x dtype x replica count)."""
    seen: Dict[tuple, Scenario] = {}
    for scenario in scenarios:
        config = scenario.config
        seen.setdefault((config.model, config.dtype, config.n_devices), scenario)
    return list(seen.values())


class Workload:
    """Base class: seeded inputs, one-off ``prepare()``, repeatable ``sample()``."""

    name = ""
    #: Install the per-event span wrappers for this workload's traced pass
    #: (only where a simulation actually runs inside the sample).
    fine_spans = False

    def __init__(self, seed: int, tmp_root: Path):
        self.seed = int(seed)
        self.tmp_root = Path(tmp_root)
        self.rng = random.Random(f"{self.name}:{self.seed}")
        self._counter = 0
        self.scenarios: List[Scenario] = self.generate()
        #: The scenario ``prepare()`` warms the interpreter up on: the first
        #: one generated, so set-up costs the same whatever the shuffle.
        self.warmup = self.scenarios[0]
        self.rng.shuffle(self.scenarios)

    def generate(self) -> List[Scenario]:
        """The workload's scenarios, in generation order (shuffled afterwards)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """One-off set-up charged to ``setup_s`` (compiles, store population)."""

    def sample(self) -> Sample:
        raise NotImplementedError

    def reference(self) -> Optional[List[ScenarioResult]]:
        """Results later samples must reproduce; ``None`` = the first sample's."""
        return None

    def check(self, reference: Dict[str, ScenarioResult]) -> List[str]:
        """Workload-specific differential checks, run once after timing."""
        return []

    def fresh_dir(self, stem: str) -> Path:
        self._counter += 1
        return self.tmp_root / f"{self.name}-{stem}-{self._counter}"

    def resimulate_check(self, reference: Dict[str, ScenarioResult],
                         count: int = CHECK_SAMPLE) -> List[str]:
        """Check (b)/(d): a seeded sample of scenarios re-run through a fresh
        symbolic ``run_scenario`` must equal the payload the workload produced."""
        errors = []
        picks = self.rng.sample(self.scenarios, min(count, len(self.scenarios)))
        for scenario in picks:
            fresh = run_scenario(dataclasses.replace(scenario, via_replay=False))
            if reference.get(fresh.key) != normalized(fresh):
                errors.append(f"{self.name}: fresh simulation of "
                              f"{scenario.describe()} differs from the "
                              f"workload's payload")
        return errors


class SimMixed(Workload):
    """Cold simulation: 12 symbolic scenarios, serial, no cache, no replay."""

    name = "sim_mixed"
    fine_spans = True

    def generate(self) -> List[Scenario]:
        model_seed = self.rng.randrange(1, 1_000_000)
        scenarios: List[Scenario] = []
        # 3 structures x n_devices {1,2}; in every cell one scenario per
        # allocator, one of them fp32 and one fp16, one under each offline
        # policy.  The seed picks which allocator gets which dtype and policy,
        # so the work per sample does not depend on the seed.
        for structure in STRUCTURES:
            for n_devices in (1, 2):
                dtypes, policies = list(DTYPE_AXIS), ["none", "planner"]
                self.rng.shuffle(dtypes)
                self.rng.shuffle(policies)
                for allocator, dtype, policy in zip(("caching", "best_fit"),
                                                    dtypes, policies):
                    scenarios += _expand(
                        structure, iterations=(3,), n_devices=(n_devices,),
                        allocators=(allocator,), dtypes=(dtype,),
                        swap_policies=(policy,), seeds=(model_seed,))
        return scenarios

    def prepare(self) -> None:
        self.runner = SweepRunner(cache_dir=None, workers=1, strict=False)
        run_scenario(self.warmup)   # warm lazy imports and numpy paths

    def sample(self) -> Sample:
        started = time.perf_counter()
        sweep = self.runner.run(self.scenarios)
        wall_s = time.perf_counter() - started
        return _sweep_sample([sweep], len(self.scenarios), wall_s)


class ReplayPrice(Workload):
    """Steady-state repricing: 1184 scenarios priced from 4 compiled families."""

    name = "replay_price"

    def generate(self) -> List[Scenario]:
        return _pricing_scenarios(self.rng, REPLAY_OVERHEADS, MULTI_RANK_OVERHEADS)

    def prepare(self) -> None:
        # One long-lived runner; compiling its families here puts the compile
        # in setup_s and leaves the timed samples pure repricing.
        self.runner = SweepRunner(cache_dir=None, workers=1, strict=False)
        self.runner.run(_structure_representatives(self.scenarios))

    def sample(self) -> Sample:
        started = time.perf_counter()
        sweep = self.runner.run(self.scenarios)
        wall_s = time.perf_counter() - started
        sample = _sweep_sample([sweep], len(self.scenarios), wall_s)
        if sweep.replay_fallbacks:   # check (f)
            sample.errors.append(f"replay_price: replay declined scenarios: "
                                 f"{sweep.replay_fallbacks}")
        return sample

    def check(self, reference):
        return self.resimulate_check(reference)


class SwapLadder(Workload):
    """Swap engine and capacity governor under pressure: 23 serial scenarios."""

    name = "swap_ladder"
    fine_spans = True

    def generate(self) -> List[Scenario]:
        common = dict(iterations=(5,), seeds=(self.rng.randrange(1, 1_000_000),))
        # Every executable policy on a 4096-wide MLP (at 2048 no block reaches
        # the planner family's 32 MiB candidate floor and three of the six
        # modes would plan nothing) ...
        scenarios = _expand(
            "mlp", swaps=SWAP_MODES,
            model_kwargs={"hidden_dim": 4096, "num_hidden_layers": 4}, **common)
        # ... the capacity ladder on the 2048-wide one (every rung feasible,
        # the lower three under real eviction pressure) ...
        scenarios += _expand(
            "mlp", swaps=("lru", "unified"),
            model_kwargs={"hidden_dim": 2048, "num_hidden_layers": 4},
            device_memory_capacities=[mib * MIB for mib in CAPACITY_LADDER_MIB],
            **common)
        # ... and a conv net, whose many small blocks make the per-event
        # executor callbacks and plan() the cost; one multi-rank row for the
        # rank-partitioned zero_offload path.
        scenarios += _expand("resnet18", swaps=SWAP_MODES, **common)
        scenarios += _expand("resnet18", swaps=("zero_offload",), n_devices=(2,),
                             **common)
        return scenarios

    def prepare(self) -> None:
        self.runner = SweepRunner(cache_dir=None, workers=1, strict=False)
        run_scenario(self.warmup)

    def sample(self) -> Sample:
        started = time.perf_counter()
        sweep = self.runner.run(self.scenarios)
        wall_s = time.perf_counter() - started
        sample = _sweep_sample([sweep], len(self.scenarios), wall_s)
        for result in sweep.results:   # check (e)
            capacity = result.scenario.get("device_memory_capacity")
            execution = result.swap_execution or {}
            if capacity is not None and \
                    execution.get("peak_resident_bytes", 0) > capacity:
                sample.failed += 1
                sample.errors.append(
                    f"swap_ladder: peak_resident_bytes "
                    f"{execution.get('peak_resident_bytes')} > capacity {capacity}")
        return sample


class _CacheWorkload(Workload):
    """Shared by ``cache_write`` / ``cache_read``: the two-session store write."""

    def __init__(self, seed: int, tmp_root: Path):
        super().__init__(seed, tmp_root)
        first = set(DEVICE_AXIS[:2])
        self.sessions = (
            [s for s in self.scenarios if s.config.device_spec in first],
            [s for s in self.scenarios if s.config.device_spec not in first])

    def generate(self) -> List[Scenario]:
        return _pricing_scenarios(self.rng, CACHE_OVERHEADS,
                                  CACHE_MULTI_RANK_OVERHEADS)

    def write_store(self, directory: Path) -> List[SweepResult]:
        """Price the grid into ``directory`` in two sessions.

        Runner A compiles the families and publishes them through the
        template store; a second, fresh runner on the same directory gets
        them back through ``TemplateStore.load`` and compiles nothing.
        """
        sweeps = []
        for part in self.sessions:
            with SweepRunner(cache_dir=directory, workers=1, strict=False) as runner:
                sweeps.append(runner.run(part))
        return sweeps


class CacheWrite(_CacheWorkload):
    """Persistence writes: result cache + journal + template store, fresh dir."""

    name = "cache_write"

    def prepare(self) -> None:
        run_scenario(dataclasses.replace(self.warmup, via_replay=False))

    def sample(self) -> Sample:
        directory = self.fresh_dir("cache")
        started = time.perf_counter()
        sweeps = self.write_store(directory)
        wall_s = time.perf_counter() - started
        sample = _sweep_sample(
            sweeps, len(self.scenarios), wall_s,
            artifacts={"cache_bytes": _dir_bytes(directory, "*.json"),
                       "template_bytes": _dir_bytes(directory / "templates", "*")})
        if sweeps[1].templates_compiled:
            sample.errors.append("cache_write: the second session recompiled "
                                 f"{sweeps[1].templates_compiled} families")
        if any(sweep.replay_fallbacks for sweep in sweeps):
            sample.errors.append("cache_write: replay declined scenarios")
        shutil.rmtree(directory, ignore_errors=True)
        return sample

    def check(self, reference):
        return self.resimulate_check(reference)


class CacheRead(_CacheWorkload):
    """Persistence reads: the same grid served from a populated store."""

    name = "cache_read"

    def prepare(self) -> None:
        self.store = self.fresh_dir("store")
        self._written = [result for sweep in self.write_store(self.store)
                         for result in sweep.results]

    def reference(self):
        return self._written

    def sample(self) -> Sample:
        sweeps = []
        started = time.perf_counter()
        for _ in range(CACHE_READ_PASSES):
            with SweepRunner(cache_dir=self.store, workers=1, strict=False,
                             resume=True) as runner:
                sweeps.append(runner.run(self.scenarios))
        wall_s = time.perf_counter() - started
        sample = _sweep_sample(sweeps, CACHE_READ_PASSES * len(self.scenarios),
                               wall_s)
        for sweep in sweeps:   # check (c)
            if sweep.cache_hits != len(self.scenarios):
                sample.failed += len(self.scenarios) - sweep.cache_hits
                sample.errors.append(f"cache_read: {sweep.cache_hits} hits of "
                                     f"{len(self.scenarios)}")
        return sample


class CliPool(Workload):
    """What a user types: ``python -m repro sweep ... --workers 2`` end to end."""

    name = "cli_pool"

    def generate(self) -> List[Scenario]:
        self.model_seeds = sorted(self.rng.sample(range(1, 1_000_000), 3))
        return _expand("resnet18", iterations=(3,), n_devices=(1, 2),
                       dtypes=DTYPE_AXIS, seeds=self.model_seeds)

    def command(self, cache_dir: Path, *extra: str) -> List[str]:
        return [sys.executable, "-m", "repro", "sweep",
                "--models", "resnet18", "--dataset", "cifar10",
                "--input-size", "32", "--num-classes", "10",
                "--batch-sizes", "8", "--iterations", "3", "--n-devices", "1,2",
                "--dtypes", "float32,float16",
                "--seeds", ",".join(str(seed) for seed in self.model_seeds),
                "--workers", "2", "--cache-dir", str(cache_dir), "--json", *extra]

    def sample(self) -> Sample:
        directory = self.fresh_dir("cache")
        started = time.perf_counter()
        completed = subprocess.run(self.command(directory), env=child_env(),
                                   cwd=self.tmp_root, capture_output=True,
                                   text=True, timeout=150)
        wall_s = time.perf_counter() - started
        results = []
        for path in sorted(directory.glob("*.json")):
            with open(path, "r", encoding="utf-8") as handle:
                results.append(ScenarioResult.from_dict(json.load(handle)["result"]))
        sample = Sample(
            wall_s=wall_s, results=results, attempted=len(self.scenarios),
            failed=len(self.scenarios) - len(results),
            artifacts={"cache_bytes": _dir_bytes(directory, "*.json")})
        if completed.returncode != 0:
            sample.failed = len(self.scenarios)
            sample.errors.append(f"cli_pool: exit code {completed.returncode}: "
                                 f"{completed.stderr.strip()[-400:]}")
        shutil.rmtree(directory, ignore_errors=True)
        return sample

    def check(self, reference):
        # Check (d): the files the CLI wrote equal in-process run_scenario.
        return self.resimulate_check(reference, count=len(self.scenarios))


WORKLOADS = {cls.name: cls for cls in (SimMixed, ReplayPrice, SwapLadder,
                                       CacheWrite, CacheRead, CliPool)}
