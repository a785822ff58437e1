"""The sweep runner: many scenarios, cache-first, fault-tolerant.

The paper's methodology is a *characterization*: the same instrumented
training loop is run across models, batch sizes, allocators and devices, and
each run is reduced to a handful of numbers (peak memory, ATI distribution,
swappable fraction, occupation breakdown, step time).  The sweep subsystem
makes that a first-class operation, one module per job:

* :mod:`~repro.experiments.grid` — :class:`SweepGrid` declares the cross
  product of scenario dimensions and expands it into :class:`Scenario`
  objects, whose content hash names their cache entry;
* :mod:`~repro.experiments.results` — :func:`run_scenario` executes one
  scenario and reduces its trace to a JSON-serializable
  :class:`ScenarioResult`;
* :mod:`~repro.experiments.failures` — :func:`classify_failure` and the
  :class:`FailureRecord` manifest entry;
* :mod:`~repro.experiments.executor` — serial and process-pool execution
  rounds, the pool's lifecycle and the per-scenario deadline;
* this module — :class:`SweepRunner` runs many scenarios over a
  content-addressed on-disk cache (a repeat sweep is served from JSON files
  in milliseconds) in four phases with a retry loop around the execution
  rounds, and serves a scenario's merged trace (:meth:`SweepRunner.trace`)
  to the figure experiments that read a trace rather than a result;
  :class:`SweepResult` aggregates the scenario results into a tidy summary
  table.

Every public name of the four modules above is re-exported here, so
``repro.experiments.sweep`` remains the one import site.  The figure
experiments (``fig2`` … ``fig7``, the swap planner), the ablations and the
report generator (``repro report``) are thin wrappers over this engine, so
``repro sweep`` on the command line, the figures and the tests all share one
execution path.

Cache layout
------------
``<cache_dir>/<sha256(fingerprint)>.json`` where the fingerprint is the
canonical JSON of the scenario's configuration plus
:data:`RESULT_SCHEMA_VERSION`.  Bumping the schema version (or changing any
config field) invalidates stale entries by construction; nothing is ever
deleted except by ``repro sweep --clear-cache``.  Run journals
(``journals/``) and the template store (``templates/``) are sub-directories;
every file in the tree is published, read, quarantined (``quarantine/``
beside it) and cleared by one
:class:`~repro.experiments.artifacts.ArtifactStore`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..core.swap import BandwidthConfig
from ..core.trace import MemoryTrace
from ..errors import ReproError
from ..train.session import run_training_session
from .artifacts import ArtifactStore
from .executor import ScenarioExecutor
from .failures import DETERMINISTIC, TRANSIENT, FailureRecord, classify_failure
from .faults import FaultPlan
from .grid import (CACHE_DIR_ENV, DEFAULT_CACHE_DIR, RESULT_SCHEMA_VERSION,
                   SWAP_EXECUTION_MODES, SWAP_POLICIES, Scenario, SweepGrid,
                   default_cache_dir)
from .journal import JOURNALS_DIR, RunJournal, clear_journals, run_id_for_keys
from .results import (ScenarioResult, assemble_result, reduce_session,
                      reduce_trace, run_scenario, scenario_identity)

__all__ = [
    "CACHE_DIR_ENV", "DEFAULT_CACHE_DIR", "DETERMINISTIC", "FailureRecord",
    "RESULT_SCHEMA_VERSION", "SWAP_EXECUTION_MODES", "SWAP_POLICIES", "Scenario",
    "ScenarioResult", "SweepGrid", "SweepResult", "SweepRunner", "TRANSIENT",
    "assemble_result", "classify_failure", "default_cache_dir", "reduce_session",
    "reduce_trace", "run_scenario", "scenario_identity",
    # Bound here for the benchmark harness, which checks that every module
    # importing the function by name is patched and restored with it.
    "run_training_session",
]


@dataclass
class SweepResult:
    """Aggregate outcome of one sweep invocation."""

    results: List[ScenarioResult]
    cache_hits: int
    cache_misses: int
    wall_time_s: float
    #: Scenarios priced by template replay (a subset of ``cache_misses``).
    replayed: int = 0
    #: Template *families* that needed a fresh compile this run (one family
    #: per dtype-free structure; store hits do not count).
    templates_compiled: int = 0
    #: Individual compile simulations run (>= ``templates_compiled`` when a
    #: family was widened with extra dtype variants).
    template_variants: int = 0
    #: Replay-eligible scenarios that fell back to fresh simulation, tallied
    #: by :class:`~repro.experiments.replay.TemplateError` reason code.
    replay_fallbacks: Dict[str, int] = field(default_factory=dict)
    #: Scenarios that terminally failed this run (the failure manifest);
    #: the partial ``results`` above still carry every scenario that
    #: completed.  Expansion order, like ``results``.
    failures: List[FailureRecord] = field(default_factory=list)
    #: Transient-failure re-submissions performed under the retry budget.
    retries: int = 0
    #: Corrupt artifacts moved aside this run, by kind (``cache_corrupt``,
    #: ``template_corrupt``, ``journal_corrupt``).
    quarantined: Dict[str, int] = field(default_factory=dict)
    #: Scenarios skipped because a prior run's journal already recorded
    #: their deterministic failure (``resume=True``).
    resumed_skipped: int = 0

    def __len__(self) -> int:
        return len(self.results)

    def failure_summary(self) -> str:
        """Multi-line failure footer for the CLI/report (empty when clean)."""
        if not self.failures:
            return ""
        lines = [f"{len(self.failures)} scenario(s) failed "
                 f"({self.retries} retries performed)"]
        lines.extend(f"  - {record.describe()}" for record in self.failures)
        if self.quarantined:
            tally = ", ".join(f"{kind}={count}"
                              for kind, count in sorted(self.quarantined.items()))
            lines.append(f"  quarantined artifacts: {tally}")
        return "\n".join(lines)

    def rows(self) -> List[Dict[str, object]]:
        """Tidy flat rows, one per scenario, in expansion order."""
        return [result.row() for result in self.results]

    def summary_table(self, columns: Optional[Sequence[str]] = None) -> str:
        """Fixed-width text table of the tidy rows."""
        from ..viz import render_table
        rows = self.rows()
        if not rows:
            return "(empty sweep)"
        if columns is None:
            columns = ["model", "dataset", "batch_size", "iterations", "allocator",
                       "swap_policy", "device_spec", "dtype", "n_devices",
                       "interconnect", "peak_alloc_mib", "step_time_ms",
                       "allreduce_ms", "ati_p50_us", "ati_p90_us", "swappable_frac",
                       "swap_savings_mib", "wall_s", "cached"]
            if any(row.get("swap", "off") != "off" for row in rows):
                columns[columns.index("swap_savings_mib"):
                        columns.index("swap_savings_mib") + 1] = [
                    "swap", "swap_measured_mib", "swap_predicted_mib",
                    "swap_stall_ms"]
            columns = [c for c in columns if c in rows[0]]
        return render_table(rows, columns=columns)


def _parse_cache_entry(data: Dict[str, object]) -> Optional[ScenarioResult]:
    """A cache entry's result; ``None`` when its schema is stale (a plain miss)."""
    if data.get("schema_version") != RESULT_SCHEMA_VERSION:
        return None
    result = ScenarioResult.from_dict(data["result"])
    result.from_cache = True
    return result


@dataclass
class _RunState:
    """Everything one :meth:`SweepRunner.run` accumulates across its phases."""

    scenarios: List[Scenario]
    #: Each scenario's Eq.-1 bandwidths, resolved once for keys and replay.
    bandwidths: List[BandwidthConfig]
    #: Each scenario's identity and its content hash, built once: the cache
    #: entry a key names carries the fingerprint the key hashes.
    fingerprints: List[Dict[str, object]]
    keys: List[str]
    journal: Optional[RunJournal]
    results: List[Optional[ScenarioResult]] = field(init=False)
    #: Outcomes observed per scenario index (the retry budget's meter).
    attempts: List[int] = field(init=False)
    #: Terminal failures by scenario index (the failure manifest).
    failures: Dict[int, FailureRecord] = field(default_factory=dict)
    retries: int = 0
    resumed_skipped: int = 0
    #: The replay phase's ``SweepResult`` counters (empty when it did not run).
    replay_counts: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        self.results = [None] * len(self.scenarios)
        self.attempts = [0] * len(self.scenarios)

    def missing(self) -> List[int]:
        """Indices with neither a result nor a terminal failure yet, in order."""
        return [index for index, result in enumerate(self.results)
                if result is None and index not in self.failures]


class SweepRunner:
    """Execute scenario sweeps with caching and optional process parallelism.

    Parameters
    ----------
    cache_dir:
        Directory of the content-addressed JSON cache.  ``None`` disables
        caching entirely (every scenario runs).
    workers:
        Number of worker processes; 1 runs scenarios serially in-process.
    use_cache:
        If false, cached entries are ignored (but fresh results are still
        written back when ``cache_dir`` is set).
    bandwidths:
        Explicit Eq.-1 bandwidth override for every scenario; ``None`` (the
        default) derives the bandwidths from each scenario's device spec.
    chunk_size:
        Scenarios submitted to a pool worker per task; ``None`` picks a size
        that gives every worker a few chunks (load balancing) while keeping
        the per-task dispatch overhead amortized.  A per-scenario
        ``timeout_s`` forces chunks of one (a deadline must map to exactly
        one scenario to kill).
    retries:
        Per-scenario budget of re-submissions after a *transient* failure
        (worker crash, timeout, injected fault, I/O error — see
        :func:`classify_failure`).  Deterministic failures are recorded once
        and never retried.
    backoff_s:
        Base of the deterministic exponential backoff between retry rounds:
        round ``n`` (1-based) sleeps ``backoff_s * 2**(n-1)`` first.
    timeout_s:
        Per-scenario wall-clock deadline.  On the pool path an overdue
        scenario gets its workers killed and the pool rebuilt; on the serial
        path the deadline is checked post-hoc (a pure simulation cannot be
        preempted in-process).
    strict:
        When true (the default, the historical behavior) the first terminal
        failure is re-raised after the run drains.  When false, failures are
        returned in ``SweepResult.failures`` and the partial results stand.
    resume:
        Consult the per-grid run journal (kept whenever a ``cache_dir`` is
        configured): scenarios that already failed
        deterministically in a prior run are skipped (resurfaced as
        ``resumed`` failure records) instead of re-executed.
    fault_plan:
        A deterministic :class:`~repro.experiments.faults.FaultPlan` to
        inject; ``None`` falls back to the ``REPRO_FAULT_PLAN`` environment
        hook (and to no-op when that is unset too).

    The worker pool is created lazily on the first parallel :meth:`run` and
    *reused across runs* — repeated sweeps (the report generator issues
    several) never pay the process-spawn cost twice.  Call :meth:`close` (or
    use the runner as a context manager) to shut the pool down eagerly.
    """

    def __init__(self, cache_dir: Optional[Union[str, Path]] = None, workers: int = 1,
                 use_cache: bool = True,
                 bandwidths: Optional[BandwidthConfig] = None,
                 chunk_size: Optional[int] = None,
                 retries: int = 0,
                 backoff_s: float = 0.05,
                 timeout_s: Optional[float] = None,
                 strict: bool = True,
                 resume: bool = False,
                 fault_plan: Optional[FaultPlan] = None):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.workers = max(1, int(workers))
        self.use_cache = bool(use_cache)
        self.bandwidths = bandwidths
        self.chunk_size = chunk_size
        self.retries = max(0, int(retries))
        self.backoff_s = max(0.0, float(backoff_s))
        self.timeout_s = None if timeout_s is None else float(timeout_s)
        self.strict = bool(strict)
        self.resume = bool(resume)
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
        #: The cache directory's artifact store (journals and templates are
        #: sub-stores sharing its tallies); ``None`` when caching is off.
        self._artifacts = (ArtifactStore(self.cache_dir, self.fault_plan)
                           if self.cache_dir is not None else None)
        #: Runs the execution rounds; owns the reusable worker pool.
        self._executor = ScenarioExecutor(self.workers, self.chunk_size,
                                          self.timeout_s, self.bandwidths,
                                          self.fault_plan)
        self._replay_engine = None  # lazy ReplayEngine (replay scenarios only)

    def close(self) -> None:
        """Shut down the reusable worker pool (idempotent)."""
        self._executor.close()

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- cache ------------------------------------------------------------------------

    def cache_load(self, scenario: Scenario,
                   key: Optional[str] = None) -> Optional[ScenarioResult]:
        """Load one scenario's cached result (None on miss or corrupt entry).

        ``key`` is the scenario's content hash when the caller already has it
        (:meth:`run` hashes every scenario exactly once).

        A schema-version mismatch is a legitimate invalidation (the entry is
        simply ignored); an *unparseable* entry is corruption — the artifact
        store quarantines it and tallies ``cache_corrupt`` (surfaced in
        :attr:`SweepResult.quarantined`) before the miss is reported.
        """
        if self._artifacts is None:
            return None
        if key is None:
            key = scenario.key(self.bandwidths)
        return self._artifacts.read_json(f"{key}.json", "cache_corrupt",
                                         _parse_cache_entry)

    def cache_store(self, scenario: Scenario, result: ScenarioResult,
                    key: Optional[str] = None,
                    fingerprint: Optional[Dict[str, object]] = None) -> None:
        """Write one scenario result to the cache (atomic publish).

        ``key`` and ``fingerprint`` are the scenario's content hash and the
        identity it hashes, when the caller already has them (:meth:`run`
        builds both exactly once per scenario).

        A failed write is tallied on the artifact store but never fatal:
        losing a cache entry only costs recomputation next run, while
        aborting the sweep would discard finished work.
        """
        if self._artifacts is None:
            return
        if fingerprint is None:
            fingerprint = scenario.fingerprint(self.bandwidths)
        if key is None:
            key = scenario.key(fingerprint=fingerprint)
        name = f"{key}.json"
        if self._artifacts.publish_json(name, {
                "schema_version": RESULT_SCHEMA_VERSION,
                "fingerprint": fingerprint,
                "result": result.to_dict()}) is not None:
            self._artifacts.inject_fault("cache_corrupt", name)

    def clear_cache(self) -> int:
        """Delete every cache entry; returns the number of results removed.

        Run journals, the template store and quarantined artifacts are wiped
        along with the entries they describe, but are *not* counted: callers
        display the number of results invalidated.
        """
        if self._artifacts is None:
            return 0
        clear_journals(self._artifacts)
        self._template_store().clear()
        return self._artifacts.clear("*.json")

    # -- replay -----------------------------------------------------------------------

    def _template_store(self):
        """The template store beside the result cache (``None`` without one)."""
        if self._artifacts is None:
            return None
        from .template_store import TEMPLATES_DIR, TemplateStore
        return TemplateStore(self._artifacts.sub(TEMPLATES_DIR))

    def _ensure_replay_engine(self):
        """The lazily-built replay engine (persists templates beside the cache)."""
        if self._replay_engine is None:
            from .replay import ReplayEngine
            self._replay_engine = ReplayEngine(store=self._template_store())
        return self._replay_engine

    def trace(self, scenario: Scenario) -> MemoryTrace:
        """The merged trace a fresh run of ``scenario`` records, bit for bit.

        Inside the replay envelope (symbolic, swap engine off — whatever
        ``via_replay`` says) the trace is rebuilt from the runner's template:
        memoized, else loaded from the store beside the cache, else compiled
        once and published there.  Outside it — or when the template declines
        the config (capacity, failed capture) — the scenario is simulated.
        In-process and strict: an error raises.
        """
        config = scenario.config
        template = self._ensure_replay_engine().template_for(config)
        if template is not None and template.valid_for(config):
            return template.replay_trace(config)
        return run_training_session(config).trace

    # -- execution --------------------------------------------------------------------

    def run(self, grid_or_scenarios: Union[SweepGrid, Sequence[Scenario]]) -> SweepResult:
        """Run every scenario (cache-first), preserving expansion order.

        Four phases over one :class:`_RunState`: cache probe, resume skip
        (prior deterministic failures, when ``resume=True``), replay, then
        the guarded retry/timeout execution loop.  Each result is cached and
        journaled the moment it completes, so an interrupt at any instant
        loses at most the work in flight.  With ``strict=True`` (the default)
        the first terminal failure is re-raised after everything drains;
        otherwise failures are returned in :attr:`SweepResult.failures` next
        to the partial results.
        """
        if isinstance(grid_or_scenarios, SweepGrid):
            scenarios = grid_or_scenarios.expand()
        else:
            scenarios = list(grid_or_scenarios)
        started = time.perf_counter()

        bandwidths = [scenario.resolve_bandwidths(self.bandwidths)
                      for scenario in scenarios]
        fingerprints = [scenario.fingerprint(resolved)
                        for scenario, resolved in zip(scenarios, bandwidths)]
        keys = [scenario.key(fingerprint=fingerprint)
                for scenario, fingerprint in zip(scenarios, fingerprints)]
        journal: Optional[RunJournal] = None
        if self._artifacts is not None:
            self._artifacts.quarantined.clear()  # tallies are per run
            self._artifacts.io_errors.clear()
            if self.resume:
                journal = RunJournal.for_keys(self._artifacts, keys,
                                              RESULT_SCHEMA_VERSION)
            else:
                # A fresh run voids the prior bookkeeping without reading it:
                # an unloaded journal starts its file over at the first record.
                journal = RunJournal(
                    self._artifacts.sub(JOURNALS_DIR),
                    run_id_for_keys(keys, RESULT_SCHEMA_VERSION))
        state = _RunState(scenarios, bandwidths, fingerprints, keys, journal)

        self._probe_cache(state)
        self._skip_resumed(state)
        self._replay(state)
        self._execute(state)

        failures = [state.failures[index] for index in sorted(state.failures)]
        if self.strict and failures:
            first = failures[0]
            if first.error_obj is not None:
                raise first.error_obj
            raise ReproError(first.error)

        cache_hits = sum(1 for result in state.results
                         if result is not None and result.from_cache)
        return SweepResult(
            results=[result for result in state.results if result is not None],
            cache_hits=cache_hits,
            cache_misses=len(scenarios) - cache_hits,
            wall_time_s=time.perf_counter() - started,
            failures=failures,
            retries=state.retries,
            quarantined=(dict(self._artifacts.quarantined)
                         if self._artifacts is not None else {}),
            resumed_skipped=state.resumed_skipped,
            **state.replay_counts,
        )

    def _probe_cache(self, state: _RunState) -> None:
        """Phase 1: serve every scenario the result cache already holds."""
        if not self.use_cache:
            return
        for index, scenario in enumerate(state.scenarios):
            state.results[index] = self.cache_load(scenario, state.keys[index])

    def _skip_resumed(self, state: _RunState) -> None:
        """Phase 2 (``resume=True``): skip prior deterministic failures.

        Re-running them cannot change the outcome, so they are resurfaced in
        the manifest marked ``resumed``.  Transient failures re-run with a
        fresh budget; completed scenarios were already served by the cache
        probe (data wins over bookkeeping).
        """
        if not self.resume or state.journal is None:
            return
        for index in state.missing():
            prior = state.journal.deterministic_failure(state.keys[index])
            if prior is None:
                continue
            reason = str(prior.get("reason", "error"))
            state.failures[index] = FailureRecord(
                scenario=scenario_identity(state.scenarios[index]),
                key=state.keys[index],
                reason=reason,
                kind=DETERMINISTIC,
                attempts=int(prior.get("attempts", 1)),
                error=(f"skipped: a prior run recorded a "
                       f"deterministic '{reason}' failure"),
                resumed=True,
            )
            state.resumed_skipped += 1

    def _replay(self, state: _RunState) -> None:
        """Phase 3: price the ``via_replay`` scenarios from trace templates.

        Replay runs serially in-process: pricing a scenario from a memoized
        template is far cheaper than shipping it to a pool worker.  The
        engine groups the scenarios by structure and prices each group as a
        single broadcast.  Scenarios it declines (no template, structure
        invalid for the target capacity, swap engine on) stay missing and
        take the ordinary simulation path, with the decline reason tallied
        in ``replay_fallbacks`` — a group the engine *crashed* on degrades
        the same way (reason ``engine_error``, traceback logged).
        """
        candidates = [index for index in state.missing()
                      if state.scenarios[index].via_replay]
        if not candidates:
            return
        engine = self._ensure_replay_engine()
        outcomes = engine.price_batch(
            [state.scenarios[index] for index in candidates],
            [state.bandwidths[index] for index in candidates],
            [state.keys[index] for index in candidates])
        for index, result in zip(candidates, outcomes):
            if result is not None:
                self._record_success(state, index, result)
        state.replay_counts = dict(
            replayed=engine.replayed,
            templates_compiled=engine.templates_compiled,
            template_variants=engine.variants_captured,
            replay_fallbacks=dict(engine.fallback_reasons))

    def _execute(self, state: _RunState) -> None:
        """Phase 4: run what is still missing under the retry policy.

        Scenarios execute in rounds: every pending scenario is submitted,
        outcomes are classified, transient failures within budget re-enter
        the next round (after a deterministic exponential backoff), terminal
        outcomes are recorded.  A scenario whose round died *around* it (the
        pool broke before its chunk was submitted) re-enters without
        spending an attempt — only observed outcomes consume budget, which
        both bounds the loop (the culprit's budget drains) and never charges
        an innocent scenario for its neighbor's crash.
        """
        round_number = 0
        pending = state.missing()
        while pending:
            if round_number > 0 and self.backoff_s > 0:
                time.sleep(self.backoff_s * (2 ** (round_number - 1)))
            errors = self._executor.run_round(
                state.scenarios, state.keys, state.attempts, pending,
                lambda index, result: self._record_success(state, index, result))
            round_number += 1
            for index in pending:
                if state.results[index] is not None:
                    continue  # persisted by the round the moment it finished
                outcome = errors.get(index)
                if outcome is None:
                    # Never actually ran this round (unsubmitted when the
                    # pool died): re-enter without consuming an attempt.
                    continue
                state.attempts[index] += 1
                error, trace_text = outcome
                reason, kind = classify_failure(error)
                if kind == TRANSIENT and state.attempts[index] <= self.retries:
                    state.retries += 1
                    continue
                state.failures[index] = FailureRecord(
                    scenario=scenario_identity(state.scenarios[index]),
                    key=state.keys[index],
                    reason=reason,
                    kind=kind,
                    attempts=state.attempts[index],
                    error=str(error),
                    traceback=trace_text,
                    error_obj=error,
                )
                if state.journal is not None:
                    state.journal.record_failed(state.keys[index], reason, kind,
                                                state.attempts[index])
            pending = state.missing()

    def _record_success(self, state: _RunState, index: int,
                        result: ScenarioResult) -> None:
        """Persist one completed scenario *immediately* (crash safety).

        Caching and journaling happen the moment the result lands in the
        parent, not at end-of-round: an interrupt a millisecond later loses
        nothing that already finished.
        """
        state.attempts[index] += 1
        state.results[index] = result
        self.cache_store(state.scenarios[index], result, state.keys[index],
                         state.fingerprints[index])
        if state.journal is not None:
            state.journal.record_completed(state.keys[index],
                                           state.attempts[index])
