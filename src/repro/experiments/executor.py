"""Scenario execution rounds: serially in-process, or across a process pool.

A *round* runs every pending scenario once and reports what happened to each:
successes are handed to the caller's ``on_success`` the moment they land,
failures come back as ``index -> (error, traceback text)``, and an index with
neither never ran (the pool died before its chunk was submitted).  What a
failure means — retry, record, re-raise — is the runner's business
(:mod:`repro.experiments.sweep`); this module owns the pool's lifecycle,
chunked submission (about four chunks per worker), the in-band transport of
worker failures and the per-scenario deadline.  Every row runs under the
content hash the runner computed for it, which its result carries: a round
hashes no key.

Rows that differ only in ``swap`` and ``device_memory_capacity`` overlay one
swap-off recording (:func:`~repro.experiments.grid.recording_token`): a
round walks its rows, and a chunk holds them, in recording order, and each
row hands its recording to the next row with the same token — at most one
recording is alive per round or chunk.  Under ``timeout_s`` every chunk is
one row, so nothing is shared.
"""

from __future__ import annotations

import time
import traceback as traceback_module
import weakref
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ScenarioTimeoutError
from .faults import FaultPlan
from .grid import Scenario, recording_token
from .results import ScenarioResult, run_scenario_on

#: What a round reports per failed scenario index: the error and the
#: traceback text (empty when the failure is the pool's, not the scenario's).
RoundErrors = Dict[int, Tuple[BaseException, str]]


class _RemoteTraceback(Exception):
    """Carries a worker's formatted traceback across the process boundary."""

    def __init__(self, formatted: str):
        self.formatted = formatted

    def __str__(self) -> str:
        return self.formatted


@dataclass
class _ScenarioFailure:
    """In-band record of one scenario's failure inside a pool worker."""

    error: Exception
    traceback: str

    def unwrap(self) -> Exception:
        """The original exception, chained to the worker's traceback text."""
        self.error.__cause__ = _RemoteTraceback(f"\n{self.traceback}")
        return self.error


def _in_recording_order(scenarios: Sequence[Scenario],
                        indices: Sequence[int]) -> List[int]:
    """``indices`` with the rows that share a recording token made adjacent:
    groups in order of first appearance, expansion order inside each."""
    groups: Dict[Tuple, List[int]] = {}
    for index in indices:
        groups.setdefault(recording_token(scenarios[index].config), []).append(index)
    return [index for group in groups.values() for index in group]


class _SharedRecording:
    """The one swap-off recording a round or a chunk keeps alive: the last
    row's, handed to the next row when their recording tokens are equal
    (:func:`~repro.experiments.grid.recording_token`) and dropped before a
    row with another token records its own."""

    def __init__(self):
        self._token: Optional[Tuple] = None
        self._recording = None

    def run(self, scenario: Scenario, key: str) -> ScenarioResult:
        """:func:`~repro.experiments.results.run_scenario_on` over the kept
        recording, when it is this row's; ``key`` is the row's content hash."""
        token = recording_token(scenario.config)
        if token != self._token:
            self._token, self._recording = token, None
        result, self._recording = run_scenario_on(scenario, key, self._recording)
        return result


def _run_scenario_chunk(scenarios: List[Scenario], keys: List[str],
                        attempts: List[int], fault_plan: Optional[FaultPlan]):
    """Pool worker: run several scenarios inside one task submission.

    Chunked submission amortizes the per-task pickling/dispatch overhead of
    the process pool across many scenarios — at symbolic-mode speeds that
    overhead is comparable to a small scenario itself.  Per-scenario failures
    are returned in-band (as a :class:`_ScenarioFailure` carrying the worker
    traceback) instead of failing the whole chunk, so one bad scenario never
    discards its chunk-mates' work.  The chunk comes in recording order
    (:meth:`ScenarioExecutor._chunks`), so adjacent rows that share a
    swap-off recording simulate it once.

    ``keys`` are the scenarios' content hashes, which their results carry.
    With ``attempts`` they also thread the deterministic fault-injection
    harness (``fault_plan``) into the worker: each scenario's fault decision
    is a pure function of its key and attempt number, so retries across
    rebuilt pools observe the same schedule.
    """
    outcomes: List[object] = []
    shared = _SharedRecording()
    for scenario, key, attempt in zip(scenarios, keys, attempts):
        try:
            if fault_plan is not None:
                fault_plan.fire_execution(key, attempt, in_worker=True)
            outcomes.append(shared.run(scenario, key))
        except Exception as error:  # reported to the parent, with traceback
            outcomes.append(_ScenarioFailure(error, traceback_module.format_exc()))
    return outcomes


class ScenarioExecutor:
    """Runs rounds of scenarios for one :class:`~repro.experiments.sweep.SweepRunner`.

    ``workers``, ``timeout_s`` and ``fault_plan`` are the runner's parameters
    of the same names.  The worker pool is created lazily on the first
    parallel round and *reused across rounds and runs*; :meth:`close` shuts
    it down.
    """

    def __init__(self, workers: int, timeout_s: Optional[float],
                 fault_plan: Optional[FaultPlan]):
        self.workers = workers
        self.timeout_s = timeout_s
        self.fault_plan = fault_plan
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_finalizer = None

    # -- worker pool ------------------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The reusable worker pool (spawned on first use).

        A ``weakref.finalize`` safety net shuts the pool down when the
        executor is garbage-collected, so callers that never call
        :meth:`close` (the pre-context-manager API) do not leak worker
        processes for the rest of the interpreter's lifetime.
        """
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
            self._pool_finalizer = weakref.finalize(
                self, ProcessPoolExecutor.shutdown, self._pool, wait=False)
        return self._pool

    def close(self) -> None:
        """Shut down the reusable worker pool (idempotent)."""
        if self._pool is not None:
            self._pool_finalizer.detach()
            self._pool.shutdown(wait=True)
            self._pool = None

    def _kill_pool(self) -> None:
        """Forcibly terminate the pool (hung or crashed workers).

        ``shutdown(wait=True)`` would block forever behind a wedged scenario,
        so the timeout path terminates the worker processes directly and
        abandons the executor without waiting; the next round rebuilds a
        fresh pool via :meth:`_ensure_pool`.
        """
        if self._pool is None:
            return
        self._pool_finalizer.detach()
        processes = getattr(self._pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # already dead — exactly what we wanted
                pass
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None

    def _chunks(self, missing: List[int]) -> List[List[int]]:
        """Split the pending scenario indices, in recording order, into
        per-task chunks: about four per worker so stragglers rebalance, never
        less than one scenario per task."""
        size = max(1, -(-len(missing) // (self.workers * 4)))
        return [missing[i:i + size] for i in range(0, len(missing), size)]

    # -- rounds -----------------------------------------------------------------------

    def run_round(self, scenarios: Sequence[Scenario], keys: Sequence[str],
                  attempts: Sequence[int], pending: List[int],
                  on_success: Callable[[int, ScenarioResult], None]) -> RoundErrors:
        """Run the ``pending`` indices once: over the pool when there are
        workers and more than one scenario to spread, else in-process.

        ``scenarios`` / ``keys`` / ``attempts`` are indexed by scenario
        index; ``attempts`` (outcomes observed so far) only seeds the
        fault-injection schedule.
        """
        run = (self._run_pool_round if self.workers > 1 and len(pending) > 1
               else self._run_serial_round)
        return run(scenarios, keys, attempts, pending, on_success)

    def _run_serial_round(self, scenarios, keys, attempts, pending,
                          on_success) -> RoundErrors:
        """Serial in-process round (``workers == 1`` or a single scenario).

        Successes are handed over in place as they complete; the return value
        maps the failed indices to their ``(error, traceback_text)``.  The
        per-scenario deadline is checked *post hoc*: a pure in-process
        simulation cannot be preempted, so an overdue scenario's result is
        discarded and replaced with a :class:`ScenarioTimeoutError` — the
        same outcome the pool path produces by killing the worker.
        ``KeyboardInterrupt`` propagates (the result cache already holds every
        finished scenario, so Ctrl-C is resumable by construction).  Rows run
        in recording order, so the rows that share a swap-off recording
        simulate it once; the first of them carries its cost.
        """
        errors: RoundErrors = {}
        shared = _SharedRecording()
        for index in _in_recording_order(scenarios, pending):
            key = keys[index]
            scenario_started = time.perf_counter()
            try:
                if self.fault_plan is not None:
                    self.fault_plan.fire_execution(key, attempts[index],
                                                   in_worker=False)
                result = shared.run(scenarios[index], key)
                elapsed = time.perf_counter() - scenario_started
                if self.timeout_s is not None and elapsed > self.timeout_s:
                    raise ScenarioTimeoutError(key, elapsed, self.timeout_s)
            except Exception as error:  # not KeyboardInterrupt: see above
                errors[index] = (error, traceback_module.format_exc())
                continue
            on_success(index, result)
        return errors

    def _run_pool_round(self, scenarios, keys, attempts, pending,
                        on_success) -> RoundErrors:
        """Parallel round over the process pool (same contract as the serial one).

        An index left with neither a result nor an error was not executed
        (the pool died before its chunk was submitted) and is not charged an
        attempt.  Without a deadline this is one shot of chunked submission.
        With ``timeout_s`` set, chunks shrink to a single scenario (the unit a
        deadline can kill, sharing no recording with any other row),
        submission is windowed to the worker count so
        every in-flight task's clock starts when it is actually submitted,
        and an overdue task terminates the whole pool (``os.kill`` is the
        only way to preempt a wedged worker) — innocent in-flight scenarios
        are simply not charged and re-run next round on a fresh pool.
        """
        errors: RoundErrors = {}
        pool = self._ensure_pool()
        timeout = self.timeout_s
        if timeout is not None:
            queue = [[index] for index in pending]
        else:
            queue = self._chunks(_in_recording_order(scenarios, pending))
        in_flight: Dict[object, Tuple[List[int], float]] = {}

        def submit(chunk: List[int]) -> None:
            future = pool.submit(
                _run_scenario_chunk,
                [scenarios[index] for index in chunk],
                [keys[index] for index in chunk],
                [attempts[index] for index in chunk],
                self.fault_plan)
            in_flight[future] = (chunk, time.perf_counter())

        window = self.workers if timeout is not None else len(queue)
        while queue and len(in_flight) < window:
            submit(queue.pop(0))

        pool_lost = False
        while in_flight:
            done, _ = wait(list(in_flight),
                           timeout=None if timeout is None else 0.05,
                           return_when=FIRST_COMPLETED)
            for future in done:
                chunk, _submitted_at = in_flight.pop(future)
                try:
                    chunk_outcomes = future.result()
                except Exception as error:  # pool-level failure (worker died)
                    for index in chunk:
                        errors[index] = (error, "")
                    pool_lost = True
                    continue
                for index, outcome in zip(chunk, chunk_outcomes):
                    if isinstance(outcome, _ScenarioFailure):
                        errors[index] = (outcome.unwrap(), outcome.traceback)
                    else:
                        on_success(index, outcome)
            if pool_lost:
                # Stop feeding work; drain the remaining in-flight futures
                # (a broken pool fails them fast).  Unsubmitted chunks keep
                # no outcome and re-run next round, attempt-free.
                queue.clear()
                continue
            if timeout is not None:
                now = time.perf_counter()
                overdue = [future for future, (_, submitted_at) in in_flight.items()
                           if now - submitted_at > timeout]
                if overdue:
                    for future in overdue:
                        chunk, submitted_at = in_flight.pop(future)
                        for index in chunk:
                            errors[index] = (
                                ScenarioTimeoutError(keys[index],
                                                     now - submitted_at,
                                                     timeout), "")
                    self._kill_pool()
                    return errors
            while queue and len(in_flight) < window:
                submit(queue.pop(0))
        if pool_lost:
            # Dispose of the broken executor so the next round (or the next
            # run()) starts from a fresh pool instead of failing fast.
            self.close()
        return errors
