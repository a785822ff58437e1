"""Deterministic fault-injection harness for the sweep/replay/cache stack.

The source paper's stance — memory behavior must be *measured*, never
assumed — applies equally to the harness doing the measuring: a sweep
engine whose failure semantics are untested cannot be trusted to produce
numbers under real-world faults (a worker OOM-killed by the OS, a torn
cache file after a power cut, a scenario that wedges).  This module makes
failure a first-class, reproducible input:

* :class:`FaultSpec` names one fault: a ``kind`` (worker crash, injected
  exception, slow scenario, interrupt, cache/template corruption), the
  content-hash ``key`` it targets (a scenario key, or a template-family
  key for ``template_corrupt``) and the number of *attempts* it fires on
  (``times``).
* :class:`FaultPlan` is a set of specs plus a seed.  Execution-side faults
  (``crash``/``error``/``slow``/``interrupt``) are keyed purely on
  ``(key, attempt)``, so the decision is reproducible across processes
  without any shared state — the attempt number travels to the pool worker
  with the scenario, and ``attempt >= times`` simply stops firing.  That is
  what makes the chaos-equivalence pin possible: a faulty run *converges*
  to the fault-free result once every budget is spent.
* Storage-side faults (``cache_corrupt``/``template_corrupt``) fire in the
  parent process right after the artifact is atomically published,
  truncating it to garbage — exactly the torn-file shape the quarantine
  paths (:meth:`~repro.experiments.sweep.SweepRunner.cache_load`,
  :meth:`~repro.experiments.template_store.TemplateStore.load`) must
  absorb.

Hooks
-----
:class:`~repro.experiments.sweep.SweepRunner` accepts a plan directly
(``fault_plan=``) or loads one from the file named by the
:data:`FAULT_PLAN_ENV` environment variable; the CLI exposes
``repro sweep --fault-plan plan.json`` and ``--chaos-seed N`` (a seeded
plan over the expanded grid).  Storage faults fire from the one post-publish
hook, :meth:`~repro.experiments.artifacts.ArtifactStore.inject_fault`.  With
no plan configured every hook is a no-op costing one ``None`` check.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..errors import ConfigurationError, InjectedFaultError

#: Environment variable naming a JSON fault-plan file picked up by
#: :class:`~repro.experiments.sweep.SweepRunner` when no plan is passed
#: explicitly.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Exit status used by injected worker crashes (recognizable in waitpid logs).
CRASH_EXIT_CODE = 87

#: Faults applied around scenario execution (in the worker, or in-process
#: for serial runs).
EXECUTION_KINDS = ("crash", "error", "slow", "interrupt")

#: Faults applied to persisted artifacts right after publication.
STORAGE_KINDS = ("cache_corrupt", "template_corrupt")

#: Every fault kind a :class:`FaultSpec` may carry.
FAULT_KINDS = EXECUTION_KINDS + STORAGE_KINDS

#: Bytes written over a corrupted artifact (short on purpose: a truncated
#: file is the classic torn-write shape).
_GARBAGE = b"{corrupted-by-faultplan"


@dataclass
class FaultSpec:
    """One deterministic fault: what to inject, where, and how often.

    ``key`` is the sha256 content hash the fault targets — a scenario key
    (:meth:`~repro.experiments.sweep.Scenario.key`) for execution and
    ``cache_corrupt`` faults, a template-family key
    (:func:`~repro.experiments.replay.template_key`) for
    ``template_corrupt``.  ``times`` bounds how many attempts (execution
    faults) or publications (storage faults) the fault fires on.
    """

    kind: str
    key: str
    times: int = 1
    #: Extra wall-clock delay injected by ``slow`` faults (seconds).
    delay_s: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind '{self.kind}'; known kinds: {FAULT_KINDS}")

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (the fault-plan file format)."""
        return {"kind": self.kind, "key": self.key, "times": self.times,
                "delay_s": self.delay_s}

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "FaultSpec":
        """Reconstruct a spec from :meth:`to_dict` output."""
        return FaultSpec(kind=str(data["kind"]), key=str(data["key"]),
                         times=int(data.get("times", 1)),
                         delay_s=float(data.get("delay_s", 0.0)))


@dataclass
class FaultPlan:
    """A seeded, deterministic set of faults threaded through the sweep stack.

    The plan is plain data (it pickles across the pool boundary and
    round-trips through JSON), and every decision is a pure function of
    ``(kind, key, attempt)`` for execution faults or an in-process fire
    counter for storage faults — no randomness at injection time, so two
    runs under the same plan observe byte-identical fault schedules.
    """

    faults: List[FaultSpec] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        #: Storage-side fire counts, keyed by ``(kind, key)``.  Kept out of
        #: the serialized form: counts are per-process bookkeeping.
        self._fired: Dict[tuple, int] = {}

    # -- construction / serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form of the whole plan."""
        return {"seed": self.seed,
                "faults": [fault.to_dict() for fault in self.faults]}

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "FaultPlan":
        """Reconstruct a plan from :meth:`to_dict` output."""
        return FaultPlan(
            faults=[FaultSpec.from_dict(f) for f in data.get("faults", ())],
            seed=int(data.get("seed", 0)))

    def save(self, path) -> Path:
        """Write the plan as JSON (the ``--fault-plan`` file format)."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True),
                        encoding="utf-8")
        return path

    @staticmethod
    def load(path) -> "FaultPlan":
        """Read a plan saved by :meth:`save`."""
        return FaultPlan.from_dict(
            json.loads(Path(path).read_text(encoding="utf-8")))

    @staticmethod
    def from_env() -> Optional["FaultPlan"]:
        """The plan named by :data:`FAULT_PLAN_ENV`, or ``None`` when unset."""
        path = os.environ.get(FAULT_PLAN_ENV)
        return FaultPlan.load(path) if path else None

    @staticmethod
    def seeded(seed: int, keys: Sequence[str],
               kinds: Sequence[str] = ("crash", "error", "slow"),
               rate: float = 0.34, delay_s: float = 0.2) -> "FaultPlan":
        """A deterministic chaos plan over the given scenario keys.

        Roughly ``rate`` of the keys receive one single-shot fault, with the
        kind drawn round-robin from ``kinds`` — every draw comes from
        ``random.Random(seed)``, so the same ``(seed, keys)`` always yields
        the same plan.  This is the generator behind
        ``repro sweep --chaos-seed`` and the ``make chaos-smoke`` leg.
        """
        rng = random.Random(seed)
        faults: List[FaultSpec] = []
        for index, key in enumerate(keys):
            if rng.random() < rate:
                kind = kinds[len(faults) % len(kinds)]
                faults.append(FaultSpec(kind=kind, key=key, times=1,
                                        delay_s=delay_s if kind == "slow" else 0.0))
        return FaultPlan(faults=faults, seed=seed)

    # -- decision + injection ----------------------------------------------------------

    def spec_for(self, kind: str, key: str) -> Optional[FaultSpec]:
        """The first spec of ``kind`` targeting ``key`` (``None`` when absent)."""
        for fault in self.faults:
            if fault.kind == kind and fault.key == key:
                return fault
        return None

    def should_fire(self, kind: str, key: str, attempt: int) -> Optional[FaultSpec]:
        """Whether an execution fault fires on this attempt (pure function)."""
        spec = self.spec_for(kind, key)
        if spec is not None and attempt < spec.times:
            return spec
        return None

    def fire_execution(self, key: str, attempt: int, in_worker: bool) -> None:
        """Apply any execution-side fault for ``(key, attempt)``.

        ``crash`` hard-kills the current process when running inside a pool
        worker (``os._exit`` — the parent observes a broken pool, exactly
        like an OOM-killed worker); in-process (serial) runs degrade it to a
        transient :class:`~repro.errors.InjectedFaultError` because killing
        the interpreter would take the caller down too.  ``interrupt``
        raises :class:`KeyboardInterrupt` in-process (simulating Ctrl-C for
        resume tests) and degrades to a crash inside a worker.  ``slow``
        sleeps ``delay_s`` before the scenario runs; ``error`` raises the
        transient injected-fault error.
        """
        spec = self.should_fire("slow", key, attempt)
        if spec is not None:
            time.sleep(spec.delay_s)
        if self.should_fire("crash", key, attempt) is not None:
            if in_worker:
                os._exit(CRASH_EXIT_CODE)
            raise InjectedFaultError(key, attempt, kind="crash")
        if self.should_fire("interrupt", key, attempt) is not None:
            if in_worker:
                os._exit(CRASH_EXIT_CODE)
            raise KeyboardInterrupt(f"injected interrupt on {key[:12]}...")
        if self.should_fire("error", key, attempt) is not None:
            raise InjectedFaultError(key, attempt, kind="error")

    def corrupt_artifact(self, kind: str, key: str, path) -> bool:
        """Corrupt a just-published artifact if a storage fault targets it.

        Fires at most ``times`` per process (tracked in ``_fired``), writes
        :data:`_GARBAGE` over the file and reports whether it did — callers
        only use the return value for logging/tests.
        """
        spec = self.spec_for(kind, key)
        if spec is None:
            return False
        fired = self._fired.get((kind, key), 0)
        if fired >= spec.times:
            return False
        self._fired[(kind, key)] = fired + 1
        path = Path(path)
        if path.is_file():
            path.write_bytes(_GARBAGE)
            return True
        return False
