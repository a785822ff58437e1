"""The sweep's failure taxonomy: what failed, and whether retrying can help.

:func:`classify_failure` maps an exception to a ``(reason, kind)`` verdict;
:class:`FailureRecord` is one scenario's terminal entry in the failure
manifest a non-strict sweep returns and the run journal persists.
"""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional, Tuple

from ..errors import (ConfigurationError, InfeasibleScenarioError,
                      InjectedFaultError, OutOfMemoryError,
                      ScenarioTimeoutError, SweepFaultError)

#: Failure kinds: a *transient* failure describes the harness (retryable
#: under the per-scenario budget), a *deterministic* one describes the
#: scenario itself (recorded once, never retried).
TRANSIENT, DETERMINISTIC = "transient", "deterministic"


def classify_failure(error: BaseException) -> Tuple[str, str]:
    """Map an exception to its ``(reason code, kind)`` taxonomy verdict.

    Transient reasons — a dead worker (``BrokenProcessPool``), an expired
    per-scenario deadline, an injected harness fault, a cache/storage I/O
    error — are properties of the *run*, so retrying the scenario can
    succeed.  Deterministic reasons — an infeasible capacity, a raw OOM, a
    configuration error, and any unrecognized exception (re-running the same
    pure simulation reproduces it) — are properties of the *scenario*:
    they are recorded once in the failure manifest and never retried.
    """
    if isinstance(error, BrokenProcessPool):
        return "worker_crash", TRANSIENT
    if isinstance(error, ScenarioTimeoutError):
        return "timeout", TRANSIENT
    if isinstance(error, InjectedFaultError):
        return "injected_fault", TRANSIENT
    if isinstance(error, SweepFaultError):
        return "fault", TRANSIENT
    if isinstance(error, InfeasibleScenarioError):
        return "infeasible", DETERMINISTIC
    if isinstance(error, OutOfMemoryError):
        return "oom", DETERMINISTIC
    if isinstance(error, ConfigurationError):
        return "config", DETERMINISTIC
    if isinstance(error, OSError):
        return "io_error", TRANSIENT
    return "error", DETERMINISTIC


@dataclass
class FailureRecord:
    """One scenario's terminal entry in the sweep's failure manifest.

    Mirrors :class:`~repro.experiments.results.ScenarioResult` for scenarios
    that did not produce one: the identifying fields, the content-hash key,
    the taxonomy verdict (``reason`` code + ``kind``), how many attempts were
    spent, and the final error (message plus the worker traceback when one
    crossed the pool boundary).  ``resumed`` marks failures replayed from a
    prior run's journal under ``--resume`` rather than re-executed.
    """

    scenario: Dict[str, object]
    key: str
    reason: str
    kind: str
    attempts: int
    error: str
    traceback: str = ""
    resumed: bool = False
    #: The live exception (used by strict re-raise); never serialized.
    error_obj: Optional[BaseException] = field(default=None, repr=False,
                                               compare=False)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (drops the live exception object)."""
        data = asdict(self)
        data.pop("error_obj", None)
        return data

    def describe(self) -> str:
        """One-line rendering for the CLI/report failure footer."""
        s = self.scenario
        resumed = " (resumed)" if self.resumed else ""
        return (f"{s.get('model')}/batch={s.get('batch_size')} "
                f"alloc={s.get('allocator')} device={s.get('device_spec')} "
                f"swap={s.get('swap')}: reason={self.reason} kind={self.kind} "
                f"attempts={self.attempts}{resumed} — {self.error}")
