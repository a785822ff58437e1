"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class.  The subclasses mirror the major
subsystems: the simulated device, the tensor library, the neural-network
framework and the memory-behavior analyses.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class DeviceError(ReproError):
    """Base class for errors raised by the simulated device."""


class OutOfMemoryError(DeviceError):
    """Raised when a device allocation cannot be satisfied.

    Mirrors CUDA's ``cudaErrorMemoryAllocation`` / PyTorch's
    ``torch.cuda.OutOfMemoryError``: the message records how much was
    requested, how much is free and how much is cached.
    """

    def __init__(self, requested: int, free: int, reserved: int, capacity: int):
        self.requested = int(requested)
        self.free = int(free)
        self.reserved = int(reserved)
        self.capacity = int(capacity)
        super().__init__(
            f"Device out of memory: tried to allocate {requested} bytes "
            f"(capacity {capacity} bytes, reserved {reserved} bytes, "
            f"free {free} bytes)"
        )

    def __reduce__(self):
        """Pickle via the keyword fields (sweep workers ship OOMs in-band)."""
        return (OutOfMemoryError,
                (self.requested, self.free, self.reserved, self.capacity))


class InfeasibleScenarioError(DeviceError):
    """Raised when even full eviction cannot fit the working set.

    The capacity-governed swap executor degrades gracefully under pressure
    (forced LRU eviction with stall accounting), so a scenario whose peak
    merely exceeds ``device_memory_capacity`` still completes.  This error is
    the structured end of that road: the bytes that must be simultaneously
    resident (the incoming block plus everything pinned by the current
    access) exceed the capacity, so no eviction schedule can make the
    scenario feasible.
    """

    def __init__(self, requested: int, resident: int, evictable: int,
                 capacity: int):
        self.requested = int(requested)
        self.resident = int(resident)
        self.evictable = int(evictable)
        self.capacity = int(capacity)
        super().__init__(
            f"Scenario infeasible at capacity {capacity} bytes: the working "
            f"set needs {requested} incoming bytes on top of {resident} "
            f"resident bytes of which only {evictable} are evictable"
        )

    def __reduce__(self):
        """Pickle via the keyword fields (sweep workers ship these in-band)."""
        return (InfeasibleScenarioError,
                (self.requested, self.resident, self.evictable, self.capacity))


class SweepFaultError(ReproError):
    """Base class for *transient* sweep-infrastructure failures.

    Errors in this family describe the harness (a worker died, a deadline
    expired, a fault was injected) rather than the scenario itself, so the
    fault-tolerant :class:`~repro.experiments.sweep.SweepRunner` classifies
    them as retryable: the scenario is re-submitted under its retry budget
    instead of being recorded as a deterministic failure.
    """


class InjectedFaultError(SweepFaultError):
    """Raised by the deterministic fault-injection harness.

    Carries the scenario key and the zero-based attempt the fault fired on,
    so chaos tests can assert exactly *which* execution was disturbed.  The
    error is transient by construction: a :class:`~repro.experiments.faults.FaultPlan`
    stops firing once a fault's ``times`` budget is spent, so a retried
    scenario converges to the fault-free result.
    """

    def __init__(self, key: str, attempt: int = 0, kind: str = "error"):
        self.key = str(key)
        self.attempt = int(attempt)
        self.kind = str(kind)
        super().__init__(
            f"injected {self.kind} fault on scenario {self.key[:12]}... "
            f"(attempt {self.attempt})"
        )

    def __reduce__(self):
        """Pickle via the keyword fields (these cross the pool boundary)."""
        return (InjectedFaultError, (self.key, self.attempt, self.kind))


class ScenarioTimeoutError(SweepFaultError):
    """Raised when a scenario exceeds its wall-clock deadline.

    The fault-tolerant sweep runner kills the hung worker processes, rebuilds
    the pool and records (or retries) the scenario with this structured
    error; ``elapsed_s`` is the observed wall time, ``timeout_s`` the
    configured per-scenario deadline.
    """

    def __init__(self, key: str, elapsed_s: float, timeout_s: float):
        self.key = str(key)
        self.elapsed_s = float(elapsed_s)
        self.timeout_s = float(timeout_s)
        super().__init__(
            f"scenario {self.key[:12]}... exceeded its {timeout_s:.3f}s "
            f"deadline ({elapsed_s:.3f}s elapsed)"
        )

    def __reduce__(self):
        """Pickle via the keyword fields (these cross the pool boundary)."""
        return (ScenarioTimeoutError, (self.key, self.elapsed_s, self.timeout_s))


class InvalidFreeError(DeviceError):
    """Raised when freeing a pointer the allocator does not own."""


class ClockError(DeviceError):
    """Raised when the simulated clock would move backwards."""


class TensorError(ReproError):
    """Base class for tensor-library errors."""


class ShapeError(TensorError):
    """Raised when tensor shapes are incompatible for an operation."""


class DTypeError(TensorError):
    """Raised when an unsupported or mismatched dtype is used."""


class ModuleError(ReproError):
    """Base class for neural-network module errors."""


class BackwardBeforeForwardError(ModuleError):
    """Raised when ``backward`` is called before ``forward`` on a module."""


class ConfigurationError(ReproError):
    """Raised when an experiment or component is mis-configured."""


class TraceError(ReproError):
    """Base class for memory-trace recording/analysis errors."""


class EmptyTraceError(TraceError):
    """Raised when an analysis requires events but the trace is empty."""


class TraceFormatError(TraceError):
    """Raised when a serialized trace cannot be parsed."""


class TraceInvariantError(TraceError):
    """Raised by ``MemoryTrace.validate`` when a recorded stream breaks an invariant.

    ``event_index`` is the position (in stream order) of the first offending
    event; the message names it.
    """

    def __init__(self, event_index: int, message: str):
        self.event_index = int(event_index)
        super().__init__(f"event {self.event_index}: {message}")
