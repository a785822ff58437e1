"""Deterministic simulated device clock.

All timestamps in the memory traces come from this clock.  It only moves
forward, in integer nanoseconds, and is advanced explicitly by the components
that model time: the synchronous device's kernels and host↔device copies
(:class:`~repro.device.device.Device`), the allocator's bookkeeping, the
collective barrier (:mod:`repro.device.collective`) and host-side overheads
modelled by the training loop (:mod:`repro.train`).  The swap overlay
(:mod:`repro.swap.executor`) runs a clock of its own, its virtual time, with
a copy stream (:mod:`repro.device.stream`) reserving against it.

Using a simulated clock instead of wall-clock time makes every figure of the
reproduction exactly deterministic and independent of the speed of the machine
running the simulation.
"""

from __future__ import annotations

from typing import Callable, List

from ..errors import ClockError


class DeviceClock:
    """Monotonic simulated clock with nanosecond resolution."""

    def __init__(self, start_ns: int = 0):
        if start_ns < 0:
            raise ClockError(f"clock cannot start at negative time {start_ns}")
        #: The current time.  Written only by this class; the trace recorder
        #: (once per recorded behavior) and the swap overlay's walk read the
        #: field directly instead of going through the :attr:`now_ns` property.
        self._now_ns = int(start_ns)
        self._observers: List[Callable[[int, int], None]] = []
        #: Optional :class:`~repro.device.tape.TimingTape` capturing why each
        #: advance happened (set by the tape itself when it attaches).
        self.tape = None

    @property
    def now_ns(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now_ns

    def advance(self, delta_ns: int) -> int:
        """Advance the clock by ``delta_ns`` nanoseconds and return the new time.

        ``delta_ns`` must be non-negative; the clock never moves backwards.
        Fractional inputs are rounded to the nearest nanosecond.
        """
        if type(delta_ns) is not int:
            delta_ns = int(round(delta_ns))
        if delta_ns < 0:
            raise ClockError(f"cannot advance clock by negative delta {delta_ns}")
        previous = self._now_ns
        self._now_ns += delta_ns
        if delta_ns and self._observers:
            for observer in self._observers:
                observer(previous, self._now_ns)
        return self._now_ns

    def advance_to(self, target_ns: int) -> int:
        """Advance the clock to an absolute time ``target_ns``.

        Raises :class:`~repro.errors.ClockError` if the target is in the past.
        """
        target_ns = int(round(target_ns))
        if target_ns < self._now_ns:
            raise ClockError(
                f"cannot move clock backwards from {self._now_ns} to {target_ns}"
            )
        return self.advance(target_ns - self._now_ns)

    def add_observer(self, observer: Callable[[int, int], None]) -> None:
        """Register a callback invoked as ``observer(old_ns, new_ns)`` on advances."""
        self._observers.append(observer)

    def remove_observer(self, observer: Callable[[int, int], None]) -> None:
        """Unregister a previously added observer (no-op if absent)."""
        if observer in self._observers:
            self._observers.remove(observer)

    def reset(self, start_ns: int = 0) -> None:
        """Reset the clock to ``start_ns`` (observers are kept)."""
        if start_ns < 0:
            raise ClockError(f"clock cannot be reset to negative time {start_ns}")
        self._now_ns = int(start_ns)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"DeviceClock(now_ns={self._now_ns})"
