"""Deterministic simulated device clock.

All timestamps in the memory traces come from this clock.  It only moves
forward, in integer nanoseconds.  A device's clock is moved by one owner,
the device's :class:`~repro.core.recorder.TraceRecorder`, which logs the
timing atom (:mod:`repro.device.tape`) behind every advance in the same call
as it writes the field — a kernel, a copy, a host pause, an allreduce's
wait and the allocator's bookkeeping — and by a copied steady iteration
(:mod:`repro.train.trainer`), which appends its atoms with its rows.
:meth:`DeviceClock.advance` is for clocks nothing is recorded against: the
swap overlay (:mod:`repro.swap.executor`) runs one of its own, its virtual
time, with a copy stream (:mod:`repro.device.stream`) reserving against it.

Using a simulated clock instead of wall-clock time makes every figure of the
reproduction exactly deterministic and independent of the speed of the machine
running the simulation.
"""

from __future__ import annotations

from ..errors import ClockError


class DeviceClock:
    """Monotonic simulated clock with nanosecond resolution."""

    def __init__(self, start_ns: int = 0):
        if start_ns < 0:
            raise ClockError(f"clock cannot start at negative time {start_ns}")
        #: The current time.  A device's recorder and a copied steady
        #: iteration write the field directly (and read it, as the swap
        #: overlay's walk does) instead of going through :attr:`now_ns`.
        self._now_ns = int(start_ns)

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
        self._now_ns += delta_ns
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

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"DeviceClock(now_ns={self._now_ns})"
