"""Deterministic simulated device clock.

All timestamps in the memory traces come from this clock.  It only moves
forward, in integer nanoseconds, and is advanced explicitly by the components
that model time: the synchronous device's kernels and host↔device copies
(:class:`~repro.device.device.Device`), the allocator's bookkeeping, the
collective barrier (:mod:`repro.device.collective`) and host-side overheads
modelled by the training loop (:mod:`repro.train`).  The swap overlay
(:mod:`repro.swap.executor`) runs a clock of its own, its virtual time, with
a copy stream (:mod:`repro.device.stream`) reserving against it.

Each advance says why it happened: its atom kind and the kind's pricing
inputs (bytes, flops, DRAM traffic).  With a
:class:`~repro.device.tape.TimingTape` attached, the clock logs every advance
as one atom on it — zero-length advances included — so an atom and the time
it moved the clock are one call and cannot disagree.  Without a tape the
arguments are ignored.

Using a simulated clock instead of wall-clock time makes every figure of the
reproduction exactly deterministic and independent of the speed of the machine
running the simulation.
"""

from __future__ import annotations

from ..errors import ClockError
from .tape import TAPE_CONST


class DeviceClock:
    """Monotonic simulated clock with nanosecond resolution."""

    def __init__(self, start_ns: int = 0):
        if start_ns < 0:
            raise ClockError(f"clock cannot start at negative time {start_ns}")
        #: The current time.  Written only by this class; the trace recorder
        #: (once per recorded behavior) and the swap overlay's walk read the
        #: field directly instead of going through the :attr:`now_ns` property.
        self._now_ns = int(start_ns)
        #: The :class:`~repro.device.tape.TimingTape` this clock logs its
        #: advances on, if any (set by the tape itself when it attaches).
        self.tape = None

    @property
    def now_ns(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now_ns

    def advance(self, delta_ns: int, kind: int = TAPE_CONST, nbytes: int = 0,
                flops: float = 0.0, bytes_moved: float = 0.0) -> int:
        """Advance the clock by ``delta_ns`` nanoseconds and return the new time.

        ``delta_ns`` must be non-negative; the clock never moves backwards.
        Fractional inputs are rounded to the nearest nanosecond.  ``kind`` and
        its pricing inputs describe the advance as a timing atom, logged on
        the attached tape (a host-side constant by default).
        """
        if type(delta_ns) is not int:
            delta_ns = int(round(delta_ns))
        if delta_ns < 0:
            raise ClockError(f"cannot advance clock by negative delta {delta_ns}")
        self._now_ns += delta_ns
        tape = self.tape
        if tape is not None:
            tape.kind.append(kind)
            tape.duration_ns.append(delta_ns)
            tape.nbytes.append(nbytes)
            tape.flops.append(flops)
            tape.bytes_moved.append(bytes_moved)
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
