"""Unit helpers used throughout the package.

All device times are integer **nanoseconds** and all sizes are integer
**bytes**.  These helpers convert to and from human-friendly units and
format quantities for reports.
"""

from __future__ import annotations

# --- size units -------------------------------------------------------------

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

# The paper (and CUDA's bandwidthTest) reports bandwidth in GB/s using the
# decimal gigabyte, so keep both conventions available.
KB = 1000
MB = 1000 * KB
GB = 1000 * MB

# --- time units (nanoseconds are the base unit) ------------------------------

NS = 1
US = 1_000
MS = 1_000_000
SECOND = 1_000_000_000


def us_to_ns(us: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return int(round(us * US))


def s_to_ns(seconds: float) -> int:
    """Convert seconds to integer nanoseconds."""
    return int(round(seconds * SECOND))


def ns_to_us(ns: int) -> float:
    """Convert nanoseconds to microseconds (float)."""
    return ns / US


def format_bytes(nbytes: float) -> str:
    """Format a byte count with a binary-unit suffix (e.g. ``1.50 MiB``)."""
    nbytes = float(nbytes)
    sign = "-" if nbytes < 0 else ""
    nbytes = abs(nbytes)
    if nbytes >= GIB:
        return f"{sign}{nbytes / GIB:.2f} GiB"
    if nbytes >= MIB:
        return f"{sign}{nbytes / MIB:.2f} MiB"
    if nbytes >= KIB:
        return f"{sign}{nbytes / KIB:.2f} KiB"
    return f"{sign}{nbytes:.0f} B"


def format_duration(ns: float) -> str:
    """Format a duration in nanoseconds with an adaptive unit (e.g. ``12.3 us``)."""
    ns = float(ns)
    sign = "-" if ns < 0 else ""
    ns = abs(ns)
    if ns >= SECOND:
        return f"{sign}{ns / SECOND:.3f} s"
    if ns >= MS:
        return f"{sign}{ns / MS:.3f} ms"
    if ns >= US:
        return f"{sign}{ns / US:.3f} us"
    return f"{sign}{ns:.0f} ns"
