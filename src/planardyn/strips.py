"""Strip decomposition driving the per-line shears on the square.

The square homeomorphism pushes horizontal lines upward with a fixed
piecewise-linear profile.  Iterating the profile tiles the band [1/2, 1)
into levels, one per iterate; each level splits at an interior height into
a blend zone (bottom part, where consecutive shear rules interpolate) and a
shear zone (top part, where a single rule applies).  The shear index stays
constant on blocks of levels delimited by k(n) = n(n+1) and grows by one
across each block boundary, which is what makes every interior orbit drift
into the top corners while the shear gain per block stays summable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional

from .numerics import DomainError, PLFunction, as_rational

HALF = Fraction(1, 2)
MINUS_HALF = Fraction(-1, 2)
THREE_QUARTERS = Fraction(3, 4)

# Vertical-shift profile: breakpoints (-1,-1), (-1/2, 0), (0, 1/2), (1, 1).
# Fixes the endpoints, pushes everything else strictly upward.
SHIFT_PROFILE = PLFunction([(-1, -1), (MINUS_HALF, 0), (0, HALF), (1, 1)])


def split_height(n: int) -> Fraction:
    """Blend/shear split parameter of block n: 2^(-n-1), decreasing to 0."""
    if n < 1:
        raise DomainError(f"block index must be >= 1, got {n}")
    return Fraction(1, 2 ** (n + 1))


def shear_bound(n: int) -> Fraction:
    """Shear plateau bound of block n: 1 - 2^(-n), increasing to 1."""
    if n < 1:
        raise DomainError(f"block index must be >= 1, got {n}")
    return 1 - Fraction(1, 2**n)


def block_index(n: int) -> int:
    """First level of block n: k(n) = n(n+1).  Always even."""
    if n < 1:
        raise DomainError(f"block index must be >= 1, got {n}")
    return n * (n + 1)


def block_of(i: int) -> int:
    """Block containing level i >= 2: the largest n with k(n) <= i.

    n(n+1) <= i holds exactly when (2n+1)^2 <= 4i+1, and ``math.isqrt`` is
    exact, so no boundary needs guarding.
    """
    if i < 2:
        raise DomainError(f"level must be >= 2, got {i}")
    return (math.isqrt(4 * i + 1) - 1) // 2


def shift_profile_pow(s: Fraction, i: int) -> Fraction:
    """i-th iterate (i >= 0) of the shift profile at a height s in [0, 1].

    Such an orbit stays in the top affine piece s -> (1 + s)/2, so the
    iterate is the closed form 1 - (1 - s) * 2^-i.
    """
    s = as_rational(s)
    if i < 0:
        raise DomainError(f"iterate index must be >= 0, got {i}")
    if s < 0 or s > 1:
        raise DomainError(f"argument {s} outside [0, 1]")
    return 1 - (1 - s) / 2**i


class Zone(str, Enum):
    D1_CORE = "D1_CORE"
    F_ZONE = "F_ZONE"
    B_ZONE = "B_ZONE"
    TOP_LINE = "TOP_LINE"


@dataclass(frozen=True)
class StripDescriptor:
    """Where a height s in [1/2, 1] sits in the strip tiling.

    level : iterate index of the strip (1 for the closed core band), None on s = 1
    zone  : one of the four zones
    n     : shear block of the level (None on core / top)
    lo, mid, hi : strip bounds; blend zone is [lo, mid), shear zone [mid, hi)
    """

    level: Optional[int]
    zone: Zone
    n: Optional[int]
    lo: Fraction
    mid: Optional[Fraction]
    hi: Fraction


CORE_STRIP = StripDescriptor(1, Zone.D1_CORE, None, HALF, None, THREE_QUARTERS)
TOP_STRIP = StripDescriptor(None, Zone.TOP_LINE, None, Fraction(1), None, Fraction(1))


def _level_of(p: int, q: int) -> int:
    """Level i of a height p/q in (3/4, 1) in lowest terms (q > 0).

    The gap u = 1 - p/q = (q - p)/q is in lowest terms too, and level i
    has 2^-i-1 < u <= 2^-i.
    """
    return (q // (q - p)).bit_length() - 1


@lru_cache(maxsize=None)
def strip_bounds(i: int):
    """(lo, mid, hi) of level i >= 2; mid is the blended image of the split height."""
    if i < 2:
        raise DomainError(f"level must be >= 2, got {i}")
    n = block_of(i)
    lo = 1 - Fraction(1, 2**i)
    hi = 1 - Fraction(1, 2 ** (i + 1))
    mid = shift_profile_pow(split_height(n), i)
    return lo, mid, hi


def strip_locate(s: Fraction) -> StripDescriptor:
    """Locate a height in the tiling of [1/2, 1].

    The core band [1/2, 3/4] is closed and checked first; the top line
    s = 1 is its own zone; each remaining height lands in exactly one
    half-open level [1 - 2^-i, 1 - 2^-i-1).
    """
    s = as_rational(s)
    if s < HALF or s > 1:
        raise DomainError(f"height {s} outside [1/2, 1]")
    if s == 1:
        return TOP_STRIP
    if s <= THREE_QUARTERS:
        return CORE_STRIP
    i = _level_of(s.numerator, s.denominator)
    lo, mid, hi = strip_bounds(i)
    zone = Zone.F_ZONE if s < mid else Zone.B_ZONE
    return StripDescriptor(i, zone, block_of(i), lo, mid, hi)


def strip_table(max_level: int) -> List[dict]:
    """Strip rows for the geometry dump: level, zone bounds, shear block."""
    if max_level < 2:
        raise DomainError(f"need max_level >= 2, got {max_level}")
    rows = [
        {
            "level": 1,
            "zone": Zone.D1_CORE.value,
            "n": None,
            "lo": "1/2",
            "mid": None,
            "hi": "3/4",
        }
    ]
    for i in range(2, max_level + 1):
        lo, mid, hi = strip_bounds(i)
        rows.append(
            {
                "level": i,
                "zone": f"{Zone.F_ZONE.value}|{Zone.B_ZONE.value}",
                "n": block_of(i),
                "lo": str(lo),
                "mid": str(mid),
                "hi": str(hi),
            }
        )
    return rows
