"""The orientation-reversing square homeomorphism and its building blocks.

The map acts on the closed square J x J, J = [-1, 1].  It is assembled from
four exact ingredients:

* a vertical shift moving every horizontal line up by a fixed
  piecewise-linear profile (``vertical_shift``),
* the two reflections of the square (``reflect``), across the vertical axis
  ("level") and across the horizontal axis ("vertical"),
* a family of increasing shear profiles (``shear_profile``), each a
  piecewise-linear bijection of J that translates a long middle segment to
  the right, and
* a per-line shear of the band [1/2, 1] (``strip_shear``) that applies a
  shear rule on each strip level and blends consecutive rules across each
  level's lower zone, so the result is continuous.

On the upper half of the square the map is rise-then-reflect-then-shear
(``rise_map``); on the band just below the axis it is the plain reflected
shift; on the lower quarter it is the inverse of the mirrored rising map
(``descend_map``).  The three regions agree on the seams, every boundary
point just reflects and shifts, and each horizontal line maps onto the
horizontal line one profile-step up: the map has no interior fixed point
while every orbit climbs toward the top corners (forward) and the bottom
corners (backward).

Everything here is exact on rational points.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Tuple

from .numerics import (
    DomainError,
    IDENTITY_PL,
    PLFunction,
    Rational,
    as_rational,
    pl_eval,
)
from .strips import (
    HALF,
    MINUS_HALF,
    SHIFT_PROFILE,
    Zone,
    block_of,
    shear_bound,
    split_height,
    strip_locate,
)

SquarePoint = Tuple[Fraction, Fraction]

INV_SHIFT_PROFILE = SHIFT_PROFILE.inverse_fn()

# Distinguished points: corners v1..v4, edge midpoints v5..v8, slit inner
# endpoints v9/v0, and the plane limit pair w1/w2 (tangent-chart images of
# the collapsed slit endpoints' circle directions; numerically the edge
# midpoints of the horizontal axis).
NAMED_POINTS = {
    "v1": (Fraction(-1), Fraction(1)),
    "v2": (Fraction(1), Fraction(1)),
    "v3": (Fraction(-1), Fraction(-1)),
    "v4": (Fraction(1), Fraction(-1)),
    "v5": (Fraction(-1), Fraction(0)),
    "v6": (Fraction(1), Fraction(0)),
    "v7": (Fraction(0), Fraction(1)),
    "v8": (Fraction(0), Fraction(-1)),
    "v9": (Fraction(-1, 2), Fraction(0)),
    "v0": (Fraction(1, 2), Fraction(0)),
    "w1": (Fraction(-1), Fraction(0)),
    "w2": (Fraction(1), Fraction(0)),
}


class RegionTag(str, Enum):
    # forward decomposition
    R0 = "R0"  # s in [0, 1]
    D_MINUS_1 = "D_MINUS_1"  # s in [-1/2, 0)
    R_MINUS_2 = "R_MINUS_2"  # s in [-1, -1/2)
    # inverse decomposition
    R1 = "R1"  # s in [1/2, 1]
    D0 = "D0"  # s in [0, 1/2)
    R_MINUS_1 = "R_MINUS_1"  # s in [-1, 0)


def as_square_point(p) -> SquarePoint:
    r, s = as_rational(p[0]), as_rational(p[1])
    # |r| > 1 read off the integer parts, without building abs(r)
    if abs(r.numerator) > r.denominator or abs(s.numerator) > s.denominator:
        raise DomainError(f"point ({r}, {s}) outside the square")
    return (r, s)


def reflect(p, axis: str) -> SquarePoint:
    """Reflections of the square: "level" negates r, "vertical" negates s."""
    r, s = as_rational(p[0]), as_rational(p[1])
    if axis == "level":
        return (-r, s)
    if axis == "vertical":
        return (r, -s)
    raise DomainError(f"unknown reflection axis {axis!r}")


def vertical_shift(p, inverse: bool = False) -> SquarePoint:
    """Shift a point's line upward by the profile (downward when inverse)."""
    r, s = as_square_point(p)
    return (r, pl_eval(SHIFT_PROFILE, s, inverse=inverse))


@lru_cache(maxsize=None)
def shear_profile(n: int) -> PLFunction:
    """Block-n shear: slides [-b_n, b_n - 2 b_n/n] right by 2 b_n/n.

    Increasing PL bijection of J fixing the endpoints.  The middle segment
    has slope one, so n applications carry -b_n exactly to +b_n; the outer
    segments absorb the translation.  At n = 1 the two middle breakpoints
    coincide and the profile is the two-segment tent through (-1/2, 1/2).
    """
    if n < 1:
        raise DomainError(f"shear block must be >= 1, got {n}")
    b = shear_bound(n)
    gain = 2 * b / n
    return PLFunction([(-1, -1), (-b, -b + gain), (b - gain, b), (1, 1)])


@lru_cache(maxsize=None)
def line_rule(i: int) -> PLFunction:
    """Shear rule of strip level i: identity on odd levels, block shear on even."""
    if i < 1:
        raise DomainError(f"strip level must be >= 1, got {i}")
    if i == 1 or i % 2 == 1:
        return IDENTITY_PL
    return shear_profile(block_of(i))


def row_map(s: Rational) -> PLFunction:
    """Horizontal slice of the strip shear at height s in [1/2, 1].

    Identity on the closed core band and the top line; the level's rule on
    its shear zone; on the blend zone, the convex combination of the
    previous level's rule and this level's rule, with weight growing
    linearly from the strip floor to the split height image.
    """
    s = as_rational(s)
    d = strip_locate(s)
    if d.zone in (Zone.D1_CORE, Zone.TOP_LINE):
        return IDENTITY_PL
    if d.zone is Zone.B_ZONE:
        return line_rule(d.level)
    t = (s - d.lo) / (d.mid - d.lo)
    return line_rule(d.level - 1).blend(line_rule(d.level), t)


def strip_shear(p, inverse: bool = False) -> SquarePoint:
    """Apply the per-line shear (or its inverse) to a point of J x [1/2, 1]."""
    r, s = as_square_point(p)
    if s < HALF:
        raise DomainError(f"strip shear is defined on the band [1/2, 1], got s = {s}")
    row = row_map(s)
    return (row.inverse(r) if inverse else row(r), s)


def rise_map(p, inverse: bool = False) -> SquarePoint:
    """Shift up, reflect across the vertical axis, then shear the line.

    Forward domain: s in [0, 1], landing in [1/2, 1].  Inverse domain:
    s in [1/2, 1].
    """
    r, s = as_square_point(p)
    if inverse:
        if s < HALF:
            raise DomainError(f"rising-map inverse needs s in [1/2, 1], got {s}")
        q = strip_shear((r, s), inverse=True)
        return vertical_shift(reflect(q, "level"), inverse=True)
    if s < 0:
        raise DomainError(f"rising map needs s in [0, 1], got {s}")
    return strip_shear(reflect(vertical_shift((r, s)), "level"))


def descend_map(p, inverse: bool = False) -> SquarePoint:
    """Mirror of the rising map below the axis: conjugate by the vertical flip.

    Forward domain: s in [-1, 0], landing in [-1, -1/2].  Inverse domain:
    s in [-1, -1/2].
    """
    r, s = as_square_point(p)
    if inverse:
        if s > MINUS_HALF:
            raise DomainError(f"descending-map inverse needs s in [-1, -1/2], got {s}")
    elif s > 0:
        raise DomainError(f"descending map needs s in [-1, 0], got {s}")
    q = reflect((r, s), "vertical")
    q = rise_map(q, inverse=inverse)
    return reflect(q, "vertical")


def region_of(s: Rational, inverse: bool = False) -> RegionTag:
    """Region of the piecewise definition picked for a given height."""
    s = as_rational(s)
    if abs(s.numerator) > s.denominator:
        raise DomainError(f"height {s} outside [-1, 1]")
    if inverse:
        if s >= HALF:
            return RegionTag.R1
        if s >= 0:
            return RegionTag.D0
        return RegionTag.R_MINUS_1
    if s >= 0:
        return RegionTag.R0
    if s >= MINUS_HALF:
        return RegionTag.D_MINUS_1
    return RegionTag.R_MINUS_2


def square_homeo(p, inverse: bool = False) -> SquarePoint:
    """The square homeomorphism: rising above the axis, reflected shift on
    the band below it, inverse descending on the bottom quarter."""
    r, s = as_square_point(p)
    tag = region_of(s, inverse=inverse)
    if inverse:
        if tag is RegionTag.R1:
            return rise_map((r, s), inverse=True)
        if tag is RegionTag.D0:
            return vertical_shift(reflect((r, s), "level"), inverse=True)
        return descend_map((r, s))
    if tag is RegionTag.R0:
        return rise_map((r, s))
    if tag is RegionTag.D_MINUS_1:
        return reflect(vertical_shift((r, s)), "level")
    return descend_map((r, s), inverse=True)


def _forward_piece_key(p) -> tuple:
    """Hashable identifier of the affine piece of the forward map at p.

    Equal keys guarantee the map is affine on the segment between the two
    points; used by the orientation probe to detect seam straddles exactly.
    """
    r, s = as_square_point(p)
    tag = region_of(s)
    if tag is RegionTag.R0:
        sseg = SHIFT_PROFILE.segment_index(s)
        row = row_map(pl_eval(SHIFT_PROFILE, s))
        return (tag, sseg, row, row.segment_index(-r))
    if tag is RegionTag.D_MINUS_1:
        return (tag, SHIFT_PROFILE.segment_index(s))
    # bottom quarter: vertical-flip conjugate of the rising map's inverse
    row = row_map(-s)
    inv_row = row.inverse_fn()
    return (tag, row, inv_row.segment_index(r), INV_SHIFT_PROFILE.segment_index(-s))
