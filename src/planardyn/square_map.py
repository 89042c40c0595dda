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

Everything here is exact on rational points.  The public maps validate
their point; ``square_homeo`` validates once and then runs the private
forms (``_rise``, ``_descend``, ``_row``), which take a checked point.  A
row of the strip shear is evaluated pointwise, on a blend zone from the
level's cached coefficients (affine in the height), never built as a
PLFunction; ``row_map`` builds it, as the reference the pointwise route
is tested against.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Tuple

from .numerics import DomainError, IDENTITY_PL, PLFunction, _int_pairs, _piece, as_rational
from .strips import (
    HALF,
    MINUS_HALF,
    SHIFT_PROFILE,
    Zone,
    _level_of,
    block_of,
    shear_bound,
    strip_bounds,
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
    return (r, SHIFT_PROFILE.inverse(s) if inverse else SHIFT_PROFILE(s))


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


def row_map(s: Fraction) -> PLFunction:
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


class _BlendZone:
    """The rows of one level's blend zone, exact, as functions of the height.

    The zone [lo, mid) blends ``prev`` into ``rule`` with the weight
    t = (s - lo) / (mid - lo).  Both rules are affine on each piece between
    consecutive merged abscissas, and so is every blended row; its slope
    and intercept there are affine in t, hence in s.  The coefficients are
    per level: they fold in the level's lo and mid.

    xkeys  : interior merged abscissas, as integer pairs
    pieces : per merged piece (a0, a1, b0, b1): the row at height s is
             (a0 + a1*s)*x + (b0 + b1*s) there
    ykeys  : per interior merged abscissa, integers (u, v, w) with the
             row's ordinate there at height s = p/q equal to (u*q + v*p) / (w*q)
    """

    __slots__ = ("xkeys", "pieces", "ykeys")

    def __init__(self, prev: PLFunction, rule: PLFunction, lo: Fraction, mid: Fraction):
        xs = sorted(set(prev.xs) | set(rule.xs))
        ya = [prev(x) for x in xs]
        yb = [rule(x) for x in xs]
        width = mid - lo

        def in_s(c, c2):
            # c + t*(c2 - c) as c0 + c1*s
            c1 = (c2 - c) / width
            return c - c1 * lo, c1

        pieces = []
        for k in range(len(xs) - 1):
            w = xs[k + 1] - xs[k]
            a = (ya[k + 1] - ya[k]) / w
            a2 = (yb[k + 1] - yb[k]) / w
            pieces.append(in_s(a, a2) + in_s(ya[k] - a * xs[k], yb[k] - a2 * xs[k]))
        ykeys = []
        for y, y2 in zip(ya[1:-1], yb[1:-1]):
            c0, c1 = in_s(y, y2)  # c0 + c1*p/q over the common denominator
            ykeys.append(
                (c0.numerator * c1.denominator, c1.numerator * c0.denominator,
                 c0.denominator * c1.denominator)
            )
        self.xkeys = _int_pairs(xs[1:-1])
        self.pieces = tuple(pieces)
        self.ykeys = tuple(ykeys)


@lru_cache(maxsize=None)
def _level_zone(i: int) -> _BlendZone:
    """The blend zone of strip level i >= 2 (its bounds and rule are cached
    by ``strip_bounds`` and ``line_rule``)."""
    lo, mid, _ = strip_bounds(i)
    return _BlendZone(line_rule(i - 1), line_rule(i), lo, mid)


def _row(r: Fraction, s: Fraction, inverse: bool) -> Fraction:
    """``row_map(s)(r)`` (or its inverse at r) for a checked point with
    s in [1/2, 1], evaluated pointwise.

    On a blend zone the row's slope and intercept are read off the height
    first, from the level's coefficients, and only then meet r.
    """
    p, q = s.numerator, s.denominator
    if 4 * p <= 3 * q or p == q:  # closed core band, or the top line
        return r
    i = _level_of(p, q)
    mid = strip_bounds(i)[1]
    if p * mid.denominator >= mid.numerator * q:  # shear zone: the level's rule
        rule = line_rule(i)
        return rule._preimage(r) if inverse else rule._value(r)
    zone = _level_zone(i)
    rn, rd = r.numerator, r.denominator
    if inverse:
        k = 0
        for u, v, w in zone.ykeys:  # stop at the first row ordinate above r
            if rn * w * q < (u * q + v * p) * rd:
                break
            k += 1
    else:
        k = _piece(zone.xkeys, rn, rd)
    a0, a1, b0, b1 = zone.pieces[k]
    slope, intercept = a0 + a1 * s, b0 + b1 * s
    return (r - intercept) / slope if inverse else slope * r + intercept


def strip_shear(p, inverse: bool = False) -> SquarePoint:
    """Apply the per-line shear (or its inverse) to a point of J x [1/2, 1]."""
    r, s = as_square_point(p)
    if s < HALF:
        raise DomainError(f"strip shear is defined on the band [1/2, 1], got s = {s}")
    return (_row(r, s, inverse), s)


def _rise(r: Fraction, s: Fraction, inverse: bool) -> SquarePoint:
    """``rise_map`` at a checked point of its domain."""
    if inverse:
        return (-_row(r, s, True), SHIFT_PROFILE._preimage(s))
    s = SHIFT_PROFILE._value(s)
    return (_row(-r, s, False), s)


def rise_map(p, inverse: bool = False) -> SquarePoint:
    """Shift up, reflect across the vertical axis, then shear the line.

    Forward domain: s in [0, 1], landing in [1/2, 1].  Inverse domain:
    s in [1/2, 1].
    """
    r, s = as_square_point(p)
    if inverse:
        if s < HALF:
            raise DomainError(f"rising-map inverse needs s in [1/2, 1], got {s}")
    elif s < 0:
        raise DomainError(f"rising map needs s in [0, 1], got {s}")
    return _rise(r, s, inverse)


def _descend(r: Fraction, s: Fraction, inverse: bool) -> SquarePoint:
    """``descend_map`` at a checked point of its domain: the rising map
    conjugated by the vertical flip."""
    r, s = _rise(r, -s, inverse)
    return (r, -s)


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
    return _descend(r, s, inverse)


def _region(s: Fraction, inverse: bool) -> RegionTag:
    """Region of a checked height, read off its numerator and denominator."""
    p, q = s.numerator, s.denominator
    if inverse:
        if 2 * p >= q:
            return RegionTag.R1
        if p >= 0:
            return RegionTag.D0
        return RegionTag.R_MINUS_1
    if p >= 0:
        return RegionTag.R0
    if 2 * p >= -q:
        return RegionTag.D_MINUS_1
    return RegionTag.R_MINUS_2


def region_of(s: Fraction, inverse: bool = False) -> RegionTag:
    """Region of the piecewise definition picked for a given height."""
    s = as_rational(s)
    if abs(s.numerator) > s.denominator:
        raise DomainError(f"height {s} outside [-1, 1]")
    return _region(s, inverse)


def square_homeo(p, inverse: bool = False) -> SquarePoint:
    """The square homeomorphism: rising above the axis, reflected shift on
    the band below it, inverse descending on the bottom quarter."""
    r, s = as_square_point(p)
    tag = _region(s, inverse)
    if inverse:
        if tag is RegionTag.R1:
            return _rise(r, s, True)
        if tag is RegionTag.D0:
            return (-r, SHIFT_PROFILE._preimage(s))
        return _descend(r, s, False)
    if tag is RegionTag.R0:
        return _rise(r, s, False)
    if tag is RegionTag.D_MINUS_1:
        return (-r, SHIFT_PROFILE._value(s))
    return _descend(r, s, True)


def _forward_piece_key(p) -> tuple:
    """Hashable identifier of the affine piece of the forward map at p.

    Equal keys guarantee the map is affine on the segment between the two
    points; used by the orientation probe to detect seam straddles exactly.
    """
    r, s = as_square_point(p)
    tag = region_of(s)
    if tag is RegionTag.R0:
        sseg = SHIFT_PROFILE.segment_index(s)
        row = row_map(SHIFT_PROFILE(s))
        return (tag, sseg, row, row.segment_index(-r))
    if tag is RegionTag.D_MINUS_1:
        return (tag, SHIFT_PROFILE.segment_index(s))
    # bottom quarter: vertical-flip conjugate of the rising map's inverse
    row = row_map(-s)
    inv_row = row.inverse_fn()
    return (tag, row, inv_row.segment_index(r), INV_SHIFT_PROFILE.segment_index(-s))
