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
corners (backward).  These are the paper's three regions per direction
(``region_of``).  The kernel takes two: a row is the identity up to 3/4,
so on the band below the axis the rising map is the reflected shift, and
f's step is the rising map or its vertical-flip conjugate (``_rises``).

Everything here is exact on rational points.  The public maps validate
their point; ``square_homeo`` validates once and then runs the private
forms (``_homeo``, ``_rise``, ``_descend``, ``_row``), which take a
checked point as integer pairs (numerator, denominator) in lowest terms
and return pairs, so a caller that holds pairs, as the plane map does,
builds no Fraction, and ``square_homeo`` builds one per output coordinate,
at the end.  ``_row_at`` picks the strip shear's row at a height off one
cached record per level, and the row is evaluated pointwise, never built
as a PLFunction: the identity at or below 3/4 and on the top line, on a
shear zone by the level's rule, on a blend zone from the level's cached
coefficients, bilinear in (r, s).  The blend row's inverse at the height
is one ``numerics._affine`` step at r, its piece transposed, reduced by
two gcds with a small operand each.  Its value alone tests a pair's width
and picks a route: on narrow pairs the same one ``_affine`` step; where a
denominator is wide (``_WIDE``), slope and intercept first, then
Fraction's cross-reduction order in the wide kernels (``_sum``,
``_product``), whose gcds split off the power of two.  The orientation
probe's piece key
(``_forward_piece_key``) is ``_homeo``'s branch, read off the same pairs
and the same row.  ``row_map`` builds the row, only as the tests'
reference.

``_orbit`` is the one windowed orbit loop: it iterates ``_homeo`` on a
checked point's pairs, or a given step function, and keeps the steps of
one or more windows (``_steps``) from one pass.  The map f
(``square_orbit``, its ``lifted`` slot) and the plane map h
(``plane_map._lifted``, on its seed's exact lift) run it on pairs, with
no Fraction or point check per step; ``dynamics.orbit`` runs the other
maps' forward and inverse through it.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import List, Sequence, Tuple

from .numerics import (
    IDENTITY_PL,
    DomainError,
    PLFunction,
    _affine,
    _affine_piece,
    _int_pairs,
    _lowest,
    _piece,
    _twos,
    as_rational,
    coprime_fraction,
)
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
# a point as integers (rn, rd, sn, sd): r = rn/rd and s = sn/sd in lowest terms
PointPairs = Tuple[int, int, int, int]
# A blend row's value takes the wide route (``_sum``, ``_product``: gcds
# with the power of two split off) when the abscissa's or the height's
# denominator reaches this width, else the narrow one (``_affine``); on a
# strip-wall lift the wide route's gcds run on odd parts of a few hundred
# bits.
_WIDE = 1 << 512

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


def _sum(na: int, da: int, nb: int, db: int) -> Tuple[int, int]:
    """na/da + nb/db for pairs in lowest terms, reduced as ``Fraction`` adds:
    by g = gcd(da, db), then by gcd(t, g) with the new numerator t.  The
    wide route's kernel: both gcds split off the power of two first.

    With da = 2^i a and db = 2^j b, a and b odd, g is 2^min(i, j) gcd(a, b),
    and gcd(t, g) is a power of two read off t's low bits times
    gcd(t, gcd(a, b)), which is 1 more often than not.  A strip-wall lift
    has da = 2^24700 times an odd part of some 250 bits, so the gcds and
    divisions run on the odd parts, and the full-size operands see only
    shifts unless the odd parts share a factor.
    """
    i = _twos(da)
    j = _twos(db)
    m = i if i < j else j
    go = gcd(da >> i, db >> j)
    s = da >> m
    u = db >> m
    if go > 1:
        s //= go
        u //= go
    t = na * u + nb * s
    k = _twos(t) if t else m
    if k > m:
        k = m
    if go > 1:
        g2 = gcd(t, go)
        if g2 > 1:
            return (t >> k) // g2, s * ((db >> k) // g2)
    return t >> k, s * (db >> k)


def _split_gcd(n: int, d: int) -> int:
    """gcd(n, d) for d > 0, with the power of two split off d (and off n
    when n is even too): the odd parts' gcd, shifted back."""
    j = _twos(d)
    if n & 1 or not j:
        return gcd(n, d >> j)
    if not n:
        return d
    i = _twos(n)
    return gcd(n >> i, d >> j) << (i if i < j else j)


def _product(na: int, da: int, nb: int, db: int) -> Tuple[int, int]:
    """(na/da) * (nb/db) for pairs in lowest terms, reduced as ``Fraction``
    multiplies: across, by gcd(na, db) and gcd(nb, da).  The wide route's
    kernel: both gcds split off the power of two first (``_split_gcd``), as
    a wide abscissa meets a slope whose denominator is 2^k times a few odd
    bits.
    """
    g = _split_gcd(na, db)
    if g > 1:
        na //= g
        db //= g
    g = _split_gcd(nb, da)
    if g > 1:
        nb //= g
        da //= g
    return na * nb, da * db


class _BlendZone:
    """The rows of one level's blend zone, exact, as functions of the height.

    The zone [lo, mid) blends ``prev`` into ``rule`` with the weight
    t = (s - lo) / (mid - lo).  Both rules are affine on each piece between
    consecutive merged abscissas, and so is every blended row; its slope
    and intercept there are affine in t, hence in s: the row is bilinear
    in (r, s).  The coefficients are per level: they fold in the level's lo
    and mid.

    xkeys  : interior merged abscissas, as integer pairs
    pieces : per merged piece, the row's slope (A1, E1, D) and intercept
             (A2, E2, D) as functions of s over one denominator, stored as
             (A1, E1, A2, E2, D) over their gcd: at a height p/q the row
             is the piece (A1*p + E1*q, A2*p + E2*q, D*q) of
             ``numerics._affine``, and slope and intercept are ``_affine``
             of their triples at p/q
    ykeys  : per interior merged abscissa, the row's ordinate there as a
             function of s, as the integers of ``_affine``
    """

    __slots__ = ("xkeys", "pieces", "ykeys")

    def __init__(self, prev: PLFunction, rule: PLFunction, lo: Fraction, mid: Fraction):
        xs = sorted(set(prev.xs) | set(rule.xs))
        ya = [prev(x) for x in xs]
        yb = [rule(x) for x in xs]
        width = mid - lo

        def in_s(c, c2):
            # c + t*(c2 - c) as c0 + c1*s, stored for ``_affine``
            c1 = (c2 - c) / width
            return _affine_piece(c1, c - c1 * lo)

        pieces = []
        for k in range(len(xs) - 1):
            w = xs[k + 1] - xs[k]
            m = (ya[k + 1] - ya[k]) / w
            m2 = (yb[k + 1] - yb[k]) / w
            (a1, e1, d1), (a2, e2, d2) = in_s(m, m2), in_s(ya[k] - m * xs[k], yb[k] - m2 * xs[k])
            pieces.append(_lowest((a1 * d2, e1 * d2, a2 * d1, e2 * d1, d1 * d2)))
        self.xkeys = _int_pairs(xs[1:-1])
        self.pieces = tuple(pieces)
        self.ykeys = tuple(in_s(y, y2) for y, y2 in zip(ya[1:-1], yb[1:-1]))

    def piece(self, rn: int, rd: int, p: int, q: int, inverse: bool) -> int:
        """The merged piece of the row at height p/q that holds rn/rd: split
        at the merged abscissas, or (inverse) at the row's ordinates."""
        if not inverse:
            return _piece(self.xkeys, rn, rd)
        for k, (a, e, d) in enumerate(self.ykeys):  # the first ordinate above r
            if rn * d * q < (a * p + e * q) * rd:
                return k
        return len(self.ykeys)

    def value(self, rn: int, rd: int, p: int, q: int) -> Tuple[int, int]:
        """The row at height p/q, evaluated at rn/rd: slope * r + intercept."""
        a1, e1, a2, e2, d = self.pieces[self.piece(rn, rd, p, q, False)]
        if rd < _WIDE and q < _WIDE:
            return _affine(a1 * p + e1 * q, a2 * p + e2 * q, d * q, rn, rd)
        mn, md = _product(*_affine(a1, e1, d, p, q), rn, rd)
        return _sum(mn, md, *_affine(a2, e2, d, p, q))

    def preimage(self, rn: int, rd: int, p: int, q: int) -> Tuple[int, int]:
        """The row's inverse at height p/q, evaluated at rn/rd:
        (r - intercept) / slope, the row's piece transposed; the slope
        A1*p + E1*q is positive, as an increasing row's is."""
        a1, e1, a2, e2, d = self.pieces[self.piece(rn, rd, p, q, True)]
        return _affine(d * q, -(a2 * p + e2 * q), a1 * p + e1 * q, rn, rd)


@lru_cache(maxsize=None)
def _level_zone(i: int) -> _BlendZone:
    """The blend zone of strip level i >= 2 (its bounds and rule are cached
    by ``strip_bounds`` and ``line_rule``)."""
    lo, mid, _ = strip_bounds(i)
    return _BlendZone(line_rule(i - 1), line_rule(i), lo, mid)


@lru_cache(maxsize=None)
def _level_split(i: int) -> Tuple[int, int, PLFunction]:
    """``_row_at``'s record of level i: its split height as a pair, its rule."""
    mid = strip_bounds(i)[1]
    return mid.numerator, mid.denominator, line_rule(i)


def _row_at(p: int, q: int) -> tuple:
    """The strip shear's row at a checked height p/q <= 1, as (level, row):
    the identity, None, at level 1 (every height up to 3/4) and on the top
    line (level None); level i's rule on its shear zone and its
    ``_BlendZone`` on its blend zone."""
    if 4 * p <= 3 * q:
        return 1, None
    if p == q:
        return None, None
    i = _level_of(p, q)
    mn, md, rule = _level_split(i)
    return i, rule if p * md >= mn * q else _level_zone(i)


def _row(rn: int, rd: int, p: int, q: int, inverse: bool) -> Tuple[int, int]:
    """``row_map(p/q)(rn/rd)`` (or its inverse at rn/rd) as a pair, for a
    checked point with p/q <= 1, evaluated pointwise: the identity at every
    height up to 3/4, not only on the core band where ``row_map`` is."""
    _, row = _row_at(p, q)
    if row is None:
        return rn, rd
    if row.__class__ is _BlendZone:
        return row.preimage(rn, rd, p, q) if inverse else row.value(rn, rd, p, q)
    return row._preimage(rn, rd) if inverse else row._value(rn, rd)


def _fractions(x: PointPairs) -> SquarePoint:
    """The square point of four integers in lowest terms, one Fraction each."""
    return (coprime_fraction(x[0], x[1]), coprime_fraction(x[2], x[3]))


def strip_shear(p, inverse: bool = False) -> SquarePoint:
    """Apply the per-line shear (or its inverse) to a point of J x [1/2, 1]."""
    r, s = as_square_point(p)
    if s < HALF:
        raise DomainError(f"strip shear is defined on the band [1/2, 1], got s = {s}")
    n, d = _row(r.numerator, r.denominator, s.numerator, s.denominator, inverse)
    return (coprime_fraction(n, d), s)


def _rise(rn: int, rd: int, p: int, q: int, inverse: bool) -> PointPairs:
    """``rise_map`` at a checked point of its domain, on integer pairs."""
    if inverse:
        rn, rd = _row(rn, rd, p, q, True)
        return (-rn, rd) + SHIFT_PROFILE._preimage(p, q)
    p, q = SHIFT_PROFILE._value(p, q)
    return _row(-rn, rd, p, q, False) + (p, q)


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
    return _fractions(_rise(r.numerator, r.denominator, s.numerator, s.denominator, inverse))


def _descend(rn: int, rd: int, p: int, q: int, inverse: bool) -> PointPairs:
    """``descend_map`` at a checked point of its domain, on integer pairs:
    the rising map conjugated by the vertical flip."""
    rn, rd, p, q = _rise(rn, rd, -p, q, inverse)
    return (rn, rd, -p, q)


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
    return _fractions(_descend(r.numerator, r.denominator, s.numerator, s.denominator, inverse))


def region_of(s: Fraction, inverse: bool = False) -> RegionTag:
    """Region of the paper's piecewise definition picked for a given height."""
    s = as_rational(s)
    if abs(s.numerator) > s.denominator:
        raise DomainError(f"height {s} outside [-1, 1]")
    if inverse:
        if s >= HALF:
            return RegionTag.R1
        return RegionTag.D0 if s >= 0 else RegionTag.R_MINUS_1
    if s >= 0:
        return RegionTag.R0
    return RegionTag.D_MINUS_1 if s >= MINUS_HALF else RegionTag.R_MINUS_2


def _rises(sn: int, sd: int, inverse: bool) -> bool:
    """Whether f's step (or inverse step) at a checked height sn/sd rises:
    from s >= -1/2 forward, s >= 0 inverse; below, it descends."""
    return sn >= 0 if inverse else 2 * sn >= -sd


def _homeo(rn: int, rd: int, sn: int, sd: int, inverse: bool) -> PointPairs:
    """``square_homeo`` at a checked point, on integer pairs: the rising
    map, or the descending map run the other way (``_rises``)."""
    if _rises(sn, sd, inverse):
        return _rise(rn, rd, sn, sd, inverse)
    return _descend(rn, rd, sn, sd, not inverse)


def square_homeo(p, inverse: bool = False) -> SquarePoint:
    """The square homeomorphism: rising above the axis, reflected shift on
    the band below it, inverse descending on the bottom quarter."""
    r, s = as_square_point(p)
    return _fractions(_homeo(r.numerator, r.denominator, s.numerator, s.denominator, inverse))


def _steps(windows: Sequence[Tuple[int, int]]) -> List[int]:
    """The steps of inclusive windows (n_lo, n_hi), in turn; an empty one raises."""
    for window in windows:
        if window[0] > window[1]:
            raise DomainError(f"empty step range {window}")
    return [n for n_lo, n_hi in windows for n in range(n_lo, n_hi + 1)]


def _orbit(w: tuple, steps: List[int], step=None) -> List[Tuple[int, tuple]]:
    """The orbit of ``w`` at ``steps`` (``_steps`` of some windows) under
    ``step(*x, backward)``, as (n, point) in their order; the default step
    is ``_homeo``, on a checked point's integer pairs, looked up per call.

    Iteration starts at ``w`` (step 0) whether or not the steps hold 0,
    runs forward to the highest step and then backward to the lowest, and
    keeps only the given steps: one pass for all windows.  A DomainError
    from a step comes out as "left the domain at step n: ...".
    """
    step = step or _homeo
    wanted = set(steps)
    kept = {0: w}
    try:
        for sign, stop in ((1, max(steps)), (-1, min(steps))):
            x = w
            for n in range(sign, stop + sign, sign):
                x = step(*x, sign < 0)
                if n in wanted:
                    kept[n] = x
    except DomainError as exc:
        raise DomainError(f"left the domain at step {n}: {exc}") from exc
    return [(n, kept[n]) for n in steps]


def square_orbit(p, windows: Sequence[Tuple[int, int]]) -> List[Tuple[int, SquarePoint]]:
    """The orbit of ``square_homeo`` over inclusive step windows of any
    sign, as (n, point) for each step of each window in turn.

    The seed is checked once and iterated on integer pairs (``_orbit``),
    in one pass; only the returned steps are built as Fractions.
    """
    steps = _steps(windows)
    r, s = as_square_point(p)
    pairs = _orbit((r.numerator, r.denominator, s.numerator, s.denominator), steps)
    return [(n, _fractions(w)) for n, w in pairs]


def _forward_piece_key(p) -> tuple:
    """Hashable key of the branch ``_homeo`` takes forward at p: the shift
    profile's piece at s (f's height on both arms), the level of the row
    ``_rise`` reads, the row's piece, and on a blend zone the height.
    Equal keys mean the same affine coefficients, so the map is affine on
    the segment between the two points: the orientation probe's exact seam
    test."""
    r, s = as_square_point(p)
    rn, rd, sn, sd = r.numerator, r.denominator, s.numerator, s.denominator
    key = (_piece(SHIFT_PROFILE._xkeys, sn, sd),)
    inverse = not _rises(sn, sd, False)
    if inverse:  # the rising inverse, at the flipped height
        sn = -sn
    else:  # the rising map, at the reflected abscissa and the lifted height
        rn, (sn, sd) = -rn, SHIFT_PROFILE._value(sn, sd)
    level, row = _row_at(sn, sd)
    if row is None:
        return key + (level,)
    if row.__class__ is _BlendZone:
        return key + (level, row.piece(rn, rd, sn, sd, inverse), sn, sd)
    return key + (level, _piece(row._ykeys if inverse else row._xkeys, rn, rd))
