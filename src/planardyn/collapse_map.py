"""Boundary collapse of the square onto itself, built from two polar charts.

The goal is a continuous surjection of the closed square that fixes the
vertical fiber through the origin pointwise, halves the horizontal axis,
sends each vertical edge to a single interior point on the axis, and folds
the top and bottom edges onto a path ending in a horizontal slit.  The
interior of the square maps homeomorphically onto the open square minus the
two closed slits; conjugating the square homeomorphism by this map later
turns boundary dynamics into interior dynamics with the slit endpoints as
the only limit points.

Construction on the upper-right quarter [0, 1] x [0, 1]; the other three
quarters are its mirrors across the fiber, the axis, or both, so the
collapse commutes with both reflections of the square exactly:

* the edge chart (``_edge_chart`` and its inverse) writes a point as
  (angle, radius) around the midpoint of the right edge.  Its chart
  rectangle is [0, pi] x [0, 1], angle 0 pointing straight down, pi/2
  toward the fiber and pi straight up; the upper quarter is the half
  [pi/2, pi].  The right half-square is a sup-norm ball about this center,
  so the radius is that sup norm, max(1 - x, y) on the upper quarter, and
  the boundary is radius one.  The forward chart takes the point as its
  offset 1 - x from the edge and its height, and gives the angle as its
  offset from pi/2, atan2(y, 1 - x), the offset the cone reads.
* the slit chart (``_slit_chart`` and its inverse) does the same around the
  outer slit endpoint (1/2, 0), with the plain polar angle and the radius
  max(|2x - 1|, y).  Its chart rectangle is [0, 2*pi] x [0, 1]; the upper
  quarter is the half [0, pi], the slit's top side at angle 0.  The forward
  chart gives the angle as its offset from pi, pi - theta = atan2(y,
  1/2 - x): both charts measure the angle from the fiber's direction.
* the boundary correspondence carries the boundary circle of the first
  rectangle onto that of the second.  The central arc uses
  theta = pi - arctan(2 s) so the vertical fiber is fixed pointwise; a
  narrow arc next to the straight-up direction wraps onto the slit's top
  side; the arc between them interpolates affinely, and the other walls
  land on the radius-zero wall, which the target chart collapses to the
  slit endpoint.  The width of the narrow arc, ``slit_arc_angle``, is a
  free parameter of the construction; it is pinned to pi / 2**15 here,
  narrow enough that orbits of the induced plane map climb past norm 10**3
  before settling (see the excursion certificate).
* ``cone_map`` extends the boundary correspondence radially from the
  centers of the two rectangles: the point at fraction t of the way out
  along a ray goes to the fraction-t point toward its wall point's image.
  A rectangle is a sup-norm ball about its center (c0, 1/2), so for the
  offset (d0, d1) from the center t = max(|d0| / c0, 2 |d1|), and the
  larger term names the wall the ray leaves through.  On each wall t is
  linear in the offset, and the correspondence is affine in the wall
  coordinate except on the central arcs, so the ray exit, the
  correspondence and the interpolation multiply out into one affine form
  in (d0, d1) per wall (``_cone``), which reads and writes each angle as
  its chart's offset, so that an image next to the axis keeps its height's
  relative accuracy: forward, pi - theta = 4 d0 / 3 + 2 pi d1 / 3 on the
  angle-pi wall, 2 d0 / 3 on the radius-zero wall, and on the radius-one
  wall (t = 2 d1) t arctan(2 tan(d0 / t)) on the central arc.  The cone
  commutes with the flips angle -> pi - angle and theta -> 2*pi - theta,
  which the vertical reflection of the square induces on the two
  rectangles; ``cone_map`` mirrors a point of the lower half onto the
  upper one, and ``_cone`` serves the upper halves only.

Every chart step serves the upper quarter only: a ray from a rectangle's
center through a point of its upper half leaves through the walls of that
half.  Each forward chart takes one arctangent for its angle; the radius
needs only comparisons.  The cone takes a tangent and an arctangent on
the central arcs and nothing else transcendental.  Each chart inverse
takes one tangent, for the point e where its ray leaves the quarter, and
writes c + rho (e - c) from its center c with e's known wall coordinate
folded in: 1 - rho or rho on the edge chart's fiber and top wall,
1/2 - rho/2 or 1/2 + rho/2 on the slit chart's fiber and right edge, rho
on its top wall, and one product of rho or rho/2 with the tangent.

All functions take an explicit mpmath-style context; nothing reads or
writes global precision.  Only the entry points (``collapse``,
``collapse_inv``, ``cone_map``, ``_collapse_charts``) take exact rationals,
ints, floats or context floats, which ``_pt`` converts once with the one
typed conversion, ``numerics.to_bigfloat``: any other coordinate, a
numeric string included, raises DomainError there, before a range test
compares it.  Each looks up the context's chart table ``k = _consts(ctx)``
once: its constants as floats of the context, its ``atan2``, ``tan`` and
``atan``, and the tangent chart's pi/2 and 2/pi.  On ``mpmath.fp`` the
three are the ``math`` functions that ``fp``'s wrappers call on a float; on
big floats each calls mpmath's libmp routine at the table's precision and
rounding, as the context's function does past its type dispatch, and writes
down the tangent of a tiny float and the arctangent of a steep quotient
(``_libmp_entries``): mpmath's bits without its extra working bits.  The
chart steps take floats of the context and the table, not the context.  An
entry then calls an internal form that takes the table: ``_cone`` for
``cone_map``, ``_collapse_exact`` and ``_collapse_pinned`` for
``collapse``, ``_collapse_inv`` for ``collapse_inv``.  The plane map looks
the table up once per step and calls these forms directly, so the points
it hands over are never converted again; ``cone_map`` itself converts
every point it is given.

Each fact is checked once, in the function that first sees the point:
``collapse`` hands a point of two Fractions to its exact entry
``_collapse_exact``, which takes the point as two integer pairs (the plane
map calls it with the square map's pairs, building no Fraction), checks
and pins it on numerators and denominators (square, fiber, edges, axis)
and, off the pins, converts the edge offset (d - |n|)/d and the height's
magnitude once each with ``pair_to_bigfloat``; the float entries form the
offset 1 - |r| once.  ``_collapse_inv`` checks and pins a point as given
and charts its floats.  Both directions decide the quarter on the point as
given and chart magnitudes, since both roundings (toward zero for
rationals, to nearest in doubles) are symmetric about zero; a height that
rounds to zero is mirrored too.  Each range check is a negated in-range
test, so a NaN coordinate fails it.  The steps check nothing: a step's
input is in range by construction, through the entry checks, the charts'
radii (sup norms of a quarter point's offset, and the cone's, which its
closed forms keep in [0, 1]), and three angle clamps, at the cone's entry
and at each chart inverse.  An angle is a rounded transcendental or a sum
of rounded constants, a few ulps past its half's wall at worst; the clamp
snaps it back, so that the branch tests pick the wall the ray leaves
through and each tangent's argument, such as pi - phi on the slit chart's
right edge, is not negative.  The chart inverses clamp no radius; the slit
chart's top wall holds its abscissa, which cancels next to (0, 1), at zero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from mpmath.ctx_fp import FPContext
from mpmath.libmp import from_man_exp, mpf_atan, mpf_atan2, mpf_div, mpf_pos, mpf_tan, pi_fixed

from .numerics import DomainError, SlitError, coprime_fraction, pair_to_bigfloat, to_bigfloat

# slit_arc_angle = pi / SLIT_ARC_DENOM
SLIT_ARC_DENOM = 32768


def _consts(ctx):
    """The chart table of ``ctx``: its constants and transcendentals.

    Looked up once per entry point (once per step on the plane path) and
    handed to every chart step in place of the context.
    """
    # keyed on the precision too: a context's precision can change after use
    return _consts_at(ctx, ctx.prec)


def _libmp_entries(ctx, prec):
    """The big-float table's tan, atan and atan2: mpmath's libmp routines at
    ``prec`` and the rounding, as ``ctx.tan``, ``ctx.atan`` and
    ``ctx.atan2`` call them, and two bands where mpmath spends |log2 x|
    extra bits on a value written down here, to the same bits.  tan(x) = x
    for a context float 0 < |x| < 2^-(p//2 + 4): tan x - x < 2^-(p+8) x, and
    mpmath keeps 10 guard bits and rounds to nearest, the one rounding a
    context takes.  atan2(y, x), y, x > 0, takes ``mpf_atan2``'s steps:
    z = y/x and atan z truncated at p + 4 bits, rounded to p.  For
    2^(p/2 + 4) < z <= 2^(p+24) ``mpf_atan`` takes pi/2 - atan(1/z) at
    wp = p + 34 + log2 z bits; pi/2 - 1/z, (1/z)^3 and a few series units
    off, truncates alike unless within 2^32 units of wp of a step.
    """
    rnd, make = ctx._prec_rounding[1], ctx.make_mpf
    qp, lo, hi, tiny = prec + 4, prec // 2 + 4, prec + 24, -(prec // 2) - 4

    def tan(x):
        v = x._mpf_
        return make(v if v[1] and v[2] + v[3] < tiny and v[3] <= prec else mpf_tan(v, prec, rnd))

    def atan(x):
        return make(mpf_atan(x._mpf_, prec, rnd))

    def atan2(y, x):
        y, x = y._mpf_, x._mpf_
        if not (y[1] and x[1]) or y[0] or x[0]:
            return make(mpf_atan2(y, x, prec, rnd))
        z = mpf_div(y, x, qp)  # mpf_atan2's steps from here on
        if lo < z[2] + z[3] <= hi:
            wp = qp + 30 + z[2] + z[3]
            a = (pi_fixed(wp) >> 1) + 1 - ((1 << (wp - z[2])) // z[1])  # 1/z truncated
            cut = a.bit_length() - qp
            if 2**32 <= a & ((1 << cut) - 1) < (1 << cut) - 2**32:
                return make(from_man_exp(a >> cut, cut - wp, prec, rnd))
        return make(mpf_pos(mpf_atan(z, qp), prec, rnd))

    return tan, atan, atan2


# bounded: contexts are made freely (one per precision_scaling run), and an
# unbounded cache would keep every one of them alive
@lru_cache(maxsize=16)
def _consts_at(ctx, prec):
    pi = +ctx.pi
    corner = ctx.atan(2)  # slit-chart angle of (1, 1), the offset of (0, 1)
    astar = pi / SLIT_ARC_DENOM
    third = 2 * pi / 3
    zero, half = to_bigfloat(0, ctx), to_bigfloat(Fraction(1, 2), ctx)
    # on doubles, the math functions that mpmath.fp's wrappers call on a
    # float: the same bits without the wrappers' type dispatch
    fp = isinstance(ctx, FPContext)
    tan, atan, atan2 = (math.tan, math.atan, math.atan2) if fp else _libmp_entries(ctx, prec)
    span, stretch = pi / 4 - astar, pi - corner  # the affine arc's widths
    return {
        "atan2": atan2, "tan": tan, "atan": atan,
        "pi": pi,
        "two_pi": 2 * pi,
        "half_pi": pi / 2,
        "quarter_pi": pi / 4,
        "two_over_pi": 2 / pi,  # the tangent chart's scale
        "third": third,
        "corner": corner,
        "astar": astar,
        "arc_end": pi / 2 - astar,  # edge-chart offset where the slit-top arc starts
        "stretch": stretch,
        "arc_stretch": stretch / span,  # the affine arc's slope, and its inverse's
        "arc_shrink": span / stretch,
        # small integers and ratios as context floats: each but 2/3 converts
        # exactly
        "one": to_bigfloat(1, ctx),
        "minus_one": to_bigfloat(-1, ctx),
        "two": to_bigfloat(2, ctx),
        "two_thirds": to_bigfloat(2, ctx) / 3,
        "three_halves": to_bigfloat(Fraction(3, 2), ctx),
        "zero": zero,
        "half": half,
        "snap": to_bigfloat(Fraction(1, 2 ** (prec - 8)), ctx),
    }


def slit_arc_angle(ctx):
    """Angular width of the two slit arcs in the edge chart."""
    return _consts(ctx)["astar"]


def _pt(x, ctx):
    """The point as two floats of ``ctx``: an entry point's one conversion,
    which ``to_bigfloat`` types."""
    return (to_bigfloat(x[0], ctx), to_bigfloat(x[1], ctx))


def _soft_clamp(v, lo, hi, k):
    """Clamp a value that may overshoot an interval by accumulated rounding.

    The lower bound is tested as negated in-range tests, so a NaN counts
    as an overshoot beyond the snap and raises."""
    if not v >= lo:
        if not lo - v <= k["snap"] * (1 + abs(lo)):
            raise DomainError(f"value {v} below {lo}")
        return lo
    if v > hi:
        if v - hi > k["snap"] * (1 + abs(hi)):
            raise DomainError(f"value {v} above {hi}")
        return hi
    return v


def _edge_chart(dx, py, k):
    """Edge chart forward: (angle offset, radius) of a point of the
    upper-right quarter other than the right-edge midpoint, given as its
    offset ``dx`` = 1 - x from the right edge and its height ``py``.

    The offset is the chart angle less pi/2, the angle from the fiber's
    direction: atan2(y, 1 - x), in [0, pi/2] since ``py`` is not negative,
    not even a negative zero.  The radius is the sup norm max(1 - x, y), so
    the quarter's outer boundary is radius one.  Rounding may leave the
    offset a few ulps outside [0, pi/2], and ``_cone`` clamps it.
    """
    return (k["atan2"](py, dx), max(dx, py))


def _edge_chart_inv(beta, rho, k):
    """Edge chart inverse at (``beta``, ``rho``), the offset clamped onto
    [0, pi/2]: the fraction rho of the way from (1, 0) to where the ray
    leaves the quarter, through the fiber below the diagonal and the top
    wall above it, each at one tangent of an offset within pi/4 of zero."""
    beta = _soft_clamp(beta, k["zero"], k["half_pi"], k)
    if beta < k["quarter_pi"]:  # the fiber
        return (k["one"] - rho, rho * k["tan"](beta))
    return (k["one"] - rho * k["tan"](k["half_pi"] - beta), rho)  # the top wall


def _slit_chart(py0, py1, k):
    """Slit chart forward: (angle offset, radius) about (1/2, 0) of a point
    of the upper-right quarter off the closed slit ray.

    The offset is pi less the polar angle, the angle from the fiber's
    direction: atan2(y, 1/2 - x), in [0, pi] since ``py1`` is not negative,
    not even a negative zero.  The radius is the sup norm max(|1 - 2x|, y).
    """
    d0 = k["half"] - py0
    return (k["atan2"](py1, d0), max(k["two"] * abs(d0), py1))


def _slit_chart_inv(phi, rho, k):
    """Slit chart inverse at (``phi``, ``rho``), phi = pi - theta clamped
    onto [0, pi]: the fraction rho of the way from (1/2, 0) to where the
    ray leaves the quarter, through the fiber, the top wall or the right
    edge.  Each branch takes one tangent: of phi, of phi - pi/2 (theta's
    cotangent), or of theta = pi - phi, exact where it meets the corner."""
    phi = _soft_clamp(phi, k["zero"], k["pi"], k)
    if phi < k["corner"]:  # the fiber
        h = rho * k["half"]
        return (k["half"] - h, h * k["tan"](phi))
    theta = k["pi"] - phi
    if theta > k["corner"]:  # the top wall, from the corner (0, 1) to (1, 1)
        # held at zero: next to (0, 1) it cancels to a few units of 2^-p
        return (max(k["half"] + rho * k["tan"](phi - k["half_pi"]), k["zero"]), rho)
    h = rho * k["half"]  # the right edge
    return (k["half"] + h, h * k["tan"](theta))


def _cone(d0, rho, inverse, k):
    """``cone_map`` at a point of the upper half of its source rectangle,
    given as its angle's offset ``d0`` from the fiber's direction and its
    radius ``rho``: forward d0 in [0, pi/2] (edge-chart angle pi/2 + d0),
    inverse d0 in [0, pi] (slit-chart angle pi - d0).  The offset is
    clamped onto that range; the image, in the upper half of the target
    rectangle, comes as such an offset too.

    With d1 = rho - 1/2, the ray parameter is t = max(s0, 2 |d1|), s0 the
    angle term (forward 2v, v = d0/pi, and the test is v >= |d1|), and the
    larger term names the wall the ray leaves through, the angle wall on a
    tie.  On each wall t is linear in the offset, so the wall's boundary
    correspondence and the interpolation by t are one affine form; only
    the central arcs keep a tangent and an arctangent.
    """
    pi, half = k["pi"], k["half"]
    d1 = rho - half
    if inverse:
        t = k["two"] * abs(d1)
        d0 = _soft_clamp(d0, k["zero"], pi, k)
        s0 = d0 / pi
        if s0 >= t:  # the angle-0 wall, onto the slit-top arc
            return (d0 * half - k["astar"] * (s0 * half + d1), (k["one"] + s0) * half)
        e = t * pi - d0  # t times the wall point's angle
        if d1 > k["zero"]:  # the radius-one wall
            if e <= t * k["stretch"]:  # the affine arc
                return (t * k["arc_end"] - e * k["arc_shrink"], rho)
            return (t * k["atan"](k["tan"](d0 / t) * half), rho)  # the central arc
        if e <= t * k["third"]:  # the radius-zero wall, onto the angle-pi wall
            return (t * k["half_pi"], (k["one"] + t) * half - e / k["third"])
        return (k["three_halves"] * d0, rho)
    d0 = _soft_clamp(d0, k["zero"], k["half_pi"], k)
    v = d0 / pi  # half the angle term
    if v >= abs(d1):  # the angle-pi wall
        return (k["third"] * (k["two"] * v + d1), half - v)
    if d1 < k["zero"]:  # the radius-zero wall
        return (k["two_thirds"] * d0, rho)
    t = k["two"] * d1  # the radius-one wall
    if d0 <= t * k["quarter_pi"]:  # the central arc
        return (t * k["atan"](k["two"] * k["tan"](d0 / t)), rho)
    w = t * k["arc_end"]  # where the slit-top arc starts
    if d0 < w:  # the affine arc
        return (t * pi - (w - d0) * k["arc_stretch"], rho)
    # the slit-top arc, onto the slit's top side: the radius falls from rho
    # by (d0 - w) / astar, at most t.  Next to the corner that fall stretches
    # the offset's rounding by 1/astar, past rho at some precisions (100 and
    # 200 bits): the radius is held at zero, the slit endpoint
    return (t * pi, max(rho - (d0 - w) / k["astar"], k["zero"]))


def cone_map(u, ctx, inverse: bool = False):
    """Radial extension of the boundary correspondence, center to center.

    Forward sends the edge-chart rectangle onto the slit-chart rectangle:
    the center (pi/2, 1/2) goes to (pi, 1/2), and the point at fraction t
    of the way from the center to a boundary point goes to the fraction-t
    point toward that boundary point's image.  Bijective; the inverse runs
    the same recipe through the inverse boundary correspondence.  A point
    of the lower half, angle below pi/2 forward or above pi inverse, is
    the mirror of a point of the upper half, through angle -> pi - angle
    and theta -> 2*pi - theta, and goes to the mirror of that point's
    image.  A point up to rounding outside its rectangle is clamped onto
    it.
    """
    u0, u1 = _pt(u, ctx)
    k = _consts(ctx)
    pi, two_pi, half_pi = k["pi"], k["two_pi"], k["half_pi"]
    # the source's width, whose flip is angle -> width - angle, and the
    # flip of the target
    flip, image_flip = (two_pi, pi) if inverse else (pi, two_pi)
    u0 = _soft_clamp(u0, k["zero"], flip, k)  # before mirroring: errors name the input
    u1 = _soft_clamp(u1, k["zero"], k["one"], k)
    lower = u0 > pi if inverse else u0 < half_pi
    a = flip - u0 if lower else u0
    # _cone reads and writes each angle as its offset from the fiber's
    # direction, pi in the slit chart and pi/2 in the edge chart
    w = _cone(pi - a if inverse else a - half_pi, u1, inverse, k)
    a = half_pi + w[0] if inverse else pi - w[0]
    return (image_flip - a, w[1]) if lower else (a, w[1])


def _collapse_pinned(dx, u1, left, lower, k):
    """The collapse at a point of the square off its pins, which the caller
    decides on the input with the quarter, given as 1 - |r| and |s| in
    floats of the context: the upper-right quarter's charts, mirrored
    back."""
    # in doubles a point next to an edge can round onto the chart's center
    if not u1 and not dx:
        raise DomainError("edge chart is degenerate at its center")
    w = _cone(*_edge_chart(dx, u1, k), False, k)
    y0, y1 = _slit_chart_inv(w[0], w[1], k)
    return (-y0 if left else y0, -y1 if lower else y1)


def _collapse_charts(x, ctx):
    """Chart composition of the collapse at a point of the square, no
    shortcut pins.

    Used by the verification suite to confirm that the pinned values
    (fiber, axis, edges) are what the charts themselves produce.  The
    suite passes points of the square only; of the domain, only the edge
    chart's center is checked here.
    """
    u0, u1 = _pt(x, ctx)
    k = _consts(ctx)
    return _collapse_pinned(k["one"] - abs(u0), abs(u1), x[0] < 0, x[1] < 0, k)


def _collapse_exact(n: int, d: int, m: int, e: int, ctx, k):
    """``collapse`` at the point (n/d, m/e), both pairs in lowest terms with
    positive denominators, checked, pinned and put in its quarter on the
    integers, then charted on (d - |n|)/d and |m|/e; ``k`` is ``ctx``'s
    table."""
    if n > d or -n > d or m > e or -m > e:
        r, s = coprime_fraction(n, d), coprime_fraction(m, e)
        raise DomainError(f"point ({r}, {s}) outside the square")
    if n == d or -n == d:
        return (-k["half"] if n < 0 else k["half"], k["zero"])
    if not n:
        return (k["zero"], pair_to_bigfloat(m, e, ctx))
    if not m:
        return (pair_to_bigfloat(n, d, ctx) / 2, k["zero"])
    dx, a1 = pair_to_bigfloat(d - abs(n), d, ctx), pair_to_bigfloat(abs(m), e, ctx)
    return _collapse_pinned(dx, a1, n < 0, m < 0, k)


def collapse(x, ctx):
    """The boundary collapse.  Defined on the whole closed square.

    Pins: the central fiber is fixed pointwise, the horizontal axis is
    halved, and each vertical edge goes to the slit endpoint on its side.
    Interior points off the axis and fiber go through the charts, mirrored
    from the upper-right quarter, so the map commutes with both
    reflections of the square exactly.  A point of two Fractions is
    checked and pinned on its numerators and denominators.
    """
    r, s = x
    k = _consts(ctx)
    if type(r) is Fraction and type(s) is Fraction:
        return _collapse_exact(r.numerator, r.denominator, s.numerator, s.denominator, ctx, k)
    u0, u1 = _pt(x, ctx)
    # a negated in-range test, so that NaN fails it
    if not (abs(r) <= 1 and abs(s) <= 1):
        raise DomainError(f"point ({r}, {s}) outside the square")
    if abs(r) == 1:
        return (-k["half"] if r < 0 else k["half"], k["zero"])
    if r == 0:
        return (k["zero"], u1)
    if s == 0:
        return (u0 / 2, k["zero"])
    return _collapse_pinned(k["one"] - abs(u0), abs(u1), r < 0, s < 0, k)


def _collapse_inv(y, u, k):
    """``collapse_inv`` at the point ``y``, given also as two floats ``u``
    of the context (``y`` itself when it already is): checked and pinned
    on ``y``, charted on ``u``."""
    y1, y2 = y
    # a negated in-range test, so that NaN fails it
    if not (abs(y1) < 1 and abs(y2) < 1):
        raise DomainError(f"point ({y1}, {y2}) outside the open square")
    if y1 == 0:
        return (k["zero"], u[1])
    if y2 == 0:
        if 2 * abs(y1) >= 1:
            raise SlitError(f"point ({y1}, 0) lies on a collapse slit")
        return (2 * u[0], k["zero"])
    left, lower = y1 < 0, y2 < 0
    u0, u1 = u
    if left:
        u0 = -u0
    if lower:
        u1 = -u1
    # a height below the doubles' range rounds to zero, onto the slit ray
    if u1 == k["zero"] and u0 >= k["half"]:
        raise SlitError(f"point ({u0}, {u1}) lies on the slit ray")
    w = _cone(*_slit_chart(u0, u1, k), True, k)
    x0, x1 = _edge_chart_inv(w[0], w[1], k)
    return (-x0 if left else x0, -x1 if lower else x1)


def collapse_inv(y, ctx):
    """Inverse of the collapse on its interior image.

    Defined on the open square minus the two closed slits.  Points of the
    slits (endpoints included) have no single preimage and raise SlitError;
    points on or outside the square boundary raise DomainError.
    """
    return _collapse_inv(y, _pt(y, ctx), _consts(ctx))
