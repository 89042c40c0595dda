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
  the boundary is radius one.
* the slit chart (``_slit_chart`` and its inverse) does the same around the
  outer slit endpoint (1/2, 0), with the plain polar angle and the radius
  max(|2x - 1|, y).  Its chart rectangle is [0, 2*pi] x [0, 1]; the upper
  quarter is the half [0, pi], the slit's top side at angle 0.
* the boundary correspondence (``_edge_to_slit``, inverse
  ``_slit_to_edge``) carries the boundary circle of the first rectangle
  onto that of the second.  The central arc uses theta = pi - arctan(2 s)
  so the vertical fiber is fixed pointwise; a narrow arc next to the
  straight-up direction wraps onto the slit's top side; the arc between
  them interpolates affinely, and the other walls land on the radius-zero
  wall, which the target chart collapses to the slit endpoint.  The width
  of the narrow arc, ``slit_arc_angle``, is a free parameter of the
  construction; it is pinned to pi / 2**15 here, narrow enough that orbits
  of the induced plane map climb past norm 10**3 before settling (see the
  excursion certificate).
* ``cone_map`` extends the boundary correspondence radially from the
  centers of the two rectangles.  A rectangle is a sup-norm ball about its
  center too, so a point's ray parameter is max(|d0| / c0, 2 |d1|) for
  the offset d from the center (c0, 1/2): one division, no trigonometry.
  The cone commutes with the flips angle -> pi - angle and theta -> 2*pi -
  theta, which the vertical reflection of the square induces on the two
  rectangles; ``cone_map`` mirrors a point of the lower half onto the upper
  one, and ``_cone`` serves the upper halves only.

Every chart step serves the upper quarter only: a ray from a rectangle's
center through a point of its upper half leaves through the walls of that
half.  Each forward chart takes one arctangent for its angle; the radius
needs only comparisons.  Each chart inverse takes one tangent, for the
point where its ray leaves the quarter (``_edge_exit``, ``_slit_exit``).

All functions take an explicit mpmath-style context; nothing reads or
writes global precision.  Only the entry points (``collapse``,
``collapse_inv``, ``cone_map``, ``_collapse_charts``) take exact rationals,
ints, floats or context floats, typed and converted once in ``_pt``: any
other coordinate, a numeric string included, raises DomainError there,
before a range test compares it.  Each looks up the context's chart table
``k = _consts(ctx)`` once: its constants as floats of the context, its
``atan2``, ``tan`` and ``atan`` (on ``mpmath.fp`` the ``math`` functions
that ``fp``'s wrappers call on a float), and the tangent chart's pi/2 and
2/pi.  The chart steps take floats of the context and the table, not the
context.  An entry then calls an internal form that takes the table:
``_cone`` for ``cone_map``, ``_collapse_exact`` and ``_collapse_pinned``
for ``collapse``, ``_collapse_inv`` for ``collapse_inv``.  The plane map
looks the table up once per step and calls these forms directly, so the
points it hands over are never converted again; ``cone_map`` itself
converts every point it is given.

Each fact is checked once, in the function that first sees the point:
``collapse`` hands a point of two Fractions to its exact entry
``_collapse_exact``, which takes the point as two integer pairs (the plane
map calls it with the square map's pairs, building no Fraction), checks
and pins it on numerators and denominators (square, fiber, edges, axis)
and converts each coordinate once with ``pair_to_bigfloat``;
``_collapse_inv`` checks and pins a point as given and charts its floats.
Both directions decide the quarter on the point as given and mirror it
after converting, since both roundings (toward zero for rationals, to
nearest in doubles) are symmetric about zero; a height that rounds to zero
is mirrored too.  Each range check is a negated in-range test, so a NaN
coordinate fails it.  The steps check nothing: a step's input is in range
by construction, through the entry checks, the charts' radii (sup norms of
a quarter point's offset), the angle clamp at the cone's entry, the clamps
at the chart inverses, and the ray exit's snap onto a wall.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from mpmath.ctx_fp import FPContext

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


# bounded: contexts are made freely (one per precision_scaling run), and an
# unbounded cache would keep every one of them alive
@lru_cache(maxsize=16)
def _consts_at(ctx, prec):
    pi = +ctx.pi
    corner = ctx.atan(2)  # slit-chart angle of the top-right corner
    astar = pi / SLIT_ARC_DENOM
    third = 2 * pi / 3
    zero, half = to_bigfloat(0, ctx), to_bigfloat(Fraction(1, 2), ctx)
    # on doubles, the math functions that mpmath.fp's wrappers call on a
    # float: the same bits without the wrappers' type dispatch
    fp = isinstance(ctx, FPContext)
    return {
        "atan2": math.atan2 if fp else ctx.atan2,
        "tan": math.tan if fp else ctx.tan,
        "atan": math.atan if fp else ctx.atan,
        "pi": pi,
        "two_pi": 2 * pi,
        "half_pi": pi / 2,
        "two_over_pi": 2 / pi,  # the tangent chart's inverse scale
        "three_half_pi": 3 * pi / 2,
        "three_quarter_pi": 3 * pi / 4,
        "third": third,
        "corner": corner,
        "astar": astar,
        "pi_minus_astar": pi - astar,
        "span": pi / 4 - astar,  # angular width of the affine arc
        "stretch": pi - corner,  # image width of the affine arc
        # small integers as context floats: each converts exactly
        "one": to_bigfloat(1, ctx),
        "two": to_bigfloat(2, ctx),
        "three": to_bigfloat(3, ctx),
        "zero": zero,
        "half": half,
        "snap": to_bigfloat(Fraction(1, 2 ** (prec - 8)), ctx),
        # chart rectangles as (lo0, hi0, center); radial bounds are [0, 1]
        "U": (zero, pi, (pi / 2, half)),
        "V": (zero, 2 * pi, (pi, half)),
    }


def slit_arc_angle(ctx):
    """Angular width of the two slit arcs in the edge chart."""
    return _consts(ctx)["astar"]


_NUMBER_TYPES = frozenset((float, int, Fraction))


def _pt(x, ctx):
    """The point as two floats of ``ctx``: the one type check and the one
    conversion of an entry point.  A coordinate that is no Fraction, int,
    float or float of a context raises DomainError, a numeric string too."""
    for v in x:
        # exact types first: the plane path types every point it maps
        if type(v) in _NUMBER_TYPES or hasattr(v, "_mpf_") or isinstance(v, (float, int, Fraction)):
            continue
        raise DomainError(f"coordinate {v!r} is not a number")
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


def _edge_exit(a, k):
    """Where the ray from the right-edge midpoint (1, 0) at edge-chart
    angle ``a`` in [pi/2, pi] leaves the upper-right quarter [0, 1] x [0, 1].

    The angle runs from pi/2 (toward the fiber) to pi (straight up).  Each
    branch takes one tangent, of an offset within pi/4 of zero: on the
    fiber the height is the tangent of a - pi/2, on the top wall the
    distance from the right edge is the tangent of pi - a.
    """
    if a < k["three_quarter_pi"]:
        return (k["zero"], k["tan"](a - k["half_pi"]))
    return (k["one"] - k["tan"](k["pi"] - a), k["one"])


def _slit_exit(a, k):
    """Where the ray from the outer slit endpoint (1/2, 0) at polar angle
    ``a`` in [0, pi] leaves the upper-right quarter [0, 1] x [0, 1].

    Each branch takes one tangent: on the top wall the cotangent of the
    angle is written as minus the tangent of its offset from pi/2, an
    offset within pi/4 of zero.
    """
    if a <= k["corner"]:
        return (k["one"], k["tan"](a) / 2)
    if a <= k["stretch"]:  # pi - corner
        return (k["half"] - k["tan"](a - k["half_pi"]), k["one"])
    return (k["zero"], -k["tan"](a) / 2)


def _edge_chart(px, py, k):
    """Edge chart forward: (angle, radius) of a point of the upper-right
    quarter other than the right-edge midpoint.

    The angle lies in [pi/2, pi]: the height ``py`` is not negative, not
    even a negative zero.  The radius is the sup norm max(1 - x, y) of the
    offset from the midpoint, so the quarter's outer boundary is radius
    one.  The angle is not clamped: rounding may leave it a few ulps
    outside [pi/2, pi], and ``_cone`` clamps it.
    """
    dx = px - k["one"]
    return (k["three_half_pi"] - k["atan2"](py, dx), max(-dx, py))


def _edge_chart_inv(alpha, rho, k):
    """Edge chart inverse, along the ray to ``_edge_exit``; the input is
    clamped onto the upper half [pi/2, pi] x [0, 1]."""
    alpha = _soft_clamp(alpha, k["half_pi"], k["pi"], k)
    rho = _soft_clamp(rho, k["zero"], k["one"], k)
    e0, e1 = _edge_exit(alpha, k)
    return (k["one"] + rho * (e0 - k["one"]), rho * e1)


def _slit_chart(py0, py1, k):
    """Slit chart forward: (polar angle, radius) about (1/2, 0) of a point
    of the upper-right quarter off the closed slit ray.

    The angle lies in [0, pi]: the height ``py1`` is not negative, not even
    a negative zero.  The radius is the sup norm max(|2x - 1|, y).
    """
    d0 = py0 - k["half"]
    return (k["atan2"](py1, d0), max(k["two"] * abs(d0), py1))


def _slit_chart_inv(theta, rho, k):
    """Slit chart inverse, along the ray to ``_slit_exit``; the input is
    clamped onto the upper half [0, pi] x [0, 1]."""
    theta = _soft_clamp(theta, k["zero"], k["pi"], k)
    rho = _soft_clamp(rho, k["zero"], k["one"], k)
    e0, e1 = _slit_exit(theta, k)
    return (k["half"] + rho * (e0 - k["half"]), rho * e1)


def _edge_to_slit(alpha, rho, k):
    """Boundary correspondence, edge-chart wall to slit-chart wall, on the
    upper halves: a wall point with angle in [pi/2, pi] goes to a wall
    point with angle in [0, pi].

    The radius-one wall splits into three arcs: the central arc
    [pi/2, 3*pi/4] carried by theta = pi - arctan(2*tan(angle - pi/2)), an
    affine arc [3*pi/4, pi - astar], and slit-top [pi - astar, pi]
    wrapping onto the slit's 0 side.  The radius-zero wall and the angle-pi
    wall land affinely on the radius-zero wall of the target.  Bijective
    between the two half-boundaries (``_slit_to_edge`` is the inverse); the
    lower halves are their mirrors, through ``cone_map``.
    """
    pi, astar = k["pi"], k["astar"]
    if rho == k["one"]:
        if alpha <= k["three_quarter_pi"]:
            return (pi - k["atan"](k["two"] * k["tan"](alpha - k["half_pi"])), k["one"])
        if alpha < k["pi_minus_astar"]:
            return ((k["pi_minus_astar"] - alpha) * k["stretch"] / k["span"], k["one"])
        # at alpha = pi - astar the rounded ratio can exceed 1 (64, 512 bits)
        return (k["zero"], min((pi - alpha) / astar, k["one"]))
    if rho == k["zero"]:
        return (k["third"] * (k["two"] - alpha / pi), k["zero"])
    return (k["third"] * (k["one"] - rho), k["zero"])  # alpha == pi


def _slit_to_edge(theta, rho, k):
    """Boundary correspondence inverse, slit-chart wall to edge-chart wall,
    on the upper halves: angle in [0, pi] to angle in [pi/2, pi]."""
    pi, third = k["pi"], k["third"]
    span, stretch = k["span"], k["stretch"]
    if rho == k["one"]:
        if theta <= stretch:  # pi - corner
            return (k["pi_minus_astar"] - theta * span / stretch, k["one"])
        return (k["half_pi"] + k["atan"](k["tan"](pi - theta) / 2), k["one"])
    if theta == k["zero"]:
        return (pi - k["astar"] * rho, k["one"])
    # rho == 0
    if theta <= third:
        return (pi, k["one"] - theta / third)
    return (k["two_pi"] - k["three"] * theta / 2, k["zero"])


def _ray_exit(u0, u1, which, k):
    """Boundary hit of the ray from the rectangle center through (u0, u1).

    The coordinates are floats of the context in the upper half of the
    rectangle ``k[which]``, off its center (``_cone``).  The
    rectangle is the sup-norm ball of radii (c0, 1/2) about its center
    (c0, 1/2), so the point sits at fraction t = max(|d0| / c0, 2 |d1|) of
    the way out along its ray, d being its offset from the center; the wall
    of the larger term is hit first, the vertical one on a tie.  Returns
    (boundary point, t); the boundary point is snapped exactly onto the
    achieving wall so the arc dispatch downstream sees exact wall
    coordinates.
    """
    lo0, hi0, c = k[which]
    d0, d1 = u0 - c[0], u1 - c[1]
    s0, s1 = abs(d0) / c[0], k["two"] * abs(d1)
    if s0 >= s1:
        t = s0
        # unclamped: doubling is exact, so t >= 2 |d1| and this rounds into [0, 1]
        b = (hi0 if d0 > k["zero"] else lo0, c[1] + d1 / t)
    else:
        t = s1
        b = (_soft_clamp(c[0] + d0 / t, lo0, hi0, k), k["one"] if d1 > k["zero"] else k["zero"])
    return b, t


def _cone(u0, u1, inverse, k):
    """``cone_map`` at a point of the upper half of its source rectangle,
    [pi/2, pi] x [0, 1] forward and [0, pi] x [0, 1] inverse, given as two
    floats of the context; the angle is clamped onto that half, and the
    image lies in the upper half of the target rectangle."""
    src, dst = ("V", "U") if inverse else ("U", "V")
    c_src, c_dst = k[src][2], k[dst][2]
    u0 = _soft_clamp(u0, k["zero"] if inverse else k["half_pi"], k["pi"], k)
    # the radius is unclamped: each chart's sup norm rounds into [0, 1]
    if u0 == c_src[0] and u1 == c_src[1]:
        return c_dst
    b, t = _ray_exit(u0, u1, src, k)  # t in (0, 1]; 1 on the boundary
    lb = (_slit_to_edge if inverse else _edge_to_slit)(b[0], b[1], k)
    return (c_dst[0] + t * (lb[0] - c_dst[0]), c_dst[1] + t * (lb[1] - c_dst[1]))


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
    lo0, hi0, _ = k["V" if inverse else "U"]
    u0 = _soft_clamp(u0, lo0, hi0, k)  # before mirroring: errors name the input
    u1 = _soft_clamp(u1, k["zero"], k["one"], k)
    if inverse and u0 > k["pi"]:
        w = _cone(k["two_pi"] - u0, u1, True, k)
        return (k["pi"] - w[0], w[1])
    if not inverse and u0 < k["half_pi"]:
        w = _cone(k["pi"] - u0, u1, False, k)
        return (k["two_pi"] - w[0], w[1])
    return _cone(u0, u1, inverse, k)


def _collapse_pinned(u0, u1, fiber, axis, left, lower, k):
    """The collapse at a point of the square, given as two floats of the
    context with its pins and quarter decided on the input; a point that
    takes no pin goes through the charts, mirrored from the upper-right
    quarter."""
    if fiber:
        return (k["zero"], u1)
    if axis:
        return (u0 / 2, k["zero"])
    if left:
        u0 = -u0
    if lower:
        u1 = -u1
    # in doubles a point next to an edge can round onto the chart's center
    if not u1 and u0 == k["one"]:
        raise DomainError("edge chart is degenerate at its center")
    w = _cone(*_edge_chart(u0, u1, k), False, k)
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
    return _collapse_pinned(u0, u1, False, False, x[0] < 0, x[1] < 0, _consts(ctx))


def _collapse_exact(n: int, d: int, m: int, e: int, ctx, k):
    """``collapse`` at the point (n/d, m/e), both pairs in lowest terms with
    positive denominators, checked and pinned on the integers; ``k`` is the
    chart table of ``ctx``."""
    if n > d or -n > d or m > e or -m > e:
        r, s = coprime_fraction(n, d), coprime_fraction(m, e)
        raise DomainError(f"point ({r}, {s}) outside the square")
    if n == d or -n == d:
        return (-k["half"] if n < 0 else k["half"], k["zero"])
    return _collapse_pinned(
        pair_to_bigfloat(n, d, ctx), pair_to_bigfloat(m, e, ctx), n == 0, m == 0, n < 0, m < 0, k
    )


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
    return _collapse_pinned(u0, u1, r == 0, s == 0, r < 0, s < 0, k)


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
