"""Boundary collapse of the square onto itself, built from two polar charts.

The goal is a continuous surjection of the closed square that fixes the
vertical fiber through the origin pointwise, halves the horizontal axis,
sends each vertical edge to a single interior point on the axis, and folds
the top and bottom edges onto a path ending in a horizontal slit.  The
interior of the square maps homeomorphically onto the open square minus the
two closed slits; conjugating the square homeomorphism by this map later
turns boundary dynamics into interior dynamics with the slit endpoints as
the only limit points.

Construction on the right half (the left half is its mirror):

* ``chart_S`` writes a point as (angle, radius) around the midpoint of the
  right edge; the chart rectangle is [0, pi] x [0, 1], angle 0 pointing
  straight down and pi straight up.  The half-square is a sup-norm ball
  about this center, so the radius is that sup norm, max(1 - x, |y|), and
  the half-square boundary is radius one.
* ``chart_T`` does the same around the outer slit endpoint (1/2, 0), with
  the plain polar angle in [0, 2*pi] and the radius max(|2x - 1|, |y|);
  the slit opens along the positive axis, its top side at angle 0 and
  bottom side at 2*pi.
* ``boundary_reparam`` carries the boundary circle of the first rectangle
  onto that of the second.  The central arc uses theta = pi - arctan(2 s)
  so the vertical fiber is fixed pointwise; two narrow arcs next to the
  straight-up and straight-down directions wrap onto the slit sides; the
  remaining radius-one arcs interpolate affinely, and the other three walls
  land on the radius-zero wall, which the target chart collapses to the
  slit endpoint.  The width of the narrow arcs, ``slit_arc_angle``, is a
  free parameter of the construction; it is pinned to pi / 2**15 here,
  narrow enough that orbits of the induced plane map climb past norm 10**3
  before settling (see the excursion certificate).
* ``cone_map`` extends the boundary correspondence radially from the
  centers of the two rectangles.  A rectangle is a sup-norm ball about its
  center too, so a point's ray parameter is max(|d0| / c0, 2 |d1|) for
  the offset d from the center (c0, 1/2): one division, no trigonometry.

Each forward chart takes one arctangent for its angle; the radius needs
only comparisons.  ``exit_point`` takes one tangent, and only the inverse
charts call it.

All functions take an explicit mpmath-style context; nothing reads or
writes global precision.  Only the entry points (``collapse``,
``collapse_inv``, ``cone_map``, ``_collapse_charts``) take exact rationals,
floats or context floats, converted once in ``_pt``; the chart steps take
floats of the context.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Tuple

from .numerics import DomainError, SlitError, to_bigfloat

# Chart anchor points: midpoint of the right edge, outer right slit endpoint.
EDGE_MID = (Fraction(1), Fraction(0))
SLIT_OUTER = (Fraction(1, 2), Fraction(0))

# slit_arc_angle = pi / SLIT_ARC_DENOM
SLIT_ARC_DENOM = 32768


def _consts(ctx):
    # keyed on the precision too: a context's precision can change after use
    return _consts_at(ctx, ctx.prec)


# bounded: contexts are made freely (one per precision_scaling run), and an
# unbounded cache would keep every one of them alive
@lru_cache(maxsize=16)
def _consts_at(ctx, prec):
    pi = +ctx.pi
    corner = ctx.atan(2)  # slit-chart angle of the top-right corner
    astar = pi / SLIT_ARC_DENOM
    zero, half = to_bigfloat(0, ctx), to_bigfloat(Fraction(1, 2), ctx)
    return {
        "pi": pi,
        "two_pi": 2 * pi,
        "half_pi": pi / 2,
        "three_half_pi": 3 * pi / 2,
        "quarter_pi": pi / 4,
        "three_quarter_pi": 3 * pi / 4,
        "third": 2 * pi / 3,
        "corner": corner,
        "pi_plus_corner": pi + corner,
        "two_pi_minus_corner": 2 * pi - corner,
        "astar": astar,
        "span": pi / 4 - astar,  # angular width of each affine arc
        "stretch": pi - corner,  # image width of each affine arc
        "one": to_bigfloat(1, ctx),
        "zero": zero,
        "half": half,
        "snap": to_bigfloat(Fraction(1, 2 ** max(prec - 8, 16)), ctx),
        # chart rectangles as (lo0, hi0, center); radial bounds are [0, 1]
        "U": (zero, pi, (pi / 2, half)),
        "V": (zero, 2 * pi, (pi, half)),
    }


def slit_arc_angle(ctx):
    """Angular width of the two slit arcs in the edge chart."""
    return _consts(ctx)["astar"]


def _pt(x, ctx):
    """The point as two floats of ``ctx``: the one conversion of an entry point."""
    return (to_bigfloat(x[0], ctx), to_bigfloat(x[1], ctx))


def _soft_clamp(v, lo, hi, ctx):
    """Clamp a value that may overshoot an interval by accumulated rounding."""
    if v < lo:
        if lo - v > _consts(ctx)["snap"] * (1 + abs(lo)):
            raise DomainError(f"value {v} below {lo}")
        return lo
    if v > hi:
        if v - hi > _consts(ctx)["snap"] * (1 + abs(hi)):
            raise DomainError(f"value {v} above {hi}")
        return hi
    return v


def exit_point(center, a, ctx) -> Tuple:
    """Where the ray from a chart center at a chart angle leaves the half-square.

    The half-square is [0, 1] x [-1, 1].  From the right-edge midpoint the
    chart angle runs 0 (straight down) through pi/2 (toward the fiber) to
    pi (straight up); from the slit endpoint it is the polar angle in
    [0, 2*pi].  Each branch takes one tangent: on a horizontal wall the
    cotangent of the chart angle is written as minus the tangent of its
    offset from pi/2 or 3*pi/2, an offset within pi/4 of zero.  The angle
    ``a`` is a float of ``ctx``.
    """
    k = _consts(ctx)
    if center == EDGE_MID:
        if a < 0 or a > k["pi"]:
            raise DomainError(f"edge chart angle {a} outside [0, pi]")
        if a <= k["quarter_pi"]:
            return (1 - ctx.tan(a), -k["one"])
        if a < k["three_quarter_pi"]:
            return (k["zero"], ctx.tan(a - k["half_pi"]))
        return (1 - ctx.tan(k["pi"] - a), k["one"])
    if center == SLIT_OUTER:
        if a < 0 or a > k["two_pi"]:
            raise DomainError(f"slit chart angle {a} outside [0, 2*pi]")
        if a <= k["corner"] or a >= k["two_pi_minus_corner"]:
            return (k["one"], ctx.tan(a) / 2)
        if a <= k["stretch"]:  # pi - corner
            return (k["half"] - ctx.tan(a - k["half_pi"]), k["one"])
        if a <= k["pi_plus_corner"]:
            return (k["zero"], -ctx.tan(a) / 2)
        return (k["half"] + ctx.tan(a - k["three_half_pi"]), -k["one"])
    raise DomainError(f"unknown chart center {center}")


def chart_S(x, ctx, inverse: bool = False):
    """Polar chart around the right-edge midpoint, rectangle [0, pi] x [0, 1].

    Forward input is a point of the right half-square other than the
    center itself; output is (angle, radius), the radius the sup norm
    max(1 - x, |y|) of the offset from the center, so the half-square
    boundary is radius one.  The angle is not clamped: rounding may leave
    it a few ulps outside [0, pi], and ``cone_map`` clamps its input.
    Inverse maps a rectangle point back into the half-square along the ray
    to ``exit_point``.  Both directions take floats of ``ctx``.
    """
    k = _consts(ctx)
    if inverse:
        alpha = _soft_clamp(x[0], k["zero"], k["pi"], ctx)
        rho = _soft_clamp(x[1], k["zero"], k["one"], ctx)
        e = exit_point(EDGE_MID, alpha, ctx)
        return (1 + rho * (e[0] - 1), rho * e[1])
    px, py = x
    if px < 0 or px > 1 or py < -1 or py > 1:
        raise DomainError(f"point ({px}, {py}) outside the right half-square")
    dx, dy = px - 1, py
    if dx == 0 and dy == 0:
        raise DomainError("edge chart is degenerate at its center")
    phi = ctx.atan2(dy, dx)
    if phi < k["half_pi"]:
        phi = phi + k["two_pi"]
    return (k["three_half_pi"] - phi, max(-dx, abs(dy)))


def chart_T(y, ctx, inverse: bool = False):
    """Polar chart around the outer slit endpoint, rectangle [0, 2*pi] x [0, 1].

    Forward input must stay off the closed slit ray (where the angle is
    ambiguous between the 0 and 2*pi sides); the center itself is
    degenerate.  The radius is the sup norm max(|2x - 1|, |y|), so the
    half-square boundary is radius one and a point outside it raises.
    Inverse maps (angle, radius) back to the half-square along the ray to
    ``exit_point``.  Both directions take floats of ``ctx``.
    """
    k = _consts(ctx)
    if inverse:
        theta = _soft_clamp(y[0], k["zero"], k["two_pi"], ctx)
        rho = _soft_clamp(y[1], k["zero"], k["one"], ctx)
        e = exit_point(SLIT_OUTER, theta, ctx)
        return (k["half"] + rho * (e[0] - k["half"]), rho * e[1])
    py0, py1 = y
    if py1 == 0 and py0 >= k["half"]:
        raise SlitError(f"point ({py0}, {py1}) lies on the slit ray")
    rho = max(2 * abs(py0 - k["half"]), abs(py1))
    if rho > 1:
        raise DomainError(f"point ({py0}, {py1}) outside the right half-square")
    theta = ctx.atan2(py1, py0 - k["half"])
    if theta < 0:
        theta = theta + k["two_pi"]
    # atan2(-0.0, positive) can leave an exact 2*pi after the wrap
    if theta >= k["two_pi"]:
        theta = k["zero"]
    return (theta, rho)


def boundary_reparam(b, ctx, inverse: bool = False):
    """Boundary correspondence between the two chart rectangles.

    Forward: a boundary point (angle, radius) of the edge-chart rectangle
    goes to a boundary point of the slit-chart rectangle.  The radius-one
    wall splits into five arcs: slit-bottom [0, astar] wrapping onto the
    slit's 2*pi side, an affine arc [astar, pi/4], the central arc
    [pi/4, 3*pi/4] carried by theta = pi - arctan(2*tan(angle - pi/2)),
    an affine arc [3*pi/4, pi - astar], and slit-top [pi - astar, pi]
    wrapping onto the slit's 0 side.  The other three walls land affinely
    on the radius-zero wall of the target.  Bijective on the boundary
    circles; conjugates the vertical flip (angle -> pi - angle) to the
    reflection theta -> 2*pi - theta.  Takes floats of ``ctx``.
    """
    k = _consts(ctx)
    pi, two_pi, astar = k["pi"], k["two_pi"], k["astar"]
    span, stretch, third = k["span"], k["stretch"], k["third"]
    if inverse:
        theta, rho = b
        if rho == 1:
            if theta < 0 or theta > two_pi:
                raise DomainError(f"slit chart angle {theta} outside [0, 2*pi]")
            if theta <= stretch:  # pi - corner
                return ((pi - astar) - theta * span / stretch, k["one"])
            if theta <= k["pi_plus_corner"]:
                return (k["half_pi"] + ctx.atan(ctx.tan(pi - theta) / 2), k["one"])
            return (astar + (two_pi - theta) * span / stretch, k["one"])
        if theta == 0:
            return (pi - astar * rho, k["one"])
        if theta == two_pi:
            return (astar * rho, k["one"])
        if rho == 0:
            if theta <= third:
                return (pi, 1 - theta / third)
            if theta <= 2 * third:
                return (two_pi - 3 * theta / 2, k["zero"])
            return (k["zero"], (theta - 2 * third) / third)
        raise DomainError(f"({theta}, {rho}) not on the slit-chart boundary")
    alpha, rho = b
    if rho == 1:
        if alpha < 0 or alpha > pi:
            raise DomainError(f"edge chart angle {alpha} outside [0, pi]")
        if alpha <= astar:
            return (two_pi, alpha / astar)
        if alpha < k["quarter_pi"]:
            return (two_pi - (alpha - astar) * stretch / span, k["one"])
        if alpha <= k["three_quarter_pi"]:
            return (pi - ctx.atan(2 * ctx.tan(alpha - k["half_pi"])), k["one"])
        if alpha < pi - astar:
            return (((pi - astar) - alpha) * stretch / span, k["one"])
        return (k["zero"], (pi - alpha) / astar)
    if rho == 0:
        return (third * (2 - alpha / pi), k["zero"])
    if alpha == pi:
        return (third * (1 - rho), k["zero"])
    if alpha == 0:
        return (2 * third + rho * third, k["zero"])
    raise DomainError(f"({alpha}, {rho}) not on the edge-chart boundary")


def _ray_exit(u0, u1, which, ctx):
    """Boundary hit of the ray from the rectangle center through (u0, u1).

    The coordinates are floats of ``ctx``, clamped onto the rectangle by
    ``cone_map``.  The rectangle is the sup-norm ball of radii (c0, 1/2)
    about its center (c0, 1/2), so the point sits at fraction
    t = max(|d0| / c0, 2 |d1|) of the way out along its ray, d
    being its offset from the center; the wall of the larger term is hit
    first, the vertical one on a tie.  Returns (boundary point, t); the
    boundary point is snapped exactly onto the achieving wall so the arc
    dispatch downstream sees exact wall coordinates.
    """
    k = _consts(ctx)
    lo0, hi0, c = k[which]
    d0, d1 = u0 - c[0], u1 - c[1]
    if d0 == 0 and d1 == 0:
        raise DomainError("ray undefined at the rectangle center")
    s0, s1 = abs(d0) / c[0], 2 * abs(d1)
    if s0 >= s1:
        t = s0
        b = (hi0 if d0 > 0 else lo0, _soft_clamp(c[1] + d1 / t, k["zero"], k["one"], ctx))
    else:
        t = s1
        b = (_soft_clamp(c[0] + d0 / t, lo0, hi0, ctx), k["one"] if d1 > 0 else k["zero"])
    return b, t


def cone_map(u, ctx, inverse: bool = False):
    """Radial extension of the boundary correspondence, center to center.

    Forward sends the edge-chart rectangle onto the slit-chart rectangle:
    the center (pi/2, 1/2) goes to (pi, 1/2), and the point at fraction t
    of the way from the center to a boundary point goes to the fraction-t
    point toward that boundary point's image.  Bijective; the inverse runs
    the same recipe through the inverse boundary correspondence.  A point
    up to rounding outside its rectangle is clamped onto it.
    """
    k = _consts(ctx)
    src, dst = ("V", "U") if inverse else ("U", "V")
    lo0, hi0, c_src = k[src]
    c_dst = k[dst][2]
    u0, u1 = _pt(u, ctx)
    u0 = _soft_clamp(u0, lo0, hi0, ctx)
    u1 = _soft_clamp(u1, k["zero"], k["one"], ctx)
    if u0 == c_src[0] and u1 == c_src[1]:
        return c_dst
    b, t = _ray_exit(u0, u1, src, ctx)  # t in (0, 1]; 1 on the boundary
    lb = boundary_reparam(b, ctx, inverse=inverse)
    return (c_dst[0] + t * (lb[0] - c_dst[0]), c_dst[1] + t * (lb[1] - c_dst[1]))


def _collapse_charts(x, ctx):
    """Chart composition of the collapse on the right half, no shortcut pins.

    Used by the verification suite to confirm that the pinned values
    (fiber, axis, edges) are what the charts themselves produce.
    """
    if x[0] < 0:
        mirrored = _collapse_charts((-x[0], x[1]), ctx)
        return (-mirrored[0], mirrored[1])
    a = chart_S(_pt(x, ctx), ctx)
    w = cone_map(a, ctx)
    return chart_T(w, ctx, inverse=True)


def collapse(x, ctx):
    """The boundary collapse.  Defined on the whole closed square.

    Pins: the central fiber is fixed pointwise, the horizontal axis is
    halved, each vertical edge goes to the slit endpoint on its side, and
    the map commutes with both reflections of the square.  Interior points
    off the axis and fiber go through the charts.
    """
    r, s = x
    if abs(r) > 1 or abs(s) > 1:
        raise DomainError(f"point ({r}, {s}) outside the square")
    if r == 0:
        return (_consts(ctx)["zero"], _pt(x, ctx)[1])
    if r < 0:
        y = collapse((-r, s), ctx)
        return (-y[0], y[1])
    if r == 1:
        k = _consts(ctx)
        return (k["half"], k["zero"])
    if s == 0:
        return (_pt(x, ctx)[0] / 2, _consts(ctx)["zero"])
    return _collapse_charts((r, s), ctx)


def collapse_inv(y, ctx):
    """Inverse of the collapse on its interior image.

    Defined on the open square minus the two closed slits.  Points of the
    slits (endpoints included) have no single preimage and raise SlitError;
    points on or outside the square boundary raise DomainError.
    """
    y1, y2 = y
    if abs(y1) >= 1 or abs(y2) >= 1:
        raise DomainError(f"point ({y1}, {y2}) outside the open square")
    if y1 == 0:
        return (_consts(ctx)["zero"], _pt(y, ctx)[1])
    if y2 == 0:
        if 2 * abs(y1) >= 1:
            raise SlitError(f"point ({y1}, 0) lies on a collapse slit")
        return (2 * _pt(y, ctx)[0], _consts(ctx)["zero"])
    if y1 < 0:
        xm = collapse_inv((-y1, y2), ctx)
        return (-xm[0], xm[1])
    w = chart_T(_pt(y, ctx), ctx)
    a = cone_map(w, ctx, inverse=True)
    return chart_S(a, ctx, inverse=True)
