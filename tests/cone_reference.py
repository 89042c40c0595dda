"""The collapse's cone and chart inverses by ray exit, the tests' reference
for ``_cone``, ``_edge_chart_inv`` and ``_slit_chart_inv``.

``collapse_map._cone`` evaluates the cone as one closed form per wall of
its source rectangle.  This module keeps the four-step route those forms
multiply out: the ray from the rectangle's centre through the point, its
exit on a wall (``_ray_exit``, with the snap onto that wall), the boundary
correspondence on the wall (``_edge_to_slit``, inverse ``_slit_to_edge``)
and the interpolation by the ray parameter t (``_cone``).  The four
functions are kept as the package ran them; ``table`` adds to a context's
chart table the constants they read that the package's table no longer
holds.  Like ``_cone``, the reference serves the upper halves of the two
rectangles; ``cone`` mirrors the lower halves as ``cone_map`` does.

The chart inverses write each exit wall's coordinate into one form per
branch.  ``chart_inv`` keeps the route they fold: the point where the ray
leaves the upper-right quarter (``_edge_exit``, ``_slit_exit``, the exit
steps the package ran before the fold, here on the angle's offset from
the fiber's direction, as the inverses take it), then the interpolation
c + rho (e - c) from the chart's centre c.
"""

from planardyn.collapse_map import _consts, _soft_clamp
from planardyn.numerics import to_bigfloat


def table(ctx):
    """The chart table of ``ctx`` with the reference's constants."""
    k = dict(_consts(ctx))
    pi, astar, zero, half = k["pi"], k["astar"], k["zero"], k["half"]
    k.update(
        three=to_bigfloat(3, ctx),
        three_quarter_pi=3 * pi / 4,
        pi_minus_astar=pi - astar,
        span=pi / 4 - astar,
        U=(zero, pi, (pi / 2, half)),
        V=(zero, 2 * pi, (pi, half)),
    )
    return k


def cone(u, inverse, k):
    """The reference cone at a point ``u`` of either half of its source
    rectangle, given as two floats of the context, mirrored onto the upper
    half as ``cone_map`` mirrors it."""
    u0, u1 = u
    if inverse and u0 > k["pi"]:
        w = _cone(k["two_pi"] - u0, u1, True, k)
        return (k["pi"] - w[0], w[1])
    if not inverse and u0 < k["half_pi"]:
        w = _cone(k["pi"] - u0, u1, False, k)
        return (k["two_pi"] - w[0], w[1])
    return _cone(u0, u1, inverse, k)


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


def _edge_exit(b, k):
    """Where the ray from the right-edge midpoint (1, 0) at the angle
    offset ``b`` in [0, pi/2] from the fiber's direction (the edge-chart
    angle less pi/2) leaves the upper-right quarter [0, 1] x [0, 1].

    Each branch takes one tangent, of an offset within pi/4 of zero: on the
    fiber the height is the tangent of b, on the top wall the distance from
    the right edge is the tangent of pi/2 - b.
    """
    if b < k["quarter_pi"]:
        return (k["zero"], k["tan"](b))
    return (k["one"] - k["tan"](k["half_pi"] - b), k["one"])


def _slit_exit(p, k):
    """Where the ray from the outer slit endpoint (1/2, 0) at the offset
    ``p`` in [0, pi] from the fiber's direction (pi less the polar angle)
    leaves the upper-right quarter [0, 1] x [0, 1].

    Each branch takes one tangent: of p on the fiber, of pi - p on the
    right edge, and on the top wall the cotangent of the polar angle is
    the tangent of p - pi/2, an offset within pi/4 of zero.
    """
    if p < k["corner"]:
        return (k["zero"], k["tan"](p) * k["half"])
    if k["pi"] - p > k["corner"]:  # short of the corner (1, 1)
        return (k["half"] + k["tan"](p - k["half_pi"]), k["one"])
    return (k["one"], k["tan"](k["pi"] - p) * k["half"])


def chart_inv(slit, a, rho, k):
    """The edge chart's inverse (``slit`` false) or the slit chart's at
    (``a``, ``rho``) of the upper half, the angle as its offset from the
    fiber's direction, unfolded: the fraction rho of the way from the
    chart's centre to where the ray leaves the quarter.  The slit chart's
    abscissa is held at zero, as ``_slit_chart_inv`` holds its top wall's:
    a ray through the rounded corner angle atan 2 can leave a few units of
    2^-p past the fiber."""
    c0, e = (k["half"], _slit_exit(a, k)) if slit else (k["one"], _edge_exit(a, k))
    x = c0 + rho * (e[0] - c0)
    return (max(x, k["zero"]) if slit else x, rho * e[1])
