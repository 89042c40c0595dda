"""Charts around the collapsed edges and the edge-collapse map itself.

Chart arithmetic is big-float; assertions compare against closed forms at
a few digits below the working precision (256 bits ~ 77 decimal digits).
"""

import functools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cone_reference
import transcendental_sweep
from planardyn import collapse_map
from planardyn.collapse_map import (
    SLIT_ARC_DENOM,
    _collapse_charts,
    _consts,
    _edge_chart,
    _edge_chart_inv,
    _slit_chart,
    _slit_chart_inv,
    collapse,
    collapse_inv,
    cone_map,
    slit_arc_angle,
)
from planardyn.numerics import DomainError, SlitError, make_context, to_bigfloat
from planardyn.plane_map import lifted_core, tangent_chart

TIGHT = 1e-70


def _num(v):
    # mpf refuses mixed comparisons with Fraction; expectations are dyadic
    return float(v) if isinstance(v, Fraction) else v


def _close(p, q, eps=TIGHT):
    return all(abs(_num(a) - _num(b)) <= eps for a, b in zip(p, q))


def test_slit_arc_angle(ctx):
    assert SLIT_ARC_DENOM == 2**15
    assert slit_arc_angle(ctx) == ctx.pi / SLIT_ARC_DENOM


@pytest.mark.parametrize("prec", [None, 53, 128, 256, 512], ids=["fp", "53", "128", "256", "512"])
def test_folded_constants_are_exact(prec):
    # the tangent chart's range test reads minus_one: the same bits only if
    # the fold is exact
    k = _consts(_context(prec))
    assert k["minus_one"] == -k["one"]


def test_constants_follow_a_precision_change():
    ctx = make_context(64)
    slit_arc_angle(ctx)  # fill the constants cache at 64 bits
    ctx.prec = 512
    assert slit_arc_angle(ctx) == ctx.pi / SLIT_ARC_DENOM


@pytest.mark.parametrize("prec", transcendental_sweep.PRECISIONS)
def test_table_transcendentals_are_mpmaths(prec):
    # the big-float entries call libmp directly and answer two magnitude
    # bands themselves; tests/transcendental_sweep.py runs 10^5 draws
    assert transcendental_sweep.sweep(make_context(prec), 2000, seed=1) == []


def test_table_bands_follow_a_precision_change():
    # 2^-40 x is inside the 64-bit table's tangent band (below 2^-36) and far
    # outside the 512-bit one's, where its tangent is not x; the quotient
    # 2^40 is inside the 64-bit arctangent band (above 2^36) and below the
    # 512-bit one (2^260)
    ctx = make_context(64)
    _consts(ctx)
    ctx.prec = 512
    k = _consts(ctx)
    x = ctx.ldexp(ctx.mpf(3) / 7, -40)
    assert k["tan"](x) == ctx.tan(x) != x
    assert k["atan2"](ctx.one, x)._mpf_ == ctx.atan2(ctx.one, x)._mpf_
    assert transcendental_sweep.sweep(ctx, 200, seed=2) == []
    ctx.prec = 64
    x = +x
    assert _consts(ctx)["tan"](x) == ctx.tan(x) == x
    assert transcendental_sweep.sweep(ctx, 200, seed=2) == []


# Chart centers: midpoint of the right edge, outer right slit endpoint.
EDGE_CENTER = (Fraction(1), Fraction(0))
SLIT_CENTER = (Fraction(1, 2), Fraction(0))


def _exit(center, a, ctx):
    """Where the ray from a chart center at a chart angle offset leaves the
    half-square: the chart inverse at radius one."""
    k = _consts(ctx)
    return (_edge_chart_inv if center == EDGE_CENTER else _slit_chart_inv)(a, k["one"], k)


def test_chart_centers(ctx):
    # radius zero is the chart's center, whatever the angle of the upper
    # half, given as its offset from the fiber's direction
    k = _consts(ctx)
    for a in (k["zero"], k["quarter_pi"], k["half_pi"]):
        assert _edge_chart_inv(a, k["zero"], k) == (k["one"], k["zero"])
    for a in (k["zero"], k["corner"], k["stretch"], k["pi"]):
        assert _slit_chart_inv(a, k["zero"], k) == (k["half"], k["zero"])


class TestExitPoint:
    # the angles are offsets from the fiber's direction: the edge chart's
    # angle less pi/2, pi less the slit chart's
    def test_edge_chart_walls(self, ctx):
        pi = +ctx.pi
        assert _close(_exit(EDGE_CENTER, ctx.mpf(0), ctx), (0, 0))
        assert _close(_exit(EDGE_CENTER, pi / 4, ctx), (0, 1))
        assert _close(_exit(EDGE_CENTER, pi / 2, ctx), (1, 1))

    def test_slit_chart_walls(self, ctx):
        pi = +ctx.pi
        assert _close(_exit(SLIT_CENTER, pi, ctx), (1, 0))
        assert _close(_exit(SLIT_CENTER, pi - ctx.atan(2), ctx), (1, 1))
        assert _close(_exit(SLIT_CENTER, pi / 2, ctx), (Fraction(1, 2), 1))
        assert _close(_exit(SLIT_CENTER, ctx.atan(2), ctx), (0, 1))
        assert _close(_exit(SLIT_CENTER, ctx.mpf(0), ctx), (0, 0))

    # fixed ids, so that a corner keeps its test name when the list changes;
    # the first is the edge chart's angle 3 pi/4, its offset pi/4
    @pytest.mark.parametrize(
        "center, key",
        [
            (EDGE_CENTER, "quarter_pi"),
            (SLIT_CENTER, "corner"),  # the corner (0, 1)
            (SLIT_CENTER, "stretch"),  # pi - atan 2, the corner (1, 1)
        ],
        ids=["center1-three_quarter_pi", "center2-corner", "center3-stretch"],
    )
    def test_branches_meet_at_the_corners(self, ctx, center, key):
        # the one-tangent wall branches agree with their neighbours a few
        # ulps either side of each corner angle
        a = _consts(ctx)[key]
        step = ctx.ldexp(a, 2 - ctx.prec)
        below = _exit(center, a - step, ctx)
        above = _exit(center, a + step, ctx)
        at = _exit(center, a, ctx)
        eps = ctx.ldexp(1, 8 - ctx.prec)
        assert max(abs(below[0] - above[0]), abs(below[1] - above[1])) <= eps
        assert max(abs(at[0] - above[0]), abs(at[1] - above[1])) <= eps


def _run(step, u, ctx):
    """A two-coordinate chart step at the point ``u``; the edge chart is
    handed the point's offset 1 - x from the right edge."""
    k = _consts(ctx)
    return step(k["one"] - u[0] if step is _edge_chart else u[0], u[1], k)


class TestCharts:
    def test_edge_chart_pins(self, ctx):
        # the angle comes as its offset from pi/2, the fiber's direction
        pi = +ctx.pi
        assert _close(_run(_edge_chart, (ctx.mpf(0), ctx.mpf(0)), ctx), (0, 1))
        assert _close(_run(_edge_chart, (ctx.mpf(0), ctx.mpf(1)), ctx), (pi / 4, 1))
        assert _close(_run(_edge_chart, (ctx.mpf(1), ctx.mpf(1)), ctx), (pi / 2, 1))

    def test_slit_chart_pins(self, ctx):
        # the angle comes as pi less the polar angle, its offset from the
        # fiber's direction
        pi = +ctx.pi
        assert _close(_run(_slit_chart, (ctx.mpf("0.5"), ctx.mpf(1)), ctx), (pi / 2, 1))
        assert _close(_run(_slit_chart, (ctx.mpf(0), ctx.mpf(0)), ctx), (0, 1))

    def test_slit_chart_forward_angles(self, ctx):
        # pi less the polar angle about (1/2, 0), in [0, pi] on the upper
        # quarter
        pi, tiny = +ctx.pi, ctx.ldexp(1, -20)
        # just above the slit ray the offset starts at pi; straight up it is
        # pi/2
        assert pi - ctx.ldexp(1, -18) < _run(_slit_chart, (ctx.mpf(1), tiny), ctx)[0] < pi
        assert abs(_run(_slit_chart, (ctx.mpf("0.5"), ctx.mpf(1)), ctx)[0] - pi / 2) < 1e-70
        # along the negative axis it is 0; on the slit ray, the top side's pi
        assert _run(_slit_chart, (ctx.mpf("0.25"), ctx.mpf(0)), ctx)[0] == 0
        assert _run(_slit_chart, (ctx.mpf(1), ctx.mpf(0)), ctx)[0] == pi
        # just below the slit ray the inverse collapse mirrors the point
        # above it, and its preimage stays below the axis
        y = (Fraction(3, 4), Fraction(1, 2**20))
        above = collapse_inv(y, ctx)
        below = collapse_inv((y[0], -y[1]), ctx)
        assert below == (above[0], -above[1]) and below[1] < 0

    def test_degenerate_inputs(self, ctx):
        # the edge chart's center, on either vertical edge, has no angle;
        # the chart composition checks for it after mirroring the left half
        for r in (Fraction(1), Fraction(-1)):
            with pytest.raises(DomainError, match="edge chart is degenerate at its center"):
                _collapse_charts((r, Fraction(0)), ctx)

    def test_edge_chart_roundtrip(self, ctx):
        for x in ("0.125", "0.5", "0.9375"):
            for y in ("0.0625", "0.25", "0.875"):
                p = (ctx.mpf(x), ctx.mpf(y))
                assert _close(_run(_edge_chart_inv, _run(_edge_chart, p, ctx), ctx), p)

    def test_radius_is_the_sup_norm(self, ctx):
        # on dyadic points the forward radius is the sup-norm formula exactly
        for x in ("0", "0.125", "0.5", "0.75", "1"):
            for y in ("0", "0.0625", "0.25", "0.875", "1"):
                px, py = ctx.mpf(x), ctx.mpf(y)
                if (px, py) != (1, 0):
                    assert _run(_edge_chart, (px, py), ctx)[1] == max(1 - px, py)
                if py != 0 or px < 0.5:
                    assert _run(_slit_chart, (px, py), ctx)[1] == max(abs(2 * px - 1), py)

    def test_slit_chart_roundtrip(self, ctx):
        for x in ("0.0625", "0.375", "0.875"):
            for y in ("0.125", "0.75"):
                p = (ctx.mpf(x), ctx.mpf(y))
                assert _close(_run(_slit_chart_inv, _run(_slit_chart, p, ctx), ctx), p)


class TestBoundaryReparam:
    # a point of a rectangle's boundary has ray parameter one, so the cone
    # map carries it to its image under the boundary correspondence
    def test_frozen_pins(self, ctx):
        pi, zero, one = +ctx.pi, ctx.mpf(0), ctx.mpf(1)
        assert _close(cone_map((pi, one), ctx), (zero, zero))
        assert _close(cone_map((pi / 2, one), ctx), (pi, one))
        assert _close(cone_map((3 * pi / 4, one), ctx), (pi - ctx.atan(2), one))
        # the lower half is the mirror, and the slit-bottom arc wraps onto
        # the slit's far side
        assert _close(cone_map((pi / 4, one), ctx), (pi + ctx.atan(2), one))
        astar = slit_arc_angle(ctx)
        assert _close(cone_map((astar, one), ctx), (2 * pi, one))

    def test_wall_pins(self, ctx):
        pi, zero = +ctx.pi, ctx.mpf(0)
        assert _close(cone_map((pi, ctx.mpf("0.25")), ctx), (pi / 2, zero))
        assert _close(cone_map((pi, ctx.mpf("0.5")), ctx), (pi / 3, zero))
        # the angle-0 wall is the mirror of the angle-pi wall
        assert _close(cone_map((zero, ctx.mpf("0.5")), ctx), (5 * pi / 3, zero))

    def test_roundtrip_on_both_circles(self, ctx):
        pi = +ctx.pi
        for k in range(1, 32):
            b = (k * pi / 32, ctx.mpf(1))
            assert _close(cone_map(cone_map(b, ctx), ctx, inverse=True), b)
        for k in range(1, 16):
            for b in ((pi, ctx.mpf(k) / 16), (ctx.mpf(0), ctx.mpf(k) / 16)):
                assert _close(cone_map(cone_map(b, ctx), ctx, inverse=True), b)

    def test_conjugates_the_vertical_flip(self, ctx):
        # the cone map commutes exactly with angle -> pi - angle (edge chart)
        # and theta -> 2*pi - theta (slit chart), in both directions
        pi, two_pi = +ctx.pi, 2 * ctx.pi
        for k in range(16):
            for rho in (ctx.mpf(0), ctx.mpf("0.3"), ctx.mpf("0.5"), ctx.mpf(1)):
                a = k * pi / 32  # the lower half, [0, pi/2)
                t = cone_map((pi - a, rho), ctx)
                assert cone_map((a, rho), ctx) == (two_pi - t[0], t[1])
                theta = pi + (k + 1) * pi / 16  # the lower half, (pi, 2*pi]
                t = cone_map((two_pi - theta, rho), ctx, inverse=True)
                assert cone_map((theta, rho), ctx, inverse=True) == (pi - t[0], t[1])


class TestConeMap:
    def test_center_goes_to_center(self, ctx):
        out = cone_map((ctx.pi / 2, ctx.mpf("0.5")), ctx)
        assert _close(out, (+ctx.pi, ctx.mpf("0.5")))

    def test_boundary_points_have_ray_parameter_one(self, ctx):
        # a boundary point is the whole way out along its ray, so its image
        # is the whole way out too: on the target rectangle's boundary,
        # here on its radius-zero or radius-one wall
        pi, one = +ctx.pi, ctx.mpf(1)
        edge = [((ctx.mpf(0), ctx.mpf("0.3")), 0), ((pi, ctx.mpf("0.7")), 0),
                ((ctx.mpf("0.4"), one), 1), ((ctx.mpf("2.9"), ctx.mpf(0)), 0), ((pi, one), 0)]
        slit = [((ctx.mpf(0), ctx.mpf("0.3")), 1), ((2 * pi, ctx.mpf("0.7")), 1),
                ((ctx.mpf(5), one), 1)]
        for inverse, points in ((False, edge), (True, slit)):
            for u, radius in points:
                assert abs(cone_map(u, ctx, inverse)[1] - radius) <= ctx.ldexp(1, 4 - ctx.prec)

    def test_points_outside_the_rectangle_raise_on_their_own_value(self, ctx):
        # a lower-half point is mirrored only once it is in range
        for u, inverse, message in (((-1, "0.5"), False, "value -1.0 below 0.0"),
                                    ((4, "0.5"), False, "value 4.0 above 3.14"),
                                    ((7, "0.5"), True, "value 7.0 above 6.28"),
                                    ((2, "1.5"), False, "value 1.5 above 1.0"),
                                    ((2, "-0.5"), True, "value -0.5 below 0.0")):
            with pytest.raises(DomainError, match=message):
                cone_map((ctx.mpf(u[0]), ctx.mpf(u[1])), ctx, inverse)

    def test_roundtrip(self, ctx):
        for a in ("0.25", "1.125", "2.5"):
            for r in ("0.0625", "0.5", "0.9375"):
                u = (ctx.mpf(a), ctx.mpf(r))
                assert _close(cone_map(cone_map(u, ctx), ctx, inverse=True), u)


class TestCollapse:
    def test_vertical_edges_collapse_to_slit_tips(self, ctx):
        for s in (Fraction(1), Fraction(1, 2), Fraction(1, 7), Fraction(-2, 3)):
            assert _close(collapse((Fraction(1), s), ctx), (Fraction(1, 2), 0))
            assert _close(collapse((Fraction(-1), s), ctx), (Fraction(-1, 2), 0))

    def test_fixed_fiber_points(self, ctx):
        assert _close(collapse((Fraction(0), Fraction(1)), ctx), (0, 1))
        assert _close(collapse((Fraction(0), Fraction(-1)), ctx), (0, -1))
        assert _close(collapse((Fraction(0), Fraction(0)), ctx), (0, 0))

    def test_inner_axis_pins(self, ctx):
        assert _close(collapse((Fraction(1, 2), Fraction(0)), ctx), (Fraction(1, 4), 0))
        assert _close(collapse((Fraction(1), Fraction(0)), ctx), (Fraction(1, 2), 0))
        assert _close(collapse((Fraction(-1), Fraction(0)), ctx), (Fraction(-1, 2), 0))

    def test_interior_value(self, ctx):
        q = collapse((Fraction(1, 3), Fraction(1, 5)), ctx)
        assert abs(to_bigfloat(q[0], ctx) - ctx.mpf(1) / 6) <= 1e-60
        assert abs(to_bigfloat(q[1], ctx) - ctx.mpf("0.15932855645557955787")) < 1e-19

    def test_roundtrip_inside(self, ctx, tol):
        worst = 0
        grid = [(r, s) for r in (Fraction(-7, 8), Fraction(-1, 3), Fraction(1, 5), Fraction(6, 7))
                for s in (Fraction(-3, 4), Fraction(-1, 9), Fraction(2, 7), Fraction(7, 8))]
        # the lower-half mirrors of the chart roundtrip points, which the
        # collapse serves by mirroring
        grid += [(Fraction(x), Fraction(y)) for x in ("0.125", "0.5", "0.9375")
                 for y in ("-0.75", "-0.0625")]
        grid += [(Fraction(x), Fraction(-1, 2)) for x in ("0.0625", "0.375", "0.875")]
        for r, s in grid:
            p = (to_bigfloat(r, ctx), to_bigfloat(s, ctx))
            q = collapse((r, s), ctx)
            back = collapse_inv(q, ctx)
            back = tuple(to_bigfloat(c, ctx) for c in back)
            worst = max(worst, abs(back[0] - p[0]), abs(back[1] - p[1]))
        assert worst < tol.chart_roundtrip_bound(ctx)

    def test_image_avoids_open_slits(self, ctx):
        for r in (Fraction(-9, 10), Fraction(3, 5), Fraction(99, 100)):
            for s in (Fraction(-1, 2), Fraction(1, 1000), Fraction(4, 5)):
                x, y = collapse((r, s), ctx)
                assert not (y == 0 and abs(x) > Fraction(1, 2))

    def test_fraction_points_outside_the_square_raise(self, ctx):
        cases = {
            (Fraction(3, 2), Fraction(-1, 3)): "point (3/2, -1/3) outside the square",
            (Fraction(0), Fraction(-5, 4)): "point (0, -5/4) outside the square",
            (Fraction(-7), Fraction(1)): "point (-7, 1) outside the square",
        }
        for p, message in cases.items():
            for c in (ctx, mpmath.fp):
                with pytest.raises(DomainError) as err:
                    collapse(p, c)
                assert str(err.value) == message


def test_collapse_takes_no_sqrt_sin_or_cos(monkeypatch):
    # the radii and ray exits are sup norms: each direction costs one
    # arctangent for its forward chart, one tangent for its exit point and
    # at most a tangent and an arctangent on the central arc, nothing else
    ctx = make_context(256)
    calls = {}
    for name in ("atan2", "atan", "tan", "sin", "cos", "sqrt"):
        def counted(*args, _name=name, _fn=getattr(ctx, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(ctx, name, counted, raising=False)
    _consts(ctx)  # constants are computed once per precision, outside the count
    calls.clear()
    points = [(Fraction(1, 3), Fraction(1, 5)), (Fraction(-7, 8), Fraction(2, 3)),
              (Fraction(9, 10), Fraction(-1, 100)), (Fraction(1, 50), Fraction(-49, 50))]
    for x in points:
        collapse_inv(collapse(x, ctx), ctx)
    assert not {"sin", "cos", "sqrt"} & set(calls), calls
    assert sum(calls.values()) <= 8 * len(points), calls


def test_round_trip_converts_at_entry_and_clamps_once_per_hand_off(monkeypatch):
    # each entry point converts its point once and each chart-to-chart
    # hand-off is clamped once: the chart steps take floats of the context
    ctx = make_context(256)
    _consts(ctx)  # constants are converted once per precision, outside the count
    calls = {"to_bigfloat": 0, "_soft_clamp": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(collapse_map, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(collapse_map, name, counted)
    for x in [(Fraction(1, 3), Fraction(1, 5)), (Fraction(-7, 8), Fraction(2, 3)),
              (Fraction(9, 10), Fraction(-1, 100))]:
        calls.update(dict.fromkeys(calls, 0))
        collapse_inv(collapse(x, ctx), ctx)
        assert calls["to_bigfloat"] <= 8 and calls["_soft_clamp"] <= 8, (x, calls)


def test_entry_points_retype_foreign_floats():
    # floats of a finer context come back as floats of the working one,
    # rounded at its precision: the fiber pins return the height rounded
    fine, ctx = make_context(256), make_context(128)
    x = (fine.mpf(1) / 3, fine.mpf(1) / 5)
    outputs = [
        collapse(x, ctx),
        collapse_inv(collapse(x, fine), ctx),
        cone_map((fine.mpf("0.3"), fine.mpf("0.7")), ctx),
        cone_map((fine.mpf("4.1"), fine.mpf("0.2")), ctx, inverse=True),
        collapse((0, x[0]), ctx),
        collapse_inv((0, x[0]), ctx),
    ]
    for out in outputs:
        assert [type(v) for v in out] == [ctx.mpf, ctx.mpf], out
        assert all(v._mpf_[1].bit_length() <= 128 for v in out), out
    assert collapse((0, x[0]), ctx)[1] == collapse_inv((0, x[0]), ctx)[1] == ctx.mpf(x[0])


OFF_AXIS = [(Fraction(1, 3), Fraction(1, 5)), (Fraction(-7, 8), Fraction(2, 3)),
            (Fraction(9, 10), Fraction(-1, 100))]
EXACT_PINS = [(Fraction(0), Fraction(1, 3)), (Fraction(1), Fraction(1, 3)),
              (Fraction(-1, 3), Fraction(0))]


def _context(prec):
    return mpmath.fp if prec is None else make_context(prec)


@pytest.mark.parametrize("prec", [256, None], ids=["256", "fp"])
def test_collapse_of_fractions_makes_no_fraction_comparison(monkeypatch, prec):
    # the square check and the pins are read off numerators and denominators
    ctx = _context(prec)
    calls = {"_richcmp": 0, "__abs__": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(Fraction, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(Fraction, name, counted)
    assert Fraction(1, 2) < Fraction(1) and abs(Fraction(-1, 2)) == Fraction(1, 2)
    assert calls["_richcmp"] > 0 and calls["__abs__"] == 1  # the counters count
    calls.update(dict.fromkeys(calls, 0))
    for x in OFF_AXIS + EXACT_PINS:
        collapse(x, ctx)
    assert calls == {"_richcmp": 0, "__abs__": 0}


def test_each_entry_looks_up_the_chart_table_once(monkeypatch):
    # an entry point looks the chart table up once and hands it to its steps
    ctx = make_context(256)
    calls = []
    real = collapse_map._consts

    def counted(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(collapse_map, "_consts", counted)
    u = (ctx.mpf("0.3"), ctx.mpf("0.7"))
    entries = [lambda: cone_map(u, ctx), lambda: cone_map(u, ctx, inverse=True)]
    for x in OFF_AXIS + EXACT_PINS:
        floats = (to_bigfloat(x[0], ctx), to_bigfloat(x[1], ctx))
        entries += [lambda x=x: collapse(x, ctx), lambda f=floats: collapse(f, ctx),
                    lambda x=x: _collapse_charts(x, ctx)]
        if abs(x[0]) != 1:  # an edge goes to a slit endpoint, which has no inverse
            entries.append(lambda y=collapse(x, ctx): collapse_inv(y, ctx))
    for entry in entries:
        calls.clear()
        entry()
        assert calls == [ctx]


@pytest.mark.parametrize("prec", [256, None], ids=["256", "fp"])
def test_nan_coordinates_are_outside_the_square(prec):
    # every comparison with NaN is false, so each range check is written as
    # a negated in-range test: a NaN coordinate is outside, not charted
    ctx = _context(prec)
    nan, half, zero = ctx.mpf("nan"), ctx.mpf("0.5"), ctx.mpf(0)
    for x in ((nan, half), (half, nan), (nan, nan), (nan, zero), (zero, nan),
              (float("nan"), 0.5), (0.5, float("nan"))):
        with pytest.raises(DomainError, match="outside the square"):
            collapse(x, ctx)
        with pytest.raises(DomainError, match="outside the open square") as err:
            collapse_inv(x, ctx)
        assert not isinstance(err.value, SlitError)
        # the cone clamps its input onto the rectangle: NaN is no overshoot
        for inverse in (False, True):
            with pytest.raises(DomainError, match="value nan below"):
                cone_map(x, ctx, inverse)


@pytest.mark.parametrize("prec", [64, 256, None], ids=["64", "256", "fp"])
def test_collapse_decides_domain_on_the_exact_point(prec):
    # 1 + 2^-300 rounds to 1 at these precisions; the exact point is outside
    ctx = _context(prec)
    over = 1 + Fraction(1, 2**300)
    for x in ((over, Fraction(1, 2)), (-over, Fraction(1, 2)), (Fraction(1, 2), -over)):
        with pytest.raises(DomainError):
            collapse(x, ctx)


def test_collapse_mirrors_a_point_that_rounds_onto_the_edge():
    # -(1 - 2^-300) rounds to -(1 - 2^-256) but is not the left edge: its
    # image is the exact mirror of the right point's chart image, 2^-250
    # away from the slit endpoint, not the slit-endpoint pin
    ctx = make_context(256)
    near, s = 1 - Fraction(1, 2**300), Fraction(1, 2**250)
    right = collapse((near, s), ctx)
    left = collapse((-near, s), ctx)
    assert left == (-right[0], right[1])
    assert left[0] != -ctx.mpf(1) / 2 and left[1] != 0
    assert collapse((-Fraction(1), s), ctx) == (-ctx.mpf(1) / 2, 0)


def test_heights_below_the_doubles_keep_their_errors(fp):
    # a nonzero height that rounds to zero in doubles puts the rounded point
    # on the slit ray (inverse) or, with an edge offset 1 - |r| that rounds
    # to zero too, on the edge chart's center (forward)
    tiny = Fraction(1, 2**1100)
    for y in ((Fraction(3, 4), tiny), (Fraction(-3, 4), -tiny)):
        with pytest.raises(SlitError):
            collapse_inv(y, fp)
    for x in ((1 - tiny, tiny), (tiny - 1, -tiny)):
        with pytest.raises(DomainError, match="edge chart is degenerate at its center"):
            collapse(x, fp)
    # the exact entry converts the offset itself: 2^-60 is a double, though
    # 1 - 2^-60 rounds to 1, so the point is charted, off the chart's
    # center.  Its image is the 1024-bit image rounded to doubles, a height
    # of 2.5e-332 rounding to a zero of its sign, and lies where the axis
    # pin sends (1 - 2^-60, 0)
    near = 1 - Fraction(1, 2**60)
    for x in ((near, tiny), (-near, -tiny)):
        image = collapse(x, fp)
        fine = collapse(x, make_context(1024))
        assert [repr(v) for v in image] == [repr(float(v)) for v in fine], x
        assert image == collapse((x[0], Fraction(0)), fp), x
        assert math.copysign(1, image[1]) == (1 if x[1] > 0 else -1), x


@pytest.mark.parametrize("prec", [256, None], ids=["256", "fp"])
def test_collapse_inv_rejects_the_boundary_and_the_slits(prec):
    # the inverse's entry is the collapse's one slit and domain check
    ctx = _context(prec)
    third = Fraction(1, 3)
    for y in ((Fraction(1), third), (-third, Fraction(-1)), (Fraction(-1), Fraction(1)),
              (Fraction(5, 4), Fraction(0)), (Fraction(0), Fraction(-3, 2))):
        with pytest.raises(DomainError, match="outside the open square") as err:
            collapse_inv(y, ctx)
        assert not isinstance(err.value, SlitError)
    for r in (Fraction(1, 2), Fraction(3, 4), Fraction(99, 100)):
        for y in ((r, Fraction(0)), (-r, Fraction(0))):
            with pytest.raises(SlitError):
                collapse_inv(y, ctx)
    # just inside a slit endpoint the axis point comes back doubled
    assert _close(collapse_inv((Fraction(1, 2) - Fraction(1, 64), Fraction(0)), ctx),
                  (Fraction(31, 32), 0), 0)


# The point where the reflection defect of a lower half charted on its own
# showed: its ray runs next to a slit arc, where the cone map stretches.
STRETCHED = (Fraction(-308583, 999983), Fraction(474349, 999983))
TINY = Fraction(1, 2**1100)  # below the doubles: rounds to zero on fp


def _reflection_points():
    points = [STRETCHED, (Fraction(1, 3), Fraction(1, 5)), (Fraction(9, 10), Fraction(1, 100)),
              (Fraction(1, 50), Fraction(49, 50)), (Fraction(1, 3), TINY)]
    # rays into the slit arc and the affine arc next to it: edge-chart
    # angles within a few slit_arc_angle (about 9.6e-5) of straight up
    for s in (Fraction(1, 8), Fraction(1, 2), Fraction(7, 8)):
        for offset in (Fraction(1, 10**5), Fraction(9, 10**5), Fraction(1, 10**4), Fraction(3, 10**4)):
            points.append((1 - s * offset, s))
    # the pins: fiber, axis, edges, corners, and a point of the top edge
    points += [(Fraction(0), Fraction(2, 3)), (Fraction(0), Fraction(1)), (Fraction(3, 7), Fraction(0)),
               (Fraction(1), Fraction(1, 3)), (Fraction(1), Fraction(1)), (Fraction(1, 4), Fraction(1))]
    return points


def _mirrors(x):
    """The point's images under the level reflection, the vertical one, and
    both, keyed by the signs they put on the two coordinates."""
    r, s = x
    return {(-1, 1): (-r, s), (1, -1): (r, -s), (-1, -1): (-r, -s)}


@pytest.mark.parametrize("prec", [None, 53, 128, 256, 512], ids=["fp", "53", "128", "256", "512"])
def test_reflections_commute_exactly(prec):
    # the collapse and its inverse chart the upper-right quarter and mirror
    # the other three, so both commute with both reflections bit for bit;
    # the cone map mirrors its lower halves the same way
    ctx = _context(prec)
    k = _consts(ctx)
    for x in _reflection_points():
        floats = (to_bigfloat(x[0], ctx), to_bigfloat(x[1], ctx))
        for p in (x, floats):
            y = collapse(p, ctx)
            for (a, b), q in _mirrors(p).items():
                assert collapse(q, ctx) == (a * y[0], b * y[1]), (p, q)
        y = collapse(x, ctx)
        if abs(x[0]) == 1 or abs(x[1]) == 1:
            continue  # the inverse is defined on the open square off the slits
        for w in (x, y):
            v = collapse_inv(w, ctx)
            for (a, b), q in _mirrors(w).items():
                assert collapse_inv(q, ctx) == (a * v[0], b * v[1]), (w, q)
    # a height that rounds to zero is mirrored too: on fp both heights
    # round to zero, and so do their images' heights (about 2^-1100), but
    # not their signs; at 256 bits the images lie off the axis, their
    # heights to the context's relative accuracy
    up, down = collapse((Fraction(1, 3), TINY), ctx), collapse((Fraction(1, 3), -TINY), ctx)
    assert [repr(v) for v in down] == [repr(up[0]), repr(-up[1])]
    if ctx is mpmath.fp:
        assert up[1] == 0 and math.copysign(1, up[1]) == 1
    else:
        fine = collapse((Fraction(1, 3), TINY), make_context(2 * ctx.prec))[1]
        assert up[1] != 0 and abs(up[1] / fine - 1) <= ctx.ldexp(1, 8 - ctx.prec)
    # the cone map, both directions, on rays into the slit arcs and off them
    astar = k["astar"]
    for rho in (k["zero"], to_bigfloat(Fraction(1, 3), ctx), k["half"], k["one"]):
        for a in (astar / 2, astar, 2 * astar, k["pi"] / 4, k["one"], k["half_pi"] - astar):
            t = cone_map((k["pi"] - a, rho), ctx)
            assert cone_map((a, rho), ctx) == (k["two_pi"] - t[0], t[1])
            theta = k["pi"] + 2 * a  # the lower half (pi, 2*pi]
            t = cone_map((k["two_pi"] - theta, rho), ctx, inverse=True)
            assert cone_map((theta, rho), ctx, inverse=True) == (k["pi"] - t[0], t[1])


@functools.cache
def _wall_lift_coordinates():
    """The coordinates of a wall-seed lift 40 to 48 steps out, where the
    abscissa's denominator passes 10^4 bits: the plane path's pairs."""
    ctx = make_context(256)
    seed = tangent_chart(collapse((Fraction(-3, 5), Fraction(-1, 2)), ctx), ctx)
    return tuple(c for _, w, _ in lifted_core(seed, (40, 48), ctx) for c in w)


@st.composite
def _square_coordinates(draw):
    """A coordinate of the square: a pin (0, +-1/2, +-1), a sampled
    rational, or a wall-seed lift's coordinate, of either sign."""
    kind = draw(st.sampled_from(("pin", "rational", "lift")))
    if kind == "pin":
        return draw(st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(-1, 2),
                                     Fraction(1), Fraction(-1))))
    if kind == "rational":
        return draw(st.fractions(-1, 1, max_denominator=10**6))
    return draw(st.sampled_from((1, -1))) * draw(st.sampled_from(_wall_lift_coordinates()))


@pytest.mark.parametrize("prec", [None, 53, 256, 512], ids=["fp", "53", "256", "512"])
@settings(max_examples=120, deadline=None)
@given(r=_square_coordinates(), s=_square_coordinates())
def test_collapse_of_fractions_commutes_with_the_mirrors_bit_for_bit(prec, r, s):
    # the exact entry decides the pins and the quarter on the integers and
    # charts the magnitudes, so each mirror's image is the mirrored image
    ctx = _context(prec)
    y = collapse((r, s), ctx)
    for (a, b), q in _mirrors((r, s)).items():
        # equal floats of a big-float context are equal bits; in doubles the
        # pins' zeros are unsigned, so -0.0 == 0.0 is wanted there
        assert collapse(q, ctx) == (a * y[0], b * y[1]), (r, s, q)


@pytest.mark.parametrize("prec", [None, 53, 256, 512], ids=["fp", "53", "256", "512"])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_collapse_of_dyadic_fractions_equals_collapse_of_their_floats(prec, data):
    # a dyadic point the context holds exactly takes the same pins, the
    # same quarter and the same charts through the exact entry and the
    # float one
    ctx = _context(prec)
    bits = 53 if prec is None else prec

    def dyadic():
        k = data.draw(st.integers(0, bits - 1))
        return Fraction(data.draw(st.integers(-(1 << k), 1 << k)), 1 << k)

    x = (dyadic(), dyadic())
    floats = (to_bigfloat(x[0], ctx), to_bigfloat(x[1], ctx))
    assert [repr(v) for v in collapse(x, ctx)] == [repr(v) for v in collapse(floats, ctx)], x


@pytest.mark.parametrize("prec", [64, 128, 256, 512])
def test_forward_error_against_1024_bits(prec, tol):
    # the reflections commute exactly, so the commutation check no longer
    # sees the forward map's own error; pin it against a 1024-bit collapse
    # at the stretched point and its three mirrors
    ctx, fine = make_context(prec), make_context(1024)
    for x in [STRETCHED, *_mirrors(STRETCHED).values()]:
        y, ref = collapse(x, ctx), collapse(x, fine)
        err = max(abs(fine.mpf(y[0]) - ref[0]), abs(fine.mpf(y[1]) - ref[1]))
        assert err <= tol.chart_roundtrip_bound(ctx), (x, float(err / ctx.ldexp(1, -prec)))


@st.composite
def _near_walls(draw, prec):
    """A coordinate of the square, often a few ulps at ``prec`` bits from
    0, 1/2 or 1 (the walls, corners and slit ends), of either sign."""
    if draw(st.booleans()):
        v = draw(st.fractions(0, 1, max_denominator=10**6))
    else:
        base = draw(st.sampled_from((0, Fraction(1, 2), 1)))
        ulps = Fraction(draw(st.integers(-6, 6)), 2 ** draw(st.integers(prec - 3, prec + 3)))
        v = min(max(base + ulps, Fraction(0)), Fraction(1))
    return draw(st.sampled_from((1, -1))) * v


@st.composite
def _points_at_precision(draw):
    prec = draw(st.sampled_from((53, 128, 256, 512)))
    return prec, (draw(_near_walls(prec)), draw(_near_walls(prec)))


@settings(max_examples=300, deadline=None)
@given(_points_at_precision(), st.booleans())
def test_cone_radius_needs_no_clamp(case, doubles):
    # _cone clamps only its angle: the radius each chart hands the cone,
    # and the radius the cone hands the chart inverse, are in [0, 1] by
    # construction, a few ulps from the walls and corners too
    prec, x = case
    ctx = mpmath.fp if doubles and prec == 53 else make_context(prec)
    seen = []
    real_cone = collapse_map._cone

    def cone(u0, u1, inverse, k):
        w = real_cone(u0, u1, inverse, k)
        seen.extend((u1, w[1]))
        return w

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(collapse_map, "_cone", cone)
        collapse(x, ctx)
        collapse((to_bigfloat(x[0], ctx), to_bigfloat(x[1], ctx)), ctx)
        r, s = x
        if abs(r) < 1 and abs(s) < 1 and (s != 0 or 2 * abs(r) < 1):
            try:
                collapse_inv(x, ctx)
            except SlitError:  # a height below the doubles' range
                assert ctx is mpmath.fp
    assert all(0 <= v <= 1 for v in seen), seen


RANGE_PRECISIONS = [None, 53, 64, 100, 128, 200, 256, 512]


@pytest.mark.parametrize("prec", RANGE_PRECISIONS, ids=["fp", "53", "64", "100", "128", "200", "256", "512"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_chart_inverse_images_lie_in_the_quarter(prec, data):
    # the chart inverses clamp only their angles: the radius each is handed
    # is in [0, 1], so a radius clamp would change nothing, and the image
    # lands in the closed upper-right quarter, a few ulps from the walls and
    # slit ends too, in both directions of the collapse.  The quarter is
    # widened by 16 units of 2^-p: the corner offsets pi/4, atan 2 and
    # pi - atan 2 are rounded at p bits, and a ray through a rounded corner
    # leaves up to 2 units past the fiber (at 64 and 200 bits), with or
    # without a radius clamp
    ctx = _context(prec)
    bits = 53 if prec is None else prec
    x = (data.draw(_near_walls(bits)), data.draw(_near_walls(bits)))
    seen = []

    def recorded(step):
        def run(a, rho, k):
            out = step(a, rho, k)
            seen.append((step.__name__, rho, out))
            return out

        return run

    def inverse(y):
        r, s = y
        if abs(r) < 1 and abs(s) < 1 and (s != 0 or 2 * abs(r) < 1):
            try:
                collapse_inv(y, ctx)
            except SlitError:  # a height below the doubles' range
                assert ctx is mpmath.fp

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_edge_chart_inv", "_slit_chart_inv"):
            mp.setattr(collapse_map, name, recorded(getattr(collapse_map, name)))
        y = collapse(x, ctx)
        collapse((to_bigfloat(x[0], ctx), to_bigfloat(x[1], ctx)), ctx)
        inverse(x)
        inverse(y)
    slack = ctx.ldexp(1, 4 - bits)
    for name, rho, image in seen:
        assert 0 <= rho <= 1, (x, name, rho)
        assert all(-slack <= v <= 1 + slack for v in image), (x, name, rho, image)


# The corner angles of each chart inverse's upper half, as offsets from the
# fiber's direction named by their chart-table keys: the ends of its
# branches
INVERSE_ANGLES = {False: ("zero", "quarter_pi", "half_pi"),
                  True: ("zero", "corner", "stretch", "pi")}


@pytest.mark.parametrize("prec", RANGE_PRECISIONS, ids=["fp", "53", "64", "100", "128", "200", "256", "512"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_chart_inverses_fold_the_ray_exit(prec, data):
    # each chart inverse writes its exit wall's coordinate into one form per
    # branch; tests/cone_reference.py keeps the ray exit e and the
    # interpolation c + rho (e - c) they fold.  A fold that only scales by
    # a power of two or writes 1 + rho (0 - 1) as 1 - rho is the unfolded
    # form bit for bit (rho is 0 or a normal double); on the two branches
    # that fold c + rho ((c -+ tan) - c) into c -+ rho tan, each coordinate
    # is within 1.5 units of 2^-p of the unfolded form at p + 64 bits with
    # the same corner angles: three roundings of half a unit, the
    # tangent's, the product's and the difference's
    ctx = _context(prec)
    bits = 53 if prec is None else prec
    k = _consts(ctx)
    fine = make_context(bits + 64)
    kf = dict(_consts(fine))
    kf.update({key: fine.mpf(k[key]) for key in ("zero", "quarter_pi", "half_pi", "corner", "stretch", "pi")})
    slit = data.draw(st.booleans(), "slit")
    keys = INVERSE_ANGLES[slit]
    if data.draw(st.booleans(), "at a seam"):
        a = k[data.draw(st.sampled_from(keys))] + ctx.ldexp(data.draw(st.integers(-8, 8)), 2 - bits)
    else:
        along = to_bigfloat(data.draw(st.fractions(0, 1, max_denominator=10**6), "along"), ctx)
        a = along * k[keys[-1]]
    a = min(max(a, k["zero"]), k[keys[-1]])
    rho = to_bigfloat(data.draw(st.one_of(st.sampled_from((Fraction(0), Fraction(1))),
                                          st.integers(1, 8).map(lambda j: 1 - Fraction(j, 2**bits)),
                                          st.fractions(0, 1, max_denominator=10**6)), "rho"), ctx)
    got = (_slit_chart_inv if slit else _edge_chart_inv)(a, rho, k)
    unfolded = cone_reference.chart_inv(slit, a, rho, k)
    # the branch that writes c -+ rho tan: the edge chart's top wall and the
    # slit chart's, each in its first coordinate
    rounded = k["corner"] <= a and k["pi"] - a > k["corner"] if slit else a >= k["quarter_pi"]
    assert got[1] == unfolded[1] and (rounded or got[0] == unfolded[0]), (a, rho, got, unfolded)
    want = cone_reference.chart_inv(slit, fine.mpf(a), fine.mpf(rho), kf)
    for v, w in zip(got, want):
        assert abs(fine.mpf(v) - w) <= 1.5 * fine.ldexp(1, -bits), (a, rho, got, want)


@pytest.mark.parametrize("prec", [None, 53, 64, 128, 256, 512], ids=["fp", "53", "64", "128", "256", "512"])
def test_slit_top_radius_is_at_most_one(prec):
    # the slit-top arc stretches the edge-chart angle by 1/astar, so at
    # the arc's start a rounded radius can exceed 1 (at 64 and 512 bits it
    # did, past the slit chart's radius clamp); the angles within a few
    # ulps of the start go to radius at most one
    ctx = _context(prec)
    k = _consts(ctx)
    start = k["pi"] - k["astar"]
    for j in range(-4, 5):
        assert 0 <= cone_map((start + ctx.ldexp(j, 2 - ctx.prec), k["one"]), ctx)[1] <= 1


@pytest.mark.parametrize("prec", [64, 128, 256, 512])
def test_top_edge_images_stay_in_the_square_next_to_the_corner(prec):
    # the affine arc carries these top-edge points next to the slit chart's
    # corner (1, 1), where its right edge meets its top wall; the branch
    # test reads theta = pi - phi, exact there, so that no image rises
    # above the top (a test on phi against the rounded pi - atan 2 put two
    # of them at height 1 + 2^-509 at 512 bits)
    ctx, fine = make_context(prec), make_context(prec + 100)
    kf = _consts(fine)
    x0 = fine.mpf(1 - 1 / fine.tan(kf["arc_end"] - kf["corner"] / kf["arc_stretch"]))
    centre = Fraction(int(x0.man)) * Fraction(2) ** int(x0.exp)
    for j in range(-64, 65):
        image = collapse((centre + Fraction(j, 2**prec), Fraction(1)), ctx)
        assert 0 <= image[0] <= 1 and 0 <= image[1] <= 1, (j, image)


@pytest.mark.parametrize("prec", [53, 64, 100, 128, 200, 256, 512])
def test_top_edge_images_stay_off_the_mirror_half_next_to_the_fiber(prec):
    # top-edge points (x, 1) with 0 < x < 2^(6-p) go next to the slit
    # chart's corner (0, 1), on its top wall, whose abscissa 1/2 + rho
    # tan(phi - pi/2) cancels to a few units of 2^-p there: it fell 2 units
    # below zero at 64 bits and 1 at 200, across the fiber into the mirror
    # half, on 46 of these 3000 points each
    ctx = make_context(prec)
    one = Fraction(1)
    for j in range(1, 3001):
        image = collapse((Fraction(j, 3000 * 2 ** (prec - 6)), one), ctx)
        assert image[0] >= 0, (j, image)


@pytest.mark.parametrize("prec", [100, 200])
def test_slit_top_radius_is_not_negative_next_to_the_corner(prec):
    # next to the corner (pi, 1) the slit-top arc's radius falls by nearly
    # rho, and 1/astar stretches the offset's rounding past rho at these
    # precisions: the points just inside the angle-pi wall, a few ulps from
    # the diagonal, go to radius at least zero
    ctx = make_context(prec)
    k = _consts(ctx)
    for j in range(1, 33):
        rho = k["one"] - ctx.ldexp(j, -prec)
        t = 2 * (rho - k["half"])
        for i in range(-32, 33):
            u0 = min(k["half_pi"] + t * k["half_pi"] + ctx.ldexp(i, 1 - prec), k["pi"])
            assert cone_map((u0, rho), ctx)[1] >= 0, (j, i)


@pytest.mark.parametrize("prec", [64, 512])
def test_top_edge_floats_at_the_slit_arc_end_collapse(prec):
    # the edge chart puts some of these floats at angle pi - astar exactly:
    # 2 of them at 64 bits and 6 at 512 raised on the radius clamp
    ctx = make_context(prec)
    fine = make_context(prec + 64)
    r0 = ctx.mpf(1 - fine.tan(fine.pi / SLIT_ARC_DENOM))
    one = ctx.mpf(1)
    for j in range(-8, 9):
        y = collapse((r0 + ctx.ldexp(j, -prec), one), ctx)
        # near the slit's outer half, within the pins' headroom
        assert 0.5 <= y[0] <= 1 and 0 <= y[1] <= ctx.ldexp(1, 16 - prec)


# The walls of each source half-boundary, as (wall, arcs): a wall point is
# (position, radius) on a radius wall and (angle, position) on the angle
# wall, and each arc is (start, end) of the position, as chart-table keys
# or numbers.  The ends are the seams of the cone's closed forms: forward
# the central arc's end 3*pi/4 and the slit-top arc's start pi - astar,
# inverse theta_b = stretch and theta_b = third, and on both sides the
# corners, where s0 = s1.
CONE_WALLS = {
    False: (("one", (("half_pi", "three_quarter_pi"), ("three_quarter_pi", "pi_minus_astar"),
                     ("pi_minus_astar", "pi"))),
            ("angle", (("zero", "one"),)),
            ("zero", (("half_pi", "pi"),))),
    True: (("one", (("zero", "stretch"), ("stretch", "pi"))),
           ("angle", (("zero", "one"),)),
           ("zero", (("zero", "third"), ("third", "pi")))),
}


@pytest.mark.parametrize("prec", [None, 53, 128, 256, 512], ids=["fp", "53", "128", "256", "512"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cone_map_matches_the_ray_exit_reference(prec, data, tol):
    # the closed forms per wall multiply out the ray exit, the boundary
    # correspondence and the interpolation by t: the cone map agrees with
    # that route (tests/cone_reference.py) on every wall and arc, on each
    # seam and a few ulps either side, both directions and both halves
    ctx = _context(prec)
    k = cone_reference.table(ctx)
    inverse = data.draw(st.booleans(), "inverse")
    wall, arcs = data.draw(st.sampled_from(CONE_WALLS[inverse]), "wall")
    start, end = (k[e] for e in data.draw(st.sampled_from(arcs), "arc"))
    if data.draw(st.booleans(), "at a seam"):
        ulps = ctx.ldexp(data.draw(st.integers(-4, 4), "ulps"), 2 - ctx.prec)
        pos = data.draw(st.sampled_from((start, end))) + ulps
    else:
        along = data.draw(st.fractions(0, 1, max_denominator=10**6), "along")
        pos = start + to_bigfloat(along, ctx) * (end - start)
    b = {"one": (pos, k["one"]), "zero": (pos, k["zero"]),
         "angle": (k["zero"] if inverse else k["pi"], pos)}[wall]
    # the point at fraction t along the ray from the center to b
    t = data.draw(st.one_of(st.just(Fraction(1)), st.fractions(0, 1, max_denominator=10**6),
                            st.integers(1, 8).map(lambda j: 1 - Fraction(j, 2**ctx.prec))), "t")
    c = (k["pi"] if inverse else k["half_pi"], k["half"])
    t = to_bigfloat(t, ctx)
    u = [c[0] + t * (b[0] - c[0]), c[1] + t * (b[1] - c[1])]
    # onto the upper half, whose walls a rounded u may overshoot
    u = [min(max(u[0], k["zero"] if inverse else k["half_pi"]), k["pi"]),
         min(max(u[1], k["zero"]), k["one"])]
    if data.draw(st.booleans(), "lower half"):
        u[0] = k["two_pi"] - u[0] if inverse else k["pi"] - u[0]
    got, want = cone_map(u, ctx, inverse), cone_reference.cone(u, inverse, k)
    bound = tol.chart_roundtrip_bound(ctx)
    assert abs(got[0] - want[0]) <= bound and abs(got[1] - want[1]) <= bound, (u, got, want)
