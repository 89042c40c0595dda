"""The plane homeomorphism, its exact lift, and the contrast example."""

import collections
import hashlib
import math
import random
from fractions import Fraction

import mpmath
import pytest

from planardyn import collapse_map, plane_map, square_map
from planardyn.dynamics import (
    boundedness_certificate,
    displacement_scan,
    limit_estimate,
    map_registry,
    orbit,
)
from planardyn.numerics import DEFAULT_TOLERANCES, DomainError, make_context, to_bigfloat
from planardyn.plane_map import (
    _pinned,
    _square_pairs,
    example_shift_reflection,
    lifted_core,
    on_ray,
    plane_homeo,
    quotient_square_map,
    tangent_chart,
)
from planardyn.collapse_map import _consts, collapse, collapse_inv
from planardyn.square_map import _fractions, square_homeo

TIGHT = 1e-70


def _num(v):
    # mpf refuses mixed comparisons with Fraction; expectations are dyadic
    return float(v) if isinstance(v, Fraction) else v


def _close(p, q, eps=TIGHT):
    return all(abs(_num(a) - _num(b)) <= eps for a, b in zip(p, q))


def test_tangent_chart_is_coordinatewise(ctx):
    out = tangent_chart((Fraction(1, 3), Fraction(1, 5)), ctx)
    assert _close(out, (ctx.tan(ctx.pi / 6), ctx.tan(ctx.pi / 10)))
    assert _close(tangent_chart((Fraction(0), Fraction(0)), ctx), (0, 0))


def test_tangent_chart_roundtrip(ctx):
    p = (ctx.mpf("0.4142"), ctx.mpf("-3.25"))
    q = tangent_chart(p, ctx, inverse=True)
    assert abs(q[0]) < 1 and abs(q[1]) < 1
    assert _close(tangent_chart(q, ctx), p)


def test_plane_map_frozen_values(ctx):
    assert _close(plane_homeo((ctx.mpf(0), ctx.mpf(0)), ctx), (0, 1))
    assert _close(plane_homeo((ctx.mpf(0), ctx.mpf(1)), ctx, inverse=True), (0, 0))
    q = plane_homeo((ctx.mpf(2), ctx.mpf(7)), ctx)
    assert abs(q[0] - ctx.mpf("28.177624775423828005")) < 1e-16
    assert abs(q[1] - ctx.mpf("7.72479978795648938")) < 1e-16


def test_rays_reflect(ctx):
    assert _close(plane_homeo((ctx.mpf(5), ctx.mpf(0)), ctx), (-5, 0))
    assert _close(plane_homeo((ctx.mpf(-5), ctx.mpf(0)), ctx), (5, 0))
    assert _close(plane_homeo((ctx.mpf("-1.5"), ctx.mpf(0)), ctx), (1.5, 0))


def test_plane_roundtrip(ctx):
    for seed in ((ctx.mpf("0.3"), ctx.mpf("-0.7")), (ctx.mpf(3), ctx.mpf(2))):
        q = plane_homeo(seed, ctx)
        back = plane_homeo(q, ctx, inverse=True)
        assert _close(back, seed, 1e-60)


def test_lifted_core_plane_points_frozen(ctx):
    orb = {n: y for n, _, y in lifted_core((ctx.mpf(0), ctx.mpf(0)), (-2, 2), ctx)}
    assert _close(orb[0], (0, 0))
    assert _close(orb[1], (0, 1))
    assert _close(orb[2], (0, ctx.tan(3 * ctx.pi / 8)))
    # time reversal through the fixed fiber: the backward tail mirrors
    assert _close(orb[-1], (0, -1))
    assert _close(orb[-2], (0, -ctx.tan(3 * ctx.pi / 8)))


def test_lifted_core_square_lifts(ctx):
    core = {n: lift for n, lift, _ in lifted_core((Fraction(0), Fraction(0)), (0, 3), ctx)}
    assert core[0] == (Fraction(0), Fraction(0))
    assert core[1] == (Fraction(0), Fraction(1, 2))
    assert core[2] == (Fraction(0), Fraction(3, 4))
    assert core[3] == (Fraction(2, 3), Fraction(7, 8))


def test_lifted_core_tracks_the_square_map(ctx):
    # the plane seed's square lift is rationalized once, then iterated
    # exactly, forward and (on a window without 0) backward; each plane
    # point is its lift pushed forward, bit for bit
    seed = (Fraction(1, 3), Fraction(1, 5))
    w0 = lifted_core(seed, (0, 0), ctx)[0][1]
    for window in ((0, 12), (-9, -3)):
        core = lifted_core(seed, window, ctx)
        assert [n for n, _, _ in core] == list(range(window[0], window[1] + 1))
        inverse = window[1] < 0
        p = w0
        for _ in range(-window[1] if inverse else window[0]):
            p = square_homeo(p, inverse=inverse)
        for n, lift, point in reversed(core) if inverse else core:
            assert lift == p, n
            want = tangent_chart(collapse(lift, ctx), ctx)
            assert [_bits(v) for v in point] == [_bits(v) for v in want], n
            p = square_homeo(p, inverse=inverse)


def test_lift_matches_naive_iteration(ctx):
    lifted = {n: y for n, _, y in lifted_core((ctx.mpf(0), ctx.mpf(0)), (-6, 6), ctx)}
    fwd = (ctx.mpf(0), ctx.mpf(0))
    back = (ctx.mpf(0), ctx.mpf(0))
    for n in range(1, 7):
        fwd = plane_homeo(fwd, ctx)
        back = plane_homeo(back, ctx, inverse=True)
        assert _close(lifted[n], fwd, 1e-20)
        assert _close(lifted[-n], back, 1e-20)


def test_quotient_map_commutes_at_a_point(ctx):
    p = (Fraction(1, 3), Fraction(1, 5))
    lhs = quotient_square_map(collapse(p, ctx), ctx)
    rhs = collapse(square_homeo(p), ctx)
    assert _close(lhs, rhs, 1e-60)


def test_quotient_map_frozen_value(ctx):
    out = quotient_square_map(collapse((Fraction(0), Fraction(0)), ctx), ctx)
    assert _close(out, (0, Fraction(1, 2)), 1e-60)


def _bits(v):
    # the exact representation: sign of zero included in doubles
    return (type(v), v.hex() if type(v) is float else v._mpf_)


def _composed(q, ctx, inverse, planted):
    """quotient_square_map as the composition of the public maps, with
    ``collapse_inv``'s value replaced by a planted one where given."""
    w = _fractions(_square_pairs(planted.get(q) or collapse_inv(q, ctx), ctx))
    return collapse(square_homeo(w, inverse=inverse), ctx)


@pytest.mark.parametrize("prec", [None, 128, 256])
def test_quotient_map_is_the_composition_bit_for_bit(prec, monkeypatch):
    ctx = mpmath.fp if prec is None else make_context(prec)
    one = ctx.mpf(1)
    grid = [to_bigfloat(Fraction(k, 7), ctx) for k in range(-6, 7)]
    points = [(r, s) for r in grid for s in grid if not _pinned(r, s)]
    # collapse_inv's own rounding stays inside the square, so overshoots
    # are planted: one ulp, and the largest overshoot that still snaps
    ulp, bound = ctx.ldexp(one, 1 - ctx.prec), ctx.ldexp(one, -max(ctx.prec - 8, 48))
    third = to_bigfloat(Fraction(1, 3), ctx)
    planted = {
        (third, third): (one + ulp, third),
        (third, -third): (-third, -one - ulp),
        (-third, third): (-one - bound, one + bound),
        (-third, -third): (third, one + ctx.ldexp(one, -40)),  # escapes
    }
    real = plane_map._collapse_inv
    monkeypatch.setattr(plane_map, "_collapse_inv", lambda y, u, k: planted.get(y) or real(y, u, k))
    escapes = 0
    for q in points + list(planted):
        for inverse in (False, True):
            try:
                want = _composed(q, ctx, inverse, planted)
            except DomainError as err:
                assert "escaped the square" in str(err) and q == (-third, -third)
                with pytest.raises(DomainError) as got:
                    quotient_square_map(q, ctx, inverse)
                assert str(got.value) == str(err)
                escapes += 1
                continue
            got = quotient_square_map(q, ctx, inverse)
            assert [_bits(v) for v in got] == [_bits(v) for v in want], (q, inverse)
    assert escapes == 2


def test_example_frozen_values(ctx):
    ex = example_shift_reflection
    assert _close(ex((ctx.mpf(0), ctx.mpf(0))), (0, 1))
    assert _close(ex((ctx.mpf(2), ctx.mpf(7))), (-2, 7))
    assert _close(ex((ctx.mpf("0.5"), ctx.mpf(0))), (-0.5, 0.5))
    assert _close(ex((ctx.mpf(0), ctx.mpf(1)), inverse=True), (0, 0))


def test_example_is_an_involution_outside_the_band(ctx):
    for p in ((ctx.mpf(2), ctx.mpf(7)), (ctx.mpf(-3), ctx.mpf("-1.5"))):
        q = example_shift_reflection(example_shift_reflection(p))
        assert _close(q, p)


def test_example_heights_grow_inside_the_band(ctx):
    p = (ctx.mpf(0), ctx.mpf(0))
    for n in range(1, 50):
        p = example_shift_reflection(p)
        assert p[1] == n


def test_square_pairs_snap_follows_precision():
    ctx = make_context(256)
    one = ctx.mpf(1)
    # a 1-ulp overshoot is rounding: it snaps back onto the edge
    ulp = ctx.ldexp(one, 1 - ctx.prec)
    assert _square_pairs((one + ulp, -one - ulp), ctx) == (1, 1, -1, 1)
    # 2^-100 is far above 256-bit rounding: the point escaped the square
    with pytest.raises(DomainError):
        _square_pairs((one + ctx.ldexp(one, -100), ctx.mpf(0)), ctx)
    # in doubles the snap stays at 2^-48
    assert _square_pairs((1 + 2.0**-50, 0.0), mpmath.fp) == (1, 1, 0, 1)
    with pytest.raises(DomainError):
        _square_pairs((1 + 2.0**-40, 0.0), mpmath.fp)


def test_square_pairs_bound_is_exact():
    # the overshoot bound 2^-(prec-8) itself snaps; one ulp past it escapes
    ctx = make_context(256)
    one = ctx.mpf(1)
    edge = one + ctx.ldexp(one, -248)
    assert _square_pairs((edge, -edge), ctx) == (1, 1, -1, 1)
    with pytest.raises(DomainError):
        _square_pairs((ctx.mpf(0), -(edge + ctx.ldexp(one, -255))), ctx)
    # points inside the square come back as their exact values
    inside = (ctx.mpf("0.375"), -ctx.mpf(1))
    assert _square_pairs(inside, ctx) == (3, 8, -1, 1)


def _context(prec):
    return mpmath.fp if prec is None else make_context(prec)


def test_double_table_is_mpmath_fp_bit_for_bit():
    # on doubles the chart table holds the math functions that mpmath.fp's
    # wrappers call on a float: the same bits, sign of zero included
    fp = mpmath.fp
    k = _consts(fp)
    assert (k["tan"], k["atan"], k["atan2"]) == (math.tan, math.atan, math.atan2)
    assert k["half_pi"] == fp.pi / 2 and k["two_over_pi"] == 2 / fp.pi
    half_pi = math.pi / 2
    values = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300, 1.0, 0.5, 3.0,
              half_pi, math.nextafter(half_pi, 0), math.nextafter(half_pi, 4),
              math.nextafter(math.nextafter(half_pi, 4), 4)]
    values += [-v for v in values]

    def bits(v):
        return v.hex()

    for v in values:
        assert bits(k["tan"](v)) == bits(fp.tan(v)), v
        assert bits(k["atan"](v)) == bits(fp.atan(v)), v
        for w in values:
            assert bits(k["atan2"](v, w)) == bits(fp.atan2(v, w)), (v, w)


@pytest.mark.parametrize("prec", [None, 53, 64, 128, 256, 512])
def test_tangent_chart_is_the_closed_form_bit_for_bit(prec):
    # the table's pi/2, 2/pi, tan and atan are the context's own
    ctx = _context(prec)
    one = ctx.mpf(1)
    edge = one - ctx.ldexp(one, -ctx.prec)  # the last float below 1
    rs = [to_bigfloat(Fraction(k, 17), ctx) for k in range(-16, 17)] + [edge, -edge]
    for r in rs:
        want = ctx.tan(ctx.pi / 2 * r)
        assert [_bits(v) for v in tangent_chart((r, -r), ctx)] == [_bits(want), _bits(-want)]
    xs = rs + [ctx.mpf(v) for v in (3.25, 1e-300, 2.0**60, 1e300)]
    for x in xs:
        want = 2 / ctx.pi * ctx.atan(x)
        got = tangent_chart((x, -x), ctx, inverse=True)
        assert [_bits(v) for v in got] == [_bits(want), _bits(2 / ctx.pi * ctx.atan(-x))]


@pytest.mark.parametrize("prec", [None, 128, 256], ids=["fp", "128", "256"])
def test_plane_map_is_the_composition_bit_for_bit(prec):
    # plane_homeo chains the internal forms on one chart table; it is
    # tangent_chart o quotient_square_map o tangent_chart^-1 bit for bit,
    # a DomainError where the composition raises one (naming the point out
    # of reach where its preimage rounds onto the square's edge), and the
    # exact reflection on the two rays
    ctx = _context(prec)
    one = ctx.mpf(1)
    grid = [to_bigfloat(Fraction(k, 3), ctx) for k in range(-9, 10)]
    big, half = ctx.mpf(1e300), ctx.mpf(0.5)
    below = one - ctx.ldexp(one, -ctx.prec)  # the last float below 1
    points = [(a, b) for a in grid for b in grid]
    points += [(big, half), (half, -big), (-big, -big), (below, 0 * one), (-below, 0 * one)]
    seen = {"ray": 0, "pinned": 0, "boundary": 0}
    for x in points:
        for inverse in (False, True):
            if on_ray(x):
                seen["ray"] += 1
                assert [_bits(v) for v in plane_homeo(x, ctx, inverse)] == [_bits(-x[0]), _bits(x[1])]
                continue
            q = tangent_chart(x, ctx, inverse=True)
            try:
                want = tangent_chart(quotient_square_map(q, ctx, inverse), ctx)
            except DomainError:
                seen["boundary"] += 1
                assert any(abs(v) == 1 for v in q)
                with pytest.raises(DomainError) as got:
                    plane_homeo(x, ctx, inverse)
                assert str(got.value) == _out_of_reach(x, ctx)
                continue
            seen["pinned"] += _pinned(*q)
            got = plane_homeo(x, ctx, inverse)
            assert [_bits(v) for v in got] == [_bits(v) for v in want], (x, inverse)
    # (+-below, 0) round onto the slits; the 1e300 points onto the boundary
    assert seen == {"ray": 28, "pinned": 4, "boundary": 6}


def _out_of_reach(x, ctx):
    return (
        f"plane point ({x[0]}, {x[1]}) out of reach at {ctx.prec} bits: "
        "its chart preimage rounds onto the square's edge"
    )


@pytest.mark.parametrize("prec", [None, 53, 256], ids=["fp", "53", "256"])
def test_far_plane_points_are_out_of_reach(prec):
    # past the precision's reach a preimage coordinate rounds onto +-1; the
    # error names the plane point and the precision, where it used to name
    # the reflected edge point that the tangent chart then rejected
    ctx = _context(prec)
    far = [(1e100, 2.0), (0.0, 1e80), (-1e90, -3.0), (0.5, -1e100)]
    if ctx.prec == 53:
        far.append((1e30, 1e30))
    for x in far:
        assert any(abs(v) == 1 for v in tangent_chart(x, ctx, inverse=True))
        for inverse in (False, True):
            with pytest.raises(DomainError) as got:
                plane_homeo(x, ctx, inverse)
            assert str(got.value) == _out_of_reach(x, ctx)
        with pytest.raises(DomainError) as got:
            lifted_core(x, (0, 2), ctx)
        assert str(got.value) == _out_of_reach(x, ctx)


@pytest.mark.parametrize("prec, x, want", [
    # on doubles the value follows the platform's libm: not pinned
    (None, (1e15, 1e15), None),
    (256, (1e60, 3.0), (
        "-1999999999999999899016026472633339139404966303588142946622212.563947705276148709",
        "3.000000000000000000000000000000000000000000000000000000000024619264189320775416",
    )),
], ids=["fp", "256"])
def test_far_points_in_reach_map_as_before(prec, x, want):
    # the preimages stay inside the square (on doubles, (1e15, 1e15) by a
    # few units of 2^-53): the map is still the composition, bit for bit
    ctx = _context(prec)
    q = tangent_chart(x, ctx, inverse=True)
    assert all(abs(v) < 1 for v in q)
    got = plane_homeo(x, ctx)
    composed = tangent_chart(quotient_square_map(q, ctx), ctx)
    assert [_bits(v) for v in got] == [_bits(v) for v in composed]
    assert want is None or all(abs(v - ctx.mpf(w)) <= abs(v) * 2.0**-240 for v, w in zip(got, want))
    assert lifted_core(x, (0, 1), ctx)[1][2] == got


# at 53 bits g's image of these points, whose chart preimages lie inside
# the square, rounds onto the square's edge: the forward image of the
# first, the inverse image of the second
FAR_IMAGES = (((-51.53, 1.657e15), False), ((-73.12715117751975, -1778548318017595.2), True))


def test_far_plane_images_are_out_of_reach():
    # the error names the plane point, the direction and the precision,
    # where it used to name the edge point that the tangent chart rejected
    ctx = make_context(53)
    for x, inverse in FAR_IMAGES:
        assert all(abs(v) < 1 for v in tangent_chart(x, ctx, inverse=True))
        with pytest.raises(DomainError) as got:
            plane_homeo(x, ctx, inverse)
        assert str(got.value) == (
            f"plane point ({x[0]}, {x[1]}) out of reach at 53 bits: the chart preimage "
            f"of its {'inverse' if inverse else 'forward'} image rounds onto the square's edge"
        )
        # the other direction is in reach
        assert all(abs(v) > 1 for v in plane_homeo(x, ctx, not inverse))


def test_lifted_orbits_of_far_plane_images_name_the_plane_point():
    # the lift's steps end in the tangent chart as plane_homeo's does, and
    # name the seed, the step and the precision, not the edge point
    ctx = make_context(53)
    for x, inverse in FAR_IMAGES:
        with pytest.raises(DomainError) as want:
            plane_homeo(x, ctx, inverse)
        sign = -1 if inverse else 1
        with pytest.raises(DomainError) as got:
            lifted_core(x, tuple(sorted((0, sign))), ctx)
        # steps 1 and -1 are the forward and the inverse image
        assert str(got.value) == str(want.value)
        with pytest.raises(DomainError) as got:
            lifted_core(x, tuple(sorted((0, 2 * sign))), ctx)
        # kept steps are pushed in order: the first that fails is step 1
        # forward and step -2 backward
        image = "step -2" if inverse else "forward"
        assert str(got.value) == (
            f"plane point ({x[0]}, {x[1]}) out of reach at 53 bits: the chart preimage of its "
            f"{image} image rounds onto the square's edge"
        )


def _outcome(step, x):
    """A step's image as exact bits, or its error's type and text."""
    try:
        return [_bits(v) for v in step(x)]
    except DomainError as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize("prec", [None, 53, 256], ids=["fp", "53", "256"])
def test_scan_step_is_plane_homeo_bit_for_bit(prec):
    # the scans bind plane_homeo's step once, with the chart table: on
    # points already typed in the context it is the public map bit for bit,
    # its errors included.  The points: cell centers of plane_scan-sized
    # grids, a criterion-09 disk sample, ray points, seeds whose preimage
    # rounds onto a slit, a far preimage and far images
    ctx = _context(prec)
    rng = random.Random(3)
    points = []
    for _ in range(4):
        x0, y0 = rng.uniform(-3.0, 2.5), rng.uniform(-3.0, 2.5)
        points += [(x0 + (2 * i + 1) / 40, y0 + (2 * j + 1) / 40) for i in range(10) for j in range(10)]
    while len(points) < 600:
        x = (rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0))
        if math.hypot(*x) <= 100.0:
            points.append(x)
    below = 0.9999999999999999
    points += [(2.0, 0.0), (-1.0, 0.0), (1.0, -0.0), (below, 0.0), (-below, 0.0), (1e100, 2.0)]
    points += [x for x, _ in FAR_IMAGES]
    typed = [(to_bigfloat(a, ctx), to_bigfloat(b, ctx)) for a, b in points]
    kinds = collections.Counter()
    for inverse in (False, True):
        step = plane_map._scan_step(ctx, inverse)
        for x in typed:
            got = _outcome(step, x)
            assert got == _outcome(lambda p: plane_homeo(p, ctx, inverse), x), (x, inverse)
            if on_ray(x):
                kinds["ray"] += 1
            elif type(got) is tuple:
                kinds["image" if "preimage of its" in got[1] else "preimage"] += 1
            elif _pinned(*tangent_chart(x, ctx, inverse=True)):
                kinds["slit"] += 1
    if prec is None:  # on doubles the slit seeds and far images follow libm
        kinds = {k: kinds[k] for k in ("ray", "preimage")}
    # at 256 bits neither the slit seeds nor the far images round
    at_53 = {"slit": 4, "image": 2} if prec == 53 else {}
    assert kinds == {"ray": 6, "preimage": 2, **at_53}


def test_scan_looks_the_table_up_at_the_scan_precision():
    # the table is looked up per scan, not kept on the registry: a context
    # whose precision changes between two scans scans at the new one.  The
    # one cell center is FAR_IMAGES' first point, out of reach at 53 bits
    ctx = make_context(53)
    h = map_registry(ctx)["h"]
    region = ((-52.53, -50.53), (1.657e15 - 1, 1.657e15 + 1))
    with pytest.raises(DomainError, match="out of reach at 53 bits"):
        displacement_scan(h, region, (1, 1), ctx)
    ctx.prec = 128
    fresh = make_context(128)
    want = displacement_scan(map_registry(fresh)["h"], region, (1, 1), fresh)
    assert displacement_scan(h, region, (1, 1), ctx) == want


@pytest.mark.parametrize("prec", [None, 53, 128, 256], ids=["fp", "53", "128", "256"])
def test_seeds_rounding_onto_a_slit_step_as_plane_homeo_does(prec):
    # (+-(1 - 2^-prec), 0) lie off the rays, but their chart preimage rounds
    # onto a slit end, where the quotient map reflects: the lifted orbit
    # takes that rule too (no lift, alternating), where it used to raise
    ctx = _context(prec)
    one = ctx.mpf(1)
    below = one - ctx.ldexp(one, -ctx.prec)
    h = map_registry(ctx)["h"]
    for x in ((below, 0 * one), (-below, 0 * one)):
        q = tangent_chart(x, ctx, inverse=True)
        assert _pinned(*q) and not on_ray(x)
        core = lifted_core(x, (-3, 3), ctx)
        assert [(n, w) for n, w, _ in core] == [(n, None) for n in range(-3, 4)]
        ys = [[_bits(v) for v in y] for _, _, y in core]
        assert ys[0] == ys[2] == ys[4] == ys[6] and ys[1] == ys[3] == ys[5] != ys[0]
        assert ys[3] == [_bits(v) for v in tangent_chart(q, ctx)]
        assert ys[4] == [_bits(v) for v in plane_homeo(x, ctx)]
        assert ys[2] == [_bits(v) for v in plane_homeo(x, ctx, inverse=True)]
        assert [p for _, p in orbit(h, x, (-3, 3)).entries] == [y for _, _, y in core]
        assert limit_estimate(h, x, "omega", DEFAULT_TOLERANCES).converged
        cert = boundedness_certificate(x, (-300, 300), ctx, DEFAULT_TOLERANCES)
        assert cert.passed and cert.evidence["trivial"] and cert.evidence["period"] == 2


def test_plane_path_looks_up_the_chart_table_once(monkeypatch):
    # one look-up per public entry, per plane_homeo step and per lifted_core
    # call, counted through the name each module binds
    ctx = make_context(256)
    calls = []
    real = collapse_map._consts

    def counted(c):
        calls.append(c)
        return real(c)

    for module in (collapse_map, plane_map):
        monkeypatch.setattr(module, "_consts", counted)
    p = (ctx.mpf(2), ctx.mpf(7))
    q = (to_bigfloat(Fraction(1, 3), ctx), to_bigfloat(Fraction(-1, 5), ctx))
    for entry in (lambda: tangent_chart(q, ctx), lambda: tangent_chart(p, ctx, inverse=True),
                  lambda: quotient_square_map(q, ctx), lambda: quotient_square_map(q, ctx, True),
                  lambda: plane_homeo(p, ctx), lambda: plane_homeo(p, ctx, inverse=True),
                  lambda: lifted_core(p, (-4, 6), ctx), lambda: lifted_core(p, (3, 5), ctx)):
        calls.clear()
        entry()
        assert calls == [ctx]
    calls.clear()
    for _ in range(5):
        p = plane_homeo(p, ctx)
    assert calls == [ctx] * 5


@pytest.mark.parametrize("prec", [256, None], ids=["256", "fp"])
def test_nan_coordinates_raise_domain_errors(prec):
    # each range check is a negated in-range test, so NaN fails it; the
    # inverse tangent chart is defined on the whole plane and passes NaN on
    ctx = _context(prec)
    nan, half = ctx.mpf("nan"), ctx.mpf("0.5")
    for x in ((nan, half), (half, nan), (nan, 0 * half), (float("nan"), 0.25)):
        with pytest.raises(DomainError, match="outside the open square"):
            tangent_chart(x, ctx)
        for inverse in (False, True):
            with pytest.raises(DomainError, match="outside the square"):
                quotient_square_map(x, ctx, inverse)
            with pytest.raises(DomainError, match="outside the square"):
                plane_homeo(x, ctx, inverse)
        with pytest.raises(DomainError, match="outside the open square"):
            lifted_core(x, (0, 2), ctx)


@pytest.mark.parametrize("prec", [256, None], ids=["256", "fp"])
def test_infinite_abscissas_raise_domain_errors(prec):
    # an infinite abscissa with y = 0 is not on a ray: it is no plane point
    ctx = _context(prec)
    inf = math.inf
    for x in ((inf, 0), (-inf, 0.0), (ctx.mpf("inf"), ctx.mpf(0)), (ctx.mpf("-inf"), 0)):
        with pytest.raises(DomainError, match="not in the plane"):
            on_ray(x)
        for inverse in (False, True):
            with pytest.raises(DomainError, match="not in the plane"):
                plane_homeo(x, ctx, inverse)
        with pytest.raises(DomainError, match="not in the plane"):
            lifted_core(x, (0, 2), ctx)
    # finite ray points still alternate exactly
    assert [y for _, _, y in lifted_core((1e300, 0.0), (0, 2), ctx)] == [
        (1e300, 0.0), (-1e300, 0.0), (1e300, 0.0)
    ]


def test_lifted_core_tests_the_ray_once_per_call(monkeypatch):
    # the ray test runs on the seed, not on each step
    ctx = make_context(256)
    calls = []
    real = plane_map.on_ray
    monkeypatch.setattr(plane_map, "on_ray", lambda x: calls.append(x) or real(x))
    lifted_core((ctx.mpf(2), ctx.mpf(7)), (-20, 20), ctx)
    lifted_core((ctx.mpf(5), ctx.mpf(0)), (-20, 20), ctx)
    assert len(calls) == 2


# sha256 of lifted_core's exact lifts, as "n numerator denominator" lines
# in hex, for the plane image of (-3/5, -1/2) over steps -100..100 at 256
# bits.  The backward lifts reach denominators of 2^24800 times an odd
# part of some 280 bits; the digest was first taken before the exact core
# split powers of two off its gcds and conversions.  It was taken again
# when the collapse's cone became one closed form per wall, which moved
# the seed's plane image by a few units of 2^-256 (from 3.97 to 1.03 units
# off a 1024-bit evaluation), and again when the exact entry converted the
# edge offset and the charts and the cone handed on angle offsets, which
# moved its height by one rounding (0.01 to 0.51 units off 1024 bits; the
# abscissa stays 1.03 units off).
WALL_SEED_LIFTS_SHA256 = "ccf9e4e7e2a30193f4f624cab2471cf4034ca21de5cd6e7890e2fadf73df4c1e"


def test_wall_seed_lifts_are_pinned():
    ctx = make_context(256)
    x = tangent_chart(collapse((Fraction(-3, 5), Fraction(-1, 2)), ctx), ctx)
    digest = hashlib.sha256()
    core = lifted_core(x, (-100, 100), ctx)
    assert [n for n, _, _ in core] == list(range(-100, 101))
    for n, w, _ in core:
        for v in w:
            digest.update(f"{n} {v.numerator:x} {v.denominator:x}\n".encode())
    assert digest.hexdigest() == WALL_SEED_LIFTS_SHA256


# sha256 of lifted_core's plane points over steps -100..-75 and 75..100, as
# "n sign mantissa exponent bitcount" lines per coordinate (the mantissa in
# hex, so that the digest does not depend on mpmath's backend), for the
# plane images of a generic seed and of the strip-wall seed.  These orbits
# close in on the slit endpoints, where the chart table's tangents take
# their fast magnitude band at every precision here and the edge chart's
# arctangents theirs at 64 to 256 bits; the reports round their evidence
# to 9 digits and would not see a last-bit change.  At 64 and 128 bits
# both tails have reached (+-1, 0) exactly, so their digests agree.
TAIL_POINTS_SHA256 = {
    ("generic", 64): "d05f9319649a92413d2f612fe84c9ad7ef4572fea87c4fd2121d1206521b9adc",
    ("wall", 64): "767379b0d6adde5165a9f2cf8d16273c76b8d03dea044dc0959fb09a50ee5fa5",
    ("generic", 128): "d05f9319649a92413d2f612fe84c9ad7ef4572fea87c4fd2121d1206521b9adc",
    ("wall", 128): "767379b0d6adde5165a9f2cf8d16273c76b8d03dea044dc0959fb09a50ee5fa5",
    ("generic", 200): "86efaf403c5cb1483fb0457dd7052b6816dba0d42d350191936ae2c88a04289f",
    ("wall", 200): "6ece5177ff67a7e79e8e16b95b56614206af33b785e1e5acf963fedc551cbd6d",
    ("generic", 256): "6f4881f390fff972c137e0c9992737af9e0a0faa6392bc5060bb0ea97ac7face",
    ("wall", 256): "987c62775d107bec08c3445e9818e2de62b4dcc44f24b752d4ad837fc6c2f03e",
    ("generic", 512): "819704784ec90053c466221fe3eaa402079000160301227831a4eaf5a68f474e",
    ("wall", 512): "780b193008765b9105a3c8c22695b0977766083b2f191ce376184230df96987d",
}
TAIL_SEEDS = {"generic": (Fraction(1, 3), Fraction(1, 5)), "wall": (Fraction(-3, 5), Fraction(-1, 2))}


@pytest.mark.parametrize("seed, prec", list(TAIL_POINTS_SHA256), ids=[f"{s}-{p}" for s, p in TAIL_POINTS_SHA256])
def test_lifted_tail_points_are_pinned(seed, prec):
    ctx = make_context(prec)
    x = tangent_chart(collapse(TAIL_SEEDS[seed], ctx), ctx)
    digest = hashlib.sha256()
    for n, _, y in lifted_core(x, (-100, 100), ctx):
        if abs(n) >= 75:
            for v in y:
                sign, man, exp, bc = v._mpf_
                digest.update(f"{n} {sign} {int(man):x} {exp} {bc}\n".encode())
    assert digest.hexdigest() == TAIL_POINTS_SHA256[seed, prec]


def test_plane_step_takes_the_narrow_blend_row(monkeypatch):
    # the plane scan's points are doubles, so each step's lift is a narrow
    # pair and a blend row is one fraction, never the wide route's _product
    # and _sum.  The exact lifts of the strip-wall seed's plane image grow
    # wide pairs and still take that route (f's own orbit of the seed stays
    # below 2^512)
    counts = {}

    def count(owner, name):
        real = getattr(owner, name)
        counts[name] = 0

        def counted(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((square_map, "_product"), (square_map, "_sum"),
                        (square_map._BlendZone, "value"), (square_map._BlendZone, "preimage")):
        count(owner, name)
    # a 0.5-wide square of plane_scan's grid whose steps land on blend zones
    for inverse in (False, True):
        for i in range(5):
            for j in range(5):
                plane_homeo((0.25 + i / 8, 5.0 + j / 8), mpmath.fp, inverse)
    assert counts["value"] > 0 and counts["preimage"] > 0
    assert counts["_product"] == counts["_sum"] == 0
    ctx = make_context(256)
    lifted_core(tangent_chart(collapse((Fraction(-3, 5), Fraction(-1, 2)), ctx), ctx), (-100, 100), ctx)
    assert counts["_product"] > 0 and counts["_sum"] > 0


# log2 of the worst forward error of plane_homeo over 50 samples per band,
# in units of 2^-p relative to 1 + |h(x)|, against p + 256 bits, as
# measured before the collapse's cone became one closed form per wall,
# plus 2 bits.  A "d" band samples heights d * [1/2, 1] of either sign
# next to the rays, with 1 <= |x| <= 50; "generic" samples [-5, 5]^2.  The
# bits lost near the rays are not the cone's: the height of the chart
# preimage lands in a narrow blend zone of f (ROADMAP item 9)
NEAR_RAY_BOUNDS = {
    53: {"generic": 9.59, 1e-3: 17.30, 1e-6: 26.82, 1e-9: 34.70},
    256: {"generic": 9.54, 1e-3: 16.99, 1e-6: 25.24, 1e-9: 36.04},
}


@pytest.mark.parametrize("prec", sorted(NEAR_RAY_BOUNDS))
def test_forward_error_near_the_rays_stays_measured(prec):
    # a guard, not a fix: h loses bits as a point nears a ray, and this
    # pins the loss at what it was measured to be
    ctx, fine = make_context(prec), make_context(prec + 256)
    for band, bound in NEAR_RAY_BOUNDS[prec].items():
        rng = random.Random(f"near-ray {band}")
        worst = 0
        for _ in range(50):
            if band == "generic":
                x = (rng.uniform(-5, 5), rng.uniform(-5, 5))
            else:
                x = (rng.uniform(1, 50) * rng.choice((1, -1)),
                     band * rng.uniform(0.5, 1) * rng.choice((1, -1)))
            y, ref = plane_homeo(x, ctx), plane_homeo(x, fine)
            err = max(abs(fine.mpf(y[i]) - ref[i]) for i in (0, 1)) / (1 + max(abs(ref[0]), abs(ref[1])))
            worst = max(worst, err)
        assert worst <= fine.ldexp(2 ** bound, -prec), (band, float(fine.log(worst, 2)) + prec)
