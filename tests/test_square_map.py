"""The square self-map: exact values, seams, symmetry, and structure.

Everything here is exact rational arithmetic; equality assertions are
literal, not toleranced.
"""

import bisect
import functools
import random
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from planardyn import square_map
from planardyn.dynamics import _rand_fraction, displacement_scan, map_registry
from planardyn.numerics import IDENTITY_PL, DomainError, PLFunction
from planardyn.square_map import (
    NAMED_POINTS,
    RegionTag,
    as_square_point,
    descend_map,
    line_rule,
    reflect,
    region_of,
    rise_map,
    row_map,
    shear_profile,
    square_homeo,
    strip_shear,
    vertical_shift,
)
from planardyn.strips import SHIFT_PROFILE, Zone, strip_bounds, strip_locate

coords = st.fractions(min_value=Fraction(-1), max_value=Fraction(1), max_denominator=128)
points = st.tuples(coords, coords)


class TestFrozenValues:
    def test_forward_examples(self):
        assert square_homeo((Fraction(0), Fraction(0))) == (Fraction(0), Fraction(1, 2))
        assert square_homeo((Fraction(0), Fraction(-3, 4))) == (
            Fraction(0),
            Fraction(-1, 2),
        )
        assert square_homeo((Fraction(3, 5), Fraction(1))) == (
            Fraction(-3, 5),
            Fraction(1),
        )
        assert square_homeo((Fraction(0), Fraction(1, 2))) == (
            Fraction(0),
            Fraction(3, 4),
        )

    def test_inverse_examples(self):
        assert square_homeo((Fraction(0), Fraction(1, 2)), inverse=True) == (
            Fraction(0),
            Fraction(0),
        )

    def test_rising_example(self):
        assert rise_map((Fraction(1, 4), Fraction(1, 4))) == (
            Fraction(-1, 4),
            Fraction(5, 8),
        )

    def test_descending_examples(self):
        assert descend_map((Fraction(0), Fraction(-1, 4))) == (
            Fraction(0),
            Fraction(-5, 8),
        )
        assert descend_map((Fraction(1), Fraction(-1))) == (Fraction(-1), Fraction(-1))

    def test_shear_examples(self):
        assert strip_shear((Fraction(0), Fraction(13, 16))) == (
            Fraction(2, 3),
            Fraction(13, 16),
        )
        # points on a blend-zone floor follow the previous level's rule
        assert strip_shear((Fraction(1, 4), Fraction(29, 32))) == (
            Fraction(1, 4),
            Fraction(29, 32),
        )


class TestRegions:
    def test_forward_tags(self):
        assert region_of(Fraction(0)) is RegionTag.R0
        assert region_of(Fraction(-1, 4)) is RegionTag.D_MINUS_1
        assert region_of(Fraction(-3, 4)) is RegionTag.R_MINUS_2

    def test_inverse_tags(self):
        assert region_of(Fraction(3, 4), inverse=True) is RegionTag.R1
        assert region_of(Fraction(1, 4), inverse=True) is RegionTag.D0
        assert region_of(Fraction(-1, 4), inverse=True) is RegionTag.R_MINUS_1


class TestNamedPoints:
    def test_corner_coordinates(self):
        assert NAMED_POINTS["v1"] == (Fraction(-1), Fraction(1))
        assert NAMED_POINTS["v4"] == (Fraction(1), Fraction(-1))
        assert NAMED_POINTS["v0"] == (Fraction(1, 2), Fraction(0))
        assert NAMED_POINTS["v9"] == (Fraction(-1, 2), Fraction(0))

    def test_edge_midpoints_alias(self):
        assert NAMED_POINTS["w1"] == NAMED_POINTS["v5"]
        assert NAMED_POINTS["w2"] == NAMED_POINTS["v6"]

    def test_all_named_points_are_in_the_square(self):
        for p in NAMED_POINTS.values():
            assert as_square_point(p) == p


class TestShearProfiles:
    def test_block_one_is_a_tent(self):
        assert shear_profile(1) == PLFunction(
            [(-1, -1), (Fraction(-1, 2), Fraction(1, 2)), (1, 1)]
        )
        assert shear_profile(1)(Fraction(0)) == Fraction(2, 3)
        assert shear_profile(1)(Fraction(-1, 2)) == Fraction(1, 2)

    def test_block_two_profile(self):
        assert shear_profile(2) == PLFunction(
            [(-1, -1), (Fraction(-3, 4), 0), (0, Fraction(3, 4)), (1, 1)]
        )

    def test_middle_segment_translates(self):
        # n passes of block n carry the left shear bound to the right one
        for n in (2, 3, 5):
            b = Fraction(2**n - 1, 2**n)
            x = -b
            for _ in range(n):
                x = shear_profile(n)(x)
            assert x == b

    def test_line_rule_parity(self):
        assert line_rule(1) == IDENTITY_PL
        assert line_rule(3) == IDENTITY_PL
        assert line_rule(2) == shear_profile(1)
        assert line_rule(4) == shear_profile(1)
        assert line_rule(6) == shear_profile(2)

    def test_row_map_identity_on_core(self):
        assert row_map(Fraction(5, 8)) == IDENTITY_PL
        assert row_map(Fraction(1)) == IDENTITY_PL


class TestBoundary:
    def test_top_edge_reflects(self):
        for k in range(-4, 5):
            r = Fraction(k, 4)
            assert square_homeo((r, Fraction(1))) == (-r, Fraction(1))

    def test_horizontal_edges_two_periodic(self):
        for s in (Fraction(1), Fraction(-1)):
            p = (Fraction(3, 5), s)
            assert square_homeo(square_homeo(p)) == p

    def test_boundary_rule_everywhere(self):
        for k in range(9):
            t = Fraction(k, 4) - 1
            for p in ((t, Fraction(1)), (t, Fraction(-1)), (Fraction(1), t), (Fraction(-1), t)):
                assert square_homeo(p) == reflect(vertical_shift(p), "level")


class TestDomains:
    def test_outside_square_rejected(self):
        with pytest.raises(DomainError):
            square_homeo((Fraction(2), Fraction(0)))

    def test_rising_needs_nonnegative_height(self):
        with pytest.raises(DomainError):
            rise_map((Fraction(0), Fraction(-1, 4)))

    def test_descending_needs_lower_quarter(self):
        with pytest.raises(DomainError):
            descend_map((Fraction(0), Fraction(-1, 4)), inverse=True)

    def test_unknown_reflection_axis(self):
        with pytest.raises(DomainError):
            reflect((Fraction(0), Fraction(0)), "diagonal")


@given(points)
def test_roundtrip_exact(p):
    assert square_homeo(square_homeo(p), inverse=True) == p
    assert square_homeo(square_homeo(p, inverse=True)) == p


@given(points)
def test_reversal_symmetry(p):
    lhs = square_homeo(p, inverse=True)
    rhs = reflect(square_homeo(reflect(p, "vertical")), "vertical")
    assert lhs == rhs


@given(points)
@settings(deadline=None)
def test_heights_follow_the_shift_profile(p):
    # holds on every branch: the profile equals its own vertical-flip inverse
    assert square_homeo(p)[1] == SHIFT_PROFILE(p[1])


def test_profile_flip_symmetry():
    # the identity behind the global height law and the time reversal
    for k in range(-8, 9):
        s = Fraction(k, 8)
        assert SHIFT_PROFILE(s) == -SHIFT_PROFILE.inverse(-s)


@given(coords)
def test_vertical_shift_fixes_r(r):
    assert vertical_shift((r, Fraction(0)))[0] == r


@given(st.fractions(min_value=Fraction(1, 2), max_value=Fraction(1), max_denominator=128), coords)
def test_strip_shear_fixes_heights(s, r):
    assert strip_shear((r, s))[1] == s


# ~9000-bit odd denominators: the size of the coordinates that a lift from
# the plane back onto a strip wall produces
BIG = 2**9000


def _unit(small: bool):
    """Fractions in [0, 1): denominators up to 2^20, or ~9000-bit odd ones."""
    if small:
        return st.fractions(min_value=0, max_value=1, max_denominator=2**20).filter(
            lambda u: u < 1
        )
    return st.integers(BIG, 2 * BIG).flatmap(
        lambda d: st.integers(0, d | 1).map(lambda n: Fraction(n, d | 1))
    ).filter(lambda u: u < 1)


@st.composite
def band_points(draw):
    """(r, s, level, zone): s in the blend zone [lo, mid) or the shear zone
    [mid, hi) of a level 2..60; r in [-1, 1]; each coordinate small or ~9000
    bits.  A level's blend-row coefficients grow with the level."""
    level = draw(st.integers(2, 60))
    zone = draw(st.sampled_from((Zone.F_ZONE, Zone.B_ZONE)))
    lo, mid, hi = strip_bounds(level)
    a, b = (lo, mid) if zone is Zone.F_ZONE else (mid, hi)
    s = a + (b - a) * draw(_unit(draw(st.booleans())))
    assume(s != Fraction(3, 4))  # the floor of level 2 closes the core band
    r = 2 * draw(_unit(draw(st.booleans()))) - 1
    return r, s, level, zone


@given(band_points())
@settings(deadline=None, max_examples=150)
def test_strip_shear_equals_the_built_row(point):
    # the pointwise route against the reference: row_map builds the row as
    # a PLFunction (PLFunction.blend on a blend zone) and evaluates it
    r, s, level, zone = point
    where = strip_locate(s)
    assert (where.level, where.zone) == (level, zone)
    row = row_map(s)
    assert strip_shear((r, s)) == (row(r), s)
    assert strip_shear((r, s), inverse=True) == (row.inverse(r), s)


def _lowest_terms(x) -> bool:
    return type(x) is Fraction and x.denominator > 0 and gcd(x.numerator, x.denominator) == 1


@given(band_points())
@settings(deadline=None, max_examples=60)
def test_exact_maps_return_lowest_terms(point):
    # the pair kernel builds its Fractions without normalising them; an
    # unreduced one would compare unequal to the same value in lowest terms
    r, s, level, _ = point
    s0 = SHIFT_PROFILE.inverse(s)  # rises onto the sampled zone
    outputs = [SHIFT_PROFILE(s), s0, line_rule(level)(r), line_rule(level).inverse(r)]
    for inverse in (False, True):
        outputs += strip_shear((r, s), inverse)
        outputs += rise_map((r, s if inverse else s0), inverse)
        outputs += descend_map((r, -s if inverse else -s0), inverse)
        # every region of both directions: R0 / R1 ... R_MINUS_2 / R_MINUS_1
        for h in (s, s0, 1 - s, s - 1, -s, -s0):
            outputs += square_homeo((r, h), inverse)
    assert all(_lowest_terms(x) for x in outputs)


def _wide_unit():
    """Fractions in [0, 1) with denominator 2^k o, k up to 25000 and o odd
    up to 2^12: the shape of a strip-wall lift, whose denominators reach
    2^24700 times a small odd part (``band_points``' big denominators are
    odd, so they never have a power of two to split off)."""
    return st.tuples(st.integers(0, 25000), st.integers(0, 2**11)).flatmap(
        lambda ko: st.integers(0, ((2 * ko[1] + 1) << ko[0]) - 1).map(
            lambda n: Fraction(n, (2 * ko[1] + 1) << ko[0])
        )
    )


@st.composite
def wide_band_points(draw):
    """(r, s, level, zone) as ``band_points``, with r and s each wide
    dyadic or small."""
    level = draw(st.integers(2, 60))
    zone = draw(st.sampled_from((Zone.F_ZONE, Zone.B_ZONE)))
    lo, mid, hi = strip_bounds(level)
    a, b = (lo, mid) if zone is Zone.F_ZONE else (mid, hi)
    s = a + (b - a) * draw(_wide_unit() if draw(st.booleans()) else _unit(True))
    assume(s != Fraction(3, 4))
    r = 2 * draw(_wide_unit() if draw(st.booleans()) else _unit(True)) - 1
    return r, s, level, zone


@given(wide_band_points())
@settings(deadline=None, max_examples=60)
def test_wide_dyadic_points_follow_the_built_row(point):
    # the pair kernel splits powers of two off its gcds; the row built as a
    # PLFunction reduces the plain way, and both land in lowest terms
    r, s, level, zone = point
    assert (strip_locate(s).level, strip_locate(s).zone) == (level, zone)
    row = row_map(s)
    s0 = SHIFT_PROFILE.inverse(s)  # rises onto the sampled zone
    expected = {
        "shear": (row(r), s),
        "shear_inverse": (row.inverse(r), s),
        "rise": (row(-r), s),
        "rise_inverse": (-row.inverse(r), s0),
        "descend_inverse": (row(-r), -s),  # the vertical-flip mirror
        "descend": (-row.inverse(r), -s0),
    }
    got = {
        "shear": strip_shear((r, s)),
        "shear_inverse": strip_shear((r, s), inverse=True),
        "rise": square_homeo((r, s0)),
        "rise_inverse": square_homeo((r, s), inverse=True),
        "descend_inverse": square_homeo((r, -s0), inverse=True),
        "descend": square_homeo((r, -s)),
    }
    assert got == expected
    assert all(_lowest_terms(x) for p in got.values() for x in p)


@st.composite
def wide_pairs(draw):
    """A rational in lowest terms as (n, d): d = 2^k o, k up to 25000 and
    o odd, with o up to 2^12 or up to 300 bits; n signed, zero included."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    odd = rng.getrandbits(draw(st.sampled_from((12, 300)))) | 1
    d = odd << draw(st.integers(0, 25000))
    x = Fraction(rng.randrange(-2 * d, 2 * d + 1), d)
    return x.numerator, x.denominator


@given(wide_pairs(), wide_pairs())
@settings(deadline=None, max_examples=200)
# both denominators narrow, sharing a factor
@example((5, 12), (-3, 8))
# the 512-bit plane suite's blend rows: a double's abscissa meets the
# coefficients at a height over 2^600 times a small odd number
@example((-3, 1 << 52), (7919, 3 << 600))
def test_sum_and_product_match_fraction(a, b):
    for x, y in ((a, b), (a, a), (a, (-a[0], a[1])), (b, (1, 1))):
        for op, kernel in ((Fraction.__add__, square_map._sum),
                           (Fraction.__mul__, square_map._product)):
            want = op(Fraction(*x), Fraction(*y))
            assert kernel(*x, *y) == (want.numerator, want.denominator)


def _blend_unit(draw):
    """A rational in [0, 1) drawn from one of three sources: the exact
    ratio of a double (the plane scan's lifts), p/999983, or ``wide_pairs``."""
    source = draw(st.sampled_from(("double", "prime", "wide")))
    if source == "double":
        return Fraction(draw(st.floats(0, 1, exclude_max=True)))
    if source == "prime":
        return Fraction(draw(st.integers(0, 999982)), 999983)
    return abs(Fraction(*draw(wide_pairs()))) % 1


@st.composite
def blend_rows(draw):
    """(level, r, s): s over level's blend zone [lo, mid), its floor lo
    included, and r in [-1, 1], each from ``_blend_unit``'s sources."""
    level = draw(st.integers(2, 40))
    lo, mid, _ = strip_bounds(level)
    s = lo if draw(st.booleans()) else lo + (mid - lo) * _blend_unit(draw)
    assume(s != Fraction(3, 4))  # the floor of level 2 closes the core band
    r = 2 * _blend_unit(draw) - 1
    return level, r, s


@given(blend_rows())
@settings(deadline=None, max_examples=400)
# each example runs value and preimage; narrow: a double's abscissa at a
# height over 32 * 999983
@example((3, Fraction(0.3), Fraction(7, 8) + Fraction(123457, 32 * 999983)))
# wide: a double's abscissa at a height over 2^604 times 3, the 512-bit
# plane suite's shape
@example((2, Fraction(-3, 1 << 52), Fraction(3, 4) + Fraction(7919, 3 << 604)))
# wide: a strip-wall lift, both denominators past 2^700 (the abscissa's
# stays below 2^14000, whose decimal digits hypothesis's repr can print)
@example((2, Fraction((3 << 12000) + 12345, 7 << 12000), Fraction((13 << 700) - 1, 16 << 700)))
def test_blend_rows_match_fraction(row):
    # a blend row on its piece is slope(s)*r + intercept(s), and its inverse
    # (r - intercept(s))/slope(s), each coefficient affine in s
    level, r, s = row
    zone = square_map._level_zone(level)
    args = (r.numerator, r.denominator, s.numerator, s.denominator)
    for inverse, evaluate in ((False, zone.value), (True, zone.preimage)):
        a1, e1, a2, e2, d = zone.pieces[zone.piece(*args, inverse)]
        slope, intercept = (
            Fraction(a * s.numerator + e * s.denominator, d * s.denominator)
            for a, e in ((a1, e1), (a2, e2))
        )
        want = (r - intercept) / slope if inverse else slope * r + intercept
        n, d = evaluate(*args)
        assert (n, d) == (want.numerator, want.denominator)
        assert d > 0 and gcd(n, d) == 1


def _counting(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


# one point of every region of both directions; the rising ones land on (or
# start from) a blend zone, a shear zone and the core band
REGION_POINTS = {
    False: {
        RegionTag.R0: [(Fraction(1, 3), Fraction(5, 8)), (Fraction(-2, 7), Fraction(3, 4)),
                       (Fraction(1, 3), Fraction(9, 16)), (Fraction(1, 5), Fraction(1, 8))],
        RegionTag.D_MINUS_1: [(Fraction(1, 3), Fraction(-1, 4))],
        RegionTag.R_MINUS_2: [(Fraction(1, 3), Fraction(-27, 32)),
                              (Fraction(-5, 9), Fraction(-7, 8))],
    },
    True: {
        RegionTag.R1: [(Fraction(1, 3), Fraction(27, 32)), (Fraction(-5, 9), Fraction(7, 8)),
                       (Fraction(1, 3), Fraction(25, 32)), (Fraction(1, 5), Fraction(9, 16))],
        RegionTag.D0: [(Fraction(1, 3), Fraction(1, 4))],
        RegionTag.R_MINUS_1: [(Fraction(1, 3), Fraction(-5, 8)),
                              (Fraction(-2, 7), Fraction(-3, 4))],
    },
}


@pytest.mark.parametrize("inverse", [False, True])
def test_square_homeo_validates_its_point_once(monkeypatch, inverse):
    for tag, pts in REGION_POINTS[inverse].items():
        for p in pts:
            assert region_of(p[1], inverse=inverse) is tag
            expected = square_homeo(p, inverse=inverse)
            calls = _counting(monkeypatch, square_map, "as_square_point")
            assert square_homeo(p, inverse=inverse) == expected
            assert len(calls) == 1, (tag, p)
            monkeypatch.undo()


def _rise_reference(p, inverse: bool):
    """The rising map (or its inverse) on the PL route: shift the line up,
    reflect across the vertical axis, then shear with the built row."""
    r, s = p
    if inverse:
        return reflect((row_map(s).inverse(r), SHIFT_PROFILE.inverse(s)), "level")
    r, s = reflect((r, SHIFT_PROFILE(s)), "level")
    return (row_map(s)(r), s)


def _six_region_homeo(p, inverse: bool = False):
    """f (or its inverse) by the paper's piecewise definition, three regions
    per direction, as ``region_of`` names them: the rising map on R0 and R1,
    the reflected shift on D_MINUS_1 and D0, and on R_MINUS_2 and R_MINUS_1
    the descending map, the rising map's vertical-flip conjugate, run the
    other way."""
    tag = region_of(p[1], inverse)
    if tag in (RegionTag.R0, RegionTag.R1):
        return _rise_reference(p, inverse)
    if tag in (RegionTag.D_MINUS_1, RegionTag.D0):
        r, s = p
        return reflect((r, SHIFT_PROFILE.inverse(s) if inverse else SHIFT_PROFILE(s)), "level")
    return reflect(_rise_reference(reflect(p, "vertical"), not inverse), "vertical")


def _seam_heights():
    """The heights where a region or a row changes: 0, +-1/2, +-1, and the
    strip floors and split heights of levels 2..16 above and below the
    axis, with the heights the shift lifts onto them."""
    heights = {Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-1)}
    for i in range(2, 17):
        lo, mid, _ = strip_bounds(i)
        for h in (lo, mid):
            heights |= {h, -h, 2 * h - 1, 1 - 2 * h}
    return sorted(heights)


@pytest.mark.parametrize("inverse", [False, True])
def test_square_homeo_is_the_six_region_definition(inverse):
    rng = random.Random(23)
    points = [(_rand_fraction(rng, -1, 1), _rand_fraction(rng, -1, 1)) for _ in range(1500)]
    for s in _seam_heights():
        abscissas = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 3)]
        points += [(r, s) for r in abscissas + [_rand_fraction(rng, -1, 1) for _ in range(4)]]
    for p in points:
        assert square_homeo(p, inverse) == _six_region_homeo(p, inverse), p


@pytest.mark.parametrize("inverse", [False, True])
def test_row_is_the_identity_up_to_three_quarters(inverse):
    # f's step at a height whose row lies at or below 3/4 is the reflected
    # shift, so the rising map serves the band below the axis too
    rng = random.Random(24)
    heights = [Fraction(0), Fraction(1, 2), Fraction(3, 4)]
    heights += [_rand_fraction(rng, 0, Fraction(3, 4)) for _ in range(500)]
    for s in heights:
        r = _rand_fraction(rng, -1, 1)
        args = (r.numerator, r.denominator, s.numerator, s.denominator, inverse)
        assert square_map._row(*args) == (r.numerator, r.denominator), s


def _row_at_reference(s: Fraction) -> tuple:
    """``_row_at`` at a height s <= 1 as the strip tables state it: the
    level whose [lo, hi) holds s, found by walking ``strip_bounds``, and
    its ``line_rule`` at or above mid, its ``_level_zone`` below."""
    if s <= Fraction(3, 4):
        return 1, None
    if s == 1:
        return None, None
    i = 2
    while s >= strip_bounds(i)[2]:
        i += 1
    return i, line_rule(i) if s >= strip_bounds(i)[1] else square_map._level_zone(i)


def _strip_seam_heights():
    """The floor and split height of levels 2..60, and three units either
    side of each: units of its own denominator and of 3 * 2^10 times it."""
    heights = set()
    for i in range(2, 61):
        for h in strip_bounds(i)[:2]:
            for q in (h.denominator, 3 * h.denominator << 10):
                heights |= {h + Fraction(j, q) for j in range(-3, 4)}
    return sorted(s for s in heights if s <= 1)


@pytest.mark.parametrize("inverse", [False, True])
def test_row_at_and_row_match_the_strip_tables_at_every_seam(inverse):
    # the row's dispatch, read off one cached record per level, picks the
    # same level and the same row object as the tables, and the row's
    # value is the chosen row's, bit for bit, at each floor and split
    # height of levels 2..60 and a few units either side
    for s in _strip_seam_heights():
        p, q = s.numerator, s.denominator
        level, row = square_map._row_at(p, q)
        want_level, want_row = _row_at_reference(s)
        assert level == want_level and row is want_row, s
        rule = line_rule(level) if level and level > 1 else IDENTITY_PL
        abscissas = {Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(-5, 7)}
        for x in rule.ys if inverse else rule.xs:
            abscissas |= {x, x + Fraction(1, 3 << 40), x - Fraction(1, 3 << 40)}
        for r in sorted(a for a in abscissas if -1 <= a <= 1):
            args = (r.numerator, r.denominator, p, q)
            if want_row is None:
                want = (r.numerator, r.denominator)
            elif want_row.__class__ is square_map._BlendZone:
                want = (want_row.preimage if inverse else want_row.value)(*args)
            else:
                y = want_row.inverse(r) if inverse else want_row(r)
                want = (y.numerator, y.denominator)
            assert square_map._row(*args, inverse) == want, (r, s)


def test_square_homeo_on_a_blend_zone_makes_no_fraction_arithmetic(monkeypatch):
    # the map runs on integer pairs and builds only its two output Fractions;
    # each point lands on (or starts from) the blend zone [3/4, 13/16) of
    # level 2, forward and inverse, above and below the axis
    cases = [((Fraction(1, 3), Fraction(9, 16)), False), ((Fraction(1, 3), Fraction(25, 32)), True),
             ((Fraction(-2, 7), Fraction(-25, 32)), False),
             ((Fraction(-2, 7), Fraction(-9, 16)), True)]
    assert strip_locate(Fraction(25, 32)).zone is Zone.F_ZONE
    expected = [square_homeo(p, inverse) for p, inverse in cases]  # fills the caches
    calls = {name: _counting(monkeypatch, Fraction, name)
             for name in ("__add__", "__sub__", "__mul__", "__truediv__")}
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6) and calls["__add__"]  # counts
    calls["__add__"].clear()
    assert [square_homeo(p, inverse) for p, inverse in cases] == expected
    assert all(not c for c in calls.values()), calls


def test_plane_scan_builds_no_blended_row(monkeypatch):
    # the displacement scan's points cross blend zones, whose rows are
    # evaluated pointwise, never built with PLFunction.blend
    calls = _counting(monkeypatch, PLFunction, "blend")
    h = map_registry(mpmath.fp)["h"]
    cert = displacement_scan(h, ((0.25, 0.75), (0.5, 1.0)), (20, 20), mpmath.fp)
    assert cert.passed
    assert calls == []


def _segment(xs, x) -> int:
    """The index of the PL piece holding x, by bisection over its breakpoints."""
    return min(bisect.bisect_right(xs, x) - 1, len(xs) - 2)


# a triangle's two lower corners share their row
_built_row = functools.lru_cache(maxsize=2)(row_map)


def _row_map_piece_key(p) -> tuple:
    """The forward piece key as the PL route reads it: the region, the
    built row (``row_map``) and the segments that hold the point."""
    r, s = p
    tag = region_of(s)
    if tag is RegionTag.R0:
        row = _built_row(SHIFT_PROFILE(s))
        return (tag, _segment(SHIFT_PROFILE.xs, s), row, _segment(row.xs, -r))
    if tag is RegionTag.D_MINUS_1:
        return (tag, _segment(SHIFT_PROFILE.xs, s))
    row = _built_row(-s)
    return (tag, row, _segment(row.ys, r), _segment(SHIFT_PROFILE.ys, -s))


LEG = Fraction(1, 2**20)  # the orientation probe's leg


def _straddles(key, corner) -> bool:
    r, s = corner
    return len({key(v) for v in ((r, s), (r + LEG, s), (r, s + LEG))}) > 1


def test_piece_key_straddles_as_the_row_map_key_on_random_triangles():
    rng = random.Random(20)
    lo, hi = -1 + 4 * LEG, 1 - 4 * LEG  # the probe's margin
    corners = [(_rand_fraction(rng, lo, hi), _rand_fraction(rng, lo, hi)) for _ in range(20_000)]
    new = [_straddles(square_map._forward_piece_key, c) for c in corners]
    assert new == [_straddles(_row_map_piece_key, c) for c in corners]
    assert 0 < sum(new) < len(new)


def _seam_triangles():
    """Corners of triangles whose legs cross a seam of the forward map:
    the heights s = 0 and -1/2, the strip floors and split heights of
    levels 2..16 above and below the axis, and the breakpoints of each
    level's rows (the rule's plateau edges, the merged abscissas of a
    blend row) at a height of each zone."""
    rng = random.Random(21)
    heights = [Fraction(0), Fraction(-1, 2)]
    for i in range(2, 17):
        lo, mid, hi = strip_bounds(i)
        for h in (lo, mid):  # R0 lifts s to h = (1 + s)/2; the bottom quarter reads h = -s
            heights += [2 * h - 1, -h]
        for h in ((lo + mid) / 2, (mid + hi) / 2):
            row = row_map(h)
            # forward the row meets -r, at a merged abscissa; on the bottom
            # quarter its inverse meets r, at a row ordinate
            for x in row.xs[1:-1]:
                yield (-x - LEG / 2, 2 * h - 1)
            for y in row.ys[1:-1]:
                yield (y - LEG / 2, -h)
    for s in heights:
        for offset in (LEG / 3, 2 * LEG / 3):
            r = _rand_fraction(rng, Fraction(-1, 2), Fraction(1, 2))
            yield (r, s - offset)


def test_piece_key_straddles_as_the_row_map_key_across_every_seam():
    corners = list(_seam_triangles())
    new = [_straddles(square_map._forward_piece_key, c) for c in corners]
    assert new == [_straddles(_row_map_piece_key, c) for c in corners]
    assert all(new)


def test_piece_key_splits_shear_zones_of_two_levels():
    # the corners sit at levels 20 and 20 and the apex at level 22, all
    # block-4 shear zones with the same rule, but the vertical leg crosses
    # the blend zones of levels 21 and 22, so f is not affine on it
    corner = (Fraction(1, 3), Fraction(8388597, 8388608))
    assert not _straddles(_row_map_piece_key, corner)
    assert _straddles(square_map._forward_piece_key, corner)
    r, s = corner
    a, b = square_homeo((r, s)), square_homeo((r, s + LEG))
    m = square_homeo((r, s + LEG / 2))
    assert m != ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
