"""Exact piecewise-linear functions and the big-float working context."""

import bisect
import copy
import pickle
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planardyn.numerics import (
    CHART_ROUNDTRIP_HEADROOM,
    DEFAULT_PRECISION,
    DEFAULT_TOLERANCES,
    IDENTITY_PL,
    LIMITSET,
    PIN_HEADROOM,
    DomainError,
    PLFunction,
    SlitError,
    Tolerances,
    as_rational,
    coprime_fraction,
    integer_ratio,
    make_context,
    pair_to_bigfloat,
    to_bigfloat,
)
from planardyn.square_map import shear_profile
from planardyn.strips import SHIFT_PROFILE

PROFILE = PLFunction([(-1, -1), (Fraction(-1, 2), 0), (0, Fraction(1, 2)), (1, 1)])

unit_fractions = st.fractions(
    min_value=Fraction(-1), max_value=Fraction(1), max_denominator=256
)


def test_context_precision():
    assert make_context().prec == DEFAULT_PRECISION
    assert make_context(64).prec == 64
    assert make_context(53).prec == 53
    with pytest.raises(DomainError, match="precision must be at least 53 bits, got 52"):
        make_context(52)


def test_context_is_independent(ctx):
    import mpmath

    assert ctx.prec == DEFAULT_PRECISION
    assert mpmath.mp.prec != DEFAULT_PRECISION or mpmath.mp is not ctx


def test_parse_rational():
    # as_rational is the command line's parser of exact components
    assert as_rational("3/4") == Fraction(3, 4)
    assert as_rational("-0.25") == Fraction(-1, 4)
    assert as_rational("2") == 2


def test_to_bigfloat_exact_on_dyadics(ctx):
    x = to_bigfloat(Fraction(-13, 32), ctx)
    assert x == ctx.mpf(-13) / 32
    assert Fraction(*integer_ratio(x)) == Fraction(-13, 32)


@pytest.mark.parametrize("prec", [256, None], ids=["256", "fp"])
def test_integer_ratio_rejects_non_finite_values(prec):
    # mpmath stores its infinities as a zero mantissa, which to_rational
    # reads as the exact value 0; a float infinity raises OverflowError
    ctx = mpmath.fp if prec is None else make_context(prec)
    for text in ("+inf", "-inf", "nan"):
        for x in (ctx.mpf(text), float(text)):
            with pytest.raises(DomainError, match="not a finite number"):
                integer_ratio(x)
    assert integer_ratio(ctx.mpf(0)) == (0, 1)
    assert integer_ratio(-ctx.mpf(0.375)) == (-3, 8)


def test_bigfloat_roundtrip_error_is_tiny(ctx):
    x = to_bigfloat(Fraction(1, 3), ctx)
    assert abs(Fraction(*integer_ratio(x)) - Fraction(1, 3)) < Fraction(1, 2**250)


CONVERSION_PRECISIONS = (53, 128, 256, 512)


@st.composite
def big_rationals(draw, max_bits=30000):
    """Rationals whose numerator and denominator each run up to ~30k bits."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = rng.getrandbits(draw(st.integers(1, max_bits))) * draw(st.sampled_from((1, -1)))
    q = rng.getrandbits(draw(st.integers(1, max_bits))) or 1
    return Fraction(p, q)


@settings(max_examples=40, deadline=None)
@given(big_rationals())
def test_to_bigfloat_rounds_rationals_like_convert(value):
    p, q = value.numerator, value.denominator
    for prec in CONVERSION_PRECISIONS:
        ctx = make_context(prec)
        assert to_bigfloat(value, ctx)._mpf_ == ctx.convert(value)._mpf_
        # the pair form rounds the value, whether or not it is reduced
        assert pair_to_bigfloat(6 * p, 6 * q, ctx)._mpf_ == ctx.convert(value)._mpf_


@settings(max_examples=40, deadline=None)
@given(big_rationals(max_bits=1000))  # |p/q| stays inside the double range
def test_to_bigfloat_on_doubles_is_nearest(value):
    assert to_bigfloat(value, mpmath.fp) == float(value)


@st.composite
def two_adic_rationals(draw):
    """p/q with q an odd number times 2^k, k up to 10^4: the shape lifted
    orbits near a strip wall reach.  Numerators run up to 12k bits, so
    |p/q| lands on both sides of 1."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    odd = rng.getrandbits(draw(st.integers(0, 2000))) | 1
    q = odd << draw(st.integers(0, 10**4))
    p = rng.getrandbits(draw(st.integers(0, 12000))) * draw(st.sampled_from((1, -1)))
    return Fraction(p, q)


@settings(max_examples=60, deadline=None)
@given(two_adic_rationals())
def test_to_bigfloat_on_large_two_adic_denominators(value):
    for prec in CONVERSION_PRECISIONS:
        ctx = make_context(prec)
        assert to_bigfloat(value, ctx)._mpf_ == ctx.convert(value)._mpf_


@st.composite
def wide_dyadic_pairs(draw):
    """(p, q) with q = 2^k o, k up to 25000 and o odd: up to 2^16 most of
    the time (a strip-wall lift has q = 2^24700 times some 250 odd bits),
    else up to 2000 bits, and o = q = 1 among them.  The pair need not be
    in lowest terms; |p| runs to 26k bits, so |p/q| lands on both sides
    of 1, and p is negative half the time."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    odd_bits = draw(st.one_of(st.integers(0, 16), st.integers(0, 2000)))
    q = (rng.getrandbits(odd_bits) | 1) << draw(st.integers(0, 25000))
    p = rng.getrandbits(draw(st.integers(0, 26000))) * draw(st.sampled_from((1, -1)))
    return p, q


WIDE_PRECISIONS = (53, 64, 256, 512)


def _from_rational(p, q, prec):
    return mpmath.libmp.from_rational(p, q, prec, mpmath.libmp.round_down)


@settings(max_examples=80, deadline=None)
@given(wide_dyadic_pairs())
def test_pair_to_bigfloat_on_wide_dyadic_pairs(pair):
    # q = 2^k o divides by o alone after a shift; the result is still
    # mpmath's own rational rounding, bit for bit
    p, q = pair
    for prec in WIDE_PRECISIONS:
        ctx = make_context(prec)
        assert pair_to_bigfloat(p, q, ctx)._mpf_ == _from_rational(p, q, prec)


@pytest.mark.parametrize(
    "p, q",
    [
        (-5, 1),  # q = 1: no odd part, no power of two
        ((1 << 9000) + 1, 1),
        (-(3**9000), 1),
        (-7, 3**5000),  # odd q: no power of two to split off
        (-(1 << 20000) - 1, 3**5000),
        (-1, 1 << 25000),  # q a bare power of two: a shift and no division
        (3**16000, 1 << 25000),
        (-(3**16000), 255 << 24700),
        (-3, 255 << 24700),
        (0, 255 << 24700),
    ],
    ids=["q1_small", "q1_wide", "q1_negative", "odd_q_small", "odd_q_wide",
         "power_of_two_tiny", "power_of_two_huge", "wall_huge", "wall_tiny", "wall_zero"],
)
@pytest.mark.parametrize("prec", WIDE_PRECISIONS)
def test_pair_to_bigfloat_edge_pairs(p, q, prec):
    ctx = make_context(prec)
    assert pair_to_bigfloat(p, q, ctx)._mpf_ == _from_rational(p, q, prec)


@pytest.mark.parametrize(
    "value",
    [
        Fraction(0),
        Fraction(1, 3 << 10**4),
        Fraction(-5, 3 << 10**4),
        Fraction((1 << 12000) + 1, 7 << 10**4),  # |p/q| > 1: the k < 0 branch
        -Fraction((1 << 12000) + 1, 7 << 10**4),
        Fraction(-(3**7000), 5 << 9000),
    ],
    ids=["zero", "tiny", "tiny_negative", "huge", "huge_negative", "odd_power"],
)
@pytest.mark.parametrize("prec", CONVERSION_PRECISIONS)
def test_to_bigfloat_two_adic_edge_cases(value, prec):
    ctx = make_context(prec)
    assert to_bigfloat(value, ctx)._mpf_ == ctx.convert(value)._mpf_


def test_to_bigfloat_rounds_toward_zero(ctx):
    # 1/3 and -1/3 at 256 bits: the magnitude is truncated, never rounded up
    for v in (Fraction(1, 3), Fraction(-1, 3), Fraction(2, 3)):
        x = to_bigfloat(v, ctx)
        assert abs(Fraction(*integer_ratio(x))) < abs(v)


@pytest.mark.parametrize(
    "value", [7, -2**300, 0.1, -2.5], ids=repr
)
@pytest.mark.parametrize("prec", CONVERSION_PRECISIONS)
def test_to_bigfloat_other_inputs_follow_convert(value, prec):
    ctx = make_context(prec)
    assert to_bigfloat(value, ctx)._mpf_ == ctx.convert(value)._mpf_
    x = ctx.mpf(1) / 3
    assert to_bigfloat(x, ctx) is x


class _Int(int):
    pass


class _Float(float):
    pass


class _Fraction(Fraction):
    pass


@pytest.mark.parametrize(
    "value", [True, False, _Int(-7), _Float(0.1), _Fraction(-1, 3)], ids=repr
)
@pytest.mark.parametrize("prec", CONVERSION_PRECISIONS)
def test_to_bigfloat_converts_number_subclasses_like_convert(value, prec):
    # bool and the subclasses of int, float and Fraction are numbers: they
    # take convert's route, not the exact types' fast branches
    ctx = make_context(prec)
    assert to_bigfloat(value, ctx)._mpf_ == ctx.convert(value)._mpf_


@pytest.mark.parametrize("value", ["0.1", None, 0.5j], ids=repr)
@pytest.mark.parametrize("prec", [256, None], ids=["256", "fp"])
def test_to_bigfloat_rejects_what_is_no_number(value, prec):
    # a numeric string included: the chart side's floats must not depend
    # on a context's string parser
    ctx = mpmath.fp if prec is None else make_context(prec)
    with pytest.raises(DomainError, match="is not a number"):
        to_bigfloat(value, ctx)


def test_to_bigfloat_rounds_floats_of_another_context():
    # a float of a finer context is rounded at the working precision, the
    # way ctx.mpf rounds it; a float of the context itself passes untouched
    fine, ctx = make_context(256), make_context(128)
    for x in (fine.mpf(1) / 3, -fine.mpf(2) / 7, fine.mpf(1) - fine.ldexp(1, -200)):
        y = to_bigfloat(x, ctx)
        assert type(y) is ctx.mpf
        assert y._mpf_[1].bit_length() <= 128
        assert y._mpf_ == ctx.mpf(x)._mpf_
        assert to_bigfloat(y, ctx) is y
    assert to_bigfloat(fine.mpf(1) / 3, mpmath.fp) == 1 / 3


def test_coprime_fraction_takes_a_reduced_pair_as_it_is():
    big = 3**6000
    pairs = ((0, 1), (-7, 12), (5, 1), (2**9000 + 1, big), (-big, 2**53))
    for n, d in pairs:
        x, ref = coprime_fraction(n, d), Fraction(n, d)
        assert type(x) is Fraction and (x.numerator, x.denominator) == (n, d)
        assert x == ref and hash(x) == hash(ref)
        # it behaves as the normalised Fraction everywhere
        assert str(x) == str(ref) and repr(x) == repr(ref)
        for y in (Fraction(-7, 12), Fraction(1, 3), 2):
            assert x + y == ref + y and x - y == ref - y and x * y == ref * y
            assert x / y == ref / y and y - x == y - ref
        for y in (Fraction(-7, 12), Fraction(1, 3), 2, 0.5):
            assert (x < y, x <= y, x > y, x >= y) == (ref < y, ref <= y, ref > y, ref >= y)
        assert -x == -ref and abs(x) == abs(ref) and x**2 == ref**2
        for back in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert type(back) is Fraction and back == ref
            assert (back.numerator, back.denominator) == (n, d)
    # no normalisation: the pair must already be in lowest terms
    assert coprime_fraction(2, 4).numerator == 2
    if sys.version_info >= (3, 12):
        assert coprime_fraction == Fraction._from_coprime_ints


def test_as_rational_wraps_only_non_fractions():
    f = Fraction(3, 7)
    assert as_rational(f) is f
    assert as_rational(2) == Fraction(2) and type(as_rational(2)) is Fraction
    assert as_rational(0.25) == Fraction(1, 4)
    assert as_rational("3/7") == f


def test_tolerances_defaults():
    t = DEFAULT_TOLERANCES
    assert CHART_ROUNDTRIP_HEADROOM == 16
    assert PIN_HEADROOM == 14
    assert LIMITSET == 1e-3
    assert t.horizon == 400
    # the report's keys and their order are pinned by the golden reports
    for prec in (64, 512):
        report = t.report(make_context(prec))
        assert list(report.items()) == [
            ("chart_roundtrip_headroom", 16),
            ("pin_headroom", 14),
            ("limitset", 1e-3),
            ("horizon", 400),
            ("chart_roundtrip_bound", 2.0 ** (16 - prec)),
            ("pin_bound", 2.0 ** (14 - prec)),
        ]


def test_tolerances_follow_the_precision():
    t = DEFAULT_TOLERANCES
    for prec in (64, 128, 256, 512):
        ctx = make_context(prec)
        assert t.chart_roundtrip_bound(ctx) == ctx.ldexp(1, 16 - prec)
        assert t.pin_bound(ctx) == ctx.ldexp(1, 14 - prec)
    # at the default 256 bits all are far tighter than the old fixed 1e-25 and 1e-30
    ctx = make_context(256)
    report = t.report(ctx)
    assert report["chart_roundtrip_bound"] == 2.0 ** -240
    assert report["pin_bound"] == 2.0 ** -242
    # far below the doubles the bound is still exact in the context
    fine = make_context(2048)
    assert t.chart_roundtrip_bound(fine) > 0 and float(t.chart_roundtrip_bound(fine)) == 0.0


def test_tolerances_validate():
    # a fractional horizon used to pass here and fail later in range()
    for bad in (2.5, "5", True, 0):
        with pytest.raises(DomainError, match="horizon"):
            Tolerances(horizon=bad)
    assert Tolerances(horizon=1).horizon == 1


def test_slit_error_is_domain_error():
    assert issubclass(SlitError, DomainError)


def test_profile_breakpoint_values():
    assert PROFILE(Fraction(-1)) == -1
    assert PROFILE(Fraction(-1, 2)) == 0
    assert PROFILE(Fraction(0)) == Fraction(1, 2)
    assert PROFILE(Fraction(1)) == 1
    assert PROFILE(Fraction(1, 4)) == Fraction(5, 8)
    assert PROFILE(Fraction(-3, 4)) == Fraction(-1, 2)


def test_profile_inverse_values():
    assert PROFILE.inverse(Fraction(1, 2)) == 0
    assert PROFILE.inverse(Fraction(3, 4)) == Fraction(1, 2)
    assert PROFILE.inverse(Fraction(3, 4)) == Fraction(1, 2)


def test_outside_domain_raises():
    with pytest.raises(DomainError):
        PROFILE(Fraction(9, 8))
    with pytest.raises(DomainError):
        PROFILE.inverse(Fraction(-2))


def test_degenerate_breakpoints_rejected():
    with pytest.raises(DomainError):
        PLFunction([(0, 0), (0, 1)])  # abscissas span less than [-1, 1]
    with pytest.raises(DomainError):
        PLFunction([(-1, 1), (1, 0)])  # ordinates not increasing


def test_identity_pl():
    assert IDENTITY_PL(Fraction(-3, 7)) == Fraction(-3, 7)


def test_equality_and_hash():
    again = PLFunction([(-1, -1), (Fraction(-1, 2), 0), (0, Fraction(1, 2)), (1, 1)])
    assert PROFILE == again
    assert hash(PROFILE) == hash(again)
    assert PROFILE != IDENTITY_PL


def test_blend_endpoints_are_the_operands():
    assert IDENTITY_PL.blend(PROFILE, Fraction(0)) == IDENTITY_PL
    assert IDENTITY_PL.blend(PROFILE, Fraction(1)) == PROFILE


@given(unit_fractions)
def test_profile_roundtrip_exact(x):
    assert PROFILE.inverse(PROFILE(x)) == x


@given(unit_fractions, unit_fractions)
def test_profile_strictly_increasing(x, y):
    if x < y:
        assert PROFILE(x) < PROFILE(y)


@given(
    unit_fractions,
    st.fractions(min_value=Fraction(0), max_value=Fraction(1), max_denominator=64),
)
@settings(deadline=None)
def test_blend_is_pointwise_convex_combination(x, t):
    blended = IDENTITY_PL.blend(PROFILE, t)
    assert blended(x) == (1 - t) * x + t * PROFILE(x)


def _bisect_eval(xs, ys, x):
    """Plain Fraction evaluation: bisect for the piece, then interpolate."""
    k = min(max(bisect.bisect_right(xs, x) - 1, 0), len(xs) - 2)
    return ys[k] + (ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k]) * (x - xs[k])


@st.composite
def pl_functions(draw):
    """A PLFunction with up to 5 interior breakpoints in (-1, 1)."""
    inner = st.fractions(min_value=-1, max_value=1, max_denominator=10**6).filter(
        lambda v: -1 < v < 1
    )
    n = draw(st.integers(0, 5))
    xs = draw(st.lists(inner, min_size=n, max_size=n, unique=True))
    ys = draw(st.lists(inner, min_size=n, max_size=n, unique=True))
    return PLFunction([(-1, -1), *zip(sorted(xs), sorted(ys)), (1, 1)])


# the exact core's own rows: the shift profile, the identity, and the shear
# profiles of the first twelve blocks
PROGRAM_ROWS = (SHIFT_PROFILE, IDENTITY_PL, *(shear_profile(n) for n in range(1, 13)))


@st.composite
def wall_lifts(draw):
    """A rational in [-1, 1] over 2^k times a small odd number, k up to
    25000: the shape of a strip-wall lift."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    d = (2 * rng.randrange(2**11) + 1) << draw(st.integers(0, 25000))
    return Fraction(rng.randrange(-d, d + 1), d)


@given(st.one_of(pl_functions(), st.sampled_from(PROGRAM_ROWS)), st.data())
@settings(deadline=None)
def test_pl_evaluation_equals_bisect_evaluation(fn, data):
    xs, ys = fn.xs, fn.ys
    big = st.integers(2**9000, 2**9001).flatmap(
        lambda d: st.integers(-d, d).map(lambda n: Fraction(n, d))
    )
    argument = st.one_of(st.sampled_from(xs), unit_fractions, big, wall_lifts())
    value = st.one_of(st.sampled_from(ys), unit_fractions, big, wall_lifts())
    x, y = data.draw(argument), data.draw(value)
    assert fn(x) == _bisect_eval(xs, ys, x)
    assert fn.inverse(y) == _bisect_eval(ys, xs, y)
