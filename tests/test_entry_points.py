"""Public entry points of the exact core take int, float and str input.

Coordinates are wrapped into Fractions once, where they enter; internal
calls then pass Fractions through.  These tests pin that contract: a
non-Fraction input gives exactly the Fraction result, and an input outside
the domain still raises DomainError whatever its type, a NaN or infinite
float and a malformed string included.
"""

from fractions import Fraction

import mpmath
import pytest

from planardyn import dynamics
from planardyn.collapse_map import collapse, collapse_inv, cone_map
from planardyn.numerics import DomainError, PLFunction, make_context
from planardyn.plane_map import lifted_core, plane_homeo, quotient_square_map, tangent_chart
from planardyn.square_map import (
    reflect,
    region_of,
    square_homeo,
    strip_shear,
    vertical_shift,
)
from planardyn.strips import strip_locate

NAN, INF = float("nan"), float("inf")
# values that are no finite rational, in every row's bad inputs
NOT_RATIONAL = [NAN, INF, -INF, "abc"]
NOT_RATIONAL_POINTS = [(NAN, 0), (0, INF), (-INF, Fraction(1, 2)), (Fraction(1, 3), "abc")]

PROFILE = PLFunction([(-1, -1), (Fraction(-1, 2), 0), (0, Fraction(1, 2)), (1, 1)])
OTHER = PLFunction([(-1, -1), (Fraction(1, 4), Fraction(-1, 8)), (1, 1)])


def _spellings(q: Fraction):
    """The same exact value as str, and as float (when dyadic) and int
    (when integral)."""
    out = [str(q)]
    if Fraction(float(q)) == q:
        out.append(float(q))
    if q.denominator == 1:
        out.append(int(q))
    return out


def _point_spellings(p):
    return [(a, b) for a in _spellings(p[0]) for b in _spellings(p[1])]


# name -> (function of one argument, in-domain exact inputs, out-of-domain inputs)
CASES = {
    "square_homeo": (
        square_homeo,
        [
            (Fraction(1, 3), Fraction(1, 5)),
            (Fraction(3, 8), Fraction(5, 16)),
            (Fraction(-3, 4), Fraction(-7, 8)),
            (0, 1),
        ],
        [(2, 0), (0, "-5/4"), (1.5, 0.5)] + NOT_RATIONAL_POINTS,
    ),
    "square_homeo_inverse": (
        lambda p: square_homeo(p, inverse=True),
        [(Fraction(1, 3), Fraction(5, 8)), (Fraction(-1, 2), Fraction(1, 4)), (1, -1)],
        [(0, 2), ("9/8", 0), (-1.25, 0.0)] + NOT_RATIONAL_POINTS,
    ),
    "vertical_shift": (
        vertical_shift,
        [(Fraction(1, 2), Fraction(-3, 4)), (-1, 0)],
        [(0, 2), ("3/2", 0)] + NOT_RATIONAL_POINTS,
    ),
    "strip_shear": (
        strip_shear,
        [
            (Fraction(1, 3), Fraction(7, 8)),
            (Fraction(-5, 8), Fraction(29, 32)),
            (Fraction(1, 4), Fraction(13, 16)),
        ],
        [(0, Fraction(1, 4)), (0, 0.25), (2, Fraction(3, 4))] + NOT_RATIONAL_POINTS,
    ),
    "reflect": (
        lambda p: reflect(p, "level"),
        [(Fraction(1, 3), Fraction(-1, 5)), (Fraction(-3, 8), Fraction(1, 2)), (1, 0)],
        NOT_RATIONAL_POINTS,
    ),
    "region_of": (
        region_of,
        [Fraction(-3, 4), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)],
        [Fraction(5, 4), -1.5, "2"] + NOT_RATIONAL,
    ),
    "region_of_inverse": (
        lambda s: region_of(s, inverse=True),
        [Fraction(-3, 4), Fraction(1, 2), Fraction(-1)],
        [Fraction(-5, 4), 1.5] + NOT_RATIONAL,
    ),
    "strip_locate": (
        strip_locate,
        [Fraction(1, 2), Fraction(3, 4), Fraction(7, 8), Fraction(61, 64), Fraction(1)],
        [Fraction(1, 4), 0.25, "3/2", 2] + NOT_RATIONAL,
    ),
    "PLFunction.__call__": (
        PROFILE,
        [Fraction(-3, 4), Fraction(1, 3), Fraction(1), Fraction(-1)],
        [Fraction(3, 2), -1.5, "2"] + NOT_RATIONAL,
    ),
    "PLFunction.inverse": (
        PROFILE.inverse,
        [Fraction(-3, 4), Fraction(2, 3), Fraction(1)],
        [Fraction(3, 2), -1.5, "2"] + NOT_RATIONAL,
    ),
    "PLFunction.blend": (
        lambda t: PROFILE.blend(OTHER, t),
        [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)],
        [Fraction(-1, 2), 1.5, "2"] + NOT_RATIONAL,
    ),
}


def _spell(value):
    if isinstance(value, tuple):
        return _point_spellings(tuple(Fraction(v) for v in value))
    return _spellings(value)


@pytest.mark.parametrize("name", sorted(CASES))
def test_non_fraction_inputs_match_fraction_inputs(name):
    fn, good, _ = CASES[name]
    for value in good:
        exact = tuple(Fraction(v) for v in value) if isinstance(value, tuple) else value
        expected = fn(exact)
        for spelled in _spell(value):
            got = fn(spelled)
            assert got == expected, (name, spelled)
            if isinstance(got, tuple):
                assert all(type(v) is Fraction for v in got), (name, spelled)


@pytest.mark.parametrize("name", sorted(CASES))
def test_out_of_domain_inputs_raise(name):
    fn, _, bad = CASES[name]
    for value in bad:
        with pytest.raises(DomainError):
            fn(value)


def test_reflect_rejects_unknown_axis():
    for p in [(Fraction(1, 3), Fraction(1, 5)), (0.5, "1/4"), (1, 0)]:
        with pytest.raises(DomainError):
            reflect(p, "diagonal")



REGISTRY = dynamics.map_registry(None)


@pytest.mark.parametrize("name", sorted(n for n, spec in REGISTRY.items() if spec.exact))
def test_exact_orbits_reject_non_rational_seeds(name):
    spec = REGISTRY[name]
    for seed in NOT_RATIONAL if spec.domain == "interval" else NOT_RATIONAL_POINTS:
        with pytest.raises(DomainError):
            dynamics.orbit(spec, seed, (0, 1))


# the chart side's entry points, each a function of (point, context)
CHART_ENTRIES = {
    "collapse": collapse,
    "collapse_inv": collapse_inv,
    "cone_map": cone_map,
    "cone_map_inverse": lambda p, c: cone_map(p, c, inverse=True),
    "tangent_chart": tangent_chart,
    "tangent_chart_inverse": lambda p, c: tangent_chart(p, c, inverse=True),
    "quotient_square_map": quotient_square_map,
    "plane_homeo": plane_homeo,
    "lifted_core": lambda p, c: lifted_core(p, (0, 1), c),
}


@pytest.mark.parametrize("prec", [256, None], ids=["256", "fp"])
@pytest.mark.parametrize("name", sorted(CHART_ENTRIES))
def test_chart_entries_reject_coordinates_that_are_no_numbers(name, prec):
    # the chart side takes numbers only, a numeric string included: its
    # floats would otherwise depend on the context's string parser
    ctx = mpmath.fp if prec is None else make_context(prec)
    fn = CHART_ENTRIES[name]
    for point in [("abc", 0), (0, "abc"), (None, 0.5), (0.5, None), ("0.5", "0.25"),
                  (Fraction(1, 3), "1/5"), (0.5, 0.25j)]:
        with pytest.raises(DomainError, match="is not a number"):
            fn(point, ctx)
    fn((Fraction(1, 3), 0.25), ctx)  # a point of numbers of mixed types is charted


@pytest.mark.parametrize("prec", [256, None], ids=["256", "fp"])
def test_tangent_chart_inverse_rejects_non_finite_coordinates(prec):
    # (2/pi) atan would map an infinity onto the square's boundary, and
    # pass a NaN through
    ctx = mpmath.fp if prec is None else make_context(prec)
    for point in [(NAN, 0), (0, NAN), (INF, 0.5), (0.5, -INF), (ctx.mpf("inf"), 0)]:
        with pytest.raises(DomainError, match="is not in the plane"):
            tangent_chart(point, ctx, inverse=True)
