"""The induced plane homeomorphism and the tangent compactification.

The square homeomorphism keeps its interesting dynamics on the boundary of
the square; conjugating by the boundary collapse moves that onto the two
interior slits, and the componentwise tangent chart then carries the open
square onto the whole plane.  The result is a fixed-point-free,
orientation-reversing homeomorphism of the plane whose every orbit is
bounded: forward and backward limit sets are the two points (+-1, 0), the
chart images of the slit endpoints' approach directions.

``lifted_core`` is the default way to iterate: it pulls the seed back to
an exact rational point of the square once, iterates the exact square map,
and pushes each iterate forward, so long orbits accumulate no rounding.
The orbit runs on integer pairs (numerator, denominator) from end to end:
the seed's lift is read off ``collapse_inv``'s floats as pairs, the square
map's orbit loop (``square_map._orbit``, which the map f's orbits run on
too) iterates them, and each kept step goes to the collapse's exact entry
as pairs, for one or more step windows (``_lifted``); only ``lifted_core``
builds Fractions, of the lifts it returns.  The seed is typed and
ray-tested once per call, where an infinite abscissa raises.

``plane_homeo`` is the one-step map (the naive composition): it is ``h``'s
forward map in ``dynamics.map_registry``, so the displacement and
orientation certificates evaluate it once per sample point.  It converts
its point once, in ``collapse_map._pt`` (``numerics.to_bigfloat`` types
it), looks the context's chart table (``collapse_map._consts``) up once,
and chains the internal forms of the public maps, each of which takes the
table: ``_tangent_inv``, then
``_quotient`` (``_collapse_inv``, the square map's pair kernel,
``_collapse_exact``), then ``_tangent``.
Between the stages pass two floats of the context, then integer pairs,
then two floats again; none is converted a second time, and on
``mpmath.fp`` every transcendental is a ``math`` call.  ``lifted_core``
looks the table up once per call and chains the same forms.

``example_shift_reflection`` is the classical shift-composed-with-
reflection example of a fixed-point-free plane map with unbounded orbits,
included as a contrast case for the certificates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .collapse_map import _collapse_exact, _collapse_inv, _consts, _pt
from .numerics import DomainError, coprime_fraction, integer_ratio
from .square_map import PointPairs, _fractions, _homeo, _orbit, _steps


def _tangent(r, s, k):
    """Tangent chart forward at two floats of the context; ``k`` is its
    chart table."""
    # negated, so that NaN fails it; table floats, not +-1, spare conversions
    if not (k["minus_one"] < r < k["one"] and k["minus_one"] < s < k["one"]):
        raise DomainError(f"point ({r}, {s}) outside the open square")
    tan, half_pi = k["tan"], k["half_pi"]
    return (tan(half_pi * r), tan(half_pi * s))


def _tangent_inv(x, y, k):
    """Tangent chart inverse at two floats of the context."""
    atan, two_over_pi = k["atan"], k["two_over_pi"]
    return (two_over_pi * atan(x), two_over_pi * atan(y))


def tangent_chart(p, ctx, inverse: bool = False):
    """Componentwise tangent map of the open square onto the plane.

    Forward: (r, s) -> (tan(pi r / 2), tan(pi s / 2)), domain the open
    square (coordinates strictly inside (-1, 1)).  Inverse: componentwise
    (2/pi) arctan, defined on the whole plane: an infinite or NaN
    coordinate raises DomainError.
    """
    u0, u1 = _pt(p, ctx)
    # a negated in-range test, so that NaN fails it
    if inverse and not (abs(u0) < ctx.inf and abs(u1) < ctx.inf):
        raise DomainError(f"point ({u0}, {u1}) is not in the plane")
    return (_tangent_inv if inverse else _tangent)(u0, u1, _consts(ctx))


def _pinned(r, s) -> bool:
    """The set where the collapse is not invertible: square boundary, fiber
    excluded, plus the two closed slits."""
    return abs(r) == 1 or abs(s) == 1 or (s == 0 and 2 * abs(r) >= 1)


def _square_pairs(w, ctx) -> PointPairs:
    """Exact value of a big-float square point as integer pairs
    (rn, rd, sn, sd) in lowest terms, nudged back onto the square when
    rounding overshot the boundary by a few ulps.  Each coordinate is read
    as its exact integer ratio n/d (d > 0); one range test on the four
    integers passes a point of the square, and only an overshoot goes on
    to ``_snap``."""
    rn, rd = integer_ratio(w[0])
    sn, sd = integer_ratio(w[1])
    if -rd <= rn <= rd and -sd <= sn <= sd:
        return rn, rd, sn, sd
    return _snap(rn, rd, ctx) + _snap(sn, sd, ctx)


def _snap(n: int, d: int, ctx) -> Tuple[int, int]:
    """A coordinate n/d of ``_square_pairs``, snapped onto the boundary.

    An overshoot of up to 2^-(prec-8) snaps, and never more than 2^-48 (the
    bound at 56 bits and below, the double context included); a larger one
    is an escape, not rounding.  |n/d| - 1 > 2^-e is (|n| - d) 2^e > d.
    """
    if -d <= n <= d:
        return n, d
    if (abs(n) - d) << max(ctx.prec - 8, 48) > d:
        raise DomainError(f"coordinate {coprime_fraction(n, d)} escaped the square")
    return (1 if n > 0 else -1), 1


def _quotient(x, u, inverse, ctx, k):
    """``quotient_square_map`` at the point ``x``, given also as two floats
    ``u`` of ``ctx`` (``x`` itself when it already is): checked and pinned
    on ``x``, which the pinned set reflects exactly; ``k`` is the chart
    table of ``ctx``."""
    r, s = x
    # a negated in-range test, so that NaN fails it
    if not (abs(r) <= 1 and abs(s) <= 1):
        raise DomainError(f"point ({r}, {s}) outside the square")
    if _pinned(r, s):
        return (-r, s)
    w = _square_pairs(_collapse_inv(x, u, k), ctx)
    return _collapse_exact(*_homeo(*w, inverse), ctx, k)


def quotient_square_map(x, ctx, inverse: bool = False):
    """The square homeomorphism pushed through the boundary collapse.

    On the pinned set (square boundary and both closed slits) the map is
    the reflection across the vertical axis, matching the interior limit;
    elsewhere it is collapse o square map o collapse-inverse, with the
    middle step running on exact rationals.  The point is handed from step
    to step as integer pairs: the exact value of ``collapse_inv``'s floats,
    the square map's pair kernel, the collapse's exact entry.
    """
    return _quotient(x, _pt(x, ctx), inverse, ctx, _consts(ctx))


def on_ray(x) -> bool:
    """Whether a plane point lies on one of the two horizontal rays
    |x| >= 1, y = 0, the chart images of the slits.  An infinite abscissa
    is no plane point: DomainError."""
    if x[1] == 0 and abs(x[0]) >= 1:
        if abs(x[0]) == math.inf:
            raise DomainError(f"point ({x[0]}, {x[1]}) is not in the plane")
        return True
    return False


def plane_homeo(x, ctx, inverse: bool = False):
    """The induced plane homeomorphism (tangent-chart conjugate).

    The two horizontal rays |x| >= 1, y = 0 (chart images of the slits)
    map by exact reflection, so ray points are period-two and stay exact;
    everything else goes through the charts.
    """
    u = _pt(x, ctx)
    x1, x2 = x
    if on_ray(x):
        return (-x1, x2)
    k = _consts(ctx)
    q = _tangent_inv(*u, k)
    return _tangent(*_quotient(q, q, inverse, ctx, k), k)


def _lifted(x, windows: Sequence[Tuple[int, int]], ctx):
    """``lifted_core``'s steps over each inclusive step window of
    ``windows`` in turn, from one lift and one orbit pass, as an iterator
    of (n, lift, collapse point, plane point), the lift as integer pairs.

    A ray seed's collapse points are None.  A seed whose chart preimage q
    lies on the pinned set (it rounded onto a slit) has no lift either: the
    quotient map reflects it there, so its steps alternate exactly between
    q and (-q0, q1), as ``plane_homeo`` steps it.
    """
    steps = _steps(windows)
    u = _pt(x, ctx)
    x1, x2 = x
    if on_ray(x):
        return ((n, None, None, (x1 if n % 2 == 0 else -x1, x2)) for n in steps)
    k = _consts(ctx)
    q = _tangent_inv(*u, k)
    if _pinned(*q):
        cycle = [(c, _tangent(*c, k)) for c in (q, (-q[0], q[1]))]
        return ((n, None, *cycle[n % 2]) for n in steps)
    w0 = _square_pairs(_collapse_inv(q, q, k), ctx)
    pushed = ((n, w, _collapse_exact(*w, ctx, k)) for n, w in _orbit(w0, steps))
    return ((n, w, c, _tangent(*c, k)) for n, w, c in pushed)


def lifted_core(
    x, n_range: Tuple[int, int], ctx
) -> List[Tuple[int, Optional[Tuple[Fraction, Fraction]], tuple]]:
    """Exact-core orbit data of the plane map.

    Returns a list of (n, square lift, plane point) for n in the inclusive
    range.  The seed is pulled back to an exact rational square point once,
    as integer pairs (``_square_pairs``); all iteration happens there, in
    the square map's orbit loop (``square_map._orbit``), starting at the
    seed (step 0) whether or not the range contains 0.  Only the requested
    steps are kept: each is pushed forward through the collapse's exact
    entry and the tangent chart, and its lift is built as two Fractions.
    Ray seeds, and seeds whose chart preimage rounds onto a slit, have no
    square lift (entry None) and alternate exactly between two positions;
    an infinite abscissa raises DomainError.
    """
    return [(n, w and _fractions(w), y) for n, w, _, y in _lifted(x, (n_range,), ctx)]


def example_shift_reflection(p, inverse: bool = False):
    """Shift-composed-with-reflection plane map: fixed-point free, orbits
    unbounded.  (x, y) -> (-x, y - |x| + 1) for |x| < 1, plain reflection
    beyond; exact on rational input."""
    x, y = p
    ax = abs(x)
    if ax >= 1:
        return (-x, y)
    if inverse:
        return (-x, y + ax - 1)
    return (-x, y - ax + 1)
