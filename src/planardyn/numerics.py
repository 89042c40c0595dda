"""Exact rationals, big-float contexts, tolerances, piecewise-linear maps.

Everything on the square side of the construction is piecewise affine with
rational data, so those maps run on exact rationals and their claims are
checked with equality.  Floating point enters only through the charts and
the tangent compactification, which need arctangents; those run inside an
explicit mpmath context created by :func:`make_context` and passed around
as a value, never global state.

Rationals are wrapped once, where they enter: a map that takes a coordinate
from outside, and the command line's parser of exact points, pass it to
:func:`as_rational`, which turns int, float and str input into a Fraction
(or raises) and hands a Fraction back untouched.  Internal calls pass
Fractions through, so the exact core never rebuilds a value it holds.

Exact evaluation runs on integer pairs (numerator, denominator), every
pair in lowest terms with a positive denominator, and builds one Fraction
per result with :func:`coprime_fraction`, which takes such a pair as it is
(``Fraction._from_coprime_ints`` on Python 3.12+; before, a bare instance
with its two slots set, which is what that method does), as the stdlib's
own arithmetic does.  So no evaluation pays Fraction's operator dispatch
or its ``__new__`` per step, and nothing takes a plain ``gcd(n, d)`` of a
full-size result: orbit coordinates grow to 10^4 bits, where that one gcd
costs more than the whole evaluation.  A pair that goes on to the charts
needs no Fraction at all: :func:`pair_to_bigfloat` rounds it into a
context as :func:`to_bigfloat` rounds the Fraction.

A piece is found by an integer search: a breakpoint n/d (d > 0) lies above
x = p/q (q > 0) exactly when p*d < n*q, so no Fraction comparison runs.
An affine piece, slope a/b and intercept e/f, is stored as the small
integers (A, E, D) = (a*f, e*b, b*f) over their gcd, and its value
(A*p + E*q) / (D*q) at p/q is reduced by two gcds that each have one
small operand (:func:`_affine`, the exact core's one narrow reduction).
Every piece increases, so A > 0, and the inverse of a piece is the same
three integers transposed: (D*p - E*q) / (A*q) is ``_affine`` of
(D, -E, A).  The blend rows of the square map are bilinear in x and the
height: at a height their piece is again three integers, reduced by
``_affine`` on narrow pairs; on wide ones (a denominator of 512 bits or
more, ``square_map._WIDE``) its slope and intercept meet x in Fraction's
own cross-reduction order (the products' gcds, then the gcd of the two
denominators of the sum).

On that wide route each of those gcds splits off the power of two first
(``square_map._sum`` and ``_product``), as the division in
:func:`pair_to_bigfloat` always does.  The rationals that grow past
10^4 bits are lifts near a strip wall: their denominators are
2^t times an odd part of a few hundred bits (t reaches 24700 over 100
steps), and their heights are purely dyadic.  With the power of two
split off, the gcds and divisions run on the odd parts, and only shifts
touch the full-size operands.  The result is the same pair: a pair in
lowest terms is unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence, Tuple, Union

import mpmath
from mpmath.ctx_fp import FPContext
from mpmath.libmp import from_man_exp, round_down, to_rational

Numeric = Union[Fraction, int, float]

DEFAULT_PRECISION = 256


class DomainError(ValueError):
    """Input outside the declared domain of a map or chart."""


class SlitError(DomainError):
    """Point on a collapse slit, where the inverse is undefined."""


def make_context(prec: int = DEFAULT_PRECISION):
    """Return an independent mpmath context with the given binary precision.

    Contexts are cheap; make one per run / per precision and pass it
    explicitly.  ``mpmath.fp`` (hardware doubles, same method surface) is
    accepted anywhere a context is, for coarse fast scans.  The precision
    is at least 53 bits, that of those doubles: below it rounding outgrows
    the collapse's clamp tolerances and can put a point on a slit.
    """
    if prec < 53:
        raise DomainError(f"precision must be at least 53 bits, got {prec}")
    ctx = mpmath.mp.clone()
    ctx.prec = prec
    return ctx


if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12+
    coprime_fraction = Fraction._from_coprime_ints
else:

    def coprime_fraction(n: int, d: int) -> Fraction:
        """The Fraction n/d of a pair already in lowest terms with d > 0,
        built without the gcd of a normalisation."""
        x = object.__new__(Fraction)
        x._numerator = n
        x._denominator = d
        return x


def as_rational(x) -> Fraction:
    """``x`` itself when it is a Fraction, else ``Fraction(x)``.

    The one place where int, float and str input becomes exact; a value
    that already is a Fraction is not rebuilt.  A NaN or infinite float
    and a malformed string raise DomainError.
    """
    if type(x) is Fraction:
        return x
    try:
        return Fraction(x)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"not a finite rational: {x!r}") from exc


def to_bigfloat(value, ctx):
    """Convert a Fraction/int/float/float of a context to the context's
    float type: the chart side's one typed conversion.

    A float of ``ctx`` itself comes back untouched.  A Fraction goes
    through :func:`pair_to_bigfloat`.  A float of another context is
    rounded at ``ctx.prec`` the way ``ctx.mpf`` rounds it, so no value
    wider than the precision gets in.  Other numbers (ints, floats, their
    subclasses, Fraction's) go through ``ctx.convert``.  Anything else, a
    numeric string too, raises DomainError.
    """
    kind = type(value)
    if kind is ctx.mpf:
        return value
    if kind is Fraction:  # not isinstance: Fraction's ABC check is slow
        return pair_to_bigfloat(value.numerator, value.denominator, ctx)
    if hasattr(value, "_mpf_"):
        return ctx.mpf(value)
    if isinstance(value, (int, float, Fraction)):
        return ctx.convert(value)
    raise DomainError(f"coordinate {value!r} is not a number")


def _twos(n: int) -> int:
    """The exponent of the largest power of two dividing the integer n != 0."""
    return (n & -n).bit_length() - 1


def pair_to_bigfloat(p: int, q: int, ctx):
    """The rational p/q (q > 0) as a float of ``ctx``.

    Rounded toward zero at ``ctx.prec`` bits, the rounding ``ctx.convert``
    applies to rationals; on ``mpmath.fp`` it is the double nearest to p/q.
    The pair need not be in lowest terms.

    The truncation takes one exact floor division: with
    ``k = prec + 1 - (bits(|p|) - bits(q))`` the integer
    ``m = floor(|p| 2^k / q)`` has at least ``prec + 1`` bits, and cutting
    ``m 2^-k`` to ``prec`` bits gives the same value as cutting p/q there.
    So the result is bit for bit ``from_rational(p, q, prec)``, without
    normalising the full-size operands of a 10^4-bit fraction first.

    The power of two is split off q first: with q = 2^t o, o odd, m is
    ``floor(|p| 2^(k-t) / o)``, a shift and a division by o alone.  A
    lifted orbit near a strip wall has q = 2^24700 times an odd part of
    about 250 bits, so the division costs what o costs, not what q does.
    """
    if isinstance(ctx, FPContext):
        return p / q
    a = abs(p)
    k = ctx.prec + 1 - (a.bit_length() - q.bit_length())
    t = _twos(q)
    o = q >> t
    # floor(a 2^k / q) = floor(a 2^(k - t) / o), and floor(a 2^-j / o) is
    # floor(floor(a 2^-j) / o)
    m = a << k - t if k >= t else a >> t - k
    if o > 1:
        m //= o
    return ctx.make_mpf(from_man_exp(-m if p < 0 else m, -k, ctx.prec, round_down))


def integer_ratio(x) -> Tuple[int, int]:
    """Exact value of a finite double or big float as (numerator,
    denominator) in lowest terms, denominator positive.  An infinity or a
    NaN raises DomainError."""
    if type(x) is float:
        try:
            return x.as_integer_ratio()
        except (OverflowError, ValueError):
            raise DomainError(f"not a finite number: {x}") from None
    _, man, exp, _ = x._mpf_
    if not man and exp:  # mpmath's special values: zero mantissa, nonzero exponent
        raise DomainError(f"not a finite number: {x}")
    p, q = to_rational(x._mpf_)
    return int(p), int(q)


# The chart bounds follow the working precision: a bound with headroom h is
# 2^(h - prec) at ``prec`` bits, h bits above one unit in the last place of
# 1.  A fixed bound sized for the coarsest precision would let a finer run
# lose most of its digits unnoticed; a relative one fails any run whose
# error does not shrink with the precision.
CHART_ROUNDTRIP_HEADROOM = 16  # max |x - inv(fw(x))| for the collapse charts
PIN_HEADROOM = 14  # the collapse's pins (fiber, axis, edges), the cone roundtrip
LIMITSET = 1e-3  # clustering radius / limit-set matching radius


@dataclass(frozen=True)
class Tolerances:
    """The orbit horizon, and the chart bounds at a context's precision.

    horizon : default orbit length for limit estimates

    The headrooms and the limit-set radius are the module constants
    ``CHART_ROUNDTRIP_HEADROOM``, ``PIN_HEADROOM`` and ``LIMITSET``.  The
    collapse's commutation with the two reflections of the square has no
    tolerance: the collapse charts one quarter and mirrors the other
    three, so the identities hold exactly.
    """

    horizon: int = 400

    def __post_init__(self):
        if type(self.horizon) is not int or self.horizon < 1:
            raise DomainError(f"horizon must be an integer of at least 1, got {self.horizon!r}")

    def chart_roundtrip_bound(self, ctx):
        """2^(h - prec) for the chart roundtrip, as a float of ``ctx``."""
        return ctx.ldexp(1, CHART_ROUNDTRIP_HEADROOM - ctx.prec)

    def pin_bound(self, ctx):
        """2^(h - prec) for the pins and the cone roundtrip, as a float of ``ctx``."""
        return ctx.ldexp(1, PIN_HEADROOM - ctx.prec)

    def report(self, ctx) -> dict:
        """JSON form: the constants and the horizon, plus the bounds at the
        context's precision."""
        return {
            "chart_roundtrip_headroom": CHART_ROUNDTRIP_HEADROOM,
            "pin_headroom": PIN_HEADROOM,
            "limitset": LIMITSET,
            "horizon": self.horizon,
            "chart_roundtrip_bound": float(self.chart_roundtrip_bound(ctx)),
            "pin_bound": float(self.pin_bound(ctx)),
        }


DEFAULT_TOLERANCES = Tolerances()


def _piece(keys, p: int, q: int) -> int:
    """Index of the affine piece holding p/q (q > 0): the number of interior
    breakpoints n/d (d > 0) with n/d <= p/q, found by the integer test
    p*d < n*q."""
    for k, (n, d) in enumerate(keys):
        if p * d < n * q:
            return k
    return len(keys)


def _int_pairs(values) -> Tuple[Tuple[int, int], ...]:
    return tuple((v.numerator, v.denominator) for v in values)


def _lowest(ints: Tuple[int, ...]) -> Tuple[int, ...]:
    """The integers of a stored piece divided by their gcd (not all zero):
    the smaller the piece, the cheaper ``_affine`` of it or of its transpose."""
    g = gcd(*ints)
    return tuple(n // g for n in ints)


def _affine_piece(m: Fraction, c: Fraction) -> Tuple[int, int, int]:
    """The map x -> m*x + c as the integers (A, E, D) of ``_affine``: with
    m = a/b and c = e/f, (a*f, e*b, b*f) over their gcd."""
    return _lowest((m.numerator * c.denominator, c.numerator * m.denominator,
                    m.denominator * c.denominator))


def _affine(a: int, e: int, d: int, p: int, q: int) -> Tuple[int, int]:
    """(A*p + E*q) / (D*q) in lowest terms, for p/q in lowest terms, q > 0
    and D > 0: the value at p/q of the affine piece (A, E, D), or, called
    on (D, -E, A) with A > 0, of its inverse.

    Both gcds have one small operand.  The first, gcd(A, q), equals
    gcd(A*p + E*q, q) because gcd(p, q) = 1; after dividing it out the
    numerator is prime to what is left of q, so the second only needs D.
    """
    n = a * p + e * q
    g = gcd(a, q)
    if g > 1:
        n //= g
        q //= g
    g = gcd(n, d)
    if g > 1:
        n //= g
        d //= g
    return n, d * q


def _unit_rational(x, what: str) -> Fraction:
    """``as_rational(x)``, checked to lie in [-1, 1]."""
    x = as_rational(x)
    if abs(x.numerator) > x.denominator:
        raise DomainError(f"PL {what} {x} outside [-1, 1]")
    return x


class PLFunction:
    """Strictly increasing piecewise-linear bijection of [-1, 1].

    Breakpoints are exact rationals, strictly increasing in both
    coordinates, with endpoints (-1, -1) ... (1, 1) pinned.  Evaluation and
    inversion are exact on rational inputs: the piece is found by the
    integer search on the interior breakpoints (for the inverse, on their
    ordinates), and its value is ``slope * x + intercept``, stored once per
    piece as the integers (A, E, D) of ``_affine``; the inverse runs the
    same piece transposed.  ``_value`` and ``_preimage`` take and return
    integer pairs in lowest terms; ``__call__`` and ``inverse`` check their
    argument and build the one Fraction of the result.
    """

    __slots__ = ("xs", "ys", "_xkeys", "_ykeys", "_forward")

    def __init__(self, points: Sequence[Tuple[Numeric, Numeric]]):
        cleaned = []
        for x, y in points:
            x, y = as_rational(x), as_rational(y)
            if cleaned and (x, y) == cleaned[-1]:
                continue  # collapsed breakpoint (shear profile at n = 1)
            cleaned.append((x, y))
        if len(cleaned) < 2:
            raise DomainError("need at least two distinct breakpoints")
        xs = tuple(p[0] for p in cleaned)
        ys = tuple(p[1] for p in cleaned)
        if xs[0] != -1 or xs[-1] != 1:
            raise DomainError("breakpoint abscissas must span [-1, 1]")
        if ys[0] != -1 or ys[-1] != 1:
            raise DomainError("breakpoint ordinates must span [-1, 1]")
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise DomainError("breakpoint abscissas must be strictly increasing")
        if any(a >= b for a, b in zip(ys, ys[1:])):
            raise DomainError("breakpoint ordinates must be strictly increasing")
        slopes = tuple(
            (ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k]) for k in range(len(xs) - 1)
        )
        fields = {
            "xs": xs,
            "ys": ys,
            "_xkeys": _int_pairs(xs[1:-1]),
            "_ykeys": _int_pairs(ys[1:-1]),
            "_forward": tuple(
                _affine_piece(m, y - m * x) for m, x, y in zip(slopes, xs, ys)
            ),
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("PLFunction is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, PLFunction)
            and self.xs == other.xs
            and self.ys == other.ys
        )

    def __hash__(self):
        return hash((self.xs, self.ys))

    def __repr__(self):
        pts = ", ".join(f"({x},{y})" for x, y in zip(self.xs, self.ys))
        return f"PLFunction[{pts}]"

    def __call__(self, x: Numeric) -> Fraction:
        x = _unit_rational(x, "argument")
        return coprime_fraction(*self._value(x.numerator, x.denominator))

    def inverse(self, y: Numeric) -> Fraction:
        y = _unit_rational(y, "value")
        return coprime_fraction(*self._preimage(y.numerator, y.denominator))

    def _value(self, p: int, q: int) -> Tuple[int, int]:
        """``self(p/q)`` as a pair, for p/q in lowest terms in [-1, 1], q > 0."""
        a, e, d = self._forward[_piece(self._xkeys, p, q)]
        return _affine(a, e, d, p, q)

    def _preimage(self, p: int, q: int) -> Tuple[int, int]:
        """``self.inverse(p/q)`` as a pair, for p/q in lowest terms in [-1, 1], q > 0:
        the piece (A, E, D) whose ordinates hold p/q, transposed."""
        a, e, d = self._forward[_piece(self._ykeys, p, q)]
        return _affine(d, -e, a, p, q)

    def blend(self, other: "PLFunction", t: Numeric) -> "PLFunction":
        """Pointwise convex combination (1-t)*self + t*other, exact.

        A convex combination of strictly increasing PL bijections fixing
        the endpoints is again one; its breakpoints are the merged
        abscissas of the two operands.
        """
        t = as_rational(t)
        if t < 0 or t > 1:
            raise DomainError(f"blend weight {t} outside [0, 1]")
        if t == 0:
            return self
        if t == 1:
            return other
        xs = sorted(set(self.xs) | set(other.xs))
        return PLFunction([(x, (1 - t) * self(x) + t * other(x)) for x in xs])


IDENTITY_PL = PLFunction([(-1, -1), (1, 1)])

