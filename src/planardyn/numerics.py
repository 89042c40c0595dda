"""Exact rationals, big-float contexts, tolerances, piecewise-linear maps.

Everything on the square side of the construction is piecewise affine with
rational data, so those maps run on exact rationals and their claims are
checked with equality.  Floating point enters only through the charts and
the tangent compactification, which need arctangents; those run inside an
explicit mpmath context created by :func:`make_context` and passed around
as a value, never global state.

Rationals are wrapped once, at the public entry points: a map that takes a
coordinate from outside passes it through :func:`as_rational`, which turns
int, float and str input into a Fraction (or raises) and hands a Fraction
back untouched.  Internal calls pass Fractions through, so the exact core
never rebuilds a value it already holds.

Exact evaluation keeps two more rules.  A piece is found by an integer
search: a breakpoint n/d (d > 0) lies above x = p/q (q > 0) exactly when
p*d < n*q, so no Fraction comparison runs.  A value never takes a gcd of
two full-size operands: orbit coordinates can grow to 10^4 bits while the
maps' coefficients stay small, so an evaluation pairs each full-size
operand with a small stored Fraction (``slope * x + intercept``), whose
reductions divide by the small side only.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
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
    accepted anywhere a context is, for coarse fast scans.
    """
    if prec < 8:
        raise DomainError(f"precision too small: {prec}")
    ctx = mpmath.mp.clone()
    ctx.prec = prec
    return ctx


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q', integer, or finite decimal text into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not an exact rational literal: {text!r}") from exc


def as_rational(x) -> Fraction:
    """``x`` itself when it is a Fraction, else ``Fraction(x)``.

    The one place where int, float and str input becomes exact; a value
    that already is a Fraction is not rebuilt.
    """
    return x if type(x) is Fraction else Fraction(x)


def to_bigfloat(value, ctx):
    """Convert a Fraction/int/float/str to the context's float type.

    A float of ``ctx`` itself comes back untouched.  A Fraction p/q is
    rounded toward zero at ``ctx.prec`` bits, the rounding ``ctx.convert``
    applies to rationals; on ``mpmath.fp`` it is the double nearest to p/q.
    A float of another context is rounded at ``ctx.prec`` the way
    ``ctx.mpf`` rounds it, so no value wider than the precision gets in.
    Other inputs go through ``ctx.convert``: ints and floats come back
    exactly, strings rounded at the precision.

    The truncation takes one exact floor division: with
    ``k = prec + 1 - (bits(|p|) - bits(q))`` the integer
    ``m = floor(|p| 2^k / q)`` has at least ``prec + 1`` bits, and cutting
    ``m 2^-k`` to ``prec`` bits gives the same value as cutting p/q there.
    So the result is bit for bit ``from_rational(p, q, prec)``, without
    normalising the full-size operands of a 10^4-bit fraction first.
    """
    kind = type(value)
    if kind is ctx.mpf:
        return value
    if kind is Fraction:  # not isinstance: Fraction's ABC check is slow
        p, q = value.numerator, value.denominator
        if isinstance(ctx, FPContext):
            return p / q
        a = abs(p)
        k = ctx.prec + 1 - (a.bit_length() - q.bit_length())
        m = (a << k) // q if k >= 0 else a // (q << -k)
        return ctx.make_mpf(from_man_exp(-m if p < 0 else m, -k, ctx.prec, round_down))
    if hasattr(value, "_mpf_"):
        return ctx.mpf(value)
    return ctx.convert(value)


def integer_ratio(x) -> Tuple[int, int]:
    """Exact value of a finite double or big float as (numerator,
    denominator) in lowest terms, denominator positive."""
    if type(x) is float:
        return x.as_integer_ratio()
    p, q = to_rational(x._mpf_)
    return int(p), int(q)


def bigfloat_to_rational(x) -> Fraction:
    """Exact rational value of a finite big float (every mpf is dyadic)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float)):
        return Fraction(x)
    return Fraction(*integer_ratio(x))


@dataclass(frozen=True)
class Tolerances:
    """Named tolerances used across charts and dynamics.

    The chart bounds follow the working precision: a bound with headroom h
    is 2^(h - prec) at ``prec`` bits, h bits above one unit in the last
    place of 1.  A fixed bound sized for the coarsest precision would let a
    finer run lose most of its digits unnoticed; a relative one fails any
    run whose error does not shrink with the precision.

    chart_roundtrip_headroom : max |x - inv(fw(x))| for the collapse charts
    pin_headroom             : the collapse's pins (fiber, axis, edges) and
                               the cone map's roundtrip
    commutation_headroom     : the collapse's commutation with the two
                               reflections.  It compares two chart
                               evaluations, and near the slit arcs the
                               cone map stretches by up to
                               1 / slit_arc_angle = 2^15 / pi, so the
                               defect reaches about 2^17 units there.
    limitset                 : clustering radius / limit-set matching radius
    horizon                  : default orbit length for limit estimates
    """

    chart_roundtrip_headroom: int = 16
    pin_headroom: int = 14
    commutation_headroom: int = 20
    limitset: float = 1e-3
    horizon: int = 400

    def __post_init__(self):
        for name in ("chart_roundtrip_headroom", "pin_headroom", "commutation_headroom"):
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise DomainError(f"{name} must be a non-negative integer, got {value!r}")
        if not self.limitset > 0:
            raise DomainError("limitset must be positive")
        if type(self.horizon) is not int or self.horizon < 1:
            raise DomainError(f"horizon must be an integer of at least 1, got {self.horizon!r}")

    def chart_roundtrip_bound(self, ctx):
        """2^(h - prec) for the chart roundtrip, as a float of ``ctx``."""
        return ctx.ldexp(1, self.chart_roundtrip_headroom - ctx.prec)

    def pin_bound(self, ctx):
        """2^(h - prec) for the pins and the cone roundtrip, as a float of ``ctx``."""
        return ctx.ldexp(1, self.pin_headroom - ctx.prec)

    def commutation_bound(self, ctx):
        """2^(h - prec) for the reflection identities, as a float of ``ctx``."""
        return ctx.ldexp(1, self.commutation_headroom - ctx.prec)

    def report(self, ctx) -> dict:
        """JSON form: the fields plus the bounds at the context's precision."""
        out = asdict(self)
        out["chart_roundtrip_bound"] = float(self.chart_roundtrip_bound(ctx))
        out["pin_bound"] = float(self.pin_bound(ctx))
        out["commutation_bound"] = float(self.commutation_bound(ctx))
        return out


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
    integer search on the interior breakpoints, and its value is
    ``slope * x + intercept`` with both coefficients stored per piece (for
    the inverse, the reciprocal slope and its intercept).
    """

    __slots__ = ("xs", "ys", "slopes", "_xkeys", "_ykeys", "_forward", "_backward")

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
            "slopes": slopes,
            "_xkeys": _int_pairs(xs[1:-1]),
            "_ykeys": _int_pairs(ys[1:-1]),
            "_forward": tuple((m, y - m * x) for m, x, y in zip(slopes, xs, ys)),
            "_backward": tuple((1 / m, x - y / m) for m, x, y in zip(slopes, xs, ys)),
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

    @property
    def breakpoints(self) -> Tuple[Tuple[Fraction, Fraction], ...]:
        return tuple(zip(self.xs, self.ys))

    def segment_index(self, x: Numeric) -> int:
        """Index of the affine piece containing ``x`` (last piece at x = 1)."""
        x = _unit_rational(x, "argument")
        return _piece(self._xkeys, x.numerator, x.denominator)

    def __call__(self, x: Numeric) -> Fraction:
        return self._value(_unit_rational(x, "argument"))

    def inverse(self, y: Numeric) -> Fraction:
        return self._preimage(_unit_rational(y, "value"))

    def _value(self, x: Fraction) -> Fraction:
        """``self(x)`` for a Fraction x already known to lie in [-1, 1]."""
        m, c = self._forward[_piece(self._xkeys, x.numerator, x.denominator)]
        return m * x + c

    def _preimage(self, y: Fraction) -> Fraction:
        """``self.inverse(y)`` for a Fraction y already known to lie in [-1, 1]."""
        m, c = self._backward[_piece(self._ykeys, y.numerator, y.denominator)]
        return m * y + c

    def inverse_fn(self) -> "PLFunction":
        """The inverse bijection as a PLFunction (ordinates become abscissas)."""
        return PLFunction(tuple(zip(self.ys, self.xs)))

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

    def is_identity(self) -> bool:
        return self.xs == self.ys


IDENTITY_PL = PLFunction([(-1, -1), (1, 1)])

