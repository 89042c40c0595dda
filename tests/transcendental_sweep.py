"""The chart table's big-float transcendentals against mpmath's own.

``collapse_map._consts`` builds the table's ``tan``, ``atan`` and ``atan2``
on a big-float context from mpmath's libmp routines, and answers two
magnitude bands itself: the tangent of a float below 2^-(p//2 + 4) and the
arctangent of a quotient y/x above 2^(p/2 + 4).  Each entry must return
the bits of ``ctx.tan``, ``ctx.atan`` and ``ctx.atan2``.  ``sweep`` draws
floats of the context from 2^-(p+40) to 2^4, of both signs and of short
and full mantissas, zeros, and magnitudes straddling both bands' edges,
in all four quadrants of atan2, and lists every draw whose bits differ.

    python tests/transcendental_sweep.py [DRAWS]

runs DRAWS draws (default 100000) at each precision of ``PRECISIONS`` and
exits 1 on any mismatch; tier-1 runs 2000 per precision
(tests/test_collapse_map.py).
"""

from __future__ import annotations

import random
import sys
import time

from planardyn.collapse_map import _consts
from planardyn.numerics import make_context

PRECISIONS = (53, 64, 100, 128, 200, 256, 512, 1024)


def _float(rng, ctx, mag):
    """A float of ``ctx`` of either sign in [2^(mag-1), 2^mag): a full
    mantissa three times in four, else one of 1 to p bits."""
    p = ctx.prec
    bits = p if rng.random() < 0.75 else rng.randint(1, p)
    man = rng.getrandbits(bits - 1) | (1 << (bits - 1))
    return ctx.ldexp(-man if rng.random() < 0.5 else man, mag - bits)


def _magnitude(rng, p):
    return rng.randint(-(p + 40), 4)


def _tan_arg(rng, ctx):
    p = ctx.prec
    pick = rng.random()
    if pick < 0.05:
        return ctx.zero
    if pick < 0.5:  # straddling the band's edge, 2^-(p//2 + 4)
        return _float(rng, ctx, -(p // 2) - 4 + rng.randint(-3, 3))
    return _float(rng, ctx, _magnitude(rng, p))


def _atan2_args(rng, ctx):
    p = ctx.prec
    pick = rng.random()
    if pick < 0.05:
        zero = ctx.zero
        return rng.choice(((zero, zero), (zero, _float(rng, ctx, _magnitude(rng, p))),
                           (_float(rng, ctx, _magnitude(rng, p)), zero)))
    mx = _magnitude(rng, p)
    if pick < 0.6:  # a steep quotient, about both edges of the band and inside it
        lo, hi = p // 2 + 4, p + 24
        my = mx + rng.choice((lo + rng.randint(-3, 3), hi + rng.randint(-3, 3), rng.randint(lo, hi)))
    else:
        my = _magnitude(rng, p)
    y, x = _float(rng, ctx, my), _float(rng, ctx, mx)
    if pick < 0.45:  # the first quadrant, where the band path runs
        y, x = abs(y), abs(x)
    return y, x


def sweep(ctx, draws, seed):
    """(name, arguments) of each draw where the table of ``ctx`` at its
    present precision and mpmath disagree in a bit."""
    k = _consts(ctx)
    rng = random.Random(f"transcendentals:{ctx.prec}:{seed}")
    bad = []
    for _ in range(draws):
        x = _tan_arg(rng, ctx)
        if k["tan"](x)._mpf_ != ctx.tan(x)._mpf_:
            bad.append(("tan", x))
        x = _tan_arg(rng, ctx) if rng.random() < 0.5 else _float(rng, ctx, _magnitude(rng, ctx.prec))
        if k["atan"](x)._mpf_ != ctx.atan(x)._mpf_:
            bad.append(("atan", x))
        y, x = _atan2_args(rng, ctx)
        if k["atan2"](y, x)._mpf_ != ctx.atan2(y, x)._mpf_:
            bad.append(("atan2", y, x))
    return bad


def main(argv):
    draws = int(argv[1]) if len(argv) > 1 else 100_000
    failed = False
    for prec in PRECISIONS:
        start = time.perf_counter()
        bad = sweep(make_context(prec), draws, seed=0)
        print(f"{prec} bits: {draws} draws, {len(bad)} mismatches, {time.perf_counter() - start:.1f} s")
        for case in bad[:10]:
            print("  ", case)
        failed = failed or bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
