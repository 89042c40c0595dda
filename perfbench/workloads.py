"""Workload definitions: seeded input generation and one operation per input.

Each workload replicates, at reduced size, one of the three certificates
that dominate ``planardyn verify --suite all``:

* ``lift``            criterion 11 (semiconjugacy): big rationals and the
                      Fraction -> big-float conversion;
* ``plane_scan``      criterion 09 (displacement): exact square map on small
                      dyadics, charts in machine doubles;
* ``chart_roundtrip`` criterion 05 (collapse conditions): the collapse
                      charts alone, at 128, 256 and 512 bits.

Inputs depend only on the workload seed.  The program sees only the
generated inputs, through its public functions.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import mpmath

# Inputs generated per run; a run cycles through them if it outlasts them.
POOL_SIZE = 1024

LIFT_PRECISION = 256
LIFT_HORIZON = 100
LIFT_DENOM = 999983
# Dyadic strip-wall heights.  A seed on one of them is lifted back from the
# plane to within 2^-250 of the wall, and its rationals then grow past
# 10^4 bits: the shape of criterion 11's slow seed (-3/5, -1/2).
LIFT_WALLS = (Fraction(-3, 4), Fraction(-1, 2), Fraction(1, 2), Fraction(3, 4))
# Generic seeds keep this distance from the strip walls and the axis: a seed
# just off a wall needs more than the horizon's 100 steps for its limit
# estimate to converge, and the probe then reports it inconclusive.
LIFT_WALL_MARGIN = Fraction(1, 64)
LIFT_NEAR = tuple(Fraction(k, 8) for k in (-7, -6, -4, 0, 4, 6, 7))
# An op whose square-map inputs exceed this many bits counts as heavy.
HEAVY_BITS = 10**4

PLANE_GRID = (20, 20)
PLANE_SIDE = 0.5
PLANE_BOX = 3.0
PLANE_DISK = 100.0

CHART_PRECISIONS = (128, 256, 512)
# 1/100 of criterion 05's sample counts.
COLLAPSE_COUNTS = dict(
    pin_samples=25,
    commutation_samples=50,
    roundtrip_samples=100,
    edge_samples=2,
    path_samples=10,
)
CONE_SAMPLES = 10


def _rational(rng: random.Random, bound: Fraction) -> Fraction:
    """p / LIFT_DENOM drawn uniformly from the open interval (-bound, bound)."""
    top = int(bound * LIFT_DENOM)
    return Fraction(rng.randint(-top, top), LIFT_DENOM)


def _lift_inputs(rng: random.Random):
    bound = Fraction(9, 10)
    out = []
    for k in range(POOL_SIZE):
        r = _rational(rng, bound)
        if k % 3 == 2:  # every third seed sits on a strip wall (the heavy shape)
            s = LIFT_WALLS[(k // 3) % len(LIFT_WALLS)]
        else:
            s = _rational(rng, bound)
            while any(abs(s - w) < LIFT_WALL_MARGIN for w in LIFT_NEAR):
                s = _rational(rng, bound)
        out.append((r, s))
    return out


def _plane_inputs(rng: random.Random):
    out = []
    for k in range(POOL_SIZE):
        if k % 4 == 3:
            # a sub-square inside the radius-100 disk criterion 09 samples
            reach = PLANE_DISK - PLANE_SIDE
            while True:
                cx, cy = rng.uniform(-reach, reach), rng.uniform(-reach, reach)
                if cx * cx + cy * cy <= reach * reach:
                    break
            x0, y0 = cx - PLANE_SIDE / 2, cy - PLANE_SIDE / 2
        else:
            x0 = rng.uniform(-PLANE_BOX, PLANE_BOX - PLANE_SIDE)
            y0 = rng.uniform(-PLANE_BOX, PLANE_BOX - PLANE_SIDE)
        out.append(((x0, x0 + PLANE_SIDE), (y0, y0 + PLANE_SIDE)))
    return out


def _chart_inputs(rng: random.Random):
    return [
        (CHART_PRECISIONS[k % 3], rng.randrange(2**31), rng.randrange(2**31))
        for k in range(POOL_SIZE)
    ]


_GENERATORS = {
    "lift": _lift_inputs,
    "plane_scan": _plane_inputs,
    "chart_roundtrip": _chart_inputs,
}

WORKLOADS = tuple(_GENERATORS)

# Fixed inputs of the untimed warm-up ops, one per kind of op in a workload.
WARMUP_INPUTS = {
    "lift": [(Fraction(1, 3), Fraction(1, 5))],
    "plane_scan": [((0.25, 0.75), (-1.0, -0.5)), ((40.0, 40.5), (-60.0, -59.5))],
    "chart_roundtrip": [(p, 1, 2) for p in CHART_PRECISIONS],
}


def generate(workload: str, seed: int):
    """The input pool of a workload; the same seed gives the same pool."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def digest(inputs) -> str:
    """SHA-256 of the inputs' text form, to compare pools across runs."""
    h = hashlib.sha256()
    for item in inputs:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


class Runner:
    """Set-up state of one workload and the op that consumes one input.

    ``op`` returns ``(ok, evidence)``; ``ok`` is the certificate verdict
    (for ``lift``, also no inconclusive side).  Exceptions propagate.
    """

    def __init__(self, workload: str, pd):
        self.workload = workload
        self.dynamics = pd.dynamics
        if workload == "lift":
            self.ctx = pd.make_context(LIFT_PRECISION)
            self.tol = pd.Tolerances(horizon=LIFT_HORIZON)
            self.contexts = [self.ctx]
            self.precisions = [LIFT_PRECISION]
        elif workload == "plane_scan":
            self.ctx = mpmath.fp
            self.h_spec = pd.dynamics.map_registry(self.ctx)["h"]
            self.contexts = [self.ctx]
            self.precisions = [53]
        else:
            self.by_prec = {p: pd.make_context(p) for p in CHART_PRECISIONS}
            self.tol = pd.DEFAULT_TOLERANCES
            self.contexts = list(self.by_prec.values())
            self.precisions = list(CHART_PRECISIONS)

    def op(self, item):
        dyn = self.dynamics
        if self.workload == "lift":
            cert = dyn.semiconjugacy_probe([item], self.tol, self.ctx)
            return cert.passed and cert.evidence["inconclusive"] == 0, cert.evidence
        if self.workload == "plane_scan":
            cert = dyn.displacement_scan(self.h_spec, item, PLANE_GRID, self.ctx)
            return cert.passed, cert.evidence
        prec, collapse_seed, cone_seed = item
        ctx = self.by_prec[prec]
        conditions = dyn.check_collapse_conditions(
            ctx, self.tol, rng_seed=collapse_seed, **COLLAPSE_COUNTS
        )
        cone = dyn.check_cone_bijectivity(
            ctx, self.tol, rng_seed=cone_seed, samples=CONE_SAMPLES
        )
        return conditions.passed and cone.passed, (conditions.evidence, cone.evidence)
