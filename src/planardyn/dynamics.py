"""Orbits, limit estimates, and verification certificates.

Everything the command-line ``verify`` command and the acceptance tests
check lives here, in plain functions returning :class:`Certificate`
values: exact claims (boundary identity, monotone shear ladder, positive
displacement, orientation signs) carry exact evidence, floating-point
claims carry the tolerances they were checked at.  ``SUITE_TABLE`` lists
each suite's rows in report order: a label and one call of its check on
the run's ``CheckRun``.  That call states the check's sampler-seed offset
and run values and is the only place they are stated: no check has a
default seed or tolerance.  A ``CheckRun`` holds the context, the sampler
seed and the tolerances, and builds the two values rows share on first
read, once per run: ``core``, the canonical plane orbit, and
``contrast_grid``, the contrast example's displacement grid.
``run_suite`` runs a suite; the ``verify`` command prints its report and
the acceptance battery reads the same reports, so a green verify run and
a green test suite are the same statement.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property

import mpmath
from fractions import Fraction
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

from .collapse_map import (
    _collapse_charts,
    cone_map,
    collapse,
    collapse_inv,
    slit_arc_angle,
)
from .numerics import (
    DEFAULT_TOLERANCES,
    LIMITSET,
    DomainError,
    Tolerances,
    as_rational,
    coprime_fraction,
    make_context,
    to_bigfloat,
)
from .plane_map import (
    _lifted,
    example_shift_reflection,
    plane_homeo,
    quotient_square_map,
    tangent_chart,
)
from .square_map import (
    _forward_piece_key,
    _steps,
    as_square_point,
    descend_map,
    reflect,
    rise_map,
    shear_profile,
    square_homeo,
    square_orbit,
    strip_shear,
    vertical_shift,
)
from .strips import (
    HALF,
    SHIFT_PROFILE,
    block_index,
    shear_bound,
    shift_profile_pow,
    split_height,
    strip_bounds,
)

DEFAULT_SAMPLER_SEED = 12021

CORNERS_TOP = [(-1.0, 1.0), (1.0, 1.0)]
CORNERS_BOTTOM = [(-1.0, -1.0), (1.0, -1.0)]
LIMIT_PAIR = [(-1.0, 0.0), (1.0, 0.0)]


@dataclass(frozen=True)
class MapSpec:
    """A named map with its iteration data: domain kind, arithmetic kind,
    forward/inverse callables, and an optional orbit routine on an exact
    pair kernel.

    ``lifted(seed, windows)`` returns a list of (n, point) for each step of
    each window in turn, from one pass.  f and h have one, and share its
    loop (``square_map._orbit``): f iterates its seed's integer pairs, h its
    seed's exact lift, and each builds output only for the returned steps.
    """

    name: str
    domain: str  # "interval" | "square" | "band" | "plane"
    exact: bool
    forward: Callable
    inverse: Callable
    lifted: Optional[Callable] = None
    piece_key: Optional[Callable] = None


@dataclass(frozen=True)
class OrbitRecord:
    map_id: str
    seed: tuple
    arithmetic: str  # "exact" | "bigfloat"
    entries: Tuple[tuple, ...]  # (n, point), n contiguous


@dataclass(frozen=True)
class LimitEstimate:
    points: tuple  # candidate limit points, even-parity candidate first
    final_distances: tuple  # per candidate: max tail distance in its parity class
    converged: bool


@dataclass(frozen=True)
class Certificate:
    kind: str  # boundedness | fixedpointfree | orientation | conjugacy | error
    passed: bool
    evidence: dict


def _invertible(name: str, domain: str, fn: Callable, *ctx, **extra) -> MapSpec:
    """Spec of a map written as ``fn(p[, ctx], inverse=False)``; it is exact
    unless bound to a context."""
    return MapSpec(
        name,
        domain,
        not ctx,
        lambda p: fn(p, *ctx),
        lambda p: fn(p, *ctx, inverse=True),
        **extra,
    )


def map_registry(ctx) -> Dict[str, MapSpec]:
    """All maps addressable by id.  Exact maps take and return rationals;
    chart-based maps are bound to the given context."""
    phi = shear_profile(1)
    specs = [
        MapSpec("f01", "interval", True, SHIFT_PROFILE, SHIFT_PROFILE.inverse),
        MapSpec("phi", "interval", True, phi, phi.inverse),
        _invertible("f02", "square", vertical_shift),
        _invertible("Phi", "band", strip_shear),
        _invertible("eta", "square", rise_map),
        _invertible("zeta", "square", descend_map),
        _invertible(
            "f",
            "square",
            square_homeo,
            lifted=square_orbit,
            piece_key=_forward_piece_key,
        ),
        MapSpec(
            "xi",
            "square",
            False,
            lambda p: collapse(p, ctx),
            lambda p: collapse_inv(p, ctx),
        ),
        _invertible("g", "square", quotient_square_map, ctx),
        _invertible(
            "h",
            "plane",
            plane_homeo,
            ctx,
            lifted=lambda seed, windows: [(n, y) for n, _, _, y in _lifted(seed, windows, ctx)],
        ),
        _invertible("example12", "plane", example_shift_reflection),
    ]
    return {spec.name: spec for spec in specs}


def _arith(spec: MapSpec) -> str:
    return "exact" if spec.exact else "bigfloat"


# each seed coordinate's closed range, per domain kind; a plane seed has none
_SEED_RANGES = {
    "interval": ((-1, 1),),
    "square": ((-1, 1), (-1, 1)),
    "band": ((-1, 1), (HALF, 1)),
}


def orbit(spec: MapSpec, seed, n_range: Tuple[int, int]) -> OrbitRecord:
    """Iterate a map over an inclusive integer step range of any sign.

    The range need not contain 0: iteration always starts at the seed
    (step 0), and only the requested steps are returned.  Steps below zero
    use the inverse; an orbit leaving the map's domain raises a DomainError
    naming the step, also at a step before the range.  Maps with a
    ``lifted`` routine (f and h) get their points from it: one loop on
    integer pairs (``square_map._orbit``) with no per-step rounding or
    Fraction, which builds only the requested steps.  f checks its seed
    once there, the other maps here against their domain kind: a seed
    outside it raises before any step.  These step through ``forward`` and
    ``inverse``, since eta and zeta, say, can leave their domain mid-orbit.
    """
    steps = _steps((n_range,))
    scalar = spec.domain == "interval"
    if scalar:
        seed = (seed[0] if isinstance(seed, (tuple, list)) else seed,)
    else:
        seed = (seed[0], seed[1])
    if spec.exact:
        seed = tuple(as_rational(v) for v in seed)
    if spec.lifted is not None:
        entries = tuple((n, tuple(y)) for n, y in spec.lifted(seed, (n_range,)))
        return OrbitRecord(spec.name, seed, _arith(spec), entries)
    ranges = _SEED_RANGES.get(spec.domain, ())
    # negated in-range tests, so a NaN coordinate fails them
    if not all(lo <= v <= hi for v, (lo, hi) in zip(seed, ranges)):
        raise DomainError(f"seed ({', '.join(map(str, seed))}) outside the {spec.domain}")

    def apply(fn, p, n):
        arg = p[0] if scalar else p
        try:
            out = fn(arg)
        except DomainError as exc:
            raise DomainError(
                f"orbit of {spec.name} left the domain at step {n}: {exc}"
            ) from exc
        return (out,) if scalar else tuple(out)

    points = {0: seed}
    for step, fn, stop in ((1, spec.forward, steps[-1]), (-1, spec.inverse, steps[0])):
        p = points[0]
        for n in range(step, stop + step, step):
            p = apply(fn, p, n)
            points[n] = p
    entries = tuple((n, points[n]) for n in steps)
    return OrbitRecord(spec.name, seed, _arith(spec), entries)


def _as_floats(p) -> Tuple[float, ...]:
    return tuple(float(v) for v in p)


def _dist(p, q) -> float:
    return math.dist(_as_floats(p), _as_floats(q))


def _tail_range(side: str, horizon: int) -> Tuple[int, int]:
    """A limit estimate's tail window: the last quarter of the side's steps."""
    start = horizon - horizon // 4
    return (start, horizon) if side == "omega" else (-horizon, -start)


def _cluster(entries) -> LimitEstimate:
    """The limit estimate of tail entries (n, point), n of one sign."""
    window = sorted(entries, key=lambda e: abs(e[0]), reverse=True)  # most converged first
    points, dists = [], []
    for wanted in (0, 1):  # even steps, then odd
        pts = [p for n, p in window if n % 2 == wanted]
        if pts:
            points.append(pts[0])
            floats = [_as_floats(p) for p in pts]
            dists.append(max(math.dist(floats[0], q) for q in floats))
    converged = not any(spread > LIMITSET for spread in dists)
    return LimitEstimate(tuple(points), tuple(dists), converged)


def limit_estimate(
    spec: MapSpec,
    seed,
    side: str = "omega",
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> LimitEstimate:
    """Cluster the far tail (last quarter) of an orbit into candidate limit
    points, split by step parity.

    The orbit is asked for the tail window only, steps ``start..horizon``
    (omega) or ``-horizon..-start`` (alpha): iteration still starts at the
    seed, but only the window's points are returned, so a lifted map pushes
    forward those steps and no others.  Candidates are actual orbit points,
    the most-converged point of each parity class.  ``converged`` requires
    every even-step tail point to sit within the cluster radius of the even
    candidate and likewise for odd; a wandering tail reports
    ``converged=False`` rather than raising.
    """
    if side not in ("omega", "alpha"):
        raise DomainError(f"side must be omega or alpha, got {side}")
    return _cluster(orbit(spec, seed, _tail_range(side, tol.horizon)).entries)


def _tails(spec: MapSpec, seed, horizon: int) -> Tuple[LimitEstimate, LimitEstimate]:
    """The omega and alpha ``limit_estimate`` of f or h, from one call of
    its ``lifted`` routine over both tail windows: one lift, one pass."""
    omega = _tail_range("omega", horizon)
    entries = spec.lifted(seed, (omega, _tail_range("alpha", horizon)))
    size = omega[1] - omega[0] + 1  # steps per tail window
    return _cluster(entries[:size]), _cluster(entries[size:])


def _matched(points, targets, radius: float) -> Optional[set]:
    """The targets lying within radius of some point, or None when some
    point lies within radius of no target."""
    matched = set()
    for p in points:
        hits = {t for t in targets if _dist(p, t) <= radius}
        if not hits:
            return None
        matched |= hits
    return matched


def ladder_witness(seed, m_max: int, points: Optional[list] = None) -> Certificate:
    """Certificate of the monotone shear ladder for a seed in the rising band.

    Exact checks: (a) the even-step abscissas are nondecreasing from the
    first block boundary at which the seed's height clears the split
    height; (b) whenever a block is entered to the right of its plateau's
    left edge, that block's passes push the abscissa past the plateau's
    right edge; (c) the heights follow the shift profile exactly.
    ``points``, if given, are the seed's points at steps 0..block_index(m_max) + 2 m_max.
    """
    r0, s0 = as_square_point(seed)
    if not (-1 < r0 < 1) or not (0 < s0 <= Fraction(1, 2)):
        raise DomainError(
            f"ladder seeds need abscissa in (-1,1), height in (0, 1/2], got ({r0}, {s0})"
        )
    if m_max < 1:
        raise DomainError(f"m_max must be >= 1, got {m_max}")
    mu = 1
    while split_height(mu) > s0:
        mu += 1
    i_max = block_index(m_max) + 2 * m_max
    # heights in [0, 1] rise: the square map's orbit is the rising map's
    if points is None:
        points = [p for _, p in square_orbit((r0, s0), ((0, i_max),))]
    rs = [p[0] for p in points]
    start = block_index(mu)
    evens = list(range(start, i_max + 1, 2))
    check_a = all(rs[i] <= rs[j] for i, j in zip(evens, evens[1:]))
    block_rows = []
    for m in range(mu + 1, m_max + 1):
        km = block_index(m)
        premise = rs[km] > -shear_bound(m)
        conclusion = rs[km + 2 * m] > shear_bound(m) if premise else None
        block_rows.append(
            {
                "m": m,
                "k": km,
                "entry": str(rs[km]),
                "exit": str(rs[km + 2 * m]),
                "premise": premise,
                "conclusion": conclusion,
            }
        )
    check_b = all(row["conclusion"] for row in block_rows if row["premise"])
    check_c = all(p[1] == shift_profile_pow(s0, i) for i, p in enumerate(points))
    evidence = {
        "seed": [str(r0), str(s0)],
        "mu": mu,
        "m_max": m_max,
        "ladder": [[i, str(rs[i])] for i in evens],
        "monotone_from_block_boundary": check_a,
        "block_crossings": block_rows,
        "heights_follow_profile": check_c,
    }
    return Certificate("boundedness", check_a and check_b and check_c, evidence)


def displacement_scan(
    spec: MapSpec,
    region: Tuple[Tuple, Tuple],
    grid: Tuple[int, int],
    ctx=None,
) -> Certificate:
    """Minimum displacement of a map over the cell centers of a grid.

    Exact maps run on exact rationals and the positivity verdict is an
    exact strict inequality; otherwise the cell centers are laid out in
    doubles and the scan runs in the given context.  Cell centers never
    lie on the region boundary.
    """
    (x_lo, x_hi), (y_lo, y_hi) = region
    nx, ny = grid
    if nx < 1 or ny < 1:
        raise DomainError(f"grid must be positive, got {grid}")
    if spec.exact:
        x_lo, x_hi, y_lo, y_hi = map(Fraction, (x_lo, x_hi, y_lo, y_hi))
        num, lift, measure = Fraction, (lambda v: v), (lambda v: v)
    else:
        num, lift, measure = float, (lambda v: to_bigfloat(v, ctx)), float
    lo_x, lo_y = num(x_lo), num(y_lo)
    dx, dy = (num(x_hi) - lo_x) / nx, (num(y_hi) - lo_y) / ny
    best = None
    argmin = None
    for i in range(nx):
        x = lift(lo_x + dx * (2 * i + 1) / 2)
        for j in range(ny):
            y = lift(lo_y + dy * (2 * j + 1) / 2)
            qx, qy = spec.forward((x, y))
            d2 = measure((qx - x) ** 2 + (qy - y) ** 2)
            if best is None or d2 < best:
                best, argmin = d2, (x, y)
    evidence = {
        "map": spec.name,
        "region": [[str(x_lo), str(x_hi)], [str(y_lo), str(y_hi)]],
        "grid": list(grid),
        "arithmetic": _arith(spec),
        "min_displacement": math.sqrt(float(best)),
        "argmin": [str(argmin[0]), str(argmin[1])],
    }
    return Certificate("fixedpointfree", best > 0, evidence)


# the sampler's grid: a random rational is drawn with this denominator (a prime)
SAMPLE_DENOM = 999983


def _rand_fraction(rng: random.Random, lo, hi) -> Fraction:
    """lo + (hi - lo) k / SAMPLE_DENOM for a random k in [1, SAMPLE_DENOM - 1];
    lo and hi are ints or Fractions; one gcd reduces the value's Fraction."""
    k = rng.randint(1, SAMPLE_DENOM - 1)
    a, b, c, e = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    n, d = a * e * SAMPLE_DENOM + (c * b - a * e) * k, b * e * SAMPLE_DENOM
    g = math.gcd(n, d)
    return coprime_fraction(n // g, d // g)


def _rand_point(rng: random.Random, lo, hi) -> Tuple[Fraction, Fraction]:
    """A random rational point of the square [lo, hi]^2, abscissa drawn first."""
    return (_rand_fraction(rng, lo, hi), _rand_fraction(rng, lo, hi))


def orientation_probe(
    spec: MapSpec,
    samples: int,
    rng_seed: int,
    region=((-1, 1), (-1, 1)),
    ctx=None,
) -> Certificate:
    """Signed areas of images of small right triangles at random samples.

    Passes iff every signed area is negative (orientation reversal).
    Samples whose triangle straddles a nonsmooth seam are re-drawn, at most
    five times: detected exactly through the map's affine piece key when
    available, otherwise inferred from a non-negative area (seams have
    measure zero, so redraws stay rare); redraw counts are reported.  At
    least one sample, so the probe cannot pass on none.
    """
    if samples < 1:
        raise DomainError(f"samples must be at least 1, got {samples}")
    rng = random.Random(rng_seed)
    leg = Fraction(1, 2**20)
    max_redraw = 5
    signs = {"negative": 0, "positive": 0, "zero": 0}
    redraws = 0
    min_abs_area = None
    exact = spec.exact

    def draw():
        if exact:
            margin = 4 * leg
            return tuple(
                _rand_fraction(rng, Fraction(lo) + margin, Fraction(hi) - margin)
                for lo, hi in region
            )
        return tuple(
            to_bigfloat(rng.uniform(float(lo) + 0.01, float(hi) - 0.01), ctx)
            for lo, hi in region
        )

    lg = leg if exact else to_bigfloat(float(leg), ctx)

    def triangle(p):
        return (p, (p[0] + lg, p[1]), (p[0], p[1] + lg))

    def signed_area2(p):
        a, b, c = (spec.forward(v) for v in triangle(p))
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    for _ in range(samples):
        area2 = None
        for attempt in range(max_redraw + 1):
            p = draw()
            if exact and spec.piece_key is not None:
                if len({spec.piece_key(v) for v in triangle(p)}) > 1:
                    redraws += 1
                    continue
            area2 = signed_area2(p)
            if not exact and area2 >= 0 and attempt < max_redraw:
                redraws += 1
                area2 = None
                continue
            break
        if area2 is None or area2 == 0:
            signs["zero"] += 1
            continue
        if area2 < 0:
            signs["negative"] += 1
        else:
            signs["positive"] += 1
        mag = abs(float(area2))
        if min_abs_area is None or mag < min_abs_area:
            min_abs_area = mag
    evidence = {
        "map": spec.name,
        "samples": samples,
        "leg": str(leg),
        "signs": signs,
        "redraws": redraws,
        "min_abs_signed_area": min_abs_area,
        "arithmetic": _arith(spec),
    }
    return Certificate("orientation", signs["negative"] == samples, evidence)


def _sup_norm(core) -> Tuple[float, int]:
    """Largest plane norm over ``_lifted`` entries and the first step attaining it."""
    sup, arg = 0.0, 0
    for n, _, _, y in core:
        norm = math.hypot(*_as_floats(y))
        if norm > sup:
            sup, arg = norm, n
    return sup, arg


def _lift_span(window: Tuple[int, int], horizon: int) -> Tuple[int, int]:
    """The steps boundedness evidence reads: the window and both tails."""
    _steps((window,))  # an empty window raises
    return (min(window[0], -horizon), max(window[1], horizon))


def _boundedness(seed, window: Tuple[int, int], core, tol: Tolerances) -> Certificate:
    """``boundedness_certificate`` of a seed with a lift, read from its
    ``_lifted`` entries ``core``, which must hold every step of
    ``_lift_span(window, tol.horizon)`` (else DomainError)."""
    first = core[0][0] if core else 0
    lo, hi = _lift_span(window, tol.horizon)
    if not (first <= lo and hi - first < len(core)):
        raise DomainError(f"orbit entries miss steps of {lo}..{hi}")
    part = core[window[0] - first : window[1] - first + 1]
    interior_ok = all(abs(w[0]) < w[1] and abs(w[2]) < w[3] for _, w, _, _ in part)
    sup_norm, arg_sup = _sup_norm(part)
    margin = min(float(min(1 - abs(c[0]), 1 - abs(c[1]))) for _, _, c, _ in part)
    # each tail must converge and realise both points of the limit pair
    pair = set(LIMIT_PAIR)
    est, ok = {}, {}
    for side in ("omega", "alpha"):
        n_lo, n_hi = _tail_range(side, tol.horizon)
        est[side] = _cluster([(n, y) for n, _, _, y in core[n_lo - first : n_hi - first + 1]])
        ok[side] = est[side].converged and _matched(est[side].points, pair, LIMITSET) == pair
    evidence = {
        "seed": [str(seed[0]), str(seed[1])],
        "trivial": False,
        "window": list(window),
        "lift_interior_exact": interior_ok,
        "collapse_boundary_margin": margin,
        "sup_norm": sup_norm,
        "sup_norm_at": arg_sup,
        "omega_converged": est["omega"].converged,
        "alpha_converged": est["alpha"].converged,
        "omega_matches_limit_pair": ok["omega"],
        "alpha_matches_limit_pair": ok["alpha"],
        "horizon": tol.horizon,
    }
    return Certificate("boundedness", interior_ok and ok["omega"] and ok["alpha"], evidence)


def boundedness_certificate(
    seed, window: Tuple[int, int], ctx, tol: Tolerances
) -> Certificate:
    """Boundedness evidence for one plane orbit.

    Ray seeds, and seeds whose chart preimage rounds onto a slit, have no
    lift: they are exactly period two and certify trivially.  Otherwise the
    seed lifts to an exact rational square point and the certificate
    records (i) the exact statement that every lifted iterate in the
    window stays strictly inside the open square, (ii) forward and
    backward limit estimates matching the two-point limit pair, (iii) the
    smallest distance of the collapsed iterates from the square boundary,
    and (iv) the sup norm of the plane orbit over the window.  It passes
    on (i) and (ii).  The seed is lifted once, over the window and both
    tails together, and all four read that one orbit.
    """
    core = list(_lifted(seed, (_lift_span(window, tol.horizon),), ctx))
    first = core[0][0]
    if core[0][1] is None:
        cycle = [[str(v) for v in core[n - first][3]] for n in (0, 1)]
        evidence = {"seed": [str(v) for v in seed], "trivial": True, "orbit": cycle, "period": 2}
        return Certificate("boundedness", True, evidence)
    return _boundedness(seed, window, core, tol)


def semiconjugacy_probe(seeds: Sequence, tol: Tolerances, ctx) -> Certificate:
    """Pushforward check: collapse-then-tangent of the square map's limit
    candidates against the plane map's own limit candidates, both sides.

    Seeds are exact rational points of the open square, at least one, so
    the probe cannot pass on none.  Non-converged estimates mark a seed
    inconclusive instead of failing it.  Each seed is lifted once (``_tails``).
    """
    if not seeds:
        raise DomainError("semiconjugacy_probe needs at least one seed")
    reg = map_registry(ctx)
    f_spec, h_spec = reg["f"], reg["h"]
    rows = []
    all_ok = True
    inconclusive = 0
    for seed in seeds:
        w0 = as_square_point(seed)
        plane_seed = tangent_chart(collapse(w0, ctx), ctx)
        row = {"seed": [str(w0[0]), str(w0[1])]}
        tails_f, tails_h = _tails(f_spec, w0, tol.horizon), _tails(h_spec, plane_seed, tol.horizon)
        for side, est_f, est_h in zip(("omega", "alpha"), tails_f, tails_h):
            if not (est_f.converged and est_h.converged):
                row[side] = "inconclusive"
                inconclusive += 1
                continue
            pushed = [
                _as_floats(tangent_chart(collapse(p, ctx), ctx)) for p in est_f.points
            ]
            h_pts = [_as_floats(p) for p in est_h.points]
            ok = _matched(pushed, h_pts, LIMITSET) == set(h_pts)
            row[side] = {
                "pushed": [[round(v, 9) for v in p] for p in pushed],
                "plane": [[round(v, 9) for v in p] for p in h_pts],
                "match": ok,
            }
            if not ok:
                all_ok = False
        rows.append(row)
    evidence = {"seeds": rows, "inconclusive": inconclusive, "tolerance": LIMITSET}
    return Certificate("conjugacy", all_ok, evidence)


# --------------------------------------------------------------------------
# certificate battery backing the acceptance criteria and the CLI verify
# command, at the acceptance sample counts.
# --------------------------------------------------------------------------


def check_boundary_identity() -> Certificate:
    """Exact boundary rule: on the square boundary the map is the vertical
    shift followed by the level reflection, and the horizontal edges are
    two-periodic."""
    per_edge = 250
    pts = []
    for k in range(per_edge + 1):
        t = Fraction(2 * k, per_edge) - 1
        pts.extend([(t, Fraction(1)), (t, Fraction(-1)), (Fraction(1), t), (Fraction(-1), t)])
    rule_ok = all(
        square_homeo(p) == reflect(vertical_shift(p), "level") for p in pts
    )
    inv_rule_ok = all(
        square_homeo(p, inverse=True)
        == vertical_shift(reflect(p, "level"), inverse=True)
        for p in pts
    )
    period_ok = all(
        square_homeo(square_homeo((t, s))) == (t, s)
        for (t, s) in pts
        if abs(s) == 1
    )
    evidence = {
        "boundary_points": len(pts),
        "rule_matches_reflected_shift": rule_ok,
        "inverse_rule_matches": inv_rule_ok,
        "horizontal_edges_two_periodic": period_ok,
        "arithmetic": "exact",
    }
    return Certificate("boundedness", rule_ok and inv_rule_ok and period_ok, evidence)


def check_rising_bijectivity(rng_seed: int) -> Certificate:
    """Exact roundtrip and line-to-line structure at random rational points."""
    rng = random.Random(rng_seed)
    samples = 10**4
    rising_ok = True
    roundtrip_ok = True
    for _ in range(samples):
        p = _rand_point(rng, -1, 1)
        q = square_homeo(p)
        if q[1] != SHIFT_PROFILE(p[1]):
            rising_ok = False
            break
        if square_homeo(q, inverse=True) != p:
            roundtrip_ok = False
            break
        if square_homeo(square_homeo(p, inverse=True)) != p:
            roundtrip_ok = False
            break
    evidence = {
        "samples": samples,
        "sampler_seed": rng_seed,
        "lines_map_to_shifted_lines": rising_ok,
        "roundtrip_identity": roundtrip_ok,
        "arithmetic": "exact",
    }
    return Certificate("conjugacy", rising_ok and roundtrip_ok, evidence)


def check_seam_agreement() -> Certificate:
    """The piecewise definitions agree on their shared seams, exactly."""
    per_seam = 200
    zero, half = Fraction(0), Fraction(1, 2)
    ok = True
    for k in range(per_seam + 1):
        r = Fraction(2 * k, per_seam) - 1
        sides = (
            # forward seam at height 0: rising map vs reflected shift
            (rise_map((r, zero)), reflect(vertical_shift((r, zero)), "level")),
            # forward seam at height -1/2: reflected shift vs inverse descending
            (reflect(vertical_shift((r, -half)), "level"), descend_map((r, -half), inverse=True)),
            # inverse seam at height 1/2: rising inverse vs shifted reflection
            (rise_map((r, half), inverse=True), vertical_shift(reflect((r, half), "level"), inverse=True)),
            # inverse seam at height 0: shifted reflection vs descending forward
            (vertical_shift(reflect((r, zero), "level"), inverse=True), descend_map((r, zero))),
        )
        if any(a != b for a, b in sides):
            ok = False
    return Certificate(
        "conjugacy",
        ok,
        {"samples_per_seam": per_seam + 1, "seams": [0, "-1/2", "1/2 (inverse)", "0 (inverse)"], "agree": ok},
    )


def check_reversal_symmetry(rng_seed: int) -> Certificate:
    """Exact time-reversal: the inverse equals the vertical-flip conjugate."""
    rng = random.Random(rng_seed)
    samples = 500
    # stops drawing at the first failure
    ok = all(
        square_homeo(p, inverse=True) == reflect(square_homeo(reflect(p, "vertical")), "vertical")
        for p in (_rand_point(rng, -1, 1) for _ in range(samples))
    )
    return Certificate(
        "conjugacy", ok, {"samples": samples, "sampler_seed": rng_seed, "agree": ok}
    )


def check_ladder_canonical() -> Certificate:
    """The frozen ladder of the canonical band seed (0, 1/4): early values,
    global monotonicity of even steps, and per-block gap bounds."""
    seed = (Fraction(0), Fraction(1, 4))
    pts = [p for _, p in square_orbit(seed, ((0, 200),))]
    rs = [p[0] for p in pts]
    frozen_ok = rs[2:7:2] == [Fraction(2, 3), Fraction(8, 9), Fraction(35, 36)]
    evens = list(range(2, 201, 2))
    monotone_ok = all(rs[i] <= rs[j] for i, j in zip(evens, evens[1:]))
    gaps = {m: 1 - rs[block_index(m) + 2 * m] for m in (2, 3, 4, 5)}
    gaps_ok = all(gap < Fraction(1, 2**m) for m, gap in gaps.items())
    witness = ladder_witness(seed, 5, pts[: block_index(5) + 2 * 5 + 1])
    evidence = {
        "seed": ["0", "1/4"],
        "early_values": [str(r) for r in rs[2:7:2]],
        "frozen_values_match": frozen_ok,
        "even_steps_nondecreasing_to_200": monotone_ok,
        "block_exit_gaps": {m: str(gap) for m, gap in gaps.items()},
        "gap_bounds_hold": gaps_ok,
        "witness_passed": witness.passed,
        "mu": witness.evidence["mu"],
    }
    return Certificate(
        "boundedness", frozen_ok and monotone_ok and gaps_ok and witness.passed, evidence
    )


def check_ladder_random(rng_seed: int) -> Certificate:
    """Ladder witnesses for random seeds in the open band (0, 1/2]."""
    rng = random.Random(rng_seed)
    count = 25
    certs = []
    for _ in range(count):
        r = _rand_fraction(rng, Fraction(-9, 10), Fraction(9, 10))  # abscissa drawn first
        certs.append(ladder_witness((r, _rand_fraction(rng, 0, Fraction(1, 2))), 5))
    mus = [cert.evidence["mu"] for cert in certs]
    all_ok = all(cert.passed for cert in certs)
    return Certificate(
        "boundedness",
        all_ok,
        {"count": count, "sampler_seed": rng_seed, "mus": mus, "all_passed": all_ok},
    )


def check_interior_limits(rng_seed: int, tol: Tolerances) -> Certificate:
    """Random interior seeds drift to the top corners forward and the
    bottom corners backward, within the limit-set tolerance.  A seed on the
    fiber converges to one corner per parity, so a tail need not realise
    both corners of its pair."""
    rng = random.Random(rng_seed)
    f_spec = map_registry(None)["f"]
    count = 25
    all_ok = True
    worst = 0.0
    for _ in range(count):
        seed = _rand_point(rng, Fraction(-9, 10), Fraction(9, 10))
        est_o, est_a = _tails(f_spec, seed, tol.horizon)
        ok_o = est_o.converged and _matched(est_o.points, CORNERS_TOP, LIMITSET) is not None
        ok_a = est_a.converged and _matched(est_a.points, CORNERS_BOTTOM, LIMITSET) is not None
        worst = max(worst, *(est_o.final_distances + est_a.final_distances))
        if not (ok_o and ok_a):
            all_ok = False
    evidence = {
        "count": count,
        "sampler_seed": rng_seed,
        "window": list(_tail_range("omega", tol.horizon)),
        "tolerance": LIMITSET,
        "max_tail_spread": worst,
        "all_matched": all_ok,
    }
    return Certificate("boundedness", all_ok, evidence)


_SLIT_MARGIN = Fraction(1, 1000)


def _roundtrip_point(rng: random.Random) -> Tuple[Fraction, Fraction]:
    """A random square point 1/1000 or more inside the boundary, kept the
    same distance from the slits' preimage (the vertical-edge
    neighborhoods map near the slits)."""
    m = _SLIT_MARGIN
    r, s = _rand_point(rng, -1 + m, 1 - m)
    # |s| < m and |r| > 1/3, read off numerators and denominators
    if abs(s.numerator) * m.denominator < m.numerator * s.denominator and 3 * abs(r.numerator) > r.denominator:
        s = s + m if s >= 0 else s - m
    return (r, s)


def _sup_error(y, target, ctx):
    """Sup-norm distance of a context-float point from an exact one."""
    return max(abs(y[0] - to_bigfloat(target[0], ctx)), abs(y[1] - to_bigfloat(target[1], ctx)))


def _cone_roundtrip_error(rng: random.Random, pi, ctx):
    """Sup-norm roundtrip defect of the cone map at a random point of its
    source rectangle [0, pi] x [0, 1]."""
    alpha = pi * to_bigfloat(_rand_fraction(rng, 0, 1), ctx)
    rho = to_bigfloat(_rand_fraction(rng, 0, 1), ctx)
    back = cone_map(cone_map((alpha, rho), ctx), ctx, inverse=True)
    return max(abs(back[0] - alpha), abs(back[1] - rho))


def check_collapse_conditions(
    ctx,
    tol: Tolerances,
    rng_seed: int,
    pin_samples: int = 2500,
    commutation_samples: int = 5000,
    roundtrip_samples: int = 10**4,
    edge_samples: int = 100,
    path_samples: int = 10**3,
) -> Certificate:
    """The collapse's defining conditions, checked through the charts.

    (1) fiber fixed pointwise and axis halved, evaluated via the chart
    composition itself (no pinned shortcuts) against the exact targets;
    (2) the right edge collapses to the outer slit endpoint, and the top
    right boundary path traverses [top edge -> right edge -> slit]
    monotonically; (3) the collapse commutes with both reflections
    exactly, as it charts one quarter and mirrors the rest;
    plus the interior roundtrip at the chart tolerance with a margin from
    the boundary and slits, and the image staying off the slits.  Every
    count must be at least 1, so no condition passes on zero samples; edge
    samples come in +- pairs, so ``edge_samples`` must be even and at
    least 2.
    """
    counts = {
        "pin_samples": pin_samples,
        "commutation_samples": commutation_samples,
        "roundtrip_samples": roundtrip_samples,
        "path_samples": path_samples,
    }
    for name, count in counts.items():
        if count < 1:
            raise DomainError(f"{name} must be at least 1, got {count}")
    if edge_samples < 2 or edge_samples % 2:
        raise DomainError(f"edge_samples must be even and at least 2, got {edge_samples}")
    rng = random.Random(rng_seed)
    pin_bound = tol.pin_bound(ctx)
    roundtrip_bound = tol.chart_roundtrip_bound(ctx)
    worst = dict.fromkeys(("fiber", "axis", "edge", "commutation", "roundtrip"), ctx.zero)
    ok = dict.fromkeys(worst, True)

    def record(key, e, bound=pin_bound):
        # context floats, as the bound may lie below the doubles; float() once, at the end
        worst[key] = max(worst[key], e)
        if e > bound:
            ok[key] = False

    def err(y, target):
        return _sup_error(y, target, ctx)

    def charts(r, s):
        return _collapse_charts((r, s), ctx)

    for _ in range(pin_samples):
        s = _rand_fraction(rng, -1, 1)
        record("fiber", err(charts(0, s), (Fraction(0), s)))
    for _ in range(pin_samples):
        r = _rand_fraction(rng, -1, 1)
        if r != 0:
            record("axis", err(charts(r, 0), (r / 2, Fraction(0))))
    for k in range(edge_samples // 2):
        # nonzero heights only: (1, 0) is the edge chart's own center
        for s in (Fraction(2 * k + 1, edge_samples), -Fraction(2 * k + 1, edge_samples)):
            for side in (1, -1):
                record("edge", err(charts(side, s), (Fraction(side, 2), Fraction(0))))
    # boundary path [top-mid -> top-right corner -> edge-mid -> slit end]:
    # collapse images of (r, 1) march monotonically along
    # top wall -> right wall -> slit as r runs from 0 to 1.
    def path_position(y) -> float:
        y0, y1 = float(y[0]), float(y[1])
        if abs(y1 - 1) <= 1e-12:
            return y0
        if abs(y0 - 1) <= 1e-12:
            return 1 + (1 - y1)
        return 2 + 2 * (1 - y0)

    path = [
        path_position(collapse((Fraction(k, path_samples), Fraction(1)), ctx))
        for k in range(path_samples + 1)
    ]
    path_ok = all(b > a for a, b in zip(path, path[1:]))
    for _ in range(commutation_samples):
        x = _rand_point(rng, -1, 1)
        y = collapse(x, ctx)
        y_lvl = collapse(reflect(x, "level"), ctx)
        y_vrt = collapse(reflect(x, "vertical"), ctx)
        e = max(
            abs(y_lvl[0] + y[0]),
            abs(y_lvl[1] - y[1]),
            abs(y_vrt[0] - y[0]),
            abs(y_vrt[1] + y[1]),
        )
        record("commutation", e, 0)
    image_off_slits = True
    for _ in range(roundtrip_samples):
        x = _roundtrip_point(rng)
        y = collapse(x, ctx)
        if x[0] != 0 and x[1] != 0 and y[1] == 0:
            image_off_slits = False
        record("roundtrip", err(collapse_inv(y, ctx), x), roundtrip_bound)
    passed = all(ok.values()) and path_ok and image_off_slits
    evidence = {
        "sampler_seed": rng_seed,
        "counts": {
            "fiber": pin_samples,
            "axis": pin_samples,
            "edge": 2 * edge_samples,
            "path": path_samples + 1,
            "commutation": commutation_samples,
            "roundtrip": roundtrip_samples,
        },
        "worst_errors": {key: float(e) for key, e in worst.items()},
        "fiber_fixed": ok["fiber"],
        "axis_halved": ok["axis"],
        "edges_collapse": ok["edge"],
        "boundary_path_monotone": path_ok,
        "reflections_commute": ok["commutation"],
        "roundtrip_within_tolerance": ok["roundtrip"],
        "image_avoids_slits": image_off_slits,
        "tolerances": {
            "pins": float(pin_bound),
            "commutation": 0.0,
            "roundtrip": float(roundtrip_bound),
        },
    }
    return Certificate("conjugacy", passed, evidence)


def check_cone_bijectivity(
    ctx,
    tol: Tolerances,
    rng_seed: int,
    samples: int = 10**3,
) -> Certificate:
    """Roundtrip of the radial extension on random rectangle points; at
    least one sample, so the check cannot pass on none."""
    if samples < 1:
        raise DomainError(f"samples must be at least 1, got {samples}")
    rng = random.Random(rng_seed)
    pi = +ctx.pi
    bound = tol.pin_bound(ctx)
    worst = max(_cone_roundtrip_error(rng, pi, ctx) for _ in range(samples))
    return Certificate(
        "conjugacy",
        bool(worst <= bound),
        {
            "samples": samples,
            "sampler_seed": rng_seed,
            "worst_error": float(worst),
            "tolerance": float(bound),
        },
    )


def check_precision_scaling(ctx, tol: Tolerances, rng_seed: int) -> Certificate:
    """The chart and cone roundtrips at the run's precision p and at 2p, on
    100 samples each.

    Both precisions draw the same sample points, and each must meet the
    bounds 2^(h - prec) of its own precision.  An error that does not shrink
    with the precision fails at 2p: a value rounded through a double on the
    chart path keeps an error near 2^-53 however many bits the context
    carries.
    """
    samples = 100
    rows = []
    for c in (ctx, make_context(2 * ctx.prec)):
        roundtrip_bound = tol.chart_roundtrip_bound(c)
        cone_bound = tol.pin_bound(c)
        rng = random.Random(rng_seed)
        roundtrip = max(
            _sup_error(collapse_inv(collapse(x, c), c), x, c)
            for x in (_roundtrip_point(rng) for _ in range(samples))
        )
        pi = +c.pi
        cone = max(_cone_roundtrip_error(rng, pi, c) for _ in range(samples))
        rows.append(
            {
                "precision": c.prec,
                "roundtrip_worst_error": float(roundtrip),
                "roundtrip_tolerance": float(roundtrip_bound),
                "cone_worst_error": float(cone),
                "cone_tolerance": float(cone_bound),
                "passed": bool(roundtrip <= roundtrip_bound and cone <= cone_bound),
            }
        )
    return Certificate(
        "conjugacy",
        all(row["passed"] for row in rows),
        {"samples": samples, "sampler_seed": rng_seed, "precisions": rows},
    )


def check_slit_continuity(ctx) -> Certificate:
    """Continuity of the quotient map at the slit point (3/4, 0): approach
    sequences from above and below give values converging to the pinned
    image (-3/4, 0), with a monotone tail ending below 1e-6.

    The sequences follow the pullback of the slit's two sides: square
    points at the corner offset tan(astar/2) whose height lands mid-zone
    of an odd level, where the row is the identity, so they converge
    geometrically, at the rate of their heights.  Raw approaches do not
    converge at any height reached: at (3/4, -2^-k) the image stays
    0.25-0.31 from (-3/4, 0) for every k from 32 to 98,304.  A shear zone
    of block n translates the row by its gain 2 b_n / n, about 2/n, which
    holds the image at the slit's outer end until the gain falls below the
    slit arc's width astar = pi/2^15: around block 2^14.3 and level 2^28.7,
    an estimate from the gain formula, not a measurement.
    """
    terms = 18
    target = (Fraction(-3, 4), Fraction(0))
    a = ctx.tan(slit_arc_angle(ctx) / 2)
    rows = []
    ok_final = True
    ok_monotone = True
    for side in ("above", "below"):
        errs = []
        approach_dist = []
        for k in range(terms):
            level = 5 + 2 * k
            lo, mid, hi = strip_bounds(level)
            sigma = (mid + hi) / 2
            if side == "above":
                w = (1 - a, to_bigfloat(1 - 2 * (1 - sigma), ctx))
            else:
                w = (1 - a, -to_bigfloat(sigma, ctx))
            x = collapse(w, ctx)
            approach_dist.append(_dist(x, (Fraction(3, 4), Fraction(0))))
            y = quotient_square_map(x, ctx)
            errs.append(_dist(y, target))
        if errs[-1] >= 1e-6:
            ok_final = False
        last5 = errs[-5:]
        if any(b >= a_ for a_, b in zip(last5, last5[1:])):
            ok_monotone = False
        rows.append(
            {
                "side": side,
                "levels": f"odd 5..{5 + 2 * (terms - 1)}",
                "sequence_distance_to_slit_point": [approach_dist[0], approach_dist[-1]],
                "final_error": errs[-1],
                "last5": last5,
            }
        )
    return Certificate(
        "conjugacy",
        ok_final and ok_monotone,
        {
            "slit_point": ["3/4", "0"],
            "pinned_image": ["-3/4", "0"],
            "sides": rows,
            "final_below_1e-6": ok_final,
            "last_five_strictly_decreasing": ok_monotone,
        },
    )


def check_rays_exact(ctx, rng_seed: int) -> Certificate:
    """The two rays reflect exactly and are exactly two-periodic."""
    rng = random.Random(rng_seed)
    samples = 10**3

    def reflects(x) -> bool:
        p, q = (x, Fraction(0)), (-x, Fraction(0))
        return (
            plane_homeo(p, ctx) == q
            and plane_homeo(q, ctx) == p
            and plane_homeo(p, ctx, inverse=True) == q
        )

    # stops drawing at the first failure
    ok = all(
        reflects(rng.choice((-1, 1)) * (1 + _rand_fraction(rng, 0, 50))) for _ in range(samples)
    )
    return Certificate(
        "conjugacy",
        ok,
        {"samples": samples, "sampler_seed": rng_seed, "exact": True, "period": 2},
    )


# the canonical plane orbit and the window that orbit_bounded certifies
_CANONICAL = ((Fraction(0), Fraction(0)), (-300, 300))


def check_plane_convergence(core) -> Certificate:
    """Both tails of the canonical plane orbit land within 0.05 of the
    limit pair and stay there for 200 steps: reports the first window
    start on each side."""
    radius, hold = 0.05, 200
    dist = {n: min(_dist(y, t) for t in LIMIT_PAIR) for n, _, _, y in core}
    span = max(dist)
    found = {}
    for label, sgn in (("omega", 1), ("alpha", -1)):
        n_found = None
        for start in range(0, span - hold + 1):
            if all(dist[sgn * (start + k)] < radius for k in range(hold + 1)):
                n_found = start
                break
        found[label] = n_found
    passed = all(v is not None and v <= 5000 for v in found.values())
    tail_max = None
    if passed:
        settle = max(found.values())
        tail_max = max(dist[n] for n in dist if abs(n) >= settle)
    evidence = {
        "seed": ["0", "0"],
        "radius": radius,
        "hold_steps": hold,
        "first_settled_step": found,
        "computed_span": span,
        "max_tail_distance": tail_max,
    }
    return Certificate("boundedness", passed, evidence)


def check_excursion(core) -> Certificate:
    """The canonical plane orbit leaves any moderate disk before settling:
    its sup norm over |n| <= 300 exceeds 1000."""
    span, threshold = 300, 1e3
    sup, arg = _sup_norm([e for e in core if abs(e[0]) <= span])
    evidence = {
        "seed": ["0", "0"],
        "span": span,
        "sup_norm": sup,
        "attained_at": arg,
        "threshold": threshold,
    }
    return Certificate("boundedness", sup > threshold, evidence)


def check_semiconjugacy(ctx, tol: Tolerances) -> Certificate:
    """Five exact seeds, including one on the fixed fiber."""
    seeds = [
        (Fraction(0), Fraction(1, 4)),
        (Fraction(1, 3), Fraction(1, 5)),
        (Fraction(-2, 7), Fraction(3, 8)),
        (Fraction(1, 2), Fraction(-1, 3)),
        (Fraction(-3, 5), Fraction(-1, 2)),
    ]
    cert = semiconjugacy_probe(seeds, tol, ctx)
    if cert.evidence["inconclusive"]:
        return Certificate("conjugacy", False, cert.evidence)
    return cert


def check_displacement_battery(rng_seed: int, contrast_grid: Certificate) -> List[Certificate]:
    """Positive displacement for the square map (exact), the plane map
    (machine-float grid plus random disk samples: density is what matters
    there, not digits), and the contrast example (the run's exact grid)."""
    fast_ctx = mpmath.fp
    h_spec = map_registry(fast_ctx)["h"]
    h_grid = displacement_scan(h_spec, ((-3, 3), (-3, 3)), (300, 300), fast_ctx)
    rng = random.Random(rng_seed)
    rand_min, rand_argmin = None, None
    samples = 10**3
    for _ in range(samples):
        while True:
            x = rng.uniform(-100.0, 100.0)
            y = rng.uniform(-100.0, 100.0)
            if math.hypot(x, y) <= 100.0:
                break
        qx, qy = h_spec.forward((x, y))
        d = math.hypot(float(qx) - x, float(qy) - y)
        if rand_min is None or d < rand_min:
            rand_min, rand_argmin = d, (x, y)
    h_cert = Certificate(
        "fixedpointfree",
        h_grid.passed and rand_min > 0,
        {
            **h_grid.evidence,
            "random_disk": {
                "radius": 100.0,
                "samples": samples,
                "sampler_seed": rng_seed,
                "min_displacement": rand_min,
                "argmin": list(rand_argmin),
            },
        },
    )
    return [
        displacement_scan(map_registry(None)["f"], ((-1, 1), (-1, 1)), (200, 200)),
        h_cert,
        contrast_grid,
    ]


def check_orientation_battery(ctx, rng_seed: int) -> List[Certificate]:
    """Orientation reversal for the square map (exact triangles) and the
    plane map (big-float triangles)."""
    reg = map_registry(ctx)
    samples = 10**3
    return [
        orientation_probe(reg["f"], samples, rng_seed),
        orientation_probe(
            reg["h"], samples, rng_seed + 1, region=((-2, 2), (-2, 2)), ctx=ctx
        ),
    ]


def check_example_contrast(rng_seed: int, contrast_grid: Certificate) -> Certificate:
    """The contrast example: fixed-point free on the run's grid, exactly an
    involution beyond the unit band, orbit heights grow linearly."""
    rng = random.Random(rng_seed)

    def involution_holds() -> bool:
        p = (rng.choice((-1, 1)) * (1 + _rand_fraction(rng, 0, 20)), _rand_fraction(rng, -20, 20))
        return example_shift_reflection(example_shift_reflection(p)) == p

    # stops drawing at the first failure
    involution_ok = all(involution_holds() for _ in range(10**3))
    climb = orbit(map_registry(None)["example12"], (0, 0), (0, 100)).entries
    heights_ok = all(p == (0, n) for n, p in climb)
    evidence = {
        "grid_min_displacement": contrast_grid.evidence["min_displacement"],
        "grid_positive": contrast_grid.passed,
        "involution_beyond_band_exact": involution_ok,
        "orbit_heights_linear": heights_ok,
        "sampler_seed": rng_seed,
    }
    return Certificate(
        "fixedpointfree", contrast_grid.passed and involution_ok and heights_ok, evidence
    )


@dataclass(frozen=True)
class CheckRun:
    """One run of the battery: the context and sampler seed every row
    reads, the tolerances, and the two values plane rows share, each built
    on first read and then kept for the run."""

    ctx: object
    rng_seed: int
    tol: ClassVar[Tolerances] = DEFAULT_TOLERANCES

    @cached_property
    def core(self) -> list:
        """The canonical plane orbit over the steps ``orbit_bounded`` reads."""
        seed, window = _CANONICAL
        return list(_lifted(seed, (_lift_span(window, self.tol.horizon),), self.ctx))

    @cached_property
    def contrast_grid(self) -> Certificate:
        """The contrast example's displacement grid, in exact arithmetic."""
        return displacement_scan(map_registry(None)["example12"], ((-2, 2), (-2, 2)), (100, 100))


# a row: the report label and the check's call on the run, whose seed
# offsets are pinned by the goldens (the next unused offset is 11)
SUITE_TABLE: Dict[str, Tuple[Tuple[str, Callable[[CheckRun], object]], ...]] = {
    "core": (
        ("boundary_identity", lambda run: check_boundary_identity()),
        ("rising_bijectivity", lambda run: check_rising_bijectivity(run.rng_seed)),
        ("seam_agreement", lambda run: check_seam_agreement()),
        ("reversal_symmetry", lambda run: check_reversal_symmetry(run.rng_seed + 1)),
        ("ladder_canonical", lambda run: check_ladder_canonical()),
        ("ladder_random", lambda run: check_ladder_random(run.rng_seed + 2)),
        ("interior_limits", lambda run: check_interior_limits(run.rng_seed + 3, run.tol)),
    ),
    "xi": (
        ("collapse_conditions", lambda run: check_collapse_conditions(run.ctx, run.tol, run.rng_seed + 4)),
        ("cone_bijectivity", lambda run: check_cone_bijectivity(run.ctx, run.tol, run.rng_seed + 5)),
        ("precision_scaling", lambda run: check_precision_scaling(run.ctx, run.tol, run.rng_seed + 10)),
    ),
    "plane": (
        ("slit_continuity", lambda run: check_slit_continuity(run.ctx)),
        ("rays_exact", lambda run: check_rays_exact(run.ctx, run.rng_seed + 6)),
        ("plane_convergence", lambda run: check_plane_convergence(run.core)),
        ("excursion", lambda run: check_excursion(run.core)),
        ("displacement", lambda run: check_displacement_battery(run.rng_seed + 9, run.contrast_grid)),
        ("orientation", lambda run: check_orientation_battery(run.ctx, run.rng_seed + 7)),
        ("semiconjugacy", lambda run: check_semiconjugacy(run.ctx, run.tol)),
        ("example_contrast", lambda run: check_example_contrast(run.rng_seed + 8, run.contrast_grid)),
        ("orbit_bounded", lambda run: _boundedness(*_CANONICAL, run.core, run.tol)),
        ("ray_period_two", lambda run: boundedness_certificate((2, 0), (-300, 300), run.ctx, run.tol)),
    ),
}
SUITE_TABLE["all"] = SUITE_TABLE["core"] + SUITE_TABLE["xi"] + SUITE_TABLE["plane"]


def run_suite(name: str, ctx, rng_seed: int = DEFAULT_SAMPLER_SEED) -> dict:
    """Run a named certificate suite at ``DEFAULT_TOLERANCES``; returns a
    JSON-ready report; a check that raises fails as an "error" certificate."""
    if name not in SUITE_TABLE:
        raise DomainError(f"unknown suite {name!r}")
    run = CheckRun(ctx, rng_seed)
    certs = []
    for label, check in SUITE_TABLE[name]:
        try:
            out = check(run)
        except Exception as exc:
            out = Certificate("error", False, {"error": type(exc).__name__, "message": str(exc)})
        for cert in out if isinstance(out, list) else [out]:
            cert.evidence["check"] = label
            certs.append(cert)
    return {
        "suite": name,
        "passed": all(c.passed for c in certs),
        "certificates": [
            {"kind": c.kind, "passed": c.passed, "evidence": c.evidence} for c in certs
        ],
        "metadata": {
            "sampler_seed": rng_seed,
            "precision": ctx.prec,
            "tolerances": DEFAULT_TOLERANCES.report(ctx),
        },
    }
