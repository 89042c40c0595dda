"""Orbit machinery, certificates, and the verification suites."""

import collections
import dataclasses
import inspect
import math
from fractions import Fraction

import mpmath
import pytest

from planardyn import collapse_map
from planardyn.numerics import DEFAULT_TOLERANCES, DomainError, make_context, to_bigfloat
from planardyn import dynamics as dyn
from planardyn import plane_map, square_map
from planardyn.plane_map import _lifted, lifted_core
from planardyn.square_map import square_homeo, square_orbit

import goldens


@pytest.fixture(scope="module")
def registry(ctx):
    return dyn.map_registry(ctx)


def test_registry_contents(registry):
    assert sorted(registry) == [
        "Phi",
        "eta",
        "example12",
        "f",
        "f01",
        "f02",
        "g",
        "h",
        "phi",
        "xi",
        "zeta",
    ]
    assert registry["f"].exact and registry["f"].piece_key is not None
    assert registry["f"].lifted is not None  # the pair-kernel orbit loop
    assert not registry["h"].exact and registry["h"].lifted is not None


def test_orbit_exact_entries(registry):
    rec = dyn.orbit(registry["f"], (Fraction(1, 3), Fraction(1, 5)), (-2, 2))
    assert rec.map_id == "f" and rec.arithmetic == "exact"
    entries = {n: p for n, p in rec.entries}
    assert entries[0] == (Fraction(1, 3), Fraction(1, 5))
    assert entries[1] == (Fraction(-1, 3), Fraction(3, 5))
    assert entries[-1] == (Fraction(-1, 3), Fraction(-3, 10))
    assert entries[-2] == (Fraction(1, 3), Fraction(-13, 20))


def test_orbit_interval_map(registry):
    rec = dyn.orbit(registry["f01"], Fraction(1, 4), (0, 2))
    heights = [p[0] for _, p in rec.entries]
    assert heights == [Fraction(1, 4), Fraction(5, 8), Fraction(13, 16)]


def test_orbit_lifted_map(registry, ctx):
    rec = dyn.orbit(registry["h"], (ctx.mpf(0), ctx.mpf(0)), (0, 2))
    assert rec.arithmetic == "bigfloat"
    entries = {n: p for n, p in rec.entries}
    assert abs(entries[1][1] - 1) < 1e-70
    assert abs(entries[2][1] - ctx.tan(3 * ctx.pi / 8)) < 1e-70


def test_orbit_domain_error_names_the_step(registry):
    with pytest.raises(DomainError, match="step 1"):
        dyn.orbit(registry["eta"], (Fraction(0), Fraction(-1, 4)), (0, 1))
    with pytest.raises(DomainError, match="empty step range"):
        dyn.orbit(registry["f"], (Fraction(0), Fraction(0)), (2, 1))


DEPARTURES = {
    "eta": ((Fraction(1, 3), Fraction(1, 5)), "rising-map inverse needs s in [1/2, 1], got 1/5"),
    "zeta": (
        (Fraction(1, 3), Fraction(-1, 5)),
        "descending-map inverse needs s in [-1, -1/2], got -1/5",
    ),
}


@pytest.mark.parametrize("window", [(-3, 3), (-9, -5)], ids=str)
@pytest.mark.parametrize("name", sorted(DEPARTURES))
def test_orbit_departure_names_the_map_and_the_step(registry, name, window):
    # the inverse leaves the domain at step -1: inside the first window,
    # on the way to the second
    seed, reason = DEPARTURES[name]
    with pytest.raises(DomainError) as excinfo:
        dyn.orbit(registry[name], seed, window)
    assert str(excinfo.value) == f"orbit of {name} left the domain at step -1: {reason}"


def test_orbit_past_no_departure_keeps_its_window(registry):
    seed, _ = DEPARTURES["eta"]
    rec = dyn.orbit(registry["eta"], seed, (5, 9))
    assert [n for n, _ in rec.entries] == [5, 6, 7, 8, 9]
    assert rec.entries[0][1] == (Fraction(-12073, 16875), Fraction(39, 40))
    assert rec.entries[-1][1] == (Fraction(-132599, 135000), Fraction(639, 640))


@pytest.mark.parametrize("name, seed, domain", [
    ("phi", (Fraction(2),), "interval"),
    ("f01", (Fraction(-5, 4),), "interval"),
    ("xi", (0, 3), "square"),
    ("xi", (float("nan"), 0.0), "square"),
    ("eta", (Fraction(0), Fraction(-5, 4)), "square"),
    ("Phi", (Fraction(0), Fraction(1, 4)), "band"),
    ("Phi", (Fraction(3, 2), Fraction(3, 4)), "band"),
], ids=["phi", "f01", "xi", "xi-nan", "eta", "Phi-below", "Phi-beside"])
def test_orbit_checks_its_seed_against_the_domain(registry, name, seed, domain):
    # the seed is checked where it enters, so step 0 alone raises too
    assert registry[name].domain == domain
    with pytest.raises(DomainError, match=f"outside the {domain}"):
        dyn.orbit(registry[name], seed, (0, 0))


def test_orbit_of_a_plane_map_takes_any_seed(registry):
    seed = (Fraction(-40), Fraction(7, 3))
    assert dyn.orbit(registry["example12"], seed, (0, 0)).entries == ((0, seed),)


# (tail window, full half-orbit, the window's slice of the full entries)
TAIL_WINDOWS = (
    ((75, 100), (0, 100), slice(75, None)),
    ((-100, -75), (-100, 0), slice(None, 26)),
)


@pytest.mark.parametrize("name", ["f", "h"])
def test_orbit_window_is_a_slice_of_the_full_orbit(registry, name):
    # a range without 0 still iterates from the seed at step 0
    seed = (Fraction(1, 3), Fraction(1, 5))
    for window, full, part in TAIL_WINDOWS:
        rec = dyn.orbit(registry[name], seed, window)
        assert rec.entries == dyn.orbit(registry[name], seed, full).entries[part]
        assert [n for n, _ in rec.entries] == list(range(window[0], window[1] + 1))


F_SEEDS = (
    (Fraction(1, 3), Fraction(1, 5)),
    (Fraction(-3, 5), Fraction(-1, 2)),  # a strip wall: criterion 11's slow seed
    (Fraction(-1), Fraction(1, 3)),  # the boundary
    (Fraction(123457, 999983), Fraction(3, 4)),
)
# windows with and without step 0, forward, backward and both
F_WINDOWS = ((0, 0), (0, 12), (-12, 0), (-7, 9), (3, 12), (-12, -3))


@pytest.mark.parametrize("seed", F_SEEDS, ids=str)
def test_f_orbit_is_stepwise_square_homeo(registry, seed):
    # f's orbit runs on the square map's pair kernel: the same points as
    # square_homeo applied one step at a time, in both directions
    steps = {0: seed}
    for n in range(1, 13):
        steps[n] = square_homeo(steps[n - 1])
        steps[-n] = square_homeo(steps[1 - n], inverse=True)
    for window in F_WINDOWS:
        rec = dyn.orbit(registry["f"], seed, window)
        assert rec.arithmetic == "exact" and rec.seed == seed
        assert rec.entries == tuple((n, steps[n]) for n in range(window[0], window[1] + 1))
        assert all(type(v) is Fraction for _, p in rec.entries for v in p)


@pytest.mark.parametrize("window", [(0, 0), (1, 3), (-3, -1), (-2, 2)])
def test_f_orbit_rejects_a_seed_outside_the_square(registry, window):
    for seed in ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(-5, 4))):
        with pytest.raises(DomainError, match="outside the square"):
            dyn.orbit(registry["f"], seed, window)


def test_lifted_core_window_is_a_slice_of_the_full_orbit(ctx):
    seed = (Fraction(1, 3), Fraction(1, 5))
    for window, full, part in TAIL_WINDOWS:
        assert lifted_core(seed, window, ctx) == lifted_core(seed, full, ctx)[part]


@pytest.mark.parametrize("side", ["omega", "alpha"])
def test_limit_estimate_pushes_forward_only_its_window(monkeypatch, registry, side):
    # horizon 100 reads steps 75..100: 26 collapses, not the 101 of the orbit
    calls = []
    real = plane_map._collapse_exact

    def counting_collapse(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(plane_map, "_collapse_exact", counting_collapse)
    seed = (Fraction(1, 3), Fraction(1, 5))
    tol = dataclasses.replace(DEFAULT_TOLERANCES, horizon=100)
    dyn.limit_estimate(registry["h"], seed, side, tol)
    assert len(calls) == 26


def test_limit_estimate_converges_to_top_corners(registry, tol):
    est = dyn.limit_estimate(registry["f"], (Fraction(0), Fraction(1, 4)), "omega", tol)
    assert est.converged
    # one candidate per step parity, each with its tail spread
    assert len(est.points) == len(est.final_distances) == 2
    corners = [(Fraction(1), Fraction(1)), (Fraction(-1), Fraction(1))]
    for p in est.points:
        assert min(abs(p[0] - c[0]) + abs(p[1] - c[1]) for c in corners) < Fraction(1, 100)


def test_limit_estimate_alpha_side(registry, tol):
    est = dyn.limit_estimate(registry["f"], (Fraction(0), Fraction(1, 4)), "alpha", tol)
    assert est.converged
    assert all(p[1] < 0 for p in est.points)


def test_ladder_witness_canonical():
    cert = dyn.ladder_witness((Fraction(0), Fraction(1, 4)), 5)
    assert cert.passed
    ladder = dict(tuple(row) for row in cert.evidence["ladder"])
    assert ladder[2] == "2/3"
    assert ladder[4] == "8/9"
    assert ladder[6] == "35/36"
    assert cert.evidence["heights_follow_profile"]
    assert all(row["conclusion"] for row in cert.evidence["block_crossings"])


def test_ladders_run_on_the_square_maps_orbit_loop(monkeypatch):
    # the ladder seeds' heights lie in (0, 1/2], where the square map is
    # the rising map: their points come from square_orbit, unchecked per step
    calls = []
    real = square_map.rise_map

    def counting_rise(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(square_map, "rise_map", counting_rise)
    monkeypatch.setattr(dyn, "rise_map", counting_rise)
    assert dyn.ladder_witness((Fraction(-1, 3), Fraction(1, 7)), 4).passed
    assert dyn.check_ladder_canonical().passed
    assert calls == []


def test_ladder_canonical_iterates_its_seed_once(monkeypatch):
    # the witness reads the first 41 of the check's 200 steps: 200
    # square-map steps, where iterating the witness apart took 240
    calls = []
    real = square_map._homeo
    monkeypatch.setattr(square_map, "_homeo", lambda *a: calls.append(a) or real(*a))
    assert dyn.check_ladder_canonical().passed
    assert len(calls) == 200
    seed = (Fraction(0), Fraction(1, 4))
    points = [p for _, p in square_orbit(seed, ((0, 40),))]
    assert dyn.ladder_witness(seed, 5, points) == dyn.ladder_witness(seed, 5)


def test_ladder_witness_rejects_bad_seed():
    with pytest.raises(DomainError):
        dyn.ladder_witness((Fraction(0), Fraction(3, 4)), 3)


def test_displacement_scan_exact(registry):
    cert = dyn.displacement_scan(registry["f"], ((-1, 1), (-1, 1)), (20, 20))
    assert cert.kind == "fixedpointfree"
    assert cert.passed
    assert cert.evidence["min_displacement"] > 0
    assert len(cert.evidence["argmin"]) == 2


def _reference_scan(spec, region, grid, ctx):
    """``displacement_scan``'s certificate from a plain loop: ``spec.forward``
    at each cell center lo + d (2 j + 1) / 2, both coordinates converted
    per point."""
    (x_lo, x_hi), (y_lo, y_hi) = region
    if spec.exact:
        x_lo, x_hi, y_lo, y_hi = map(Fraction, (x_lo, x_hi, y_lo, y_hi))
        num, lift, measure = Fraction, (lambda v: v), (lambda v: v)
    else:
        num, lift, measure = float, (lambda v: to_bigfloat(v, ctx)), float
    nx, ny = grid
    lo_x, lo_y = num(x_lo), num(y_lo)
    dx, dy = (num(x_hi) - lo_x) / nx, (num(y_hi) - lo_y) / ny
    best = argmin = None
    for i in range(nx):
        for j in range(ny):
            x, y = lift(lo_x + dx * (2 * i + 1) / 2), lift(lo_y + dy * (2 * j + 1) / 2)
            qx, qy = spec.forward((x, y))
            d2 = measure((qx - x) ** 2 + (qy - y) ** 2)
            if best is None or d2 < best:
                best, argmin = d2, (x, y)
    return dyn.Certificate("fixedpointfree", best > 0, {
        "map": spec.name,
        "region": [[str(x_lo), str(x_hi)], [str(y_lo), str(y_hi)]],
        "grid": list(grid),
        "arithmetic": "exact" if spec.exact else "bigfloat",
        "min_displacement": math.sqrt(float(best)),
        "argmin": [str(argmin[0]), str(argmin[1])],
    })


@pytest.mark.parametrize("name, prec, region, grid", [
    ("h", None, ((-3, 3), (-3, 3)), (30, 30)),
    ("h", None, ((40.0, 40.5), (-60.0, -59.5)), (20, 20)),
    ("h", 53, ((0.25, 0.75), (-1.0, -0.5)), (7, 5)),
    ("f", None, ((-1, 1), (-1, 1)), (24, 18)),
], ids=["h-fp", "h-fp-disk", "h-53", "f-exact"])
def test_displacement_scan_is_the_per_point_loop(name, prec, region, grid):
    # the scan binds h's step once and converts each ordinate once; its
    # certificate is the plain loop's, field for field
    ctx = mpmath.fp if prec is None else make_context(prec)
    spec = dyn.map_registry(ctx)[name]
    cert = dyn.displacement_scan(spec, region, grid, ctx)
    assert cert == _reference_scan(spec, region, grid, ctx)
    assert cert.passed and (spec.scan is None) == (name == "f")


def test_orientation_probe_square_map(registry):
    cert = dyn.orientation_probe(registry["f"], 60, rng_seed=7)
    assert cert.passed
    assert cert.evidence["signs"]["negative"] == 60


def test_orientation_probe_detects_preservation(registry):
    # the vertical shift alone preserves orientation, so the probe must fail
    cert = dyn.orientation_probe(registry["f02"], 40, rng_seed=7)
    assert not cert.passed
    assert cert.evidence["signs"]["negative"] == 0


@pytest.mark.parametrize("name", ["f", "h"])
def test_orientation_probe_rejects_zero_samples(registry, ctx, name):
    # zero samples would pass with all-zero signs
    with pytest.raises(DomainError, match="samples"):
        dyn.orientation_probe(registry[name], 0, rng_seed=7, ctx=ctx)


def test_the_battery_calls_no_pl_reference(suite_report):
    # ``verify --suite all`` runs the rows of these three suites; the f
    # probe's piece key reads ``_homeo``'s branch and builds no row
    for suite in ("core", "xi", "plane"):
        suite_report(suite)
    assert not suite_report.reference_calls, suite_report.reference_calls


def test_boundedness_certificate_ray(ctx, tol):
    cert = dyn.boundedness_certificate((Fraction(2), Fraction(0)), (-10, 10), ctx, tol)
    assert cert.passed
    assert cert.evidence["trivial"] and cert.evidence["period"] == 2


def test_boundedness_certificate_interior(ctx, tol):
    cert = dyn.boundedness_certificate((Fraction(0), Fraction(0)), (-60, 60), ctx, tol)
    assert cert.passed
    assert cert.evidence["lift_interior_exact"]
    assert cert.evidence["sup_norm"] > 0
    assert cert.evidence["collapse_boundary_margin"] > 0


def test_boundedness_lifts_once(monkeypatch, ctx, tol):
    # one lift over the window and both tails: steps -400..400 are 800
    # square-map steps, where lifting the window and each tail apart took 1400
    calls = []
    real = square_map._homeo

    def counting_homeo(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(square_map, "_homeo", counting_homeo)
    cert = dyn.boundedness_certificate((Fraction(0), Fraction(0)), (-300, 300), ctx, tol)
    assert len(calls) == 800
    # the suite's orbit_bounded row reads the run's core and steps nothing
    run = dyn.CheckRun(ctx, dyn.DEFAULT_SAMPLER_SEED)
    run.core  # built before the count starts
    calls.clear()
    assert dict(dyn.SUITE_TABLE["plane"])["orbit_bounded"](run) == cert
    assert calls == []


def test_boundedness_margin_reads_the_lift_collapse_points(monkeypatch, ctx):
    # the orbit_bounded row pushes each of steps -400..400 through the
    # collapse once, for the core, and its margin reads those points: no
    # second collapse of the 601 window lifts
    collapses, pushes = [], []
    real_collapse, real_exact = dyn.collapse, plane_map._collapse_exact
    monkeypatch.setattr(dyn, "collapse", lambda *a: collapses.append(a) or real_collapse(*a))
    monkeypatch.setattr(
        plane_map, "_collapse_exact", lambda *a: pushes.append(a) or real_exact(*a)
    )
    run = dyn.CheckRun(ctx, dyn.DEFAULT_SAMPLER_SEED)
    cert = dict(dyn.SUITE_TABLE["plane"])["orbit_bounded"](run)
    assert (len(collapses), len(pushes)) == (0, 801)
    # the margin is the collapse's own value at the closest window lift
    seed, window = dyn._CANONICAL
    lifts = [w for _, w, _ in lifted_core(seed, window, ctx)]
    want = min(
        float(min(1 - abs(c[0]), 1 - abs(c[1]))) for c in (real_collapse(w, ctx) for w in lifts)
    )
    assert cert.evidence["collapse_boundary_margin"] == want


def test_boundedness_needs_the_window_and_both_tails(ctx):
    seed, window = (Fraction(1, 3), Fraction(1, 5)), (-30, 30)
    tol = dataclasses.replace(DEFAULT_TOLERANCES, horizon=40)
    for span in ((-40, 39), (-39, 40), (-29, 40), (0, 40), (-40, 0)):
        with pytest.raises(DomainError, match="miss steps"):
            dyn._boundedness(seed, window, list(_lifted(seed, (span,), ctx)), tol)
    with pytest.raises(DomainError, match="miss steps"):
        dyn._boundedness(seed, window, [], tol)
    # an empty window is a usage error, as an empty range is to lifted_core
    with pytest.raises(DomainError, match="empty step range"):
        dyn.boundedness_certificate(seed, (5, -5), ctx, tol)
    wider = dyn._boundedness(seed, window, list(_lifted(seed, ((-45, 41),), ctx)), tol)
    assert wider == dyn.boundedness_certificate(seed, window, ctx, tol)
    assert wider.evidence["window"] == [-30, 30] and wider.evidence["horizon"] == 40


def test_plane_suite_scans_the_contrast_grid_once(monkeypatch, ctx):
    # the displacement and example_contrast rows share one example12 scan;
    # the h grid is stubbed, as this counts grids and does not check them
    scanned = []
    real = dyn.displacement_scan

    def counting_scan(spec, *args):
        scanned.append(spec.name)
        if spec.name == "h":
            return dyn.Certificate("fixedpointfree", True, {})
        return real(spec, *args)

    monkeypatch.setattr(dyn, "displacement_scan", counting_scan)
    rows = tuple(
        row for row in dyn.SUITE_TABLE["plane"] if row[0] in ("displacement", "example_contrast")
    )
    monkeypatch.setitem(dyn.SUITE_TABLE, "plane", rows)
    report = dyn.run_suite("plane", ctx)
    assert sorted(scanned) == ["example12", "f", "h"]
    grid, contrast = report["certificates"][2:]
    assert grid["evidence"]["map"] == "example12"
    assert contrast["evidence"]["grid_min_displacement"] == grid["evidence"]["min_displacement"]


def test_semiconjugacy_probe_single_seed(ctx, tol):
    cert = dyn.semiconjugacy_probe([(Fraction(1, 3), Fraction(1, 5))], tol, ctx)
    assert cert.passed
    assert cert.evidence["inconclusive"] == 0


def test_semiconjugacy_probe_rejects_no_seeds(ctx, tol):
    # an empty seed list would pass with no rows
    with pytest.raises(DomainError, match="seed"):
        dyn.semiconjugacy_probe([], tol, ctx)


def test_semiconjugacy_probe_lifts_each_seed_once(monkeypatch, ctx):
    # per seed: one lift of its plane point, one orbit pass per map (f and
    # h) of 2 H exact steps each, and a collapse for each of h's 2 (H/4 + 1)
    # tail steps, for the seed's plane point and for f's four candidates;
    # taking each side apart lifted twice and made four passes
    counts = collections.Counter()

    def count(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: counts.update([name]) or real(*a))

    for module, name in (
        (plane_map, "_square_pairs"),
        (plane_map, "_orbit"),
        (square_map, "_orbit"),
        (square_map, "_homeo"),
        (plane_map, "_collapse_exact"),
        (collapse_map, "_collapse_exact"),
    ):
        count(module, name)
    horizon, seeds = 100, [(Fraction(1, 3), Fraction(1, 5)), (Fraction(0), Fraction(1, 4))]
    tol = dataclasses.replace(DEFAULT_TOLERANCES, horizon=horizon)
    assert dyn.semiconjugacy_probe(seeds, tol, ctx).passed
    per_seed = {
        "_square_pairs": 1,
        "_orbit": 2,
        "_homeo": 4 * horizon,
        "_collapse_exact": 2 * (horizon // 4 + 1) + 5,
    }
    assert counts == {name: len(seeds) * n for name, n in per_seed.items()}


@pytest.mark.parametrize("horizon", [*range(1, 9), 100])
def test_both_tails_equal_per_side_limit_estimates(monkeypatch, ctx, horizon):
    # the probe and criterion 04 read both tails from one pass; each pass
    # gives the two estimates limit_estimate gives side by side, so the
    # evidence is what per-side estimates build
    tol = dataclasses.replace(DEFAULT_TOLERANCES, horizon=horizon)

    def per_side(spec, seed, h):
        assert h == horizon
        return tuple(dyn.limit_estimate(spec, seed, side, tol) for side in ("omega", "alpha"))

    seeds = [
        (Fraction(1, 3), Fraction(1, 5)),
        (Fraction(0), Fraction(1, 4)),  # the fixed fiber
        (Fraction(-3, 5), Fraction(-1, 2)),  # a strip wall
    ]
    tails = []
    real = dyn._tails
    monkeypatch.setattr(dyn, "_tails", lambda *a: tails.append((a, real(*a))) or tails[-1][1])
    probe = dyn.semiconjugacy_probe(seeds, tol, ctx)
    limits = dyn.check_interior_limits(dyn.DEFAULT_SAMPLER_SEED + 3, tol)
    assert len(tails) == 2 * len(seeds) + 25
    for args, estimates in tails:
        assert estimates == per_side(*args)
    monkeypatch.setattr(dyn, "_tails", per_side)
    assert dyn.semiconjugacy_probe(seeds, tol, ctx) == probe
    assert dyn.check_interior_limits(dyn.DEFAULT_SAMPLER_SEED + 3, tol) == limits


def test_collapse_conditions_rejects_odd_edge_samples(ctx, tol):
    # edge samples come in +- pairs: an odd count cannot be run as stated,
    # and fewer than one pair would pass the edge condition on no sample
    tiny = dict(pin_samples=1, commutation_samples=1, roundtrip_samples=1, path_samples=1)
    for bad in (1, 3, 0, -2):
        with pytest.raises(DomainError, match="edge_samples"):
            dyn.check_collapse_conditions(ctx, tol, 0, edge_samples=bad, **tiny)
    cert = dyn.check_collapse_conditions(ctx, tol, 0, edge_samples=2, **tiny)
    assert cert.evidence["counts"]["edge"] == 4


@pytest.mark.parametrize(
    "count", ["pin_samples", "commutation_samples", "roundtrip_samples", "path_samples"]
)
def test_collapse_conditions_rejects_zero_counts(ctx, tol, count):
    # zero samples would pass a condition vacuously (path_samples=0 divided by 0)
    tiny = dict(pin_samples=1, commutation_samples=1, roundtrip_samples=1, path_samples=1)
    tiny[count] = 0
    with pytest.raises(DomainError, match=count):
        dyn.check_collapse_conditions(ctx, tol, 0, edge_samples=2, **tiny)


def test_cone_bijectivity_rejects_zero_samples(ctx, tol):
    with pytest.raises(DomainError, match="samples"):
        dyn.check_cone_bijectivity(ctx, tol, 0, samples=0)
    assert dyn.check_cone_bijectivity(ctx, tol, 0, samples=1).evidence["samples"] == 1


def test_precision_scaling_catches_a_double_on_the_chart_path(monkeypatch, tol):
    ctx = make_context(64)
    cert = dyn.check_precision_scaling(ctx, tol, 0)
    assert cert.passed
    assert [row["precision"] for row in cert.evidence["precisions"]] == [64, 128]
    # round every point entering a forward chart through a double: the
    # roundtrip error stays near 2^-53, inside the 64-bit bound and far
    # outside the 128-bit one
    exact = collapse_map.to_bigfloat
    monkeypatch.setattr(
        collapse_map, "_pt", lambda x, c: tuple(c.mpf(float(exact(v, c))) for v in x)
    )
    cert = dyn.check_precision_scaling(ctx, tol, 0)
    assert not cert.passed
    low, high = cert.evidence["precisions"]
    assert low["passed"] and not high["passed"]
    assert high["roundtrip_worst_error"] > 2.0**-60 > high["roundtrip_tolerance"]


# the probes that rows call directly; their ``ctx=None`` is exact
# arithmetic, not a run value, and a row probing a map bound to the run's
# context passes it
PROBES = ("displacement_scan", "orientation_probe")


def _suite_checks():
    """Every function a suite row calls, by name."""
    names = [name for name in vars(dyn) if name.startswith("check_")]
    names += ["_boundedness", "boundedness_certificate", *PROBES]
    return {name: getattr(dyn, name) for name in names}


def test_checks_take_seed_and_tolerances_from_the_table():
    # the suite table is the only statement of a check's seed and run values
    checks = _suite_checks()
    # one per row, but two probes serve two rows each: orientation_probe
    # both orientation rows, displacement_scan f's grid and contrast_grid
    assert len(checks) == len(dyn.SUITE_TABLE["all"]) - 2 == 21
    for label, check in checks.items():
        params = inspect.signature(check).parameters
        for name in ("rng_seed", "tol", "ctx", "core", "contrast_grid"):
            if name == "ctx" and label in PROBES:
                continue
            if name in params:
                assert params[name].default is inspect.Parameter.empty, (label, name)


@pytest.fixture
def stubbed_checks(monkeypatch):
    """Replace every check a row calls by a stub that binds its call to the
    real signature and records (check name, sampler seed); returns the
    record.  The row lambdas look the checks up when they run."""
    calls = []

    def stub(name, real):
        def check(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            calls.append((name, bound.arguments.get("rng_seed")))
            return dyn.Certificate("stub", True, {})

        return check

    for name, real in _suite_checks().items():
        monkeypatch.setattr(dyn, name, stub(name, real))
    return calls


def test_shared_run_values_are_built_on_first_read(monkeypatch, ctx, stubbed_checks):
    # the core and collapse suites read neither shared value; the plane
    # suite builds each once, for the two rows that read it.  f's grid is a
    # scan of its own, in its row
    built = []
    stub_grid = dyn.Certificate("stub", True, {})
    monkeypatch.setattr(dyn, "_lifted", lambda *a: built.append("core") or [])
    monkeypatch.setattr(dyn, "displacement_scan", lambda spec, *a: built.append(spec.name) or stub_grid)
    for name in ("core", "xi"):
        assert dyn.run_suite(name, ctx)["passed"]
        assert built == [], name
    dyn.run_suite("plane", ctx)
    assert sorted(built) == ["core", "example12", "f"]


def test_run_suite_core(suite_report):
    report = suite_report("core")
    assert report["passed"]
    assert len(report["certificates"]) == 7
    checks = [c["evidence"]["check"] for c in report["certificates"]]
    assert checks == [
        "boundary_identity",
        "rising_bijectivity",
        "seam_agreement",
        "reversal_symmetry",
        "ladder_canonical",
        "ladder_random",
        "interior_limits",
    ]
    assert report["metadata"]["sampler_seed"] == dyn.DEFAULT_SAMPLER_SEED


def _all_flags(*keys):
    return lambda e: all(e[key] is True for key in keys)


# criterion 05: per condition, its flag and the tolerance its worst error meets
COLLAPSE_CONDITIONS = {
    "fiber": ("fiber_fixed", "pins"),
    "axis": ("axis_halved", "pins"),
    "edge": ("edges_collapse", "pins"),
    "commutation": ("reflections_commute", "commutation"),
    "roundtrip": ("roundtrip_within_tolerance", "roundtrip"),
}


def _collapse_verdict(e):
    within = {
        key: e["worst_errors"][key] <= e["tolerances"][bound]
        for key, (_, bound) in COLLAPSE_CONDITIONS.items()
    }
    assert all(e[flag] == within[key] for key, (flag, _) in COLLAPSE_CONDITIONS.items())
    return all(within.values()) and e["boundary_path_monotone"] and e["image_avoids_slits"]


def _scaling_verdict(e):
    rows = e["precisions"]
    for row in rows:
        assert row["passed"] == (
            row["roundtrip_worst_error"] <= row["roundtrip_tolerance"]
            and row["cone_worst_error"] <= row["cone_tolerance"]
        )
    return all(row["passed"] for row in rows)


def _slit_verdict(e):
    final = all(side["final_error"] < 1e-6 for side in e["sides"])
    monotone = all(b < a for side in e["sides"] for a, b in zip(side["last5"], side["last5"][1:]))
    assert (e["final_below_1e-6"], e["last_five_strictly_decreasing"]) == (final, monotone)
    return final and monotone


def _semiconjugacy_verdict(e):
    sides = [seed[side] for seed in e["seeds"] for side in ("omega", "alpha")]
    assert e["inconclusive"] == sides.count("inconclusive")
    return all(side["match"] for side in sides if side != "inconclusive")


def _displacement_verdict(e):
    # h's row adds a random-disk scan to its grid scan
    disk = e.get("random_disk")
    return e["min_displacement"] > 0 and (disk is None or disk["min_displacement"] > 0)


def _bounded_verdict(e):
    if e["trivial"]:
        return e["period"] == 2
    return _all_flags("lift_interior_exact", "omega_matches_limit_pair", "alpha_matches_limit_pair")(e)


# per suite-table label, ``passed`` recomputed from the row's evidence
VERDICTS = {
    "boundary_identity": _all_flags(
        "rule_matches_reflected_shift", "inverse_rule_matches", "horizontal_edges_two_periodic"
    ),
    "rising_bijectivity": _all_flags("lines_map_to_shifted_lines", "roundtrip_identity"),
    "seam_agreement": _all_flags("agree"),
    "reversal_symmetry": _all_flags("agree"),
    "ladder_canonical": _all_flags(
        "frozen_values_match", "even_steps_nondecreasing_to_200", "gap_bounds_hold", "witness_passed"
    ),
    "ladder_random": _all_flags("all_passed"),
    "interior_limits": _all_flags("all_matched"),
    "collapse_conditions": _collapse_verdict,
    "cone_bijectivity": lambda e: e["worst_error"] <= e["tolerance"],
    "precision_scaling": _scaling_verdict,
    "slit_continuity": _slit_verdict,
    # the one row whose evidence does not carry its result: its "exact":
    # true is a constant of the check, not a finding
    "rays_exact": None,
    "plane_convergence": lambda e: all(
        n is not None and n <= 5000 for n in e["first_settled_step"].values()
    ),
    "excursion": lambda e: e["sup_norm"] > e["threshold"],
    "displacement": _displacement_verdict,
    "orientation": lambda e: e["signs"]["negative"] == e["samples"],
    "semiconjugacy": lambda e: e["inconclusive"] == 0 and _semiconjugacy_verdict(e),
    "example_contrast": lambda e: (
        e["grid_positive"] == (e["grid_min_displacement"] > 0)
        and _all_flags("grid_positive", "involution_beyond_band_exact", "orbit_heights_linear")(e)
    ),
    "orbit_bounded": _bounded_verdict,
    "ray_period_two": _bounded_verdict,
}


@pytest.mark.parametrize("suite", ["core", "xi", "plane"])
def test_every_verdict_follows_from_its_evidence(suite_report, suite):
    assert set(VERDICTS) == {label for label, _ in dyn.SUITE_TABLE["all"]}
    for cert in suite_report(suite)["certificates"]:
        rule = VERDICTS[cert["evidence"]["check"]]
        if rule is None:
            assert cert["evidence"]["exact"] is True
            continue
        assert rule(cert["evidence"]) == cert["passed"], cert["evidence"]["check"]


def test_run_suite_unknown_name(ctx):
    with pytest.raises(DomainError):
        dyn.run_suite("everything", ctx)


@pytest.mark.parametrize(
    "error", [ZeroDivisionError("division by zero"), DomainError("value 2 above 1")], ids=repr
)
def test_run_suite_records_a_raising_check_as_a_failed_certificate(monkeypatch, ctx, error):
    # the raising row fails as one certificate naming its error, and the
    # suite goes on to the next row
    def broken(run):
        raise error

    rows = dict(dyn.SUITE_TABLE["core"])
    table = (("boundary_identity", broken), ("seam_agreement", rows["seam_agreement"]))
    monkeypatch.setitem(dyn.SUITE_TABLE, "core", table)
    report = dyn.run_suite("core", ctx)
    assert not report["passed"]
    failed, after = report["certificates"]
    assert failed == {
        "kind": "error",
        "passed": False,
        "evidence": {
            "error": type(error).__name__,
            "message": str(error),
            "check": "boundary_identity",
        },
    }
    assert after["passed"] and after["evidence"]["check"] == "seam_agreement"


def test_run_suite_writes_nothing_into_a_certificate(monkeypatch, ctx):
    # two rows return one certificate object, as the contrast grid's row
    # and any row that returns a shared run value can: each report row
    # carries its own label, and the certificate's evidence is the one its
    # check made
    shared = dyn.Certificate("stub", True, {"value": 1})
    table = (("first", lambda run: shared), ("second", lambda run: shared))
    monkeypatch.setitem(dyn.SUITE_TABLE, "core", table)
    report = dyn.run_suite("core", ctx)
    assert shared.evidence == {"value": 1}
    assert [c["evidence"] for c in report["certificates"]] == [
        {"value": 1, "check": "first"},
        {"value": 1, "check": "second"},
    ]


def test_suite_table_labels_and_seed_offsets(monkeypatch, ctx, stubbed_checks):
    # every check and probe is stubbed (each records its name and sampler
    # seed), and so is the core; the contrast grid's row builds the grid
    # with the stubbed scan
    monkeypatch.setattr(dyn.CheckRun, "core", [])
    rows = []

    def run_suite(name):
        stubbed_checks.clear()
        report = dyn.run_suite(name, ctx, rng_seed=100)
        # one call per row, in row order
        labels = [label for label, _ in dyn.SUITE_TABLE[name]]
        rows.extend((label, *call) for label, call in zip(labels, stubbed_checks, strict=True))
        return report

    run_suite("core")
    assert rows == [
        ("boundary_identity", "check_boundary_identity", None),
        ("rising_bijectivity", "check_rising_bijectivity", 100),
        ("seam_agreement", "check_seam_agreement", None),
        ("reversal_symmetry", "check_reversal_symmetry", 101),
        ("ladder_canonical", "check_ladder_canonical", None),
        ("ladder_random", "check_ladder_random", 102),
        ("interior_limits", "check_interior_limits", 103),
    ]
    rows.clear()
    xi = run_suite("xi")
    assert [c["evidence"]["check"] for c in xi["certificates"]] == [
        "collapse_conditions",
        "cone_bijectivity",
        "precision_scaling",
    ]
    plane = run_suite("plane")
    assert [c["evidence"]["check"] for c in plane["certificates"]] == [
        "slit_continuity",
        "rays_exact",
        "plane_convergence",
        "excursion",
        "displacement",
        "displacement",
        "displacement",
        "orientation",
        "orientation",
        "semiconjugacy",
        "example_contrast",
        "orbit_bounded",
        "ray_period_two",
    ]
    # h's orientation row and example_contrast both draw from offset 8
    assert rows == [
        ("collapse_conditions", "check_collapse_conditions", 104),
        ("cone_bijectivity", "check_cone_bijectivity", 105),
        ("precision_scaling", "check_precision_scaling", 110),
        ("slit_continuity", "check_slit_continuity", None),
        ("rays_exact", "check_rays_exact", 106),
        ("plane_convergence", "check_plane_convergence", None),
        ("excursion", "check_excursion", None),
        ("displacement", "displacement_scan", None),
        ("displacement", "check_plane_displacement", 109),
        ("displacement", "displacement_scan", None),
        ("orientation", "orientation_probe", 107),
        ("orientation", "orientation_probe", 108),
        ("semiconjugacy", "check_semiconjugacy", None),
        ("example_contrast", "check_example_contrast", 108),
        ("orbit_bounded", "_boundedness", None),
        ("ray_period_two", "boundedness_certificate", None),
    ]


@pytest.mark.parametrize("suite", ["core", "xi", "plane"])
def test_reports_hold_one_certificate_per_row(suite_report, suite):
    # each row returns one certificate, which ``run_suite`` reports as is
    report = suite_report(suite)
    labels = [label for label, _ in dyn.SUITE_TABLE[suite]]
    assert [c["evidence"]["check"] for c in report["certificates"]] == labels
    if suite == "plane":
        # three displacement and two orientation rows, each naming its map,
        # in the order the goldens select them by
        assert [(c["evidence"]["check"], c["evidence"].get("map")) for c in report["certificates"]] == [
            ("slit_continuity", None),
            ("rays_exact", None),
            ("plane_convergence", None),
            ("excursion", None),
            ("displacement", "f"),
            ("displacement", "h"),
            ("displacement", "example12"),
            ("orientation", "f"),
            ("orientation", "h"),
            ("semiconjugacy", None),
            ("example_contrast", None),
            ("orbit_bounded", None),
            ("ray_period_two", None),
        ]


def test_a_raising_probe_fails_its_own_row_only(monkeypatch, ctx, stubbed_checks):
    # h's orientation probe raises: f's orientation row keeps its evidence
    monkeypatch.setattr(dyn.CheckRun, "core", [])

    def probe(spec, *args, **kwargs):
        if spec.name == "h":
            raise DomainError("probe failed")
        return dyn.Certificate("orientation", True, {"map": spec.name})

    monkeypatch.setattr(dyn, "orientation_probe", probe)
    report = dyn.run_suite("plane", ctx, rng_seed=100)
    rows = [c for c in report["certificates"] if c["evidence"]["check"] == "orientation"]
    assert rows == [
        {"kind": "orientation", "passed": True, "evidence": {"map": "f", "check": "orientation"}},
        {
            "kind": "error",
            "passed": False,
            "evidence": {"error": "DomainError", "message": "probe failed", "check": "orientation"},
        },
    ]


# the session's reports are at 256 bits and the default sampler seed; CI
# writes the others and checks them with ``tests/goldens.py``
OFF_PRECISION = pytest.mark.skip(reason="CI-only: a report at another precision than the session's 256 bits")
OFF_SEED = pytest.mark.skip(reason="CI-only: a report at another sampler seed than the session's")


def _session_marks(golden):
    if golden.precision != 256:
        return OFF_PRECISION
    return OFF_SEED if golden.seed != dyn.DEFAULT_SAMPLER_SEED else ()


@pytest.mark.parametrize("golden", [
    pytest.param(g, id=g.file.removesuffix(".json"), marks=_session_marks(g))
    for g in goldens.GOLDENS
])
def test_report_matches_golden(suite_report, golden):
    # each golden file against the report of its suite at the default seed
    # and 256 bits, as ``goldens.GOLDENS`` selects its certificates
    report = suite_report(golden.suite)
    assert goldens.applies(golden, report)
    assert report["metadata"]["tolerances"] == DEFAULT_TOLERANCES.report(make_context(256))
    assert goldens.pinned(golden, report) == goldens.read(golden)
