"""Acceptance battery: one test per acceptance criterion, full sample counts.

The certificates come from the ``core``, ``xi`` and ``plane`` suite reports
(the ``suite_report`` fixture, one ``run_suite`` call per suite), looked up
by their suite-table label.  Each test prints a single ``[PASS]``/``[FAIL]``
line (visible under ``-s``; under plain ``-v`` the test name itself is the
per-criterion line) and asserts the certificate plus the criterion's stated
bound.
"""

from planardyn import dynamics as dyn
from planardyn.numerics import LIMITSET


def _certs(suite_report, suite: str, label: str):
    """The certificates a suite's report carries under one table label."""
    certs = [
        dyn.Certificate(**c)
        for c in suite_report(suite)["certificates"]
        if c["evidence"]["check"] == label
    ]
    assert certs, f"suite {suite} has no certificate labelled {label}"
    return certs


def _report(num: int, label: str, cert, detail: str = ""):
    status = "PASS" if cert.passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num:02d}: {label}{suffix}")
    assert cert.passed, f"criterion {num:02d} {label}: {cert.evidence}"


def test_criterion_01_boundary_identity(suite_report):
    (cert,) = _certs(suite_report, "core", "boundary_identity")
    _report(1, "boundary identity and two-periodic horizontal edges", cert)


def test_criterion_02_rising_bijectivity(suite_report):
    (cert,) = _certs(suite_report, "core", "rising_bijectivity")
    _report(2, "exact roundtrips and line-to-line rise", cert,
            f"{cert.evidence['samples']} samples")


def test_criterion_03_canonical_ladder(suite_report):
    (cert,) = _certs(suite_report, "core", "ladder_canonical")
    _report(3, "canonical seed climbs the shear ladder", cert)


def test_criterion_04_interior_limits(suite_report):
    (cert,) = _certs(suite_report, "core", "interior_limits")
    _report(4, "interior seeds drift to the horizontal-edge corners", cert,
            f"{cert.evidence['count']} seeds, tol {LIMITSET}")


def test_criterion_05_collapse_conditions(suite_report):
    (cert,) = _certs(suite_report, "xi", "collapse_conditions")
    (cone,) = _certs(suite_report, "xi", "cone_bijectivity")
    (scaling,) = _certs(suite_report, "xi", "precision_scaling")
    worst = cert.evidence["worst_errors"]
    detail = (
        f"roundtrip {worst['roundtrip']:.3g} < {cert.evidence['tolerances']['roundtrip']:.3g}, "
        f"cone {cone.evidence['worst_error']:.3g} < {cone.evidence['tolerance']:.3g}"
    )
    assert cone.passed, f"criterion 05 cone extension: {cone.evidence}"
    assert scaling.passed, f"criterion 05 precision scaling: {scaling.evidence}"
    _report(5, "collapse pins, charts, and cone extension", cert, detail)


def test_criterion_06_slit_continuity(suite_report):
    (cert,) = _certs(suite_report, "plane", "slit_continuity")
    finals = [row["final_error"] for row in cert.evidence["sides"]]
    assert all(e < 1e-6 for e in finals)
    _report(6, "continuity across the slit point", cert,
            f"final errors {finals[0]:.3g} / {finals[1]:.3g}")


def test_criterion_07_rays_exact(suite_report):
    (cert,) = _certs(suite_report, "plane", "rays_exact")
    _report(7, "rays reflect exactly with period two", cert,
            f"{cert.evidence['samples']} samples")


def test_criterion_08_plane_convergence(suite_report):
    (cert,) = _certs(suite_report, "plane", "plane_convergence")
    found = cert.evidence["first_settled_step"]
    assert found["omega"] is not None and found["omega"] <= 5000
    assert found["alpha"] is not None and found["alpha"] <= 5000
    _report(8, "canonical orbit settles near the limit pair", cert,
            f"N_omega={found['omega']}, N_alpha={found['alpha']}")


def test_criterion_09_displacement_battery(suite_report):
    certs = _certs(suite_report, "plane", "displacement")
    mins = [c.evidence["min_displacement"] for c in certs]
    for c in certs:
        assert c.passed, f"criterion 09 {c.evidence.get('map')}: {c.evidence}"
    assert certs[1].evidence["random_disk"]["min_displacement"] > 0
    _report(9, "no fixed points on the displacement grids", certs[0],
            "min displacements " + ", ".join(f"{m:.3g}" for m in mins))


def test_criterion_10_orientation_battery(suite_report):
    certs = _certs(suite_report, "plane", "orientation")
    for c in certs:
        assert c.passed, f"criterion 10 {c.evidence.get('map')}: {c.evidence}"
    negatives = [c.evidence["signs"]["negative"] for c in certs]
    _report(10, "every probed triangle reverses orientation", certs[0],
            f"{negatives[0]} + {negatives[1]} triangles")


def test_criterion_11_semiconjugacy(suite_report):
    (cert,) = _certs(suite_report, "plane", "semiconjugacy")
    assert cert.evidence["inconclusive"] == 0
    _report(11, "collapse intertwines the square and plane maps", cert,
            f"{len(cert.evidence['seeds'])} seeds, 0 inconclusive")


def test_criterion_12_example_contrast(suite_report):
    (cert,) = _certs(suite_report, "plane", "example_contrast")
    _report(12, "contrast example is fixed-point free with unbounded orbit", cert)


def test_criterion_13_excursion(suite_report):
    (cert,) = _certs(suite_report, "plane", "excursion")
    assert cert.evidence["sup_norm"] > 1e3
    _report(13, "canonical orbit makes a large excursion", cert,
            f"sup norm {cert.evidence['sup_norm']:.6g} at n={cert.evidence['attained_at']}")
