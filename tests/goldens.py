"""The golden reports: which certificates of which verify report each file
in ``tests/data/`` pins.

``GOLDENS`` is the one statement of that rule.  ``test_dynamics.py``
parametrizes over it on the reports the test session computes, and CI runs
this module as a script on the reports ``planardyn verify --out`` writes:

    python tests/goldens.py core.json xi.json plane.json all7.json
    python tests/goldens.py xi53.json xi64.json xi128.json xi512.json plane512.json

A golden applies to a report at its precision and its sampler seed, 256
bits and the default seed unless it says otherwise.  A whole-report golden
applies to its suite's report.  A certificate golden applies to its
suite's report or to the ``all`` report, and at any seed when its
certificates draw no samples (``seedless``).  The script fails when a
report differs from a golden that applies to it, or when no golden applies
to a report.  Under each DIFFERS line it names every changed leaf by its
JSON path in the report, golden value then report value
(``report_diff.diff``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

import report_diff
from planardyn.dynamics import DEFAULT_SAMPLER_SEED

DATA = Path(__file__).parent / "data"


class Golden(NamedTuple):
    file: str
    suite: str
    # (check, map) of each pinned certificate, in report order; None pins
    # the whole report
    certificates: Optional[Tuple[Tuple[str, Optional[str]], ...]] = None
    seedless: bool = False
    # the working precision of the report it pins, in bits
    precision: int = 256
    # the sampler seed of the report it pins
    seed: int = DEFAULT_SAMPLER_SEED


CORE_ROWS = tuple((check, None) for check in (
    "boundary_identity", "rising_bijectivity", "seam_agreement", "reversal_symmetry",
    "ladder_canonical", "ladder_random", "interior_limits",
))
XI_ROWS = (("collapse_conditions", None), ("cone_bijectivity", None), ("precision_scaling", None))

GOLDENS = (
    Golden("verify_core.json", "core"),
    # its 256-bit worst errors pin every rounding on the Fraction ->
    # big-float path
    Golden("verify_xi.json", "xi"),
    # the collapse suite at the floor precision, at 64 and 128 bits and at
    # a fine precision: the chart bounds and every rounding follow the
    # precision
    Golden("verify_xi_53bit.json", "xi", precision=53),
    Golden("verify_xi_64bit.json", "xi", precision=64),
    Golden("verify_xi_128bit.json", "xi", precision=128),
    Golden("verify_xi_512bit.json", "xi", precision=512),
    # the plane rows computed in 256-bit mpmath arithmetic alone, which draw
    # no samples; the rows on mpmath.fp depend on the platform's libm
    Golden(
        "plane_256bit_certificates.json",
        "plane",
        (("semiconjugacy", None), ("orbit_bounded", None), ("ray_period_two", None)),
        seedless=True,
    ),
    # the rows that read the suite's shared run values (the canonical core
    # and example12's grid), minus h's displacement scan on mpmath.fp: exact
    # rationals, booleans and math.sqrt / math.hypot of them
    Golden(
        "plane_shared_certificates.json",
        "plane",
        (("excursion", None), ("displacement", "f"), ("displacement", "example12"),
         ("example_contrast", None)),
    ),
    # the sampled rows in exact and 256-bit arithmetic; f's orientation
    # redraws count the triangles its piece key splits
    Golden(
        "plane_sampled_certificates.json",
        "plane",
        (("rays_exact", None), ("orientation", "f"), ("orientation", "h")),
    ),
    # the same rows at 512 bits, the one report whose blend rows meet a
    # narrow abscissa with a wide height
    Golden(
        "plane_512bit_certificates.json",
        "plane",
        (("rays_exact", None), ("excursion", None), ("displacement", "f"),
         ("displacement", "example12"), ("orientation", "f"), ("orientation", "h"),
         ("semiconjugacy", None), ("example_contrast", None), ("orbit_bounded", None),
         ("ray_period_two", None)),
        precision=512,
    ),
    # the second sampler seed: the core and xi rows, and the plane rows the
    # default-seed goldens pin that draw samples
    Golden(
        "all_seed7_certificates.json",
        "all",
        CORE_ROWS + XI_ROWS
        + (("rays_exact", None), ("excursion", None), ("displacement", "f"),
           ("displacement", "example12"), ("orientation", "f"), ("orientation", "h"),
           ("example_contrast", None)),
        seed=7,
    ),
)


def applies(golden: Golden, report: dict) -> bool:
    """Whether ``golden`` pins part of ``report``."""
    meta = report["metadata"]
    if meta["precision"] != golden.precision:
        return False
    same_seed = meta["sampler_seed"] == golden.seed
    if golden.certificates is None:
        return report["suite"] == golden.suite and same_seed
    return report["suite"] in (golden.suite, "all") and (golden.seedless or same_seed)


def _key(cert: dict) -> Tuple[str, Optional[str]]:
    return cert["evidence"]["check"], cert["evidence"].get("map")


def _pinned(golden: Golden, report: dict) -> list:
    """(index in the report's certificates, certificate) of each
    certificate ``golden`` pins, in report order."""
    certs = [(i, c) for i, c in enumerate(report["certificates"]) if _key(c) in golden.certificates]
    found = tuple(_key(c) for _, c in certs)
    if found != golden.certificates:
        raise ValueError(f"{golden.file}: the report holds {found}")
    return certs


def pinned(golden: Golden, report: dict) -> str:
    """The text ``golden``'s file holds, as ``report`` writes it."""
    if golden.certificates is None:
        return json.dumps(report, indent=2) + "\n"
    return json.dumps([c for _, c in _pinned(golden, report)], indent=2) + "\n"


def changed_leaves(golden: Golden, report: dict) -> list:
    """(path in the report, golden value, report value) of each leaf where
    ``report`` differs from ``golden``'s file, values as JSON text."""
    want = json.loads(read(golden))
    if golden.certificates is None:
        return list(report_diff.diff(want, report))
    return [
        change
        for (i, cert), old in zip(_pinned(golden, report), want)
        for change in report_diff.diff(old, cert, f"$.certificates[{i}]")
    ]


def read(golden: Golden) -> str:
    return (DATA / golden.file).read_text(encoding="utf-8")


def main(paths) -> int:
    failed = False
    for path in paths:
        text = Path(path).read_text(encoding="utf-8")
        report = json.loads(text)
        matched = [g for g in GOLDENS if applies(g, report)]
        if not matched:
            print(f"{path}: no golden applies")
            failed = True
        for golden in matched:
            # a whole report is compared as written, not as re-serialised
            same = (text if golden.certificates is None else pinned(golden, report)) == read(golden)
            print(f"{path} against {golden.file}: {'same' if same else 'DIFFERS'}")
            if not same:
                leaves = changed_leaves(golden, report)
                for leaf, old, new in leaves:
                    print(f"  {leaf}: {old} -> {new}")
                if not leaves:
                    print("  same leaves, different text (key order or formatting)")
            failed |= not same
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
