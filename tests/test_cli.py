"""Command-line interface: output formats and exit codes."""

import json
from pathlib import Path

import pytest

from planardyn import cli, dynamics
from planardyn.cli import main


def test_eval_square_map(capsys):
    assert main(["eval", "--map", "f", "--point", "0,-3/4"]) == 0
    out = capsys.readouterr().out
    assert "(0, -1/2)" in out
    assert "region: R_MINUS_2" in out


def test_eval_interval_map(capsys):
    assert main(["eval", "--map", "f01", "--point", "1/4"]) == 0
    assert capsys.readouterr().out.strip() == "5/8"


def test_eval_inverse(capsys):
    assert main(["eval", "--map", "f", "--point", "0,1/2", "--inverse"]) == 0
    out = capsys.readouterr().out
    assert "(0, 0)" in out


def test_eval_strip_annotation(capsys):
    assert main(["eval", "--map", "Phi", "--point", "0,13/16"]) == 0
    out = capsys.readouterr().out
    assert "(2/3, 13/16)" in out
    assert "strip: level=2 zone=B_ZONE" in out


def test_eval_outside_domain_exits_2(capsys):
    assert main(["eval", "--map", "f", "--point", "3,0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_eval_bad_point_exits_2(capsys):
    assert main(["eval", "--map", "f", "--point", "zebra,0"]) == 2
    # exact components are parsed by as_rational, the exact core's own check
    assert "error: not a finite rational: 'zebra'" in capsys.readouterr().err


def test_unknown_map_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["eval", "--map", "nope", "--point", "0,0"])
    assert excinfo.value.code == 2


def test_orbit_json_roundtrips(tmp_path, capsys):
    out_file = tmp_path / "orbit.json"
    code = main(
        ["orbit", "--map", "f", "--seed", "1/3,1/5", "--steps=-2..2", "--out", str(out_file)]
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["map"] == "f"
    assert payload["arithmetic"] == "exact"
    assert [row["n"] for row in payload["points"]] == [-2, -1, 0, 1, 2]
    assert payload["points"][2] == {"n": 0, "x": "1/3", "y": "1/5"}
    assert payload["points"][3] == {"n": 1, "x": "-1/3", "y": "3/5"}
    assert payload["metadata"]["precision"] == 256


def test_orbit_csv(capsys):
    assert main(["orbit", "--map", "h", "--seed", "5,0", "--steps", "3", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,x,y"
    assert lines[1] == "0,5.0,0.0"
    assert lines[2] == "1,-5.0,0.0"


def test_orbit_svg(tmp_path, capsys):
    out_file = tmp_path / "orbit.svg"
    code = main(
        ["orbit", "--map", "h", "--seed", "0,0", "--steps", "4", "--format", "svg", "--out", str(out_file)]
    )
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("<svg ")
    assert "<polyline" in text and "</svg>" in text


def test_orbit_of_h_at_a_seed_rounding_onto_a_slit(capsys):
    # at 53 bits the seed's chart preimage rounds onto the slit end (1/2, 0);
    # the orbit reflects there, as one h step does
    argv = ["--point", "0.9999999999999999,0", "--approx", "--precision", "53"]
    assert main(["eval", "--map", "h"] + argv) == 0
    step = capsys.readouterr().out.splitlines()[0]
    argv[0] = "--seed"
    assert main(["orbit", "--map", "h", "--steps=-2..2", "--format", "csv"] + argv) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    points = [row.split(",", 1)[1] for row in rows]
    assert [row.split(",")[0] for row in rows] == ["-2", "-1", "0", "1", "2"]
    assert points[0] == points[2] == points[4] != points[1] == points[3]
    x, y = (float(v) for v in step.strip("()").split(","))
    assert points[3] == f"{x!r},{y!r}"


def test_orbit_rejects_seed_outside_domain(capsys):
    assert main(["orbit", "--map", "eta", "--seed", "0,-1/4", "--steps", "2"]) == 2
    assert "step 1" in capsys.readouterr().err
    # f checks its seed once, before any step
    for steps in ("2", "-2", "0"):
        assert main(["orbit", "--map", "f", "--seed", "5/4,0", "--steps", steps]) == 2
        assert "outside the square" in capsys.readouterr().err


@pytest.mark.parametrize("steps", ["-3..3", "-9..-5"])
def test_orbit_departure_is_one_stderr_line(capsys, steps):
    assert main(["orbit", "--map", "eta", "--seed", "1/3,1/5", f"--steps={steps}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: orbit of eta left the domain at step -1: "
        "rising-map inverse needs s in [1/2, 1], got 1/5\n"
    )


@pytest.mark.parametrize("argv, where", [
    (["eval", "--map", "h", "--point", "1e100,2", "--approx"],
     "(1e+100, 2.0) out of reach at 256 bits: its chart preimage"),
    (["orbit", "--map", "h", "--seed", "0,1e80", "--approx", "--steps", "2"],
     "(0.0, 1e+80) out of reach at 256 bits: its chart preimage"),
    # the preimage is in reach; g's image of it rounds onto the edge
    (["eval", "--map", "h", "--point=-51.53,1.657e15", "--approx", "--precision", "53"],
     "(-51.53, 1657000000000000.0) out of reach at 53 bits: the chart preimage of its forward image"),
    # orbits of the two far images name the seed and the step that fails
    (["orbit", "--map", "h", "--seed=-51.53,1.657e15", "--approx", "--precision", "53",
      "--steps", "2"],
     "(-51.53, 1657000000000000.0) out of reach at 53 bits: the chart preimage of its forward image"),
    (["orbit", "--map", "h", "--seed=-73.12715117751975,-1778548318017595.2", "--approx",
      "--precision", "53", "--steps=-2..0"],
     "(-73.12715117751975, -1778548318017595.2) out of reach at 53 bits: "
     "the chart preimage of its step -2 image"),
    (["excursion", "--seed=-51.53,1.657e15", "--approx", "--precision", "53", "--steps", "2"],
     "(-51.53, 1657000000000000.0) out of reach at 53 bits: the chart preimage of its forward image"),
    (["excursion", "--seed=-73.12715117751975,-1778548318017595.2", "--approx",
      "--precision", "53", "--steps", "2"],
     "(-73.12715117751975, -1778548318017595.2) out of reach at 53 bits: "
     "the chart preimage of its step -2 image"),
], ids=["eval", "orbit", "eval-image", "orbit-image", "orbit-inverse-image", "excursion-image",
        "excursion-inverse-image"])
def test_far_plane_point_exits_2_naming_it(capsys, argv, where):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: plane point {where} rounds onto the square's edge\n"


def test_orbit_of_step_zero_alone_checks_the_seed(capsys):
    for name, seed in (("phi", "2"), ("xi", "0,3"), ("Phi", "0,1/4")):
        assert main(["orbit", "--map", name, "--seed", seed, "--steps", "0..0"]) == 2
        assert "outside the" in capsys.readouterr().err


def test_orbit_of_a_wall_seed_matches_its_golden(tmp_path, capsys):
    # exact rationals only, so the file is the same on every platform
    out_file = tmp_path / "f.json"
    code = main(["orbit", "--map", "f", "--seed=-3/5,-1/2", "--steps=-100..100",
                 "--out", str(out_file)])
    assert code == 0
    golden = Path(__file__).parent / "data" / "orbit_f_wall_seed.json"
    assert out_file.read_bytes() == golden.read_bytes()


def test_geometry_table(capsys):
    assert main(["geometry", "--max-level", "3"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["level"] for row in rows] == [1, 2, 3]
    assert rows[1]["mid"] == "13/16"


def test_geometry_svg(tmp_path, capsys):
    out_file = tmp_path / "square.svg"
    assert main(["geometry", "--max-level", "4", "--out", str(out_file)]) == 0
    text = out_file.read_text()
    assert text.startswith("<svg ")
    assert "v7" in text  # named points are labeled


def test_excursion_csv(capsys):
    assert main(["excursion", "--seed", "0,0", "--steps", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,log10_norm"
    assert len(lines) == 8
    center = lines[4].split(",")
    assert center[0] == "0" and center[1] == "-inf"


def test_verify_core_suite(tmp_path, capsys, monkeypatch, suite_report):
    # the command's own path with the suite run stubbed: the session's core
    # report stands in for a second run of the same suite
    def run_suite(name, ctx, rng_seed):
        assert (name, ctx.prec, rng_seed) == ("core", 256, dynamics.DEFAULT_SAMPLER_SEED)
        return suite_report("core")

    monkeypatch.setattr(cli.dynamics, "run_suite", run_suite)
    out_file = tmp_path / "report.json"
    code = main(["verify", "--suite", "core", "--out", str(out_file)])
    assert code == 0
    out = capsys.readouterr().out
    assert "suite core: PASS (7/7)" in out
    assert out.count("[PASS]") == 7
    report = json.loads(out_file.read_text())
    assert report["passed"] and report["suite"] == "core"
    assert report["metadata"]["precision"] == 256
    golden = Path(__file__).parent / "data" / "verify_core.json"
    assert out_file.read_bytes() == golden.read_bytes()


def test_verify_reports_a_raising_check_and_exits_1(tmp_path, capsys, monkeypatch):
    # a check that raises is a failed certificate, not bad input: verify
    # runs the other checks, writes its report and exits 1
    def broken(run):
        raise ZeroDivisionError("division by zero")

    rows = dict(dynamics.SUITE_TABLE["core"])
    table = (("boundary_identity", broken), ("seam_agreement", rows["seam_agreement"]))
    monkeypatch.setitem(dynamics.SUITE_TABLE, "core", table)
    out_file = tmp_path / "report.json"
    assert main(["verify", "--suite", "core", "--out", str(out_file)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] 01 error" in out and "[PASS] 02" in out
    assert "suite core: FAIL (1/2)" in out
    report = json.loads(out_file.read_text())
    assert [c["evidence"]["check"] for c in report["certificates"]] == [
        "boundary_identity",
        "seam_agreement",
    ]
    assert report["certificates"][0]["evidence"]["error"] == "ZeroDivisionError"


def test_eval_slit_point_exits_2(capsys):
    # the collapse inverse is undefined on the slits (a SlitError)
    assert main(["eval", "--map", "xi", "--inverse", "--point", "3/4,0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_below_53_bits_exits_2(capsys):
    assert main(["verify", "--suite", "xi", "--precision", "52"]) == 2
    assert "precision must be at least 53 bits, got 52" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, point",
    [("xi", "nan,0.5"), ("xi", "0.5,nan"), ("h", "nan,0.5"), ("g", "0.5,nan"),
     ("f", "0.5,inf"), ("example12", "0,-inf")],
)
def test_eval_non_finite_approx_point_exits_2(capsys, name, point):
    assert main(["eval", "--map", name, "--point", point, "--approx"]) == 2
    assert "not a finite point" in capsys.readouterr().err


def test_eval_of_a_top_edge_point_at_the_slit_arc_end(capsys):
    # its edge-chart angle is within a few ulps of pi - astar at 64 bits,
    # where the slit-top arc starts; the image's height is 3.73e-19 at
    # 1024 bits.  At 64 bits it is 1.1 units of 2^-64 off: next to the
    # slit's top side the image angle is pi less the cone's offset t pi,
    # which carries that product's rounding
    point = "18444975514266125761/18446744073709551616,1"
    assert main(["eval", "--map", "xi", "--point", point, "--precision", "64"]) == 0
    assert capsys.readouterr().out.strip() == "(1.0, 4.33680868994201773602981120348e-19)"
