"""``tests/goldens.py`` as CI runs it, on session reports with one leaf changed."""

import copy
import json

import pytest

import goldens


@pytest.mark.parametrize("suite, check, leaf", [
    ("core", "rising_bijectivity", "samples"),  # a whole-report golden
    ("plane", "orientation", "redraws"),  # a certificate golden
])
def test_a_differing_golden_names_its_leaves(tmp_path, capsys, suite_report, suite, check, leaf):
    report = copy.deepcopy(suite_report(suite))
    i, cert = next((i, c) for i, c in enumerate(report["certificates"])
                   if c["evidence"]["check"] == check)
    old = cert["evidence"][leaf]
    cert["evidence"][leaf] = old + 1
    path = tmp_path / f"{suite}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    assert goldens.main([str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.endswith("DIFFERS") for line in lines)
    assert f"  $.certificates[{i}].evidence.{leaf}: {old} -> {old + 1}" in lines
