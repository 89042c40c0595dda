"""``tests/report_diff.py`` on hand-made reports."""

import json

import report_diff

BEFORE = {
    "suite": "xi",
    "passed": True,
    "certificates": [
        {"evidence": {"check": "cone_bijectivity", "worst_error": 1.5e-76, "alpha": 0.0}},
        {"evidence": {"check": "precision_scaling", "samples": 100}},
    ],
    "metadata": {"precision": 256},
}

AFTER = {
    "suite": "xi",
    "passed": True,
    "certificates": [
        {"evidence": {"check": "cone_bijectivity", "worst_error": 2.5e-76, "alpha": -0.0,
                      "redraws": 3}},
    ],
    "metadata": {"precision": 256},
}


def _run(tmp_path, capsys, before, after):
    paths = []
    for name, text in (("before.json", before), ("after.json", after)):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    code = report_diff.main(paths)
    return code, capsys.readouterr().out.splitlines()


def test_report_diff_names_each_changed_leaf(tmp_path, capsys):
    code, lines = _run(tmp_path, capsys, json.dumps(BEFORE, indent=2), json.dumps(AFTER, indent=2))
    assert code == 1
    assert lines == [
        "$.certificates[0].evidence.worst_error: 1.5e-76 -> 2.5e-76",
        "$.certificates[0].evidence.alpha: 0.0 -> -0.0",
        "$.certificates[0].evidence.redraws: (absent) -> 3",
        '$.certificates[1]: {"evidence": {"check": "precision_scaling", "samples": 100}} -> (absent)',
    ]


def test_report_diff_is_silent_on_the_same_report(tmp_path, capsys):
    text = json.dumps(BEFORE, indent=2) + "\n"
    assert _run(tmp_path, capsys, text, text) == (0, [])


def test_report_diff_flags_a_reordered_report(tmp_path, capsys):
    reordered = dict(reversed(list(BEFORE.items())))
    code, lines = _run(tmp_path, capsys, json.dumps(BEFORE), json.dumps(reordered))
    assert code == 1
    assert lines == ["same leaves, different text (key order or formatting)"]
