import importlib.util
import json
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "report_drift.py"
spec = importlib.util.spec_from_file_location("report_drift", SCRIPT)
report_drift = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_drift)


def _report(doc, code=0, stderr="", argv="check ROOT/fixtures/x.json --k 2"):
    out = json.dumps(doc) + "\n" if isinstance(doc, dict) else doc
    return f"argv: {argv}\nexit: {code}\n--- stdout\n{out}--- stderr\n{stderr}"


def _doc(margin=-0.25, status="violation_found", witness=((1.0, 0.0), (0.0, 0.0))):
    return {"command": "check", "verdicts": [
        {"status": status, "margin": margin, "samples_used": 8, "witness": list(map(list, witness))}],
        "margins": [margin], "details": {"mode": "conditional_2_positive"}, "elapsed_ms": None}


def _run(base, old, new, capsys):
    for side, text in (("old", old), ("new", new)):
        (base / side).mkdir(parents=True)
        (base / side / "000_check.txt").write_text(text)
    code = report_drift.main([str(base / "old"), str(base / "new")])
    return code, capsys.readouterr().out


def test_identical_reports_pass(tmp_path, capsys):
    code, out = _run(tmp_path, _report(_doc()), _report(_doc()), capsys)
    assert code == 0 and "0 moved" in out


def test_numeric_drift_within_the_limit_passes_and_is_listed(tmp_path, capsys):
    new = _doc(margin=-0.25 + 3e-17, witness=((0.6, 0.8), (0.0, 0.0)))
    code, out = _run(tmp_path, _report(_doc()), _report(new), capsys)
    assert code == 0 and "1 moved" in out
    assert "witness max drift 0.8" in out


def test_numeric_drift_beyond_the_limit_fails(tmp_path, capsys):
    code, out = _run(tmp_path, _report(_doc()), _report(_doc(margin=-0.25 + 1e-9)), capsys)
    assert code == 1 and "DRIFT" in out


def test_status_exit_and_stderr_changes_fail(tmp_path, capsys):
    changed = (_report(_doc(status="no_violation_found")), _report(_doc(), code=1),
               _report(_doc(), stderr="error: bad input\n"))
    for i, new in enumerate(changed):
        code, out = _run(tmp_path / str(i), _report(_doc()), new, capsys)
        assert code == 1 and "differs at" in out


def test_text_reports_compare_words_and_numbers(tmp_path, capsys):
    old = _report("command: check\nverdict: certified_fail (margin -2.000000e+00)\n")
    new = _report("command: check\nverdict: certified_fail (margin -2.000001e+00)\n")
    code, out = _run(tmp_path, old, new, capsys)
    assert code == 1 and "DRIFT" in out


def test_missing_report_fails(tmp_path, capsys):
    (tmp_path / "old").mkdir()
    (tmp_path / "new").mkdir()
    (tmp_path / "old" / "000_check.txt").write_text(_report(_doc()))
    assert report_drift.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    assert "only in" in capsys.readouterr().out


def test_two_missing_directories_fail(tmp_path, capsys):
    assert report_drift.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    out = capsys.readouterr().out
    assert "no such directory" in out and out.rstrip().endswith("0 moved: FAIL")


def test_two_empty_directories_fail(tmp_path, capsys):
    (tmp_path / "old").mkdir()
    (tmp_path / "new").mkdir()
    assert report_drift.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    assert capsys.readouterr().out.rstrip() == "0 reports compared, 0 moved: FAIL"
