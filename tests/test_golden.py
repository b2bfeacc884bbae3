"""The report matrix of scripts/report_matrix.py against its committed copy.

tests/golden/reports holds one report per run of the matrix.  The test reruns
the matrix and compares it with that copy under scripts/report_drift.py's
rules: argv, exit codes, stderr and every non-numeric field match exactly,
numbers outside a witness agree within 1e-12 max(1, |x|), witness drift is
printed but not judged, and a missing or extra report fails.  A change that
moves reports on purpose regenerates the copy (see the README).
"""
import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "reports"


def _script(name):
    """The module scripts/<name>.py."""
    loader = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def test_report_matrix_matches_golden(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # report_matrix prepends ROOT/src
    assert _script("report_matrix").main([str(ROOT), str(tmp_path)]) == 0
    code = _script("report_drift").main([str(GOLDEN), str(tmp_path)])
    out = capsys.readouterr().out
    print(out)  # witness drift is shown, not judged
    assert code == 0, out
