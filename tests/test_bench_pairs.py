import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "request_s.p50", "better": "lower"}, {"name": "units_per_s", "better": "higher"}]


def _line(p50, units, correct=True):
    return json.dumps({"correct": correct, "attempted": 10, "failed": 0, "metrics": {
        "request_s.p50": {"value": p50, "unit": "s"},
        "units_per_s": {"value": units, "unit": "1/s"}}})


def test_summary_of_canned_result_lines():
    parent = [_line(0.0026, 178.0), _line(0.0027, 180.0), _line(0.0025, 175.0), _line(0.0028, 181.0)]
    change = [_line(0.0009, 239.0), _line(0.0010, 180.0), _line(0.0026, 240.0), _line(0.0009, 170.0)]
    pairs = [(json.loads(p), json.loads(c)) for p, c in zip(parent, change)]
    head, p50, units = bench_pairs.summarize(METRICS, pairs)
    assert head.split()[:5] == ["metric", "parent", "med", "change", "med"]
    # parent p50 median 0.00265 with inclusive quartiles 0.002575 and 0.002725;
    # the change wins three pairs on p50 and two on units_per_s (180 = 180 is a tie)
    assert p50.split() == ["request_s.p50", "0.00265", "0.00095", "0.002575", "0.002725", "3/4"]
    assert units.split() == ["units_per_s", "179", "209.5", "177.25", "180.25", "2/4"]


def test_seed_range():
    assert bench_pairs.seed_range("3-6") == [3, 4, 5, 6]
    assert bench_pairs.seed_range("7") == [7]


def test_sides_alternate_and_a_wrong_run_exits_1(tmp_path, monkeypatch, capsys):
    (tmp_path / "change").mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    calls = []

    def canned(root, workload, seed, seconds):
        calls.append((root.name, seed))
        return json.loads(_line(0.001 * seed, 100.0, correct=(root.name, seed) != ("change", 2)))

    monkeypatch.setattr(bench_pairs, "run_bench", canned)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "check_kpos",
            "--seeds", "1-3", "--seconds", "5"]
    assert bench_pairs.main(argv) == 1
    assert calls == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
                     ("parent", 3), ("change", 3)]
    out = capsys.readouterr().out
    assert "check_kpos: 3 pairs, seeds 1-3, 5 s runs" in out
    assert out.rstrip().endswith("correct: false in seed 2 change")
