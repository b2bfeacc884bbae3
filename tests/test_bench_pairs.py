import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "request_s.p50", "better": "lower", "bound": 0.15},
           {"name": "units_per_s", "better": "higher", "bound": 0.2}]


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


def _pairs(parent, change):
    """Pairs whose p50 and units_per_s both read the given values."""
    return [(json.loads(_line(p, p)), json.loads(_line(c, c))) for p, c in zip(parent, change)]


def test_verdicts():
    p50 = METRICS[0]  # bound 0.15
    tight = [2.00, 2.01, 1.99, 2.02, 1.98, 2.00, 2.01, 1.99, 2.00, 2.02]  # IQR 0.025
    # wins 9 of 10 and the 0.6 median gain exceeds the IQR
    assert bench_pairs.verdict(p50, _pairs(tight, [1.4] * 9 + [2.5])) == "better"
    # wins all 10, but by less than the parent's IQR
    assert bench_pairs.verdict(p50, _pairs(tight, [x - 0.01 for x in tight])) == "within bound"
    # a 0.6 gain on 8 of 10 pairs is not enough wins
    assert bench_pairs.verdict(p50, _pairs(tight, [1.4] * 8 + [2.5] * 2)) == "within bound"
    # median 2.4 is 20% above the parent's 2.00 (the bound allows 15%)
    assert bench_pairs.verdict(p50, _pairs(tight, [2.4] * 10)) == "worse"
    assert bench_pairs.verdict(p50, _pairs(tight, [2.29] * 10)) == "within bound"
    # the parent's IQR 1.0 is wider than 15% of its median 2.0
    wide = [1.0, 1.5, 2.0, 2.5, 3.0, 1.0, 1.5, 2.0, 2.5, 3.0]
    assert bench_pairs.verdict(p50, _pairs(wide, [x + 0.1 for x in wide])) == "unresolved"
    units = METRICS[1]  # bound 0.2, and higher is better
    assert bench_pairs.verdict(units, _pairs(tight, [1.5] * 10)) == "worse"
    assert bench_pairs.verdict(units, _pairs(tight, [2.6] * 10)) == "better"
    assert bench_pairs.verdict(units, _pairs(tight, tight)) == "within bound"


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
    assert [line.split()[0] for line in out.splitlines() if " verdict: " in line] == [
        "request_s.p50", "units_per_s"]
    assert out.rstrip().endswith("correct: false in seed 2 change")
