import importlib
import pathlib

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def test_traced_benchmark_targets_resolve(monkeypatch):
    # `bench/run.py --trace 1` wraps these names by getattr; a renamed or
    # deleted one makes the traced run raise AttributeError
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    for module, qual in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS:
        mod = importlib.import_module(f"rateaudit.{module}")
        owner, _, attr = qual.rpartition(".")
        target = vars(getattr(mod, owner)).get(attr) if owner else getattr(mod, attr, None)
        assert callable(target), f"{module}.{qual}"
