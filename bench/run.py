"""rateaudit benchmark: seeded CLI workloads in one closed loop with one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports rateaudit from ./src.
Every request is one `rateaudit.cli.main(argv)` call in this process, sent
only after the previous one returned.  The last line of standard output is a
JSON object {correct, attempted, failed, metrics}; the line before it holds
the details (tail percentile, oracle counts, environment).  Both are also
written to .bench_out/.

The request list is fixed by the workload, the seed and S: PASSES sends of it
take about S seconds on the reference machine (2-core x86 VM) at its quiet
speed, so every version of the program gets the same work for a seed.
--trace 0 sends it PASSES times and reports the end-to-end metrics, with wall
times scaled to the reference host speed (see hostspeed.py; the raw figures
are in the detail line).  --trace 1 sends it once untraced and once with spans
around the calls into each layer, and reports per-layer calls, self time
(scaled the same way) and the tracing overhead.
No threads are started; the set-up probe runs fresh interpreters one at a
time before the timed loop.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from hostspeed import REFERENCE_S, HostSpeed
from tracing import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 7
PASSES = 2
THREAD_VARS = ("RATEAUDIT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def invoke(main, argv):
    """(exit code, stdout) of one CLI call; (None, error) if it raised."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    except Exception as exc:  # a crashing request is a failed request, not a crashed benchmark
        return None, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def judge_all(wl, requests, replies):
    from workloads import Outcome

    outcomes = []
    for req, (code, text) in zip(requests, replies):
        if code is None:
            outcomes.append(Outcome(error=text))
            continue
        try:
            outcomes.append(wl.judge(req, code, text))
        except (KeyError, TypeError, ValueError) as exc:  # a report of another shape
            outcomes.append(Outcome(error=f"report lacks an expected field: {type(exc).__name__}: {exc}"))
    return outcomes


def oracle_summary(outcomes) -> dict:
    decided = sum(o.decided for o in outcomes)
    return {
        "decided": decided,
        "agreed": sum(o.agreed for o in outcomes),
        "undecided": len(outcomes) - decided,
        "errors": [o.error for o in outcomes if o.error][:5],
        "contradictions": [o.contradiction for o in outcomes if o.contradiction][:5],
    }


def is_correct(summary, outcomes) -> bool:
    return (
        summary["decided"] > 0
        and not any(o.error for o in outcomes)
        and not any(o.contradiction for o in outcomes)
    )


def tail_percentile(times):
    """(percentile, value, requests beyond): the highest percentile with at
    least ten requests beyond it, i.e. the 11th-largest time."""
    ordered = sorted(times)
    n = len(ordered)
    rank = max(1, n - 10)
    return 100.0 * rank / n, ordered[rank - 1], n - rank


def measure_setup(files, host):
    """Wall times of fresh interpreters that import rateaudit.cli and load the
    inputs: (raw, scaled to the reference host speed)."""
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = host.sample()
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, probe, ROOT, *files], check=True, text=True,
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, timeout=120)
        raw.append(float(done.stdout.split()[-1]) - t0)
        scaled.append(raw[-1] * host.factor(before, host.sample()))
    return raw, scaled


def git_commit():
    """Commit of the checkout, read from .git without running git; None outside a clone."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", *ref.split("/"))
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def env_record() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "commit": git_commit(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def warm_up(wl, main):
    # numpy and scipy load some code on first use.  A CLI user pays that in
    # every invocation, but neither setup_s (import and input loading) nor the
    # request times (steady state, one process) count it.
    for i in range(wl.cycle):
        invoke(main, wl.request(i).argv)


def request_list(wl, seconds):
    """One pass of the run, in whole cycles: as many requests as the reference
    machine sends in seconds / PASSES.  A fixed list gives every version of the
    program the same work for a seed."""
    cycles = max(1, round(wl.nominal_rate * seconds / PASSES / wl.cycle))
    return [wl.request(i) for i in range(cycles * wl.cycle)]


def send(main, requests, host):
    """One pass over the list: replies and each request's (start, end)."""
    replies, spans = [], []
    host.sample()
    for req in requests:
        t0 = time.perf_counter()
        replies.append(invoke(main, req.argv))
        spans.append((t0, time.perf_counter()))
        host.maybe_sample()
    host.sample()
    return replies, spans


def timed_run(wl, main, seconds):
    host = HostSpeed()
    setup_raw, setup = measure_setup(wl.setup_files, host)
    requests = request_list(wl, seconds)
    warm_up(wl, main)
    # Each pass sends the whole list; a request's time is its least over the
    # passes, which drops a pass hit by a burst of host load shorter than the
    # calibration window.
    start = time.perf_counter()
    passes = [send(main, requests, host) for _ in range(PASSES)]
    loop_s = time.perf_counter() - start
    replies = passes[0][0]
    differ = {i for later, _ in passes[1:] for i, reply in enumerate(later) if reply != replies[i]}
    per_request = list(zip(*(spans for _, spans in passes)))
    scaled = [min((t1 - t0) * host.factor(t0, t1) for t0, t1 in spans) for spans in per_request]
    raw = [min(t1 - t0 for t0, t1 in spans) for spans in per_request]

    outcomes = judge_all(wl, requests, replies)
    for i in differ:
        outcomes[i].contradiction = "report differs between passes"
    summary = oracle_summary(outcomes)
    n = len(requests)
    failed = sum(1 for o in outcomes if o.error)
    p, tail, beyond = tail_percentile(scaled)
    units = sum(r.units for r in requests)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "request_s.p50": (statistics.median(scaled), "s"),
        "request_s.tail": (tail, "s"),
        "units_per_s": (units / sum(scaled), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": (1.0 - failed / n, "share"),
        "verdict_agreement": (summary["agreed"] / summary["decided"] if summary["decided"] else 0.0, "share"),
    }
    result = {
        "correct": is_correct(summary, outcomes),
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "requests": n,
        "passes": PASSES,
        "units": units,
        "tail": {"percentile": p, "requests_beyond": beyond, "requests": n},
        "oracle": summary,
        "raw": {
            "loop_s": loop_s,
            "setup_s": statistics.median(setup_raw),
            "request_s.p50": statistics.median(raw),
            "request_s.tail": tail_percentile(raw)[1],
            "units_per_s": units / sum(raw),
        },
        "host": {
            "reference_kernel_s": REFERENCE_S,
            "kernel_samples": len(host.kernel_s),
            "kernel_s_quartiles": statistics.quantiles(host.kernel_s, n=4),
        },
    }
    return result, detail


def traced_run(wl, main, seconds, spans_path):
    host = HostSpeed()
    requests = request_list(wl, seconds)
    warm_up(wl, main)
    plain, plain_spans = send(main, requests, host)

    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_spans = send(tracer.request_wrapper(main), requests, host)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)

    # per-request host-speed factors, as for the end-to-end times
    scale = [host.factor(t0, t1) for t0, t1 in traced_spans]
    traced_s = sum((t1 - t0) * f for (t0, t1), f in zip(traced_spans, scale))
    untraced_s = sum((t1 - t0) * host.factor(t0, t1) for t0, t1 in plain_spans)
    outcomes = judge_all(wl, requests, traced)
    summary = oracle_summary(outcomes)
    same = traced == plain
    metrics = tracer.metrics(scale)
    for name, value, unit in (
        ("trace.overhead", traced_s / untraced_s, "ratio"),
        ("trace.traced_s", traced_s, "s"),
        ("trace.untraced_s", untraced_s, "s"),
        ("trace.spans", len(tracer.spans), "count"),
    ):
        metrics[name] = {"value": value, "unit": unit}
    n = len(requests)
    result = {
        "correct": same and is_correct(summary, outcomes),
        "attempted": n,
        "failed": sum(1 for o in outcomes if o.error),
        "metrics": metrics,
    }
    detail = {
        "requests": n,
        "verdicts_identical_to_untraced": same,
        "spans_file": os.path.relpath(spans_path, ROOT),
        "oracle": summary,
    }
    return result, detail


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rateaudit", "cli.py")):
        print(f"bench: no rateaudit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from rateaudit import cli
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    input_dir = tempfile.mkdtemp(prefix="inputs-", dir=OUT_DIR)
    try:
        wl = WORKLOADS[args.workload](args.seed, input_dir)
        if args.trace:
            result, detail = traced_run(wl, cli.main, args.seconds, stem + ".spans.jsonl")
        else:
            result, detail = timed_run(wl, cli.main, args.seconds)
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, **detail, "env": env_record()}
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
