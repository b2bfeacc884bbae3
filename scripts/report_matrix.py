"""Run a fixed matrix of CLI calls against one checkout and write each report.

Usage: python scripts/report_matrix.py ROOT OUTDIR

Imports `rateaudit` from ROOT/src, runs every call of `MATRIX` in-process on
the spec files in ROOT/fixtures, and writes one file per call to OUTDIR: its
argv, exit code, stdout and stderr, with ROOT masked.  Two checkouts give the
same reports, exit codes and error messages iff `diff -r` of their OUTDIRs is
empty.
"""
from __future__ import annotations

import contextlib
import io
import pathlib
import sys

STATIC = ("dephasing", "pauli_111", "pauli_111-1", "pauli_22-1")
# on signed_d3 (d = 3, one negative rate), the only static spec whose sampled
# checks build d = 3 kernels
D3_CHECKS = (["--k", "1"], ["--k", "2"], ["--k", "3"], ["--dissipative"], ["--ccp"])
TANH = ("tanh_0", "tanh_025", "tanh_06")
CLASSES = ("cp", "2p", "schwarz", "positive")
CHECKS = (["--ccp"], ["--k", "1"], ["--k", "2"], ["--dissipative"],
          ["--k", "2", "--require-certified"])
WINDOWS = (["--t1", "1.0"], ["--t0", "1.0", "--t1", "2.5"])
SAMPLE_COUNTS = {2: 40, 3: 40, 4: 20, 8: 4}  # small counts keep d = 8 quick


def matrix(fixtures: str) -> list[list[str]]:
    """The argv lists of the runs, on spec files in the directory `fixtures`."""
    runs = []
    for name in STATIC:
        spec = f"{fixtures}/{name}.json"
        runs.append(["spectrum", spec])
        runs += [["audit", spec, "--class", c] for c in CLASSES]
        runs += [["steady", spec, "--class", c] for c in CLASSES]
        runs += [["check", spec] + flags for flags in CHECKS]
        runs += [["kms", spec], ["kms", spec, "--epsilon", "0.1"]]
    for name in TANH:
        spec = f"{fixtures}/{name}.json"
        runs += [["divisibility", spec, "--class", c, *window, "--grid", "3",
                  "--steps", "20", "--samples", "8"]
                 for c in CLASSES for window in WINDOWS]
    for d, count in SAMPLE_COUNTS.items():
        runs += [["sample", "--d", str(d), "--count", str(count), "--class-check", c]
                 for c in CLASSES]
    runs += [
        ["spectrum", f"{fixtures}/missing.json"],
        ["kms", f"{fixtures}/tanh_0.json"],
        ["check", f"{fixtures}/pauli_111.json", "--k", "0"],
        ["divisibility", f"{fixtures}/tanh_0.json", "--class", "cp", "--t1", "-1"],
    ]
    spec = f"{fixtures}/pauli_22-1.json"
    text = [["spectrum", spec], ["audit", spec, "--class", "schwarz"], ["check", spec, "--ccp"],
            ["steady", spec, "--class", "cp"], ["kms", spec],
            ["divisibility", f"{fixtures}/tanh_025.json", "--class", "cp", *WINDOWS[0],
             "--grid", "3", "--steps", "20", "--samples", "8"],
            ["sample", "--d", "3", "--count", "40", "--class-check", "2p"]]
    runs += [run + ["--format", "text"] for run in text]
    d3 = f"{fixtures}/signed_d3.json"
    runs += [["check", d3] + flags for flags in D3_CHECKS]
    # the only kms runs whose weight is not I/2: its eigenvalues are distinct
    runs += [["kms", d3], ["kms", d3, "--epsilon", "0.1"]]
    # clock dephasing at d = 3 (m0 = 3): the only degenerate kernel beyond d = 2
    clock = f"{fixtures}/clock_d3.json"
    runs += [["steady", clock, "--class", c] for c in ("cp", "2p", "schwarz")]
    runs += [["kms", clock], ["kms", clock, "--epsilon", "0.1"]]
    # at the default --steps every factor has ||h L||_1 <= theta_3; on
    # piecewise_d2 the first piece (H ~ sigma_x) makes L complex, the second
    # (H ~ sigma_y, real jumps) real, so the window takes both propagator paths
    piecewise = f"{fixtures}/piecewise_d2.json"
    runs += [["divisibility", piecewise, "--class", c, *WINDOWS[0], "--grid", "3", "--samples", "8"]
             for c in ("cp", "schwarz")]
    runs.append(["divisibility", f"{fixtures}/tanh_06.json", "--class", "cp", *WINDOWS[0], "--grid", "3"])
    # H = diag(1e200, -1e200), no jumps: the Frobenius norms of Q C Q overflow,
    # so the SVD rule of `is_hermitian` decides (it rejects: exit 3)
    runs.append(["check", f"{fixtures}/hamiltonian_1e200.json", "--ccp"])
    return runs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = pathlib.Path(argv[0]).resolve()
    out = pathlib.Path(argv[1])
    sys.path.insert(0, str(root / "src"))
    from rateaudit import cli

    if not pathlib.Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"rateaudit was imported from {cli.__file__}, not {root / 'src'}")
    out.mkdir(parents=True, exist_ok=True)
    runs = matrix(str(root / "fixtures"))
    for i, run in enumerate(runs):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(run)
        text = (f"argv: {' '.join(run)}\nexit: {code}\n--- stdout\n{stdout.getvalue()}"
                f"--- stderr\n{stderr.getvalue()}")
        (out / f"{i:03d}_{run[0]}.txt").write_text(text.replace(str(root), "ROOT"))
    print(f"{len(runs)} runs written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
