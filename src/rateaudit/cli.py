"""Command-line front end: parse spec files, dispatch audits, emit
deterministic machine-readable reports.

Every report has the keys command, input_digest, seed, verdicts, rates,
margins, details and elapsed_ms, in this order; seed is null for commands
without --seed, and input_digest is "-" for sample.

Exit codes: 0 pass, 1 violation, 2 inconclusive under --require-certified,
3 input/usage error or numerical failure.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time

import numpy as np

from .matcore import ToleranceConfig, is_hermitian, require_finite
from .generator import (
    GeneratorSpec,
    adjoint_superoperator,
    build_superoperator,
    gkls_matrices,
    hp_spectrum,
    rate_reports,
    relaxation_rates,
    regularize_faithful,
    stationary_states,
)
from .positivity import (
    NO_VIOLATION_FOUND,
    SamplerConfig,
    check_ccp,
    check_conditional_k_positivity,
    check_dissipativity,
)
from .kms import WeightedInnerProduct, bendixson_interval, kms_adjoint
from .bounds import CLASSES, audit_rates, audit_steady_states
from .timedep import TimeDependentSpec, builtin_tanh_example, divisibility_audit, piecewise_spec

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# deterministic JSON rendering: insertion order preserved, floats at 17
# significant digits so identical inputs give byte-identical reports


_render_key = functools.lru_cache(maxsize=256)(json.dumps)  # of str(key); few keys recur


def _render_float(f: float) -> str:
    if not math.isfinite(f):
        raise ValueError("non-finite float in report")
    s = format(f, ".17g")
    return s if "." in s or "e" in s else s + ".0"


def _render(obj) -> str:
    if type(obj) is float:  # exact types first: np.float64 and np.complex128 are subclasses
        return _render_float(obj)
    if type(obj) is complex:
        return f"[{_render_float(obj.real)}, {_render_float(obj.imag)}]"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(_render, obj)) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _render_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return _render([obj.real, obj.imag])
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{_render_key(str(k))}: {_render(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist())
    raise TypeError(f"cannot render {type(obj)!r}")


def render_report(report: dict) -> str:
    return _render(report) + "\n"


# ---------------------------------------------------------------------------
# spec-file parsing


def _reject_constant(name):
    raise UsageError(f"non-finite token {name!r} in spec file")


def _parse_complex(v) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise UsageError("complex scalars must be two-element [re, im] arrays")
    return complex(float(v[0]), float(v[1]))


def _parse_matrix(rows, d: int) -> np.ndarray:
    m = np.array([[_parse_complex(v) for v in row] for row in rows], dtype=complex)
    if m.shape != (d, d):
        raise UsageError(f"expected a {d}x{d} matrix, got {m.shape}")
    return m


def _parse_static(doc) -> GeneratorSpec:
    d = doc.get("d")
    if not isinstance(d, int) or d < 2:
        raise UsageError("static spec requires integer d >= 2")
    h = _parse_matrix(doc["hamiltonian"], d)
    jumps = []
    for j in doc.get("jumps", []):
        jumps.append((_parse_matrix(j["matrix"], d), float(j["rate"])))
    return GeneratorSpec(hamiltonian=h, jumps=tuple(jumps))


def _parse_time_dependent(doc) -> TimeDependentSpec:
    kind = doc.get("type")
    if kind == "tanh_example":
        mu = float(doc["mu"])
        if not np.isfinite(mu):
            raise UsageError("tanh_example requires a finite mu")
        return builtin_tanh_example(mu)
    if kind == "piecewise":
        specs = [_parse_static(sub) for sub in doc["specs"]]
        return piecewise_spec(doc["times"], specs)
    raise UsageError(f"unknown time-dependent spec type {kind!r}")


def load_spec_file(path: str):
    """Returns (kind, spec, sha256 hex digest of the file bytes).

    Every malformed document (wrong JSON shape, missing key, wrong value type,
    a spec the generator constructors reject) is a UsageError.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw.decode("utf-8"), parse_constant=_reject_constant)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise UsageError(f"invalid JSON in {path}: {exc}") from exc
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in ("static", "time_dependent"):
        raise UsageError(f"spec file must declare kind static|time_dependent, got {kind!r}")
    try:
        spec = _parse_static(doc) if kind == "static" else _parse_time_dependent(doc)
    except KeyError as exc:
        raise UsageError(f"spec file {path} lacks the key {exc}") from exc
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed spec file {path}: {exc}") from exc
    return kind, spec, digest


# ---------------------------------------------------------------------------
# report plumbing


def _verdict_dict(v) -> dict:
    out = {"status": v.status, "margin": float(v.margin), "samples_used": v.samples_used}
    if v.witness is not None:
        out["witness"] = v.witness
    return out


def _emit(report: dict, args, t0: float) -> None:
    if args.timing:
        report["elapsed_ms"] = int(round((time.monotonic() - t0) * 1000))
    if args.format == "text":
        text = _text_summary(report)
    else:
        text = render_report(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _text_summary(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    if report["rates"]:
        lines.append("rates: " + ", ".join(format(r, ".12g") for r in report["rates"]))
    for v in report["verdicts"]:
        lines.append(f"verdict: {v['status']} (margin {v['margin']:.6e})")
    for key, val in report["details"].items():
        if isinstance(val, (int, float, str, bool)):
            lines.append(f"{key}: {val}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands: cmd_x(args, data, tol) -> (report fields, exit code), where data is
# the built Superoperator of a static spec, the TimeDependentSpec for
# divisibility and None for sample; `_run` does the shared work around them


def cmd_spectrum(args, sup, tol):
    rr = relaxation_rates(sup, tol)
    trace = complex(np.trace(sup.matrix))
    return {
        "rates": [float(g) for g in rr.rates],
        "details": {
            "eigenvalues": rr.eigenvalues,
            "rate_sum": rr.rate_sum,
            "trace_re": trace.real,
            "sum_rule_residual": abs(rr.rate_sum + trace.real),
            "unstable": rr.unstable,
            "defective_zero": rr.defective_zero,
        },
    }, EXIT_PASS


def cmd_audit(args, sup, tol):
    rr = relaxation_rates(sup, tol)
    audit = audit_rates(rr, args.audit_class, sup.d)
    return {
        "rates": [float(g) for g in rr.rates],
        "margins": [audit.margin],
        "details": {
            "class": audit.audit_class,
            "c_d": [audit.c_d.numerator, audit.c_d.denominator],
            "gamma_max": audit.gamma_max,
            "rate_sum": audit.rate_sum,
            "bound": audit.bound,
            "satisfied": audit.satisfied,
            "saturated": audit.saturated,
        },
    }, EXIT_PASS if audit.satisfied else EXIT_VIOLATION


def cmd_check(args, sup, tol):
    cfg = SamplerConfig(n_restarts=args.samples, seed=args.seed)
    if args.ccp:
        verdict = check_ccp(sup, tol)
        mode = "ccp"
    elif args.k is not None:
        verdict = check_conditional_k_positivity(sup, args.k, cfg, tol)
        mode = f"conditional_{args.k}_positive"
    else:  # --dissipative; argparse requires one of the three modes
        verdict = check_dissipativity(adjoint_superoperator(sup), cfg, tol)
        mode = "dissipative"
    fields = {
        "verdicts": [_verdict_dict(verdict)],
        "margins": [float(verdict.margin)],
        "details": {"mode": mode},
    }
    if verdict.violated:
        return fields, EXIT_VIOLATION
    if verdict.status == NO_VIOLATION_FOUND and args.require_certified:
        return fields, EXIT_INCONCLUSIVE
    return fields, EXIT_PASS


def cmd_divisibility(args, spec, tol):
    if args.t1 <= args.t0:
        raise UsageError("--t1 must be greater than --t0")
    if args.t0 < spec.t_start or args.t1 > spec.t_end:
        raise UsageError(
            f"--t0 and --t1 must lie in the spec's domain [{spec.t_start}, {spec.t_end}]"
        )
    times = np.linspace(args.t0, args.t1, args.grid + 1)
    cfg = SamplerConfig(n_restarts=args.samples, seed=args.seed)
    results, first_violation = divisibility_audit(
        spec, times, args.audit_class, cfg, args.steps, tol
    )
    return {
        "verdicts": [
            dict(
                interval=[float(a), float(b)],
                **{
                    k: v
                    for k, v in _verdict_dict(verdict).items()
                    if k != "witness"  # interval witnesses are bulky; keep status+margin
                },
            )
            for (a, b), verdict in results
        ],
        "margins": [float(v.margin) for _, v in results],
        "details": {
            "class": args.audit_class,
            "divisible": first_violation is None,
            "first_violating_interval": first_violation,
        },
    }, EXIT_PASS if first_violation is None else EXIT_VIOLATION


def _draw_ccp(rng, d: int):
    """The draws of `random_ccp_spec` as arrays (h, ops, rates).  H takes one
    normal(size=(2, d, d)) (real, then imaginary part); each jump then takes one
    more and one random(), which is uniform() bit for bit (0 + 1 * u)."""
    a = rng.normal(size=(2, d, d))
    a = a[0] + 1j * a[1]
    h = 0.5 * (a + a.conj().T)
    l = np.empty((d * d - 1, 2, d, d))
    rates = np.empty(d * d - 1)
    for j in range(d * d - 1):
        l[j] = rng.normal(size=(2, d, d))
        rates[j] = rng.random()
    return h, (l[:, 0] + 1j * l[:, 1]) / np.sqrt(2 * d), rates


def random_ccp_spec(rng, d: int) -> GeneratorSpec:
    """Random CCP instance: Gaussian Hermitian H, Gaussian jumps, rates U[0,1]."""
    h, ops, rates = _draw_ccp(rng, d)
    return GeneratorSpec(hamiltonian=h, jumps=tuple(zip(ops, rates)))


# bytes of stacked generator matrices per `sample` block: memory stays bounded at large d
SAMPLE_BLOCK_BYTES = 1 << 20


def cmd_sample(args, _, tol):
    block = max(1, SAMPLE_BLOCK_BYTES // (16 * args.d**4))
    n_pass, worst = 0, np.inf
    for start in range(0, args.count, block):
        h, ops, rates = map(np.stack, zip(*(
            _draw_ccp(np.random.default_rng(np.random.SeedSequence([args.seed, i])), args.d)
            for i in range(start, min(start + block, args.count))
        )))
        if not is_hermitian(h):
            raise ValueError("Hamiltonian is not Hermitian within tolerance")
        for rr in rate_reports(require_finite(gkls_matrices(h, ops, rates)), tol):
            audit = audit_rates(rr, args.class_check, args.d)
            n_pass += audit.satisfied
            worst = min(worst, audit.margin)
    return {
        "margins": [worst],
        "details": {
            "d": args.d,
            "count": args.count,
            "class": args.class_check,
            "passed": n_pass,
            "failed": args.count - n_pass,
            "worst_margin": worst,
        },
    }, EXIT_PASS if n_pass == args.count else EXIT_VIOLATION


def cmd_steady(args, sup, _):
    try:
        m0, bound, within = audit_steady_states(sup, args.audit_class)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return {
        "details": {
            "m0": m0,
            "bound": [bound.numerator, bound.denominator],
            "bound_floor": int(bound.numerator // bound.denominator),
            "within_bound": within,
        },
    }, EXIT_PASS if within else EXIT_VIOLATION


def cmd_kms(args, sup, tol):
    if args.epsilon > 0:
        sup = regularize_faithful(sup, args.epsilon)
    m0, faithful = stationary_states(sup, tol)
    if faithful is None:
        raise UsageError(
            "no faithful stationary state found; retry with --epsilon > 0"
        )
    w = WeightedInnerProduct(faithful, s=0.5, tol=tol)
    heis = adjoint_superoperator(sup)
    sharp = kms_adjoint(heis, w)
    sym = 0.5 * (heis.matrix + sharp.matrix)  # symmetrized_generator without a second L^#
    eye = np.eye(sup.d, dtype=complex)
    sym_eigs = hp_spectrum(sym[None])[0][0]
    lo, hi = bendixson_interval(heis.matrix)
    return {
        "details": {
            "epsilon": args.epsilon,
            "m0": m0,
            "omega": faithful,
            "sharp_unital_residual": float(np.linalg.norm(sharp.apply(eye))),
            "symmetrized_spectrum_re": sorted(float(v.real) for v in sym_eigs),
            "symmetrized_max_imag": float(np.max(np.abs(sym_eigs.imag))),
            "trace_match_residual": float(
                abs(np.trace(sym) - np.trace(sup.matrix))
            ),
            "bendixson_interval": [lo, hi],
        },
    }, EXIT_PASS


def _run(args) -> int:
    """Loads and kind-checks the spec, reads the tolerances, builds a static
    generator, runs the command and emits its fields in the report envelope.

    The command is looked up by name when it runs, not bound into the
    parser, so the parser can be built once per process."""
    t0 = time.monotonic()
    data = None
    digest = "-"
    if args.spec_kind is not None:
        kind, data, digest = load_spec_file(args.spec)
        if kind != args.spec_kind:
            who = "this command" if args.spec_kind == "static" else args.command
            raise UsageError(f"{who} requires a {args.spec_kind} spec")
    tol = ToleranceConfig()
    if args.tol is not None:
        tol = ToleranceConfig(psd_tol=args.tol)
    if args.spec_kind == "static":
        data = build_superoperator(data)
    fields, code = globals()[f"cmd_{args.command}"](args, data, tol)
    report = {
        "command": args.command,
        "input_digest": digest,
        "seed": getattr(args, "seed", None),
        "verdicts": [],
        "rates": [],
        "margins": [],
        "details": {},
        "elapsed_ms": None,
    }
    report.update(fields)
    _emit(report, args, t0)
    return code


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_at_least(minimum: int, expected: str):
    """argparse type: an integer >= minimum, else a usage error."""
    def parse(raw: str) -> int:
        try:
            if int(raw) >= minimum:
                return int(raw)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {raw!r}")
    return parse


def _checked_float(ok, expected: str):
    """argparse type: a float for which ok(value) holds, else a usage error."""
    def parse(raw: str) -> float:
        try:
            value = float(raw)
        except ValueError:
            value = float("nan")  # fails every check below
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {raw!r}")
        return value
    return parse


_positive_int = _int_at_least(1, "a positive integer")
_seed = _int_at_least(0, "a non-negative integer")
_tolerance = _checked_float(lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
_finite = _checked_float(np.isfinite, "a finite number")
_nonnegative = _checked_float(lambda v: 0.0 <= v < np.inf, "a finite number >= 0")


def _command(sub, name: str, help: str, spec_kind):
    """Registers one command for `_run`, which calls `cmd_<name>`: the spec
    positional when it reads a spec file of kind `spec_kind`, the four common
    flags, and the default `spec_kind`, which no flag sets."""
    p = sub.add_parser(name, help=help)
    if spec_kind is not None:
        p.add_argument("spec")
    p.add_argument("--tol", type=_tolerance, default=None, help="override psd tolerance")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", default=None, help="write the report to a file")
    p.add_argument("--timing", action="store_true", help="include elapsed_ms")
    p.set_defaults(spec_kind=spec_kind)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rateaudit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "spectrum", "eigenvalues and relaxation rates", "static")

    p = _command(sub, "audit", "rate-constraint audit for a class", "static")
    p.add_argument("--class", dest="audit_class", required=True,
                   choices=CLASSES)

    p = _command(sub, "check", "positivity checks of the generator", "static")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ccp", action="store_true")
    group.add_argument("--k", type=_positive_int, default=None)
    group.add_argument("--dissipative", action="store_true")
    p.add_argument("--samples", type=_positive_int, default=64)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--require-certified", action="store_true")

    p = _command(sub, "divisibility", "per-interval divisibility audit", "time_dependent")
    p.add_argument("--class", dest="audit_class", required=True,
                   choices=CLASSES)
    p.add_argument("--t0", type=_finite, default=0.0)
    p.add_argument("--t1", type=_finite, required=True)
    p.add_argument("--grid", type=_positive_int, default=30)
    p.add_argument("--steps", type=_positive_int, default=100)
    p.add_argument("--samples", type=_positive_int, default=64)
    p.add_argument("--seed", type=_seed, default=0)

    p = _command(sub, "sample", "randomized audit harness", None)
    p.add_argument("--d", type=_int_at_least(2, "an integer >= 2"), required=True)
    p.add_argument("--count", type=_positive_int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--class-check", dest="class_check", required=True,
                   choices=CLASSES)

    p = _command(sub, "steady", "steady-state count vs class bound", "static")
    p.add_argument("--class", dest="audit_class", required=True,
                   choices=CLASSES)

    p = _command(sub, "kms", "weighted-adjoint diagnostics", "static")
    p.add_argument("--epsilon", type=_nonnegative, default=0.0)

    return parser


_parser = None  # built by the first `main` call, reused by every later one


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        # an overflow or a NaN raises FloatingPointError where it happens
        # instead of printing a warning and running on with inf or NaN
        with np.errstate(all="raise", under="ignore"):
            return _run(args)
    except UsageError as exc:
        print(f"rateaudit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError, AssertionError, RuntimeError, MemoryError) as exc:
        # a check inside the library refused a non-finite or inaccurate result
        # (np.linalg.LinAlgError is a ValueError, FloatingPointError an
        # ArithmeticError), or an array did not fit in memory
        print(f"rateaudit: error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
