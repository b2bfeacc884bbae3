import contextlib
import gc
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rateaudit import cli
from rateaudit.bounds import audit_rates
from rateaudit.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_PASS,
    EXIT_USAGE,
    EXIT_VIOLATION,
    UsageError,
    load_spec_file,
    main,
    random_ccp_spec,
    render_report,
)
from rateaudit.generator import (
    Superoperator,
    adjoint_superoperator,
    build_superoperator,
    relaxation_rates,
)
from rateaudit.positivity import dissipativity_defect, replay_conditional_k_positivity


def _report_matrix():
    """The module scripts/report_matrix.py."""
    script = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "report_matrix.py"
    loader = importlib.util.spec_from_file_location("report_matrix", script)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


ZERO_SPEC = {
    "kind": "static",
    "d": 2,
    "hamiltonian": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    "jumps": [],
}


def test_render_report_float_format():
    s = render_report({"a": 1.0, "b": 0.1, "c": [1 + 2j], "d": None, "e": True})
    assert '"a": 1.0' in s
    assert '"b": 0.10000000000000001' in s
    assert '"c": [[1.0, 2.0]]' in s
    assert '"d": null' in s and '"e": true' in s
    # numpy scalars and arrays, bool and int, signed zero, subnormal and
    # exponent forms, a tuple, nested dicts and keys that need escaping
    s = render_report({
        "f64": np.float64(0.1), "c128": np.complex128(-1.5 + 0.25j), "i64": np.int64(-7),
        "no": False, "n": 3, "nz": -0.0, "tiny": 5e-324, "big": 1e16, "small": 1e-7,
        "tup": (1.0, 2, "x"), "arr": np.array([[1 + 0j, 2.5j], [0.5, -1]]),
        "k\"ey\n\u00e9": {2: [0.5 - 0j]}})
    assert s == (
        '{"f64": 0.10000000000000001, "c128": [-1.5, 0.25], "i64": -7, "no": false, "n": 3, '
        '"nz": -0.0, "tiny": 4.9406564584124654e-324, "big": 10000000000000000.0, '
        '"small": 9.9999999999999995e-08, "tup": [1.0, 2, "x"], '
        '"arr": [[[1.0, 0.0], [0.0, 2.5]], [[0.5, 0.0], [-1.0, 0.0]]], '
        '"k\\"ey\\n\\u00e9": {"2": [[0.5, 0.0]]}}\n')


def test_load_spec_file_errors(tmp_path, fixtures):
    with pytest.raises(UsageError):
        load_spec_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "static", "d": 2, "hamiltonian": NaN}')
    with pytest.raises(UsageError):
        load_spec_file(str(bad))
    bad.write_text('{"kind": "wrong"}')
    with pytest.raises(UsageError):
        load_spec_file(str(bad))
    bad.write_text('{"kind": "static", "d": 2, "hamiltonian": [[1.0, 0.0], [0.0, 1.0]]}')
    with pytest.raises(UsageError):
        load_spec_file(str(bad))  # scalars must be [re, im] pairs
    bad.write_text('[{"kind": "static"}]')
    with pytest.raises(UsageError):
        load_spec_file(str(bad))  # top level must be an object
    bad.write_text('{"kind": "static", "d": 2, "jumps": []}')
    with pytest.raises(UsageError, match="hamiltonian"):
        load_spec_file(str(bad))
    doc = dict(ZERO_SPEC, jumps=[{"matrix": ZERO_SPEC["hamiltonian"], "rate": "fast"}])
    bad.write_text(json.dumps(doc))
    with pytest.raises(UsageError):
        load_spec_file(str(bad))
    qutrit = dict(ZERO_SPEC, d=3, hamiltonian=[[[0.0, 0.0]] * 3] * 3)
    bad.write_text(json.dumps({"kind": "time_dependent", "type": "piecewise",
                               "times": [0.0, 1.0], "specs": [ZERO_SPEC, qutrit]}))
    with pytest.raises(UsageError, match="share one dimension"):
        load_spec_file(str(bad))  # pieces of different d
    kind, spec, digest = load_spec_file(str(fixtures / "pauli_111.json"))
    assert kind == "static" and spec.d == 2 and len(digest) == 64


def test_load_spec_file_closes_its_file(fixtures):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_spec_file(str(fixtures / "tanh_025.json"))
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_spectrum_pauli(capsys, fixtures):
    code, out, _ = run(capsys, "spectrum", str(fixtures / "pauli_111-1.json"))
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert np.allclose(doc["rates"], [2.0, 0.0, 0.0], atol=1e-10)
    assert doc["details"]["sum_rule_residual"] < 1e-9

    # an all-real spectrum still renders each eigenvalue as [re, im]
    code, out, _ = run(capsys, "spectrum", str(fixtures / "pauli_22-1.json"))
    eigenvalues = json.loads(out)["details"]["eigenvalues"]
    assert code == EXIT_PASS and len(eigenvalues) == 4
    assert all(len(v) == 2 and v[1] == 0.0 for v in eigenvalues)


def test_spectrum_zero_generator(capsys, tmp_path):
    path = write_spec(tmp_path, "zero.json", ZERO_SPEC)
    code, out, _ = run(capsys, "spectrum", path)
    assert code == EXIT_PASS
    assert json.loads(out)["rates"] == [0.0, 0.0, 0.0]


def test_audit_exit_codes(capsys, fixtures):
    code, out, _ = run(capsys, "audit", str(fixtures / "pauli_22-1.json"), "--class", "schwarz")
    assert code == EXIT_PASS
    assert json.loads(out)["details"]["saturated"] is True

    code, _, _ = run(capsys, "audit", str(fixtures / "pauli_111-1.json"), "--class", "2p")
    assert code == EXIT_VIOLATION

    code, out, _ = run(capsys, "audit", str(fixtures / "pauli_111.json"), "--class", "cp")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["details"]["bound"] == pytest.approx(3.0)

    code, _, err = run(capsys, "audit", str(fixtures / "pauli_111.json"), "--class", "nope")
    assert code == EXIT_USAGE and "error" in err


def test_check_ccp(capsys, fixtures):
    code, out, _ = run(capsys, "check", str(fixtures / "pauli_111-1.json"), "--ccp")
    assert code == EXIT_VIOLATION
    doc = json.loads(out)
    assert doc["verdicts"][0]["status"] == "certified_fail"
    assert "witness" in doc["verdicts"][0]

    code, out, _ = run(capsys, "check", str(fixtures / "pauli_111.json"), "--ccp")
    assert code == EXIT_PASS
    assert json.loads(out)["verdicts"][0]["status"] == "certified_pass"


def test_check_dissipative_and_require_certified(capsys, fixtures):
    args = ["check", str(fixtures / "pauli_22-1.json"), "--dissipative",
            "--samples", "16", "--seed", "7"]
    code, out, _ = run(capsys, *args)
    assert code == EXIT_PASS
    assert json.loads(out)["verdicts"][0]["status"] == "no_violation_found"
    code, _, _ = run(capsys, *args, "--require-certified")
    assert code == EXIT_INCONCLUSIVE


def test_check_k_positivity(capsys, fixtures):
    code, out, _ = run(
        capsys, "check", str(fixtures / "pauli_111-1.json"), "--k", "2", "--samples", "12"
    )
    assert code == EXIT_VIOLATION
    assert json.loads(out)["verdicts"][0]["status"] == "violation_found"
    code, _, _ = run(
        capsys, "check", str(fixtures / "pauli_111-1.json"), "--k", "1", "--samples", "12"
    )
    assert code == EXIT_PASS


def test_check_k_witnesses_replay(capsys, fixtures):
    # every `check --k` run of the report matrix reports a pair of orthogonal
    # unit vectors (phi, psi) whose replayed value is the reported margin
    runs = {(argv[1], int(argv[argv.index("--k") + 1]))
            for argv in _report_matrix().matrix(str(fixtures)) if argv[0] == "check" and "--k" in argv}
    runs = sorted((spec, k) for spec, k in runs if k >= 1)
    assert len(runs) == 4 * 2 + 3  # the d = 2 static specs at k = 1, 2; signed_d3 at k = 1, 2, 3
    for spec, k in runs:
        code, out, err = run(capsys, "check", spec, "--k", str(k))
        assert code in (EXIT_PASS, EXIT_VIOLATION) and not err, (spec, k)
        verdict = json.loads(out)["verdicts"][0]
        phi, psi = (np.array([complex(*z) for z in v]) for v in verdict["witness"])
        assert abs(np.linalg.norm(phi) - 1.0) <= 1e-14 and abs(np.linalg.norm(psi) - 1.0) <= 1e-14
        assert abs(np.vdot(phi, psi)) <= 1e-14, (spec, k)
        s = build_superoperator(load_spec_file(spec)[1])
        margin = verdict["margin"]
        replayed = replay_conditional_k_positivity(s, k, (phi, psi))
        assert abs(replayed - margin) <= 1e-12 * max(1.0, abs(margin)), (spec, k)


def test_check_dissipative_witnesses_replay(capsys, fixtures):
    # every `check --dissipative` run of the report matrix reports a
    # unit-Frobenius X whose defect's least eigenvalue is the reported margin
    runs = sorted(argv[1] for argv in _report_matrix().matrix(str(fixtures))
                  if argv[0] == "check" and "--dissipative" in argv)
    assert len(runs) == 4 + 1  # the d = 2 static specs and signed_d3
    for spec in runs:
        code, out, err = run(capsys, "check", spec, "--dissipative")
        assert code in (EXIT_PASS, EXIT_VIOLATION) and not err, spec
        verdict = json.loads(out)["verdicts"][0]
        x = np.array([[complex(*z) for z in row] for row in verdict["witness"]])
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12, spec
        heis = adjoint_superoperator(build_superoperator(load_spec_file(spec)[1]))
        margin = verdict["margin"]
        replayed = np.linalg.eigvalsh(dissipativity_defect(heis, x))[0]
        assert abs(replayed - margin) <= 1e-12 * max(1.0, abs(margin)), spec


def test_conditional_k_check_runs_no_qr(capsys, fixtures, monkeypatch):
    # the constrained half-steps deflate the other vector, so no QR runs
    def no_qr(*args, **kwargs):
        raise AssertionError("np.linalg.qr called")

    monkeypatch.setattr(np.linalg, "qr", no_qr)
    code, out, err = run(capsys, "check", str(fixtures / "signed_d3.json"), "--k", "3")
    assert code == EXIT_VIOLATION and not err
    assert json.loads(out)["verdicts"][0]["status"] == "violation_found"


def test_divisibility(capsys, fixtures):
    code, out, _ = run(
        capsys, "divisibility", str(fixtures / "tanh_0.json"), "--class", "cp",
        "--t1", "1.0", "--grid", "4", "--steps", "20",
    )
    assert code == EXIT_PASS
    assert json.loads(out)["details"]["divisible"] is True

    code, out, _ = run(
        capsys, "divisibility", str(fixtures / "tanh_025.json"), "--class", "cp",
        "--t0", "0.5", "--t1", "1.0", "--grid", "2", "--steps", "40",
    )
    assert code == EXIT_VIOLATION
    assert json.loads(out)["details"]["first_violating_interval"] == 0

    code, _, _ = run(
        capsys, "divisibility", str(fixtures / "tanh_025.json"), "--class", "cp",
        "--t1", "0.0",
    )
    assert code == EXIT_USAGE


def test_sampler_flags_validated(capsys, fixtures):
    # bad counts are usage errors (exit 3, one line), never a violation (exit 1)
    pauli = str(fixtures / "pauli_111-1.json")
    tanh = str(fixtures / "tanh_025.json")
    for argv in (
        ["check", pauli, "--k", "0"],
        ["check", pauli, "--k", "2", "--samples", "0"],
        ["check", pauli, "--dissipative", "--samples", "-3"],
        ["divisibility", tanh, "--class", "schwarz", "--t1", "1.0", "--samples", "0"],
        ["divisibility", tanh, "--class", "cp", "--t1", "1.0", "--grid", "0"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert out == "" and err.count("\n") == 1 and "positive integer" in err


def test_bad_flag_values_are_usage_errors(capsys, fixtures, tmp_path):
    # out-of-range values and numerical failures are usage errors (exit 3, one
    # line), never exit 1 or 0
    pauli = str(fixtures / "pauli_111.json")
    tanh = str(fixtures / "tanh_025.json")
    huge_z = [[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1e200, 0.0]]]
    huge_plus = [[[0.0, 0.0], [1e200, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    huge_h = write_spec(tmp_path, "huge_h.json", dict(ZERO_SPEC, hamiltonian=huge_z))
    huge_jump = write_spec(tmp_path, "huge_jump.json",
                           dict(ZERO_SPEC, jumps=[{"matrix": huge_plus, "rate": 1.0}]))
    sigma_x = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    small_h = [[[0.01, 0.0], [0.02, 0.0]], [[0.02, 0.0], [-0.01, 0.0]]]
    flip = write_spec(tmp_path, "flip.json", dict(
        ZERO_SPEC, hamiltonian=small_h,
        jumps=[{"matrix": sigma_x, "rate": r} for r in (0.0, 0.0, 1.0)]))
    for argv in (
        ["spectrum", pauli, "--tol", "0"],
        ["check", pauli, "--ccp", "--tol", "nan"],
        ["divisibility", tanh, "--class", "cp", "--t0", "-1", "--t1", "1.0"],
        ["kms", pauli, "--epsilon", "-1"],
        ["check", pauli, "--ccp", "--seed", "-1"],
        ["divisibility", tanh, "--class", "cp", "--t1", "1.0", "--seed", "-1"],
        ["sample", "--d", "2", "--count", "1", "--class-check", "cp", "--seed", "-1"],
        ["kms", pauli, "--seed", "-1"],
        ["kms", pauli, "--seed", "0"],
        ["kms", pauli, "--epsilon", "1e300"],
        ["check", huge_h, "--ccp"],
        ["check", huge_h, "--k", "2"],
        ["spectrum", huge_jump],
        ["spectrum", pauli, "--out", str(tmp_path / "missing" / "report.json")],
        ["sample", "--d", "1", "--count", "1", "--class-check", "cp"],
        ["sample", "--d", "2", "--count", "0", "--class-check", "cp"],
        ["check", pauli],
    ):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert out == "" and err.count("\n") == 1 and err.startswith("rateaudit: error:")

    # a tolerance below the eigensolver's rounding error (min |lambda| is
    # about 1e-16 here) must not be blamed on the trace-preserving generator
    code, out, err = run(capsys, "spectrum", flip, "--tol", "1e-20")
    assert code == EXIT_USAGE and out == "" and err.count("\n") == 1
    assert "psd_tol*||L||" in err and "rounding error" in err


def test_sample(capsys):
    code, out, _ = run(
        capsys, "sample", "--d", "2", "--count", "25", "--seed", "3",
        "--class-check", "cp",
    )
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["details"]["passed"] == 25 and doc["details"]["failed"] == 0
    assert doc["details"]["worst_margin"] >= -1e-9


def test_sample_determinism(capsys):
    argv = ["sample", "--d", "3", "--count", "5", "--seed", "11", "--class-check", "2p"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_random_ccp_spec_reproduces_per_jump_draws():
    def reference(rng, d):
        # one draw per matrix half and per rate, in spec order
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = 0.5 * (a + a.conj().T)
        jumps = []
        for _ in range(d * d - 1):
            l = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            jumps.append((l / np.sqrt(2 * d), float(rng.uniform())))
        return h, jumps

    for d in (2, 3, 4, 5):
        for seed in range(3):
            spec = random_ccp_spec(np.random.default_rng([seed, d]), d)
            h, jumps = reference(np.random.default_rng([seed, d]), d)
            assert spec.hamiltonian.tobytes() == h.tobytes()
            assert len(spec.jumps) == len(jumps)
            for (op, rate), (ref_op, ref_rate) in zip(spec.jumps, jumps):
                assert op.tobytes() == ref_op.tobytes() and rate == ref_rate


def test_sample_blocks_match_per_spec_loop(capsys, monkeypatch):
    # blocks of 3 specs at d = 2, 1 at d = 3 and d = 4
    monkeypatch.setattr(cli, "SAMPLE_BLOCK_BYTES", 3 * 16 * 2**4)
    for d, count in ((2, 10), (3, 4), (4, 3)):
        for audit_class in ("2p", "schwarz"):
            code, out, _ = run(capsys, "sample", "--d", str(d), "--count", str(count),
                               "--seed", "5", "--class-check", audit_class)
            audits = [
                audit_rates(relaxation_rates(build_superoperator(random_ccp_spec(
                    np.random.default_rng(np.random.SeedSequence([5, i])), d))),
                    audit_class, d)
                for i in range(count)
            ]
            passed = sum(a.satisfied for a in audits)
            details = json.loads(out)["details"]
            assert code == (EXIT_PASS if passed == count else EXIT_VIOLATION)
            assert details["passed"] == passed and details["failed"] == count - passed
            assert details["worst_margin"] == min(a.margin for a in audits)


def test_sample_rejects_non_finite_generator(capsys, monkeypatch):
    build = cli.gkls_matrices

    def overflowing(h, ops, rates):
        m = build(h, ops, rates)
        m[-1, 0, 0] = np.inf
        return m

    monkeypatch.setattr(cli, "gkls_matrices", overflowing)
    code, out, err = run(capsys, "sample", "--d", "2", "--count", "3",
                         "--class-check", "cp")
    with pytest.raises(ValueError) as single:
        Superoperator(d=2, matrix=np.full((4, 4), np.inf))
    assert code == EXIT_USAGE and out == ""
    assert err == f"rateaudit: error: numerical failure: {single.value}\n"


def test_out_of_memory_is_a_numerical_failure(capsys, fixtures, monkeypatch):
    # exit 1 means "violation found", so an allocation that does not fit must
    # give exit 3 and one stderr line, never a traceback
    def too_large(args, sup, tol):
        raise MemoryError("Unable to allocate 410. GiB for an array")

    monkeypatch.setattr(cli, "cmd_spectrum", too_large)
    code, out, err = run(capsys, "spectrum", str(fixtures / "pauli_111.json"))
    assert code == EXIT_USAGE and out == ""
    assert err == "rateaudit: error: numerical failure: Unable to allocate 410. GiB for an array\n"


def test_commands_are_looked_up_when_called(capsys, fixtures, monkeypatch):
    # the parser is built once per process, so it must not hold the command
    # functions: a command patched after the first call still takes effect
    spec = str(fixtures / "pauli_111.json")
    assert run(capsys, "spectrum", spec)[0] == EXIT_PASS

    def patched(args, sup, tol):
        raise RuntimeError("patched spectrum")

    monkeypatch.setattr(cli, "cmd_spectrum", patched)
    code, out, err = run(capsys, "spectrum", spec)
    assert code == EXIT_USAGE and out == ""
    assert err == "rateaudit: error: numerical failure: patched spectrum\n"


def test_main_builds_the_parser_once(capsys, fixtures, monkeypatch):
    built = []
    fresh = cli.build_parser

    def counted():
        built.append(1)
        return fresh()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    spec = str(fixtures / "pauli_111.json")
    for argv in (["spectrum", spec], ["check", spec, "--ccp"], ["check", spec, "--k", "0"],
                 ["audit", spec, "--class", "cp"]) * 5:
        run(capsys, *argv)
    assert len(built) == 1


def _parsed(parser, argv):
    try:
        return vars(parser.parse_args(argv))
    except UsageError as exc:
        return str(exc)


def test_cached_parser_parses_like_a_fresh_one(capsys, fixtures, tmp_path):
    # no flag set by one call may leak into the namespace of a later one
    first = ["check", str(fixtures / "pauli_111.json"), "--k", "2", "--require-certified",
             "--tol", "1e-9", "--format", "text", "--timing", "--out", str(tmp_path / "r.txt")]
    assert run(capsys, *first)[0] == EXIT_INCONCLUSIVE
    for argv in [first] + _report_matrix().matrix(str(fixtures)):
        assert _parsed(cli._parser, argv) == _parsed(cli.build_parser(), argv), argv


def test_overflowing_propagator_is_a_numerical_failure(capsys, tmp_path):
    # a rate of -300 makes exp(10 L) overflow: exit 3 with one stderr line
    spec = dict(ZERO_SPEC, jumps=[{"rate": -300.0,
                                   "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}])
    path = write_spec(tmp_path, "blowup.json", {"kind": "time_dependent", "type": "piecewise",
                                                "times": [0.0], "specs": [spec]})
    code, out, err = run(capsys, "divisibility", path, "--class", "cp", "--t1", "10",
                         "--grid", "1", "--steps", "1")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("rateaudit: error: numerical failure: ") and err.count("\n") == 1


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is the tests' oracle
    code = "import sys, rateaudit.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout == "[]\n"


def test_steady(capsys, fixtures, tmp_path):
    code, out, _ = run(capsys, "steady", str(fixtures / "dephasing.json"), "--class", "cp")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["details"]["m0"] == 2 and doc["details"]["within_bound"] is True

    code, out, _ = run(capsys, "steady", str(fixtures / "pauli_111.json"), "--class", "cp")
    assert json.loads(out)["details"]["m0"] == 1

    path = write_spec(tmp_path, "zero.json", ZERO_SPEC)
    code, _, err = run(capsys, "steady", path, "--class", "cp")
    assert code == EXIT_USAGE and "trivial" in err

    code, _, err = run(capsys, "steady", str(fixtures / "dephasing.json"), "--class", "positive")
    assert code == EXIT_USAGE and "no steady-state bound" in err


def test_steady_ignores_tol(capsys, fixtures):
    # m0 comes from the fixed rank rule: --tol sets only psd_tol, which steady never reads
    spec = str(fixtures / "dephasing.json")
    reports = [run(capsys, "steady", spec, "--class", "cp", *flags)
               for flags in ([], ["--tol", "0.5"], ["--tol", "1e-15"])]
    assert reports[0][0] == EXIT_PASS and json.loads(reports[0][1])["details"]["m0"] == 2
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_steady_schwarz_floor_d3(capsys, tmp_path):
    om = np.exp(2j * np.pi / 3)
    u = np.diag([1.0, om, om**2])

    def mat(m):
        return [[[float(v.real), float(v.imag)] for v in row] for row in m]

    doc = {
        "kind": "static",
        "d": 3,
        "hamiltonian": mat(np.zeros((3, 3))),
        "jumps": [{"rate": 1.0, "matrix": mat(u)}, {"rate": 1.0, "matrix": mat(u @ u)}],
    }
    path = write_spec(tmp_path, "diag3.json", doc)
    code, out, _ = run(capsys, "steady", path, "--class", "schwarz")
    assert code == EXIT_PASS
    details = json.loads(out)["details"]
    assert details["bound"] == [7, 1] and details["bound_floor"] == 7


def test_kms_command(capsys, fixtures):
    code, out, _ = run(capsys, "kms", str(fixtures / "pauli_111.json"))
    assert code == EXIT_PASS
    details = json.loads(out)["details"]
    assert details["sharp_unital_residual"] < 1e-8
    assert details["symmetrized_max_imag"] < 1e-7
    assert details["trace_match_residual"] < 1e-9

    code, out, _ = run(
        capsys, "kms", str(fixtures / "dephasing.json"), "--epsilon", "0.1"
    )
    assert code == EXIT_PASS
    assert json.loads(out)["details"]["m0"] == 1


def test_kms_computes_the_kms_adjoint_once(capsys, fixtures, monkeypatch):
    from rateaudit import kms

    calls = []
    original = kms._require_stationary

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(kms, "_require_stationary", counted)
    code, _, _ = run(capsys, "kms", str(fixtures / "pauli_111.json"))
    assert code == EXIT_PASS
    assert len(calls) == 1


def test_check_determinism_and_out_file(capsys, fixtures, tmp_path):
    out_path = tmp_path / "report.json"
    argv = [
        "check", str(fixtures / "pauli_111-1.json"), "--k", "2",
        "--samples", "8", "--seed", "5", "--out", str(out_path),
    ]
    assert main(argv) == EXIT_VIOLATION
    first = out_path.read_bytes()
    assert main(argv) == EXIT_VIOLATION
    assert out_path.read_bytes() == first
    capsys.readouterr()


def test_text_format(capsys, fixtures):
    code, out, _ = run(
        capsys, "spectrum", str(fixtures / "pauli_111-1.json"), "--format", "text"
    )
    assert code == EXIT_PASS
    assert out.startswith("command: spectrum")
    assert "rates: 2" in out


def test_elapsed_ms_only_with_timing(capsys, fixtures):
    _, out, _ = run(capsys, "spectrum", str(fixtures / "pauli_111.json"))
    assert json.loads(out)["elapsed_ms"] is None
    _, out, _ = run(capsys, "spectrum", str(fixtures / "pauli_111.json"), "--timing")
    assert isinstance(json.loads(out)["elapsed_ms"], int)


def test_input_digest_matches_file(capsys, fixtures):
    import hashlib

    path = fixtures / "pauli_111.json"
    _, out, _ = run(capsys, "spectrum", str(path))
    doc = json.loads(out)
    assert doc["input_digest"] == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("command, fixture, message", [
    (["spectrum"], "tanh_0.json", "this command requires a static spec"),
    (["audit", "--class", "cp"], "tanh_0.json", "this command requires a static spec"),
    (["check", "--ccp"], "tanh_0.json", "this command requires a static spec"),
    (["steady", "--class", "cp"], "tanh_0.json", "this command requires a static spec"),
    (["kms"], "tanh_0.json", "this command requires a static spec"),
    (["divisibility", "--class", "cp", "--t1", "1.0"], "pauli_111.json",
     "divisibility requires a time_dependent spec"),
])
def test_spec_kind_mismatch_is_usage_error(capsys, fixtures, command, fixture, message):
    code, out, err = run(capsys, command[0], str(fixtures / fixture), *command[1:])
    assert code == EXIT_USAGE and out == ""
    assert err == f"rateaudit: error: {message}\n"


ENVELOPE = ["command", "input_digest", "seed", "verdicts", "rates", "margins", "details",
            "elapsed_ms"]


@pytest.mark.parametrize("argv, fixture, seed", [
    (["spectrum"], "pauli_111.json", None),
    (["audit", "--class", "schwarz"], "pauli_22-1.json", None),
    (["check", "--ccp", "--seed", "7"], "pauli_111.json", 7),
    (["divisibility", "--class", "cp", "--t1", "1.0", "--grid", "2", "--steps", "5",
      "--seed", "7"], "tanh_025.json", 7),
    (["sample", "--d", "2", "--count", "3", "--class-check", "cp", "--seed", "7"], None, 7),
    (["steady", "--class", "cp"], "dephasing.json", None),
    (["kms"], "pauli_111.json", None),
])
def test_report_envelope(capsys, fixtures, argv, fixture, seed):
    import hashlib

    if fixture is None:
        code, out, _ = run(capsys, *argv)
        digest = "-"
    else:
        path = fixtures / fixture
        code, out, _ = run(capsys, argv[0], str(path), *argv[1:])
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert code in (EXIT_PASS, EXIT_VIOLATION)
    doc = json.loads(out)
    assert list(doc) == ENVELOPE
    assert doc["command"] == argv[0]
    assert doc["input_digest"] == digest
    assert doc["seed"] == seed


# ---------------------------------------------------------------------------
# fuzzing main: malformed documents, bad flag values and numerical failures of
# huge magnitudes give exit 3 and one line, everything else a report

_HERMITIAN = (
    [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],  # zero
    [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],  # sigma_x
    [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],  # sigma_z
)
_SIGMA_PLUS = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_MAGNITUDE = st.one_of(st.just(1.0), st.floats(-1e300, 1e300))
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), _FINITE,
    st.text(max_size=3), st.lists(st.integers(0, 2), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "d", "rate"]), st.integers(0, 3), max_size=2),
)


def _scaled(matrices):
    """One of `matrices` with every entry multiplied by a magnitude up to 1e300."""
    return st.builds(
        lambda m, c: [[[c * re, c * im] for re, im in row] for row in m],
        st.sampled_from(matrices), _MAGNITUDE,
    )


_JUMP = st.fixed_dictionaries({
    "matrix": _scaled(_HERMITIAN[1:] + (_SIGMA_PLUS,)),
    "rate": st.one_of(st.floats(-2.0, 2.0), st.floats(-1e300, 1e300)),
})
_STATIC = st.fixed_dictionaries({
    "kind": st.just("static"),
    "d": st.just(2),
    "hamiltonian": _scaled(_HERMITIAN),
    "jumps": st.lists(_JUMP, max_size=3),
})
_TIME_DEPENDENT = st.one_of(
    st.fixed_dictionaries({
        "kind": st.just("time_dependent"),
        "type": st.just("tanh_example"),
        "mu": st.floats(-1.0, 1.0),
    }),
    st.fixed_dictionaries({
        "kind": st.just("time_dependent"),
        "type": st.just("piecewise"),
        "times": st.just([0.0, 0.5]),
        "specs": st.lists(_STATIC, min_size=2, max_size=2),
    }),
)


@st.composite
def _documents(draw, base):
    """A well-formed document, then at most one defect: a missing key, a value
    of the wrong type, a string rate, or a document that is not an object."""
    doc = draw(base)
    target = doc
    if doc.get("jumps"):
        target = draw(st.sampled_from([doc, doc["jumps"][0]]))
    elif doc.get("specs"):
        target = draw(st.sampled_from([doc, doc["specs"][0]]))
    defect = draw(st.sampled_from(["none", "none", "missing", "junk", "rate", "list"]))
    key = draw(st.sampled_from(sorted(target)))
    if defect == "missing":
        del target[key]
    elif defect == "junk":
        target[key] = draw(_JUNK)
    elif defect == "rate":
        target["rate"] = draw(st.sampled_from(["fast", "1.0", "", None, [1.0]]))
    elif defect == "list":
        doc = [doc]
    return doc


_FLAG_VALUE = st.one_of(
    _FINITE.map(repr),
    st.sampled_from(["0", "nan", "inf", "-inf", "-1", "1", "0.5", "1e-12", "x", ""]),
)
_COMMANDS = (
    ["spectrum"], ["audit", "--class", "cp"], ["steady", "--class", "2p"], ["check", "--ccp"],
    ["check", "--k", "2", "--samples", "2"], ["check", "--dissipative", "--samples", "2"],
    ["kms"], ["divisibility", "--class", "cp", "--t1", "1.0", "--grid", "2", "--steps", "5"],
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "spec.json"


@given(data=st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_main_fuzz_exit_contract(fuzz_path, data):
    command, *options = data.draw(st.sampled_from(_COMMANDS))
    base = _TIME_DEPENDENT if command == "divisibility" else _STATIC
    fuzz_path.write_text(json.dumps(data.draw(_documents(base))))
    argv = [command, str(fuzz_path), *options]
    if command == "kms":
        argv += ["--epsilon", data.draw(_FLAG_VALUE)]
    if command == "divisibility":
        argv += ["--t0", data.draw(_FLAG_VALUE)]
    if data.draw(st.booleans()):
        argv += ["--tol", data.draw(_FLAG_VALUE)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # never raises
    if code == EXIT_USAGE:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1, argv
    else:
        assert code in (EXIT_PASS, EXIT_VIOLATION), argv
        assert json.loads(out.getvalue())["command"] == command
