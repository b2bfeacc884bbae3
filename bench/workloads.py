"""Seeded inputs, request streams and oracles of the benchmark workloads.

A request is one `rateaudit` command line.  Everything a request needs comes
from the workload seed: spec files are written once into an input directory,
and the flags of request i come from SeedSequence([seed, tag, i]).  Request
kinds repeat with a fixed period (`cycle`), so every run mixes them in the
same proportions whatever the seed.

Each workload judges a finished request against an oracle that does not use
the code path under test: closed forms for the tanh example and for specs
built on an orthonormal traceless operator basis, and witness replay for
reported violations.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from rateaudit.cli import load_spec_file
from rateaudit.generator import build_superoperator
from rateaudit.positivity import (
    CERTIFIED_FAIL,
    CERTIFIED_PASS,
    NO_VIOLATION_FOUND,
    VIOLATION_FOUND,
    CLASS_CP,
    CLASS_SCHWARZ_NOT_CP,
    qubit_pauli_classify,
    replay_conditional_k_positivity,
)

VIOLATIONS = (CERTIFIED_FAIL, VIOLATION_FOUND)


@dataclass(frozen=True)
class Request:
    argv: tuple
    units: int  # audited units: generators, intervals or checks
    expect: dict = field(default_factory=dict)  # oracle facts used by judge()


@dataclass
class Outcome:
    error: str | None = None  # raised, exit 3, or a report that does not parse
    decided: bool = False  # an oracle decides this request's verdict
    agreed: bool = False
    contradiction: str | None = None  # a claim in the report the oracle refutes


def parse_report(code, text):
    """(report, None) for a well-formed run, else (None, error message)."""
    if code not in (0, 1):
        return None, f"exit {code}"
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, f"unparsable report: {exc}"
    if not isinstance(report, dict) or "verdicts" not in report:
        return None, "report lacks the standard fields"
    return report, None


def _spec_doc(hamiltonian, jumps) -> dict:
    def mat(m):
        return [[[float(z.real), float(z.imag)] for z in row] for row in m]

    return {
        "kind": "static",
        "d": int(hamiltonian.shape[0]),
        "hamiltonian": mat(hamiltonian),
        "jumps": [{"rate": float(r), "matrix": mat(m)} for m, r in jumps],
    }


def _write_json(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


class Workload:
    name = ""
    tag = 0  # keeps the seed streams of different workloads apart
    cycle = 1  # request kinds repeat with this period
    nominal_rate = 1.0  # requests/s on the reference machine at its quiet speed; sizes the run

    def __init__(self, seed: int, input_dir: str):
        self.seed = seed
        self.input_dir = input_dir
        self.setup_files = self.write_inputs()

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, self.tag, i]))

    def sampler_seed(self, i: int) -> int:
        return int(np.random.SeedSequence([self.seed, self.tag, i, 1]).generate_state(1)[0])

    def write_inputs(self) -> list[str]:
        """Write the spec files; return one file per input family for the
        set-up probe (what a single CLI invocation loads)."""
        return []

    def request(self, i: int) -> Request:
        raise NotImplementedError

    def judge(self, req: Request, code: int, text: str) -> Outcome:
        report, error = parse_report(code, text)
        if error:
            return Outcome(error=error)
        violated = any(v["status"] in VIOLATIONS for v in report["verdicts"])
        if report["command"] == "sample":
            violated = report["details"]["failed"] > 0
        if code != (1 if violated else 0):
            return Outcome(decided=True, contradiction=f"exit {code} disagrees with the verdicts")
        return self.check(req, code, report)

    def check(self, req: Request, code: int, report: dict) -> Outcome:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# sample_sweep: random CCP generators against the 1/d rate bound


class SampleSweep(Workload):
    """`sample --class-check 2p`: two requests of 40 generators at d = 3, then
    one of 4 generators at d = 8, so the median request is a d = 3 one and the
    tail a d = 8 one."""

    name = "sample_sweep"
    tag = 1
    cycle = 3
    nominal_rate = 15.0

    def request(self, i):
        d, count = (8, 4) if i % self.cycle == self.cycle - 1 else (3, 40)
        argv = ("sample", "--d", str(d), "--count", str(count),
                "--seed", str(self.sampler_seed(i)), "--class-check", "2p")
        return Request(argv=argv, units=count, expect={"d": d, "count": count})

    def check(self, req, code, report):
        det = report["details"]
        ok = (det["d"] == req.expect["d"] and det["count"] == req.expect["count"]
              and det["passed"] == det["count"] and det["failed"] == 0)
        # every random CCP generator obeys Gamma_max <= sum(Gamma) / d
        why = None if ok else f"{det['failed']} of {det['count']} CCP generators broke the 1/d bound"
        return Outcome(decided=True, agreed=ok, contradiction=why)


# ---------------------------------------------------------------------------
# divisibility of the tanh example


TANH_MUS = (0.0, 0.25, 0.6)  # the mu values of fixtures/tanh_*.json


def log_cosh(t: float) -> float:
    t = abs(t)
    return t + math.log1p(math.exp(-2.0 * t)) - math.log(2.0)


def tanh_interval_map(mu: float, a: float, b: float) -> tuple[float, float]:
    """Pauli multipliers (lam_xy, lam_z) of the exact interval map on [a, b].

    The tanh generator is Pauli-diagonal with eigenvalue -(1 - 2 mu tanh t) on
    sigma_x and sigma_y and -2 on sigma_z, so the L(t) commute and the map is
    exp of the integrated generator, with int tanh = log cosh.
    """
    lam_xy = math.exp(-(b - a) + 2.0 * mu * (log_cosh(b) - log_cosh(a)))
    return lam_xy, math.exp(-2.0 * (b - a))


def tanh_choi_min(mu: float, a: float, b: float) -> float:
    """Least eigenvalue of the trace-1 Choi matrix: the least Pauli weight."""
    x, z = tanh_interval_map(mu, a, b)
    return min((1 + 2 * x + z) / 4, (1 - z) / 4, (1 - 2 * x + z) / 4)


def midpoint_margin_error(mu: float, a: float, b: float, steps: int) -> float:
    """Bound on the Choi-margin error of the exponential-midpoint product.

    For commuting generators the product is exact up to the midpoint rule for
    int tanh, whose error is at most (b-a) h^2 max|tanh''| / 24 with
    max|tanh''| < 0.77; the Pauli weights move by at most mu * lam_xy times it.
    """
    h = (b - a) / steps
    x, _ = tanh_interval_map(mu, a, b)
    return mu * x * (b - a) * h * h * 0.77 / 24.0 + 1e-10


class Divisibility(Workload):
    """`divisibility` on the tanh fixtures over seeded windows."""

    audit_class = ""
    grid = 1
    steps = 100
    samples = 2
    t_max = 4.0
    length = (0.05, 0.4)

    def write_inputs(self):
        self.paths = [
            _write_json(os.path.join(self.input_dir, f"tanh_{k}.json"),
                        {"kind": "time_dependent", "type": "tanh_example", "mu": mu})
            for k, mu in enumerate(TANH_MUS)
        ]
        return list(self.paths)

    def request(self, i):
        rng = self.rng(i)
        k = i % len(TANH_MUS)
        t0 = round(float(rng.uniform(0.0, self.t_max)), 6)
        t1 = round(t0 + float(rng.uniform(*self.length)), 6)
        argv = ("divisibility", self.paths[k], "--class", self.audit_class,
                "--t0", repr(t0), "--t1", repr(t1), "--grid", str(self.grid),
                "--steps", str(self.steps), "--samples", str(self.samples),
                "--seed", str(self.sampler_seed(i)))
        return Request(argv=argv, units=self.grid, expect={"mu": TANH_MUS[k], "t0": t0, "t1": t1})

    def check(self, req, code, report):
        mu = req.expect["mu"]
        edges = np.linspace(req.expect["t0"], req.expect["t1"], self.grid + 1)
        verdicts = report["verdicts"]
        if [v["interval"] for v in verdicts] != [[float(a), float(b)] for a, b in zip(edges, edges[1:])]:
            return Outcome(decided=True, contradiction="report intervals differ from the grid")
        decided, agreed = True, True
        for v in verdicts:
            a, b = v["interval"]
            verdict = self.interval_oracle(mu, a, b, v)
            if verdict is None:
                decided = False
            elif isinstance(verdict, str):
                return Outcome(decided=True, contradiction=f"[{a}, {b}] mu={mu}: {verdict}")
            else:
                agreed = agreed and verdict
        return Outcome(decided=decided, agreed=decided and agreed)

    def interval_oracle(self, mu, a, b, verdict):
        """True/False for agreement, None when undecided, a string for a
        refuted claim."""
        raise NotImplementedError


class DivSchwarz(Divisibility):
    name = "div_schwarz"
    tag = 2
    cycle = 3
    nominal_rate = 9.0
    audit_class = "schwarz"
    steps = 25  # keeps the propagator a small share next to the hill-climb

    def interval_oracle(self, mu, a, b, verdict):
        # Pass expected where the interval-averaged Pauli generator is
        # dissipative: its semigroup, which equals the interval map, is Schwarz.
        g_z = -2.0 * mu * (log_cosh(b) - log_cosh(a)) / (b - a)
        if qubit_pauli_classify(1.0, 1.0, g_z) not in (CLASS_CP, CLASS_SCHWARZ_NOT_CP):
            return None
        if 1.0 + 2.0 * g_z <= 1e-6:  # too close to the boundary to call
            return None
        if verdict["status"] in VIOLATIONS:
            return "Schwarz violation reported for a dissipative average generator"
        return verdict["status"] in (NO_VIOLATION_FOUND, CERTIFIED_PASS)


class DivCP(Divisibility):
    name = "div_cp"
    tag = 3
    cycle = 3
    nominal_rate = 9.5
    audit_class = "cp"
    steps = 200
    length = (0.1, 0.6)

    def interval_oracle(self, mu, a, b, verdict):
        exact = tanh_choi_min(mu, a, b)
        err = midpoint_margin_error(mu, a, b, self.steps)
        if abs(verdict["margin"] - exact) > 10 * err + 1e-9:
            return f"Choi margin {verdict['margin']!r} is not the exact {exact!r}"
        if abs(exact) <= 10 * err + 1e-9:
            return None
        want = CERTIFIED_PASS if exact > 0 else CERTIFIED_FAIL
        return verdict["status"] == want


# ---------------------------------------------------------------------------
# check_kpos: conditional k = d positivity and exact CCP on static specs


SIGMAS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def traceless_orthonormal_basis(d: int) -> np.ndarray:
    """The d^2 - 1 generalized Gell-Mann matrices, Hilbert-Schmidt normalized."""
    out = []
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = m[j, i] = 1.0
            out.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[i, j], m[j, i] = -1j, 1j
            out.append(m)
    for k in range(1, d):
        m = np.diag([1.0] * k + [-float(k)] + [0.0] * (d - k - 1)).astype(complex)
        out.append(m)
    return np.array([m / np.linalg.norm(m) for m in out])


class CheckKpos(Workload):
    """`check --k d` and `check --ccp` on seeded static specs.

    Qubit Pauli specs (jumps sigma_k, rates g_k / 2) and d = 3 specs whose jumps
    are a random orthonormal traceless basis, so the Kossakowski matrix is
    diag(rates): both are CCP exactly when every rate is nonnegative, and the
    exact CCP margin is d * min(0, min rate).  Non-CCP specs have one negative
    rate.  The d = 3 ones sit just past the CCP boundary, where the sampler's
    alternating solver runs its full 200 steps for every restart: the costliest
    request is then the same for every seed.
    """

    name = "check_kpos"
    tag = 4
    nominal_rate = 24.0
    pool = 64  # specs per (d, CCP) family
    samples = {2: 4, 3: 1}  # sampler restarts per --k request, by d
    # One cycle of requests: (d, mode, CCP spec?).  Six of ten are --ccp, the
    # cheapest kind, so the median request is one of them; the d = 3 non-CCP
    # --k request is the costliest kind, so the tail is one of those.
    KINDS = ((2, "k", True), (2, "ccp", False), (3, "ccp", True), (3, "k", True),
             (2, "ccp", True), (3, "ccp", False), (2, "k", False), (2, "ccp", False),
             (3, "ccp", True), (3, "k", False))
    cycle = len(KINDS)

    def write_inputs(self):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, self.tag, 0xF11E]))
        basis = traceless_orthonormal_basis(3)
        self.specs = {}  # (d, ccp) -> [(path, rates)]
        for ccp in (True, False):
            for j in range(self.pool):
                g = rng.uniform(0.2, 1.5, size=3)
                if not ccp:
                    g[rng.integers(3)] = rng.uniform(-0.6, -0.1)
                doc = _spec_doc(np.zeros((2, 2)), [(s, 0.5 * gk) for s, gk in zip(SIGMAS, g)])
                path = _write_json(os.path.join(self.input_dir, f"pauli_{ccp:d}_{j:02d}.json"), doc)
                self.specs.setdefault((2, ccp), []).append((path, tuple(float(x) for x in g)))

                n = len(basis)
                z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                q, r = np.linalg.qr(z)
                jumps = np.einsum("ij,jab->iab", q * (np.diag(r) / np.abs(np.diag(r))), basis)
                rates = rng.uniform(0.1, 1.0, size=n)
                if not ccp:
                    rates[rng.integers(n)] = rng.uniform(-0.008, -0.003)
                a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                doc = _spec_doc(0.25 * (a + a.conj().T), list(zip(jumps, rates)))
                path = _write_json(os.path.join(self.input_dir, f"gkls3_{ccp:d}_{j:02d}.json"), doc)
                self.specs.setdefault((3, ccp), []).append((path, tuple(float(x) for x in rates)))
        return [self.specs[2, True][0][0], self.specs[3, True][0][0]]

    def request(self, i):
        d, mode, ccp = self.KINDS[i % self.cycle]
        per_cycle = sum(1 for k in self.KINDS if k[0] == d and k[2] == ccp)
        before = sum(1 for k in self.KINDS[: i % self.cycle] if k[0] == d and k[2] == ccp)
        path, rates = self.specs[d, ccp][(per_cycle * (i // self.cycle) + before) % self.pool]
        if mode == "ccp":
            argv = ("check", path, "--ccp")
        else:
            argv = ("check", path, "--k", str(d), "--samples", str(self.samples[d]),
                    "--seed", str(self.sampler_seed(i)))
        exact_ccp = qubit_pauli_classify(*rates) == CLASS_CP if d == 2 else min(rates) >= 0
        return Request(argv=argv, units=1, expect={
            "d": d, "mode": mode, "path": path, "ccp": exact_ccp,
            "ccp_margin": d * min(0.0, min(rates)),
        })

    def check(self, req, code, report):
        e = req.expect
        (v,) = report["verdicts"]
        if e["mode"] == "ccp":
            if abs(v["margin"] - e["ccp_margin"]) > 1e-8 * max(1.0, abs(e["ccp_margin"])):
                return Outcome(decided=True, contradiction=f"CCP margin {v['margin']!r}, exact {e['ccp_margin']!r}")
            want = CERTIFIED_PASS if e["ccp"] else CERTIFIED_FAIL
            return Outcome(decided=True, agreed=v["status"] == want,
                           contradiction=None if v["status"] == want else f"exact CCP test said {v['status']}")
        # conditional k = d positivity is equivalent to CCP
        if v["status"] == VIOLATION_FOUND:
            if e["ccp"]:
                return Outcome(decided=True, contradiction="violation reported for a CCP spec")
            replayed = self.replay(e["path"], e["d"], v["witness"])
            if abs(replayed - v["margin"]) > 1e-9 * max(1.0, abs(v["margin"])):
                return Outcome(decided=True, contradiction=f"witness replays to {replayed!r}, not {v['margin']!r}")
        want = NO_VIOLATION_FOUND if e["ccp"] else VIOLATION_FOUND
        return Outcome(decided=True, agreed=v["status"] == want)

    def replay(self, path, k, witness) -> float:
        _, spec, _ = load_spec_file(path)
        phi, psi = (np.array([complex(re, im) for re, im in w]) for w in witness)
        return replay_conditional_k_positivity(build_superoperator(spec), k, (phi, psi))


WORKLOADS = {w.name: w for w in (SampleSweep, DivSchwarz, DivCP, CheckKpos)}
