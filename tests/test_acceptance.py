"""End-to-end acceptance suite.

Each test covers one numbered criterion and emits a single PASS/FAIL line so
the whole contract can be read off a verbose run at a glance.  Tolerances are
stated inline; randomized parts use fixed seeds throughout.
"""
import functools
import json

import numpy as np
import pytest
import scipy.linalg

from rateaudit.bounds import audit_rates, audit_steady_states, steady_state_bound
from rateaudit.classical import (
    classical_generator,
    eigen_embedding,
    schwarz_pairwise_inequalities,
    two_positive_witness_sum,
)
from rateaudit.cli import main, random_ccp_spec
from rateaudit.generator import (
    SIGMA_Z,
    GeneratorSpec,
    Superoperator,
    adjoint_superoperator,
    build_superoperator,
    check_choi_trace_identity,
    choi,
    pauli_spec,
    regularize_faithful,
    relaxation_rates,
    stationary_states,
)
from rateaudit.kms import WeightedInnerProduct, kms_adjoint, symmetrized_generator
from rateaudit.matcore import devectorize
from rateaudit.positivity import (
    CERTIFIED_FAIL,
    NO_VIOLATION_FOUND,
    SamplerConfig,
    check_ccp,
    check_conditional_k_positivity,
    check_dissipativity,
)
from rateaudit.timedep import (
    build_grid,
    builtin_tanh_example,
    divisibility_audit,
    propagator,
)


def criterion(number, title):
    """Print one pass/fail line per criterion, then let pytest do its thing."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:2d}] FAIL  {title}")
                raise
            print(f"[criterion {number:2d}] PASS  {title}")

        return wrapper

    return deco


def seeded_spec(tag, d, i):
    rng = np.random.default_rng(np.random.SeedSequence([tag, d, i]))
    return random_ccp_spec(rng, d)


def random_signed_spec(rng, d):
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = 0.5 * (h + h.conj().T)
    jumps = tuple(
        (
            (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2 * d),
            float(rng.uniform(-1.0, 1.0)),
        )
        for _ in range(d * d - 1)
    )
    return GeneratorSpec(hamiltonian=h, jumps=jumps)


def random_basis(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(a)
    return q


@criterion(1, "qubit counterexample: rates (2,0,0), trivial bound saturated")
def test_criterion_01_pauli_counterexample():
    sup = build_superoperator(pauli_spec(1.0, 1.0, -1.0))
    rr = relaxation_rates(sup)
    assert np.allclose(rr.rates, (2.0, 0.0, 0.0), atol=1e-10)

    rep = audit_rates(rr, "positive", 2)
    assert rep.satisfied and rep.saturated and abs(rep.margin) <= 1e-9

    assert not audit_rates(rr, "2p", 2).satisfied
    verdict = check_conditional_k_positivity(sup, 2, SamplerConfig(n_restarts=16))
    assert verdict.violated
    assert check_ccp(sup).status == CERTIFIED_FAIL


@criterion(2, "Schwarz saturation at rates (4,1,1): bound 4, sampler clean")
def test_criterion_02_schwarz_saturation():
    sup = build_superoperator(pauli_spec(2.0, 2.0, -1.0))
    rr = relaxation_rates(sup)
    assert np.allclose(rr.rates, (4.0, 1.0, 1.0), atol=1e-10)

    rep = audit_rates(rr, "schwarz", 2)
    assert rep.bound == pytest.approx(4.0, abs=1e-12)
    assert abs(rep.margin) <= 1e-9 and rep.saturated

    rep2 = audit_rates(rr, "2p", 2)
    assert rep2.bound == pytest.approx(3.0, abs=1e-12) and not rep2.satisfied

    heis = adjoint_superoperator(sup)
    verdict = check_dissipativity(heis, SamplerConfig(n_restarts=128))
    assert verdict.status == NO_VIOLATION_FOUND


@criterion(3, "1/d rate bound on 4000 sampled generators + embedding chain")
def test_criterion_03_rate_bound_sampling_and_chain():
    for d in (2, 3, 4, 5):
        for i in range(1000):
            rr = relaxation_rates(build_superoperator(seeded_spec(77, d, i)))
            rep = audit_rates(rr, "cp", d)
            assert rep.margin >= -1e-9 * max(1.0, rr.rate_sum)

    # slowest relaxation rate of the symmetrized generator embeds into a
    # classical rate matrix whose trace dominates it; chain within 1e-8
    for idx in range(50):
        for d in (2, 3):
            sup = regularize_faithful(
                build_superoperator(seeded_spec(88, d, idx)), 0.05
            )
            _, omega = stationary_states(sup)
            sym = symmetrized_generator(
                adjoint_superoperator(sup), WeightedInnerProduct(omega)
            )
            schro_sym = Superoperator(d=d, matrix=sym.matrix.conj().T)
            vals, vecs = np.linalg.eig(schro_sym.matrix)
            i0 = int(np.argmin(vals.real))
            lam = float(vals[i0].real)
            k, _, resid = eigen_embedding(schro_sym, lam, devectorize(vecs[:, i0], d))
            assert resid < 1e-7
            gamma_max = relaxation_rates(sup).gamma_max
            trace_k = float(np.trace(k.matrix))
            trace_l = float(np.trace(sup.matrix).real)
            assert gamma_max <= -lam + 1e-8
            assert -lam <= -trace_k + 1e-8
            assert -trace_k <= -trace_l / d + 1e-8


@criterion(4, "trace identities: rate sum and Choi diagonal, 200 specs each")
def test_criterion_04_trace_identities():
    rng = np.random.default_rng(404)
    for i in range(200):
        d = 2 + i % 3
        if i % 2 == 0:
            spec = seeded_spec(99, d, i)
        else:
            spec = random_signed_spec(rng, d)
        sup = build_superoperator(spec)
        rr = relaxation_rates(sup)
        scale = 1e-9 * max(1.0, sup.norm())
        assert abs(rr.rate_sum + np.trace(sup.matrix).real) < scale
        assert check_choi_trace_identity(sup) < scale


@criterion(5, "weighted-adjoint machinery on 100 faithful generators")
def test_criterion_05_kms_machinery():
    for idx in range(50):
        for d in (2, 3):
            sup = regularize_faithful(
                build_superoperator(seeded_spec(55, d, idx)), 0.05
            )
            _, omega = stationary_states(sup)
            heis = adjoint_superoperator(sup)
            w = WeightedInnerProduct(omega)
            sharp = kms_adjoint(heis, w)
            assert np.linalg.norm(sharp.apply(np.eye(d))) < 1e-8

            sym = symmetrized_generator(heis, w)
            vals = np.linalg.eigvals(sym.matrix)
            assert np.max(np.abs(vals.imag)) < 1e-7
            assert abs(np.trace(sym.matrix) - np.trace(sup.matrix)) < 1e-9

            gamma_max = relaxation_rates(sup).gamma_max
            sym_gamma_max = float(np.max(-vals.real))
            assert gamma_max <= sym_gamma_max + 1e-7


@criterion(6, "classical embedding: qubit exact case + 50 symmetrized spectra")
def test_criterion_06_classical_embedding():
    sup = build_superoperator(pauli_spec(1.0, 1.0, -1.0))
    k, x, resid = eigen_embedding(sup, -2.0, SIGMA_Z)
    assert np.allclose(k.matrix, [[-1.0, 1.0], [1.0, -1.0]], atol=1e-12)
    assert resid < 1e-12
    assert np.allclose(k.matrix @ x, -2.0 * x, atol=1e-12)

    for idx in range(25):
        for d in (2, 3):
            sup = regularize_faithful(
                build_superoperator(seeded_spec(66, d, idx)), 0.05
            )
            _, omega = stationary_states(sup)
            sym = symmetrized_generator(
                adjoint_superoperator(sup), WeightedInnerProduct(omega)
            )
            schro_sym = Superoperator(d=d, matrix=sym.matrix.conj().T)
            vals, vecs = np.linalg.eig(schro_sym.matrix)
            for i in range(len(vals)):
                lam = float(vals[i].real)
                k, _, resid = eigen_embedding(schro_sym, lam, devectorize(vecs[:, i], d))
                assert resid < 1e-7
                k_eigs = np.linalg.eigvals(k.matrix)
                assert np.min(np.abs(k_eigs - lam)) < 1e-7


@criterion(7, "witness-sum and diagonal bookkeeping identities, 200 x 20")
def test_criterion_07_witness_identities():
    rng = np.random.default_rng(707)
    for i in range(200):
        d = 2 + i % 2
        sup = build_superoperator(random_signed_spec(rng, d))
        heis = adjoint_superoperator(sup)
        for _ in range(20):
            basis = random_basis(rng, d)
            s = two_positive_witness_sum(sup, basis)
            k = classical_generator(sup, basis)
            expected = 2 * (d * np.trace(k.matrix) - np.trace(sup.matrix).real)
            assert s == pytest.approx(expected, abs=1e-9 * max(1.0, abs(expected)))
            # diagonal bookkeeping identity is asserted internally
            schwarz_pairwise_inequalities(heis, basis)

    s = two_positive_witness_sum(
        build_superoperator(pauli_spec(1.0, 1.0, -1.0)), np.eye(2, dtype=complex)
    )
    assert s == pytest.approx(-4.0, abs=1e-9)


@criterion(8, "steady-state bounds: d=3 table (5,6,7), saturation, monotone")
def test_criterion_08_steady_state_bounds():
    assert steady_state_bound("cp", 3) == 5
    assert steady_state_bound("2p", 3) == 6
    assert steady_state_bound("schwarz", 3) == 7

    dephasing = build_superoperator(
        GeneratorSpec(hamiltonian=np.zeros((2, 2)), jumps=((SIGMA_Z, 1.0),))
    )
    m0, bound, within = audit_steady_states(dephasing, "cp")
    assert m0 == 2 and bound == 2 and within

    prev = None
    for d in range(2, 11):
        cp, two_p, schwarz = (
            steady_state_bound(c, d) for c in ("cp", "2p", "schwarz")
        )
        assert cp <= two_p <= schwarz
        if prev is not None:
            assert cp >= prev[0] and two_p >= prev[1] and schwarz >= prev[2]
        prev = (cp, two_p, schwarz)


@criterion(9, "tanh-modulated qubit: rates, divisibility classes, negativity")
def test_criterion_09_tanh_example():
    td = builtin_tanh_example(0.25)
    for t in np.linspace(0.05, 3.0, 20):
        rr = relaxation_rates(td.at(t))
        expected = (2.0, 1.0 - 0.5 * np.tanh(t), 1.0 - 0.5 * np.tanh(t))
        assert np.allclose(rr.rates, expected, atol=1e-9)

    grid = np.round(np.arange(0.0, 3.0 + 1e-9, 0.1), 10)
    results, first = divisibility_audit(
        td, grid, "cp", SamplerConfig(n_restarts=4), steps_per_interval=60
    )
    # the map from t=0 is still CP; every interval starting at t > 0 violates
    assert not results[0][1].violated
    assert first == 1
    assert all(v.violated for _, v in results[1:])

    _, first = divisibility_audit(
        td, grid, "schwarz", SamplerConfig(n_restarts=64), steps_per_interval=60
    )
    assert first is None

    cumulative = propagator(td, 0.0, 3.0, steps=3000)
    assert np.linalg.eigvalsh(choi(cumulative))[0] >= -1e-6

    td6 = builtin_tanh_example(0.6)
    g = build_grid(td6, np.linspace(0.0, 5.0, 26), steps_per_interval=120)
    worst = min(np.linalg.eigvalsh(choi(c))[0] for c in g.cumulative)
    assert worst < -1e-4


@criterion(10, "propagator integrator: exact on constant rates, order ~2")
def test_criterion_10_integrator_order():
    # each step is an exact exponential, so frozen generators integrate exactly
    for i in range(20):
        d = 2 + i % 2
        spec = seeded_spec(33, d, i)
        td_const = type(builtin_tanh_example(0.0))(
            build_superoperator(spec).matrix[None],
            lambda t: np.ones((t.size, 1)), t_start=0.0, t_end=5.0,
        )
        exact = scipy.linalg.expm(1.7 * build_superoperator(spec).matrix)
        approx = propagator(td_const, 0.0, 1.7, steps=7).matrix
        assert np.linalg.norm(approx - exact) < 1e-12

    # on genuinely time-dependent rates the scheme is second order: halving
    # the step divides the error by ~4
    ratios = []
    for i in range(20):
        d = 2 + i % 2
        base = seeded_spec(44, d, i)

        # the rates scaled by 1 + sin(t)/2: an H-only and a jumps-only term
        terms = (GeneratorSpec(hamiltonian=base.hamiltonian, jumps=()),
                 GeneratorSpec(hamiltonian=np.zeros((d, d)), jumps=base.jumps))
        td = type(builtin_tanh_example(0.0))(
            np.array([build_superoperator(s).matrix for s in terms]),
            lambda t: np.stack([np.ones_like(t), 1.0 + 0.5 * np.sin(t)], axis=-1),
            t_start=0.0, t_end=5.0,
        )
        ref = propagator(td, 0.0, 2.0, steps=512).matrix
        err = [
            np.linalg.norm(propagator(td, 0.0, 2.0, steps=n).matrix - ref)
            for n in (8, 16)
        ]
        ratios.append(err[0] / err[1])
    assert all(3.5 <= r <= 4.5 for r in ratios), ratios


@criterion(11, "determinism: sampled commands rerun to byte-identical output")
def test_criterion_11_determinism(tmp_path, fixtures, capsys):
    runs = [
        ["check", str(fixtures / "pauli_22-1.json"), "--dissipative",
         "--samples", "24", "--seed", "9"],
        ["check", str(fixtures / "pauli_111-1.json"), "--k", "2",
         "--samples", "16", "--seed", "5"],
        ["sample", "--d", "3", "--count", "10", "--seed", "21",
         "--class-check", "2p"],
        ["divisibility", str(fixtures / "tanh_025.json"), "--class", "schwarz",
         "--t1", "1.0", "--grid", "4", "--steps", "40", "--seed", "3"],
    ]
    for i, argv in enumerate(runs):
        out = tmp_path / f"run{i}.json"
        code1 = main(argv + ["--out", str(out)])
        first = out.read_bytes()
        json.loads(first.decode())  # reports must be valid JSON
        code2 = main(argv + ["--out", str(out)])
        assert code1 == code2
        assert out.read_bytes() == first
    capsys.readouterr()
