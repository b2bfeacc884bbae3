import re

import numpy as np
import pytest

from conftest import ccp_spec, random_hermitian
from rateaudit.generator import (
    SIGMA_X,
    SIGMA_Z,
    GeneratorSpec,
    Superoperator,
    adjoint_superoperator,
    build_superoperator,
    check_choi_trace_identity,
    choi,
    depolarizing_regulator,
    _hermitian_basis,
    _reshuffle,
    gkls_matrices,
    hp_spectrum,
    maximally_entangled_projector,
    pauli_spec,
    rate_reports,
    regularize_faithful,
    relaxation_rates,
    stationary_states,
)
from rateaudit.matcore import devectorize, kernel_dimension, numerical_kernel, vectorize
from rateaudit.timedep import builtin_tanh_example


def dephasing_spec():
    return GeneratorSpec(hamiltonian=np.zeros((2, 2)), jumps=((SIGMA_Z, 1.0),))


def apply_gkls(spec, rho):
    """Direct element-by-element evaluation of the canonical form."""
    h = spec.hamiltonian
    out = -1j * (h @ rho - rho @ h)
    for op, rate in spec.jumps:
        anti = op.conj().T @ op
        out = out + rate * (op @ rho @ op.conj().T - 0.5 * (anti @ rho + rho @ anti))
    return out


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(hamiltonian=np.array([[0.0, 1.0], [0.0, 0.0]]), jumps=())
    with pytest.raises(ValueError):
        GeneratorSpec(hamiltonian=np.zeros((2, 2)), jumps=((np.zeros((3, 3)), 1.0),))
    with pytest.raises(ValueError):
        GeneratorSpec(hamiltonian=np.zeros((2, 2)), jumps=((SIGMA_X, np.inf),))


def test_null_generator():
    sup = build_superoperator(GeneratorSpec(hamiltonian=np.zeros((2, 2)), jumps=()))
    assert np.linalg.norm(sup.matrix) == 0.0


def test_pauli_superoperator_spectrum():
    sup = build_superoperator(pauli_spec(1.0, 1.0, -1.0))
    vals = np.sort(np.linalg.eigvals(sup.matrix).real)
    assert np.allclose(vals, [-2.0, 0.0, 0.0, 0.0], atol=1e-10)


def test_build_matches_direct_evaluation():
    rng = np.random.default_rng(7)

    def signed(d, n_jumps):
        ops = rng.normal(size=(n_jumps, d, d)) + 1j * rng.normal(size=(n_jumps, d, d))
        return GeneratorSpec(
            hamiltonian=random_hermitian(rng, d),
            jumps=tuple((op, rate) for op, rate in zip(ops, rng.uniform(-1, 2, n_jumps))),
        )

    # signed rates at d = 2, 3, 4, 8; Hamiltonian only; jumps only; nothing;
    # the d = 3 jump list reversed
    specs = [ccp_spec(2, 3)] + [signed(d, d * d - 1) for d in (2, 3, 4, 8)]
    specs += [
        GeneratorSpec(hamiltonian=random_hermitian(rng, 3), jumps=()),
        GeneratorSpec(hamiltonian=np.zeros((3, 3)), jumps=signed(3, 4).jumps),
        GeneratorSpec(hamiltonian=np.zeros((2, 2)), jumps=()),
        GeneratorSpec(hamiltonian=specs[2].hamiltonian, jumps=specs[2].jumps[::-1]),
    ]
    for spec in specs:
        d = spec.d
        sup = build_superoperator(spec)
        bound = 1e-12 * max(1.0, sup.norm())
        for i in range(d):
            for j in range(d):
                e = np.zeros((d, d), dtype=complex)
                e[i, j] = 1.0
                assert np.linalg.norm(sup.apply(e) - apply_gkls(spec, e)) < bound, (d, i, j)


def test_gkls_matrices_stack_matches_single_builds():
    # every matrix of a stacked build is the one-spec build, byte for byte
    rng = np.random.default_rng(8)
    for d, n_jumps in ((2, 0), (2, 3), (3, 8), (4, 2), (5, 26)):
        specs = [
            GeneratorSpec(
                hamiltonian=random_hermitian(rng, d),
                jumps=tuple(
                    (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), rate)
                    for rate in rng.uniform(-1, 2, n_jumps)
                ),
            )
            for _ in range(6)
        ]
        h = np.stack([spec.hamiltonian for spec in specs])
        ops = np.array([[op for op, _ in spec.jumps] for spec in specs],
                       dtype=complex).reshape(6, n_jumps, d, d)
        rates = np.array([[rate for _, rate in spec.jumps] for spec in specs])
        rates = rates.reshape(6, n_jumps)
        stack = gkls_matrices(h, ops, rates)
        assert stack.shape == (6, d * d, d * d)
        for m, spec in zip(stack, specs):
            assert m.tobytes() == build_superoperator(spec).matrix.tobytes(), (d, n_jumps)


def test_trace_and_hermiticity_preservation():
    rng = np.random.default_rng(0)
    spec = ccp_spec(3, 3)
    sup = build_superoperator(spec)
    vec_i = np.eye(3, dtype=complex).reshape(-1, order="F")
    assert np.linalg.norm(vec_i.conj() @ sup.matrix) < 1e-9
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.linalg.norm(sup.apply(x.conj().T) - sup.apply(x).conj().T) < 1e-9


def test_adjoint_superoperator():
    assert np.linalg.norm(
        adjoint_superoperator(
            build_superoperator(GeneratorSpec(hamiltonian=np.zeros((2, 2)), jumps=()))
        ).matrix
    ) == 0.0
    # Pauli family is Hilbert-Schmidt self-adjoint
    sup = build_superoperator(pauli_spec(1.0, 2.0, 0.5))
    adj = adjoint_superoperator(sup)
    assert np.linalg.norm(sup.matrix - adj.matrix) < 1e-12
    assert adj.picture == "heisenberg"
    # same rates both pictures for a generic spec
    spec = ccp_spec(4, 3)
    sup = build_superoperator(spec)
    heis = adjoint_superoperator(sup)
    r1 = np.sort(np.linalg.eigvals(sup.matrix).real)
    r2 = np.sort(np.linalg.eigvals(heis.matrix).real)
    assert np.allclose(r1, r2, atol=1e-8)


def test_double_adjoint_identity():
    sup = build_superoperator(ccp_spec(5, 2))
    back = adjoint_superoperator(adjoint_superoperator(sup))
    assert np.linalg.norm(back.matrix - sup.matrix) < 1e-12
    assert back.picture == sup.picture


def test_choi_identity_map():
    ident = Superoperator(d=2, matrix=np.eye(4, dtype=complex))
    assert np.allclose(choi(ident), maximally_entangled_projector(2))


def test_choi_trace_identity():
    for seed in range(5):
        sup = build_superoperator(ccp_spec(seed, 2 + seed % 2))
        assert check_choi_trace_identity(sup) < 1e-9


def test_choi_pauli_negative_eigenvalue():
    sup = build_superoperator(pauli_spec(1.0, 1.0, -1.0))
    assert np.linalg.eigvalsh(choi(sup))[0] < -1e-6


def superoperator_from_choi(c):
    """Oracle: the inverse of the Choi reshuffle (round trip with choi up to
    the rounding of the 1/d scale)."""
    d = round(c.shape[0] ** 0.5)
    return Superoperator(d=d, matrix=_reshuffle(d * c, d))


def test_choi_blocks_are_images_of_matrix_units():
    # oracle: block (i, j) of C is Phi(|i><j|) / d
    rng = np.random.default_rng(17)
    for d in (2, 3, 4):
        m = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        sup = Superoperator(d=d, matrix=m)
        c = choi(sup)
        for i in range(d):
            for j in range(d):
                e = np.zeros((d, d), dtype=complex)
                e[i, j] = 1.0
                blk = c[i * d : (i + 1) * d, j * d : (j + 1) * d]
                assert np.allclose(blk, sup.apply(e) / d, rtol=0, atol=1e-14)
        back = superoperator_from_choi(choi(sup)).matrix
        assert np.allclose(back, m, rtol=0, atol=1e-14)


def test_choi_round_trip():
    sup = build_superoperator(ccp_spec(9, 3))
    back = superoperator_from_choi(choi(sup))
    assert np.linalg.norm(back.matrix - sup.matrix) < 1e-12


def test_relaxation_rates_unitary_case():
    h = np.array([[1.0, 0.3], [0.3, -0.5]])
    rr = relaxation_rates(build_superoperator(GeneratorSpec(hamiltonian=h, jumps=())))
    assert all(abs(g) < 1e-10 for g in rr.rates)
    assert not rr.unstable


def test_relaxation_rates_pauli_examples():
    rr = relaxation_rates(build_superoperator(pauli_spec(1.0, 1.0, -1.0)))
    assert np.allclose(rr.rates, (2.0, 0.0, 0.0), atol=1e-10)
    assert rr.gamma_max == pytest.approx(2.0) and rr.rate_sum == pytest.approx(2.0)
    rr = relaxation_rates(build_superoperator(pauli_spec(2.0, 2.0, -1.0)))
    assert np.allclose(rr.rates, (4.0, 1.0, 1.0), atol=1e-10)


def test_rate_sum_trace_rule():
    # sum(Gamma) = -Re Tr L, also for negative-rate specs
    for g3 in (1.0, -0.4, -1.0):
        sup = build_superoperator(pauli_spec(1.3, 0.7, g3))
        rr = relaxation_rates(sup)
        assert rr.rate_sum == pytest.approx(-np.trace(sup.matrix).real, abs=1e-9)
    sup = build_superoperator(ccp_spec(11, 3))
    rr = relaxation_rates(sup)
    assert abs(rr.rate_sum + np.trace(sup.matrix).real) < 1e-9 * max(1.0, sup.norm())


def test_spectrum_conjugation_closure():
    sup = build_superoperator(ccp_spec(13, 3))
    vals = list(rate_reports(sup.matrix[None])[0].eigenvalues)
    for v in vals:
        if abs(v.imag) > 1e-8:
            assert min(abs(v.conjugate() - u) for u in vals) < 1e-8


def test_ccp_rates_nonnegative():
    for seed in range(10):
        rr = relaxation_rates(build_superoperator(ccp_spec(seed, 2 + seed % 3)))
        assert all(g >= -1e-9 for g in rr.rates)
        assert not rr.unstable


def test_relaxation_rates_requires_zero_mode():
    bad = Superoperator(d=2, matrix=np.eye(4, dtype=complex))
    with pytest.raises(RuntimeError):
        relaxation_rates(bad)


def test_rate_reports_stack_matches_single_reports():
    # CCP and signed-rate specs, a degenerate zero mode and a unitary one in
    # one stack: each report equals the one-matrix report
    rng = np.random.default_rng(12)
    specs = [ccp_spec(seed, 2) for seed in range(4)]
    specs += [pauli_spec(1.0, 1.0, -1.0), pauli_spec(2.0, 2.0, -1.0), dephasing_spec()]
    specs += [GeneratorSpec(hamiltonian=random_hermitian(rng, 2), jumps=())]
    specs += [
        GeneratorSpec(
            hamiltonian=random_hermitian(rng, 2),
            jumps=tuple((rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), rate)
                        for rate in rng.uniform(-1, 1, 3)),
        )
        for _ in range(4)
    ]
    sups = [build_superoperator(spec) for spec in specs]
    stack = np.stack([sup.matrix for sup in sups])
    reports = rate_reports(stack)
    assert reports == [relaxation_rates(sup) for sup in sups]
    assert any(rr.unstable for rr in reports) and any(rr.rates[-1] == 0 for rr in reports)

    # an item without a zero mode fails the stack with the one-matrix error
    bad = np.concatenate([stack[:2], np.eye(4, dtype=complex)[None], stack[2:]])
    with pytest.raises(RuntimeError) as single:
        relaxation_rates(Superoperator(d=2, matrix=np.eye(4, dtype=complex)))
    with pytest.raises(RuntimeError, match=re.escape(str(single.value))):
        rate_reports(bad)



def complex_rate_reference(m):
    """Eigenvalues (sorted by real part descending) and the rates of one
    generator matrix from complex `eigvals` of m itself, as `rate_reports`
    computed them before the real form."""
    vals = np.linalg.eigvals(m)
    vals = vals[np.lexsort((vals.imag, -vals.real))]
    i0 = np.argmin(np.abs(vals))
    return vals, sorted((-x.real for j, x in enumerate(vals) if j != i0), reverse=True)


def test_hermitian_basis_is_unitary_and_hermitian():
    for d in range(2, 7):
        u = _hermitian_basis(d)
        assert u.shape == (d * d, d * d) and not u.flags.writeable
        assert np.abs(u.conj().T @ u - np.eye(d * d)).max() < 1e-15
        for col in u.T:
            f = devectorize(col, d)
            assert np.array_equal(f, f.conj().T)


def test_rate_reports_match_complex_eigvals():
    # random CCP and signed-rate specs for d = 2..6 and the tanh L(t) stack:
    # every eigenvalue, rate and flag of the real form within 1e-12 relative
    rng = np.random.default_rng(21)
    stacks = [np.stack([build_superoperator(ccp_spec(seed, d)).matrix for seed in range(3)])
              for d in range(2, 7)]
    stacks += [np.stack([build_superoperator(GeneratorSpec(
        hamiltonian=random_hermitian(rng, d),
        jumps=tuple((rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), rate)
                    for rate in rng.uniform(-1, 1, d * d - 1)))).matrix for _ in range(3)])
        for d in range(2, 7)]
    stacks.append(builtin_tanh_example(0.6).matrices(np.linspace(0.0, 3.0, 7)))
    for stack in stacks:
        for m, rr in zip(stack, rate_reports(stack)):
            scale = 1e-12 * max(1.0, np.linalg.norm(m, 2))
            vals, rates = complex_rate_reference(m)
            got = np.array(rr.eigenvalues)
            assert max(np.abs(got - v).min() for v in vals) <= scale
            assert np.allclose(rr.rates, rates, rtol=0, atol=scale)
            assert abs(rr.rate_sum - sum(rates)) <= scale and not rr.defective_zero
            # non-real eigenvalues come in exact conjugate pairs
            assert sorted(got.tolist(), key=lambda z: (z.real, z.imag)) == sorted(
                got.conj().tolist(), key=lambda z: (z.real, z.imag))
    assert any(rr.unstable for rr in rate_reports(stacks[5]))


def test_real_form_rejects_non_hermiticity_preserving_maps():
    with pytest.raises(ValueError, match="not Hermiticity-preserving"):
        rate_reports(1j * np.eye(4)[None])
    with pytest.raises(ValueError, match="not Hermiticity-preserving"):
        relaxation_rates(Superoperator(d=2, matrix=1j * np.eye(4)))
    with pytest.raises(ValueError, match="HERMITICITY_TOL"):
        hp_spectrum(1j * np.eye(4)[None])
    # an all-real spectrum still comes back complex
    vals, _ = hp_spectrum(build_superoperator(pauli_spec(2.0, 2.0, -1.0)).matrix[None])
    assert vals.dtype == complex and np.array_equal(vals.imag, np.zeros((1, 4)))

def test_stationary_states_dephasing():
    m0, faithful = stationary_states(build_superoperator(dephasing_spec()))
    assert m0 == 2
    assert faithful is not None
    # the kernel projector maps I/2 to itself
    assert np.linalg.norm(faithful - np.eye(2) / 2) < 1e-5


def test_stationary_states_unique_and_trivial():
    m0, faithful = stationary_states(build_superoperator(pauli_spec(1, 1, 1)))
    assert m0 == 1 and np.linalg.norm(faithful - np.eye(2) / 2) < 1e-8
    zero = Superoperator(d=2, matrix=np.zeros((4, 4), dtype=complex))
    m0, _ = stationary_states(zero)
    assert m0 == 4
    # trivial kernel: no P0, no state
    assert stationary_states(Superoperator(d=2, matrix=-np.eye(4))) == (0, None)
    # kernel spanned by sigma_z: P0(I/2) = 0 has zero trace
    z = vectorize(SIGMA_Z)
    traceless = Superoperator(d=2, matrix=np.outer(z, z.conj()) / 2 - np.eye(4))
    assert stationary_states(traceless) == (1, None)


def test_stationary_states_exact_on_degenerate_kernels():
    # dephasing keeps every diagonal matrix, so P0(I/d) = I/d exactly
    w = np.exp(2j * np.pi / 3)
    clock = GeneratorSpec(hamiltonian=np.zeros((3, 3)), jumps=((np.diag([1, w, w * w]), 1.0),))
    for spec in (clock, dephasing_spec()):
        m0, faithful = stationary_states(build_superoperator(spec))
        assert m0 == spec.d
        assert np.linalg.norm(faithful - np.eye(spec.d) / spec.d) < 1e-12


def test_defective_zero_has_no_faithful_state():
    # L(X) = Tr(sigma_x X) sigma_z is trace-preserving and nilpotent: its zero
    # eigenvalue has algebraic multiplicity 4 but a 3-dimensional kernel
    m = np.outer(vectorize(SIGMA_Z), vectorize(SIGMA_X).conj())
    nilpotent = Superoperator(d=2, matrix=m)
    assert relaxation_rates(nilpotent).defective_zero
    m0, faithful = stationary_states(nilpotent)
    assert m0 == 3 and faithful is None
    m0, faithful = stationary_states(regularize_faithful(nilpotent, 0.1))
    assert m0 == 1 and np.linalg.norm(faithful - np.eye(2) / 2) < 1e-12


def _rank_rule_cases():
    clock = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
    nilpotent = np.outer(vectorize(SIGMA_Z), vectorize(SIGMA_X).conj())
    yield pytest.param(build_superoperator(dephasing_spec()), 2, id="dephasing")
    yield pytest.param(build_superoperator(GeneratorSpec(np.zeros((3, 3)), ((clock, 1.0),))),
                       3, id="clock_d3")
    yield pytest.param(Superoperator(d=2, matrix=np.zeros((4, 4), dtype=complex)), 4, id="zero")
    yield pytest.param(Superoperator(d=2, matrix=nilpotent), 3, id="nilpotent")
    for d in (2, 3):  # a random CCP generator has a unique steady state
        for seed in range(10):
            yield pytest.param(build_superoperator(ccp_spec(seed, d)), 1, id=f"ccp_{d}_{seed}")


@pytest.mark.parametrize("s, m0", _rank_rule_cases())
def test_rank_rule_agrees_everywhere(s, m0):
    # the singular values of the real form (rate_reports' defective_zero), the
    # kernel bases and stationary_states all read m0 from one rank rule
    assert int(kernel_dimension(hp_spectrum(s.matrix[None])[1])[0]) == m0
    assert numerical_kernel(s.matrix)[0].shape[1] == m0
    assert stationary_states(s)[0] == m0


def test_regularize_faithful():
    d = 2
    zero = Superoperator(d=d, matrix=np.zeros((4, 4), dtype=complex))
    reg = regularize_faithful(zero, 0.7)
    assert np.allclose(reg.matrix, 0.7 * depolarizing_regulator(d).matrix)
    m0, faithful = stationary_states(reg)
    assert m0 == 1 and np.linalg.norm(faithful - np.eye(2) / 2) < 1e-8

    reg = regularize_faithful(build_superoperator(dephasing_spec()), 0.1)
    m0, faithful = stationary_states(reg)
    assert m0 == 1
    assert np.linalg.eigvalsh(faithful)[0] > 1e-6

    with pytest.raises(ValueError):
        regularize_faithful(zero, 0.0)


def test_regularize_converges_to_original():
    sup = build_superoperator(ccp_spec(17, 2))
    dists = [
        np.linalg.norm(regularize_faithful(sup, 1.0 / n).matrix - sup.matrix)
        for n in (1, 2, 4, 8, 16)
    ]
    assert all(a > b for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 0.2
