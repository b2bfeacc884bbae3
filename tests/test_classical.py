import numpy as np
import pytest

from conftest import ccp_spec
from rateaudit.classical import (
    ClassicalGenerator,
    check_stochastic_generator,
    classical_generator,
    eigen_embedding,
    schwarz_pairwise_inequalities,
    trace_inequality,
    two_positive_witness_sum,
)
from rateaudit.generator import (
    SIGMA_Z,
    GeneratorSpec,
    Superoperator,
    adjoint_superoperator,
    build_superoperator,
    pauli_spec,
    regularize_faithful,
    stationary_states,
)
from rateaudit.cli import random_ccp_spec
from rateaudit.kms import WeightedInnerProduct, symmetrized_generator
from rateaudit.matcore import devectorize

COMP2 = np.eye(2, dtype=complex)


def random_basis(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(a)
    return q


def random_signed_spec(rng, d):
    """Hermiticity-preserving generator with rates of both signs."""
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = 0.5 * (h + h.conj().T)
    jumps = []
    for _ in range(d * d - 1):
        l = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        jumps.append((l / np.sqrt(2 * d), float(rng.uniform(-1.0, 1.0))))
    return GeneratorSpec(hamiltonian=h, jumps=tuple(jumps))


def test_classical_generator_pauli():
    k = classical_generator(build_superoperator(pauli_spec(1, 1, -1)), COMP2)
    assert np.allclose(k.matrix, [[-1.0, 1.0], [1.0, -1.0]], atol=1e-12)
    k = classical_generator(build_superoperator(pauli_spec(2, 2, -1)), COMP2)
    assert np.allclose(k.matrix, [[-2.0, 2.0], [2.0, -2.0]], atol=1e-12)
    assert np.trace(k.matrix) == pytest.approx(-4.0)


def test_classical_generator_hamiltonian_vanishes():
    h = np.array([[0.3, 1.0 - 0.5j], [1.0 + 0.5j, -0.3]])
    sup = build_superoperator(GeneratorSpec(hamiltonian=h, jumps=()))
    k = classical_generator(sup, COMP2)
    assert np.max(np.abs(k.matrix)) < 1e-12


def test_classical_generator_basis_handling():
    sup = build_superoperator(pauli_spec(1, 1, 1))
    # unitary-matrix form and list-of-vectors form agree
    u = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    k1 = classical_generator(sup, u)
    k2 = classical_generator(sup, [u[:, 0], u[:, 1]])
    assert np.allclose(k1.matrix, k2.matrix)
    with pytest.raises(ValueError):
        classical_generator(sup, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_column_sums_vanish_random_bases():
    rng = np.random.default_rng(0)
    for d in (2, 3):
        sup = build_superoperator(random_signed_spec(rng, d))
        for _ in range(10):
            k = classical_generator(sup, random_basis(rng, d))
            assert np.max(np.abs(k.matrix.sum(axis=0))) < 1e-9 * max(1.0, sup.norm())


def test_check_stochastic_generator():
    k = ClassicalGenerator(d=2, matrix=np.array([[-1.0, 1.0], [1.0, -1.0]]))
    ok, col_ok, off_ok = check_stochastic_generator(k)
    assert ok and col_ok and off_ok
    k = ClassicalGenerator(d=2, matrix=np.array([[-1.0, 2.0], [1.0, -2.0]]))
    assert check_stochastic_generator(k)[0]
    k = ClassicalGenerator(d=2, matrix=np.array([[-1.0, -0.5], [1.0, 0.5]]))
    ok, col_ok, off_ok = check_stochastic_generator(k)
    assert col_ok and not off_ok and not ok


def test_stochastic_from_ccp_random_bases():
    rng = np.random.default_rng(1)
    sup = build_superoperator(ccp_spec(0, 3))
    for _ in range(20):
        k = classical_generator(sup, random_basis(rng, 3))
        ok, _, _ = check_stochastic_generator(k)
        assert ok


def test_trace_inequality_examples():
    lhs, rhs, ok, gap = trace_inequality(
        build_superoperator(pauli_spec(1, 1, 1)), COMP2, "cp"
    )
    assert lhs == pytest.approx(-6.0) and rhs == pytest.approx(-4.0)
    assert ok and gap == pytest.approx(2.0)

    lhs, rhs, ok, gap = trace_inequality(
        build_superoperator(pauli_spec(1, 1, -1)), COMP2, "cp"
    )
    assert lhs == pytest.approx(-2.0) and rhs == pytest.approx(-4.0)
    assert not ok and gap == pytest.approx(-2.0)

    lhs, rhs, ok, gap = trace_inequality(
        build_superoperator(pauli_spec(2, 2, -1)), COMP2, "schwarz"
    )
    assert lhs == pytest.approx(-6.0) and rhs == pytest.approx(-6.0)
    assert ok and abs(gap) < 1e-9

    with pytest.raises(ValueError):
        trace_inequality(build_superoperator(pauli_spec(1, 1, 1)), COMP2, "bogus")


def test_trace_inequality_ccp_random_bases():
    rng = np.random.default_rng(2)
    for d in (2, 3, 4):
        sup = build_superoperator(ccp_spec(d, d))
        for _ in range(15):
            _, _, ok, _ = trace_inequality(sup, random_basis(rng, d), "cp")
            assert ok


def test_two_positive_witness_sum_examples():
    s = two_positive_witness_sum(build_superoperator(pauli_spec(1, 1, -1)), COMP2)
    assert s == pytest.approx(-4.0, abs=1e-9)
    s = two_positive_witness_sum(build_superoperator(pauli_spec(1, 1, 1)), COMP2)
    assert s == pytest.approx(4.0, abs=1e-9)
    zero = Superoperator(d=2, matrix=np.zeros((4, 4)))
    assert two_positive_witness_sum(zero, COMP2) == pytest.approx(0.0)


def test_witness_sum_identity_arbitrary_generators():
    # S = 2(d Tr K - Tr L) is pure algebra: holds for non-positive generators too
    rng = np.random.default_rng(3)
    for d in (2, 3):
        sup = build_superoperator(random_signed_spec(rng, d))
        for _ in range(10):
            basis = random_basis(rng, d)
            s = two_positive_witness_sum(sup, basis)
            k = classical_generator(sup, basis)
            expected = 2 * (d * np.trace(k.matrix) - np.trace(sup.matrix).real)
            assert s == pytest.approx(expected, abs=1e-9 * max(1.0, abs(expected)))


def test_schwarz_pairwise_inequalities():
    heis = adjoint_superoperator(build_superoperator(pauli_spec(2, 2, -1)))
    margins, all_ok = schwarz_pairwise_inequalities(heis, COMP2)
    assert all_ok
    assert all(v >= -1e-9 for v in margins.values())

    heis = adjoint_superoperator(build_superoperator(pauli_spec(1, 1, -1)))
    margins, all_ok = schwarz_pairwise_inequalities(heis, COMP2)
    assert not all_ok
    assert min(margins.values()) < -1e-6

    zero = Superoperator(d=2, matrix=np.zeros((4, 4)), picture="heisenberg")
    margins, all_ok = schwarz_pairwise_inequalities(zero, COMP2)
    assert all_ok and all(v == 0.0 for v in margins.values())


def test_schwarz_pairwise_rejects_non_unital():
    scaled = Superoperator(
        d=2, matrix=2.0 * np.eye(4, dtype=complex), picture="heisenberg"
    )
    with pytest.raises(ValueError):
        schwarz_pairwise_inequalities(scaled, COMP2)


def test_diagonal_sum_identity_random():
    # sum_{i != j} K_jj = (d-1) Tr K is checked inside schwarz_pairwise_inequalities
    rng = np.random.default_rng(4)
    for _ in range(5):
        g = rng.uniform(0.2, 2.0, size=3)
        heis = adjoint_superoperator(build_superoperator(pauli_spec(*g)))
        schwarz_pairwise_inequalities(heis, random_basis(rng, 2))


def loop_witness_sum(s, u):
    """Reference: the per-pair `apply` loop that two_positive_witness_sum replaced."""
    vecs = [u[:, i] for i in range(s.d)]
    d = s.d
    total = 0.0
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            ei, ej = vecs[i], vecs[j]
            t_ii = ei.conj() @ s.apply(np.outer(ei, ei.conj())) @ ei
            t_jj = ej.conj() @ s.apply(np.outer(ej, ej.conj())) @ ej
            t_ij = ei.conj() @ s.apply(np.outer(ei, ej.conj())) @ ej
            t_ji = ej.conj() @ s.apply(np.outer(ej, ei.conj())) @ ei
            total += float((t_ii + t_jj - t_ij - t_ji).real)
    return total


def loop_schwarz_margins(s_heis, u):
    """Reference: the per-pair `apply` loop that schwarz_pairwise_inequalities
    replaced; returns (margins, all_ok)."""
    vecs = [u[:, i] for i in range(s_heis.d)]
    d = s_heis.d
    margins = {}
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            ei, ej = vecs[i], vecs[j]
            kjj = float(
                (ej.conj() @ s_heis.apply(np.outer(ej, ej.conj())) @ ej).real
            )
            cross = (
                ej.conj() @ s_heis.apply(np.outer(ej, ei.conj())) @ ei
                + ei.conj() @ s_heis.apply(np.outer(ei, ej.conj())) @ ej
            )
            margins[(i, j)] = kjj - float(cross.real)
    all_ok = all(v >= -1e-9 * max(1.0, s_heis.norm()) for v in margins.values())
    return margins, all_ok


def test_pair_reads_match_pair_loops():
    rng = np.random.default_rng(6)
    for d in (2, 3, 4):
        for _ in range(4):
            sup = build_superoperator(random_signed_spec(rng, d))
            heis = adjoint_superoperator(sup)
            for _ in range(5):
                basis = random_basis(rng, d)
                want = loop_witness_sum(sup, basis)
                got = two_positive_witness_sum(sup, basis)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
                want_margins, want_ok = loop_schwarz_margins(heis, basis)
                margins, all_ok = schwarz_pairwise_inequalities(heis, basis)
                assert list(margins) == list(want_margins) and all_ok == want_ok
                for key, v in want_margins.items():
                    assert abs(margins[key] - v) <= 1e-12 * max(1.0, abs(v))


def test_eigen_embedding_pauli():
    sup = build_superoperator(pauli_spec(1, 1, -1))
    k, x, resid = eigen_embedding(sup, -2.0, SIGMA_Z)
    assert np.allclose(k.matrix, [[-1.0, 1.0], [1.0, -1.0]], atol=1e-12)
    assert resid < 1e-12
    kx = k.matrix @ x
    assert np.allclose(kx, -2.0 * x, atol=1e-12)


def test_eigen_embedding_identity_mode():
    sup = build_superoperator(pauli_spec(1, 2, 3))
    _, x, resid = eigen_embedding(sup, 0.0, np.eye(2, dtype=complex))
    assert resid < 1e-10


def test_eigen_embedding_rejects_non_eigenvector():
    sup = build_superoperator(pauli_spec(1, 1, -1))
    with pytest.raises(ValueError):
        eigen_embedding(sup, -1.0, SIGMA_Z)


def test_eigen_embedding_symmetrized_pipeline():
    rng = np.random.default_rng(5)
    sup = regularize_faithful(build_superoperator(ccp_spec(7, 2)), 0.05)
    _, omega = stationary_states(sup)
    sym = symmetrized_generator(
        adjoint_superoperator(sup), WeightedInnerProduct(omega)
    )
    schro_sym = Superoperator(d=2, matrix=sym.matrix.conj().T)
    vals, vecs = np.linalg.eig(schro_sym.matrix)
    from rateaudit.matcore import devectorize

    for i in range(len(vals)):
        lam = float(vals[i].real)
        x_op = devectorize(vecs[:, i], 2)
        _, _, resid = eigen_embedding(schro_sym, lam, x_op)
        assert resid < 1e-7


def deterministic_eigbasis(x):
    """Reference basis: ascending-eigenvalue eigenvectors, each with its first
    nonzero component made real-positive."""
    vals, vecs = np.linalg.eigh(x)
    cols = []
    for i in range(vecs.shape[1]):
        v = vecs[:, i].copy()
        nz = np.argmax(np.abs(v) > 1e-12)
        phase = v[nz] / abs(v[nz])
        cols.append(v / phase)
    return vals, cols


def phase_fixed_embedding(s, lam, x_op):
    """eigen_embedding built in the phase-fixed reference basis."""
    x_op = np.asarray(x_op, dtype=complex)
    if np.linalg.norm(x_op - x_op.conj().T) > 1e-8 * max(1.0, np.linalg.norm(x_op)):
        cand1 = x_op + x_op.conj().T
        cand2 = 1j * (x_op - x_op.conj().T)
        x_op = cand1 if np.linalg.norm(cand1) >= np.linalg.norm(cand2) else cand2
    _, cols = deterministic_eigbasis(x_op)
    k = classical_generator(s, cols)
    x = np.array([float((c.conj() @ x_op @ c).real) for c in cols])
    return k, x, float(np.max(np.abs(k.matrix @ x - lam * x)))


def test_eigen_embedding_matches_phase_fixed_basis():
    # K and x depend on the projectors |e_j><e_j| only, not on the phases
    for idx in range(10):
        for d in (2, 3):
            rng = np.random.default_rng(np.random.SeedSequence([66, d, idx]))
            sup = regularize_faithful(build_superoperator(random_ccp_spec(rng, d)), 0.05)
            _, omega = stationary_states(sup)
            sym = symmetrized_generator(adjoint_superoperator(sup), WeightedInnerProduct(omega))
            schro_sym = Superoperator(d=d, matrix=sym.matrix.conj().T)
            vals, vecs = np.linalg.eig(schro_sym.matrix)
            for i in range(len(vals)):
                lam = float(vals[i].real)
                x_op = devectorize(vecs[:, i], d)
                k, x, resid = eigen_embedding(schro_sym, lam, x_op)
                want_k, want_x, want_resid = phase_fixed_embedding(schro_sym, lam, x_op)
                scale = 1e-12 * max(1.0, np.max(np.abs(want_x)))
                assert np.max(np.abs(k.matrix - want_k.matrix)) <= scale
                assert np.max(np.abs(x - want_x)) <= scale
                assert abs(resid - want_resid) <= scale
