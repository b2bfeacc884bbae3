import numpy as np
import pytest
import scipy.linalg

from conftest import ccp_spec, random_density
from rateaudit.generator import (
    GeneratorSpec,
    Superoperator,
    adjoint_superoperator,
    build_superoperator,
    pauli_spec,
    regularize_faithful,
    relaxation_rates,
    stationary_states,
)
from rateaudit.kms import (
    WeightedInnerProduct,
    bendixson_interval,
    kms_adjoint,
    symmetrized_generator,
)
from rateaudit.matcore import as_matrix


def s_inner(a, b, w):
    """Oracle: <A, B>_s = Tr(A^dag w^s B w^{1-s})."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != (w.d, w.d) or b.shape != (w.d, w.d):
        raise ValueError("operands must be d x d")
    return complex(np.trace(a.conj().T @ w.w_s @ b @ w.w_1ms))


def check_s_selfadjoint(d_heis, w, tol=1e-9):
    """Oracle of `symmetrized_generator`, the detailed-balance test:
    self-adjointness w.r.t. the s-inner product.

    Residual is the max over matrix-unit pairs (E_ab, E_cd) of
    |<D(E_ab), E_cd>_s - <E_ab, D(E_cd)>_s|.  With the Gram matrix
    W = w^{1-s}^T (x) w^s, <A, B>_s = vec(A)^dag W vec(B), so these are the
    entries of M^dag W - W M.
    """
    m = d_heis.matrix
    gram = np.kron(w.w_1ms.T, w.w_s)
    resid = float(np.max(np.abs(m.conj().T @ gram - gram @ m)))
    return resid < tol, resid


def faithful_setup(seed, d, eps=0.05):
    """Regularized CCP generator with its faithful stationary state."""
    sup = regularize_faithful(build_superoperator(ccp_spec(seed, d)), eps)
    _, omega = stationary_states(sup)
    assert omega is not None
    return sup, omega


def test_weight_validation():
    with pytest.raises(ValueError):
        WeightedInnerProduct(np.diag([0.5, 0.5, 0.5]))  # trace 1.5
    with pytest.raises(ValueError):
        WeightedInnerProduct(np.diag([1.0, 0.0]))  # singular
    with pytest.raises(ValueError):
        WeightedInnerProduct(np.array([[0.5, 1.0], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        WeightedInnerProduct(np.eye(2) / 2, s=1.5)


@pytest.mark.parametrize("s", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_weight_powers(d, s):
    """The powers w^s, w^{1-s}, w^{-1/2} of one eigendecomposition."""
    omega = random_density(np.random.default_rng(10 * d + int(10 * s)), d)
    w = WeightedInnerProduct(omega, s=s)
    assert np.linalg.norm(w.w_s @ w.w_1ms - omega) < 1e-12
    assert np.linalg.norm(w.isqrt @ omega @ w.isqrt - np.eye(d)) < 1e-12
    for power, p in ((w.w_s, s), (w.w_1ms, 1.0 - s), (w.isqrt, -0.5)):
        assert np.linalg.norm(power - scipy.linalg.fractional_matrix_power(omega, p)) < 1e-12
    if s == 0.5:
        assert w.w_s.tobytes() == w.w_1ms.tobytes()


def test_s_inner_unit_trace():
    rng = np.random.default_rng(0)
    omega = random_density(rng, 3)
    for s in (0.0, 0.3, 0.5, 1.0):
        w = WeightedInnerProduct(omega, s=s)
        assert s_inner(np.eye(3), np.eye(3), w) == pytest.approx(1.0, abs=1e-10)


def test_s_inner_maximally_mixed_reduces_to_hilbert_schmidt():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    for s in (0.0, 0.5, 0.8):
        w = WeightedInnerProduct(np.eye(3) / 3, s=s)
        assert s_inner(a, b, w) == pytest.approx(np.trace(a.conj().T @ b) / 3, abs=1e-10)


def test_s_inner_positive_definite_and_conjugate_symmetric():
    rng = np.random.default_rng(2)
    omega = random_density(rng, 3)
    w = WeightedInnerProduct(omega, s=0.5)
    for _ in range(10):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert s_inner(a, a, w).real > 0
        assert abs(s_inner(a, a, w).imag) < 1e-12
        assert s_inner(a, b, w) == pytest.approx(np.conj(s_inner(b, a, w)), abs=1e-12)


def test_kms_adjoint_maximally_mixed_weight():
    # omega = I/d: the adjoint collapses to the Schroedinger generator
    sup = build_superoperator(pauli_spec(2.0, 1.0, 1.0))
    heis = adjoint_superoperator(sup)
    w = WeightedInnerProduct(np.eye(2) / 2)
    sharp = kms_adjoint(heis, w)
    assert np.linalg.norm(sharp.matrix - sup.matrix) < 1e-10


def test_kms_adjoint_defining_relation():
    sup, omega = faithful_setup(0, 3)
    heis = adjoint_superoperator(sup)
    w = WeightedInnerProduct(omega)
    sharp = kms_adjoint(heis, w)
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lhs = s_inner(sharp.apply(a), b, w)
        rhs = s_inner(a, heis.apply(b), w)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


def test_kms_adjoint_is_unital_and_isospectral():
    sup, omega = faithful_setup(1, 2)
    heis = adjoint_superoperator(sup)
    sharp = kms_adjoint(heis, WeightedInnerProduct(omega))
    assert np.linalg.norm(sharp.apply(np.eye(2))) < 1e-8
    s1 = np.sort_complex(np.linalg.eigvals(sharp.matrix))
    s2 = np.sort_complex(np.linalg.eigvals(sup.matrix))
    assert np.max(np.abs(s1 - s2)) < 1e-7


def test_kms_adjoint_involution():
    sup, omega = faithful_setup(2, 2)
    heis = adjoint_superoperator(sup)
    w = WeightedInnerProduct(omega)
    double = kms_adjoint(kms_adjoint(heis, w), w)
    assert np.linalg.norm(double.matrix - heis.matrix) < 1e-9


def test_kms_adjoint_input_validation():
    sup = build_superoperator(pauli_spec(1, 1, 1))
    heis = adjoint_superoperator(sup)
    with pytest.raises(ValueError):
        kms_adjoint(heis, WeightedInnerProduct(np.eye(2) / 2, s=0.0))  # s != 1/2
    with pytest.raises(ValueError):
        kms_adjoint(heis, WeightedInnerProduct(np.diag([0.9, 0.1])))  # not stationary
    with pytest.raises(ValueError):
        kms_adjoint(sup, WeightedInnerProduct(np.eye(2) / 2))  # wrong picture


def test_semigroup_conjugation():
    sup, omega = faithful_setup(3, 2)
    heis = adjoint_superoperator(sup)
    w = WeightedInnerProduct(omega)
    sharp = kms_adjoint(heis, w)
    schro = adjoint_superoperator(heis)
    v = np.kron(w.w_s.T, w.w_s)
    vinv = np.kron(w.isqrt.T, w.isqrt)
    for t in (0.1, 1.0):
        lhs = scipy.linalg.expm(t * sharp.matrix)
        rhs = vinv @ scipy.linalg.expm(t * schro.matrix) @ v
        assert np.linalg.norm(lhs - rhs) < 1e-7


def test_symmetrized_unital_pauli():
    heis = adjoint_superoperator(build_superoperator(pauli_spec(1.0, 2.0, 0.5)))
    sym = symmetrized_generator(heis, WeightedInnerProduct(np.eye(2) / 2))
    assert np.linalg.norm(sym.matrix - heis.matrix) < 1e-10


def test_symmetrized_real_spectrum_and_trace():
    for seed, d in ((4, 2), (5, 3)):
        sup, omega = faithful_setup(seed, d)
        heis = adjoint_superoperator(sup)
        w = WeightedInnerProduct(omega)
        sym = symmetrized_generator(heis, w)
        vals = np.linalg.eigvals(sym.matrix)
        assert np.max(np.abs(vals.imag)) < 1e-7
        assert abs(np.trace(sym.matrix) - np.trace(sup.matrix)) < 1e-9
        # KMS self-adjointness of the symmetrization
        ok, resid = check_s_selfadjoint(sym, w, tol=1e-8)
        assert ok, resid


def test_bendixson_rate_bound():
    for seed in range(5):
        sup, omega = faithful_setup(seed + 10, 2)
        heis = adjoint_superoperator(sup)
        sym = symmetrized_generator(heis, WeightedInnerProduct(omega))
        gamma_max = relaxation_rates(sup).gamma_max
        sym_rates = sorted((-v.real for v in np.linalg.eigvals(sym.matrix)))
        assert gamma_max <= sym_rates[-1] + 1e-7


def test_bendixson_interval():
    lo, hi = bendixson_interval(np.diag([1.0, -2.0, 0.5]))
    assert (lo, hi) == (-2.0, 1.0)
    lo, hi = bendixson_interval(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert abs(lo) < 1e-12 and abs(hi) < 1e-12
    rng = np.random.default_rng(6)
    for _ in range(30):
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        lo, hi = bendixson_interval(m)
        for v in np.linalg.eigvals(m):
            assert lo - 1e-9 <= v.real <= hi + 1e-9


def test_check_s_selfadjoint():
    heis = adjoint_superoperator(build_superoperator(pauli_spec(1.0, 1.0, 2.0)))
    w0 = WeightedInnerProduct(np.eye(2) / 2, s=0.0)
    ok, resid = check_s_selfadjoint(heis, w0, tol=1e-9)
    assert ok and resid < 1e-10

    h = np.diag([1.0, -1.0])
    ham = adjoint_superoperator(
        build_superoperator(GeneratorSpec(hamiltonian=h, jumps=()))
    )
    ok, resid = check_s_selfadjoint(ham, w0, tol=1e-9)
    assert not ok and resid > 1e-2

    zero = Superoperator(d=2, matrix=np.zeros((4, 4)), picture="heisenberg")
    ok, _ = check_s_selfadjoint(zero, w0)
    assert ok


def test_check_s_selfadjoint_residual_matches_pair_loop():
    # reference: the max over matrix-unit pairs of |<D(E_ab), E_cd>_s - <E_ab, D(E_cd)>_s|
    def pair_loop_residual(heis, w):
        d = heis.d
        units = []
        for a in range(d):
            for b in range(d):
                e = np.zeros((d, d), dtype=complex)
                e[a, b] = 1.0
                units.append(e)
        images = [heis.apply(e) for e in units]
        return max(
            abs(s_inner(images[i], ej, w) - s_inner(ei, images[j], w))
            for i, ei in enumerate(units)
            for j, ej in enumerate(units)
        )

    for seed, d, s in ((2, 2, 0.5), (3, 3, 0.3), (4, 3, 1.0)):
        sup, omega = faithful_setup(seed, d)
        heis = adjoint_superoperator(sup)
        w = WeightedInnerProduct(omega, s=s)
        ok, resid = check_s_selfadjoint(heis, w)
        ref = pair_loop_residual(heis, w)
        assert not ok and ref > 1e-3
        assert resid == pytest.approx(ref, rel=1e-12, abs=1e-14)
