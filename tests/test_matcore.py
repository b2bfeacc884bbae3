import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from rateaudit.generator import build_superoperator, pauli_spec
from rateaudit.matcore import (
    DEFAULT_TOL,
    HERMITICITY_TOL,
    RANK_TOL,
    ToleranceConfig,
    as_matrix,
    devectorize,
    eig_general,
    expm,
    is_hermitian,
    numerical_kernel,
    psd_min_eig,
    residual_exceeds,
    spectral_norm,
    vectorize,
)


def test_tolerance_config_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(psd_tol=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(psd_tol=1.0)
    cfg = ToleranceConfig()
    assert cfg.psd_tol == 1e-9 and ToleranceConfig(psd_tol=0.5).psd_tol == 0.5
    assert RANK_TOL == 1e-10 and HERMITICITY_TOL == 1e-10


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])  # not 2-d


def test_vectorize_convention():
    v = vectorize(np.array([[1, 2], [3, 4]]))
    assert np.array_equal(v, np.array([1, 3, 2, 4], dtype=complex))


def test_devectorize_round_trip():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.allclose(devectorize(vectorize(m), 3), m)
    with pytest.raises(ValueError):
        devectorize(np.arange(5), 2)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_vec_sandwich_identity(seed):
    # vec(A rho B) = (B^T (x) A) vec(rho)
    rng = np.random.default_rng(seed)
    a, b, rho = (
        rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)
    )
    lhs = vectorize(a @ rho @ b)
    rhs = np.kron(b.T, a) @ vectorize(rho)
    assert np.linalg.norm(lhs - rhs) < 1e-10


# the 1-norms up to which the Pade degrees 3, 5, 7 and 9 are exact (Higham 2005)
THETAS = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1, 2.097847961257068)


def _random_with_norm(rng, n, norm, real=False):
    """A random complex (or real) n x n matrix of 1-norm `norm`."""
    a = rng.normal(size=(n, n)) + (0.0 if real else 1j * rng.normal(size=(n, n)))
    return a * (norm / np.linalg.norm(a, 1))


@pytest.mark.parametrize("n", [1, 4, 9, 16, 64])
def test_expm_matches_scipy(n):
    # norms above theta_13 = 5.37 force up to eight squarings; 0.9 and 1.1
    # times each theta_m select Pade degree m and the next one (below theta_3
    # the Taylor polynomial, tried at its threshold and half of it too)
    rng = np.random.default_rng(n)
    for norm in (1e-4, 1e-2, 1.0, 5.0, 30.0, 1e2, 1e3, *(f * t for t in THETAS for f in (0.9, 1.1)),
                 0.5 * THETAS[0], THETAS[0]):
        for _ in range(3):
            a = _random_with_norm(rng, n, norm)
            if n == 1:
                a = 1j * abs(a)  # a phase: exp(+-1000) would overflow or underflow
            want = scipy.linalg.expm(a)
            assert np.linalg.norm(expm(a) - want) <= 1e-12 * np.linalg.norm(want)


def test_expm_zero_is_identity():
    for n in (1, 3, 16):
        assert np.array_equal(expm(np.zeros((n, n))), np.eye(n))


@pytest.mark.parametrize("n", [1, 4, 9])
def test_expm_stack_equals_per_matrix_calls(n):
    rng = np.random.default_rng(10 + n)
    # Pade degrees 3, 7, 13, 13, 13, 13, 5 and 9: every degree group in one call
    norms = (1e-3, 0.5, 5.0, 6.0, 40.0, 400.0, 0.02, 1.5)
    stack = np.array([_random_with_norm(rng, n, x) for x in norms]).reshape(len(norms), 1, n, n)
    got = expm(stack)
    assert got.shape == stack.shape
    for i in range(len(norms)):
        assert got[i, 0].tobytes() == expm(stack[i, 0]).tobytes()


def test_expm_rejects_nonfinite_and_non_square():
    # real input reaches the finiteness check uncast
    for dtype, bad in ((complex, np.nan), (complex, np.inf), (complex, complex(0.0, -np.inf)),
                       (float, np.nan), (float, -np.inf)):
        a = np.eye(3, dtype=dtype)
        a[1, 2] = bad
        with pytest.raises(ValueError):
            expm(a)
        with pytest.raises(ValueError):
            expm(np.stack([np.eye(3), a]))
    with pytest.raises(ValueError):
        expm(np.ones((2, 3)))
    with pytest.raises(ValueError):
        expm(np.ones(4))


@pytest.mark.parametrize("n", [1, 4, 9])
def test_expm_keeps_a_real_stack_real(n):
    rng = np.random.default_rng(20 + n)
    # around theta_3, where the Taylor polynomial hands over to Pade degree 5,
    # then the Pade degrees 5, 7, 9 and 13 (no squaring, two squarings)
    norms = (0.5 * THETAS[0], 0.9 * THETAS[0], 0.5 * THETAS[0], 1.1 * THETAS[0], 0.2, 0.9, 2.0, 5.0, 20.0)
    stack = np.array([_random_with_norm(rng, n, x, real=True) for x in norms])
    # the third gets a 1-norm of exactly theta_3, still the Taylor group: its
    # first column becomes theta_3 e_1, its others have 1-norm 0.5 theta_3
    stack[2, :, 0] = 0.0
    stack[2, 0, 0] = THETAS[0]
    assert np.abs(stack[2]).sum(axis=0).max() == THETAS[0]
    got = expm(stack)
    assert got.dtype == np.float64
    cplx = expm(stack.astype(complex))
    for i, a in enumerate(stack):
        assert got[i].tobytes() == expm(a).tobytes()
        want = scipy.linalg.expm(a)
        assert np.linalg.norm(got[i] - want) <= 1e-12 * np.linalg.norm(want)
        assert np.linalg.norm(got[i] - cplx[i]) <= 1e-15 * np.linalg.norm(cplx[i])


def test_eig_general_diagonal():
    vals = {v for v, _ in eig_general(np.diag([1.0, -2.0, 3.0j]))}
    assert vals == {1.0 + 0j, -2.0 + 0j, 3.0j}


def test_eig_general_pauli_superoperator():
    sup = build_superoperator(pauli_spec(1.0, 1.0, -1.0))
    vals = sorted((v.real for v, _ in eig_general(sup.matrix)))
    assert np.allclose(vals, [-2.0, 0.0, 0.0, 0.0], atol=1e-10)
    assert max(abs(v.imag) for v, _ in eig_general(sup.matrix)) < 1e-12


def test_eig_general_matches_characteristic_polynomial():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    coeffs = np.poly(m)
    for v, vec in eig_general(m):
        assert abs(np.polyval(coeffs, v)) < 1e-6
        assert np.linalg.norm(m @ vec - v * vec) < 1e-8


def test_eig_general_ordering_deterministic():
    vals = [v for v, _ in eig_general(np.diag([1.0, 1.0 + 1.0j, 1.0 - 1.0j, 2.0]))]
    assert vals[0] == 2.0
    assert vals[1].imag < vals[2].imag or vals[1].imag < vals[3].imag


def test_is_hermitian_matrices_and_stacks():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
    herm = 0.5 * (a + a.conj().swapaxes(1, 2))
    near = herm + 1e-12 * a  # Hermitian within the default 1e-10, not exactly
    assert all(is_hermitian(x) for x in herm) and is_hermitian(herm)
    assert all(is_hermitian(x) for x in near) and is_hermitian(near)
    assert not np.array_equal(near, near.conj().swapaxes(1, 2))
    off = near.copy()
    off[3] += 1e-6 * a[3]
    assert not is_hermitian(off[3]) and not is_hermitian(off)
    # the boundary of the rule: a defect at half of HERMITICITY_TOL * scale
    # passes, one at twice that fails
    skew = 1j * np.eye(3)  # anti-Hermitian, ||skew - skew^dag||_2 = 2
    scale = max(1.0, np.linalg.norm(herm[3], 2))
    for factor, want in ((0.5, True), (2.0, False)):
        m = herm[3] + 0.5 * factor * HERMITICITY_TOL * scale * skew
        assert is_hermitian(m) == want
    with pytest.raises(ValueError):
        is_hermitian(np.array([[0.0, np.nan], [np.nan, 0.0]]))


def _is_hermitian_svd(m) -> bool:
    """The 2-norm rule alone, two SVDs per matrix: the oracle of `is_hermitian`."""
    defect = np.linalg.norm(m - m.conj().swapaxes(-1, -2), 2, axis=(-2, -1))
    scale = np.maximum(1.0, np.linalg.norm(m, 2, axis=(-2, -1)))
    return bool(np.all(defect <= HERMITICITY_TOL * scale))


@pytest.mark.parametrize("n", [2, 4, 9])
def test_is_hermitian_frobenius_pretest_decides_as_the_svd_rule(n):
    rng = np.random.default_rng(n)
    for magnitude in (1e-3, 1.0, 1e4):
        a = magnitude * (rng.normal(size=(50, n, n)) + 1j * rng.normal(size=(50, n, n)))
        herm = 0.5 * (a + a.conj().swapaxes(1, 2))
        scale = np.maximum(1.0, np.linalg.norm(herm, 2, axis=(1, 2)))[:, None, None]
        unit = rng.normal(size=(50, n, n)) + 1j * rng.normal(size=(50, n, n))
        unit /= np.linalg.norm(unit, 2, axis=(1, 2))[:, None, None]
        for rel in np.logspace(-16, -9, 15):
            m = herm + rel * scale * unit
            assert [is_hermitian(x) for x in m] == [_is_hermitian_svd(x) for x in m]
            assert is_hermitian(m) == _is_hermitian_svd(m)


def test_is_hermitian_svd_stage_runs_where_the_pretest_fails():
    # rank one, ||m||_F = ||m||_2 = 100: the pre-test scale ||m||_F / 3 is a
    # third of the 2-norm scale, and the rank-one defect has ||D||_F = ||D||_2
    v = np.arange(1.0, 10.0) * (10.0 / np.linalg.norm(np.arange(1.0, 10.0)))
    herm = np.outer(v, v).astype(complex)
    w = np.ones(9) / 3.0
    for factor, want in ((0.5, True), (2.0, False)):
        # m - m^dag = 2 i c w w^dag, of 2-norm factor * HERMITICITY_TOL * 100
        m = herm + 1j * (0.5 * factor * HERMITICITY_TOL * 100.0) * np.outer(w, w)
        pretest = HERMITICITY_TOL * max(1.0, np.linalg.norm(m) / 3.0)
        assert np.linalg.norm(m - m.conj().T) > pretest
        assert is_hermitian(m) == _is_hermitian_svd(m) == want


@pytest.mark.parametrize("big", [1.2e154, 1e200, 1e300])  # ||m||_F^2 overflows
def test_is_hermitian_huge_and_tiny_entries_raise_no_floating_point_error(big):
    skew = np.array([[0.0, 1j], [1j, 0.0]])  # anti-Hermitian, ||skew - skew^dag||_2 = 2
    cases = [np.diag([big, -big]) + rel * big * skew for rel in (1e-15, 1e-9)]
    cases += [np.array([[1e-170, 3e-170], [3e-170, 1e-170]]) + 1e-180 * skew]
    with np.errstate(all="raise"):
        for m in cases:
            assert is_hermitian(m) == _is_hermitian_svd(m)
        assert is_hermitian(np.array(cases[::2])) and not is_hermitian(np.array(cases))
    assert [_is_hermitian_svd(m) for m in cases] == [True, False, True]


def test_psd_min_eig_basic():
    tol = DEFAULT_TOL.psd_tol
    val, scale, _ = psd_min_eig(np.eye(3))
    assert val == pytest.approx(1.0) and val >= -tol * scale
    val, scale, wit = psd_min_eig(np.diag([1.0, -0.5]))
    assert val == pytest.approx(-0.5) and not val >= -tol * scale
    assert abs(abs(wit[1]) - 1.0) < 1e-12


@pytest.mark.parametrize("case", [4, 9, 16, "diag"])
def test_psd_min_eig_scale_is_the_spectral_norm(case):
    if case == "diag":  # max |lambda| = 5 is not max lambda = 1
        h = np.diag([-5.0, 1.0]).astype(complex)
    else:
        rng = np.random.default_rng(case)
        a = rng.normal(size=(case, case)) + 1j * rng.normal(size=(case, case))
        h = 0.5 * (a + a.conj().T)
    _, scale, _ = psd_min_eig(h)
    want = max(1.0, np.linalg.norm(h, 2))
    assert abs(scale - want) <= 1e-14 * want


def test_psd_min_eig_rejects_non_hermitian():
    with pytest.raises(ValueError, match="HERMITICITY_TOL"):
        psd_min_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_psd_min_eig_rejects_an_overflowing_symmetrization():
    # exactly Hermitian and finite, but m + m^dag overflows: never a NaN margin
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="NaN/Inf"):
        psd_min_eig(np.diag([1.5e308, 1.0]))


def test_psd_min_eig_projected_choi_of_pauli():
    from rateaudit.generator import choi, maximally_entangled_projector

    sup = build_superoperator(pauli_spec(1.0, 1.0, -1.0))
    c = 4.0 * choi(sup)
    q = np.eye(4) - maximally_entangled_projector(2)
    val, scale, _ = psd_min_eig(q @ c @ q)
    assert not val >= -DEFAULT_TOL.psd_tol * scale and val < -1e-6


@given(st.floats(-3.0, 3.0))
@settings(max_examples=25, deadline=None)
def test_psd_min_eig_shift_monotone(c):
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = 0.5 * (a + a.conj().T)
    base, _, _ = psd_min_eig(h)
    shifted, _, _ = psd_min_eig(h + c * np.eye(4))
    assert shifted == pytest.approx(base + c, abs=1e-10)


def test_numerical_kernel_zero_matrix():
    right, left = numerical_kernel(np.zeros((3, 3)))
    dim = right.shape[1]
    assert dim == 3 and right.shape == left.shape == (3, 3)
    assert np.allclose(left.conj().T @ left, np.eye(3), atol=1e-12)


def test_numerical_kernel_dephasing():
    from rateaudit.generator import GeneratorSpec, SIGMA_Z

    spec = GeneratorSpec(hamiltonian=np.zeros((2, 2)), jumps=((SIGMA_Z, 1.0),))
    sup = build_superoperator(spec)
    right, left = numerical_kernel(sup.matrix)
    dim = right.shape[1]
    assert dim == 2 and left.shape == (4, 2)
    span = np.column_stack([vectorize(np.eye(2)), vectorize(np.diag([1.0, -1.0]))])
    for v in right.T:
        # each kernel vector lies in span{vec(I), vec(sigma_z)}
        coef, res, _, _ = np.linalg.lstsq(span, v, rcond=None)
        assert np.linalg.norm(span @ coef - v) < 1e-10
    assert np.allclose(left.conj().T @ left, np.eye(dim), atol=1e-12)
    smax = np.linalg.svd(sup.matrix, compute_uv=False)[0]
    for w in left.T:
        assert np.linalg.norm(sup.matrix.conj().T @ w) <= 10 * RANK_TOL * smax


def test_numerical_kernel_full_rank_and_residuals():
    rng = np.random.default_rng(6)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    right, left = numerical_kernel(m)
    dim = right.shape[1]
    assert dim == 0 and left.shape == (4, 0)
    # rank-deficient case: orthonormal bases with small residuals
    m[:, 3] = m[:, 0]
    right, left = numerical_kernel(m)
    dim = right.shape[1]
    assert dim == 1 and left.shape == (4, 1)
    smax = np.linalg.svd(m, compute_uv=False)[0]
    for v in right.T:
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert np.linalg.norm(m @ v) <= 10 * RANK_TOL * smax
    assert np.allclose(left.conj().T @ left, np.eye(dim), atol=1e-12)
    for w in left.T:
        assert np.linalg.norm(m.conj().T @ w) <= 10 * RANK_TOL * smax


@pytest.mark.parametrize("norm", [0.25, 1.0, 4.0])
def test_residual_exceeds_decides_as_the_eager_rule(norm):
    # residual > rel max(1, ||m||_2), with residuals at and next to rel and rel ||m||_2
    m = np.diag([norm, -0.5 * norm, 0.1 * norm])
    assert spectral_norm(m) == norm
    for rel in (1e-10, 1e-8):
        edges = (rel, rel * norm)
        residuals = [0.0, 1e-3 * rel, 1e3 * rel * max(1.0, norm), np.inf]
        residuals += [np.nextafter(x, toward) for x in edges for toward in (0.0, np.inf)]
        for residual in residuals + list(edges):
            eager = residual > rel * max(1.0, spectral_norm(m))
            assert residual_exceeds(residual, rel, m) == eager, (rel, residual)
        assert residual_exceeds(np.nextafter(rel * max(1.0, norm), np.inf), rel, m)
        assert not residual_exceeds(rel * max(1.0, norm), rel, m)
        assert not residual_exceeds(float("nan"), rel, m)
