"""Classical projection of a quantum generator onto a basis, the associated
trace inequalities, the pairwise witness identities, and the eigenvalue
embedding into the classical rate matrix."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import as_matrix, residual_exceeds
from .generator import HEISENBERG, SCHROEDINGER, Superoperator
from .bounds import rate_constant


def _normalize_basis(basis, d: int) -> np.ndarray:
    """Accept a list of vectors or a unitary whose columns form the basis;
    return that unitary."""
    if isinstance(basis, np.ndarray) and basis.ndim == 2 and basis.shape == (d, d):
        u = basis.astype(complex)
    else:
        vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in basis]
        if len(vecs) != d or any(v.size != d for v in vecs):
            raise ValueError("basis must consist of d vectors of length d")
        u = np.column_stack(vecs)
    if np.linalg.norm(u.conj().T @ u - np.eye(d)) > 1e-10 * d:
        raise ValueError("basis is not orthonormal")
    return u


def _rotated(m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """E^dag M E with E = conj(U) (x) U: the matrix of X -> U^dag L(U X U^dag) U.

    E is unitary and its column b d + a is vec(|e_a><e_b|), so entry
    [b d + a, b d + a] is <e_a|L(|e_a><e_b|)|e_b> and K_ij = Tr(P_i L(P_j)) is
    entry [i d + i, j d + j].
    """
    e = (u.conj()[:, None, :, None] * u[None, :, None, :]).reshape(u.size, u.size)
    return e.conj().T @ m @ e


def _pair_diagonal(m_u: np.ndarray, d: int) -> np.ndarray:
    """t[i, j] = Re <e_i|L(|e_i><e_j|)|e_j> read from the rotated matrix."""
    return np.diagonal(m_u).real.reshape(d, d).T


def _classical_matrix(m_u: np.ndarray, s: Superoperator) -> np.ndarray:
    """K_ij read from the rotated matrix of s; its imaginary part must be rounding."""
    idx = np.arange(s.d) * (s.d + 1)
    k = m_u[np.ix_(idx, idx)]
    if residual_exceeds(np.max(np.abs(k.imag)), 1e-10, s.matrix):
        raise AssertionError("classical projection has a large imaginary part")
    return k.real.copy()


@dataclass(frozen=True)
class ClassicalGenerator:
    d: int
    matrix: np.ndarray  # real d x d, columns sum to zero


def classical_generator(s: Superoperator, basis) -> ClassicalGenerator:
    """K_ij = Tr(P_i L(P_j)) for the projectors onto the given basis."""
    if s.picture != SCHROEDINGER:
        raise ValueError("classical_generator expects the Schroedinger picture")
    u = _normalize_basis(basis, s.d)
    k = _classical_matrix(_rotated(s.matrix, u), s)
    return ClassicalGenerator(d=s.d, matrix=k)


def check_stochastic_generator(k: ClassicalGenerator):
    """Column sums vanish and off-diagonal entries are nonnegative, both to
    1e-9 max(1, max |K_ij|).  Returns (both hold, columns ok, off-diagonal ok)."""
    m = k.matrix
    col_ok = bool(np.max(np.abs(m.sum(axis=0))) <= 1e-9 * max(1.0, np.abs(m).max()))
    off = m - np.diag(np.diag(m))
    off_ok = bool(off.min() >= -1e-9 * max(1.0, np.abs(m).max()))
    return col_ok and off_ok, col_ok, off_ok


def trace_inequality(s: Superoperator, basis, ineq_class: str):
    """Tr L <= Tr K / c_d for the class 'cp', '2p' or 'schwarz' of
    `bounds.CLASSES`: the factor 1 / c_d is d for 'cp' and '2p' and (d+1)/2
    for 'schwarz'; 'positive' has no trace inequality.

    Returns (lhs, rhs, satisfied, gap) with gap = rhs - lhs.
    """
    if ineq_class not in ("cp", "2p", "schwarz"):
        raise ValueError(f"no trace inequality for class {ineq_class!r}")
    k = classical_generator(s, basis)
    lhs = float(np.trace(s.matrix).real)
    rhs = float(1 / rate_constant(ineq_class, s.d) * np.trace(k.matrix))
    gap = rhs - lhs
    return lhs, rhs, gap >= -1e-9 * max(1.0, abs(lhs), abs(rhs)), gap


def two_positive_witness_sum(s: Superoperator, basis) -> float:
    """Sum of the conditional-2-positivity quadratic forms over the pair vectors
    |1> (x) |e_i> +/- |2> (x) |e_j|, i != j.

    The form for the pair (i, j) is t_ii + t_jj - t_ij - t_ji with
    t_ij = <e_i|L(|e_i><e_j|)|e_j>.  Algebraically the sum equals
    2(d Tr K - Tr L) for any Hermiticity-preserving L; nonnegative exactly
    when conditional 2-positivity holds on those pairs.
    """
    d = s.d
    t = _pair_diagonal(_rotated(s.matrix, _normalize_basis(basis, d)), d)
    diag = np.diag(t)
    forms = diag[:, None] + diag[None, :] - t - t.T
    return float(forms[~np.eye(d, dtype=bool)].sum())


def schwarz_pairwise_inequalities(s_heis: Superoperator, basis):
    """Dissipativity margins at X = |e_i><e_j| for all i != j.

    margin_ij = K_jj - <e_j|L(|e_j><e_i|)|e_i> - <e_i|L(|e_i><e_j|)|e_j>.
    Also verifies sum_{i != j} K_jj = (d-1) Tr K.  Returns (margins, all_ok).
    """
    if s_heis.picture != HEISENBERG:
        raise ValueError("expected the Heisenberg picture")
    d = s_heis.d
    scale = max(1.0, s_heis.norm())
    if np.linalg.norm(s_heis.apply(np.eye(d, dtype=complex))) > 1e-8 * scale:
        raise ValueError("generator is not unital")
    m_u = _rotated(s_heis.matrix, _normalize_basis(basis, d))
    # the Schroedinger matrix is M^dag, and E is unitary, so its rotation is m_u^dag
    trace_k = float(np.trace(_classical_matrix(m_u.conj().T, s_heis)))
    t = _pair_diagonal(m_u, d)
    cross = t + t.T
    pairs = [(i, j) for i in range(d) for j in range(d) if i != j]
    margins = {(i, j): float(t[j, j] - cross[i, j]) for i, j in pairs}
    diag_sum = sum(float(t[j, j]) for _, j in margins)
    if abs(diag_sum - (d - 1) * trace_k) > 1e-9 * max(1.0, abs(trace_k), abs(diag_sum)):
        raise AssertionError("pairwise bookkeeping identity failed")
    all_ok = all(v >= -1e-9 * scale for v in margins.values())
    return margins, all_ok


def eigen_embedding(s: Superoperator, lam: float, x_op):
    """Check that a real eigenvalue of L appears in the classical generator
    built in the eigenbasis of its Hermitian eigenvector (K and x read only
    the projectors |e_j><e_j|, so the phases of that basis do not matter).

    Returns (K, x, residual) with residual = ||K x - lam x||_inf.
    """
    x_op = as_matrix(x_op)
    if np.linalg.norm(x_op - x_op.conj().T) > 1e-8 * max(1.0, np.linalg.norm(x_op)):
        # non-Hermitian eigenvector of a real eigenvalue: Hermitize
        cand1 = x_op + x_op.conj().T
        cand2 = 1j * (x_op - x_op.conj().T)
        x_op = cand1 if np.linalg.norm(cand1) >= np.linalg.norm(cand2) else cand2
    resid = np.linalg.norm(s.apply(x_op) - lam * x_op)
    if resid > 1e-8 * max(1.0, np.linalg.norm(x_op)) * max(1.0, s.norm()):
        raise ValueError(f"x_op is not an eigenvector for lambda (residual {resid:.3e})")
    u = np.linalg.eigh(x_op)[1]
    k = classical_generator(s, u)
    x = np.array([float((c.conj() @ x_op @ c).real) for c in u.T])
    kx = k.matrix @ x
    return k, x, float(np.max(np.abs(kx - lam * x)))
