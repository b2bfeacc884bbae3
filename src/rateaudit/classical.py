"""Classical projection of a quantum generator onto a basis, the associated
trace inequalities, the pairwise witness identities, and the eigenvalue
embedding into the classical rate matrix."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import as_matrix, vectorize
from .generator import HEISENBERG, SCHROEDINGER, Superoperator, adjoint_superoperator
from .bounds import rate_constant


def _normalize_basis(basis, d: int) -> list[np.ndarray]:
    """Accept a list of vectors or a unitary whose columns form the basis."""
    if isinstance(basis, np.ndarray) and basis.ndim == 2 and basis.shape == (d, d):
        vecs = [basis[:, i].astype(complex) for i in range(d)]
    else:
        vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in basis]
    if len(vecs) != d or any(v.size != d for v in vecs):
        raise ValueError("basis must consist of d vectors of length d")
    gram = np.array([[vi.conj() @ vj for vj in vecs] for vi in vecs])
    if np.linalg.norm(gram - np.eye(d)) > 1e-10 * d:
        raise ValueError("basis is not orthonormal")
    return vecs


@dataclass(frozen=True)
class ClassicalGenerator:
    d: int
    matrix: np.ndarray  # real d x d, columns sum to zero
    basis: tuple


def _projector(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def classical_generator(s: Superoperator, basis) -> ClassicalGenerator:
    """K_ij = Tr(P_i L(P_j)) for the projectors onto the given basis."""
    if s.picture != SCHROEDINGER:
        raise ValueError("classical_generator expects the Schroedinger picture")
    vecs = _normalize_basis(basis, s.d)
    # Tr(P_i Y) = vec(P_i)^dag vec(Y) for Hermitian P_i, so K = V^dag M V
    v = np.column_stack([vectorize(_projector(u)) for u in vecs])
    k = v.conj().T @ s.matrix @ v
    if np.max(np.abs(k.imag)) > 1e-10 * max(1.0, s.norm()):
        raise AssertionError("classical projection has a large imaginary part")
    return ClassicalGenerator(d=s.d, matrix=k.real.copy(), basis=tuple(vecs))


def check_stochastic_generator(
    k: ClassicalGenerator, require_offdiag_nonneg: bool = False, tol: float = 1e-9
):
    """Column sums vanish always; off-diagonal nonnegativity only on request."""
    m = k.matrix
    col_ok = bool(np.max(np.abs(m.sum(axis=0))) <= tol * max(1.0, np.abs(m).max()))
    off_ok = True
    if require_offdiag_nonneg:
        off = m - np.diag(np.diag(m))
        off_ok = bool(off.min() >= -tol * max(1.0, np.abs(m).max()))
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

    Algebraically equals 2(d Tr K - Tr L) for any Hermiticity-preserving L;
    nonnegative exactly when conditional 2-positivity holds on those pairs.
    """
    vecs = _normalize_basis(basis, s.d)
    d = s.d
    total = 0.0
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            # blocks of (id_2 (x) L)(|phi+><phi+|) evaluated on |phi->
            ei, ej = vecs[i], vecs[j]
            t_ii = ei.conj() @ s.apply(np.outer(ei, ei.conj())) @ ei
            t_jj = ej.conj() @ s.apply(np.outer(ej, ej.conj())) @ ej
            t_ij = ei.conj() @ s.apply(np.outer(ei, ej.conj())) @ ej
            t_ji = ej.conj() @ s.apply(np.outer(ej, ei.conj())) @ ei
            total += float((t_ii + t_jj - t_ij - t_ji).real)
    return total


def schwarz_pairwise_inequalities(s_heis: Superoperator, basis):
    """Dissipativity margins at X = |e_i><e_j| for all i != j.

    margin_ij = K_jj - <e_j|L(|e_j><e_i|)|e_i> - <e_i|L(|e_i><e_j|)|e_j>.
    Also verifies sum_{i != j} K_jj = (d-1) Tr K.  Returns (margins, all_ok).
    """
    if s_heis.picture != HEISENBERG:
        raise ValueError("expected the Heisenberg picture")
    eye = np.eye(s_heis.d, dtype=complex)
    if np.linalg.norm(s_heis.apply(eye)) > 1e-8 * max(1.0, s_heis.norm()):
        raise ValueError("generator is not unital")
    vecs = _normalize_basis(basis, s_heis.d)
    d = s_heis.d
    schro = adjoint_superoperator(s_heis)
    k = classical_generator(schro, vecs)
    # K_ij = Tr(P_i L(P_j)) = <e_j| L^dag(P_j... diagonal agrees either picture
    margins = {}
    diag_sum = 0.0
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
            diag_sum += kjj
    trace_k = float(np.trace(k.matrix))
    if abs(diag_sum - (d - 1) * trace_k) > 1e-9 * max(1.0, abs(trace_k), abs(diag_sum)):
        raise AssertionError("pairwise bookkeeping identity failed")
    all_ok = all(v >= -1e-9 * max(1.0, s_heis.norm()) for v in margins.values())
    return margins, all_ok


def _deterministic_eigbasis(x: np.ndarray):
    """Ascending-eigenvalue eigenbasis with first nonzero component made
    real-positive, so repeated runs pick the same basis."""
    vals, vecs = np.linalg.eigh(x)
    cols = []
    for i in range(vecs.shape[1]):
        v = vecs[:, i].copy()
        nz = np.argmax(np.abs(v) > 1e-12)
        phase = v[nz] / abs(v[nz])
        cols.append(v / phase)
    return vals, cols


def eigen_embedding(
    s: Superoperator, lam: float, x_op, tol: float = 1e-8
):
    """Check that a real eigenvalue of L appears in the classical generator
    built in the eigenbasis of its Hermitian eigenvector.

    Returns (K, x, residual) with residual = ||K x - lam x||_inf.
    """
    x_op = as_matrix(x_op)
    if np.linalg.norm(x_op - x_op.conj().T) > 1e-8 * max(1.0, np.linalg.norm(x_op)):
        # non-Hermitian eigenvector of a real eigenvalue: Hermitize
        cand1 = x_op + x_op.conj().T
        cand2 = 1j * (x_op - x_op.conj().T)
        x_op = cand1 if np.linalg.norm(cand1) >= np.linalg.norm(cand2) else cand2
    resid = np.linalg.norm(s.apply(x_op) - lam * x_op)
    if resid > tol * max(1.0, np.linalg.norm(x_op)) * max(1.0, s.norm()):
        raise ValueError(f"x_op is not an eigenvector for lambda (residual {resid:.3e})")
    vals, cols = _deterministic_eigbasis(x_op)
    k = classical_generator(s, cols)
    x = np.array([float((c.conj() @ x_op @ c).real) for c in cols])
    kx = k.matrix @ x
    return k, x, float(np.max(np.abs(kx - lam * x)))
