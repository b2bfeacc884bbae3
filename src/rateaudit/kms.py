"""Weighted (s-family) inner products, the KMS adjoint, the symmetrized
generator with real spectrum, and Bendixson real-part bounds."""
from __future__ import annotations

import numpy as np

from .matcore import DEFAULT_TOL, ToleranceConfig, as_matrix, is_hermitian, residual_exceeds
from .generator import HEISENBERG, Superoperator, adjoint_superoperator


class WeightedInnerProduct:
    """<A,B> = Tr(A^dag w^s B w^{1-s}) for a full-rank density w.

    One eigendecomposition w = V diag(lam) V^dag, taken at construction, gives
    both the faithfulness test (least lam > psd_tol) and the cached powers
    w^s, w^{1-s} and w^{-1/2}, each (V * lam**p) @ V^dag; instances are
    immutable afterwards.
    """

    def __init__(self, omega, s: float = 0.5, tol: ToleranceConfig = DEFAULT_TOL):
        omega = as_matrix(omega)
        if not is_hermitian(omega):
            raise ValueError("weight must be Hermitian")
        omega = 0.5 * (omega + omega.conj().T)
        if abs(np.trace(omega).real - 1.0) > 1e-10:
            raise ValueError("weight must have unit trace")
        vals, vecs = np.linalg.eigh(omega)
        if float(vals[0]) <= tol.psd_tol:
            raise ValueError("weight must be strictly positive (faithful)")
        if not (0.0 <= s <= 1.0):
            raise ValueError("s must lie in [0, 1]")
        self.omega = omega
        self.s = float(s)
        self.w_s, self.w_1ms, self.isqrt = (
            (vecs * vals**p) @ vecs.conj().T for p in (self.s, 1.0 - self.s, -0.5))

    @property
    def d(self) -> int:
        return self.omega.shape[0]


def _sandwich_superoperator(m: np.ndarray) -> np.ndarray:
    """Superoperator of X -> m X m for Hermitian m (column stacking)."""
    return np.kron(m.T, m)


def _require_stationary(s_heis: Superoperator, w: WeightedInnerProduct):
    if s_heis.picture != HEISENBERG:
        raise ValueError("expected a Heisenberg-picture generator")
    schro = adjoint_superoperator(s_heis)
    resid = np.linalg.norm(schro.apply(w.omega))
    if residual_exceeds(resid, 1e-8, s_heis.matrix):
        raise ValueError(f"weight is not stationary (residual {resid:.3e})")
    return schro


def kms_adjoint(s_heis: Superoperator, w: WeightedInnerProduct) -> Superoperator:
    """Adjoint of the Heisenberg generator w.r.t. the KMS inner product.

    Computed as V^{-1} o L o V with V(X) = w^{1/2} X w^{1/2}, where L is the
    Schroedinger counterpart of s_heis.
    """
    if w.s != 0.5:
        raise ValueError("KMS adjoint requires the s = 1/2 inner product")
    schro = _require_stationary(s_heis, w)
    v = _sandwich_superoperator(w.w_s)  # w^{1/2}: s = 1/2
    vinv = _sandwich_superoperator(w.isqrt)
    sharp = vinv @ schro.matrix @ v
    return Superoperator(d=s_heis.d, matrix=sharp, picture=HEISENBERG)


def symmetrized_generator(s_heis: Superoperator, w: WeightedInnerProduct) -> Superoperator:
    """(1/2)(L^dag + L^#): KMS-self-adjoint, real spectrum, same trace as L."""
    sharp = kms_adjoint(s_heis, w)
    return Superoperator(
        d=s_heis.d, matrix=0.5 * (s_heis.matrix + sharp.matrix), picture=HEISENBERG
    )


def bendixson_interval(m) -> tuple[float, float]:
    """Extreme eigenvalues of the Hermitian part; bound all Re(eigenvalues)."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("square matrix required")
    vals = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    return float(vals[0]), float(vals[-1])
