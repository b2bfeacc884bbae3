"""Markovian generators: construction, spectra, Choi matrices, steady states."""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .matcore import (
    DEFAULT_TOL,
    HERMITICITY_TOL,
    RANK_TOL,
    ToleranceConfig,
    as_matrix,
    devectorize,
    is_hermitian,
    kernel_dimension,
    numerical_kernel,
    spectral_norm,
    vectorize,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_PLUS = 0.5 * (SIGMA_X + 1j * SIGMA_Y)
SIGMA_MINUS = 0.5 * (SIGMA_X - 1j * SIGMA_Y)

SCHROEDINGER = "schroedinger"
HEISENBERG = "heisenberg"


@dataclass(frozen=True)
class GeneratorSpec:
    """Hamiltonian + weighted jump operators; rates may be negative."""

    hamiltonian: np.ndarray
    jumps: tuple  # of (matrix, rate)

    def __post_init__(self):
        h = as_matrix(self.hamiltonian)
        if h.shape[0] != h.shape[1]:
            raise ValueError("Hamiltonian must be square")
        if not is_hermitian(h):
            raise ValueError("Hamiltonian is not Hermitian within tolerance")
        object.__setattr__(self, "hamiltonian", h)
        jumps = []
        for op, rate in self.jumps:
            op = as_matrix(op)
            if op.shape != h.shape:
                raise ValueError("jump operator dimension mismatch")
            rate = float(rate)
            if not np.isfinite(rate):
                raise ValueError("jump rate must be finite")
            jumps.append((op, rate))
        object.__setattr__(self, "jumps", tuple(jumps))

    @property
    def d(self) -> int:
        return self.hamiltonian.shape[0]


def pauli_spec(g1: float, g2: float, g3: float) -> GeneratorSpec:
    """The qubit generator (1/2) sum_k g_k (sigma_k rho sigma_k - rho)."""
    return GeneratorSpec(
        hamiltonian=np.zeros((2, 2), dtype=complex),
        jumps=((SIGMA_X, 0.5 * g1), (SIGMA_Y, 0.5 * g2), (SIGMA_Z, 0.5 * g3)),
    )


@dataclass(frozen=True)
class Superoperator:
    """d^2 x d^2 matrix acting on column-stacked operators."""

    d: int
    matrix: np.ndarray
    picture: str = SCHROEDINGER

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m.shape != (self.d**2, self.d**2):
            raise ValueError("superoperator matrix must be d^2 x d^2")
        if self.picture not in (SCHROEDINGER, HEISENBERG):
            raise ValueError(f"unknown picture {self.picture!r}")
        object.__setattr__(self, "matrix", m)

    def apply(self, x) -> np.ndarray:
        return devectorize(self.matrix @ vectorize(x), self.d)

    def norm(self) -> float:
        return spectral_norm(self.matrix)


@dataclass(frozen=True)
class RateReport:
    eigenvalues: tuple
    rates: tuple  # Gamma_ell, sorted descending
    gamma_max: float
    rate_sum: float
    unstable: bool = False
    defective_zero: bool = False


def gkls_matrices(h: np.ndarray, ops: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Generator matrices (N, d^2, d^2), column stacking, of the specs given as
    h (N, d, d), ops (N, J, d, d) and rates (N, J).  With K = -iH - 1/2 sum_j
    r_j L_j^dag L_j the generator is rho -> K rho + rho K^dag + sum_j r_j L_j rho
    L_j^dag, whose matrix is I (x) K + conj(K) (x) I + sum_j r_j conj(L_j) (x) L_j.
    """
    n, d = h.shape[0], h.shape[-1]
    weighted = rates[..., None, None] * ops
    anti = ops.reshape(n, -1, d).conj().swapaxes(1, 2) @ weighted.reshape(n, -1, d)
    k = -1j * h - 0.5 * anti
    # sum_j r_j conj(L_j)[a, b] L_j[c, e], indexed (a b, c e); the Kronecker
    # product puts it at row a d + c, column b d + e
    jump = weighted.reshape(n, -1, d * d).conj().swapaxes(1, 2) @ ops.reshape(n, -1, d * d)
    jump = jump.reshape(n, d, d, d, d).swapaxes(2, 3).reshape(n, d * d, d * d)
    # entry [a d + c, b d + e] sits at axes (a, c, b, e): (I (x) K) is I[a, b] K[c, e]
    eye = np.eye(d, dtype=complex)
    m = eye[:, None, :, None] * k[:, None, :, None, :]
    m = m + k.conj()[:, :, None, :, None] * eye[:, None, :]  # + conj(K)[a, b] I[c, e]
    return m.reshape(n, d * d, d * d) + jump


def build_superoperator(spec: GeneratorSpec) -> Superoperator:
    """Matrix of the generator: the one-spec case of `gkls_matrices`."""
    ops = np.array([op for op, _ in spec.jumps], dtype=complex).reshape(1, -1, spec.d, spec.d)
    rates = np.array([[rate for _, rate in spec.jumps]], dtype=float)
    m = gkls_matrices(spec.hamiltonian[None], ops, rates)[0]
    return Superoperator(d=spec.d, matrix=m, picture=SCHROEDINGER)


def adjoint_superoperator(s: Superoperator) -> Superoperator:
    """Hilbert-Schmidt adjoint; flips the picture tag."""
    other = HEISENBERG if s.picture == SCHROEDINGER else SCHROEDINGER
    return Superoperator(d=s.d, matrix=s.matrix.conj().T, picture=other)


def maximally_entangled_projector(d: int) -> np.ndarray:
    """P+ = |psi+><psi+| with |psi+> = vec(I) / sqrt(d) (trace 1)."""
    psi = vectorize(np.eye(d)) / np.sqrt(d)
    return np.outer(psi, psi.conj())


@functools.cache
def ccp_projector(d: int) -> np.ndarray:
    """Read-only Q = I - P+, the projector of the conditional CP test Q C Q >= 0."""
    q = np.eye(d * d, dtype=complex) - maximally_entangled_projector(d)
    q.flags.writeable = False
    return q


def _reshuffle(m: np.ndarray, d: int) -> np.ndarray:
    """Swap axes 0 and 3 of m seen as a (d, d, d, d) tensor; an involution.

    With column stacking, M[q d + p, j d + i] = Phi(|i><j|)[p, q] and
    C[i d + p, j d + q] = Phi(|i><j|)[p, q] / d, so the Choi matrix and the
    superoperator matrix are this reshuffle of each other (up to the 1/d).
    """
    return m.reshape(d, d, d, d).swapaxes(0, 3).reshape(d * d, d * d)


def choi(s: Superoperator) -> np.ndarray:
    """C = (id (x) Phi)(P+), P+ normalized to trace 1."""
    return _reshuffle(s.matrix, s.d) / s.d


@functools.cache
def _hermitian_basis(d: int) -> np.ndarray:
    """Read-only columns vec(F) of the orthonormal basis |i><i|, (|i><j| + |j><i|)/sqrt2,
    (-i|i><j| + i|j><i|)/sqrt2 (i < j) of the Hermitian d x d matrices."""
    i, j = np.triu_indices(d, 1)
    k, s = d + 2 * np.arange(i.size), 2 ** -0.5
    u = np.zeros((d * d, d * d), dtype=complex)
    u[np.arange(d) * (d + 1), np.arange(d)] = 1.0
    u[j * d + i, k], u[i * d + j, k] = s, s  # vec(|i><j|) sits at index j d + i
    u[j * d + i, k + 1], u[i * d + j, k + 1] = -1j * s, 1j * s
    u.flags.writeable = False
    return u


def hp_spectrum(m: np.ndarray):
    """Eigenvalues and singular values of each Hermiticity-preserving map M of an
    (N, d^2, d^2) stack, from its real form R = Re(U^dag M U), U = `_hermitian_basis(d)`.
    The eigenvalues are complex, sorted by (real part descending, imaginary part
    ascending).  ValueError when ||Im(U^dag M U)||_F > HERMITICITY_TOL max(1, ||R||)."""
    u = _hermitian_basis(round(m.shape[-1] ** 0.5))
    full = u.conj().T @ m @ u
    svals = np.linalg.svd(full.real, compute_uv=False)
    skew = np.linalg.norm(full.imag, axis=(-2, -1))
    limit = HERMITICITY_TOL * np.maximum(1.0, svals[:, 0])
    if np.any(skew > limit):
        i = np.argmax(skew > limit)
        raise ValueError(f"imaginary part {skew[i]:.3e} of the real form exceeds HERMITICITY_TOL"
                         f"*max(1, ||R||) = {limit[i]:.3e}: the map is not Hermiticity-preserving")
    # real eigvals returns a float array when every eigenvalue is real
    vals = np.linalg.eigvals(full.real).astype(complex)
    return np.take_along_axis(vals, np.lexsort((vals.imag, -vals.real), axis=-1), -1), svals


def rate_reports(m: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> list[RateReport]:
    """Rates of each generator matrix of an (N, n, n) stack from one `hp_spectrum`
    (a stacked transform to the real form, real `eigvals` and `svd`, ValueError for
    a map that is not Hermiticity-preserving; complex eigenvalues in exact conjugate
    pairs): one near-zero mode dropped, the rest negated; other copies of a
    degenerate zero stay as zero rates, which keeps sum(Gamma) = -Re Tr L exact.
    The singular values give the scale max(1, ||L||) and, by `kernel_dimension`
    as in `numerical_kernel`, the kernel dimension.
    """
    vals, svals = hp_spectrum(m)
    scale = np.maximum(1.0, svals[:, 0])
    resid = np.abs(vals.sum(axis=-1) - np.trace(m, axis1=-2, axis2=-1))
    zero_thresh = tol.psd_tol * scale
    mags = np.abs(vals)
    idx0 = np.argmin(mags, axis=-1)
    n_zero = np.sum(mags <= zero_thresh[:, None], axis=-1)
    kdim = kernel_dimension(svals)
    reports = []
    for i, v in enumerate(vals.tolist()):
        if resid[i] > 1e-9 * scale[i]:  # the eigensolver lost accuracy
            raise np.linalg.LinAlgError(f"eigenvalue sum deviates from trace by {resid[i]:.3e}")
        if mags[i, idx0[i]] > zero_thresh[i]:
            raise RuntimeError(
                f"no eigenvalue within the threshold psd_tol*||L|| = {zero_thresh[i]:.3e} of "
                f"zero (min |lambda| = {mags[i, idx0[i]]:.3e}): the generator is not trace-"
                "preserving, or the tolerance lies below the eigensolver's rounding error")
        gammas = sorted((-x.real for j, x in enumerate(v) if j != idx0[i]), reverse=True)
        reports.append(RateReport(
            eigenvalues=tuple(v),
            rates=tuple(gammas),
            gamma_max=gammas[0] if gammas else 0.0,
            rate_sum=float(sum(gammas)),
            unstable=any(g < -zero_thresh[i] for g in gammas),
            defective_zero=bool(kdim[i] < n_zero[i]),
        ))
    return reports


def relaxation_rates(s: Superoperator, tol: ToleranceConfig = DEFAULT_TOL) -> RateReport:
    """Relaxation rates of one generator: the one-matrix case of `rate_reports`."""
    return rate_reports(s.matrix[None], tol)[0]


def stationary_states(s: Superoperator, tol: ToleranceConfig = DEFAULT_TOL):
    """Kernel dimension m0 and a faithful stationary state if found: (m0, faithful).

    The candidate is P0(I/d) as a unit-trace Hermitian matrix, where
    P0 = V (W^dag V)^{-1} W^dag projects onto ker s along the other spectral
    subspaces (V, W the orthonormal right and left kernels of `numerical_kernel`).
    For a positive trace-preserving semigroup P0 is the Cesaro mean of e^{tL},
    so a faithful stationary state exists iff P0(I/d) > 0 (M. M. Wolf, Quantum
    Channels & Operations, 2012).  faithful is None when P0 does not exist
    (trivial kernel, or W^dag V singular: a defective zero mode), when the
    trace of P0(I/d) vanishes, or when the least eigenvalue of the state does
    not exceed psd_tol.
    """
    if s.picture != SCHROEDINGER:
        raise ValueError("stationary_states expects the Schroedinger picture")
    v, w = numerical_kernel(s.matrix)
    m0 = v.shape[1]
    if m0 == 0:
        return m0, None
    overlap = w.conj().T @ v
    # V, W have orthonormal columns, so the singular values of W^dag V lie in [0, 1]
    if np.linalg.svd(overlap, compute_uv=False)[-1] <= RANK_TOL:
        return m0, None
    y = devectorize(v @ np.linalg.solve(overlap, w.conj().T @ vectorize(np.eye(s.d) / s.d)), s.d)
    y = 0.5 * (y + y.conj().T)
    trace = np.trace(y).real
    if abs(trace) < 1e-10:
        return m0, None
    y = y / trace
    if np.linalg.eigvalsh(y)[0] <= tol.psd_tol:
        return m0, None
    return m0, y


def depolarizing_regulator(d: int) -> Superoperator:
    """Superoperator of rho -> (I/d) Tr rho - rho."""
    vec_i = vectorize(np.eye(d, dtype=complex))
    m = np.outer(vec_i, vec_i.conj()) / d - np.eye(d * d, dtype=complex)
    return Superoperator(d=d, matrix=m, picture=SCHROEDINGER)


def regularize_faithful(s: Superoperator, epsilon: float) -> Superoperator:
    """Mix in the depolarizing regulator; preserves trace-preservation."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    reg = depolarizing_regulator(s.d)
    return Superoperator(
        d=s.d, matrix=s.matrix + epsilon * reg.matrix, picture=s.picture
    )


def check_choi_trace_identity(s: Superoperator) -> float:
    """|d^2 <psi+|C|psi+> - Tr S| for the Choi matrix of s."""
    lhs = s.d**2 * np.trace(maximally_entangled_projector(s.d) @ choi(s))
    return abs(lhs - np.trace(s.matrix))
