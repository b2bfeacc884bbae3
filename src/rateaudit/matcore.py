"""Dense matrix kernels shared by every other module.

Vectorization is column-stacking throughout: vec([[a,b],[c,d]]) = (a,c,b,d),
so the superoperator of rho -> A rho B is B^T (x) A.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# the fixed, relative rules of `kernel_dimension` and `is_hermitian`
RANK_TOL = 1e-10
HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class ToleranceConfig:
    """The one settable tolerance (`--tol`): psd_tol, relative to the matrix
    scale, of every positivity, faithfulness and zero-eigenvalue test."""

    psd_tol: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.psd_tol < 1.0):
            raise ValueError(f"psd_tol must lie in (0, 1), got {self.psd_tol}")


DEFAULT_TOL = ToleranceConfig()


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex array, rejecting non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    return require_finite(a)


def require_finite(a: np.ndarray) -> np.ndarray:
    """The array a (a matrix or a stack), once every entry is finite; a complex
    entry is finite iff both of its parts are."""
    if not np.isfinite(a).all():
        raise ValueError("matrix contains NaN/Inf entries")
    return a


# Pade coefficients b_0..b_m of the degrees m = 5, 7, 9, 13, and the 1-norms
# theta_3, theta_5, theta_7, theta_9 up to which the degrees 3, 5, 7, 9 are
# exact to double precision (Higham, SIAM J. Matrix Anal. Appl. 26:1179, 2005,
# Table 2.3); below theta_3 `_taylor7` takes the place of degree 3.  Divided by
# b_0, so that V - U is exactly I at a = 0 and the solve returns exactly I
# (LAPACK divides by a pivot through its reciprocal, and 1 / b_0 * b_0 != 1).
_PADE = tuple(tuple(c / b[0] for c in b) for b in (
    (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0,
     110880.0, 3960.0, 90.0, 1.0),
    (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
     1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
     33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)))
_THETA = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1, 2.097847961257068)
_THETA13 = 5.371920351148152


def _taylor7(x) -> np.ndarray:
    """The degree-7 Taylor polynomial of exp of each matrix of the stack x, in
    four products and no solve.  For ||x||_1 <= theta_3 its truncation error
    relative to ||x||_1 is at most sum_{k>7} theta_3^(k-1) / k! = 4.2e-18, within
    2^-53 = 1.1e-16, while degree 6 leaves theta_3^6 / 7! = 2.2e-15: 7 is the
    least degree m with theta_3^m / (m+1)! <= 2^-53."""
    ident = np.eye(x.shape[-1])
    x2 = x @ x
    return (ident + x) + x2 @ ((ident / 2 + x / 6) + x2 @ ((ident / 24 + x / 120)
                                                          + x2 @ (ident / 720 + x / 5040)))


def _pade(x, b) -> np.ndarray:
    """(V - U)^-1 (V + U), the Pade approximant with coefficients b of exp of
    each matrix of the stack x; U holds the odd and V the even powers of x."""
    ident = np.eye(x.shape[-1])
    x2 = x @ x
    if len(b) == 14:  # degree 13 from x2, x4 and x6 alone
        x4 = x2 @ x2
        x6 = x4 @ x2
        u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
                 + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident)
        v = x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2) + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident
    else:
        powers = [ident, x2]  # x^0, x^2, ..., x^(m - 1)
        while len(powers) < len(b) // 2:
            powers.append(powers[-1] @ x2)
        u = x @ sum(b[2 * k + 1] * p for k, p in enumerate(powers))
        v = sum(b[2 * k] * p for k, p in enumerate(powers))
    return np.linalg.solve(v - u, v + u)


def expm(a) -> np.ndarray:
    """exp(a) of a square matrix or of each matrix of a stack (..., n, n).
    Each matrix with ||a||_1 <= theta_3 gets the degree-7 Taylor polynomial,
    any other the least Pade degree 5, 7 or 9 exact at its 1-norm, else degree
    13 with scaling and squaring by its own power of two 2^s, the least with
    ||a / 2^s||_1 < theta_13; one stacked evaluation per group.  The result
    dtype is a's promoted to at least float64, so a real stack stays real; it
    depends on the dtype alone, never on the values, so a stacked call equals
    per-matrix calls bit for bit.  ValueError on NaN/Inf entries."""
    a = np.asarray(a)
    a = require_finite(a.astype(np.result_type(a, np.float64), copy=False))
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"square matrices required, got shape {a.shape}")
    x = a.reshape(-1, *a.shape[-2:])
    norm = np.abs(x).sum(axis=1).max(axis=1, initial=0)
    r = np.empty_like(x)
    # float comparisons only: searchsorted and integer masks would fault in
    # more of numpy's library code on the propagator path (peak RSS)
    small = norm <= _THETA[0]
    if small.any():
        r[small] = _taylor7(x[small])
    for b, low, high in zip(_PADE, _THETA, (*_THETA[1:], np.inf)):
        sel = (low < norm) & (norm <= high)
        if not sel.any():
            continue
        s = np.maximum(0, np.frexp(norm[sel] / _THETA13)[1]) if len(b) == 14 else np.zeros(1, int)
        y = _pade(x[sel] * np.ldexp(1.0, -s)[:, None, None], b)
        for j in range(s.max()):
            sq = s > j
            y[sq] = y[sq] @ y[sq]
        r[sel] = y
    return r.reshape(a.shape)


def vectorize(m) -> np.ndarray:
    """Column-stacking vec: columns concatenated top to bottom."""
    return as_matrix(m).reshape(-1, order="F")


def devectorize(v, d: int) -> np.ndarray:
    """Inverse of `vectorize` for a d x d matrix."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if d * d != v.size:
        raise ValueError(f"cannot reshape length-{v.size} vector to {d}x{d}")
    return v.reshape((d, d), order="F")


def spectral_norm(m) -> float:
    return float(np.linalg.norm(as_matrix(m), 2))


def residual_exceeds(residual: float, rel: float, m) -> bool:
    """residual > rel max(1, ||m||_2), with the SVD of m only when residual >
    rel, so a residual that passes costs no norm; a NaN exceeds nothing."""
    return bool(residual > rel and residual > rel * spectral_norm(m))


def _require_square(m: np.ndarray) -> np.ndarray:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"square matrix required, got shape {m.shape}")
    return m


def eig_general(m) -> list[tuple[complex, np.ndarray]]:
    """Eigenpairs of a general square matrix.

    Returned sorted by (real part descending, imaginary part ascending) so
    reports are deterministic.  np.linalg.eig raises LinAlgError on
    non-convergence, which we let propagate (never a silent failure).
    """
    m = _require_square(m)
    vals, vecs = np.linalg.eig(m)
    order = np.lexsort((vals.imag, -vals.real))
    pairs = [(complex(vals[i]), vecs[:, i].copy()) for i in order]
    resid = abs(sum(v for v, _ in pairs) - np.trace(m))
    if resid > 1e-9 * max(1.0, spectral_norm(m)):
        raise np.linalg.LinAlgError(
            f"eigenvalue sum deviates from trace by {resid:.3e}"
        )
    return pairs


def is_hermitian(m) -> bool:
    """||m - m^dag||_2 <= HERMITICITY_TOL max(1, ||m||_2), for m or each of a finite stack.
    Implied by the same test in Frobenius norms with ||m||_F / sqrt(n) for ||m||_2, as
    ||D||_2 <= ||D||_F and ||m||_F <= sqrt(n) ||m||_2: the SVDs run only when it fails."""
    m = _require_square(m) if np.ndim(m) == 2 else m
    adj = m.conj().swapaxes(-1, -2)
    if np.array_equal(m, adj):  # exactly Hermitian: within any tolerance
        return True
    diff = m - adj
    with np.errstate(all="ignore"):  # a norm that overflows leaves the SVDs to decide
        defect = np.linalg.norm(diff, axis=(-2, -1))
        scale = np.maximum(1.0, np.linalg.norm(m, axis=(-2, -1)) / np.sqrt(m.shape[-1]))
    if np.isfinite(scale).all() and np.all(defect <= HERMITICITY_TOL * scale):
        return True
    defect = np.linalg.norm(diff, 2, axis=(-2, -1))
    scale = np.maximum(1.0, np.linalg.norm(m, 2, axis=(-2, -1)))
    return bool(np.all(defect <= HERMITICITY_TOL * scale))


def psd_min_eig(m):
    """Least eigenpair of a (near-)Hermitian matrix, with the scale of its test.

    Returns (min_eigenvalue, scale, witness eigenvector), where
    scale = max(1, max |eigenvalue|) is the spectral norm read off the same
    eigensolve; `positivity._verdict` decides pass or fail from it.  Inputs
    that are Hermitian only up to HERMITICITY_TOL (e.g. floating-point Choi
    matrices) are symmetrized before the eigensolve; anything worse is
    rejected.
    """
    m = _require_square(m)
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within HERMITICITY_TOL")
    # the sum can overflow for entries near the float maximum
    vals, vecs = np.linalg.eigh(require_finite(0.5 * (m + m.conj().T)))
    lo, hi = float(vals[0]), float(vals[-1])  # eigh sorts ascending
    return lo, max(1.0, -lo, hi), vecs[:, 0].copy()


def kernel_dimension(svals: np.ndarray):
    """Number of singular values that count as zero, sigma <= RANK_TOL * n *
    sigma_max, in one descending vector of n or in each row of an (N, n) stack."""
    return np.sum(svals <= RANK_TOL * svals.shape[-1] * svals[..., :1], axis=-1)


def numerical_kernel(m):
    """Orthonormal bases (right, left), each (n, dim), of the right and left
    null spaces of a square matrix, from one SVD m = U S V^dag: the columns of
    V and of U whose singular values `kernel_dimension` counts as zero."""
    m = _require_square(m)
    u, svals, vh = np.linalg.svd(m)
    rank = m.shape[0] - int(kernel_dimension(svals))
    return vh[rank:].conj().T, u[:, rank:]
