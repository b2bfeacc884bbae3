"""Positivity classification: exact conditional-CP test, sampled conditional
k-positivity / dissipativity refutation, map-level CP / k-positive / Schwarz
checks, and the closed-form qubit Pauli oracle.

Sampled checks are one-sided: they can certify a violation (the witness is
replayable) but never certify a pass.

All four sampled checks minimise one kind of objective, b^dag F(a) b over unit
vectors a in C^n and b in C^m.  The value is (a (x) b)^dag W (a (x) b) for one
Hermitian kernel W of side n m, built once per problem as an (n, m, n, m)
tensor, so F(a) (m x m) and, for fixed b, the form G(b) (n x n) with
a^dag G(b) a the same value are two fixed transposes of W applied to
vec(|a><a|) and vec(|b><b|) (`_forms`).  `_alternating_min` minimises by
alternating exact lowest-eigenvector solves, so the value never increases.
It works on an (R, n) stack of restarts: each half-step is one stacked form
and one stacked eigh, and a per-restart mask retires each restart under the
stop rule, so every restart runs the rounds it would run alone.  Each product
is a per-row matrix-vector product, so a restart's numbers do not depend on
the rest of the stack.  A stack of R forms of side n holds R n^2 complex
numbers, and a half-step keeps a few such stacks alive at once.  The kernels:

- (conditional) k-positivity: a = phi, b = psi in C^(k d) and
  F(phi) = (id_k (x) L)(|phi><phi|); W is an index permutation of
  `extended_superoperator`.  The conditional test keeps psi _|_ phi by
  deflating the other vector out of each half-step's form (`_lowest`).
- Schwarz and dissipativity (Heisenberg matrix M): a = vec(X), b = v in C^d
  and F(X) is the defect D(X) = Phi(X^dag X) - Phi(X)^dag K(X)
  - K(X)^dag Phi(X), so W has side d^3.  K = M / 2 gives the Schwarz defect
  Phi(X^dag X) - Phi(X)^dag Phi(X); K = I gives the dissipation defect
  L(X^dag X) - L(X)^dag X - X^dag L(X) of a Hermiticity-preserving L.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .matcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    devectorize,
    psd_min_eig,
    residual_exceeds,
    vectorize,
)
from .generator import (
    HEISENBERG,
    SCHROEDINGER,
    Superoperator,
    adjoint_superoperator,
    ccp_projector,
    choi,
)

CERTIFIED_PASS = "certified_pass"
CERTIFIED_FAIL = "certified_fail"
NO_VIOLATION_FOUND = "no_violation_found"
VIOLATION_FOUND = "violation_found"
NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class PositivityVerdict:
    status: str
    margin: float
    witness: object = None
    samples_used: int = 0

    @property
    def violated(self) -> bool:
        return self.status in (CERTIFIED_FAIL, VIOLATION_FOUND)


# the verdict of a check whose test does not apply to the map (margin NaN)
_NOT_APPLICABLE = PositivityVerdict(status=NOT_APPLICABLE, margin=float("nan"))


def _verdict(margin: float, scale: float, witness, tol: ToleranceConfig,
             samples: int = 0) -> PositivityVerdict:
    """The one status rule: a check fails iff margin < -psd_tol * scale, so a
    margin on the threshold passes.  An exact test (samples == 0) is
    certified either way; a sampled one that ran `samples` restarts can only
    find a violation or find none."""
    failed = margin < -tol.psd_tol * scale
    if samples == 0:
        status = CERTIFIED_FAIL if failed else CERTIFIED_PASS
    else:
        status = VIOLATION_FOUND if failed else NO_VIOLATION_FOUND
    return PositivityVerdict(status=status, margin=margin, witness=witness,
                             samples_used=samples)


@dataclass(frozen=True)
class SamplerConfig:
    n_restarts: int = 64
    refine_steps: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.n_restarts < 1 or self.refine_steps < 1:
            raise ValueError("counts must be positive")


def _restart_rng(cfg: SamplerConfig, restart: int) -> np.random.Generator:
    # counter-based split: independent of execution order
    return np.random.default_rng(np.random.SeedSequence([cfg.seed, restart]))


def _random_unit_vector(rng, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _random_matrix(rng, d: int) -> np.ndarray:
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def check_ccp(s: Superoperator, tol: ToleranceConfig = DEFAULT_TOL) -> PositivityVerdict:
    """Exact conditional complete positivity: Q C Q >= 0 with Q = I - P+.

    The Choi matrix is scaled by d^2 so that matrix elements equal
    <.|(id (x) L)(|psi+><psi+| * d)|.> , i.e. the unnormalized convention.
    """
    if s.picture != SCHROEDINGER:
        raise ValueError("check_ccp expects the Schroedinger picture")
    c = s.d**2 * choi(s)
    q = ccp_projector(s.d)
    return _verdict(*psd_min_eig(q @ c @ q), tol)


def extended_superoperator(s: Superoperator, k: int) -> np.ndarray:
    """Matrix of id_k (x) Phi on column-stacked (k d) x (k d) operators.

    An operator index I d + a (block I, entry a) makes the matrix a
    (k, d, k, d, k, d, k, d) tensor [J, b, I, a, L, e, K, c] equal to
    delta_JL delta_IK M[b d + a, e d + c]: one copy of M per block pair.
    """
    d, n = s.d, k * s.d
    eye = np.eye(k)
    m4 = s.matrix.reshape(d, d, d, d)
    return np.einsum("JL,IK,baec->JbIaLeKc", eye, eye, m4).reshape(n * n, n * n)


def _vec(m: np.ndarray) -> np.ndarray:
    # column stacking of a matrix or a stack of them, without the finiteness
    # check of `vectorize`: the engine only sees matrices built from already
    # validated ones
    return m.swapaxes(-1, -2).reshape(*m.shape[:-2], -1)


def _adj(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _apply(mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    # mat @ v[r] for every row of the (R, n) stack v, as one matmul call
    return (mat @ v[..., None])[..., 0]


def _outer_vec(v: np.ndarray) -> np.ndarray:
    # vec(|v_r><v_r|)[j n + i] = v_ri conj(v_rj) for every row of the (R, n)
    # stack v; the factors keep the order of np.outer(v_r, conj(v_r)), as SIMD
    # complex products may round differently when swapped
    return (v[:, None, :] * v.conj()[:, :, None]).reshape(len(v), -1)


def _lowest(h: np.ndarray, against=None):
    """Lowest eigenpairs of a stack of Hermitian matrices h (R, n, n): values
    (R,) and unit vectors (R, n).  With unit rows `against` (R, n), row r is
    taken over unit vectors orthogonal to a = against[r] by rank-one
    deflation (Golub & Van Loan, Matrix Computations, 8.1): with
    P = I - |a><a|, P h P + lift |a><a| is h compressed to a's complement
    plus lift on a, and lift = 2 max(1, sum_ij |h_ij|) > ||h||_2 puts the
    lowest eigenpair in the complement.  It is h - (x + x^dag) with
    x = |a><v|, u = h|a>, c = Re <a|u> and v = u - (c + lift) / 2 |a>."""
    if against is not None:
        a = against
        u = _apply(h, a)
        c = (a.conj() * u).sum(axis=1).real
        lift = 2.0 * np.maximum(1.0, np.abs(h).reshape(len(h), -1).sum(axis=1))
        x = a[:, :, None] * (u - (0.5 * (c + lift))[:, None] * a).conj()[:, None, :]
        h = h - (x + _adj(x))
    vals, vecs = np.linalg.eigh(h)
    return vals[:, 0], vecs[:, :, 0]


class _Minimum(NamedTuple):
    value: float
    a: np.ndarray
    b: np.ndarray
    index: int  # the winning restart, the earliest on ties
    rounds: np.ndarray  # rounds run by each restart


def _alternating_min(f_of_a, g_of_b, starts: np.ndarray, cfg: SamplerConfig,
                     scale: float, orthogonal: bool = False) -> _Minimum:
    """Minimise b^dag F(a) b over unit vectors a, b (see the module docstring).

    `starts` is an (R, n) stack of start vectors a, and `f_of_a` and `g_of_b`
    map an (m, .) stack of vectors to the (m, ., .) stack of their Hermitian
    forms.  From each start, alternate b <- lowest eigenvector of F(a) and
    a <- lowest eigenvector of G(b).  All live restarts move together, one
    stacked form and one stacked eigensolve per half-step; a restart retires
    when its value drops by less than 1e-14 * scale or after cfg.refine_steps
    rounds, and the live stack is compacted only in a round where one
    retires.  With `orthogonal` each half-step is restricted to the
    complement of the other vector.
    """
    # each start is scaled by its own 1-D norm, so its bytes do not depend on
    # the stack it sits in
    a = np.array([s / np.linalg.norm(s) for s in starts])
    val, b = _lowest(f_of_a(a), a if orthogonal else None)
    live = np.arange(len(a))
    out_val, out_a, out_b = np.empty(len(a)), np.empty_like(a), np.empty_like(b)
    rounds = np.empty(len(a), dtype=int)
    for step in range(1, cfg.refine_steps + 1):
        a = _lowest(g_of_b(b), b if orthogonal else None)[1]
        cur, b = _lowest(f_of_a(a), a if orthogonal else None)
        done = val - cur < 1e-14 * scale
        val = cur
        if step == cfg.refine_steps:
            done[:] = True
        if done.any():
            idx = live[done]
            out_val[idx], out_a[idx], out_b[idx], rounds[idx] = val[done], a[done], b[done], step
            keep = ~done
            live, val, a, b = live[keep], val[keep], a[keep], b[keep]
            if not live.size:
                break
    best = int(np.argmin(out_val))
    return _Minimum(float(out_val[best]), out_a[best], out_b[best], best, rounds)


def _forms(w4: np.ndarray, scale: float):
    """(F, G) of the kernel w4 (n, m, n, m) (see the module docstring) on (R, n)
    stacks of a and (R, m) stacks of b.  Each form is symmetrized after its
    Hermiticity residual is checked over the whole stack."""
    n, m = w4.shape[:2]
    wf = w4.transpose(1, 3, 0, 2).reshape(m * m, n * n)
    wg = w4.transpose(0, 2, 1, 3).reshape(n * n, m * m)

    def form(w, v, side):
        h = _apply(w, _outer_vec(v)).reshape(-1, side, side)
        herm = 0.5 * (h + _adj(h))
        if np.linalg.norm(h - herm) > 1e-10 * scale:  # over the whole stack
            raise AssertionError("sampled form is not Hermitian")
        return herm

    return (lambda a: form(wf, a, m)), (lambda b: form(wg, b, n))


def _k_positivity_kernel(s: Superoperator, k: int) -> np.ndarray:
    """Kernel (n, n, n, n), n = k d, of <psi|(id_k (x) Phi)(|phi><phi|)|psi>
    over phi (x) psi: entry [p, q, r, t] is ext[t n + q, p n + r]."""
    n = k * s.d
    return extended_superoperator(s, k).reshape(n, n, n, n).transpose(2, 1, 3, 0)


def _k_positivity_problem(s: Superoperator, k: int, cfg: SamplerConfig):
    """(F, G, starts, scale) of <psi|(id_k (x) Phi)(|phi><phi|)|psi> on
    (R, k d) stacks of phi and psi, with cfg's seeded random unit starts."""
    if k < 1:
        raise ValueError("k must be >= 1")
    scale = max(1.0, s.norm())
    starts = np.array([_random_unit_vector(_restart_rng(cfg, r), k * s.d)
                       for r in range(cfg.n_restarts)])
    return (*_forms(_k_positivity_kernel(s, k), scale), starts, scale)


def _k_positivity_verdict(s: Superoperator, k: int, cfg: SamplerConfig,
                          tol: ToleranceConfig, orthogonal: bool) -> PositivityVerdict:
    """Sampled minimum of <psi|(id_k (x) Phi)(|phi><phi|)|psi> over unit
    vectors, with psi _|_ phi when `orthogonal`; witness (phi, psi)."""
    f, g, starts, scale = _k_positivity_problem(s, k, cfg)
    best = _alternating_min(f, g, starts, cfg, scale, orthogonal)
    return _verdict(best.value, scale, (best.a, best.b), tol, cfg.n_restarts)


def check_conditional_k_positivity(
    s: Superoperator,
    k: int,
    cfg: SamplerConfig = SamplerConfig(),
    tol: ToleranceConfig = DEFAULT_TOL,
) -> PositivityVerdict:
    """Sampled refutation of <psi|(id_k (x) L)(|phi><phi|)|psi> >= 0, psi _|_ phi."""
    return _k_positivity_verdict(s, k, cfg, tol, orthogonal=True)


def replay_conditional_k_positivity(s: Superoperator, k: int, witness) -> float:
    """Direct re-evaluation of a (phi, psi) witness margin."""
    phi, psi = witness
    n = k * s.d
    ext = extended_superoperator(s, k)
    m = devectorize(ext @ vectorize(np.outer(phi, phi.conj())), n)
    return float((psi.conj() @ m @ psi).real)


def dissipativity_defect(s_heis: Superoperator, x) -> np.ndarray:
    """D(X) = L(X^dag X) - L(X^dag) X - X^dag L(X) for a Heisenberg generator."""
    x = np.asarray(x, dtype=complex)
    out = (
        s_heis.apply(x.conj().T @ x)
        - s_heis.apply(x.conj().T) @ x
        - x.conj().T @ s_heis.apply(x)
    )
    herm = 0.5 * (out + out.conj().T)
    if residual_exceeds(np.linalg.norm(out - herm), 1e-10, s_heis.matrix):
        raise AssertionError("dissipativity defect is not Hermitian")
    return herm


def _matrix_unit_starts(d: int) -> list[np.ndarray]:
    """Deterministic structured starting points: all matrix units |i><j|.

    The pairwise inequalities show the defect minimum of boundary generators is
    attained on matrix units, where random restarts converge slowly."""
    return list(np.eye(d * d, dtype=complex).reshape(d * d, d, d))


def _defect_kernel(m: Superoperator, cross: np.ndarray) -> np.ndarray:
    """Kernel (d^2, d, d^2, d) of v^dag D(X) v over vec(X) (x) v, where
    D(X) = Phi(X^dag X) - Phi(X)^dag K(X) - K(X)^dag Phi(X), Phi = m and
    K = cross (both d^2 x d^2).  It is delta M4 - A^dag B - B^dag A, where
    vec(X) (x) v maps to Phi(X) v under A and to K(X) v under B."""
    d = m.d
    # M4[c, r, C, R] = M[c d + r, C d + R], so Phi(X)[r, c] = sum M4[c, r, C, R] X[R, C]
    m4, k4 = m.matrix.reshape(d, d, d, d), cross.reshape(d, d, d, d)
    # v^dag Phi(X^dag X) v, with (X^dag X)[R, C] = sum_s conj(X[s, R]) X[s, C]
    first = np.einsum("crCR,sS->RsrCSc", m4, np.eye(d)).reshape(d * d, d, d * d, d)
    # (A^dag B)[(a, b), p, (C, R), q] = sum_u conj(M4[p, u, a, b]) K4[q, u, C, R]
    ab = np.einsum("puab,quCR->abpCRq", m4.conj(), k4).reshape(d * d, d, d * d, d)
    return first - (ab + ab.transpose(2, 3, 0, 1).conj())


def _defect_problem(m: Superoperator, cross: np.ndarray, cfg: SamplerConfig):
    """(F, G, starts, scale) of the kernel of `_defect_kernel` on (R, d^2)
    stacks of vec(X) and (R, d) stacks of v, so F(X) = D(X); the starts are
    the matrix units, then cfg's seeded random matrices."""
    units = _matrix_unit_starts(m.d)
    randoms = [_random_matrix(_restart_rng(cfg, r), m.d)
               for r in range(len(units), len(units) + cfg.n_restarts)]
    scale = max(1.0, m.norm())
    return (*_forms(_defect_kernel(m, cross), scale), _vec(np.array(units + randoms)), scale)


def _defect_verdict(m: Superoperator, cross: np.ndarray, defect, cfg: SamplerConfig,
                    tol: ToleranceConfig) -> PositivityVerdict:
    """Sampled minimum of the least eigenvalue of the defect D(X) of
    `_defect_problem` over unit-Frobenius X; `defect(m, X)` is the public
    defect function that the reported margin is replayed with."""
    f, g, starts, scale = _defect_problem(m, cross, cfg)
    witness = devectorize(_alternating_min(f, g, starts, cfg, scale).a, m.d)
    margin = float(np.linalg.eigvalsh(defect(m, witness))[0])
    return _verdict(margin, scale, witness, tol, cfg.n_restarts)


def check_dissipativity(
    s_heis: Superoperator,
    cfg: SamplerConfig = SamplerConfig(),
    tol: ToleranceConfig = DEFAULT_TOL,
) -> PositivityVerdict:
    """Sampled refutation of the dissipativity condition (Heisenberg picture)."""
    if s_heis.picture != HEISENBERG:
        raise ValueError("check_dissipativity expects the Heisenberg picture")
    eye = np.eye(s_heis.d, dtype=complex)
    if residual_exceeds(np.linalg.norm(s_heis.apply(eye)), 1e-8, s_heis.matrix):
        raise ValueError("generator is not unital")
    identity = np.eye(s_heis.d**2, dtype=complex)
    return _defect_verdict(s_heis, identity, dissipativity_defect, cfg, tol)


CLASS_CP = "CP"
CLASS_SCHWARZ_NOT_CP = "Schwarz_not_CP"
CLASS_POSITIVE_NOT_SCHWARZ = "Positive_not_Schwarz"
CLASS_NOT_POSITIVE = "Not_positive"


def qubit_pauli_classify(g1: float, g2: float, g3: float) -> str:
    """Closed-form class of the qubit Pauli generator with rates (g1, g2, g3).

    CP iff all rates nonnegative; positive iff all pairwise sums are
    nonnegative; Schwarz (dissipative) iff positive and the second elementary
    symmetric polynomial g1*g2 + g2*g3 + g3*g1 is nonnegative.  With a single
    negative rate the Schwarz condition reads g3 >= -g1*g2/(g1+g2), i.e. the
    negative rate may not exceed half the harmonic mean of the other two in
    magnitude.  Two or more negative rates make a pairwise sum negative.
    """
    g = sorted((g1, g2, g3))
    if g[0] >= 0:
        return CLASS_CP
    if g[0] + g[1] < 0:
        return CLASS_NOT_POSITIVE
    if g1 * g2 + g2 * g3 + g3 * g1 >= 0:
        return CLASS_SCHWARZ_NOT_CP
    return CLASS_POSITIVE_NOT_SCHWARZ


def schwarz_defect(m: Superoperator, x) -> np.ndarray:
    """Phi(X^dag X) - Phi(X)^dag Phi(X) for a map in the Heisenberg picture."""
    x = np.asarray(x, dtype=complex)
    y = m.apply(x)
    out = m.apply(x.conj().T @ x) - y.conj().T @ y
    return 0.5 * (out + out.conj().T)


def non_unital(m: Superoperator) -> bool:
    """The unitality test of the Schwarz check: ||Phi(I) - I|| > 1e-8 max(1, ||Phi||)."""
    eye = np.eye(m.d, dtype=complex)
    return residual_exceeds(np.linalg.norm(m.apply(eye) - eye), 1e-8, m.matrix)


def check_map_class(
    m: Superoperator,
    map_class: str,
    cfg: SamplerConfig = SamplerConfig(),
    tol: ToleranceConfig = DEFAULT_TOL,
) -> PositivityVerdict:
    """Map-level test for a class of `bounds.CLASSES`.

    'cp' is the exact Choi test; '2p' and 'positive' are sampled
    k-positivity with k = 2 and k = 1, the same for a map and its adjoint;
    'schwarz' is the sampled Schwarz check of m's Heisenberg form (m if so
    tagged, else its adjoint), `not_applicable` (margin NaN) when that form
    is not unital.
    """
    if map_class == "cp":
        return _verdict(*psd_min_eig(choi(m)), tol)
    if map_class in ("2p", "positive"):
        k = 2 if map_class == "2p" else 1
        return _k_positivity_verdict(m, k, cfg, tol, orthogonal=False)
    if map_class == "schwarz":
        heis = m if m.picture == HEISENBERG else adjoint_superoperator(m)
        if non_unital(heis):
            return _NOT_APPLICABLE
        return _defect_verdict(heis, 0.5 * heis.matrix, schwarz_defect, cfg, tol)
    raise ValueError(f"unknown map class {map_class!r}")
