"""Time-dependent generators: time-ordered propagators (exponential-midpoint
product), time-local rates, divisibility audits, trace-norm monotonicity, and
the built-in tanh-modulated qubit example."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .matcore import DEFAULT_TOL, ToleranceConfig, devectorize, expm, vectorize
from .generator import (
    SCHROEDINGER,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    Superoperator,
    build_superoperator,
    gkls_matrices,
    rate_reports,
)
from .positivity import (
    NOT_APPLICABLE,  # re-exported: interval verdicts carry this status
    SamplerConfig,
    check_map_class,
    extended_superoperator,
)
from .bounds import CLASSES, AuditReport, audit_rates


@dataclass(frozen=True, eq=False)  # array fields: identity equality and hash
class TimeDependentSpec:
    """L(t) = sum_k c_k(t) G_k on [t_start, t_end]: the generator matrices G_k
    as one (K, d^2, d^2) array, built once, and the coefficients as a map from
    a (T,) array of times to a real (T, K) array."""

    generators: np.ndarray
    coefficients: object  # (T,) times -> (T, K) real array
    t_start: float
    t_end: float

    @property
    def d(self) -> int:
        return round(self.generators.shape[-1] ** 0.5)

    def matrices(self, times) -> np.ndarray:
        """The (T, d^2, d^2) stack of L(t) over a (T,) array of times."""
        times = np.asarray(times, dtype=float)
        outside = times[~((self.t_start <= times) & (times <= self.t_end))]
        if outside.size:
            raise ValueError(f"t={outside[0]} outside domain [{self.t_start}, {self.t_end}]")
        return np.tensordot(self.coefficients(times), self.generators, axes=1)

    def at(self, t: float) -> Superoperator:
        return Superoperator(d=self.d, matrix=self.matrices([t])[0])


@dataclass(frozen=True)
class PropagatorGrid:
    times: tuple
    propagators: tuple  # interval maps Lambda_{t_{i+1}, t_i}
    cumulative: tuple  # Lambda_{t_i, t_0}, cumulative[0] = identity


def builtin_tanh_example(mu: float) -> TimeDependentSpec:
    """Qubit spec with sigma+- at unit rate and sigma_z at rate -mu tanh(t):
    G = [L_{sigma+-}, D_{sigma_z}] with c(t) = [1, -mu tanh t], both built in
    one `gkls_matrices` call (the sigma_z spec padded with a zero jump at rate 0)."""
    ops = np.array([[SIGMA_PLUS, SIGMA_MINUS], [SIGMA_Z, np.zeros((2, 2))]], dtype=complex)
    generators = gkls_matrices(np.zeros((2, 2, 2), dtype=complex), ops, np.array([[1.0, 1.0], [1.0, 0.0]]))
    return TimeDependentSpec(
        generators, lambda t: np.stack([np.ones_like(t), -mu * np.tanh(t)], axis=-1),
        t_start=0.0, t_end=np.inf)


def piecewise_spec(times, specs) -> TimeDependentSpec:
    """Left-constant interpolation of a list of static specs: piece k holds on
    [times[k], times[k+1]), its coefficient row is the k-th unit vector."""
    times = [float(t) for t in times]
    if len(times) != len(specs) or not times:
        raise ValueError("times and specs must have equal nonzero length")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("times must be strictly increasing")
    if len({spec.d for spec in specs}) > 1:
        raise ValueError("piecewise specs must share one dimension d")
    generators = np.array([build_superoperator(spec).matrix for spec in specs])
    unit = np.eye(len(specs))
    return TimeDependentSpec(
        generators, lambda t: unit[np.searchsorted(times, t, side="right") - 1],
        t_start=times[0], t_end=np.inf)


def propagator(
    spec: TimeDependentSpec, s: float, t: float, steps: int = 200
) -> Superoperator:
    """Lambda_{t,s} as a product of step exponentials exp(h L(midpoint)).

    Second-order in the step size; each factor is an exact semigroup element of
    the frozen midpoint generator, so intervals with nonnegative rates yield
    CPTP factors by construction.  All midpoint generators come from one
    `matrices` call and all factors from one stacked `expm`; a stack with no
    nonzero imaginary entry is exponentiated and multiplied in real arithmetic.
    """
    if t < s:
        raise ValueError("t must be >= s")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    d = spec.d
    m = np.eye(d * d)
    if t != s:
        h = (t - s) / steps
        mids = s + (np.arange(steps) + 0.5) * h
        gens = spec.matrices(mids)
        x = h * (gens if gens.imag.any() else gens.real)
        m = m.astype(x.dtype)
        for factor in expm(x):
            m = np.dot(factor, m)
    return Superoperator(d=d, matrix=m, picture=SCHROEDINGER)


def _interval_maps(spec: TimeDependentSpec, times, steps: int):
    """(times, [Lambda_{t_{i+1}, t_i}]) of a strictly increasing grid of >= 2 times."""
    times = [float(t) for t in times]
    if len(times) < 2 or any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("a grid needs at least two strictly increasing times")
    return times, [propagator(spec, a, b, steps) for a, b in zip(times, times[1:])]


def build_grid(
    spec: TimeDependentSpec, times, steps_per_interval: int = 200
) -> PropagatorGrid:
    times, props = _interval_maps(spec, times, steps_per_interval)
    cums = [Superoperator(d=spec.d, matrix=np.eye(spec.d**2, dtype=complex))]
    for p in props:
        cums.append(Superoperator(d=spec.d, matrix=p.matrix @ cums[-1].matrix))
    return PropagatorGrid(times=tuple(times), propagators=tuple(props), cumulative=tuple(cums))


def divisibility_audit(
    spec: TimeDependentSpec,
    grid_times,
    div_class: str,
    cfg: SamplerConfig = SamplerConfig(),
    steps_per_interval: int = 200,
    tol: ToleranceConfig = DEFAULT_TOL,
):
    """Per-interval verdicts for a divisibility class of `bounds.CLASSES`:
    each interval propagator is tested with `check_map_class` ('schwarz' on
    its Heisenberg adjoint, `not_applicable` when that is not unital).

    Returns (list of ((t_i, t_{i+1}), verdict), index of first violating
    interval or None).  Per-interval sampler seeds derive from (cfg.seed,
    interval index) so results are order-independent.
    """
    if div_class not in CLASSES:
        raise ValueError(f"unknown divisibility class {div_class!r}")
    times, props = _interval_maps(spec, grid_times, steps_per_interval)
    results = []
    first_violation = None
    for i, p in enumerate(props):
        icfg = replace(cfg, seed=int(np.random.SeedSequence([cfg.seed, i]).generate_state(1)[0]))
        verdict = check_map_class(p, div_class, icfg, tol)
        results.append(((times[i], times[i + 1]), verdict))
        if first_violation is None and verdict.violated:
            first_violation = i
    return results, first_violation


def time_local_bound_audit(
    spec: TimeDependentSpec,
    grid_times,
    audit_class: str,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> list[AuditReport]:
    """Rate audits of L(t) at each grid time, from one stacked `rate_reports`."""
    reports = rate_reports(spec.matrices(grid_times), tol)
    return [audit_rates(r, audit_class, spec.d) for r in reports]


def _random_block_hermitian(rng, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.5 * (a + a.conj().T)
    return h / np.linalg.norm(h)


def _random_projector_difference(rng, n: int) -> np.ndarray:
    u = rng.normal(size=n) + 1j * rng.normal(size=n)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    u /= np.linalg.norm(u)
    v -= (u.conj() @ v) * u
    v /= np.linalg.norm(v)
    return np.outer(u, u.conj()) - np.outer(v, v.conj())


def trace_norm_monotonicity_check(
    spec: TimeDependentSpec,
    k: int,
    grid_times,
    n_probe_operators: int = 50,
    steps_per_interval: int = 200,
):
    """Scan ||(id_k (x) Lambda_{t,0})(X)||_1 along the grid for increases.

    The probe set mixes Gaussian Hermitian blocks, rank-two projector
    differences, and inverse-propagated maximally entangled projectors
    (id_k (x) Lambda_{t_i,0}^{-1})(P+).  The latter are adversarial: whenever
    the interval propagator after t_i is non-CP they turn its Choi negativity
    directly into a trace-norm increase, which random probes almost never hit.
    The random probes are drawn from the fixed seed SeedSequence([0, 0x7E]).
    Returns (increase_found, witness) with witness = (X, interval, delta) for
    the largest recorded increase.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    grid = build_grid(spec, grid_times, steps_per_interval)
    d = spec.d
    n = k * d

    def trace_norms(xs):
        xs = np.stack(xs)
        herm = 0.5 * (xs + xs.conj().swapaxes(1, 2))
        return np.sum(np.abs(np.linalg.eigvalsh(herm)), axis=-1)

    def extended_images(sup: Superoperator, xs) -> list:
        """(id_k (x) sup)(X) for each n x n operator X in xs, by one product."""
        ys = extended_superoperator(sup, k) @ np.column_stack([vectorize(x) for x in xs])
        return [devectorize(y, n) for y in ys.T]

    # Maximally entangled projector across the k:d split (rank one, trace one).
    psi = np.eye(k, d).reshape(-1) / np.sqrt(min(k, d))
    p_ent = np.outer(psi, psi)

    probes = []
    if k > 1:
        for cum in grid.cumulative[:-1][:n_probe_operators]:
            inv = Superoperator(d=d, matrix=np.linalg.inv(cum.matrix))
            x = extended_images(inv, [p_ent])[0]
            probes.append(0.5 * (x + x.conj().T))

    rng = np.random.default_rng(np.random.SeedSequence([0, 0x7E]))
    while len(probes) < n_probe_operators:
        if len(probes) % 2 == 0:
            probes.append(_random_projector_difference(rng, n))
        else:
            probes.append(_random_block_hermitian(rng, n))

    # norms[i, p]: trace norm of probe p after the cumulative map to t_i
    norms = np.array([trace_norms(probes)] + [
        trace_norms(extended_images(cum, probes)) for cum in grid.cumulative[1:]
    ])
    deltas = np.diff(norms, axis=0)
    mask = deltas > 1e-7 * norms[0]
    if not mask.any():
        return False, None
    # the first largest increase in probe-major order
    increases = np.where(mask, deltas, -np.inf).T
    p, i = np.unravel_index(np.argmax(increases), increases.shape)
    return True, (probes[p], (grid.times[i], grid.times[i + 1]), float(deltas[i, p]))
