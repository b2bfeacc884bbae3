import numpy as np
import pytest
import scipy.linalg

from conftest import ccp_spec
from rateaudit.generator import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    GeneratorSpec,
    Superoperator,
    build_superoperator,
    relaxation_rates,
)
from rateaudit.bounds import CLASSES, audit_rates
from rateaudit.matcore import DEFAULT_TOL, devectorize, expm, vectorize
from rateaudit.positivity import NO_VIOLATION_FOUND, SamplerConfig, check_map_class, extended_superoperator
from rateaudit.timedep import (
    NOT_APPLICABLE,
    PropagatorGrid,
    TimeDependentSpec,
    _random_block_hermitian,
    _random_projector_difference,
    build_grid,
    builtin_tanh_example,
    divisibility_audit,
    piecewise_spec,
    propagator,
    time_local_bound_audit,
    trace_norm_monotonicity_check,
)

FAST = SamplerConfig(n_restarts=12, refine_steps=60)


def constant_td(seed=0, d=2):
    spec = ccp_spec(seed, d)
    return (
        TimeDependentSpec(build_superoperator(spec).matrix[None],
                          lambda t: np.ones((t.size, 1)), t_start=0.0, t_end=10.0),
        spec,
    )


def modulated_td(seed=0, d=2):
    # the rates scaled by 1 + sin(t)/2: an H-only term and a jumps-only term
    base = ccp_spec(seed, d)
    h_only = GeneratorSpec(hamiltonian=base.hamiltonian, jumps=())
    jumps_only = GeneratorSpec(hamiltonian=np.zeros((d, d)), jumps=base.jumps)
    generators = np.array([build_superoperator(s).matrix for s in (h_only, jumps_only)])

    def coefficients(t):
        return np.stack([np.ones_like(t), 1.0 + 0.5 * np.sin(t)], axis=-1)

    return TimeDependentSpec(generators, coefficients, t_start=0.0, t_end=10.0)


def test_spec_domain_checks():
    td, _ = constant_td()
    with pytest.raises(ValueError):
        td.at(-0.5)
    with pytest.raises(ValueError):
        td.at(11.0)
    td.at(3.0)


def test_builtin_tanh_rates():
    mu = 0.25
    td = builtin_tanh_example(mu)
    for t in (0.0, 0.4, 1.3, 3.0):
        explicit = GeneratorSpec(
            hamiltonian=np.zeros((2, 2)),
            jumps=((SIGMA_PLUS, 1.0), (SIGMA_MINUS, 1.0), (SIGMA_Z, -mu * np.tanh(t))),
        )
        assert np.abs(td.at(t).matrix - build_superoperator(explicit).matrix).max() <= 1e-12
    rr = relaxation_rates(td.at(0.0))
    assert np.allclose(sorted(rr.rates), [1.0, 1.0, 2.0], atol=1e-10)


def test_time_local_rates_formulas():
    mu = 0.25
    td = builtin_tanh_example(mu)
    for t in np.linspace(0.0, 3.0, 7):
        rr = relaxation_rates(td.at(t))
        rates = sorted(rr.rates, reverse=True)
        gamma_t = 1.0 - 2.0 * mu * np.tanh(t)
        assert rates[0] == pytest.approx(2.0, abs=1e-9)
        assert rates[1] == pytest.approx(gamma_t, abs=1e-9)
        # transversal pair doubly degenerate
        assert abs(rates[1] - rates[2]) < 1e-10


def test_piecewise_spec():
    s0 = ccp_spec(0, 2)
    s1 = ccp_spec(1, 2)
    td = piecewise_spec([0.0, 1.0], [s0, s1])
    assert td.at(0.5).matrix.tobytes() == build_superoperator(s0).matrix.tobytes()
    assert td.at(1.5).matrix.tobytes() == build_superoperator(s1).matrix.tobytes()
    with pytest.raises(ValueError):
        piecewise_spec([1.0, 0.5], [s0, s1])


def test_propagator_constant_matches_exponential():
    td, spec = constant_td(3)
    sup = build_superoperator(spec)
    lam = propagator(td, 0.0, 1.3, 200)
    assert np.linalg.norm(lam.matrix - scipy.linalg.expm(1.3 * sup.matrix)) < 1e-8


def test_propagator_identity_and_errors():
    td, _ = constant_td()
    assert np.allclose(propagator(td, 0.7, 0.7, 10).matrix, np.eye(4))
    with pytest.raises(ValueError):
        propagator(td, 1.0, 0.5, 10)
    with pytest.raises(ValueError):
        propagator(td, 0.0, 1.0, 0)


def test_propagator_composition():
    td = builtin_tanh_example(0.25)
    full = propagator(td, 0.0, 1.0, 200)
    left = propagator(td, 0.0, 0.5, 100)
    right = propagator(td, 0.5, 1.0, 100)
    assert np.linalg.norm(full.matrix - right.matrix @ left.matrix) < 1e-7


def test_integrator_second_order():
    # exact on constant generators ...
    td, spec = constant_td(5)
    sup = build_superoperator(spec)
    exact = scipy.linalg.expm(1.0 * sup.matrix)
    assert np.linalg.norm(propagator(td, 0.0, 1.0, 8).matrix - exact) < 1e-12
    # ... and second order (ratio ~ 4 under step halving) on varying rates
    td = modulated_td(5)
    ref = propagator(td, 0.0, 1.0, 2048).matrix
    e1 = np.linalg.norm(propagator(td, 0.0, 1.0, 16).matrix - ref)
    e2 = np.linalg.norm(propagator(td, 0.0, 1.0, 32).matrix - ref)
    assert 3.5 <= e1 / e2 <= 4.5


def test_grid_invariants():
    td = builtin_tanh_example(0.25)
    grid = build_grid(td, np.linspace(0.0, 2.0, 9), steps_per_interval=40)
    assert isinstance(grid, PropagatorGrid)
    assert np.allclose(grid.cumulative[0].matrix, np.eye(4))
    vec_i = np.eye(2, dtype=complex).reshape(-1, order="F")
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    for i, p in enumerate(grid.propagators):
        # composition law exact by construction
        assert np.allclose(
            grid.cumulative[i + 1].matrix, p.matrix @ grid.cumulative[i].matrix
        )
    for cum in grid.cumulative:
        assert np.linalg.norm(vec_i.conj() @ cum.matrix - vec_i.conj()) < 1e-6
        assert np.linalg.norm(cum.apply(x.conj().T) - cum.apply(x).conj().T) < 1e-8


def test_divisibility_constant_ccp():
    td, _ = constant_td(7)
    results, first = divisibility_audit(
        td, np.linspace(0.0, 1.0, 5), "cp", FAST, steps_per_interval=40
    )
    assert first is None
    assert all(v.status == "certified_pass" for _, v in results)


def test_divisibility_tanh_cp_fails_after_zero():
    td = builtin_tanh_example(0.25)
    results, first = divisibility_audit(
        td, np.linspace(0.0, 1.0, 5), "cp", FAST, steps_per_interval=60
    )
    # the map from t=0 is CPTP, so the first interval passes; all later fail
    assert not results[0][1].violated
    assert first == 1
    assert all(v.violated for _, v in results[1:])


def test_divisibility_tanh_schwarz_clean():
    td = builtin_tanh_example(0.25)
    results, first = divisibility_audit(
        td, np.linspace(0.0, 1.0, 3), "schwarz", FAST, steps_per_interval=60
    )
    assert first is None
    assert all(v.status == NO_VIOLATION_FOUND for _, v in results)


def test_divisibility_schwarz_amplitude_damping():
    # trace-preserving propagators have unital adjoints, so the Schwarz
    # audit applies even though the Schroedinger maps are not unital
    sigma_minus = np.array([[0, 0], [1, 0]], dtype=complex)
    damp = GeneratorSpec(hamiltonian=np.zeros((2, 2)), jumps=((sigma_minus, 1.0),))
    td = TimeDependentSpec(build_superoperator(damp).matrix[None],
                           lambda t: np.ones((t.size, 1)), t_start=0.0, t_end=5.0)
    results, first = divisibility_audit(
        td, [0.0, 0.5, 1.0], "schwarz", FAST, steps_per_interval=20
    )
    assert first is None
    assert all(v.status == NO_VIOLATION_FOUND for _, v in results)


def test_interval_verdict_schwarz_not_applicable():
    # maps that fail to preserve the trace have non-unital adjoints and the
    # Schwarz verdict is marked inapplicable rather than evaluated
    for factor in (2.0, 1.0 + 1e-7):
        scaled = Superoperator(d=2, matrix=factor * np.eye(4, dtype=complex))
        verdict = check_map_class(scaled, "schwarz", FAST, DEFAULT_TOL)
        assert verdict.status == NOT_APPLICABLE


def test_schwarz_interval_tests_unitality_once(monkeypatch):
    from rateaudit import positivity, timedep

    real = positivity.non_unital
    calls = []

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(positivity, "non_unital", counted)
    monkeypatch.setattr(timedep, "non_unital", counted, raising=False)
    td, _ = constant_td()
    results, _ = divisibility_audit(td, [0.0, 0.5], "schwarz", FAST, steps_per_interval=5)
    assert len(results) == 1 and results[0][1].status != NOT_APPLICABLE
    assert len(calls) == 1


def test_divisibility_unknown_class():
    td, _ = constant_td()
    with pytest.raises(ValueError):
        divisibility_audit(td, [0.0, 1.0], "bogus", FAST)


def test_time_local_bound_audit():
    td = builtin_tanh_example(0.25)
    times = np.linspace(0.1, 3.0, 10)
    schwarz = time_local_bound_audit(td, times, "schwarz")
    assert all(a.satisfied for a in schwarz)
    two_p = time_local_bound_audit(td, times, "2p")
    assert all(not a.satisfied for a in two_p)  # violated for all t > 0
    mu0 = time_local_bound_audit(builtin_tanh_example(0.0), times, "2p")
    assert all(a.satisfied for a in mu0)


def test_trace_norm_monotone_constant_ccp():
    td, _ = constant_td(9)
    found, _ = trace_norm_monotonicity_check(
        td, 2, np.linspace(0.0, 1.0, 6), n_probe_operators=10, steps_per_interval=30
    )
    assert not found


def test_trace_norm_increase_found_tanh():
    td = builtin_tanh_example(0.25)
    grid = np.linspace(0.0, 3.0, 31)
    found, witness = trace_norm_monotonicity_check(
        td, 2, grid, n_probe_operators=40, steps_per_interval=60
    )
    assert found
    x, interval, delta = witness
    assert delta > 1e-7
    # k = 1: propagators stay positive, trace norm is monotone
    found1, _ = trace_norm_monotonicity_check(
        td, 1, grid, n_probe_operators=20, steps_per_interval=60
    )
    assert not found1


def loop_trace_norm_check(spec, k, grid_times, n_probe_operators, steps_per_interval):
    """Reference scan: the same probes and norms, and the witness picked by a
    double loop over probes and intervals (strict >, so the first largest
    increase in probe-major order wins)."""
    grid = build_grid(spec, grid_times, steps_per_interval)
    d, n = spec.d, k * spec.d

    def images(sup, xs):
        ys = extended_superoperator(sup, k) @ np.column_stack([vectorize(x) for x in xs])
        return [devectorize(y, n) for y in ys.T]

    def trace_norms(xs):
        return [np.sum(np.abs(np.linalg.eigvalsh(0.5 * (x + x.conj().T)))) for x in xs]

    psi = np.eye(k, d).reshape(-1) / np.sqrt(min(k, d))
    probes = []
    if k > 1:
        for cum in grid.cumulative[:-1][:n_probe_operators]:
            x = images(Superoperator(d=d, matrix=np.linalg.inv(cum.matrix)),
                       [np.outer(psi, psi)])[0]
            probes.append(0.5 * (x + x.conj().T))
    rng = np.random.default_rng(np.random.SeedSequence([0, 0x7E]))
    while len(probes) < n_probe_operators:
        if len(probes) % 2 == 0:
            probes.append(_random_projector_difference(rng, n))
        else:
            probes.append(_random_block_hermitian(rng, n))
    norms = np.array([trace_norms(probes)] + [
        trace_norms(images(cum, probes)) for cum in grid.cumulative[1:]
    ])
    best = None
    found = False
    for p, x in enumerate(probes):
        for i, delta in enumerate(np.diff(norms[:, p])):
            if delta > 1e-7 * norms[0, p]:
                found = True
                if best is None or delta > best[2]:
                    best = (x, (grid.times[i], grid.times[i + 1]), float(delta))
    return found, best


@pytest.mark.parametrize("mu", [0.25, 0.6])
@pytest.mark.parametrize("k", [1, 2])
def test_trace_norm_witness_matches_loop(mu, k):
    td = builtin_tanh_example(mu)
    grid = np.linspace(0.0, 3.0, 16)
    found, witness = trace_norm_monotonicity_check(
        td, k, grid, n_probe_operators=24, steps_per_interval=30
    )
    want_found, want = loop_trace_norm_check(td, k, grid, 24, 30)
    assert found == want_found
    if want is None:
        assert witness is None
    else:
        x, interval, delta = witness
        assert x.tobytes() == want[0].tobytes()
        assert interval == want[1] and delta == want[2]


def test_tanh_mu_zero_is_constant():
    td = builtin_tanh_example(0.0)
    s0 = td.at(0.0)
    s1 = td.at(2.0)
    assert np.allclose(s0.matrix, s1.matrix)


@pytest.mark.parametrize("mu", [0.0, 0.25, 0.6])
def test_tanh_generators_equal_two_spec_builds(mu):
    zero = np.zeros((2, 2), dtype=complex)
    want = np.array([
        build_superoperator(GeneratorSpec(zero, ((SIGMA_PLUS, 1.0), (SIGMA_MINUS, 1.0)))).matrix,
        build_superoperator(GeneratorSpec(zero, ((SIGMA_Z, 1.0),))).matrix,
    ])
    assert builtin_tanh_example(mu).generators.tobytes() == want.tobytes()


def per_step_propagator(spec_at, d, s, t, steps):
    """Reference product: build each midpoint spec, take its expm, multiply."""
    h = (t - s) / steps
    m = np.eye(d * d, dtype=complex)
    for i in range(steps):
        gen = build_superoperator(spec_at(s + (i + 0.5) * h))
        m = expm(h * gen.matrix) @ m
    return m


@pytest.mark.parametrize("mu", [0.0, 0.25, 0.6])
def test_tanh_propagator_matches_per_step_loop(mu):
    def spec_at(t):
        return GeneratorSpec(
            hamiltonian=np.zeros((2, 2)),
            jumps=((SIGMA_PLUS, 1.0), (SIGMA_MINUS, 1.0), (SIGMA_Z, -mu * np.tanh(t))),
        )

    td = builtin_tanh_example(mu)
    for s, t, steps in ((0.0, 1.0, 200), (0.3, 2.1, 60), (1.7, 1.9, 25)):
        ref = per_step_propagator(spec_at, 2, s, t, steps)
        lam = propagator(td, s, t, steps).matrix
        assert np.linalg.norm(lam - ref) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("mu", [0.0, 0.6])
def test_real_tanh_propagator_product_matches_matmul_loop(mu):
    # the tanh stack is real: its factors are multiplied in real arithmetic,
    # by np.dot in `propagator` and by @ here, bit for bit the same
    td = builtin_tanh_example(mu)
    for s, t, steps in ((0.0, 1.0, 200), (0.3, 2.1, 60), (1.7, 1.9, 25)):
        h = (t - s) / steps
        gens = td.matrices(s + (np.arange(steps) + 0.5) * h)
        assert not gens.imag.any()
        m = np.eye(4)
        for factor in expm(h * gens.real):
            m = factor @ m
        assert propagator(td, s, t, steps).matrix.tobytes() == m.astype(complex).tobytes()


@pytest.mark.parametrize("d", [2, 3])
def test_piecewise_propagator_matches_per_step_loop(d):
    times = [0.0, 0.45, 1.1]
    specs = [ccp_spec(10 + i, d) for i in range(3)]

    def spec_at(t):
        return specs[max(i for i, ti in enumerate(times) if t >= ti)]

    td = piecewise_spec(times, specs)
    for s, t, steps in ((0.0, 2.0, 100), (0.2, 1.7, 37), (0.5, 1.0, 9)):
        ref = per_step_propagator(spec_at, d, s, t, steps)
        assert propagator(td, s, t, steps).matrix.tobytes() == ref.tobytes()


def test_real_piecewise_propagator_takes_the_real_path(monkeypatch):
    # H = c sigma_y is purely imaginary, so -iH and, with real jumps, L are real;
    # a real H such as sigma_x makes L complex
    from rateaudit import timedep

    specs = [GeneratorSpec(0.3 * SIGMA_Y, ((SIGMA_MINUS, 1.0), (SIGMA_Z, 0.4))),
             GeneratorSpec(-0.7 * SIGMA_Y, ((SIGMA_X, 0.5), (SIGMA_PLUS, -0.2))),
             GeneratorSpec(0.5 * SIGMA_X, ((SIGMA_MINUS, 1.0),))]
    times = [0.0, 0.6, 1.5]

    def spec_at(t):
        return specs[max(i for i, ti in enumerate(times) if t >= ti)]

    dtypes = []
    monkeypatch.setattr(timedep, "expm", lambda x: dtypes.append(x.dtype) or expm(x))
    td = piecewise_spec(times, specs)
    for s, t, steps, dtype in ((0.0, 1.4, 100, float), (0.2, 1.1, 37, float), (1.0, 2.0, 20, complex)):
        ref = per_step_propagator(spec_at, 2, s, t, steps)
        lam = propagator(td, s, t, steps)
        assert dtypes.pop() == dtype and lam.matrix.dtype == complex
        assert np.linalg.norm(lam.matrix - ref) <= 1e-14 * np.linalg.norm(ref)


def test_time_local_bound_audit_matches_per_time_loop():
    for td in (builtin_tanh_example(0.25), constant_td(4, 3)[0]):
        times = np.linspace(0.0, 3.0, 13)
        for cls in CLASSES:
            expected = [audit_rates(relaxation_rates(td.at(t)), cls, td.d) for t in times]
            assert time_local_bound_audit(td, times, cls) == expected


def test_matrices_rejects_any_time_outside_domain():
    td, spec = constant_td()
    stack = td.matrices(np.array([0.0, 4.0, 10.0]))
    assert stack.shape == (3, 4, 4)
    assert np.array_equal(stack[1], build_superoperator(spec).matrix)
    for times in ([0.5, -0.5], [3.0, 11.0], [1.0, np.nan, 2.0]):
        with pytest.raises(ValueError):
            td.matrices(np.array(times))


@pytest.mark.parametrize("times", [[], [0.5]])
def test_grid_needs_two_times(times):
    td = builtin_tanh_example(0.25)
    with pytest.raises(ValueError, match="at least two"):
        build_grid(td, times)
    with pytest.raises(ValueError, match="at least two"):
        divisibility_audit(td, times, "cp", FAST, steps_per_interval=10)
    with pytest.raises(ValueError, match="at least two"):
        trace_norm_monotonicity_check(td, 2, times, steps_per_interval=10)
