import numpy as np
import pytest
import scipy.linalg

from conftest import ccp_spec
from rateaudit import matcore
from rateaudit.generator import (
    SIGMA_MINUS,
    GeneratorSpec,
    Superoperator,
    adjoint_superoperator,
    build_superoperator,
    pauli_spec,
    regularize_faithful,
    stationary_states,
)
from rateaudit.kms import WeightedInnerProduct, kms_adjoint
from rateaudit.matcore import DEFAULT_TOL, vectorize
from rateaudit.positivity import (
    CERTIFIED_FAIL,
    CERTIFIED_PASS,
    NO_VIOLATION_FOUND,
    NOT_APPLICABLE,
    VIOLATION_FOUND,
    PositivityVerdict,
    SamplerConfig,
    _alternating_min,
    _defect_kernel,
    _defect_problem,
    _k_positivity_kernel,
    _k_positivity_problem,
    _lowest,
    _matrix_unit_starts,
    _vec,
    _verdict,
    check_ccp,
    check_conditional_k_positivity,
    check_dissipativity,
    check_map_class,
    dissipativity_defect,
    extended_superoperator,
    non_unital,
    qubit_pauli_classify,
    replay_conditional_k_positivity,
    schwarz_defect,
)

FAST = SamplerConfig(n_restarts=16, refine_steps=80)


def map_from_action(d, action, picture="schroedinger"):
    m = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            m[:, j * d + i] = vectorize(action(e))
    return Superoperator(d=d, matrix=m, picture=picture)


def test_extended_superoperator_matches_blockwise_apply():
    # oracle: id_k (x) Phi acts as Phi on each d x d block of a (k d) x (k d) operator
    rng = np.random.default_rng(41)
    for d in (2, 3):
        m = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        sup = Superoperator(d=d, matrix=m)
        for k in (1, 2, 3):
            n = k * d
            x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            expected = np.zeros((n, n), dtype=complex)
            for i in range(k):
                for j in range(k):
                    blk = (slice(i * d, (i + 1) * d), slice(j * d, (j + 1) * d))
                    expected[blk] = sup.apply(x[blk])
            got = extended_superoperator(sup, k) @ vectorize(x)
            assert np.allclose(got, vectorize(expected), rtol=0, atol=1e-12), (d, k)


def test_check_ccp_certified_pass_for_ccp_specs():
    for seed in range(5):
        verdict = check_ccp(build_superoperator(ccp_spec(seed, 2 + seed % 2)))
        assert verdict.status == CERTIFIED_PASS


def test_check_ccp_pauli_counterexample():
    verdict = check_ccp(build_superoperator(pauli_spec(1.0, 1.0, -1.0)))
    assert verdict.status == CERTIFIED_FAIL
    assert verdict.margin < -1e-6
    assert verdict.witness is not None


def test_check_ccp_pure_hamiltonian():
    h = np.array([[0.5, 0.2], [0.2, -0.5]])
    verdict = check_ccp(build_superoperator(GeneratorSpec(hamiltonian=h, jumps=())))
    assert verdict.status == CERTIFIED_PASS
    assert abs(verdict.margin) < 1e-9


def test_conditional_k_positivity_ccp_clean():
    verdict = check_conditional_k_positivity(
        build_superoperator(ccp_spec(1, 2)), 2, FAST
    )
    assert verdict.status == NO_VIOLATION_FOUND
    assert verdict.margin >= -1e-9


def test_conditional_k_positivity_ccp_unit_witness():
    # a passing generator still reports a unit psi _|_ phi and its margin
    for seed, d in ((1, 2), (2, 3)):
        sup = build_superoperator(ccp_spec(seed, d))
        verdict = check_conditional_k_positivity(sup, d, FAST)
        assert verdict.status == NO_VIOLATION_FOUND
        phi, psi = verdict.witness
        assert np.linalg.norm(phi) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        assert abs(phi.conj() @ psi) < 1e-12
        replayed = replay_conditional_k_positivity(sup, d, verdict.witness)
        assert replayed == pytest.approx(verdict.margin, abs=1e-9)


def test_conditional_2_positivity_refutes_pauli():
    sup = build_superoperator(pauli_spec(1.0, 1.0, -1.0))
    verdict = check_conditional_k_positivity(sup, 2, FAST)
    assert verdict.status == VIOLATION_FOUND
    # witness replays to the reported margin
    replayed = replay_conditional_k_positivity(sup, 2, verdict.witness)
    assert replayed == pytest.approx(verdict.margin, abs=1e-10)
    # qubit: 2-positivity coincides with CP
    assert check_ccp(sup).status == CERTIFIED_FAIL


def test_conditional_1_positivity_pauli_clean():
    sup = build_superoperator(pauli_spec(1.0, 1.0, -1.0))
    verdict = check_conditional_k_positivity(sup, 1, FAST)
    assert verdict.status == NO_VIOLATION_FOUND


def test_dissipativity_boundary_schwarz():
    heis = adjoint_superoperator(build_superoperator(pauli_spec(2.0, 2.0, -1.0)))
    verdict = check_dissipativity(heis, FAST)
    assert verdict.status == NO_VIOLATION_FOUND


def test_dissipativity_violation_and_replay():
    heis = adjoint_superoperator(build_superoperator(pauli_spec(1.0, 1.0, -1.0)))
    verdict = check_dissipativity(heis, FAST)
    assert verdict.status == VIOLATION_FOUND
    defect = dissipativity_defect(heis, verdict.witness)
    assert np.linalg.eigvalsh(defect)[0] == pytest.approx(verdict.margin, abs=1e-10)


def test_dissipativity_ccp_clean():
    heis = adjoint_superoperator(build_superoperator(pauli_spec(0.5, 1.2, 0.3)))
    assert check_dissipativity(heis, FAST).status == NO_VIOLATION_FOUND


def test_dissipativity_input_validation():
    sup = build_superoperator(pauli_spec(1, 1, 1))
    with pytest.raises(ValueError):
        check_dissipativity(sup, FAST)  # wrong picture
    # not a generator: L(I) != 0
    scaled = Superoperator(d=2, matrix=2.0 * np.eye(4), picture="heisenberg")
    with pytest.raises(ValueError):
        check_dissipativity(scaled, FAST)


def test_qubit_pauli_classify():
    assert qubit_pauli_classify(1, 1, 1) == "CP"
    assert qubit_pauli_classify(2, 2, -1) == "Schwarz_not_CP"
    assert qubit_pauli_classify(1, 1, -1) == "Positive_not_Schwarz"
    assert qubit_pauli_classify(1, -1, -1) == "Not_positive"
    # two or three negative rates: a pairwise sum is negative, e2 may not be
    assert qubit_pauli_classify(-1, -1, -1) == "Not_positive"
    assert qubit_pauli_classify(0.214, -0.404, -0.728) == "Not_positive"
    # order-insensitive
    assert qubit_pauli_classify(-1, 2, 2) == "Schwarz_not_CP"


def test_samplers_agree_with_pauli_oracle():
    """Boundary-offset Pauli instances: sampled checks match the closed form."""
    rng = np.random.default_rng(42)
    agree = 0
    total = 12
    for _ in range(total):
        g1, g2 = rng.uniform(0.5, 2.0, size=2)
        offset = rng.choice([-0.05, 0.05])
        # sit just off the Schwarz boundary g_mid + 2 g3 = 0 (g3 most negative)
        g_mid = min(g1, g2)
        g3 = -0.5 * g_mid + offset
        label = qubit_pauli_classify(g1, g2, g3)
        heis = adjoint_superoperator(build_superoperator(pauli_spec(g1, g2, g3)))
        verdict = check_dissipativity(heis, SamplerConfig(n_restarts=24, refine_steps=120))
        expected = label in ("Positive_not_Schwarz", "Not_positive")
        agree += verdict.violated == expected
    assert agree >= total - 1


def test_dissipativity_sweep_agrees_with_pauli_oracle():
    """Seeded rate triples from [-1, 2]^3, two-negative ones included."""
    rng = np.random.default_rng(7)
    triples = rng.uniform(-1.0, 2.0, size=(40, 3))
    assert sum(int(np.sum(g < 0) >= 2) for g in triples) >= 5
    for i, g in enumerate(triples):
        label = qubit_pauli_classify(*g)
        heis = adjoint_superoperator(build_superoperator(pauli_spec(*g)))
        verdict = check_dissipativity(heis, SamplerConfig(n_restarts=8, seed=i))
        assert verdict.violated == (label in ("Positive_not_Schwarz", "Not_positive")), g


def test_map_class_identity_and_transposition():
    ident = Superoperator(d=2, matrix=np.eye(4, dtype=complex))
    assert check_map_class(ident, "cp").status == CERTIFIED_PASS

    transpose = map_from_action(2, lambda x: x.T, picture="heisenberg")
    assert (
        check_map_class(Superoperator(d=2, matrix=transpose.matrix), "cp").status
        == CERTIFIED_FAIL
    )
    verdict = check_map_class(transpose, "schwarz", cfg=FAST)
    assert verdict.status == VIOLATION_FOUND
    replayed = np.linalg.eigvalsh(schwarz_defect(transpose, verdict.witness))[0]
    assert replayed == pytest.approx(verdict.margin, abs=1e-10)
    # the canonical witness X = |0><1| gives defect min eig -1
    x = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    defect = transpose.apply(x.conj().T @ x) - transpose.apply(x).conj().T @ transpose.apply(x)
    assert np.linalg.eigvalsh(0.5 * (defect + defect.conj().T))[0] < -0.9


def test_map_class_schwarz_not_2_positive():
    phi = map_from_action(
        2, lambda x: 0.5 * (0.5 * np.eye(2) * np.trace(x) + x.T), picture="heisenberg"
    )
    assert check_map_class(phi, "schwarz", cfg=FAST).status == NO_VIOLATION_FOUND
    assert (
        check_map_class(Superoperator(d=2, matrix=phi.matrix), "cp").status
        == CERTIFIED_FAIL
    )


def test_map_class_semigroup_hierarchy():
    sup = build_superoperator(ccp_spec(3, 2))
    for t in (0.1, 1.0, 10.0):
        m = Superoperator(d=2, matrix=scipy.linalg.expm(t * sup.matrix))
        assert check_map_class(m, "cp").status == CERTIFIED_PASS
        assert (
            check_map_class(m, "positive", cfg=FAST).status
            == NO_VIOLATION_FOUND
        )
        heis = adjoint_superoperator(m)
        eye = np.eye(2, dtype=complex)
        if np.linalg.norm(heis.apply(eye) - eye) < 1e-8:
            assert check_map_class(heis, "schwarz", cfg=FAST).status == NO_VIOLATION_FOUND


def test_map_class_unknown():
    with pytest.raises(ValueError):
        check_map_class(Superoperator(d=2, matrix=np.eye(4, dtype=complex)), "bogus")


def test_map_class_schwarz_not_applicable_to_non_unital_map():
    doubled = Superoperator(d=2, matrix=2.0 * np.eye(4, dtype=complex))
    verdict = check_map_class(doubled, "schwarz", cfg=FAST)
    assert verdict.status == NOT_APPLICABLE
    assert np.isnan(verdict.margin) and not verdict.violated


def test_map_class_schwarz_takes_the_heisenberg_form():
    # the CPTP amplitude-damping channel e^L, tagged Schroedinger, is tested on
    # its unital adjoint, exactly as that adjoint is when passed itself
    gen = build_superoperator(GeneratorSpec(hamiltonian=np.zeros((2, 2)), jumps=((SIGMA_MINUS, 1.0),)))
    ch = Superoperator(d=2, matrix=scipy.linalg.expm(gen.matrix))
    heis = adjoint_superoperator(ch)
    got, want = check_map_class(ch, "schwarz", FAST), check_map_class(heis, "schwarz", FAST)
    assert want.status == NO_VIOLATION_FOUND
    assert got.status == want.status and got.margin == want.margin
    assert got.witness.tobytes() == want.witness.tobytes()
    for cls in ("cp", "2p", "positive"):
        assert check_map_class(ch, cls, FAST).status == check_map_class(heis, cls, FAST).status


def test_passing_residual_tests_take_no_spectral_norm(monkeypatch):
    # a residual within rel never needs ||m||_2, so no SVD runs for it
    sup = regularize_faithful(build_superoperator(ccp_spec(5, 3)), 0.05)
    heis = adjoint_superoperator(sup)
    w = WeightedInnerProduct(stationary_states(sup)[1])
    channel = adjoint_superoperator(Superoperator(d=3, matrix=scipy.linalg.expm(sup.matrix)))
    x = np.arange(9.0).reshape(3, 3) + 1j

    def no_norm(*args, **kwargs):
        raise AssertionError("spectral norm taken")

    monkeypatch.setattr(Superoperator, "norm", no_norm)
    monkeypatch.setattr(matcore, "spectral_norm", no_norm)
    assert kms_adjoint(heis, w).picture == "heisenberg"
    assert dissipativity_defect(heis, x).shape == (3, 3)
    assert not non_unital(channel)


def _matrix_unit_loop(d):
    # the double loop that `_matrix_unit_starts` replaced, kept as its reference
    starts = []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            starts.append(e)
    return starts


def test_matrix_unit_starts_match_loop():
    for d in (1, 2, 3, 5):
        new, old = _matrix_unit_starts(d), _matrix_unit_loop(d)
        assert len(new) == len(old) == d * d
        for a, b in zip(new, old):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert _vec(a).tobytes() == _vec(b).tobytes()


def test_ccp_implies_conditional_k_positive():
    for seed in range(6):
        d = 2 + seed % 2
        sup = build_superoperator(ccp_spec(seed + 100, d))
        assert check_ccp(sup).status == CERTIFIED_PASS
        for k in (1, 2):
            assert (
                check_conditional_k_positivity(sup, k, FAST).status
                != VIOLATION_FOUND
            )


def test_verdict_semantics():
    v = PositivityVerdict(status=VIOLATION_FOUND, margin=-0.5)
    assert v.violated
    assert not PositivityVerdict(status=NO_VIOLATION_FOUND, margin=0.1).violated
    with pytest.raises(ValueError):
        SamplerConfig(n_restarts=0)


@pytest.mark.parametrize("samples, statuses", [
    (0, (CERTIFIED_PASS, CERTIFIED_FAIL)),
    (SamplerConfig().n_restarts, (NO_VIOLATION_FOUND, VIOLATION_FOUND)),
])
@pytest.mark.parametrize("scale", [1.0, 37.5])
def test_status_rule(samples, statuses, scale):
    """A margin exactly on -psd_tol * scale passes; the next float below fails."""
    edge = -DEFAULT_TOL.psd_tol * scale
    passed = _verdict(edge, scale, "w", DEFAULT_TOL, samples)
    failed = _verdict(np.nextafter(edge, -np.inf), scale, "w", DEFAULT_TOL, samples)
    assert (passed.status, failed.status) == statuses
    assert not passed.violated and failed.violated
    assert passed.samples_used == failed.samples_used == samples
    assert passed.margin == edge and passed.witness == "w"


# --- the stacked alternating engine against the per-restart loop it replaced


def _lowest_reference(h, against=None):
    # the per-vector solve of the stacked `_lowest`: the rank-one deflation
    # h - (x + x^dag) = P h P + lift |a><a|, with the engine's arithmetic order
    if against is not None:
        u = h @ against
        c = (against.conj() * u).sum().real
        lift = 2.0 * max(1.0, np.abs(h).sum())
        x = np.outer(against, (u - 0.5 * (c + lift) * against).conj())
        h = h - (x + x.conj().T)
    vals, vecs = np.linalg.eigh(h)
    return float(vals[0]), vecs[:, 0]


def _alternating_min_reference(f_of_a, g_of_b, starts, cfg, scale, orthogonal=False):
    """The per-restart loop that `_alternating_min` replaced, on the same
    forms called with one-row stacks: ((value, index, a, b), rounds)."""
    def solve(h, fixed):
        return _lowest_reference(h, fixed if orthogonal else None)

    best, rounds = None, []
    for i, a in enumerate(starts):
        a = a / np.linalg.norm(a)
        val, b = solve(f_of_a(a[None])[0], a)
        for step in range(1, cfg.refine_steps + 1):
            _, a = solve(g_of_b(b[None])[0], b)
            cur, b = solve(f_of_a(a[None])[0], a)
            converged = val - cur < 1e-14 * scale
            val = cur
            if converged:
                break
        rounds.append(step)
        if best is None or val < best[0]:
            best = (val, i, a, b)
    return best, rounds


def _assert_engine_matches_loop(f_of_a, g_of_b, starts, cfg, scale, orthogonal=False):
    got = _alternating_min(f_of_a, g_of_b, starts, cfg, scale, orthogonal)
    (value, index, a, b), rounds = _alternating_min_reference(
        f_of_a, g_of_b, starts, cfg, scale, orthogonal)
    assert abs(got.value - value) <= 1e-12 * max(1.0, abs(value))
    assert got.index == index
    assert got.rounds.tolist() == rounds
    assert np.allclose(got.a, a, rtol=0, atol=1e-12) and np.allclose(got.b, b, rtol=0, atol=1e-12)
    return got


def _non_ccp_generator(d, seed):
    # random jumps, the last one at a negative rate
    rng = np.random.default_rng(np.random.SeedSequence([seed, d, 19]))
    jumps = tuple((rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), rate)
                  for rate in (0.8, 0.5, -0.4))
    return build_superoperator(GeneratorSpec(hamiltonian=np.zeros((d, d)), jumps=jumps))


def _non_cp_channel(d, seed, t=0.3):
    return Superoperator(d=d, matrix=scipy.linalg.expm(t * _non_ccp_generator(d, seed).matrix))


def _schwarz_instance():
    # the Heisenberg adjoint of e^{0.4 L} for Pauli (1, 1, -1): unital, not Schwarz
    schro = Superoperator(
        d=2, matrix=scipy.linalg.expm(0.4 * build_superoperator(pauli_spec(1.0, 1.0, -1.0)).matrix))
    return adjoint_superoperator(schro)


@pytest.mark.parametrize("d,k", [(2, 2), (3, 2), (3, 3)])
def test_engine_matches_loop_conditional_k(d, k):
    cfg = SamplerConfig(n_restarts=6, refine_steps=60, seed=d * 10 + k)
    f, g, starts, scale = _k_positivity_problem(_non_ccp_generator(d, 3), k, cfg)
    _assert_engine_matches_loop(f, g, starts, cfg, scale, orthogonal=True)


@pytest.mark.parametrize("k", [1, 2])
def test_engine_matches_loop_map_level_k(k):
    for d in (2, 3):
        cfg = SamplerConfig(n_restarts=6, refine_steps=60, seed=k)
        f, g, starts, scale = _k_positivity_problem(_non_cp_channel(d, 5), k, cfg)
        _assert_engine_matches_loop(f, g, starts, cfg, scale)


def test_engine_matches_loop_schwarz():
    m = _schwarz_instance()
    cfg = SamplerConfig(n_restarts=8, refine_steps=80, seed=4)
    f, g, starts, scale = _defect_problem(m, 0.5 * m.matrix, cfg)
    got = _assert_engine_matches_loop(f, g, starts, cfg, scale)
    assert got.value < -1e-3


def test_engine_matches_loop_dissipativity():
    for rates, seed in (((1.0, 1.0, -1.0), 6), ((2.0, 2.0, -1.0), 7)):
        heis = adjoint_superoperator(build_superoperator(pauli_spec(*rates)))
        cfg = SamplerConfig(n_restarts=8, refine_steps=80, seed=seed)
        f, g, starts, scale = _defect_problem(heis, np.eye(4, dtype=complex), cfg)
        _assert_engine_matches_loop(f, g, starts, cfg, scale)


def test_engine_retires_restarts_on_their_own():
    # the matrix-unit starts of a Schwarz problem stop in round 1, while a
    # random start of the same problem runs to the refine_steps cap
    from rateaudit.timedep import builtin_tanh_example, propagator

    m = adjoint_superoperator(propagator(builtin_tanh_example(0.6), 0.5, 0.7, 25))
    cfg = SamplerConfig(n_restarts=2, refine_steps=20)
    f, g, starts, scale = _defect_problem(m, 0.5 * m.matrix, cfg)
    got = _assert_engine_matches_loop(f, g, starts, cfg, scale)
    assert got.rounds.min() == 1 and got.rounds.max() == cfg.refine_steps


def test_engine_ties_go_to_the_earliest_restart():
    cfg = SamplerConfig(n_restarts=6, refine_steps=60, seed=2)
    f, g, starts, scale = _k_positivity_problem(_non_ccp_generator(2, 3), 2, cfg)
    best = _alternating_min(f, g, starts, cfg, scale, orthogonal=True)
    worse = (best.index + 1) % len(starts)
    twins = np.array([starts[worse], starts[best.index], starts[best.index]])
    got = _assert_engine_matches_loop(f, g, twins, cfg, scale, orthogonal=True)
    assert got.index == 1 and got.value == best.value
    assert got.rounds[1] == got.rounds[2]


def _form_case(kind, d, k=None):
    """((F, G), kernel, public F) of one sampled problem."""
    one = SamplerConfig(n_restarts=1)
    if k is not None:  # F(phi) = (id_k (x) Phi)(|phi><phi|)
        sup = _non_ccp_generator(d, 1) if kind == "conditional" else _non_cp_channel(d, 5)
        n, ext = k * d, extended_superoperator(sup, k)
        return (_k_positivity_problem(sup, k, one)[:2], _k_positivity_kernel(sup, k),
                lambda phi: (ext @ vectorize(np.outer(phi, phi.conj()))).reshape(n, n, order="F"))
    if kind == "schwarz":
        m = _schwarz_instance()
        cross, defect = 0.5 * m.matrix, schwarz_defect
    else:
        m = adjoint_superoperator(_non_ccp_generator(d, 2))
        cross, defect = np.eye(d * d, dtype=complex), dissipativity_defect
    # F(x) = defect(m, X) for x = vec(X)
    return (_defect_problem(m, cross, one)[:2], _defect_kernel(m, cross),
            lambda x: defect(m, x.reshape(d, d, order="F")))


FORM_CASES = [pytest.param("conditional", d, k, id=f"conditional_d{d}_k{k}")
              for d, k in ((2, 1), (2, 2), (3, 2))]
FORM_CASES += [pytest.param("map_level", d, k, id=f"map_level_d{d}_k{k}")
               for d in (2, 3) for k in (1, 2)]
FORM_CASES += [pytest.param("schwarz", 2, None, id="schwarz"),
               pytest.param("dissipativity", 3, None, id="dissipativity")]


@pytest.mark.parametrize("kind,d,k", FORM_CASES)
def test_stacked_forms_match_the_public_maps(kind, d, k):
    # on unit vectors: the kernel W is Hermitian, F(a) is the public map, and
    # b^dag F(a) b = a^dag G(b) a = (a (x) b)^dag W (a (x) b)
    (f, g), w4, public = _form_case(kind, d, k)
    n, m = w4.shape[:2]
    w = w4.reshape(n * m, n * m)
    assert np.allclose(w, w.conj().T, rtol=0, atol=1e-12)
    rng = np.random.default_rng(23)
    a = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    b = rng.normal(size=(3, m)) + 1j * rng.normal(size=(3, m))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    for ar, br, fa, gb in zip(a, b, f(a), g(b)):
        assert np.allclose(fa, public(ar), rtol=0, atol=1e-12)
        value = br.conj() @ fa @ br
        assert abs(value - ar.conj() @ gb @ ar) < 1e-12
        x = np.kron(ar, br)
        assert abs(value - x.conj() @ w @ x) < 1e-12


def _complement_case(kind, r, n, rng):
    """(h, against) of one `test_lowest_on_the_complement` case."""
    h = rng.normal(size=(r, n, n)) + 1j * rng.normal(size=(r, n, n))
    h = h + h.conj().transpose(0, 2, 1)
    against = rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))
    if kind == "e0":
        against = np.zeros((r, n), dtype=complex)
        against[:, 0] = 1.0
    elif kind == "first_zero":
        against[:, 0] = 0.0
    elif kind == "own_lowest":  # the complement's minimum is h's second eigenvalue
        against = np.linalg.eigh(h)[1][:, :, 0]
    elif kind == "positive_definite":  # every eigenvalue at least 1e6
        h = h @ h.conj().transpose(0, 2, 1) + 1e6 * np.eye(n)
    elif kind == "zero":
        h = np.zeros_like(h)
    return h, against / np.linalg.norm(against, axis=1, keepdims=True)


@pytest.mark.parametrize("r", [1, 3])
@pytest.mark.parametrize("kind", ["e0", "first_zero", "random", "own_lowest",
                                  "positive_definite", "zero", "n2"])
def test_lowest_on_the_complement(kind, r):
    n = 2 if kind == "n2" else 5  # n = 2: the one-dimensional complement of d = 2, k = 1
    rng = np.random.default_rng(np.random.SeedSequence([r, len(kind)]))
    h, against = _complement_case(kind, r, n, rng)
    vals, vecs = _lowest(h, against)
    assert vals.shape == (r,) and vecs.shape == (r, n)
    for hr, ar, val, vec in zip(h, against, vals, vecs):
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-14
        assert abs(ar.conj() @ vec) < 1e-14
        basis = scipy.linalg.null_space(ar.conj()[None])  # orthonormal, n - 1 columns
        dense = np.linalg.eigvalsh(basis.conj().T @ hr @ basis)[0]
        assert abs(val - dense) <= 1e-12 * max(1.0, abs(dense))
        assert abs((vec.conj() @ hr @ vec).real - val) <= 1e-12 * max(1.0, abs(val))
        if kind == "own_lowest":
            assert abs(val - np.linalg.eigvalsh(hr)[1]) <= 1e-12 * max(1.0, abs(val))
    # a row's result does not depend on the stack it is solved in
    one_vals, one_vecs = _lowest(h[:1], against[:1])
    assert one_vals[0] == vals[0] and np.array_equal(one_vecs[0], vecs[0])
