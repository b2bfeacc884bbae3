from fractions import Fraction

import numpy as np
import pytest

from conftest import ccp_spec
from rateaudit.bounds import (
    CLASSES,
    audit_rates,
    audit_steady_states,
    rate_constant,
    steady_state_bound,
)
from rateaudit.generator import (
    SIGMA_Z,
    GeneratorSpec,
    RateReport,
    Superoperator,
    build_superoperator,
    pauli_spec,
    relaxation_rates,
)
from rateaudit.classical import trace_inequality
from rateaudit.positivity import SamplerConfig, check_map_class
from rateaudit.timedep import TimeDependentSpec, divisibility_audit


def report_from_rates(rates):
    rates = tuple(sorted(rates, reverse=True))
    return RateReport(
        eigenvalues=(0.0,) + tuple(-r for r in rates),
        rates=rates,
        gamma_max=rates[0],
        rate_sum=float(sum(rates)),
    )


def test_rate_constants_exact():
    for d in range(2, 11):
        assert rate_constant("cp", d) == Fraction(1, d)
        assert rate_constant("2p", d) == Fraction(1, d)
        assert rate_constant("schwarz", d) == Fraction(2, d + 1)
        assert rate_constant("positive", d) == Fraction(1)
    with pytest.raises(ValueError):
        rate_constant("bogus", 2)


def test_constant_hierarchy_and_harmonic_mean():
    for d in range(2, 11):
        c_pos, c_s, c_cp = (
            rate_constant("positive", d),
            rate_constant("schwarz", d),
            rate_constant("cp", d),
        )
        assert c_pos >= c_s >= c_cp
        # 2/(d+1) is the harmonic mean of 1 and 1/d, exactly
        assert c_s == 2 / (1 / c_pos + 1 / c_cp)


def test_audit_pauli_positive_saturated_2p_violated():
    rr = relaxation_rates(build_superoperator(pauli_spec(1, 1, -1)))
    pos = audit_rates(rr, "positive", 2)
    assert pos.satisfied and pos.saturated
    assert abs(pos.margin) <= 1e-9
    two = audit_rates(rr, "2p", 2)
    assert not two.satisfied
    assert two.bound == pytest.approx(1.0) and two.gamma_max == pytest.approx(2.0)


def test_audit_schwarz_saturation():
    rr = relaxation_rates(build_superoperator(pauli_spec(2, 2, -1)))
    audit = audit_rates(rr, "schwarz", 2)
    assert audit.bound == pytest.approx(4.0)
    assert audit.satisfied and audit.saturated and abs(audit.margin) <= 1e-9
    assert not audit_rates(rr, "2p", 2).satisfied  # bound 3 < 4


def test_audit_recovers_longitudinal_transversal_relation():
    # c = 1/2 audit on rates (G_L, G_T, G_T) is exactly 2 G_T >= G_L
    ok = audit_rates(report_from_rates([2.0, 1.2, 1.2]), "cp", 2)
    assert ok.satisfied  # 2*1.2 >= 2
    bad = audit_rates(report_from_rates([3.0, 1.2, 1.2]), "cp", 2)
    assert not bad.satisfied  # 2*1.2 < 3


def test_audit_random_ccp_specs():
    for seed in range(20):
        d = 2 + seed % 4
        rr = relaxation_rates(build_superoperator(ccp_spec(seed + 50, d)))
        audit = audit_rates(rr, "2p", d)
        assert audit.satisfied
        assert audit.margin >= -1e-9 * max(1.0, rr.rate_sum)


def test_steady_state_bounds_table():
    assert steady_state_bound("cp", 3) == 5
    assert steady_state_bound("2p", 3) == 6
    assert steady_state_bound("schwarz", 3) == 7  # d^2 - (d+1)/2 is integral here
    assert steady_state_bound("cp", 2) == 2
    assert steady_state_bound("2p", 2) == 2
    assert steady_state_bound("cp", 4) == 10
    with pytest.raises(ValueError):
        steady_state_bound("positive", 3)
    with pytest.raises(ValueError):
        steady_state_bound("cp", 1)


def test_steady_state_bound_hierarchy():
    for d in range(2, 11):
        assert (
            steady_state_bound("cp", d)
            <= steady_state_bound("2p", d)
            <= steady_state_bound("schwarz", d)
        )


def test_audit_steady_states_dephasing_saturates():
    spec = GeneratorSpec(hamiltonian=np.zeros((2, 2)), jumps=((SIGMA_Z, 1.0),))
    m0, bound, within = audit_steady_states(build_superoperator(spec), "cp")
    assert m0 == 2 and bound == 2 and within


def test_audit_steady_states_unique():
    m0, bound, within = audit_steady_states(
        build_superoperator(pauli_spec(1, 1, 1)), "cp"
    )
    assert m0 == 1 and bound == 2 and within


def test_audit_steady_states_diagonal_dephasing_d3():
    om = np.exp(2j * np.pi / 3)
    u = np.diag([1.0, om, om**2])
    spec = GeneratorSpec(
        hamiltonian=np.zeros((3, 3)), jumps=((u, 1.0), (u @ u, 1.0))
    )
    m0, bound, within = audit_steady_states(build_superoperator(spec), "cp")
    assert m0 == 3 and bound == 5 and within


def test_audit_steady_states_schwarz_floor():
    spec = GeneratorSpec(hamiltonian=np.zeros((2, 2)), jumps=((SIGMA_Z, 1.0),))
    m0, bound, within = audit_steady_states(build_superoperator(spec), "schwarz")
    assert bound == Fraction(5, 2) and within  # floor comparison against 2


def test_audit_steady_states_rejects_zero_generator():
    zero = Superoperator(d=2, matrix=np.zeros((4, 4)))
    with pytest.raises(ValueError):
        audit_steady_states(zero, "cp")


# one class vocabulary: the map checks, the divisibility audit and the trace
# inequality take the strings of CLASSES and nothing else

def _class_fixtures():
    ident = Superoperator(d=2, matrix=np.eye(4, dtype=complex))
    spec = ccp_spec(0, 2)
    td = TimeDependentSpec(build_superoperator(spec).matrix[None],
                           lambda t: np.ones((t.size, 1)), t_start=0.0, t_end=1.0)
    return ident, td, build_superoperator(spec), np.eye(2, dtype=complex)


@pytest.mark.parametrize("cls", CLASSES)
def test_every_layer_takes_the_class_vocabulary(cls):
    ident, td, sup, basis = _class_fixtures()
    cfg = SamplerConfig(n_restarts=2)
    assert not check_map_class(ident, cls, cfg).violated
    results, first = divisibility_audit(td, [0.0, 0.5, 1.0], cls, cfg, steps_per_interval=5)
    assert len(results) == 2 and first is None
    if cls == "positive":
        with pytest.raises(ValueError):
            trace_inequality(sup, basis, cls)  # no trace inequality for positive maps
    else:
        assert trace_inequality(sup, basis, cls)[2]


@pytest.mark.parametrize("old", ["CP", "two_positive", "k_positive", "Schwarz", "ccp_or_2positive"])
def test_old_class_spellings_are_rejected(old):
    ident, td, sup, basis = _class_fixtures()
    with pytest.raises(ValueError):
        check_map_class(ident, old)
    with pytest.raises(ValueError):
        divisibility_audit(td, [0.0, 1.0], old)
    with pytest.raises(ValueError):
        trace_inequality(sup, basis, old)
