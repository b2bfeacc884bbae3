"""Relaxation-rate audits for finite-dimensional quantum Markovian generators."""

from .matcore import ToleranceConfig, DEFAULT_TOL
from .generator import (
    GeneratorSpec,
    Superoperator,
    RateReport,
    build_superoperator,
    adjoint_superoperator,
    choi,
    relaxation_rates,
    stationary_states,
    regularize_faithful,
    pauli_spec,
)
from .positivity import PositivityVerdict, SamplerConfig, check_ccp, qubit_pauli_classify
from .kms import WeightedInnerProduct, kms_adjoint, symmetrized_generator
from .classical import ClassicalGenerator, classical_generator, trace_inequality
from .bounds import AuditReport, audit_rates, steady_state_bound, audit_steady_states
from .timedep import TimeDependentSpec, builtin_tanh_example, propagator

__version__ = "0.1.0"
