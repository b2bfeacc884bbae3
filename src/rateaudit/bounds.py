"""Universal rate-constraint audits with class-dependent constants, and the
steady-state-count bounds."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

import numpy as np

from .matcore import numerical_kernel
from .generator import RateReport, Superoperator

# canonical class names: "cp" and "2p" share the 1/d constant
CLASSES = ("cp", "2p", "schwarz", "positive")


def rate_constant(audit_class: str, d: int) -> Fraction:
    """Exact rational constant c_d for the class."""
    if audit_class in ("cp", "2p"):
        return Fraction(1, d)
    if audit_class == "schwarz":
        return Fraction(2, d + 1)
    if audit_class == "positive":
        return Fraction(1)
    raise ValueError(f"unknown class {audit_class!r}")


@dataclass(frozen=True)
class AuditReport:
    d: int
    audit_class: str
    c_d: Fraction
    gamma_max: float
    rate_sum: float
    bound: float
    margin: float
    satisfied: bool
    saturated: bool


def audit_rates(report: RateReport, audit_class: str, d: int) -> AuditReport:
    """Check Gamma_max <= c_d * sum(Gamma) with the class constant."""
    c = rate_constant(audit_class, d)
    bound = float(c) * report.rate_sum
    margin = bound - report.gamma_max
    scale = 1e-9 * max(1.0, report.rate_sum)
    return AuditReport(
        d=d,
        audit_class=audit_class,
        c_d=c,
        gamma_max=report.gamma_max,
        rate_sum=report.rate_sum,
        bound=bound,
        margin=margin,
        satisfied=margin >= -scale,
        saturated=abs(margin) <= max(scale, 1e-12),
    )


def steady_state_bound(audit_class: str, d: int) -> Fraction:
    """Class-dependent upper bound on the kernel dimension, as an exact rational."""
    if d < 2:
        raise ValueError("d must be >= 2")
    if audit_class == "cp":
        return Fraction(d * d - 2 * d + 2)
    if audit_class == "2p":
        return Fraction(d * d - d)
    if audit_class == "schwarz":
        return Fraction(2 * d * d - d - 1, 2)
    raise ValueError(f"no steady-state bound for class {audit_class!r}")


def audit_steady_states(s: Superoperator, audit_class: str):
    """Kernel dimension m0 of `numerical_kernel` vs the class bound (integer
    comparison uses floor): (m0, bound, m0 <= floor(bound))."""
    if np.linalg.norm(s.matrix) <= 1e-14:
        raise ValueError("trivial generator: the steady-state bound assumes L != 0")
    m0 = numerical_kernel(s.matrix)[0].shape[1]
    bound = steady_state_bound(audit_class, s.d)
    return m0, bound, m0 <= floor(bound)
