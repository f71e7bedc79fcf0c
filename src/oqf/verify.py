"""Self-check matrix cross-validating closed forms against the dense oracle.

Used by the `verify` CLI subcommand.  Each check returns its name, the
observed worst deviation, the threshold, and pass/fail; the suite passes
only if every check does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle, quadrature
from .grid import UniformGrid


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_deviation: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_deviation < self.threshold


FAST_NS = tuple(range(2, 33))
FULL_NS = FAST_NS + (64, 128, 256)
OMEGAS = (0.1, 0.3, 1.0, 2.7, 5.0, 10.0)


def check_coefficient_agreement(ns, omegas) -> list[CheckResult]:
    worst_coeff = 0.0
    worst_p0 = 0.0
    worst_moment = 0.0
    for n in ns:
        for om in omegas:
            sol = oracle.solve_coefficient_system(n, om)
            closed = quadrature.optimal_coefficients(UniformGrid(0.0, 1.0, n), om)
            worst_coeff = max(
                worst_coeff, float(np.abs(sol.coefficients - closed.values).max())
            )
            worst_p0 = max(worst_p0, abs(sol.p0))
            moment_scale = max(abs(oracle.linear_moment(om)), 1.0)
            worst_moment = max(worst_moment, sol.moment_residual / moment_scale)
    return [
        CheckResult("coefficients_closed_vs_dense", worst_coeff, 1e-9),
        CheckResult("lagrange_multiplier_zero", worst_p0, 1e-10),
        CheckResult("first_moment_identity", worst_moment, 1e-10),
    ]


def check_norm_agreement() -> list[CheckResult]:
    worst = 0.0
    for n in (4, 8, 16):
        for om in (0.3, 1.0, 2.7):
            c = quadrature.optimal_coefficients(UniformGrid(0.0, 1.0, n), om)
            brute = oracle.error_norm_bruteforce(c.values.real, c.values.imag, om, n)
            closed = quadrature.error_norm(om, 1.0 / n).norm_sq
            worst = max(worst, abs(brute - closed))
    results = [CheckResult("norm_bruteforce_vs_closed", worst, 1e-9)]

    trap = abs(quadrature.error_norm(0.0, 0.1).norm_sq - 0.01 / 12.0) / (0.01 / 12.0)
    results.append(CheckResult("norm_trapezoid_value", trap, 1e-13))
    integer_case = abs(
        quadrature.error_norm(10.0, 0.1).norm_sq - 1.0 / (2.0 * math.pi * 10.0) ** 2
    ) * (2.0 * math.pi * 10.0) ** 2
    results.append(CheckResult("norm_integer_omega_h_value", integer_case, 1e-13))
    return results


def check_discrete_operator() -> list[CheckResult]:
    report = oracle.discrete_operator_identities(0.1, 8)
    return [
        CheckResult(f"second_difference_{name}", dev, 1e-14)
        for name, (_, dev) in report.items()
    ]


def check_transform_fast_vs_dense() -> list[CheckResult]:
    """The chirp-z path of apply_weights against the dense weight matrix.

    Uniform lattices both sides of SMALL_THETA, increasing and decreasing
    (the latter ending on omega = 0 exactly), on grids from n = 1 up; the
    deviation is relative to the largest dense value.
    """
    rng = np.random.default_rng(0)
    worst = 0.0
    for n in (1, 2, 7, 64, 729):
        grid = UniformGrid(-0.7, 1.9, n)
        for theta_max in (0.2, 3.0):
            top = theta_max / (2.0 * math.pi * grid.h)
            for omegas in (np.linspace(-top, top, 201), np.linspace(top, 0.0, 97)):
                values = rng.normal(size=(n + 1, 2)) + 1j * rng.normal(size=(n + 1, 2))
                dense = quadrature.coefficient_matrix(grid, omegas) @ values
                fast = quadrature.apply_weights(grid, omegas, values)
                worst = max(worst, float(np.abs(fast - dense).max() / np.abs(dense).max()))
    return [CheckResult("transform_fast_vs_dense", worst, 1e-12)]


def run_checks(level: str = "fast") -> list[CheckResult]:
    if level not in ("fast", "full"):
        raise ValueError(f"unknown verification level {level!r}")
    ns = FAST_NS if level == "fast" else FULL_NS
    results = check_coefficient_agreement(ns, OMEGAS)
    results += check_norm_agreement()
    results += check_discrete_operator()
    if level == "full":
        results += check_transform_fast_vs_dense()
    return results
