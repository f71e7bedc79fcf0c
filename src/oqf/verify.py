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


def _worst(deviations) -> float:
    """The largest deviation; NaN if any is NaN, so a NaN never passes."""
    return float(np.max(deviations))


def _unit_interval_weights(ns, omegas) -> tuple[np.ndarray, ...]:
    """The closed-form weights on [0, 1] for every grid size in ns, in one pass."""
    return quadrature._coefficient_matrices([UniformGrid(0.0, 1.0, n) for n in ns], omegas)


def check_coefficient_agreement(ns, omegas) -> list[CheckResult]:
    """The closed-form weights against the dense solve on [0, 1] for each
    grid size in ns and the 1-d omegas, with the solve's Lagrange multiplier
    and first-moment residual.  Each side takes one call for all the grids:
    the oracle one grouped solve, the closed form one _coefficient_matrices
    pass, whose weights are coefficient_matrix's bit for bit.
    """
    coeff, p0, moment = [], [], []
    moment_scale = np.maximum(np.abs(oracle.linear_moment(omegas)), 1.0)
    sol = oracle.solve_coefficient_system(ns, omegas)
    for closed, dense, multiplier, residual in zip(_unit_interval_weights(ns, omegas),
                                                   sol.coefficients, sol.p0, sol.moment_residual):
        coeff.append(np.max(np.abs(dense - closed)))
        p0.append(np.max(np.abs(multiplier)))
        moment.append(np.max(residual / moment_scale))
    return [
        CheckResult("coefficients_closed_vs_dense", _worst(coeff), 1e-9),
        CheckResult("lagrange_multiplier_zero", _worst(p0), 1e-10),
        CheckResult("first_moment_identity", _worst(moment), 1e-10),
    ]


def check_norm_agreement() -> list[CheckResult]:
    omegas = (0.3, 1.0, 2.7)
    deviations = []
    ns = (4, 8, 16)
    for n, weights in zip(ns, _unit_interval_weights(ns, omegas)):
        brute = oracle.error_norm_bruteforce(weights, omegas, n)
        deviations.append(np.abs(brute - quadrature.error_norm(omegas, 1.0 / n)))
    results = [CheckResult("norm_bruteforce_vs_closed", _worst(deviations), 1e-9)]

    trap = abs(quadrature.error_norm(0.0, 0.1) - 0.01 / 12.0) / (0.01 / 12.0)
    results.append(CheckResult("norm_trapezoid_value", trap, 1e-13))
    integer_case = abs(
        quadrature.error_norm(10.0, 0.1) - 1.0 / (2.0 * math.pi * 10.0) ** 2
    ) * (2.0 * math.pi * 10.0) ** 2
    results.append(CheckResult("norm_integer_omega_h_value", integer_case, 1e-13))
    return results


def check_discrete_operator() -> list[CheckResult]:
    report = oracle.discrete_operator_identities(0.1, 8)
    return [
        CheckResult(f"second_difference_{name}", dev, 1e-14)
        for name, dev in report.items()
    ]


def check_transform_fast_vs_dense() -> list[CheckResult]:
    """The chirp-z path of apply_weights against the dense weight matrix.

    Uniform lattices both sides of SMALL_THETA, increasing and decreasing
    (the latter ending on omega = 0 exactly), on grids from n = 1 up to one
    past a node block (n = 6000, two blocks of 4096 at these lattices); the
    deviation is relative to the largest dense value.  At n = 64 and 6000
    the samples are also taken zero outside the grid's middle third, so only
    that support is summed.
    """
    rng = np.random.default_rng(0)
    deviations = []
    for n in (1, 2, 7, 64, 729, 6000):
        grid = UniformGrid(-0.7, 1.9, n)
        for theta_max in (0.2, 3.0):
            top = theta_max / (2.0 * math.pi * grid.h)
            for omegas in (np.linspace(-top, top, 201), np.linspace(top, 0.0, 97)):
                values = rng.normal(size=(n + 1, 2)) + 1j * rng.normal(size=(n + 1, 2))
                samples = [values]
                if n in (64, 6000):
                    middle = values.copy()
                    middle[: n // 3] = middle[2 * n // 3 :] = 0.0
                    samples.append(middle)
                weights = quadrature.coefficient_matrix(grid, omegas)
                for vals in samples:
                    dense = weights @ vals
                    fast = quadrature.apply_weights(grid, omegas, vals)
                    deviations.append(np.abs(fast - dense).max() / np.abs(dense).max())
    return [CheckResult("transform_fast_vs_dense", _worst(deviations), 1e-12)]


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
