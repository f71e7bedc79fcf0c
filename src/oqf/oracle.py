"""Independent verification machinery for the closed-form quadrature weights.

Everything here is deliberately naive: a dense Lagrange-system solve for the
weights, a brute-force evaluation of the squared error norm from its defining
quadratic form, and identity checks for the three-point discrete second
difference.  These routes never share code with the closed forms they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


class SolverFailure(RuntimeError):
    """Raised when the dense system is too ill-conditioned to trust."""

    def __init__(self, message: str, condition: float):
        super().__init__(f"{message} (condition estimate {condition:.3e})")
        self.condition = condition


@dataclass(frozen=True)
class CoefficientSystemSolution:
    """Solution of the dense (N+2) x (N+2) minimization system on [0,1]."""

    coefficients: np.ndarray = field(repr=False)
    p0: complex
    residual: float
    condition: float
    moment_residual: float


def _kernel(x):
    """G(x) = |x|/2, the reproducing kernel of the second-difference calculus."""
    return np.abs(x) / 2.0


def _rhs_value(t: float, omega: float) -> complex:
    """int_0^1 e^{2 pi i omega x} |x - t|/2 dx for t in [0,1]."""
    if omega == 0.0:
        return complex(t * t / 2.0 - t / 2.0 + 0.25)
    z = 2j * math.pi * omega
    ez = np.exp(z)
    return complex(
        -t / (2.0 * z) * (ez + 1.0)
        + (2.0 * np.exp(z * t) + (z - 1.0) * ez - 1.0) / (2.0 * z * z)
    )


def _constant_moment(omega: float) -> complex:
    """int_0^1 e^{2 pi i omega x} dx."""
    if omega == 0.0:
        return 1.0 + 0.0j
    z = 2j * math.pi * omega
    return complex((np.exp(z) - 1.0) / z)


def linear_moment(omega: float) -> complex:
    """int_0^1 e^{2 pi i omega x} x dx."""
    if omega == 0.0:
        return 0.5 + 0.0j
    z = 2j * math.pi * omega
    ez = np.exp(z)
    return complex(ez / z - (ez - 1.0) / (z * z))


def solve_coefficient_system(n: int, omega: float) -> CoefficientSystemSolution:
    """Solve the dense stationarity system for the optimal weights on [0,1].

    Unknowns are the n+1 weights and the Lagrange multiplier of the
    constant-exactness constraint.  Also reports the residual of the
    first-moment identity the solution must satisfy (exactness on x).
    """
    if n < 1:
        raise ValueError(f"need at least one subinterval, got n={n}")
    omega = float(omega)
    h = 1.0 / n
    nodes = h * np.arange(n + 1)

    size = n + 2
    mat = np.zeros((size, size), dtype=complex)
    rhs = np.zeros(size, dtype=complex)
    mat[: n + 1, : n + 1] = _kernel(nodes[:, None] - nodes[None, :])
    mat[: n + 1, n + 1] = 1.0
    mat[n + 1, : n + 1] = 1.0
    for beta in range(n + 1):
        rhs[beta] = _rhs_value(nodes[beta], omega)
    rhs[n + 1] = _constant_moment(omega)

    condition = float(np.linalg.cond(mat))
    if not np.isfinite(condition) or condition > 1e12:
        raise SolverFailure("coefficient system is ill-conditioned", condition)
    solution = np.linalg.solve(mat, rhs)
    residual = float(np.max(np.abs(mat @ solution - rhs)))

    coefficients = solution[: n + 1]
    moment_residual = float(
        abs(np.dot(coefficients, nodes) - linear_moment(omega))
    )
    return CoefficientSystemSolution(
        coefficients=coefficients,
        p0=complex(solution[n + 1]),
        residual=residual,
        condition=condition,
        moment_residual=moment_residual,
    )


def _cos_kernel_integral(t: float, c: float) -> float:
    """int_0^1 cos(c x) |x - t|/2 dx, by splitting at x = t."""
    if c == 0.0:
        return t * t / 2.0 - t / 2.0 + 0.25
    return 0.5 * (
        (1.0 + math.cos(c) - 2.0 * math.cos(c * t)) / (c * c)
        + (1.0 - t) * math.sin(c) / c
    )


def _sin_kernel_integral(t: float, c: float) -> float:
    """int_0^1 sin(c x) |x - t|/2 dx, by splitting at x = t."""
    if c == 0.0:
        return 0.0
    return 0.5 * (
        (t + (t - 1.0) * math.cos(c)) / c
        + (math.sin(c) - 2.0 * math.sin(c * t)) / (c * c)
    )


def _double_kernel_integral(c: float) -> float:
    """int_0^1 int_0^1 cos(c (x - y)) |x - y|/2 dx dy."""
    if c == 0.0:
        return 1.0 / 6.0
    return (2.0 * math.sin(c) / c - math.cos(c) - 1.0) / (c * c)


def error_norm_bruteforce(coeffs_real, coeffs_imag, omega: float, n: int) -> float:
    """Squared error norm of arbitrary weights on [0,1], from the quadratic form.

    Valid for weight vectors satisfying the constant-exactness constraint
    (the optimal weights do); independent of the closed-form norm formula.
    """
    cr = np.asarray(coeffs_real, dtype=float)
    ci = np.asarray(coeffs_imag, dtype=float)
    if cr.shape != (n + 1,) or ci.shape != (n + 1,):
        raise ValueError(
            f"expected weight arrays of length {n + 1}, got {cr.shape} and {ci.shape}"
        )
    h = 1.0 / n
    nodes = h * np.arange(n + 1)
    c = TWO_PI * omega

    gram = _kernel(nodes[:, None] - nodes[None, :])
    double_sum = cr @ gram @ cr + ci @ gram @ ci
    cos_sum = sum(cr[b] * _cos_kernel_integral(nodes[b], c) for b in range(n + 1))
    sin_sum = sum(ci[b] * _sin_kernel_integral(nodes[b], c) for b in range(n + 1))
    return -(double_sum - 2.0 * cos_sum - 2.0 * sin_sum + _double_kernel_integral(c))


def second_difference_window(h: float, window: int) -> dict[int, float]:
    """The discrete second-difference stencil scaled by 1/h^2, on [-window, window]."""
    values = {beta: 0.0 for beta in range(-window, window + 1)}
    values[0] = -2.0 / (h * h)
    values[1] = values[-1] = 1.0 / (h * h)
    return values


def discrete_operator_identities(h: float, window: int = 8) -> dict[str, tuple[bool, float]]:
    """Check the defining identities of the discrete second difference.

    Verifies that h * D * G reproduces the discrete delta, and that D
    annihilates constants and the linear sequence h*beta, over offsets
    |beta| <= window - 2 (so the stencil support never leaves the window).
    """
    if h <= 0:
        raise ValueError(f"step must be positive, got h={h}")
    if window < 4:
        raise ValueError(f"window must be at least 4, got {window}")
    stencil = second_difference_window(h, window)
    offsets = range(-(window - 2), window - 1)

    report: dict[str, tuple[bool, float]] = {}

    dev = 0.0
    for beta in offsets:
        conv = h * sum(
            stencil[g] * abs(h * (beta - g)) / 2.0 for g in (-1, 0, 1)
        )
        expected = 1.0 if beta == 0 else 0.0
        dev = max(dev, abs(conv - expected))
    report["delta_reproduction"] = (dev <= 1e-14, dev)

    dev = abs(stencil[-1] + stencil[0] + stencil[1]) * h * h
    report["annihilates_constants"] = (dev <= 1e-14, dev)

    dev = 0.0
    for beta in offsets:
        conv = sum(stencil[g] * h * (beta - g) for g in (-1, 0, 1))
        dev = max(dev, abs(conv) * h)
    report["annihilates_linears"] = (dev <= 1e-14, dev)
    return report


def transform_to_interval(coeffs01, a: float, b: float, omega: float) -> np.ndarray:
    """Map weights built for [0,1] at frequency omega*(b-a) onto [a,b] at omega."""
    if not b > a:
        raise ValueError(f"interval end must exceed start: a={a}, b={b}")
    coeffs01 = np.asarray(coeffs01, dtype=complex)
    return (b - a) * np.exp(2j * math.pi * omega * a) * coeffs01
