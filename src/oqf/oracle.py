"""Independent verification machinery for the closed-form quadrature weights.

Everything here is deliberately naive: a dense Lagrange-system solve for the
weights, a brute-force evaluation of the squared error norm from its defining
quadratic form, and identity checks for the three-point discrete second
difference.  The Lagrange system's matrix is real and is factored once for
every complex right-hand side.  These routes never share code with the
closed forms they check.
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
    p0: complex | np.ndarray
    residual: float
    condition: float
    moment_residual: float | np.ndarray


def _kernel(x):
    """G(x) = |x|/2, the reproducing kernel of the second-difference calculus."""
    return np.abs(x) / 2.0


def _kernel_integral(t: np.ndarray, omega) -> np.ndarray:
    """int_0^1 e^{2 pi i omega x} |x - t|/2 dx, shape omega.shape + t.shape.

    Exact omega = 0 entries take the row t^2/2 - t/2 + 1/4.
    """
    omega = np.asarray(omega, dtype=float)[..., None]
    zero = omega == 0.0
    z = 2j * math.pi * np.where(zero, 1.0, omega)
    ez = np.exp(z)
    value = -t / (2.0 * z) * (ez + 1.0) + (
        2.0 * np.exp(z * t) + (z - 1.0) * ez - 1.0
    ) / (2.0 * z * z)
    return np.where(zero, t * t / 2.0 - t / 2.0 + 0.25, value)


def _moments(omega) -> tuple[np.ndarray, np.ndarray]:
    """int_0^1 e^{2 pi i omega x} dx and int_0^1 e^{2 pi i omega x} x dx, shaped as omega."""
    omega = np.asarray(omega, dtype=float)
    zero = omega == 0.0
    z = 2j * math.pi * np.where(zero, 1.0, omega)
    ez = np.exp(z)
    constant = np.where(zero, 1.0, (ez - 1.0) / z)
    linear = np.where(zero, 0.5, ez / z - (ez - 1.0) / (z * z))
    return constant, linear


def linear_moment(omega):
    """int_0^1 e^{2 pi i omega x} x dx: a complex for scalar omega, an array for 1-d."""
    return _moments(omega)[1][()]


def solve_coefficient_system(n: int, omega) -> CoefficientSystemSolution:
    """Solve the dense stationarity system for the optimal weights on [0,1].

    Unknowns are the n+1 weights and the Lagrange multiplier of the
    constant-exactness constraint.  Also reports the residual of the
    first-moment identity the solution must satisfy (exactness on x).

    The matrix is real (the Gram matrix of |x - y|/2 at the nodes, bordered
    by the constant-exactness row and column) and does not depend on the
    frequency; only the right-hand sides, the moments of e^{2 pi i omega x},
    are complex.  So it is factored once, in real arithmetic, for the real
    and imaginary parts of every entry of a 1-d omega: coefficients then
    have shape (M, n+1), p0 and moment_residual shape (M,), and residual is
    the largest modulus over all right-hand sides.  A scalar omega gives
    one row.  condition is the matrix's 2-norm condition number; above
    1e12, or not finite, it raises SolverFailure.
    """
    if n < 1:
        raise ValueError(f"need at least one subinterval, got n={n}")
    omega = np.asarray(omega, dtype=float)
    if omega.ndim > 1:
        raise ValueError(f"frequencies must be a scalar or 1-d, got shape {omega.shape}")
    omegas = np.atleast_1d(omega)
    h = 1.0 / n
    nodes = h * np.arange(n + 1)

    size = n + 2
    mat = np.zeros((size, size))
    mat[: n + 1, : n + 1] = _kernel(nodes[:, None] - nodes[None, :])
    mat[: n + 1, n + 1] = 1.0
    mat[n + 1, : n + 1] = 1.0
    constant, linear = _moments(omegas)
    rhs = np.empty((size, omegas.size), dtype=complex)  # C order, for the real view
    rhs[: n + 1] = _kernel_integral(nodes, omegas).T
    rhs[n + 1] = constant

    condition = float(np.linalg.cond(mat))
    if not np.isfinite(condition) or condition > 1e12:
        raise SolverFailure("coefficient system is ill-conditioned", condition)
    # Each complex column of rhs is seen as two real columns (real and
    # imaginary parts side by side), so one real factorisation solves them all.
    rhs = rhs.view(float)
    solution = np.linalg.solve(mat, rhs)
    residual = float(np.max(np.abs((mat @ solution - rhs).view(complex))))
    solution = solution.view(complex)

    coefficients = solution[: n + 1].T
    p0 = solution[n + 1]
    moment_residual = np.abs(coefficients @ nodes - linear)
    if omega.ndim == 0:
        coefficients, p0 = coefficients[0], complex(p0[0])
        moment_residual = float(moment_residual[0])
    return CoefficientSystemSolution(
        coefficients=coefficients,
        p0=p0,
        residual=residual,
        condition=condition,
        moment_residual=moment_residual,
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
    kernel = _kernel_integral(nodes, omega)
    cross = cr @ kernel.real + ci @ kernel.imag
    return -(double_sum - 2.0 * cross + _double_kernel_integral(c))


def second_difference_window(h: float, window: int) -> dict[int, float]:
    """The discrete second-difference stencil scaled by 1/h^2, on [-window, window]."""
    values = {beta: 0.0 for beta in range(-window, window + 1)}
    values[0] = -2.0 / (h * h)
    values[1] = values[-1] = 1.0 / (h * h)
    return values


def discrete_operator_identities(h: float, window: int = 8) -> dict[str, float]:
    """Deviations from the defining identities of the discrete second difference.

    Measures how far h * D * G is from the discrete delta, and how far D is
    from annihilating constants and the linear sequence h*beta, over offsets
    |beta| <= window - 2 (so the stencil support never leaves the window).
    """
    if h <= 0:
        raise ValueError(f"step must be positive, got h={h}")
    if window < 4:
        raise ValueError(f"window must be at least 4, got {window}")
    stencil = second_difference_window(h, window)
    weights = np.array([stencil[-1], stencil[0], stencil[1]])
    # Rows are the offsets beta, columns the stencil taps g = -1, 0, 1.
    beta = np.arange(-(window - 2), window - 1)
    lag = beta[:, None] - np.arange(-1, 2)

    delta = h * (weights * np.abs(h * lag) / 2.0).sum(axis=1)
    return {
        "delta_reproduction": float(np.max(np.abs(delta - (beta == 0)))),
        "annihilates_constants": float(abs(weights.sum()) * h * h),
        "annihilates_linears": float(np.max(np.abs((weights * h * lag).sum(axis=1)) * h)),
    }

