"""Independent verification machinery for the closed-form quadrature weights.

Everything here is deliberately naive: a dense Lagrange-system solve for the
weights, a brute-force evaluation of the squared error norm from its defining
quadratic form, and identity checks for the three-point discrete second
difference.  The Lagrange system's matrix is real and is factored once for
every complex right-hand side.  Several grids are solved in one call: their
bordered systems are grouped into 16-row size classes, each padded to its
largest member with an identity block, which leaves every solution and
condition number as it was (see ``solve_coefficient_system``).  These routes
never share code with the closed forms they check: this module imports no
other ``oqf`` module.
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
    """Solution of the dense (N+2) x (N+2) minimization system on [0,1].

    For a 1-d sequence of grid sizes, coefficients, p0 and moment_residual
    are tuples with one entry per grid.
    """

    coefficients: np.ndarray | tuple = field(repr=False)
    p0: complex | np.ndarray | tuple
    residual: float
    condition: float
    moment_residual: float | np.ndarray | tuple


def _kernel(x):
    """G(x) = |x|/2, the reproducing kernel of the second-difference calculus."""
    return np.abs(x) / 2.0


def _exponentials(omega) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(omega == 0, z, e^z) with z = 2 pi i omega, and z = 2 pi i where omega == 0."""
    omega = np.asarray(omega, dtype=float)
    zero = omega == 0.0
    z = 2j * math.pi * np.where(zero, 1.0, omega)
    return zero, z, np.exp(z)


def _kernel_integral(t: np.ndarray, omega, table=None) -> np.ndarray:
    """int_0^1 e^{2 pi i omega x} |x - t|/2 dx, shape omega.shape + t.shape.

    Exact omega = 0 entries take the row t^2/2 - t/2 + 1/4.  table is
    omega's ``_exponentials``, when the caller already has it.
    """
    zero, z, ez = (a[..., None] for a in table or _exponentials(omega))
    value = -t / (2.0 * z) * (ez + 1.0) + (
        2.0 * np.exp(z * t) + (z - 1.0) * ez - 1.0
    ) / (2.0 * z * z)
    return np.where(zero, t * t / 2.0 - t / 2.0 + 0.25, value)


def _moments(omega, table=None) -> tuple[np.ndarray, np.ndarray]:
    """int_0^1 e^{2 pi i omega x} dx and int_0^1 e^{2 pi i omega x} x dx, shaped as omega."""
    zero, z, ez = table or _exponentials(omega)
    constant = np.where(zero, 1.0, (ez - 1.0) / z)
    linear = np.where(zero, 0.5, ez / z - (ez - 1.0) / (z * z))
    return constant, linear


def linear_moment(omega):
    """int_0^1 e^{2 pi i omega x} x dx: a complex for scalar omega, an array for 1-d."""
    return _moments(omega)[1][()]


# Bordered systems of sizes 1..16, 17..32, ... form one size class each.
SIZE_CLASS = 16


def solve_coefficient_system(n, omega) -> CoefficientSystemSolution:
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

    n may also be a 1-d sequence of grid sizes.  Then coefficients, p0 and
    moment_residual are tuples holding each grid's, in n's order, while
    residual and condition are the worst over all grids; SolverFailure
    names the first n whose system fails.  One table of e^{2 pi i omega t}
    serves the nodes t of every grid.  The bordered systems of n + 2 rows
    fall into SIZE_CLASS-row size classes, each padded with an identity
    block to its largest member and conditioned and solved by one stacked
    np.linalg.cond and np.linalg.solve.  The pad changes neither the
    solution (it is decoupled, with zero right-hand sides) nor the condition
    number: its singular values are 1, while every bordered matrix A has
    sigma_max >= sqrt(n+1) > 1 (its border column's norm) and sigma_min <=
    |A (e_0 - e_1)| / |e_0 - e_1| = sqrt(n+1) / (2 sqrt(2) n) < 1.  A class
    of one is not padded, so an int n takes the same path with the same bits.
    """
    if np.ndim(n) > 1:
        raise ValueError(f"grid sizes must be an int or 1-d, got shape {np.shape(n)}")
    ns = list(n) if np.ndim(n) else [n]
    if not ns:
        raise ValueError("need at least one grid size")
    for k in ns:
        if k < 1:
            raise ValueError(f"need at least one subinterval, got n={k}")
    omega = np.asarray(omega, dtype=float)
    if omega.ndim > 1:
        raise ValueError(f"frequencies must be a scalar or 1-d, got shape {omega.shape}")
    omegas = np.atleast_1d(omega)
    nodes = [(1.0 / k) * np.arange(k + 1) for k in ns]
    table = _exponentials(omegas)
    constant, linear = _moments(omegas, table)
    offsets = np.cumsum([k + 1 for k in ns])[:-1]
    kernels = np.split(_kernel_integral(np.concatenate(nodes), omegas, table), offsets, axis=1)

    classes: dict[int, list[int]] = {}
    for j, k in enumerate(ns):
        classes.setdefault((k + 2 - 1) // SIZE_CLASS, []).append(j)  # n + 2 rows
    stacks, conditions = [], [0.0] * len(ns)
    for members in classes.values():
        size = max(ns[j] for j in members) + 2
        mat = np.zeros((len(members), size, size))
        rhs = np.zeros((len(members), size, omegas.size), dtype=complex)  # C order, for the real view
        for i, j in enumerate(members):
            k = ns[j]
            mat[i, : k + 1, : k + 1] = _kernel(nodes[j][:, None] - nodes[j][None, :])
            mat[i, : k + 1, k + 1] = mat[i, k + 1, : k + 1] = 1.0
            pad = np.arange(k + 2, size)
            mat[i, pad, pad] = 1.0
            rhs[i, : k + 1] = kernels[j].T
            rhs[i, k + 1] = constant
        for j, condition in zip(members, np.linalg.cond(mat).tolist()):
            conditions[j] = condition
        stacks.append((members, mat, rhs))
    for j, k in enumerate(ns):
        if not np.isfinite(conditions[j]) or conditions[j] > 1e12:
            raise SolverFailure(f"coefficient system for n={k} is ill-conditioned",
                                conditions[j])

    residual = 0.0
    solved = [None] * len(ns)
    for members, mat, rhs in stacks:
        # Each complex column of rhs is seen as two real columns (real and
        # imaginary parts side by side), so one real factorisation solves them all.
        rhs = rhs.view(float)
        solution = np.linalg.solve(mat, rhs)
        residual = max(residual, float(np.max(np.abs((mat @ solution - rhs).view(complex)))))
        solution = solution.view(complex)
        for i, j in enumerate(members):
            k = ns[j]
            coefficients = solution[i, : k + 1].T
            p0 = solution[i, k + 1]
            moment_residual = np.abs(coefficients @ nodes[j] - linear)
            if omega.ndim == 0:
                coefficients, p0 = coefficients[0], complex(p0[0])
                moment_residual = float(moment_residual[0])
            solved[j] = coefficients, p0, moment_residual
    coefficients, p0, moment_residual = solved[0] if np.ndim(n) == 0 else map(tuple, zip(*solved))
    return CoefficientSystemSolution(
        coefficients=coefficients,
        p0=p0,
        residual=residual,
        condition=max(conditions),
        moment_residual=moment_residual,
    )


def _double_kernel_integral(c: float) -> float:
    """int_0^1 int_0^1 cos(c (x - y)) |x - y|/2 dx dy."""
    if c == 0.0:
        return 1.0 / 6.0
    return (2.0 * math.sin(c) / c - math.cos(c) - 1.0) / (c * c)


def error_norm_bruteforce(coeffs_real, coeffs_imag, omega, n: int):
    """Squared error norm of arbitrary weights on [0,1], from the quadratic form.

    Valid for weight vectors satisfying the constant-exactness constraint
    (the optimal weights do); independent of the closed-form norm formula.
    A 1-d omega of M frequencies takes (M, n+1) weight rows, one per
    frequency, and gives M norms from one Gram matrix.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.ndim > 1:
        raise ValueError(f"frequencies must be a scalar or 1-d, got shape {omega.shape}")
    cr = np.asarray(coeffs_real, dtype=float)
    ci = np.asarray(coeffs_imag, dtype=float)
    shape = omega.shape + (n + 1,)
    if cr.shape != shape or ci.shape != shape:
        raise ValueError(f"expected weight arrays of shape {shape}, got {cr.shape} and {ci.shape}")
    h = 1.0 / n
    nodes = h * np.arange(n + 1)
    double = [_double_kernel_integral(TWO_PI * om) for om in omega.reshape(-1).tolist()]

    gram = _kernel(nodes[:, None] - nodes[None, :])
    double_sum = np.vecdot(cr @ gram, cr) + np.vecdot(ci @ gram, ci)
    kernel = _kernel_integral(nodes, omega)
    cross = np.vecdot(cr, kernel.real) + np.vecdot(ci, kernel.imag)
    return -(double_sum - 2.0 * cross + np.reshape(double, omega.shape))


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

