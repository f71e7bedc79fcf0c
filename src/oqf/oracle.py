"""Independent verification machinery for the closed-form quadrature weights.

Everything here is deliberately naive: a dense Lagrange-system solve for the
weights, a brute-force evaluation of the squared error norm from its defining
quadratic form, and identity checks for the three-point discrete second
difference.  Every entry point takes 1-d frequencies, and the solve a 1-d
sequence of grid sizes, whose real Lagrange systems it factors once for
every complex right-hand side (see ``solve_coefficient_system``).  These
routes never share code with the closed forms they check: this module
imports no other ``oqf`` module.
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
    """Solutions of the dense (n+2) x (n+2) minimization systems on [0,1].

    coefficients, p0 and moment_residual hold one entry per grid size, in
    the order given: an (M, n+1) array, and two (M,) arrays, for M
    frequencies.  residual and condition are the worst over all grids.
    """

    coefficients: tuple[np.ndarray, ...] = field(repr=False)
    p0: tuple[np.ndarray, ...]
    residual: float
    condition: float
    moment_residual: tuple[np.ndarray, ...]


def _kernel(x):
    """G(x) = |x|/2, the reproducing kernel of the second-difference calculus."""
    return np.abs(x) / 2.0


def _exponentials(omegas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(omega == 0, z, e^z) with z = 2 pi i omega, and z = 2 pi i where omega == 0.

    ValueError unless omegas is 1-d.
    """
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 1:
        raise ValueError(f"frequencies must be 1-d, got shape {omegas.shape}")
    zero = omegas == 0.0
    z = 2j * math.pi * np.where(zero, 1.0, omegas)
    return zero, z, np.exp(z)


def _kernel_integral(t: np.ndarray, omegas) -> np.ndarray:
    """int_0^1 e^{2 pi i omega x} |x - t|/2 dx, a row per frequency and a column per t.

    Exact omega = 0 rows are t^2/2 - t/2 + 1/4.
    """
    zero, z, ez = (a[:, None] for a in _exponentials(omegas))
    value = -t / (2.0 * z) * (ez + 1.0) + (
        2.0 * np.exp(z * t) + (z - 1.0) * ez - 1.0
    ) / (2.0 * z * z)
    return np.where(zero, t * t / 2.0 - t / 2.0 + 0.25, value)


def _moments(omegas) -> tuple[np.ndarray, np.ndarray]:
    """int_0^1 e^{2 pi i omega x} dx and int_0^1 e^{2 pi i omega x} x dx, per frequency."""
    zero, z, ez = _exponentials(omegas)
    constant = np.where(zero, 1.0, (ez - 1.0) / z)
    linear = np.where(zero, 0.5, ez / z - (ez - 1.0) / (z * z))
    return constant, linear


def linear_moment(omegas) -> np.ndarray:
    """int_0^1 e^{2 pi i omega x} x dx at each of the 1-d frequencies."""
    return _moments(omegas)[1]


# Bordered systems of sizes 1..16, 17..32, ... form one size class each.
SIZE_CLASS = 16


def solve_coefficient_system(ns, omegas) -> CoefficientSystemSolution:
    """Solve the dense stationarity systems for the optimal weights on [0,1].

    ns is a non-empty 1-d sequence of integer grid sizes n >= 1, omegas 1-d
    frequencies.  For each n the unknowns are the n+1 weights and the
    Lagrange multiplier p0 of the constant-exactness constraint; also
    reported is the residual of the first-moment identity the solution must
    satisfy (exactness on x).

    The matrix is real (the Gram matrix of |x - y|/2 at the nodes, bordered
    by the constant-exactness row and column) and does not depend on the
    frequency; only the right-hand sides, the moments of e^{2 pi i omega x},
    are complex.  So it is factored once, in real arithmetic, for the real
    and imaginary parts of every frequency's; residual is the largest
    modulus over all right-hand sides.  condition is the matrix's 2-norm
    condition number; above 1e12, or not finite, it raises SolverFailure
    naming the first such n in ns.

    One table of e^{2 pi i omega t} serves the nodes t of every grid.  The
    bordered systems of n + 2 rows fall into SIZE_CLASS-row size classes,
    each padded with an identity block to its largest member and conditioned
    and solved by one stacked np.linalg.cond and np.linalg.solve.  The pad
    changes neither the solution (it is decoupled, with zero right-hand
    sides) nor the condition number: its singular values are 1, while every
    bordered matrix A has sigma_max >= sqrt(n+1) > 1 (its border column's
    norm) and sigma_min <= |A (e_0 - e_1)| / |e_0 - e_1| = sqrt(n+1) /
    (2 sqrt(2) n) < 1.
    """
    if np.ndim(ns) != 1 or not len(ns):
        raise ValueError(f"grid sizes must be a non-empty 1-d sequence, got {ns!r}")
    for k in ns:
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
            raise ValueError(f"grid sizes must be integers >= 1, got n={k!r}")
    nodes = [(1.0 / k) * np.arange(k + 1) for k in ns]
    constant, linear = _moments(omegas)
    offsets = np.cumsum([k + 1 for k in ns])[:-1]
    kernels = np.split(_kernel_integral(np.concatenate(nodes), omegas), offsets, axis=1)

    classes: dict[int, list[int]] = {}
    for j, k in enumerate(ns):
        classes.setdefault((k + 2 - 1) // SIZE_CLASS, []).append(j)  # n + 2 rows
    stacks, conditions = [], np.zeros(len(ns))
    for members in classes.values():
        size = max(ns[j] for j in members) + 2
        mat = np.zeros((len(members), size, size))
        rhs = np.zeros((len(members), size, constant.size), dtype=complex)  # C order, for the real view
        for i, j in enumerate(members):
            k = ns[j]
            mat[i, : k + 1, : k + 1] = _kernel(nodes[j][:, None] - nodes[j][None, :])
            mat[i, : k + 1, k + 1] = mat[i, k + 1, : k + 1] = 1.0
            pad = np.arange(k + 2, size)
            mat[i, pad, pad] = 1.0
            rhs[i, : k + 1] = kernels[j].T
            rhs[i, k + 1] = constant
        conditions[members] = np.linalg.cond(mat)
        stacks.append((members, mat, rhs))
    for k, condition in zip(ns, conditions.tolist()):
        if not condition <= 1e12:  # inf and NaN fail too
            raise SolverFailure(f"coefficient system for n={k} is ill-conditioned", condition)

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
            coefficients = solution[i, : ns[j] + 1].T
            moment_residual = np.abs(coefficients @ nodes[j] - linear)
            solved[j] = coefficients, solution[i, ns[j] + 1], moment_residual
    coefficients, p0, moment_residual = map(tuple, zip(*solved))
    return CoefficientSystemSolution(
        coefficients=coefficients,
        p0=p0,
        residual=residual,
        condition=float(conditions.max()),
        moment_residual=moment_residual,
    )


def _double_kernel_integral(c: float) -> float:
    """int_0^1 int_0^1 cos(c (x - y)) |x - y|/2 dx dy."""
    if c == 0.0:
        return 1.0 / 6.0
    return (2.0 * math.sin(c) / c - math.cos(c) - 1.0) / (c * c)


def error_norm_bruteforce(weights, omegas, n: int) -> np.ndarray:
    """Squared error norms of arbitrary weights on [0,1], from the quadratic form.

    weights is a complex (M, n+1) array, a row per frequency of the 1-d
    omegas, as coefficient_matrix returns it; the M norms come from one Gram
    matrix.  Valid for weight rows satisfying the constant-exactness
    constraint (the optimal weights do); independent of the closed-form
    norm formula.
    """
    h = 1.0 / n
    nodes = h * np.arange(n + 1)
    kernel = _kernel_integral(nodes, omegas)
    weights = np.asarray(weights)
    if not np.iscomplexobj(weights) or weights.shape != kernel.shape:
        raise ValueError(f"expected complex weights of shape {kernel.shape}, "
                         f"got {weights.dtype} of shape {weights.shape}")
    cr, ci = weights.real, weights.imag
    double = [_double_kernel_integral(TWO_PI * om) for om in np.asarray(omegas, float).tolist()]

    gram = _kernel(nodes[:, None] - nodes[None, :])
    double_sum = np.vecdot(cr @ gram, cr) + np.vecdot(ci @ gram, ci)
    cross = np.vecdot(cr, kernel.real) + np.vecdot(ci, kernel.imag)
    return -(double_sum - 2.0 * cross + np.array(double))


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

