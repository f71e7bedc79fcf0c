import functools
import math
import warnings

import numpy as np
import pytest

from oqf import oracle, verify
from oqf.grid import UniformGrid
from oqf.quadrature import coefficient_matrix, error_norm

TWO_PI = 2.0 * math.pi


def test_dense_solve_recovers_trapezoid_at_zero_frequency():
    sol = oracle.solve_coefficient_system([10], [0.0])
    expected = np.full(11, 0.1, dtype=complex)
    expected[0] = expected[-1] = 0.05
    np.testing.assert_allclose(sol.coefficients[0][0], expected, atol=1e-12)
    assert abs(sol.p0[0][0]) < 1e-10


def test_lagrange_multiplier_vanishes():
    for n, om in [(8, 2.0), (5, 0.7), (32, 9.5)]:
        sol = oracle.solve_coefficient_system([n], [om])
        assert abs(sol.p0[0][0]) < 1e-10
        assert sol.residual < 1e-10


def test_dense_solve_matches_closed_form():
    ns, omegas = (2, 8, 17, 32), (0.1, 0.3, 1.0, 2.7, 5.0, 10.0)
    sol = oracle.solve_coefficient_system(ns, omegas)
    for n, coefficients in zip(ns, sol.coefficients):
        closed = coefficient_matrix(UniformGrid(0.0, 1.0, n), omegas)
        assert np.abs(coefficients - closed).max() < 1e-10


def test_first_moment_identity():
    for n, om in [(8, 2.0), (16, 0.3), (4, 5.0), (12, 0.0)]:
        sol = oracle.solve_coefficient_system([n], [om])
        assert sol.moment_residual[0][0] < 1e-10


@pytest.mark.parametrize("n", [1, 2, 17, 32])
def test_frequency_array_rows_match_scalar_solves(n):
    # Each row of a many-frequency solve against a solve of its frequency alone.
    omegas = np.array([0.1, 0.3, 1.0, 2.7, 5.0, 10.0, -3.3])
    batch = oracle.solve_coefficient_system([n], omegas)
    assert batch.coefficients[0].shape == (len(omegas), n + 1)
    assert batch.p0[0].shape == batch.moment_residual[0].shape == (len(omegas),)
    assert batch.residual < 1e-10
    for k, om in enumerate(omegas):
        single = oracle.solve_coefficient_system([n], [om])
        assert single.coefficients[0].shape == (1, n + 1)
        assert np.abs(batch.coefficients[0][k] - single.coefficients[0][0]).max() <= 1e-15
        assert abs(batch.p0[0][k] - single.p0[0][0]) <= 1e-15
        assert abs(batch.moment_residual[0][k] - single.moment_residual[0][0]) <= 1e-15
        assert single.condition == batch.condition
        assert abs(oracle.linear_moment(omegas)[k] - oracle.linear_moment([om])[0]) <= 1e-15


def test_frequency_array_with_zero_gives_trapezoid_row_without_warning():
    n = 10
    expected = np.full(n + 1, 1.0 / n)
    expected[0] = expected[-1] = 0.5 / n
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = oracle.solve_coefficient_system([n], np.array([1.3, 0.0, -2.0]))
        moments = oracle.linear_moment(np.array([0.0, 1.3]))
        [brute] = oracle.error_norm_bruteforce(expected[None] + 0j, [0.0], n)
    np.testing.assert_allclose(sol.coefficients[0][1], expected, atol=1e-12)
    assert moments[0] == 0.5
    assert brute == pytest.approx(1.0 / (12.0 * n * n), rel=1e-9)


def test_frequency_array_must_be_one_dimensional():
    for omegas in (np.zeros((2, 2)), 1.0):  # a scalar frequency too
        with pytest.raises(ValueError, match="frequencies must be 1-d"):
            oracle.solve_coefficient_system([4], omegas)
        with pytest.raises(ValueError, match="frequencies must be 1-d"):
            oracle.linear_moment(omegas)
        with pytest.raises(ValueError, match="frequencies must be 1-d"):
            oracle.error_norm_bruteforce(np.zeros((1, 5), dtype=complex), omegas, 4)


def _complex_solve(n, omegas):
    # The system as one complex matrix, the formulation the real solve replaces.
    nodes = np.arange(n + 1) / n
    mat = np.zeros((n + 2, n + 2), dtype=complex)
    mat[: n + 1, : n + 1] = oracle._kernel(nodes[:, None] - nodes[None, :])
    mat[: n + 1, n + 1] = mat[n + 1, : n + 1] = 1.0
    rhs = np.vstack([oracle._kernel_integral(nodes, omegas).T, oracle._moments(omegas)[0]])
    solution = np.linalg.solve(mat, rhs)
    return solution[: n + 1].T, solution[n + 1], float(np.linalg.cond(mat))


@functools.cache
def _grouped_solve():
    """One grouped solve over n = 2..32 at verify.OMEGAS, and the worst
    condition of the complex formulation over those grids."""
    ns = range(2, 33)
    omegas = np.array(verify.OMEGAS)
    worst = max(_complex_solve(n, omegas)[2] for n in ns)
    return oracle.solve_coefficient_system(ns, omegas), worst


@pytest.mark.parametrize("n", range(2, 33))
def test_real_solve_matches_complex_formulation(n):
    omegas = np.array(verify.OMEGAS)
    sol = oracle.solve_coefficient_system([n], omegas)
    coefficients, p0, condition = _complex_solve(n, omegas)
    # Two backward-stable solves agree to about condition * eps of the weights:
    # at most 3.5e-14 (at n = 29), the condition being at most about 1200.
    assert np.abs(sol.coefficients[0] - coefficients).max() <= 1e-13
    assert np.abs(sol.p0[0] - p0).max() <= 1e-15
    assert sol.condition == pytest.approx(condition, rel=1e-12)
    assert sol.residual < 1e-10
    # The same grid out of one grouped call, padded within its size class.
    grouped, worst = _grouped_solve()
    assert np.abs(grouped.coefficients[n - 2] - coefficients).max() <= 1e-13
    assert np.abs(grouped.p0[n - 2] - p0).max() <= 1e-15
    assert grouped.condition == pytest.approx(worst, rel=1e-12)
    assert grouped.residual < 1e-10


@pytest.mark.parametrize("omega", [np.array(verify.OMEGAS), 2.7])
def test_grouped_solve_matches_solves_one_grid_at_a_time(omega):
    ns = (1,) + verify.FULL_NS
    omegas = np.atleast_1d(omega)
    grouped = oracle.solve_coefficient_system(ns, omegas)
    singles = [oracle.solve_coefficient_system([n], omegas) for n in ns]
    assert grouped.condition == pytest.approx(max(s.condition for s in singles), rel=1e-12)
    assert grouped.residual <= 1e-10
    for n, single, coefficients, p0, moment_residual in zip(
            ns, singles, grouped.coefficients, grouped.p0, grouped.moment_residual):
        assert coefficients.shape == single.coefficients[0].shape == (omegas.size, n + 1)
        assert p0.shape == moment_residual.shape == (omegas.size,)
        assert np.abs(coefficients - single.coefficients[0]).max() <= 1e-13
        assert np.abs(p0 - single.p0[0]).max() <= 1e-15
        assert np.abs(moment_residual - single.moment_residual[0]).max() <= 1e-15


def test_grid_sizes_must_be_positive_and_at_most_one_dimensional():
    with pytest.raises(ValueError, match="n=0"):
        oracle.solve_coefficient_system([4, 0], [1.0])
    # A bare int, a float or a bool is no grid size.
    for ns, match in [([], "non-empty 1-d"), ([[4]], "non-empty 1-d"), (4, "non-empty 1-d"),
                      ([4.0], "n=4.0"), ([4, True], "n=True"), (np.array([4.0]), "integers")]:
        with pytest.raises(ValueError, match=match):
            oracle.solve_coefficient_system(ns, [1.0])


def test_singular_system_raises_solver_failure(monkeypatch):
    # With a zero kernel the bordered matrix has rank 2.
    monkeypatch.setattr(oracle, "_kernel", np.zeros_like)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(oracle.SolverFailure, match="ill-conditioned") as failure:
            oracle.solve_coefficient_system([8], np.array(verify.OMEGAS))
    condition = failure.value.condition
    assert not np.isfinite(condition) or condition > 1e12
    # A grouped call fails on the first grid in n's order, and names it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(oracle.SolverFailure, match="n=3 is ill-conditioned") as failure:
            oracle.solve_coefficient_system([3] + list(verify.FAST_NS), np.array(verify.OMEGAS))
    condition = failure.value.condition
    assert not np.isfinite(condition) or condition > 1e12


def test_grouped_solver_failure_names_the_singular_grid(monkeypatch):
    # Only the 9 x 9 Gram block, n = 8's, is zero; its class-mates are sound.
    kernel = oracle._kernel
    monkeypatch.setattr(oracle, "_kernel", lambda x: np.zeros_like(x) if len(x) == 9 else kernel(x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(oracle.SolverFailure, match="n=8 is ill-conditioned"):
            oracle.solve_coefficient_system(verify.FAST_NS, np.array(verify.OMEGAS))


def test_bruteforce_norm_trapezoid():
    for n in (4, 10, 16):
        w = np.full((1, n + 1), 1.0 / n, dtype=complex)
        w[0, 0] = w[0, -1] = 0.5 / n
        [value] = oracle.error_norm_bruteforce(w, [0.0], n)
        assert value == pytest.approx(1.0 / (12.0 * n * n), rel=1e-9)


def test_bruteforce_norm_matches_closed_form():
    for n in (4, 8, 16):
        for om in (0.3, 1.0, 2.7):
            c = coefficient_matrix(UniformGrid(0.0, 1.0, n), [om])
            [brute] = oracle.error_norm_bruteforce(c, [om], n)
            assert abs(brute - error_norm(om, 1.0 / n)) < 1e-9
        # One call over the frequencies, with one row of weights each.
        omegas = (0.3, 1.0, 2.7, 0.0)
        rows = coefficient_matrix(UniformGrid(0.0, 1.0, n), omegas)
        brute = oracle.error_norm_bruteforce(rows, omegas, n)
        assert brute.shape == (len(omegas),)
        for row, om, value in zip(rows, omegas, brute):
            assert abs(value - oracle.error_norm_bruteforce(row[None], [om], n)[0]) <= 1e-16
        with pytest.raises(ValueError, match="shape"):
            oracle.error_norm_bruteforce(rows, omegas[:3], n)


def test_bruteforce_norm_length_mismatch():
    with pytest.raises(ValueError, match="shape"):
        oracle.error_norm_bruteforce(np.zeros((1, 4), dtype=complex), [1.0], 4)
    # The weights come as complex rows, not as their real and imaginary parts.
    rows = coefficient_matrix(UniformGrid(0.0, 1.0, 4), [1.0])
    with pytest.raises(ValueError, match="complex"):
        oracle.error_norm_bruteforce(rows.real, [1.0], 4)


def test_minimality_under_constraint_preserving_perturbations():
    # Perturbations with zero component sums keep the exactness-on-constants
    # constraint intact, where the quadratic form is the true squared norm;
    # there the optimal weights are a genuine minimum.  (Perturbations that
    # break the constraint leave the form's feasible region and can lower
    # its value without meaning anything.)
    rng = np.random.default_rng(42)
    n, om = 10, [1.0]
    c = coefficient_matrix(UniformGrid(0.0, 1.0, n), om)
    [base] = oracle.error_norm_bruteforce(c, om, n)
    for _ in range(50):
        dr = rng.normal(size=n + 1)
        di = rng.normal(size=n + 1)
        dr -= dr.mean()
        di -= di.mean()
        dr *= 1e-2 / np.linalg.norm(dr)
        di *= 1e-2 / np.linalg.norm(di)
        [perturbed] = oracle.error_norm_bruteforce(c + (dr + 1j * di), om, n)
        assert perturbed >= base


def test_discrete_operator_identities():
    report = oracle.discrete_operator_identities(0.1, 8)
    for name, dev in report.items():
        assert dev <= 1e-14, f"{name} deviates by {dev}"


def test_discrete_operator_stencil_values():
    window = oracle.second_difference_window(0.1, 5)
    assert window[0] == pytest.approx(-2.0 / 0.01)
    assert window[1] == window[-1] == pytest.approx(1.0 / 0.01)
    assert window[3] == 0.0 and window[-4] == 0.0


def test_delta_convolution_pointwise():
    h = 0.1
    stencil = oracle.second_difference_window(h, 8)
    conv = lambda beta: h * sum(
        stencil[g] * abs(h * (beta - g)) / 2.0 for g in (-1, 0, 1)
    )
    assert conv(0) == pytest.approx(1.0, abs=1e-14)
    assert conv(3) == pytest.approx(0.0, abs=1e-14)
