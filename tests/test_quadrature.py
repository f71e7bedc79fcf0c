import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oqf import oracle, quadrature
from oqf.grid import UniformGrid
from oqf.quadrature import (
    SMALL_THETA,
    apply_weights,
    coefficient_matrix,
    error_norm,
    monomial_fourier_integral,
)

TWO_PI = 2.0 * math.pi


def test_grid_invariants():
    g = UniformGrid(0.0, 1.0, 10)
    assert g.h == 0.1
    assert g.nodes()[0] == 0.0
    assert abs(g.nodes()[10] - 1.0) < 1e-15
    with pytest.raises(ValueError):
        UniformGrid(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        UniformGrid(0.0, 1.0, 0)


@pytest.mark.parametrize("n", [2.5, 4.0, True, np.True_, float("nan"), "4", None])
def test_grid_subinterval_count_must_be_an_integer(n):
    # n = 2.5 would put the last node at 1.2, past b, and NaN is not below 1.
    with pytest.raises(ValueError, match="integer n >= 1"):
        UniformGrid(0.0, 1.0, n)


def test_grid_takes_numpy_integer_counts():
    assert UniformGrid(0.0, 1.0, np.int64(4)).h == 0.25


def test_trapezoid_limit():
    c = coefficient_matrix(UniformGrid(0.0, 1.0, 10), 0.0)
    expected = np.full(11, 0.1)
    expected[0] = expected[-1] = 0.05
    np.testing.assert_allclose(c.real, expected, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(c.imag, 0.0)


def test_coefficient_matrix_maps_from_unit_interval():
    # x = a + (b - a) u turns the weights on [a, b] at omega into
    # (b - a) e^{2 pi i omega a} times those on [0, 1] at omega (b - a).
    a, b, om, n = -1.0, 1.0, 0.5, 8
    c01 = coefficient_matrix(UniformGrid(0.0, 1.0, n), om * (b - a))
    mapped = (b - a) * np.exp(2j * math.pi * om * a) * c01
    direct = coefficient_matrix(UniformGrid(a, b, n), om)
    assert np.abs(mapped - direct).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 9, 64])
def test_weights_are_exact_hat_integrals(n):
    # Schoenberg (1964): the optimal rule integrates the piecewise-linear
    # interpolant exactly, so weight j is the integral of hat j (a half-hat at
    # either end) times e^{2 pi i omega x}.  Gauss-Legendre on each panel, with
    # enough nodes for |2 pi omega h|, shares no code with the closed forms.
    grid = UniformGrid(-0.7, 1.9, n)
    h = grid.h
    for omega in (0.0, -2.7, 0.37, 1.0, 5.0, 10.0, 41.0):
        s, g = np.polynomial.legendre.leggauss(20 + int(abs(TWO_PI * omega * h)))
        u = (s + 1.0) / 2.0  # position within a panel
        kernel = h / 2.0 * g * np.exp(2j * math.pi * omega * (grid.nodes()[:-1, None] + h * u))
        expected = np.zeros(n + 1, dtype=complex)
        expected[:-1] += (kernel * (1.0 - u)).sum(axis=1)  # hat j falls across panel j
        expected[1:] += (kernel * u).sum(axis=1)           # hat j + 1 rises across it
        assert np.abs(coefficient_matrix(grid, omega) - expected).max() <= 1e-12


def test_integer_omega_h_kills_interior():
    c = coefficient_matrix(UniformGrid(0.0, 1.0, 4), 4.0)
    assert np.abs(c[1:-1]).max() == 0.0
    # The general closed form gives +i/(2 pi omega) at the left endpoint;
    # the dense solve (see test_oracle) agrees with this sign.
    assert c[0] == pytest.approx(1j / (TWO_PI * 4.0))
    assert c[-1] == pytest.approx(-1j / (TWO_PI * 4.0))


def test_cosine_closed_form_n2():
    # C_1^R at N=2, omega=1 on [0,1]: h*2(1-cos(pi))/pi^2 * cos(pi) = -2/pi^2
    vals = coefficient_matrix(UniformGrid(0.0, 1.0, 2), 1.0).real
    assert vals[1] == pytest.approx(-2.0 / math.pi**2, rel=1e-12)


def test_sine_closed_form_n2():
    # C_0^I at N=2, omega=1 on [0,1]: h*(pi - sin(pi))/pi^2 = 1/(2 pi)
    vals = coefficient_matrix(UniformGrid(0.0, 1.0, 2), 1.0).imag
    assert vals[0] == pytest.approx(1.0 / TWO_PI, rel=1e-12)


def test_weights_real_at_zero_frequency():
    np.testing.assert_array_equal(coefficient_matrix(UniformGrid(0.0, 1.0, 6), 0.0).imag, 0.0)


def test_error_norm_trapezoid_and_integer_cases():
    assert error_norm(0.0, 0.1) == pytest.approx(0.01 / 12.0, rel=1e-13)
    assert error_norm(10.0, 0.1) == pytest.approx(
        1.0 / (TWO_PI * 10.0) ** 2, rel=1e-13
    )
    with pytest.raises(ValueError):
        error_norm(1.0, 0.0)


def test_error_norm_rejects_non_finite_frequency():
    for omegas in (math.nan, math.inf, -math.inf, [0.0, math.nan]):
        with pytest.raises(ValueError, match="frequencies must be finite"):
            error_norm(omegas, 0.1)


def test_error_norm_rejects_step_not_finite_and_positive():
    for h in (math.inf, math.nan, 0.0, -0.1):
        with pytest.raises(ValueError, match="step"):
            error_norm(1.0, h)


def test_error_norm_array_spans_both_branches():
    n = 8
    h = 1.0 / n
    edge = SMALL_THETA / (TWO_PI * h)
    omegas = np.concatenate(
        [[0.0, edge, -edge, np.nextafter(edge, 0.0)], np.linspace(-5.0, 5.0, 21)]
    )
    theta = np.abs(TWO_PI * omegas * h)
    assert (theta < SMALL_THETA).any() and (theta >= SMALL_THETA).any()
    norm_sq = error_norm(omegas, h)
    assert norm_sq.shape == omegas.shape
    assert isinstance(error_norm(0.0, h), float)
    weights = coefficient_matrix(UniformGrid(0.0, 1.0, n), omegas)
    for brute, value in zip(oracle.error_norm_bruteforce(weights, omegas, n), norm_sq):
        assert abs(brute - value) < 1e-9
    assert norm_sq[0] == pytest.approx(h * h / 12.0, rel=1e-13)


def test_error_norm_small_h_expansion():
    # norm_sq = h^2/12 - pi^2 w^2 h^4/90 + O(h^6) at fixed omega
    for h in (1e-2, 1e-3):
        om = 1.0
        expansion = h * h / 12.0 - math.pi**2 * om * om * h**4 / 90.0
        bound = 2.0 * math.pi**4 * om**4 * h**6 / 1260.0
        assert abs(error_norm(om, h) - expansion) < bound


def test_norm_positive_and_bounded_by_trapezoid_value():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        om = rng.uniform(-50.0, 50.0)
        h = rng.uniform(1e-4, 1.0)
        ns = error_norm(om, h)
        assert 0.0 <= ns <= h * h / 12.0 + 1e-18


def test_weights_exact_on_constants_and_linears():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = rng.uniform(-5.0, 5.0)
        b = a + rng.uniform(0.1, 10.0)
        n = int(rng.integers(1, 40))
        om = rng.uniform(-10.0, 10.0)
        g = UniformGrid(a, b, n)
        w = coefficient_matrix(g, om)
        g0 = monomial_fourier_integral(0, om, a, b)
        g1 = monomial_fourier_integral(1, om, a, b)
        assert abs(w @ np.ones(n + 1) - g0) < 1e-12 * abs(g0) + 1e-14
        assert abs(w @ g.nodes() - g1) < 1e-12 * abs(g1) + 1e-14


def test_quadratic_error_ratio_order_h_squared():
    for om in (0.25, 0.5, 1.0):
        errors = {}
        for n in (20, 200):
            g = UniformGrid(-1.0, 1.0, n)
            w = coefficient_matrix(g, om)
            exact = monomial_fourier_integral(2, om, -1.0, 1.0)
            errors[n] = abs(w @ g.nodes() ** 2 - exact)
        if errors[200] > 1e-13:
            assert 50.0 <= errors[20] / errors[200] <= 200.0


def test_monomial_integral_examples():
    assert monomial_fourier_integral(0, 0.5, -1.0, 1.0) == pytest.approx(
        0.0, abs=1e-15
    )
    assert monomial_fourier_integral(2, 0.0, -1.0, 1.0) == pytest.approx(2.0 / 3.0)
    assert monomial_fourier_integral(1, 0.0, 2.0, 5.0) == pytest.approx(
        (25.0 - 4.0) / 2.0
    )


def test_monomial_integral_matches_reference_specializations():
    # against the [-1, 1] closed forms for alpha = 0, 1, 2
    for om in (0.3, 1.7, -2.2):
        c = TWO_PI * om
        g0 = math.sin(c) / (math.pi * om)
        g1 = 2j / c**2 * (math.sin(c) - c * math.cos(c))
        g2 = 4.0 / c**3 * ((c * c / 2.0 - 1.0) * math.sin(c) + c * math.cos(c))
        assert monomial_fourier_integral(0, om, -1, 1) == pytest.approx(g0, abs=1e-13)
        assert monomial_fourier_integral(1, om, -1, 1) == pytest.approx(g1, abs=1e-13)
        assert monomial_fourier_integral(2, om, -1, 1) == pytest.approx(g2, abs=1e-13)


def test_monomial_integral_against_quadrature_oracle():
    # dense trapezoid refinement as an independent numeric check
    rng = np.random.default_rng(3)
    cases = []
    for alpha in range(9):
        om = rng.uniform(-3.0, 3.0)
        a = rng.uniform(-2.0, 0.0)
        b = a + rng.uniform(0.5, 3.0)
        cases.append((alpha, om, a, b))
    # high degrees at small |2 pi omega| (b - a), where the closed form cancels
    for alpha in (4, 6, 8):
        for a, b in ((-1.0, 1.0), (-2.0, 1.0)):
            for zl in (0.51, 1.0, 2.0):
                cases.append((alpha, zl / (TWO_PI * (b - a)), a, b))
    for alpha, om, a, b in cases:
        xs = np.linspace(a, b, 400001)
        numeric = np.trapezoid(np.exp(2j * math.pi * om * xs) * xs**alpha, xs)
        value = monomial_fourier_integral(alpha, om, a, b)
        assert abs(value - numeric) < 1e-9 * max(1.0, abs(numeric))


def _same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def test_monomial_integral_array_matches_elementwise_calls():
    omegas = np.array([-3.1, -0.2, -0.0, 0.0, 1e-9, 0.05, 0.4, 2.9, 40.0])
    rng = np.random.default_rng(8)
    for alpha in range(9):
        for a, b in ((-1.0, 1.0), (-1.5, 2.0), (3.0, 3.5)):
            values = monomial_fourier_integral(alpha, omegas, a, b)
            assert values.shape == omegas.shape
            singles = [monomial_fourier_integral(alpha, om, a, b) for om in omegas]
            assert all(isinstance(v, complex) for v in singles)
            np.testing.assert_array_equal(values, singles)
        # One Horner pass over the rows of the closed form's two (alpha + 1)-term
        # polynomials, and of the series' alpha + 1 polynomials of 24 + 2 alpha
        # terms, equals one np.polyval call per row, bit for bit.
        x = rng.normal(size=7) + 1j * rng.normal(size=7)
        for rows in (2, alpha + 1):
            coeffs = rng.normal(size=(rows, alpha + 1 if rows == 2 else 24 + 2 * alpha))
            batched = quadrature._polyval_rows(coeffs, x)
            _same_bits(batched, np.array([np.polyval(row, x) for row in coeffs]))


def test_monomial_integral_at_zero_alone_equals_the_full_taylor_pass():
    # Where omega = 0 is the only Taylor entry, the recurrence is skipped; one
    # more entry at omega = 1e-3 makes the call run it, and every value is
    # computed per entry, so each shared entry must keep its bits.
    lattices = ([0.0], [-0.0], [-40.0, 0.0, 40.0], np.linspace(-50.0, 50.0, 11), [])
    for alpha in range(9):
        for a, b in ((-1.0, 1.0), (-1.5, 2.0), (3.0, 3.5), (-2.0, 0.0)):
            for lattice in lattices:
                skipped = monomial_fourier_integral(alpha, np.asarray(lattice), a, b)
                full = monomial_fourier_integral(alpha, np.append(lattice, 1e-3), a, b)
                _same_bits(skipped, full[:-1])


def _horner_taylor(alpha, omegas, a, b):
    # The Taylor branch as one Horner pass per series of 24 + 2 alpha terms,
    # scaled and summed series by series: the reference for the power table.
    z = 2j * math.pi * np.asarray(omegas, dtype=float)
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    total = np.zeros(z.shape, dtype=complex)
    for j in range(alpha + 1):
        series = [2.0 / (math.factorial(i) * (j + i + 1)) if (j + i) % 2 == 0 else 0.0
                  for i in range(24 + 2 * alpha)]
        scale = math.comb(alpha, j) * c ** (alpha - j) * r ** (j + 1)
        total += scale * np.polyval(series[::-1], z * r)
    return np.exp(z * c) * total


def test_monomial_integral_taylor_branch_matches_horner():
    # Over the branch's whole range |2 pi omega| (b - a) <= max(1, alpha), the
    # evaluation stays within 2e-15 max(1, |I|) of the Horner passes.
    for alpha in range(9):
        for a, b in ((-1.0, 1.0), (-1.5, 2.0), (3.0, 3.5)):
            limit = max(1.0, alpha) / (TWO_PI * (b - a))
            omegas = np.concatenate([np.linspace(-limit, limit, 401), [1e-300, -1e-9]])
            omegas = omegas[np.abs(2 * math.pi * omegas) * (b - a) <= max(1.0, alpha)]
            assert omegas.size >= 400
            values = monomial_fourier_integral(alpha, omegas, a, b)
            reference = _horner_taylor(alpha, omegas, a, b)
            assert np.all(np.abs(values - reference)
                          <= 2e-15 * np.maximum(1.0, np.abs(reference))), (alpha, a, b)


def test_monomial_conjugate_symmetry():
    for alpha in (0, 1, 3, 6):
        for om in (0.4, 2.9):
            plus = monomial_fourier_integral(alpha, om, -1.5, 2.0)
            minus = monomial_fourier_integral(alpha, -om, -1.5, 2.0)
            assert minus == pytest.approx(np.conj(plus), rel=1e-12, abs=1e-14)


@given(
    n=st.integers(min_value=1, max_value=60),
    om=st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_conjugate_symmetry_of_coefficients(n, om):
    g = UniformGrid(-0.7, 1.3, n)
    plus = coefficient_matrix(g, om)
    minus = coefficient_matrix(g, -om)
    np.testing.assert_allclose(minus, np.conj(plus), rtol=0, atol=1e-15)


@given(
    n=st.integers(min_value=3, max_value=64),
    om=st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_interior_moduli_identical(n, om):
    c = coefficient_matrix(UniformGrid(0.0, 2.0, n), om)
    mods = np.abs(c[1:-1])
    assert mods.max() - mods.min() <= 1e-16 + 1e-12 * mods.max()


def test_zero_frequency_weights_sum_to_length():
    for a, b, n in [(0.0, 1.0, 5), (-3.0, 2.0, 17)]:
        c = coefficient_matrix(UniformGrid(a, b, n), 0.0)
        assert c.sum().real == pytest.approx(b - a, rel=1e-15)


def test_series_and_direct_branches_agree():
    # the small-angle series takes over below 2 pi omega h = 0.5
    g = UniformGrid(0.0, 1.0, 10)
    thetas = (0.45, 0.55)
    # both sides of the switch must satisfy exactness on constants
    for theta in thetas:
        om = theta / (TWO_PI * 0.1)
        vals = coefficient_matrix(g, om)
        g0 = monomial_fourier_integral(0, om, 0.0, 1.0)
        assert abs(vals.sum() - g0) < 1e-13


@pytest.mark.xfail(
    reason="stated bound is below the first-order frequency sensitivity "
    "2*pi*eps*h*max|node| of the weights, which is ~6e-8 here",
    strict=True,
)
def test_continuity_at_zero_frequency_stated_bound():
    g = UniformGrid(0.0, 1.0, 100)
    diff = np.abs(coefficient_matrix(g, 1e-6) - coefficient_matrix(g, 0.0)).max()
    assert diff < 1e-8


def test_continuity_at_zero_frequency_first_order_rate():
    g = UniformGrid(0.0, 1.0, 100)
    zero = coefficient_matrix(g, 0.0)
    prev = None
    for eps in (1e-4, 1e-5, 1e-6, 1e-7):
        diff = np.abs(coefficient_matrix(g, eps) - zero).max()
        assert diff <= 2.0 * TWO_PI * eps * g.h  # first-order sensitivity bound
        if prev is not None:
            assert diff < prev
        prev = diff


def test_coefficient_matrix_rows_match_single_calls():
    g = UniformGrid(-1.0, 1.0, 12)
    omegas = np.array([-3.3, 0.0, 0.2, 7.7])
    mat = coefficient_matrix(g, omegas)
    assert mat.shape == (4, 13)
    for row, om in zip(mat, omegas):
        single = coefficient_matrix(g, float(om))
        assert single.shape == (13,)
        np.testing.assert_array_equal(row, single)


def _grid_sets(seed, count):
    """``count`` seeded sets of 1-6 grids, n = 1..64 on intervals of widths
    1e-3..1e3, each with frequencies that hold 0 and both signs."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        grids = []
        for _ in range(rng.integers(1, 7)):
            a = rng.normal() * 10.0 ** rng.uniform(-2, 2)
            grids.append(UniformGrid(a, a + 10.0 ** rng.uniform(-3, 3), int(rng.integers(1, 65))))
        omegas = rng.normal(size=rng.integers(1, 8)) * 10.0 ** rng.uniform(-3, 2)
        yield grids, np.append(omegas / max(g.h for g in grids), [0.0, -1.0])


def test_coefficient_matrices_equal_one_grid_calls_bit_for_bit():
    # One pass over a set of grids gives each grid coefficient_matrix's bits.
    # The last set's theta = 2 pi omega h straddles SMALL_THETA on every grid.
    grid = UniformGrid(-0.4, 2.2, 13)
    ratios = np.array([-40.0, -2.0, -1.0, -0.999, 0.0, 1.0, 3.0, 40.0])
    straddle = ([grid, UniformGrid(0.0, 1.0, 64), UniformGrid(3.0, 3.5, 1)],
                SMALL_THETA / (TWO_PI * grid.h) * ratios)
    for grids, omegas in [*_grid_sets(11, 200), straddle]:
        blocks = quadrature._coefficient_matrices(grids, omegas)
        assert len(blocks) == len(grids)
        for grid, block in zip(grids, blocks):
            _same_bits(block, coefficient_matrix(grid, omegas))
    for grid in straddle[0]:
        small = np.abs(TWO_PI * straddle[1] * grid.h) < SMALL_THETA
        assert small.any() and not small.all()


def test_coefficient_matrices_refuse_a_frequency_as_its_grid_alone():
    # The limit |2 pi omega max(h, 1)| <= 2**511 is lowest at the largest
    # step; a frequency past it raises what that grid alone raises.
    wide = UniformGrid(0.0, 1000.0, 4)  # h = 250
    grids = [UniformGrid(0.0, 1.0, 8), wide, UniformGrid(-3.0, 3.0, 2)]
    omega = 2.0**511 / (TWO_PI * 250.0) * 1.0000001  # within the other grids' limits
    coefficient_matrix(grids[2], omega)
    with pytest.raises(ValueError) as alone:
        coefficient_matrix(wide, [0.0, omega])
    with pytest.raises(ValueError) as together:
        quadrature._coefficient_matrices(grids, [0.0, omega])
    assert str(together.value) == str(alone.value)
    assert "at h = 250" in str(alone.value)


def test_coefficient_matrices_at_a_step_whose_frequency_limit_is_zero():
    # At h = max float / 3, 2 pi h overflows (quietly, in Python floats) and
    # the limit is 0, so omega = 0 alone passes, with no warning.
    grids = [UniformGrid(0.0, 1.0, 4), UniformGrid(0.0, 1.7976931348623157e308, 3)]
    for grid, block in zip(grids, quadrature._coefficient_matrices(grids, [0.0])):
        _same_bits(block, coefficient_matrix(grid, [0.0]))
    with pytest.raises(ValueError, match=r"\|omega\| <= 0 "):
        quadrature._coefficient_matrices(grids, [1e-300])


def test_coefficient_matrix_peak_memory_is_below_three_results():
    # 1024 nodes x 1024 frequencies, apply_weights' largest dense block: the
    # phases are exponentiated and scaled in place, and the phase reduction
    # holds one temporary fewer, so the traced peak is 2.5x the 16 MiB result
    # (it was 3.0x, 48.1 MiB).
    import tracemalloc

    grid = UniformGrid(-1.0, 2.0, 1023)
    omegas = np.linspace(-300.0, 300.0, 1024)
    tracemalloc.start()
    try:
        result = coefficient_matrix(grid, omegas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.shape == (1024, 1024)
    assert peak <= 2.6 * result.nbytes


def test_grid_rejects_non_finite_ends():
    for a, b, n in [(0.0, math.inf, 4), (math.nan, 1.0, 4), (-1e308, 1e308, 1)]:
        with pytest.raises(ValueError):
            UniformGrid(a, b, n)


def test_single_interval_weights_are_the_end_node_rule():
    # With n = 1 both nodes are end nodes: [h L e^{2 pi i omega a},
    # conj(h L) e^{2 pi i omega b}], L = _left_factor(2 pi omega h).
    grid = UniformGrid(-0.3, 1.1, 1)
    h = grid.h
    np.testing.assert_array_equal(coefficient_matrix(grid, 0.0), [h / 2, h / 2])
    # 1e-160: theta^2 underflows and L's discarded direct form overflows, silently
    for theta in (0.0, 1e-160, 0.5 * SMALL_THETA, SMALL_THETA, 3.0 * SMALL_THETA, -7.0):
        omega = theta / (TWO_PI * h)
        end = h * quadrature._left_factor(np.full(2, TWO_PI * omega * h))
        end[1] = np.conj(end[1])
        expected = end * np.exp(2j * math.pi * (omega * grid.nodes()))
        np.testing.assert_array_equal(coefficient_matrix(grid, omega), expected)
        np.testing.assert_array_equal(coefficient_matrix(grid, [omega, omega])[1], expected)


def test_coefficient_matrix_rejects_non_finite_frequency():
    g = UniformGrid(0.0, 1.0, 4)
    for omegas in ([math.nan], [0.0, math.inf]):
        with pytest.raises(ValueError, match="finite"):
            coefficient_matrix(g, omegas)
        with pytest.raises(ValueError, match="finite"):
            apply_weights(g, omegas, np.ones(5))
    with pytest.raises(ValueError, match="finite"):
        apply_weights(g, [0.0, 1.0], np.array([1.0, math.nan, 0.0, 0.0, 0.0]))
    for omegas in (math.nan, [0.0, math.inf], [[0.0]]):
        with pytest.raises(ValueError):
            monomial_fourier_integral(1, omegas, 0.0, 1.0)


@pytest.mark.parametrize("grid, omegas", [
    (UniformGrid(0.0, 1.0, 2), np.linspace(-1.0, 1.0, 201)),      # chirp-z
    (UniformGrid(-3.0, 1.0, 5000), np.linspace(-300.0, 300.0, 20001)),
    (UniformGrid(0.0, 1.0, 1), np.linspace(-3.0, 3.0, 40000)),    # two chirp blocks
    (UniformGrid(-0.7, 1.9, 64), np.array([0.0, 0.3, 2.0])),      # dense
    (UniformGrid(0.0, 1e290, 9), np.array([0.0, 1e-291, 3e-291])),
    (UniformGrid(0.0, 1e290, 9), np.linspace(-1e-150, 1e-150, 201)),
])
def test_apply_weights_sample_bound(grid, omegas):
    # F = max(|Re f|, |Im f|) up to 2**1020 / max(N**3, b - a), N = 2 (m + n)
    # with m the frequencies of one chirp-z block, overflows nowhere.
    m = min(omegas.size, max(quadrature._CHIRP_BLOCK, grid.n + 1))
    limit = 2.0**1020 / max((2.0 * (m + grid.n)) ** 3, grid.b - grid.a)
    phases = np.exp(1j * np.random.default_rng(5).uniform(0.0, TWO_PI, grid.n + 1))
    with np.errstate(all="raise"):
        for values in (np.full(grid.n + 1, limit * (1 + 1j)), limit * phases,
                       np.full(grid.n + 1, -limit)):
            assert np.isfinite(apply_weights(grid, omegas, values)).all()
    for bad in (np.nextafter(limit, math.inf), 1e308, math.inf, -math.inf, math.nan):
        for part in ("real", "imag"):
            values = np.zeros((grid.n + 1, 2), dtype=complex)[:, :1]  # strided columns
            getattr(values, part)[-1] = bad
            with pytest.raises(ValueError, match="finite"):
                apply_weights(grid, omegas, values)


def test_series_branches_equal_numpy_polynomial_polyval():
    # np.polyval on the descending coefficients performs the same Horner
    # steps as numpy.polynomial's polyval on the ascending ones.
    from numpy.polynomial.polynomial import polyval

    thetas = np.linspace(-2.0 * SMALL_THETA, 2.0 * SMALL_THETA, 4001)
    small = np.abs(thetas) < SMALL_THETA
    t = thetas[small]
    np.testing.assert_array_equal(
        quadrature._interior_factor(thetas)[small],
        polyval(t * t, quadrature._INTERIOR_SERIES[::-1]),
    )
    np.testing.assert_array_equal(
        quadrature._left_factor(thetas)[small],
        polyval(1j * t, quadrature._LEFT_SERIES[::-1]),
    )
    h = 0.01
    for omega in t / (TWO_PI * h):
        theta = TWO_PI * omega * h
        expected = h * h * float(polyval(theta * theta, quadrature._NORM_SERIES[::-1]))
        assert error_norm(omega, h) == expected


def _two_branch(theta, series, direct):
    # Reference: both forms on every entry, the series on theta zeroed outside
    # its range, then np.where picks one per entry.
    small = np.abs(theta) < SMALL_THETA
    near = series(np.where(small, theta, 0.0))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(small, near, direct(theta))


def _interior_two_branch(theta):
    return _two_branch(theta, lambda t: np.polyval(quadrature._INTERIOR_SERIES, t * t),
                       lambda t: 2.0 * (1.0 - np.cos(t)) / (t * t))


def _left_two_branch(theta):
    return _two_branch(theta, lambda t: np.polyval(quadrature._LEFT_SERIES, 1j * t),
                       lambda t: (1.0 + 1j * t - np.exp(1j * t)) / (t * t))


def _error_norm_two_branch(omegas, h):
    return _two_branch(TWO_PI * omegas * h,
                       lambda t: h * h * np.polyval(quadrature._NORM_SERIES, t * t),
                       lambda t: (1.0 - _interior_two_branch(t)) / (TWO_PI * omegas) ** 2)


def _around(edge):
    """0, +-edge and their neighbours on either side."""
    near = [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf)]
    return [0.0, -0.0] + near + [-x for x in near]


@pytest.mark.parametrize("thetas", [
    np.concatenate([_around(SMALL_THETA), np.linspace(-3.0, 3.0, 41)]),
    np.concatenate([np.linspace(0.5, 40.0, 23), -np.geomspace(0.5, 1e12, 17)]),
    np.concatenate([[0.0, 1e-300, -1e-9], np.linspace(-0.49, 0.49, 19)]),
], ids=["both", "direct_only", "series_only"])
def test_each_entry_takes_one_branch_with_the_two_branch_bits(thetas):
    _same_bits(quadrature._interior_factor(thetas), _interior_two_branch(thetas))
    _same_bits(quadrature._left_factor(thetas), _left_two_branch(thetas))
    for h in (0.125, 3.0):
        omegas = thetas / (TWO_PI * h)
        if (np.abs(thetas) < SMALL_THETA).any():  # the branch edge in omega
            omegas = np.concatenate([omegas, _around(SMALL_THETA / (TWO_PI * h))])
        _same_bits(error_norm(omegas, h), _error_norm_two_branch(omegas, h))


def _mod2_inputs():
    info = np.finfo(float)
    values = [0.0, info.smallest_subnormal, np.nextafter(info.smallest_normal, 0.0),
              info.smallest_normal, 1e-300, 1e300, info.max, 2.0**52, 2.0**53,
              np.nextafter(2.0**53, 0.0), np.nextafter(2.0**53, np.inf)]
    for k in range(1, 40):
        values += [2.0 * k, np.nextafter(2.0 * k, 0.0), np.nextafter(2.0 * k, np.inf),
                   k - 0.5, 0.5 * k, 2.0**k + 0.5]
    rng = np.random.default_rng(17)
    values += list(rng.uniform(0.0, 1.0, 200) * 10.0 ** rng.integers(-320, 308, 200))
    values = np.array(values)
    return np.concatenate([values, -values])


def test_mod2_is_fmod_bit_for_bit_at_any_magnitude():
    v = _mod2_inputs()
    _same_bits(quadrature._mod2(v), np.fmod(v, 2.0))
    for x in v:
        # Wherever np.fmod raises nothing, neither does the reduction.
        with np.errstate(all="raise"):
            try:
                np.fmod(x, 2.0)
            except FloatingPointError:
                continue
            quadrature._mod2(x)


def _dense_apply(grid, omegas, values, rows=256):
    # The reference route, a few rows of coefficient_matrix at a time.
    return np.concatenate(
        [coefficient_matrix(grid, omegas[i : i + rows]) @ values
         for i in range(0, len(omegas), rows)]
    )


def _lattices(grid, count):
    """Uniform lattices with max |theta| = 2 pi |omega| h on both sides of
    SMALL_THETA: symmetric increasing, decreasing, and starting at 0 exactly."""
    for theta_max in (0.4 * SMALL_THETA, 3.0 * SMALL_THETA):
        top = theta_max / (TWO_PI * grid.h)
        yield np.linspace(-top, top, count)
        yield np.linspace(top, -0.3 * top, count)
        yield np.linspace(0.0, top, count)


@pytest.mark.parametrize("m", [2, 3, 201, 2917])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 729, 4096])
def test_apply_weights_matches_dense(n, m):
    rng = np.random.default_rng(n * 10007 + m)
    grid = UniformGrid(-0.7, 1.9, n)
    for omegas in _lattices(grid, m):
        values = rng.normal(size=(n + 1, 3)) + 1j * rng.normal(size=(n + 1, 3))
        dense = _dense_apply(grid, omegas, values)
        scale = np.abs(dense).max()
        assert np.abs(apply_weights(grid, omegas, values) - dense).max() <= 1e-12 * scale
        single = apply_weights(grid, omegas, values[:, 0])
        assert single.shape == (m,)
        assert np.abs(single - dense[:, 0]).max() <= 1e-12 * np.abs(dense[:, 0]).max()
        if omegas[0] == 0.0:
            # the zero row is the exact trapezoid sum, as in coefficient_matrix
            assert single[0] == pytest.approx(dense[0, 0], rel=1e-15)


def test_apply_weights_phase_precision_limit():
    # A lattice counts as uniform when it is within 4 ulps of max|omega| of
    # a straight line; the chirp sum runs on that line, so each interior
    # term's phase may be off by up to 2 pi * 4 ulp * |x - x_c|.  At
    # |omega| (b - a) ~ 2.6e4 cycles that exceeds 1e-12 and the deviation
    # from dense is bounded by the lattice tolerance instead.
    rng = np.random.default_rng(17)
    grid = UniformGrid(-0.7, 1.9, 4096)
    top = 40.0 / (TWO_PI * grid.h)
    omegas = np.linspace(-top, top, 201)
    values = rng.normal(size=grid.n + 1) + 1j * rng.normal(size=grid.n + 1)
    dense = coefficient_matrix(grid, omegas) @ values
    bound = TWO_PI * 4 * np.spacing(top) * (grid.b - grid.a) / 2
    dev = np.abs(apply_weights(grid, omegas, values) - dense).max() / np.abs(dense).max()
    assert dev <= bound


def test_apply_weights_non_uniform_lattice_is_dense_bit_for_bit():
    rng = np.random.default_rng(4)
    grid = UniformGrid(-1.0, 2.0, 37)
    values = rng.normal(size=(38, 2)) + 1j * rng.normal(size=(38, 2))
    for omegas in (np.array([-3.3, 0.0, 0.2, 7.7]), np.array([2.5]),
                   np.linspace(-4.0, 4.0, 33) ** 3):
        dense = coefficient_matrix(grid, omegas) @ values
        np.testing.assert_array_equal(apply_weights(grid, omegas, values), dense)
        np.testing.assert_array_equal(
            apply_weights(grid, omegas, values[:, 1]),
            coefficient_matrix(grid, omegas) @ values[:, 1],
        )


@pytest.mark.parametrize("omega", [0.0, 1.0, -2.37])
@pytest.mark.parametrize("m", [2, 3])
def test_apply_weights_constant_lattice_is_dense_bit_for_bit(m, omega):
    # A lattice of one repeated frequency has step 0; a chirp-z sum with
    # that step gave each row different last bits.
    rng = np.random.default_rng(5)
    grid = UniformGrid(-1.0, 1.0, 20)
    values = rng.normal(size=21) + 1j * rng.normal(size=21)
    omegas = np.full(m, omega)
    assert quadrature._lattice_step(omegas) is None
    rows = apply_weights(grid, omegas, values)
    np.testing.assert_array_equal(rows, np.full(m, rows[0]))
    np.testing.assert_array_equal(rows, coefficient_matrix(grid, omegas) @ values)


def test_apply_weights_dense_blocks_equal_whole_matrix(monkeypatch):
    rng = np.random.default_rng(8)
    grid = UniformGrid(0.0, 3.0, 50)
    omegas = np.sort(rng.uniform(-20.0, 20.0, 100))
    values = rng.normal(size=(51, 4)) + 1j * rng.normal(size=(51, 4))
    whole = apply_weights(grid, omegas, values)
    monkeypatch.setattr(quadrature, "_DENSE_BLOCK_WEIGHTS", 7 * 51)
    blocked = apply_weights(grid, omegas, values)
    np.testing.assert_array_equal(blocked, whole)
    np.testing.assert_array_equal(blocked, coefficient_matrix(grid, omegas) @ values)


def _one_shot(grid, omegas, values, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(quadrature, "_CHIRP_BLOCK", omegas.size)
        return apply_weights(grid, omegas, values)


@pytest.mark.parametrize("omegas, block, zero", [
    (np.linspace(-30.0, 45.0, 64), 16, None),   # increasing, four full blocks
    (np.linspace(45.0, -30.0, 64), 16, None),   # decreasing
    (np.linspace(-12.0, 20.0, 33), 8, 12),      # final block of length 1
    (np.linspace(-3.0, 4.0, 71), 10, 30),       # exact 0 in block 3 of 8
])
def test_apply_weights_chirp_blocks_match_one_shot(omegas, block, zero, monkeypatch):
    rng = np.random.default_rng(omegas.size)
    grid = UniformGrid(-0.7, 1.9, 6)
    values = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
    # Every block reuses the lattice's step; none may fall to the dense path.
    def dense(*args):
        pytest.fail("a block of a uniform lattice built dense weights")

    monkeypatch.setattr(quadrature, "coefficient_matrix", dense)
    whole = _one_shot(grid, omegas, values, monkeypatch)
    monkeypatch.setattr(quadrature, "_CHIRP_BLOCK", block)
    for vals, ref in ((values, whole), (values[:, 1], whole[:, 1])):
        blocked = apply_weights(grid, omegas, vals)
        assert blocked.shape == ref.shape
        assert np.abs(blocked - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.nonzero(omegas == 0.0)[0].tolist() == ([] if zero is None else [zero])
    if zero is not None:
        # the exact-zero row keeps the trapezoid sum in a middle block too
        assert zero // block not in (0, (omegas.size - 1) // block)
        np.testing.assert_array_equal(
            apply_weights(grid, omegas, values)[zero],
            quadrature._trapezoid_weights(grid) @ values,
        )


def test_apply_weights_chirp_blocks_span_the_grid_when_it_is_longer(monkeypatch):
    # With more nodes than the block length, blocks of n + 1 frequencies keep
    # the time O((M + n) log(M + n)): here 23 = 11 + 11 + 1.
    rng = np.random.default_rng(5)
    grid = UniformGrid(0.0, 2.0, 10)
    omegas = np.linspace(-7.0, 9.0, 23)
    values = rng.normal(size=11) + 1j * rng.normal(size=11)
    whole = _one_shot(grid, omegas, values, monkeypatch)
    sizes = []
    chirp = quadrature._apply_chirp
    monkeypatch.setattr(quadrature, "_apply_chirp",
                        lambda g, w, *rest: sizes.append(w.size) or chirp(g, w, *rest))
    monkeypatch.setattr(quadrature, "_CHIRP_BLOCK", 4)
    blocked = apply_weights(grid, omegas, values)
    assert sizes == [11, 11, 1]
    assert np.abs(blocked - whole).max() <= 1e-12 * np.abs(whole).max()


def test_apply_weights_chirp_blocks_stop_growing_at_the_byte_cap(monkeypatch):
    # Frequency blocks grow towards n + 1 only while K (m + _node_block(m)) =
    # 5 K m FFT entries fit in _DENSE_BLOCK_WEIGHTS: 60 entries for K = 2
    # columns give m = 6, so 23 = 3 * 6 + 5 on a 40-node grid.  Each block
    # then sums the 39 interior nodes in node blocks of 4 m, the last of
    # them over the last 4 m nodes with zeros for those already summed.
    rng = np.random.default_rng(5)
    grid = UniformGrid(0.0, 2.0, 40)
    omegas = np.linspace(-7.0, 9.0, 23)
    values = rng.normal(size=(41, 2)) + 1j * rng.normal(size=(41, 2))
    whole = _dense_apply(grid, omegas, values)
    sizes = []
    chirp = quadrature._apply_chirp
    monkeypatch.setattr(quadrature, "_apply_chirp",
                        lambda g, w, *rest: sizes.append(w.size) or chirp(g, w, *rest))
    monkeypatch.setattr(quadrature, "_CHIRP_BLOCK", 4)
    monkeypatch.setattr(quadrature, "_DENSE_BLOCK_WEIGHTS", 60)
    assert quadrature._frequency_block(40, 2) == 6
    assert quadrature._frequency_block(40, 1) == 12
    assert quadrature._frequency_block(40, 20) == 4  # never below _CHIRP_BLOCK
    assert quadrature._frequency_block(8, 1) == 9  # nor above n + 1
    blocked = apply_weights(grid, omegas, values)
    assert sizes == [6, 6, 6, 5]
    assert apply_weights(grid, omegas, values[:, :0]).shape == (23, 0)
    assert np.abs(blocked - whole).max() <= 1e-12 * np.abs(whole).max()


@pytest.mark.parametrize("n", [4098, 3 * 4096 + 1001])
def test_apply_weights_node_blocks_match_dense(n):
    # 201 frequencies sum the interior nodes in node blocks of 4096: n - 1 =
    # 4097 is one full block and one that adds a single node, 3 * 4096 + 1000
    # three full blocks and one that adds 1000, each over the last 4096 nodes.
    assert quadrature._node_block(201) == 4096 < n - 1
    rng = np.random.default_rng(n)
    grid = UniformGrid(-0.7, 1.9, n)
    values = rng.normal(size=(n + 1, 3)) + 1j * rng.normal(size=(n + 1, 3))
    zeros = 0
    for omegas in _lattices(grid, 201):
        dense = _dense_apply(grid, omegas, values)
        fast = apply_weights(grid, omegas, values)
        assert np.abs(fast - dense).max() <= 1e-12 * np.abs(dense).max()
        # an exact-zero row is the trapezoid sum, bit for bit
        for zero in np.nonzero(omegas == 0.0)[0]:
            np.testing.assert_array_equal(fast[zero], quadrature._trapezoid_weights(grid) @ values)
            zeros += 1
    assert zeros >= 2  # the two lattices that start at 0


def _supports(n):
    """Index sets of non-zero samples: a middle run, runs touching the first
    and the last interior node, a single node, the end nodes only, none."""
    return {
        "middle": np.arange(n // 3, 2 * n // 3),
        "first": np.arange(1, n // 4),
        "last": np.arange(3 * n // 4, n),
        "single": np.array([n // 2 + 1]),
        "ends": np.array([0, n]),
        "none": np.array([], dtype=int),
    }


@pytest.mark.parametrize("n", [300, 3 * 4096 + 1001])
def test_apply_weights_sums_the_samples_support_only(n):
    # n = 300 is one node block at 201 frequencies, 3 * 4096 + 1001 four; a
    # support of the middle third or a quarter of it spans one or several.
    rng = np.random.default_rng(n)
    grid = UniformGrid(-0.7, 1.9, n)
    shapes = _supports(n)
    values = np.zeros((n + 1, len(shapes)), dtype=complex)
    for col, nodes in enumerate(shapes.values()):
        values[nodes, col] = rng.normal(size=nodes.size) + 1j * rng.normal(size=nodes.size)
    # three columns whose supports differ: the union is the summed range
    multi = values[:, [1, 3, 4]]
    zeros = 0
    for omegas in _lattices(grid, 201):
        dense = coefficient_matrix(grid, omegas) @ values
        for col, name in enumerate(shapes):
            fast = apply_weights(grid, omegas, values[:, col])
            if name == "none":
                assert not fast.any()  # exactly 0
            else:
                peak = np.abs(dense[:, col]).max()
                assert np.abs(fast - dense[:, col]).max() <= 1e-12 * peak, name
        fast = apply_weights(grid, omegas, multi)
        assert np.abs(fast - dense[:, [1, 3, 4]]).max() <= 1e-12 * np.abs(dense[:, [1, 3, 4]]).max()
        # an exact-zero row is the trapezoid sum, bit for bit
        for zero in np.nonzero(omegas == 0.0)[0]:
            np.testing.assert_array_equal(fast[zero], quadrature._trapezoid_weights(grid) @ multi)
            zeros += 1
    assert zeros >= 2  # the two lattices that start at 0


def test_apply_weights_is_invariant_to_zero_padding():
    # Samples on [-2, 2] that vanish at its ends, and the same samples padded
    # with zeros to [-500, 500] at the same step 2**-6, so the two grids share
    # their nodes exactly.  The optimal weights of the padded grid's zero
    # samples add nothing, so both sums agree up to rounding.
    rng = np.random.default_rng(21)
    small, padded = UniformGrid(-2.0, 2.0, 256), UniformGrid(-500.0, 500.0, 64000)
    assert small.h == padded.h == 2.0**-6
    values = np.zeros(257, dtype=complex)
    values[1:-1] = rng.normal(size=255) + 1j * rng.normal(size=255)
    wide = np.zeros(64001, dtype=complex)
    wide[31872 : 31872 + 257] = values
    assert padded.nodes()[31872] == -2.0
    for omegas in (np.linspace(-20.0, 20.0, 201), np.linspace(5.0, 0.0, 64)):
        reference = apply_weights(small, omegas, values)
        assert np.abs(apply_weights(padded, omegas, wide) - reference).max() <= (
            1e-12 * np.abs(reference).max())


def test_apply_weights_transforms_are_as_short_as_the_support(monkeypatch):
    # 201 non-zero samples on a grid of 10^6 intervals: one node block of 201
    # nodes, so every FFT is shorter than 1024.  Summing every interior node
    # would take FFTs of length 4320, one row per node block of 4096.
    lengths = []
    fft = np.fft.fft

    def recording(a, n=None, *args, **kwargs):
        lengths.append(np.shape(a)[-1] if n is None else n)
        return fft(a, n, *args, **kwargs)

    grid = UniformGrid(-5000.0, 5000.0, 10**6)
    values = np.zeros(grid.n + 1, dtype=complex)
    values[499900:500101] = 1.0
    omegas = np.linspace(-10.0, 10.0, 201)
    monkeypatch.setattr(np.fft, "fft", recording)
    apply_weights(grid, omegas, values)
    assert lengths and max(lengths) < 1024


def _single_convolution(grid, omegas, values):
    # The chirp-z sum as one convolution over all interior nodes about node
    # n // 2, the arithmetic that node blocks extend, for one frequency block.
    step = quadrature._lattice_step(omegas)
    m, n, h = omegas.size, grid.n, grid.h
    cols = values.reshape(n + 1, -1).T
    theta = TWO_PI * omegas * h
    turns = quadrature._node_turns(grid.nodes()[[0, n // 2, -1]], omegas)
    ends = quadrature._end_weights(h, quadrature._left_factor(theta),
                                   np.exp(1j * math.pi * turns[:, [0, -1]]))
    out = cols[:, [0, -1]] @ np.stack(ends)
    q = np.arange(1, n, dtype=np.int64) - n // 2
    p = np.arange(m, dtype=np.int64) - m // 2
    lags = np.arange(p[0] - q[-1], p[-1] - q[0] + 1, dtype=np.int64)
    nfft = quadrature._fft_length(lags.size)
    squares = quadrature._half_turns(step * h, np.arange(max(-lags[0], lags[-1]) + 1.0) ** 2)
    pre = quadrature._half_turns(2.0 * omegas[m // 2] * h, q.astype(float)) + squares[np.abs(q)]
    chirp = np.exp(-1j * math.pi * squares)[np.abs(lags)]
    buf = np.zeros((cols.shape[0], nfft), dtype=complex)
    np.multiply(cols[:, 1:-1], np.exp(1j * math.pi * pre), out=buf[:, : q.size])
    np.fft.fft(buf, out=buf)
    buf *= np.fft.fft(chirp, nfft)
    conv = np.fft.ifft(buf, out=buf)[:, q.size - 1 : q.size - 1 + m]
    post = turns[:, 1] + squares[np.abs(p)]
    conv *= h * quadrature._interior_factor(theta) * np.exp(1j * math.pi * post)
    out += conv
    out[:, omegas == 0.0] = (cols @ quadrature._trapezoid_weights(grid))[:, None]
    return out.T.reshape(omegas.shape + values.shape[1:])


# n - 1 = 4096 and 4100 are exactly one node block at 201 and 1025
# frequencies; n = 8000 at 2001 is the spectrum round trip's inverse.
@pytest.mark.parametrize("grid, omegas, columns", [
    (UniformGrid(-0.7, 1.9, 4097), np.linspace(-40.0, 40.0, 201), 3),
    (UniformGrid(-6.0, 6.0, 8000), np.linspace(60.0, -60.0, 2001), None),
    (UniformGrid(0.0, 3.0, 4101), np.linspace(0.0, 25.0, 1025), 2),
])
def test_apply_weights_one_node_block_keeps_its_bits(grid, omegas, columns):
    assert grid.n - 1 <= quadrature._node_block(omegas.size)
    j = np.arange((grid.n + 1) * (columns or 1)).reshape(grid.n + 1, -1)
    values = (j % 7 - 3.0) + 1j * (j % 5 - 2.0)
    if not columns:
        values = values[:, 0]
    result = apply_weights(grid, omegas, values)
    reference = _single_convolution(grid, omegas, values)
    assert result.shape == reference.shape
    assert result.tobytes() == reference.tobytes()


@pytest.mark.parametrize("ends", [True, False])
def test_apply_chirp_reduces_its_shared_phases_in_one_pass(ends, monkeypatch):
    # One batch of node blocks: the end nodes', chirp table's and pre-chirp's
    # phases are one _half_turns call, the post-chirp one more.  Without
    # non-zero end samples (the error tables' case) the end nodes take none.
    calls = []
    half_turns = quadrature._half_turns

    def counting(rate, x):
        calls.append(np.broadcast(rate, x).shape)
        return half_turns(rate, x)

    grid = UniformGrid(-10.0, 10.0, 2000)
    xs = grid.nodes()
    values = np.cos(xs) if ends else np.where(np.abs(xs) <= 1.0, xs * xs, 0.0)
    omegas = np.linspace(-10.0, 10.0, 201)
    expected = apply_weights(grid, omegas, values)
    monkeypatch.setattr(quadrature, "_half_turns", counting)
    result = apply_weights(grid, omegas, values)
    assert result.tobytes() == expected.tobytes()
    assert len(calls) == 2


def test_inverse_transform_peak_memory_is_bounded_along_the_sample_grid():
    # 2 * 10^6 spectrum samples to 2001 points: node blocks keep the traced
    # peak within 2x the samples' bytes (one convolution over the whole grid
    # took 5.8x).  What is left is the trapezoid weights of the exact
    # omega = 0 row and one FFT buffer of at most _DENSE_BLOCK_WEIGHTS entries.
    # The Gaussian underflows to 0 past |x| ~ 15.4, so only that support,
    # about 31 % of the grid, is summed: still about 77 node blocks of 8004.
    import tracemalloc

    from oqf.grid import SampledFunction
    from oqf.transform import inverse_transform

    grid = UniformGrid(-50.0, 50.0, 2 * 10**6)
    spectrum = SampledFunction(grid, np.exp(-math.pi * grid.nodes() ** 2))
    xs = np.linspace(-10.0, 10.0, 2001)
    tracemalloc.start()
    try:
        result = inverse_transform(spectrum, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * spectrum.values.nbytes
    assert np.abs(result - np.exp(-math.pi * xs**2)).max() <= 1e-8


def test_forward_transform_peak_memory_is_bounded():
    # 2001 samples to 10^6 frequencies: the chirp-z blocks keep the traced
    # peak within 4x the result's bytes (one-shot it was about 13x).
    import tracemalloc

    from oqf.grid import SampledFunction
    from oqf.transform import forward_transform

    grid = UniformGrid(-6.0, 6.0, 2000)
    samples = SampledFunction(grid, np.exp(-math.pi * grid.nodes() ** 2))
    omegas = np.linspace(-50.0, 50.0, 10**6)
    tracemalloc.start()
    try:
        result = forward_transform(samples, omegas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * result.values.nbytes


def test_apply_weights_convolves_in_one_buffer_per_block():
    # The ramp filter's forward shape at 512^2 and 0.5 degrees: 729 detector
    # bins, 2917 frequencies, 360 real columns, one chirp-z block.  Beside
    # the result and the complex copy of the samples, the convolution holds
    # one (columns x nfft) buffer; a second one would pass the bound.
    import tracemalloc

    grid = UniformGrid(-1.0, 1.0, 728)
    omegas = np.linspace(-182.0, 182.0, 2917)
    values = np.random.default_rng(5).standard_normal((729, 360))
    buffer = 360 * quadrature._fft_length(2917 + 728 - 2) * 16
    tracemalloc.start()
    try:
        result = apply_weights(grid, omegas, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * buffer + result.nbytes + 2 * values.nbytes


@pytest.mark.parametrize("omega", [1e160, -1e160, 1e308, 2.0**511 / TWO_PI * 1.0000001])
def test_frequencies_whose_theta_squared_overflows_are_rejected(omega):
    grid = UniformGrid(0.0, 1.0, 4)
    match = r"\|omega\| <= 1\.06\d*e\+153"
    with pytest.raises(ValueError, match=match):
        coefficient_matrix(grid, omega)
    with pytest.raises(ValueError, match=match):
        error_norm(omega, 0.1)
    # dense (one frequency) and chirp-z (a uniform lattice) paths
    for omegas in ([omega], [omega, 2.0 * omega]):
        with pytest.raises(ValueError, match=match):
            apply_weights(grid, omegas, np.ones(5))
    with pytest.raises(ValueError, match=match):
        monomial_fourier_integral(1, omega, 0.0, 1.0)


def test_frequency_limit_is_finite_for_both_steps():
    # Just inside the limit, theta^2 and (2 pi omega)^2 stay finite.
    for h in (1e-3, 1.0, 250.0):
        grid = UniformGrid(0.0, 4 * h, 4)
        omega = 2.0**511 / (TWO_PI * max(h, 1.0))
        assert np.isfinite(coefficient_matrix(grid, omega)).all()
        assert np.isfinite(apply_weights(grid, [omega, -omega], np.ones(5))).all()
        assert np.isfinite(error_norm(omega, h))


@pytest.mark.parametrize("b, step", [(1e300, 1e-302), (1.5e308, 1e-307),
                                     (1.7976931348623157e308, 1e-307)])
def test_apply_weights_on_nodes_near_the_float_limit(b, step):
    # The chirp-z phases split node coordinates beyond 2**996, where the
    # Veltkamp constant times the node would overflow, and never double one.
    # At b = the largest float, h * n rounds past it and the last node is b.
    grid = UniformGrid(0.0, b, 9)
    omegas = np.arange(-100, 101) * step
    values = np.linspace(0.01, 0.02, 10)
    with np.errstate(all="raise"):
        fast = apply_weights(grid, omegas, values)
        dense = coefficient_matrix(grid, omegas) @ values
    assert np.isfinite(fast).all() and np.isfinite(dense).all()
    assert np.abs(fast - dense).max() <= 1e-14 * np.abs(dense).max()


@pytest.mark.parametrize("b, n", [(1.79e308, 10000), (1.7976931348623157e308, 8322)])
def test_apply_weights_node_blocks_on_nodes_near_the_float_limit(b, n):
    # Past one node block (4096 at 201 frequencies) every block's centre is a
    # node of the grid: on [0, 1.79e308] a + h k overflows for k a little
    # past n, and at b = the largest float a + h n itself rounds past it, so
    # the last node is b.  Node blocks whose centres lay past node n gave inf
    # and NaN rows or phases off by omega h (c - n) turns.
    grid = UniformGrid(0.0, b, n)
    assert n - 1 > quadrature._node_block(201)
    assert math.isfinite(grid.h * n) == (b == 1.79e308)
    omegas = np.arange(-100, 101) * 1e-307
    values = np.linspace(0.01, 0.02, n + 1)
    with np.errstate(all="raise"):
        fast = apply_weights(grid, omegas, values)
        dense = coefficient_matrix(grid, omegas) @ values
    assert np.isfinite(fast).all() and np.isfinite(dense).all()
    assert np.abs(fast - dense).max() <= 1e-12 * np.abs(dense).max()


def test_half_turns_broadcasts_to_the_scalar_bits():
    # One call over rates x frequencies gives, bit for bit, one scalar-rate call
    # per rate: ordinary rates, rates past 2**996 (the split branch) and the
    # nodes of the grids near the float limit.
    rates = [np.array([0.0, -0.7, 1.9, 1000.0, -3.5e12, 2.0**996, -2.0**997, 1e300])]
    omegas = [np.linspace(-0.3, 7.1, 13)]
    for b, step in ((1e300, 1e-302), (1.5e308, 1e-307), (1.7976931348623157e308, 1e-307)):
        rates.append(UniformGrid(0.0, b, 9).nodes())
        omegas.append(np.arange(-100, 101) * step)
    # Rates one ulp either side of 2**996, and a grid whose nodes cross it: a
    # broadcast call with any rate past it scales every rate, a scalar call
    # below it skips the scaling, and both give the same bits.
    edge = np.nextafter(2.0**996, [0.0, math.inf])
    rates.append(np.array([edge[0], 2.0**996, edge[1], -edge[1], 3.0, -0.7]))
    omegas.append(np.linspace(-1e-290, 1e-290, 9))
    rates.append(UniformGrid(6e299, 7e299, 9).nodes())
    omegas.append(np.arange(-100, 101) * 1e-307)
    assert (np.abs(rates[-1]) > 2.0**996).any() and (np.abs(rates[-1]) <= 2.0**996).any()
    for rate, omega in zip(rates, omegas):
        with np.errstate(all="raise"):
            both = quadrature._half_turns(rate[:, None], 2.0 * omega)
            rows = [quadrature._half_turns(float(r), 2.0 * omega) for r in rate]
        np.testing.assert_array_equal(both.view(np.uint64), np.array(rows).view(np.uint64))
        assert np.all(np.abs(both) < 2.0)


@pytest.mark.parametrize("omega", [1e4 + 0.37, 1e4 + 0.61, -(1e5 + 0.23)])
def test_dense_weights_take_exactly_reduced_node_phases(omega):
    # 10^7 to 10^8 cycles over [0, 1000] with omega h not an integer: the
    # weights follow the closed form with the node phases reduced in
    # rationals, then taken by cos and sin in floats.  Phases from the rounded
    # product omega x would be about 4e-9 of sum |w| off.
    grid = UniformGrid(0.0, 1000.0, 2000)
    h = grid.h
    weights = coefficient_matrix(grid, omega)
    turns = np.array([float(Fraction(2.0 * omega) * Fraction(x) % 2)
                      for x in grid.nodes().tolist()])
    phases = np.cos(math.pi * turns) + 1j * np.sin(math.pi * turns)
    theta = np.array([TWO_PI * omega * h])
    expected = h * quadrature._interior_factor(theta) * phases
    left = quadrature._left_factor(theta)[0]
    expected[0], expected[-1] = h * left * phases[0], h * np.conj(left) * phases[-1]
    assert np.abs(weights - expected).max() <= 1e-15 * np.abs(weights).sum()


def test_last_node_is_b_where_a_plus_h_n_overflows():
    top = np.finfo(float).max
    for a, b in ((0.0, top), (-top, 0.0), (-top / 2, top / 2), (1.0, top)):
        grid = UniformGrid(a, b, 9)
        with np.errstate(all="raise"):
            nodes = grid.nodes()
            picked = grid.nodes([9, 0, 4, 8])
        assert np.isfinite(nodes).all() and nodes[0] == a and nodes[-1] == b
        np.testing.assert_array_equal(picked, nodes[[9, 0, 4, 8]])
        np.testing.assert_array_equal(nodes[:-1], a + grid.h * np.arange(9))
        assert np.all(np.diff(nodes) > 0)
    # Wherever a + h n is finite the nodes are a + h k for every k, b or not.
    grid = UniformGrid(0.1, 0.3, 3)
    np.testing.assert_array_equal(grid.nodes(), 0.1 + grid.h * np.arange(4))
    np.testing.assert_array_equal(grid.nodes([3, 0]), grid.nodes()[[3, 0]])
    assert grid.nodes()[-1] != 0.3


def test_apply_weights_shape_validation():
    g = UniformGrid(0.0, 1.0, 4)
    for bad in (np.ones(4), np.ones((6, 2)), np.ones((5, 2, 2))):
        with pytest.raises(ValueError):
            apply_weights(g, [0.0, 1.0], bad)


@given(
    a=st.floats(min_value=-50.0, max_value=50.0),
    length=st.floats(min_value=0.1, max_value=5.0),
    n=st.integers(min_value=1, max_value=64),
    m=st.integers(min_value=2, max_value=33),
    theta_max=st.floats(min_value=0.1 * SMALL_THETA, max_value=3.0 * SMALL_THETA),
    start=st.floats(min_value=-1.0, max_value=0.5),
    chirp=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_apply_weights_properties(a, length, n, m, theta_max, start, chirp, seed):
    """Linearity, F(-omega) = conj F(omega) for real samples, and exactness on
    c0 + c1 x (the optimal weights integrate every linear polynomial exactly),
    on a uniform lattice (chirp-z) and one frequency at a time (dense).

    The bound is 1e-12 of the sum's scale, (sum of |coefficient| * max|sample|)
    * (b - a), for |a| <= 50, b - a in [0.1, 5], |theta| = 2 pi |omega| h up
    to 3 SMALL_THETA and |omega x| up to 1000 cycles; over 3000 random cases
    there the worst was 2.3e-13.  Past that range the phase-precision limit
    takes over: the chirp sum runs on a straight line within 4 ulps of the
    lattice, so a term's phase may be off by 2 pi * 4 ulp(max|omega|) *
    |x - x_c| (see test_apply_weights_phase_precision_limit).
    """
    rng = np.random.default_rng(seed)
    grid = UniformGrid(a, a + length, n)
    top = min(theta_max / (TWO_PI * grid.h), 1000.0 / max(abs(grid.a), abs(grid.b)))
    omegas = top * np.linspace(start, 1.0, m)
    assert quadrature._lattice_step(omegas) is not None

    def transform(ws, values):
        if chirp:
            return apply_weights(grid, ws, values)
        return np.array([apply_weights(grid, [w], values)[0] for w in ws])

    def assert_close(got, want, scale):
        assert np.abs(got - want).max() <= 1e-12 * scale * length

    u, v = rng.normal(size=(2, n + 1)) + 1j * rng.normal(size=(2, n + 1))
    alpha, beta = rng.normal(size=2) + 1j * rng.normal(size=2)
    assert_close(
        transform(omegas, alpha * u + beta * v),
        alpha * transform(omegas, u) + beta * transform(omegas, v),
        abs(alpha) * np.abs(u).max() + abs(beta) * np.abs(v).max(),
    )

    real = rng.normal(size=n + 1)
    assert_close(transform(-omegas, real), np.conj(transform(omegas, real)),
                 np.abs(real).max())

    c0, c1 = rng.normal(size=2)
    exact = np.array([c0 * monomial_fourier_integral(0, w, grid.a, grid.b)
                      + c1 * monomial_fourier_integral(1, w, grid.a, grid.b)
                      for w in omegas])
    assert_close(transform(omegas, c0 + c1 * grid.nodes()), exact,
                 abs(c0) + abs(c1) * max(abs(grid.a), abs(grid.b)))
