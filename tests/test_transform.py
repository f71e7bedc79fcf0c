import math
import warnings
from unittest import mock

import numpy as np
import pytest

from oqf import transform
from oqf.grid import SampledFunction, UniformGrid
from oqf.quadrature import coefficient_matrix, error_norm, monomial_fourier_integral
from oqf.transform import (
    SpectrumSamples,
    error_sweep,
    forward_transform,
    inverse_transform,
    quadrature_error_monomial,
)


def box_samples(a, b, n):
    g = UniformGrid(a, b, n)
    return SampledFunction(g, np.where(np.abs(g.nodes()) <= 1.0, 1.0, 0.0).astype(complex))


def test_forward_box_at_zero_is_length():
    sp = forward_transform(box_samples(-1.0, 1.0, 20), [0.0])
    assert sp.values[0] == pytest.approx(2.0, rel=1e-14)


def test_forward_box_near_half_integer_frequency():
    # exact transform of the box at omega=0.5 vanishes; error stays inside
    # the worst-case bound |error| <= ||f'||-free bound ~ 0.03 at h=0.1
    sp = forward_transform(box_samples(-1.0, 1.0, 20), [0.5])
    assert abs(sp.values[0]) < 0.03


def test_forward_linear_is_exact():
    g = UniformGrid(-1.0, 1.0, 14)
    f = SampledFunction(g, g.nodes().astype(complex))
    for om in (0.3, 1.9, -2.4):
        sp = forward_transform(f, [om])
        exact = monomial_fourier_integral(1, -om, -1.0, 1.0)
        assert sp.values[0] == pytest.approx(exact, abs=1e-13)


def test_forward_linearity():
    g = UniformGrid(-1.0, 1.0, 16)
    rng = np.random.default_rng(5)
    f = SampledFunction(g, rng.normal(size=17) + 1j * rng.normal(size=17))
    gfun = SampledFunction(g, rng.normal(size=17) + 1j * rng.normal(size=17))
    omegas = np.linspace(-2.0, 2.0, 11)
    a, b = 1.7 - 0.3j, -0.8 + 1.1j
    combo = SampledFunction(g, a * f.values + b * gfun.values)
    lhs = forward_transform(combo, omegas).values
    rhs = a * forward_transform(f, omegas).values + b * forward_transform(gfun, omegas).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_forward_conjugate_symmetry_for_real_samples():
    g = UniformGrid(-1.0, 1.0, 16)
    rng = np.random.default_rng(6)
    f = SampledFunction(g, rng.normal(size=17).astype(complex))
    omegas = np.array([0.3, 1.1, 2.7])
    plus = forward_transform(f, omegas).values
    minus = forward_transform(f, -omegas[::-1]).values[::-1]
    np.testing.assert_allclose(minus, np.conj(plus), atol=1e-12)


def test_error_bounded_by_cauchy_schwarz():
    # phi(x) = x^2 on [0,1]: ||phi'||_{L2}^2 = 4/3
    deriv_norm = math.sqrt(4.0 / 3.0)
    for n in (10, 25):
        g = UniformGrid(0.0, 1.0, n)
        f = SampledFunction(g, (g.nodes() ** 2).astype(complex))
        for om in (0.4, 1.0, 3.3):
            approx = forward_transform(f, [-om]).values[0]  # kernel e^{+2 pi i om x}
            exact = monomial_fourier_integral(2, om, 0.0, 1.0)
            bound = deriv_norm * math.sqrt(error_norm(om, g.h))
            assert abs(exact - approx) <= bound * (1.0 + 1e-12)


def test_inverse_of_zero_spectrum_is_zero():
    g = UniformGrid(-1.0, 1.0, 10)
    out = inverse_transform(SampledFunction(g, np.zeros(11)), np.linspace(-2, 2, 9))
    np.testing.assert_array_equal(out, 0.0)


def test_box_round_trip_improves_with_wider_interval():
    errs = []
    xs = np.linspace(-2.0, 2.0, 41)
    truth = np.where(np.abs(xs) <= 1.0, 1.0, 0.0)
    for a, b in [(-1.0, 1.0), (-25.0, 25.0)]:
        n = round((b - a) / 0.1)
        m = round((b - a) / 0.01)
        f = box_samples(a, b, n)
        omega_grid = UniformGrid(a, b, m)
        spectrum = forward_transform(f, omega_grid.nodes())
        recon = inverse_transform(SampledFunction(omega_grid, spectrum.values), xs)
        errs.append(np.abs(recon - truth).max())
    assert errs[1] < errs[0]


def test_monomial_error_zero_on_native_interval():
    for alpha in (0, 1):
        for om in (0.3, 1.2, -2.1):
            rec = quadrature_error_monomial(alpha, om, (-1.0, 1.0), 10)
            assert abs(rec.error) < 1e-12


def test_monomial_error_real_part_machine_zero_on_symmetric_intervals():
    for a, b, n in [(-10.0, 10.0, 200), (-100.0, 100.0, 2000)]:
        for om in (0.4, 1.3):
            rec = quadrature_error_monomial(1, om, (a, b), n)
            assert rec.abs_real_error < 1e-12


def test_monomial_error_interval_validation():
    with pytest.raises(ValueError):
        quadrature_error_monomial(0, 1.0, (-0.5, 1.0), 10)
    with pytest.raises(ValueError):
        quadrature_error_monomial(3, 1.0, (-1.0, 1.0), 10)
    with pytest.raises(ValueError):
        error_sweep(3, (-1.0, 1.0), 10, -1.0, 1.0, 21)


def test_error_sweep_h_squared_ratio():
    coarse = error_sweep(2, (-1.0, 1.0), 20, -1.0, 1.0, 21)
    fine = error_sweep(2, (-1.0, 1.0), 200, -1.0, 1.0, 21)
    for rc, rf in zip(coarse, fine):
        if rf.abs_real_error > 1e-13:
            ratio = rc.abs_real_error / rf.abs_real_error
            assert 50.0 <= ratio <= 200.0


def test_error_sweep_rows_match_single_frequency_errors():
    # the sweep sums a uniform lattice by chirp-z, the single call densely
    for alpha in (0, 1, 2):
        records = error_sweep(alpha, (-3.0, 3.0), 60, -4.0, 4.0, 17)
        for rec in records:
            single = quadrature_error_monomial(alpha, rec.omega, (-3.0, 3.0), 60)
            assert single.omega == rec.omega
            assert abs(single.error - rec.error) <= 1e-12


def test_error_record_is_omega_and_error():
    rec = transform.QuadratureErrorRecord(0.5, complex(-3.0, 0.25))
    assert transform.QuadratureErrorRecord._fields == ("omega", "error")
    assert (rec.omega, rec.error) == (0.5, complex(-3.0, 0.25))
    assert (rec.abs_real_error, rec.abs_imag_error) == (3.0, 0.25)
    assert not hasattr(transform, "truncated_monomial_samples")
    records = error_sweep(2, (-1.0, 1.0), 10, -1.0, 1.0, 3)
    assert all(type(r) is transform.QuadratureErrorRecord for r in records)


@pytest.mark.parametrize("a, b, n", [
    (-1.0, 1.0, 20), (-10.0, 10.0, 2000), (-100.0, 100.0, 20000), (-3.0, 3.0, 30),
    (-1.3, 2.7, 37), (-1.0, 1.0, 1), (-7.0, 1.0, 3), (-3e15, 3e15, 3000),
    (-1e300, 1.0, 9), (-1.0, 1e300, 10),
])
def test_error_sweep_samples_every_node_in_the_unit_interval(a, b, n):
    # Samples are built on the nodes near [-1, 1] only; they equal x^alpha
    # tested on every node of the grid, rounding of the nodes included.
    xs = UniformGrid(a, b, n).nodes()
    for alpha in (0, 1, 2):
        with np.errstate(over="ignore"):
            expected = np.where((xs >= -1.0) & (xs <= 1.0), xs**alpha, 0.0).astype(complex)
        with mock.patch.object(transform, "apply_weights",
                               wraps=transform.apply_weights) as applied:
            error_sweep(alpha, (a, b), n, -1e-160, 1e-160, 3)
        samples = applied.call_args.args[2]
        assert samples.tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2", None])
@pytest.mark.parametrize("name, call", [
    ("alpha", lambda v: monomial_fourier_integral(v, 1.0, -1.0, 1.0)),
    ("alpha", lambda v: error_sweep(v, (-1.0, 1.0), 10, -1.0, 1.0, 5)),
    ("omega_count", lambda v: error_sweep(2, (-1.0, 1.0), 10, -1.0, 1.0, v)),
], ids=["monomial_alpha", "sweep_alpha", "omega_count"])
def test_degrees_and_counts_must_be_integers(name, call, bad):
    with pytest.raises(ValueError, match=f"integer {name}"):
        call(bad)


def test_degrees_and_counts_take_numpy_integers():
    assert monomial_fourier_integral(np.int64(3), 1.0, -1.0, 1.0) == (
        monomial_fourier_integral(3, 1.0, -1.0, 1.0))
    assert error_sweep(np.int64(2), (-1.0, 1.0), 10, -1.0, 1.0, np.int64(5)) == (
        error_sweep(2, (-1.0, 1.0), 10, -1.0, 1.0, 5))
    for call in (lambda: monomial_fourier_integral(-1, 1.0, -1.0, 1.0),
                 lambda: error_sweep(2, (-1.0, 1.0), 10, -1.0, 1.0, 1)):
        with pytest.raises(ValueError, match="integer"):
            call()


@pytest.mark.parametrize("omega_min, omega_max", [
    (-1.0, math.inf), (math.inf, 1.0), (math.nan, 1.0), (-1e308, 1e308),
    (1e-300, 1.7976931348623157e308),
])
def test_error_sweep_refuses_bounds_np_linspace_cannot_take(omega_min, omega_max):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="omega_min and omega_max must be finite"):
            error_sweep(2, (-1.0, 1.0), 10, omega_min, omega_max, 16)


def test_error_sweep_zero_frequency_row_exact():
    records = error_sweep(0, (-1.0, 1.0), 10, -1.0, 1.0, 21)
    zero_row = [r for r in records if r.omega == 0.0]
    assert len(zero_row) == 1
    assert abs(zero_row[0].error) < 1e-13


def test_error_sweep_decay_with_frequency():
    # error at |omega| = 10 smaller than at |omega| = 1, for fixed h
    for n in (200, 2000):
        records = {r.omega: abs(r.error) for r in error_sweep(0, (-10.0, 10.0), n, 1.0, 10.0, 10)}
        assert records[10.0] < records[1.0]


def test_spectrum_requires_increasing_frequencies():
    with pytest.raises(ValueError):
        SpectrumSamples(np.array([0.0, 0.0, 1.0]), np.zeros(3, dtype=complex))
    for omegas in ([0.0, 1.0, 0.5], [1.0, 0.0, 0.0], [2.0, 1.0, 3.0]):
        with pytest.raises(ValueError, match="strictly increasing or strictly decreasing"):
            SpectrumSamples(np.array(omegas), np.zeros(3, dtype=complex))


def test_forward_transform_checks_its_lattice_before_any_weight_is_applied():
    f = SampledFunction(UniformGrid(0.0, 1.0, 8), np.ones(9))
    with mock.patch.object(transform, "apply_weights", wraps=transform.apply_weights) as spy:
        with pytest.raises(ValueError, match="strictly increasing or strictly decreasing"):
            forward_transform(f, [0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="1-d"):
            forward_transform(f, 0.5)
        assert spy.call_count == 0
        forward_transform(f, [0.0, 1.0])
        assert spy.call_count == 1


def test_forward_transform_on_a_decreasing_lattice_is_the_increasing_one_reversed():
    g = UniformGrid(-2.0, 2.0, 40)
    f = SampledFunction(g, np.exp(-g.nodes() ** 2) + 0.5j * g.nodes())
    rising = forward_transform(f, np.linspace(-1.0, 1.0, 5))
    falling = forward_transform(f, np.linspace(1.0, -1.0, 5))
    np.testing.assert_array_equal(falling.omegas, rising.omegas[::-1])
    np.testing.assert_allclose(falling.values, rising.values[::-1], rtol=1e-12, atol=0)


def test_transforms_match_dense_weight_route():
    rng = np.random.default_rng(12)
    g = UniformGrid(-3.0, 3.0, 600)
    f = SampledFunction(g, rng.normal(size=601) + 1j * rng.normal(size=601))
    omegas = np.linspace(-20.0, 20.0, 2401)
    spectrum = forward_transform(f, omegas).values
    dense = coefficient_matrix(g, -omegas) @ f.values
    assert np.abs(spectrum - dense).max() <= 1e-12 * np.abs(dense).max()

    og = UniformGrid(-20.0, 20.0, 2400)
    xs = np.linspace(3.0, -3.0, 301)
    recon = inverse_transform(SampledFunction(og, spectrum), xs)
    dense = coefficient_matrix(og, xs) @ spectrum
    assert np.abs(recon - dense).max() <= 1e-12 * np.abs(dense).max()


def test_error_sweep_wide_table_matches_dense_and_stays_machine_zero():
    # the widest table of the paper: [-100, 100] at h = 0.01, 201 frequencies
    records = error_sweep(1, (-100.0, 100.0), 20000, -100.0, 100.0, 201)
    assert max(r.abs_real_error for r in records) < 1e-11
    g = UniformGrid(-100.0, 100.0, 20000)
    xs = g.nodes()
    samples = np.where(np.abs(xs) <= 1.0, xs, 0.0)
    omegas = np.array([r.omega for r in records])
    exact = np.array([monomial_fourier_integral(1, om, -1.0, 1.0) for om in omegas])
    dense = exact - coefficient_matrix(g, omegas) @ samples
    errors = np.array([r.error for r in records])
    assert np.abs(errors - dense).max() <= 1e-12 * np.abs(exact).max()
