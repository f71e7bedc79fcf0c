import math
import threading
import tracemalloc
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from oqf.ct import (
    Ellipse,
    EllipsePhantom,
    FbpConfig,
    backproject,
    default_num_bins,
    fbp_reconstruct,
    filter_projections,
    image_metrics,
    inner_region_mask,
    radon_analytic,
    shepp_logan,
    shepp_logan_phantom,
)
from oqf.ct import phantom
from oqf.ct.fbp import FilteredSinogram, _square_orbits
from oqf.ct.phantom import ellipse_projection, ImageGrid, Sinogram
from oqf.grid import SampledFunction, UniformGrid
from oqf.quadrature import _node_turns, coefficient_matrix
from oqf.transform import forward_transform



def unit_disk(intensity=1.0, cx=0.0, cy=0.0, r=0.5):
    return EllipsePhantom((Ellipse(cx, cy, r, r, 0.0, intensity),))


def test_phantom_center_values():
    assert shepp_logan_phantom().value_at(0.0, 0.0) == pytest.approx(0.2)
    assert shepp_logan_phantom("classic").value_at(0.0, 0.0) == pytest.approx(1.02)
    assert shepp_logan_phantom().value_at(0.99, 0.0) == 0.0


def test_raster_ranges():
    img = shepp_logan(128)
    assert img.pixels.shape == (128, 128)
    assert img.pixels.max() == pytest.approx(1.0)
    assert img.pixels.min() == pytest.approx(0.0)
    assert shepp_logan(128, "classic").pixels.max() == pytest.approx(2.0)


def test_raster_orientation():
    # the small ellipse at (0, -0.605) lands in the bottom (high-index)
    # rows; its mirror point at (0, +0.605) has only the background 0.2
    img = shepp_logan(128)
    gx, gy = img.pixel_centers()
    at = lambda x, y: img.pixels[np.argmin(np.hypot(gx - x, gy - y).ravel()) // 128][
        np.argmin(np.hypot(gx - x, gy - y).ravel()) % 128
    ]
    assert at(0.0, -0.605) == pytest.approx(0.3)
    assert at(0.0, 0.605) == pytest.approx(0.2)


def test_phantom_validation():
    with pytest.raises(ValueError):
        shepp_logan_phantom("bogus")
    with pytest.raises(ValueError):
        shepp_logan(8)


def test_circle_projection_exact_chords():
    e = Ellipse(0.0, 0.0, 0.5, 0.5, 0.0, 2.0)
    ts = np.linspace(-1.0, 1.0, 101)
    for theta in (0.0, 0.7, 2.1):
        proj = ellipse_projection(e, np.array(theta), ts)
        expected = np.where(
            np.abs(ts) < 0.5, 2.0 * 2.0 * np.sqrt(np.maximum(0.25 - ts * ts, 0.0)), 0.0
        )
        np.testing.assert_allclose(proj, expected, atol=1e-14)


def test_centered_ellipse_rotation_shifts_angle():
    # for a centered ellipse, adding delta to the tilt equals probing at
    # theta - delta
    ts = np.linspace(-1.0, 1.0, 64)
    theta = np.array(1.1)
    delta = 25.0
    base = Ellipse(0.0, 0.0, 0.3, 0.6, 10.0, 1.0)
    tilted = Ellipse(0.0, 0.0, 0.3, 0.6, 10.0 + delta, 1.0)
    lhs = ellipse_projection(tilted, theta, ts)
    rhs = ellipse_projection(base, theta - math.radians(delta), ts)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_sinogram_angle_offset_matches_shifted_angles():
    ph = unit_disk(cx=0.2, cy=-0.1)
    a = radon_analytic(ph, num_angles=10, dtheta_deg=7.0, num_bins=81, theta0_deg=0.0)
    b = radon_analytic(ph, num_angles=9, dtheta_deg=7.0, num_bins=81, theta0_deg=7.0)
    np.testing.assert_allclose(a.data[1:], b.data, atol=1e-14)


def test_projection_mass_conservation():
    # integral over t of every projection equals the phantom's total mass;
    # needs a fine detector lattice because the chord profile has
    # square-root edges
    ph = shepp_logan_phantom()
    mass = sum(math.pi * e.semi_a * e.semi_b * e.intensity for e in ph.ellipses)
    sino = radon_analytic(ph, num_angles=4, dtheta_deg=41.0, num_bins=65537)
    sums = np.trapezoid(sino.data, dx=sino.dt, axis=1)
    np.testing.assert_allclose(sums, mass, rtol=1e-6)


def test_radon_validation():
    ph = unit_disk()
    with pytest.raises(ValueError):
        radon_analytic(ph, num_angles=0, dtheta_deg=0.5, num_bins=729)
    with pytest.raises(ValueError):
        radon_analytic(ph, num_angles=4, dtheta_deg=-1.0, num_bins=729)
    with pytest.raises(ValueError):
        radon_analytic(ph, num_angles=4, dtheta_deg=0.5, num_bins=1)


def test_default_num_bins_odd():
    for size in (64, 256, 512):
        nb = default_num_bins(size)
        assert nb % 2 == 1
        assert abs(nb - 1.424 * size) < 2.5


def test_filter_zero_input_is_zero():
    sino = Sinogram(3, 33, 0.0, 0.1, -1.0, 2.0 / 32, np.zeros((3, 33)))
    out = filter_projections(sino)
    np.testing.assert_array_equal(out.data, 0.0)
    assert out.max_imag == 0.0


def test_filter_linearity():
    rng = np.random.default_rng(9)
    d1 = rng.normal(size=(4, 33))
    d2 = rng.normal(size=(4, 33))
    mk = lambda d: Sinogram(4, 33, 0.0, 0.2, -1.0, 2.0 / 32, d)
    f = lambda d: filter_projections(mk(d)).data
    np.testing.assert_allclose(f(2.0 * d1 - 3.0 * d2), 2.0 * f(d1) - 3.0 * f(d2), atol=1e-10)


def test_filter_real_output_small_imaginary_residue():
    # The operator is real by construction, so no imaginary residue is left.
    ph = unit_disk()
    sino = radon_analytic(ph, num_angles=6, dtheta_deg=30.0, num_bins=65)
    out = filter_projections(sino)
    assert out.max_imag == 0.0 and out.data.dtype == np.float64


def detector_grid(sino):
    return UniformGrid(sino.t0, sino.t0 + sino.dt * (sino.num_bins - 1), sino.num_bins - 1)


def band_rule(sino):
    """Ascending nodes and weights of a Gauss-Legendre rule over the band
    [-1/(2 dt), 1/(2 dt)]: 16-point panels, 2 num_bins + 128 points (to
    within a panel) on each half.  A single rule of that degree has weights
    good only to about 1e-13 (np.polynomial.legendre.leggauss at 1586
    points); 16-point panels are good to rounding."""
    band, panels = 1.0 / (2.0 * sino.dt), (2 * sino.num_bins + 128) // 16
    x, w = np.polynomial.legendre.leggauss(16)
    half = band / panels * (np.arange(panels)[:, None] + 0.5 * (x + 1.0)).ravel()
    weights = np.tile(w, panels) * (0.5 * band / panels)
    return np.concatenate([-half[::-1], half]), np.concatenate([weights[::-1], weights])


def ramp_inverse(sino, omegas, weights, spectra):
    """sum_g weights_g |omega_g| e^{2 pi i omega_g t_i} spectra[g] at every
    detector node t_i, the phases reduced exactly; a row per node."""
    turns = _node_turns(detector_grid(sino).nodes(), omegas)
    return np.exp(1j * np.pi * turns).T @ (spectra * (weights * np.abs(omegas))[:, None])


def test_filter_matches_per_angle_transform_route():
    # independent route: the public forward transform, one angle at a time, to
    # the band rule's nodes, then the ramp and the inverse integral by the rule
    ph = unit_disk(cx=0.15)
    sino = radon_analytic(ph, num_angles=3, dtheta_deg=50.0, num_bins=49)
    out = filter_projections(sino)
    omegas, weights = band_rule(sino)
    for k in range(sino.num_angles):
        f = SampledFunction(detector_grid(sino), sino.data[k].astype(complex))
        spectrum = forward_transform(f, omegas).values
        q = ramp_inverse(sino, omegas, weights, spectrum[:, None])[:, 0]
        np.testing.assert_allclose(out.data[k], q.real, atol=1e-12)


def two_transform_filter(sino):
    """The ramp filter as two transforms over all angles: coefficient_matrix's
    forward weights at the band rule's nodes, the ramp, and the inverse
    integral by that rule at the bins.  Returns the complex result."""
    omegas, weights = band_rule(sino)
    spectra = coefficient_matrix(detector_grid(sino), -omegas) @ sino.data.T
    return ramp_inverse(sino, omegas, weights, spectra).T


def assert_filter_parity(sino, tol=1e-12):
    expected = two_transform_filter(sino).real
    out = filter_projections(sino)
    assert out.geometry() == sino.geometry()
    assert np.abs(out.data - expected).max() <= tol * np.abs(expected).max()
    return out


# (num_angles, num_bins, t0, dt): odd and even bin counts down to two, a
# single angle, detector ranges not centred on 0, and a detector a million
# bins off centre.  There dt is a power of two so that the two-transform
# route's grid, whose step (b - a)/(n - 1) rounds at the scale of t0, lies on
# the same bins; at dt = 0.013 its step is off by 1e-10 and its output by up
# to 1e-7.
FILTER_PARITY_CASES = {
    "two_bins": (3, 2, -1.0, 2.0),
    "three_bins": (4, 3, -1.0, 1.0),
    "even": (5, 64, -1.0, 2.0 / 63),
    "odd": (5, 65, -1.0, 2.0 / 64),
    "one_angle_odd": (1, 33, -0.5, 0.03),
    "one_angle_even": (1, 34, -0.5, 0.03),
    "asymmetric": (6, 47, -0.3, 0.041),
    "right_of_zero": (3, 20, 0.2, 0.05),
    "far_two_bins": (2, 2, -1e6 * 2.0**-5, 2.0**-5),
    "far_even": (3, 16, 1e6 * 2.0**-5, 2.0**-5),
}


@pytest.mark.parametrize("case", sorted(FILTER_PARITY_CASES))
def test_filter_matches_two_transform_route(case):
    num_angles, num_bins, t0, dt = FILTER_PARITY_CASES[case]
    rng = np.random.default_rng(sum(map(ord, case)))
    sino = Sinogram(num_angles, num_bins, 0.3, 0.1, t0, dt, rng.normal(size=(num_angles, num_bins)))
    assert_filter_parity(sino)
    # a smooth projection, as a scan gives, on the same lattice
    bins = sino.bins()
    mid, half = 0.5 * (bins[0] + bins[-1]), 0.5 * (bins[-1] - bins[0])
    disk = np.sqrt(np.clip(1.0 - ((bins - mid) / (1.2 * half)) ** 2, 0.0, None))
    assert_filter_parity(Sinogram(1, num_bins, 0.0, 0.1, t0, dt, disk[None, :]))


def test_filter_matches_two_transform_route_full_scale():
    sino = FbpConfig(size=512, dtheta_deg=0.5).scan(shepp_logan_phantom())
    assert sino.data.shape == (360, 729)
    out = assert_filter_parity(sino)
    assert out.max_imag <= 1e-10


@pytest.mark.parametrize("size, dtheta_deg", [(128, 4.0), (128, 2.0), (128, 1.0), (128, 0.5)])
def test_reconstruction_matches_two_transform_route(size, dtheta_deg):
    cfg = FbpConfig(size=size, dtheta_deg=dtheta_deg)
    sino = cfg.scan(shepp_logan_phantom())
    filtered = FilteredSinogram(*sino.geometry(), data=two_transform_filter(sino).real)
    expected = backproject(filtered, size).pixels
    recon = fbp_reconstruct(sino, cfg).pixels
    assert np.abs(recon - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("t0_bins, dt", [(1e6, 2.0**-5), (-1e6, 2.0**-5), (1e6, 0.013)])
def test_filter_bin_phases_are_reduced_exactly(t0_bins, dt):
    # A million bins off centre the phases 2 pi t_i omega run to a hundred
    # thousand radians.  The operator does not depend on t0, so it loses none
    # of them: the same data filters to the same bits as on a detector at 0 or
    # at t0 = 1e160, and an interior impulse at any bin leaves the same K(0)
    # on the diagonal.
    n = 9
    mk = lambda t0: Sinogram(n, n, 0.0, 0.1, t0, dt, np.eye(n))
    out = filter_projections(mk(t0_bins * dt)).data
    for t0 in (0.0, 1e160):
        assert filter_projections(mk(t0)).data.tobytes() == out.tobytes()
    diag = np.diag(out)[1:-1]
    assert np.abs(diag - diag[0]).max() <= 1e-14 * np.abs(diag).max()
    if dt == 2.0**-5:
        # on a power-of-two step the two-transform route, which reduces the
        # phases exactly, lies on the same bins
        assert_filter_parity(mk(t0_bins * dt))


def test_filter_max_imag_bounds_the_operator_on_the_data_peak():
    # max_imag bounds |Im K| times the data's peak.  K is real, so the bound is
    # 0.0 for every data set; the two-transform route, which sums complex
    # exponentials, leaves a residue of rounding size.
    rng = np.random.default_rng(4)
    data = rng.normal(size=(4, 41))
    mk = lambda d: Sinogram(4, 41, 0.0, 0.2, -1.0, 0.05, d)
    peak = np.abs(data).max()
    for d in (data, -data, np.full((4, 41), peak), 4.0 * data):
        assert filter_projections(mk(d)).max_imag == 0.0
    out = filter_projections(mk(data)).data
    assert np.abs(two_transform_filter(mk(data)).imag).max() <= 1e-14 * np.abs(out).max()


def test_filter_holds_no_per_frequency_array():
    # Filtering 180 angles of 257 bins must not hold a complex
    # (4 num_bins + 1) x num_angles spectrum, as a two-transform route does.
    sino = Sinogram(180, 257, 0.0, 0.01, -1.0, 2.0 / 256,
                    np.random.default_rng(2).normal(size=(180, 257)))
    spectrum_bytes = (4 * 257 + 1) * 180 * 16
    filter_projections(sino)
    tracemalloc.start()
    try:
        filter_projections(sino)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < spectrum_bytes  # 0.70 of it measured


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e306, -1e306])
def test_filter_rejects_samples_it_cannot_sum(value):
    data = np.zeros((2, 9))
    data[1, 4] = value
    with pytest.raises(ValueError, match="projections must be finite"):
        filter_projections(Sinogram(2, 9, 0.0, 0.1, -1.0, 0.25, data))
    # 9 bins convolve at length 18, so up to 2**1020 / 18**4 ~ 1e302 is summed
    data[1, 4] = math.copysign(1e300, value) if math.isfinite(value) else 1e300
    with np.errstate(all="raise"):
        assert np.isfinite(filter_projections(Sinogram(2, 9, 0.0, 0.1, -1.0, 0.25, data)).data).all()


@pytest.mark.parametrize("t0, dt", [(0.0, 5e-324)])
def test_filter_rejects_bins_past_the_closed_forms(t0, dt):
    # The operator scales as 1/dt, which overflows at a subnormal dt: every
    # sample is rejected, all-zero data too, rather than filtered to NaN.
    for data in (np.ones((1, 5)), np.zeros((1, 5))):
        with pytest.raises(ValueError, match="projections must be finite"):
            filter_projections(Sinogram(1, 5, 0.0, 0.1, t0, dt, data))


def test_filter_takes_a_band_past_the_closed_forms_where_the_bins_fit():
    # K dt does not depend on dt, at 1e-300 as at 1
    data = np.array([[1.0, 0.3, 0.7]])
    with np.errstate(all="raise"):
        tiny = filter_projections(Sinogram(1, 3, 0.0, 0.1, 0.0, 1e-300, data)).data
    unit = filter_projections(Sinogram(1, 3, 0.0, 0.1, 0.0, 1.0, data)).data
    np.testing.assert_allclose(tiny * 1e-300, unit, rtol=1e-14)


# PSNR of the acceptance 08/09 runs under the exact band integral, which the
# two-transform route matches (test_reconstruction_matches_two_transform_route).
DENSE_PSNR_128 = {
    45: 20.786572944836518,
    90: 24.016954505665026,
    180: 24.452641747033343,
    360: 24.477547453692843,
}
DENSE_PSNR_512 = {"whole": 28.5073776289805, "inner": 44.13339996318107}


def test_fbp_psnr_pinned_to_dense_route_desk_scale():
    ph, ref = shepp_logan_phantom(), shepp_logan(128)
    for num_angles, psnr in DENSE_PSNR_128.items():
        recon = fbp_reconstruct(ph, FbpConfig(size=128, dtheta_deg=180.0 / num_angles))
        assert abs(image_metrics(recon, ref).psnr - psnr) <= 1e-6


def test_fbp_psnr_pinned_to_dense_route_full_scale():
    cfg = FbpConfig(size=512, dtheta_deg=0.5).resolved()
    sino = radon_analytic(
        shepp_logan_phantom(), num_angles=cfg.num_angles, dtheta_deg=cfg.dtheta_deg,
        num_bins=cfg.num_bins,
    )
    filtered = filter_projections(sino)
    assert filtered.max_imag <= 1e-10
    recon = backproject(filtered, cfg.size)
    ref = shepp_logan(512)
    for region, psnr in DENSE_PSNR_512.items():
        assert abs(image_metrics(recon, ref, region).psnr - psnr) <= 1e-6


def ram_lak(sino):
    """The band-limited ramp filter sampled at the bins (Kak & Slaney,
    Principles of Computerized Tomographic Imaging, ch. 3):
    q_i = dt sum_j h(i - j) p_j with h(0) = 1/(4 dt^2), h(d) = 0 for even d
    and -1/(pi d dt)^2 for odd d."""
    n, dt = sino.num_bins, sino.dt
    d = np.arange(1 - n, n, dtype=float)
    h = np.where(d % 2 == 0, 0.0, -1.0 / (np.pi * np.maximum(np.abs(d), 1.0) * dt) ** 2)
    h[n - 1] = 1.0 / (4.0 * dt * dt)
    lags = np.arange(n)[:, None] - np.arange(n) + n - 1
    return dt * sino.data @ h[lags].T


@lru_cache(maxsize=None)
def head_256(filter_name):
    """The head phantom's 256^2 / 1 degree reconstruction under filter_projections
    or ram_lak, and its raster."""
    cfg = FbpConfig(size=256, dtheta_deg=1.0)
    sino = cfg.scan(shepp_logan_phantom())
    data = filter_projections(sino).data if filter_name == "oqf" else ram_lak(sino)
    return backproject(FilteredSinogram(*sino.geometry(), data=data), 256), shepp_logan(256)


def test_fbp_inner_region_has_no_offset():
    # A frequency lattice of 4 num_bins + 1 nodes made every filtered
    # projection periodic, and the copies' -1/t^2 tails left the inner region
    # -5.7e-3 below the phantom; the exact band integral leaves -7.0e-5.
    recon, ref = head_256("oqf")
    mask = inner_region_mask(ref)
    assert abs((recon.pixels - ref.pixels)[mask].mean()) <= 5e-4


def test_fbp_inner_psnr_matches_ram_lak():
    # The lattice filter's inner PSNR was 1.75 dB below Ram-Lak's (39.66
    # against 41.41); the exact band integral is 0.09 dB below.
    inner = [image_metrics(*head_256(name), "inner").psnr for name in ("oqf", "ram_lak")]
    assert abs(inner[0] - inner[1]) <= 0.25


def test_filter_noise_gain_is_the_band_integral_of_its_symbol():
    # White noise keeps sum q^2 / sum (Ram-Lak q)^2 of the power Ram-Lak
    # passes; by Parseval, with the symbols |nu| sinc^2(pi nu) / dt and
    # |nu| / dt at nu = omega dt, that is 12 int_{-1/2}^{1/2} nu^2 sinc^4(pi nu) d nu.
    n, dt = 2001, 1e-3
    impulse = np.zeros((1, n))
    impulse[0, n // 2] = 1.0
    sino = Sinogram(1, n, 0.0, 0.1, -1.0, dt, impulse)
    x, w = np.polynomial.legendre.leggauss(40)
    nu = 0.25 * (x + 1.0)  # [0, 1/2], the integrand being even
    gain = 12.0 * 0.5 * (w @ (nu**2 * np.sinc(nu) ** 4))
    assert abs(gain - 0.39185) <= 1e-5
    ram = ram_lak(sino)
    assert abs((ram**2).sum() * 12.0 * dt * dt - 1.0) <= 1e-9  # sum (h dt)^2 = 1/(12 dt^2)
    ratio = (filter_projections(sino).data ** 2).sum() / (ram**2).sum()
    assert abs(ratio - gain) <= 1e-4


def test_backproject_constant_gives_pi():
    # Q = 1 on a detector covering the whole square integrates to
    # num_angles * dtheta ~ pi at every pixel
    from oqf.ct.fbp import FilteredSinogram

    na = 90
    dtheta = math.pi / na
    q = FilteredSinogram(na, 41, 0.0, dtheta, -1.5, 3.0 / 40, np.ones((na, 41)))
    img = backproject(q, 16)
    np.testing.assert_allclose(img.pixels, math.pi, rtol=1e-12)


def filtered_phantom(num_angles, dtheta_deg, num_bins, t_range=(-1.0, 1.0), theta0_deg=0.0):
    """Ramp-filtered exact sinogram of the head phantom, band at detector Nyquist."""
    sino = radon_analytic(
        shepp_logan_phantom(), num_angles=num_angles, dtheta_deg=dtheta_deg,
        num_bins=num_bins, t_range=t_range, theta0_deg=theta0_deg,
    )
    return filter_projections(sino)


def backproject_interp(q, size):
    """Reference back-projection: one binary-search ``np.interp`` per angle."""
    image = ImageGrid(size, size, np.zeros((size, size)))
    gx, gy = image.pixel_centers()
    bins = q.bins()
    accum = np.zeros((size, size))
    for k, theta in enumerate(q.angles()):
        t = gx * math.cos(theta) + gy * math.sin(theta)
        accum += np.interp(t, bins, q.data[k], left=0.0, right=0.0)
    accum *= q.dtheta
    return accum


def assert_backproject_parity(q, size):
    ref = backproject_interp(q, size)
    got = backproject(q, size).pixels
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def orbit_sizes(q):
    return Counter(len(orbit) for orbit in _square_orbits(q.theta0, q.dtheta, q.num_angles))


# (size, num_angles, dtheta_deg, num_bins, t_range, theta0_deg) -> orbit sizes
PARITY_CASES = {
    "512_360": ((512, 360, 0.5, 729, (-1.0, 1.0), 0.0), {4: 89, 2: 2}),
    "45_angles": ((128, 45, 4.0, 183, (-1.0, 1.0), 0.0), {2: 22, 1: 1}),
    "theta0_0.3_rad": ((64, 67, 180.0 / 67, 93, (-1.0, 1.0), math.degrees(0.3)), {1: 67}),
    "theta0_0.3_deg": ((64, 120, 1.5, 93, (-1.0, 1.0), 0.3), {2: 60}),
    "narrow_detector": ((128, 90, 2.0, 101, (-0.6, 0.6), 0.0), {4: 22, 2: 1}),
    "odd_raster": ((17, 90, 2.0, 25, (-1.0, 1.0), 0.0), {4: 22, 2: 1}),
}


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_backproject_matches_interp_loop(case):
    (size, *geometry), sizes = PARITY_CASES[case]
    q = filtered_phantom(*geometry)
    assert orbit_sizes(q) == sizes
    assert_backproject_parity(q, size)


def test_backproject_parity_two_bins_one_angle():
    q = FilteredSinogram(1, 2, 0.4, 0.1, -0.5, 1.0, np.array([[0.7, -0.3]]))
    assert_backproject_parity(q, 16)


def test_backproject_exact_detector_endpoints():
    # bins on the centres of columns 0..12 of a 16-pixel raster (binary-exact
    # t0 and dt): column 0 sits exactly on the first bin and column 12 on the
    # last, column 13 is half a bin past the end and must read zero
    rng = np.random.default_rng(5)
    q = FilteredSinogram(1, 7, 0.0, 0.25, -0.9375, 0.25, rng.normal(size=(1, 7)))
    pixels = backproject(q, 16).pixels
    np.testing.assert_allclose(pixels[:, 0], q.data[0, 0] * q.dtheta, rtol=1e-15)
    np.testing.assert_allclose(pixels[:, 12], q.data[0, 6] * q.dtheta, rtol=1e-15)
    assert np.all(pixels[:, 13:] == 0.0)
    assert_backproject_parity(q, 16)


GEOMETRY_CASES = {
    "nan_dt": dict(dt=math.nan),
    "zero_dt": dict(dt=0.0),
    "negative_dt": dict(dt=-0.1),
    "negative_dtheta": dict(dtheta=-0.1),
    "zero_dtheta": dict(dtheta=0.0),
    "inf_dtheta": dict(dtheta=math.inf),
    "nan_theta0": dict(theta0=math.nan),
    "inf_t0": dict(t0=-math.inf),
    "one_bin": dict(num_bins=1),
    "no_angle": dict(num_angles=0),
}


@pytest.mark.parametrize("cls", [Sinogram, FilteredSinogram])
@pytest.mark.parametrize("case", sorted(GEOMETRY_CASES))
def test_geometry_rejects_meaningless_lattice(cls, case):
    fields = dict(num_angles=3, num_bins=5, theta0=0.0, dtheta=0.1, t0=-1.0, dt=0.5)
    fields.update(GEOMETRY_CASES[case])
    data = np.zeros((fields["num_angles"], fields["num_bins"]))
    with pytest.raises(ValueError):
        cls(data=data, **fields)


@pytest.mark.parametrize("rows,cols,extent", [
    (0, 2, (-1.0, -1.0, 1.0, 1.0)), (2, 0, (-1.0, -1.0, 1.0, 1.0)),
    (2, 2, (math.nan, -1.0, 1.0, 1.0)), (2, 2, (-1.0, -1.0, 1.0, math.inf)),
    (2, 2, (1.0, -1.0, 1.0, 1.0)), (2, 2, (-1.0, 1.0, 1.0, -1.0)),
])
def test_image_grid_rejects_meaningless_raster(rows, cols, extent):
    with pytest.raises(ValueError):
        ImageGrid(rows, cols, np.zeros((rows, cols)), extent)


def test_ellipse_contains_boundary_rotation_and_broadcast():
    e = Ellipse(0.25, -0.5, 0.5, 0.25, 0.0, 1.0)
    assert e.contains(0.75, -0.5) and e.contains(0.25, -0.25)
    assert not e.contains(0.75 + 1e-9, -0.5) and not e.contains(0.25, -0.25 + 1e-9)
    turned = Ellipse(0.0, 0.0, 0.5, 0.25, 90.0, 1.0)
    assert turned.contains(0.0, 0.45) and not turned.contains(0.45, 0.0)
    inside = e.contains(np.array([[0.25], [0.8]]), np.array([-0.5, -0.25, 0.5]))
    np.testing.assert_array_equal(inside, [[True, True, False], [False, False, False]])


def test_fbp_small_scale_recovers_disk():
    ph = unit_disk()
    cfg = FbpConfig(size=64, dtheta_deg=3.0)
    recon = fbp_reconstruct(ph, cfg)
    truth = ImageGrid(64, 64, np.zeros((64, 64)))
    gx, gy = truth.pixel_centers()
    ref = ImageGrid(64, 64, (gx * gx + gy * gy <= 0.25).astype(float))
    rep = image_metrics(recon, ref)
    assert rep.psnr > 18.0


def test_fbp_psnr_improves_with_more_angles():
    ph = shepp_logan_phantom()
    ref = shepp_logan(64)
    psnrs = []
    for dtheta_deg in (6.0, 1.5):
        recon = fbp_reconstruct(ph, FbpConfig(size=64, dtheta_deg=dtheta_deg))
        psnrs.append(image_metrics(recon, ref).psnr)
    assert psnrs[1] > psnrs[0]


def test_fbp_accepts_precomputed_sinogram():
    ph = unit_disk()
    cfg = FbpConfig(size=32, dtheta_deg=6.0).resolved()
    sino = radon_analytic(
        ph, num_angles=cfg.num_angles, dtheta_deg=cfg.dtheta_deg, num_bins=cfg.num_bins
    )
    a = fbp_reconstruct(ph, cfg)
    b = fbp_reconstruct(sino, cfg)
    np.testing.assert_array_equal(a.pixels, b.pixels)


def test_config_scan_is_the_radon_call_on_resolved_fields():
    ph = unit_disk()
    cfg = FbpConfig(size=32, dtheta_deg=6.0)
    resolved = cfg.resolved()
    sino = cfg.scan(ph)
    expected = radon_analytic(
        ph, num_angles=resolved.num_angles, dtheta_deg=resolved.dtheta_deg,
        num_bins=resolved.num_bins,
    )
    assert sino.geometry() == expected.geometry()
    np.testing.assert_array_equal(sino.data, expected.data)
    np.testing.assert_array_equal(fbp_reconstruct(ph, cfg).pixels,
                                  fbp_reconstruct(cfg.scan(ph), cfg).pixels)


def test_config_scan_spans_the_half_rotation_at_any_step():
    disk = unit_disk(r=1.0)

    def centre(step):
        return fbp_reconstruct(disk, FbpConfig(size=64, dtheta_deg=step)).pixels[28:36, 28:36].mean()

    reference = centre(0.5)
    for step, num_angles in ((7.0, 26), (0.7, 257)):
        sino = FbpConfig(size=64, dtheta_deg=step).scan(disk)
        assert sino.num_angles == num_angles
        assert sino.dtheta == math.radians(180.0 / num_angles)
        assert abs(centre(step) - reference) <= 3e-3 * reference
    # A sinogram given as data keeps its own step: 26 angles of 7 degrees
    # cover 182 degrees and the Riemann sum weights each by 7 degrees.
    own = radon_analytic(disk, 26, 7.0, default_num_bins(64))
    given = fbp_reconstruct(own, FbpConfig(size=64)).pixels[28:36, 28:36].mean()
    assert given > 1.005 * reference


@pytest.mark.parametrize("dtheta_deg", [0.0, -3.0, math.nan, math.inf, 1e-320, 400.0])
def test_config_step_is_checked_only_where_a_lattice_is_built(dtheta_deg):
    cfg = FbpConfig(size=32, dtheta_deg=dtheta_deg)
    with pytest.raises(ValueError, match="angle step"):
        cfg.num_angles
    with pytest.raises(ValueError, match="angle step"):
        cfg.scan(unit_disk())
    # A given sinogram replaces the config's lattice, so its step is never read.
    sino = FbpConfig(size=32, dtheta_deg=6.0).scan(unit_disk())
    np.testing.assert_array_equal(
        fbp_reconstruct(sino, cfg).pixels,
        fbp_reconstruct(sino, FbpConfig(size=32, dtheta_deg=6.0)).pixels,
    )


def ellipse_sum(ph, thetas, ts):
    """Chord sums at angles x bins, added ellipse by ellipse as radon_analytic adds."""
    data = np.zeros((len(thetas), len(ts)))
    for e in ph.ellipses:
        np.add(data, ellipse_projection(e, thetas[:, None], ts[None, :]), out=data)
    return data


def degree_lattice(dtheta_deg, num_angles):
    """radians(k * dtheta_deg), which may round differently from the header
    lattice k * radians(dtheta_deg) that radon_analytic projects at."""
    return np.radians(dtheta_deg * np.arange(num_angles))


@pytest.mark.parametrize("dtheta_deg", [4.0, 3.0, 7.0, 0.7])
def test_radon_angles_are_the_header_lattice(dtheta_deg):
    ph = shepp_logan_phantom()
    num_angles = int(round(180.0 / dtheta_deg))
    sino = radon_analytic(ph, num_angles=num_angles, dtheta_deg=dtheta_deg, num_bins=183)
    np.testing.assert_array_equal(sino.data, ellipse_sum(ph, sino.angles(), sino.bins()))
    # The two angle lattices differ by at most one ulp.
    assert np.abs(sino.angles() - degree_lattice(dtheta_deg, num_angles)).max() <= 4.5e-16


@pytest.mark.parametrize("num_bins", [183, 729])
@pytest.mark.parametrize("dtheta_deg, bound", [
    (4.0, 0.0), (0.5, 0.0), (3.0, 1e-12), (7.0, 1e-12), (0.7, 1e-12),
])
def test_radon_header_angles_stay_near_the_degree_lattice(dtheta_deg, bound, num_bins):
    # Power-of-two steps give both lattices bit for bit.  Elsewhere a
    # one-ulp angle shift moves a chord by up to the square root of a
    # one-ulp offset where a detector bin lies next to an ellipse's tangent
    # line, so the agreement depends on the bin lattice: measured at most
    # 1.6e-13 of the peak here (at 3 degrees and 729 bins).
    ph = shepp_logan_phantom()
    num_angles = int(round(180.0 / dtheta_deg))
    sino = radon_analytic(ph, num_angles=num_angles, dtheta_deg=dtheta_deg, num_bins=num_bins)
    reference = ellipse_sum(ph, degree_lattice(dtheta_deg, num_angles), sino.bins())
    assert np.abs(sino.data - reference).max() <= bound * np.abs(reference).max()


def test_fbp_filters_a_filtered_sinogram_again():
    cfg = FbpConfig(size=32, dtheta_deg=6.0).resolved()
    sino = radon_analytic(
        unit_disk(), num_angles=cfg.num_angles, dtheta_deg=cfg.dtheta_deg, num_bins=cfg.num_bins
    )
    once = filter_projections(sino)
    assert isinstance(once, Sinogram) and once.geometry() == sino.geometry()
    twice = filter_projections(once)
    np.testing.assert_array_equal(
        fbp_reconstruct(once, cfg).pixels, backproject(twice, cfg.size).pixels
    )


def test_metrics_identical_images():
    img = shepp_logan(64)
    rep = image_metrics(img, img)
    assert rep.e_max == 0.0 and rep.mse == 0.0 and rep.psnr == math.inf


def test_metrics_zero_reference_psnr_is_minus_inf():
    zero = ImageGrid(16, 16, np.zeros((16, 16)))
    rep = image_metrics(shepp_logan(16), zero)
    assert rep.mse > 0.0 and rep.psnr == -math.inf
    assert image_metrics(zero, zero).psnr == math.inf
    # peak**2 / MSE underflowing to 0 reads the same as a zero peak.
    tiny = ImageGrid(16, 16, np.full((16, 16), 1e-170))
    assert image_metrics(ImageGrid(16, 16, np.full((16, 16), 1e10)), tiny).psnr == -math.inf


def test_metrics_constant_offset():
    ref = shepp_logan(64)
    test = ImageGrid(64, 64, ref.pixels + 0.1)
    rep = image_metrics(test, ref)
    assert rep.e_max == pytest.approx(0.1)
    assert rep.mse == pytest.approx(0.01)
    assert rep.psnr == pytest.approx(20.0)  # peak 1.0, mse 0.01


def test_metrics_inner_region():
    ref = shepp_logan(64)
    mask = inner_region_mask(ref)
    assert 0 < mask.sum() < mask.size
    # the inner mask excludes the bright skull ring
    assert ref.pixels[mask].max() < 1.0
    rep = image_metrics(ref, ref, region="inner")
    assert rep.region == "inner"


def test_metrics_validation():
    a, b = shepp_logan(64), shepp_logan(32)
    with pytest.raises(ValueError):
        image_metrics(a, b)
    with pytest.raises(ValueError):
        image_metrics(a, a, region="corner")
    ref = ImageGrid(16, 16, np.ones((16, 16)))
    off = ImageGrid(16, 16, np.ones((16, 16)), (5.0, 5.0, 6.0, 6.0))
    with pytest.raises(ValueError, match=r"\(5\.0, 5\.0, 6\.0, 6\.0\) vs .*\(-1\.0, -1\.0, 1\.0, 1\.0\)"):
        image_metrics(off, ref)
    assert image_metrics(off, off).psnr == math.inf
    with pytest.raises(ValueError, match="region 'inner' holds no pixel"):
        image_metrics(off, off, region="inner")


def set_cpus(monkeypatch, cpus):
    """Make run_strips see an affinity mask of ``cpus`` CPUs."""
    monkeypatch.setattr(phantom.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


def strip_outputs():
    """Raw bytes of every strip-run stage on rasters of one strip (16),
    unequal strips (181: 90, 90 and 1 rows) and six strips (300), and on
    sinograms of one angle block (3 x 101) and of five (90 x 729)."""
    ph = shepp_logan_phantom()
    out = {}
    for num_angles, num_bins in ((3, 101), (90, 729)):
        sino = radon_analytic(ph, num_angles, 180.0 / num_angles, num_bins)
        out[f"radon_{num_angles}"] = sino.data.tobytes()
        q = filter_projections(sino)
        for size in (16, 181, 300):
            out[f"backproject_{num_angles}_{size}"] = backproject(q, size).pixels.tobytes()
    for size in (16, 181, 300):
        raster = phantom.rasterize(ph, size)
        out[f"rasterize_{size}"] = raster.pixels.tobytes()
        out[f"mask_{size}"] = inner_region_mask(raster).tobytes()
    return out


def test_strip_outputs_do_not_depend_on_the_cpu_count(monkeypatch):
    set_cpus(monkeypatch, 1)
    expected = strip_outputs()
    for cpus in (2, 3, 64):
        set_cpus(monkeypatch, cpus)
        got = strip_outputs()
        assert [k for k in expected if got[k] != expected[k]] == [], cpus


@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
def test_run_strips_covers_every_part_once_in_contiguous_groups(monkeypatch, cpus):
    set_cpus(monkeypatch, cpus)
    groups = []
    phantom.run_strips(list(range(7)), groups.append)
    groups.sort()
    assert len(groups) == min(cpus, 7)
    assert [p for g in groups for p in g] == list(range(7))


@pytest.mark.parametrize("failing_part", [0, 5])
def test_run_strips_reraises_a_worker_error_and_joins_its_threads(monkeypatch, failing_part):
    set_cpus(monkeypatch, 4)
    threads = threading.active_count()
    done = []

    def work(group):
        if failing_part in group:
            raise KeyError(failing_part)
        done.extend(group)

    with pytest.raises(KeyError, match=str(failing_part)):
        phantom.run_strips(list(range(8)), work)
    assert threading.active_count() == threads
    assert sorted(done) == [p for p in range(8) if p // 2 != failing_part // 2]
    phantom.run_strips(list(range(8)), done.append)
    assert threading.active_count() == threads


def test_run_strips_falls_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(phantom.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(phantom.os, "cpu_count", lambda: 3)
    groups = []
    phantom.run_strips(list(range(7)), groups.append)
    assert sorted(map(len, groups)) == [2, 2, 3]
