import math
from collections import Counter

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
from oqf.ct.fbp import FilteredSinogram, _square_orbits
from oqf.ct.phantom import ellipse_projection, ImageGrid, Sinogram
from oqf.grid import SampledFunction, UniformGrid
from oqf.transform import forward_transform, inverse_transform


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
        radon_analytic(ph, num_angles=0)
    with pytest.raises(ValueError):
        radon_analytic(ph, num_angles=4, dtheta_deg=-1.0)
    with pytest.raises(ValueError):
        radon_analytic(ph, num_angles=4, num_bins=1)


def test_default_num_bins_odd():
    for size in (64, 256, 512):
        nb = default_num_bins(size)
        assert nb % 2 == 1
        assert abs(nb - 1.424 * size) < 2.5


def test_filter_zero_input_is_zero():
    sino = Sinogram(3, 33, 0.0, 0.1, -1.0, 2.0 / 32, np.zeros((3, 33)))
    out = filter_projections(sino, 8.0, 65)
    np.testing.assert_array_equal(out.data, 0.0)
    assert out.max_imag == 0.0


def test_filter_linearity():
    rng = np.random.default_rng(9)
    d1 = rng.normal(size=(4, 33))
    d2 = rng.normal(size=(4, 33))
    mk = lambda d: Sinogram(4, 33, 0.0, 0.2, -1.0, 2.0 / 32, d)
    f = lambda d: filter_projections(mk(d), 8.0, 65).data
    np.testing.assert_allclose(f(2.0 * d1 - 3.0 * d2), 2.0 * f(d1) - 3.0 * f(d2), atol=1e-10)


def test_filter_real_output_small_imaginary_residue():
    ph = unit_disk()
    sino = radon_analytic(ph, num_angles=6, dtheta_deg=30.0, num_bins=65)
    out = filter_projections(sino, 1.0 / (2.0 * sino.dt), 261)
    assert out.max_imag < 1e-10 * max(1.0, np.abs(out.data).max())


def test_filter_matches_per_angle_transform_route():
    # independent route: forward / ramp / inverse through the public 1-d
    # transform API, one angle at a time
    ph = unit_disk(cx=0.15)
    sino = radon_analytic(ph, num_angles=3, dtheta_deg=50.0, num_bins=49)
    band, m = 6.0, 97
    out = filter_projections(sino, band, m)
    det = UniformGrid(sino.t0, sino.t0 + sino.dt * (sino.num_bins - 1), sino.num_bins - 1)
    ogrid = UniformGrid(-band, band, m - 1)
    for k in range(sino.num_angles):
        f = SampledFunction(det, sino.data[k].astype(complex))
        spectrum = forward_transform(f, ogrid.nodes()).values * np.abs(ogrid.nodes())
        q = inverse_transform(SampledFunction(ogrid, spectrum), det.nodes())
        np.testing.assert_allclose(out.data[k], q.real, atol=1e-12)


# PSNR of the acceptance 08/09 runs as the dense weight matrices gave them.
DENSE_PSNR_128 = {
    45: 20.839990502866932,
    90: 23.87135898086659,
    180: 24.271398912375837,
    360: 24.29504397897475,
}
DENSE_PSNR_512 = {"whole": 28.361494487764936, "inner": 41.424607417137516}


def test_fbp_psnr_pinned_to_dense_route_desk_scale():
    ph, ref = shepp_logan_phantom(), shepp_logan(128)
    for num_angles, psnr in DENSE_PSNR_128.items():
        recon = fbp_reconstruct(ph, FbpConfig(size=128, dtheta_deg=180.0 / num_angles))
        assert abs(image_metrics(recon, ref).psnr - psnr) <= 1e-6


def test_fbp_psnr_pinned_to_dense_route_full_scale():
    cfg = FbpConfig(size=512, dtheta_deg=0.5).resolved()
    sino = radon_analytic(
        shepp_logan_phantom(), num_angles=cfg.num_angles, dtheta_deg=cfg.dtheta_deg,
        num_bins=cfg.num_bins, t_range=cfg.t_range,
    )
    filtered = filter_projections(sino, cfg.omega_band, cfg.num_omega)
    assert filtered.max_imag <= 1e-10
    recon = backproject(filtered, cfg.size)
    ref = shepp_logan(512)
    for region, psnr in DENSE_PSNR_512.items():
        assert abs(image_metrics(recon, ref, region).psnr - psnr) <= 1e-6


def test_filter_validation():
    sino = Sinogram(2, 17, 0.0, 0.5, -1.0, 0.125, np.zeros((2, 17)))
    with pytest.raises(ValueError):
        filter_projections(sino, 0.0, 65)
    with pytest.raises(ValueError):
        filter_projections(sino, 4.0, 1)


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
    return filter_projections(sino, 1.0 / (2.0 * sino.dt), 4 * num_bins + 1)


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


def test_fbp_filters_a_filtered_sinogram_again():
    cfg = FbpConfig(size=32, dtheta_deg=6.0).resolved()
    sino = radon_analytic(
        unit_disk(), num_angles=cfg.num_angles, dtheta_deg=cfg.dtheta_deg, num_bins=cfg.num_bins
    )
    once = filter_projections(sino, cfg.omega_band, cfg.num_omega)
    assert isinstance(once, Sinogram) and once.geometry() == sino.geometry()
    twice = filter_projections(once, cfg.omega_band, cfg.num_omega)
    np.testing.assert_array_equal(
        fbp_reconstruct(once, cfg).pixels, backproject(twice, cfg.size).pixels
    )


def test_metrics_identical_images():
    img = shepp_logan(64)
    rep = image_metrics(img, img)
    assert rep.e_max == 0.0 and rep.mse == 0.0 and rep.psnr == math.inf


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
