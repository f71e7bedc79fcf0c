"""Acceptance suite: one test per top-level criterion.

Each test prints a single ``[ACCEPTANCE] <name>: PASS|FAIL`` line (visible
with ``pytest -s`` or on failure) and enforces the stated tolerances and
runtime budgets.
"""

import math
import time

import numpy as np

from oqf import oracle
from oqf import io as oqfio
from oqf.ct import (
    FbpConfig,
    fbp_reconstruct,
    image_metrics,
    radon_analytic,
    shepp_logan,
    shepp_logan_phantom,
)
from oqf.grid import SampledFunction, UniformGrid
from oqf.quadrature import coefficient_matrix, error_norm, monomial_fourier_integral
from oqf.transform import (
    error_sweep,
    forward_transform,
    inverse_transform,
    quadrature_error_monomial,
)

TWO_PI = 2.0 * math.pi


def _report(name, ok, detail=""):
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def test_acceptance_01_coefficient_oracle_equivalence():
    # closed form vs dense (N+2)x(N+2) solve on [0,1]; componentwise < 1e-9,
    # |p0| < 1e-10, runtime < 5 s
    # np.max, unlike max(), lets a NaN deviation through to fail the gate.
    start = time.perf_counter()
    omegas = (0.1, 0.3, 1.0, 2.7, 5.0, 10.0)
    devs, p0s = [], []
    for n in range(2, 33):
        closed = coefficient_matrix(UniformGrid(0.0, 1.0, n), omegas)
        for om, row in zip(omegas, closed):
            sol = oracle.solve_coefficient_system(n, om)
            devs.append(np.abs(sol.coefficients - row).max())
            p0s.append(abs(sol.p0))
    max_dev, max_p0 = float(np.max(devs)), float(np.max(p0s))
    elapsed = time.perf_counter() - start
    ok = max_dev < 1e-9 and max_p0 < 1e-10 and elapsed < 5.0
    _report(
        "coefficient-oracle-equivalence", ok,
        f"max_dev={max_dev:.3e} max_p0={max_p0:.3e} elapsed={elapsed:.2f}s",
    )


def test_acceptance_02_norm_cross_check():
    # closed-form squared norm vs brute-force quadratic form < 1e-9, plus
    # the two exact specializations to 1e-13 relative
    omegas = (0.3, 1.0, 2.7)
    devs = []
    for n in (4, 8, 16):
        weights = coefficient_matrix(UniformGrid(0.0, 1.0, n), omegas)
        for om, c, norm_sq in zip(omegas, weights, error_norm(omegas, 1.0 / n)):
            brute = oracle.error_norm_bruteforce(c.real, c.imag, om, n)
            devs.append(abs(brute - norm_sq))
    max_dev = float(np.max(devs))
    h = 0.125
    trap = abs(error_norm(0.0, h) - h * h / 12.0) / (h * h / 12.0)
    integer = abs(
        error_norm(8.0, h) - 1.0 / (TWO_PI * 8.0) ** 2
    ) / (1.0 / (TWO_PI * 8.0) ** 2)
    ok = max_dev < 1e-9 and trap < 1e-13 and integer < 1e-13
    _report(
        "norm-cross-check", ok,
        f"max_dev={max_dev:.3e} rel_trap={trap:.3e} rel_integer={integer:.3e}",
    )


def test_acceptance_03_exactness_suite():
    # 100 random (a, b, N, omega): constants and linears to 1e-12 relative
    rng = np.random.default_rng(20240817)
    errs = []
    for _ in range(100):
        a = rng.uniform(-5.0, 5.0)
        b = a + rng.uniform(0.1, 10.0)
        n = int(rng.integers(1, 40))
        om = rng.uniform(-10.0, 10.0)
        g = UniformGrid(a, b, n)
        w = coefficient_matrix(g, om)
        for alpha, samples in ((0, np.ones(n + 1)), (1, g.nodes())):
            exact = monomial_fourier_integral(alpha, om, a, b)
            errs.append(abs(w @ samples - exact) / max(abs(exact), 1e-2))
    worst = float(np.max(errs))
    ok = worst < 1e-12
    _report("exactness-suite", ok, f"worst_rel={worst:.3e}")


def test_acceptance_04_remark1_expansion():
    # |norm_sq - (h^2/12 - pi^2 w^2 h^4/90)| < 2 pi^4 w^4 h^6/1260 at omega=1
    ok = True
    details = []
    for h in (1e-2, 1e-3):
        om = 1.0
        expansion = h * h / 12.0 - math.pi**2 * om * om * h**4 / 90.0
        bound = 2.0 * math.pi**4 * om**4 * h**6 / 1260.0
        dev = abs(error_norm(om, h) - expansion)
        details.append(f"h={h:g}:dev={dev:.2e}<bound={bound:.2e}")
        ok = ok and dev < bound
    _report("remark1-expansion", ok, " ".join(details))


def test_acceptance_05_h_squared_reproduction():
    # |Re R| ratio h=0.1 over h=0.01 for f2 on [-1,1] in [50, 200]; < 1 s
    start = time.perf_counter()
    ok = True
    details = []
    for om in (0.25, 0.5, 0.75, 1.0):
        coarse = quadrature_error_monomial(2, om, (-1.0, 1.0), 20).abs_real_error
        fine = quadrature_error_monomial(2, om, (-1.0, 1.0), 200).abs_real_error
        if fine < 1e-13:
            details.append(f"om={om}:excluded")
            continue
        ratio = coarse / fine
        details.append(f"om={om}:ratio={ratio:.1f}")
        ok = ok and 50.0 <= ratio <= 200.0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report("h-squared-reproduction", ok, f"{' '.join(details)} elapsed={elapsed:.2f}s")


def test_acceptance_06_machine_zero_rows():
    # |Re R_{f0}| on [-1,1] and |Re R_{f1}| on symmetric intervals < 1e-11
    # across each figure's omega lattice, at both h = 0.1 and h = 0.01
    worst = 0.0
    for half in (1.0, 10.0, 100.0):
        for h in (0.1, 0.01):
            n = round(2.0 * half / h)
            records = error_sweep(1, (-half, half), n, -half, half, 201)
            worst = max(worst, max(r.abs_real_error for r in records))
            if half == 1.0:
                records = error_sweep(0, (-half, half), n, -half, half, 201)
                worst = max(worst, max(r.abs_real_error for r in records))
    ok = worst < 1e-11
    _report("machine-zero-rows", ok, f"worst_abs_re={worst:.3e}")


def _reconstruct(func, a, b, xs):
    h, tau = 0.1, 0.01
    grid = UniformGrid(a, b, round((b - a) / h))
    samples = SampledFunction(grid, func(grid.nodes()).astype(complex))
    omega_grid = UniformGrid(a, b, round((b - a) / tau))
    spectrum = forward_transform(samples, omega_grid.nodes())
    return inverse_transform(SampledFunction(omega_grid, spectrum.values), xs)


def test_acceptance_07_one_dimensional_reconstruction():
    # max abs error on a fixed lattice strictly decreases over the interval
    # ladder; for phi the argmax (on the widest interval's sample lattice)
    # sits within 5% of the interval length of an endpoint; < 30 s
    start = time.perf_counter()
    box = lambda x: np.where(np.abs(x) <= 1.0, 1.0, 0.0)
    phi = lambda x: 1.0 / (1.0 + x * x)
    eval_lattice = np.linspace(-1.0, 1.0, 21)  # multiples of 0.1: sample
    # nodes of every interval in the ladder
    trends_ok = True
    details = []
    for func, name in ((box, "box"), (phi, "phi")):
        errs = []
        for half in (1.0, 5.0, 25.0):
            recon = _reconstruct(func, -half, half, eval_lattice)
            errs.append(float(np.abs(recon - func(eval_lattice)).max()))
        trends_ok = trends_ok and errs[0] > errs[1] > errs[2]
        details.append(f"{name}:{errs[0]:.2e}>{errs[1]:.2e}>{errs[2]:.2e}")

    wide = np.linspace(-25.0, 25.0, 501)
    recon = _reconstruct(phi, -25.0, 25.0, wide)
    argmax_x = float(wide[np.argmax(np.abs(recon - phi(wide)))])
    endpoint_gap = min(abs(argmax_x - 25.0), abs(argmax_x + 25.0))
    argmax_ok = endpoint_gap <= 0.05 * 50.0
    elapsed = time.perf_counter() - start
    ok = trends_ok and argmax_ok and elapsed < 30.0
    _report(
        "one-dimensional-reconstruction", ok,
        f"{' '.join(details)} phi_argmax={argmax_x:g} elapsed={elapsed:.1f}s",
    )


def test_acceptance_08_ct_desk_scale():
    # 128^2 modified phantom, 1 degree step, defaults: < 60 s,
    # PSNR(whole) > 20 dB, PSNR monotone in angle count (0.1 dB tie slack)
    start = time.perf_counter()
    ph = shepp_logan_phantom()
    ref = shepp_logan(128)
    base = fbp_reconstruct(ph, FbpConfig(size=128, dtheta_deg=1.0))
    base_psnr = image_metrics(base, ref).psnr
    psnrs = []
    for num_angles in (45, 90, 180, 360):
        recon = fbp_reconstruct(ph, FbpConfig(size=128, dtheta_deg=180.0 / num_angles))
        psnrs.append(image_metrics(recon, ref).psnr)
    elapsed = time.perf_counter() - start
    monotone = all(b > a - 0.1 for a, b in zip(psnrs, psnrs[1:]))
    ok = base_psnr > 20.0 and monotone and elapsed < 60.0
    _report(
        "ct-desk-scale", ok,
        f"psnr_180={base_psnr:.2f}dB ladder={['%.2f' % p for p in psnrs]} "
        f"elapsed={elapsed:.1f}s",
    )


def test_acceptance_09_ct_full_scale():
    # 512^2 phantom, 0.5 degree step, defaults: PSNR(whole) in [27.5, 31.5],
    # PSNR(inner) >= PSNR(whole) + 5 dB; full metric set reported
    start = time.perf_counter()
    recon = fbp_reconstruct(shepp_logan_phantom(), FbpConfig(size=512, dtheta_deg=0.5))
    ref = shepp_logan(512)
    whole = image_metrics(recon, ref, "whole")
    inner = image_metrics(recon, ref, "inner")
    elapsed = time.perf_counter() - start
    ok = 27.5 <= whole.psnr <= 31.5 and inner.psnr >= whole.psnr + 5.0
    _report(
        "ct-full-scale", ok,
        f"whole: e_max={whole.e_max:.4f} mse={whole.mse:.3e} psnr={whole.psnr:.3f} | "
        f"inner: e_max={inner.e_max:.4f} mse={inner.mse:.3e} psnr={inner.psnr:.3f} | "
        f"elapsed={elapsed:.1f}s",
    )


def test_acceptance_10_property_suites(tmp_path):
    # spot re-execution of the cross-cutting invariants (each also has
    # dedicated unit tests): linearity, conjugate symmetry, mass
    # conservation, second-difference identities, constrained minimality,
    # file round-trips, determinism
    failures = []
    rng = np.random.default_rng(31)

    g = UniformGrid(-1.0, 1.0, 16)
    f1 = SampledFunction(g, rng.normal(size=17) + 1j * rng.normal(size=17))
    f2 = SampledFunction(g, rng.normal(size=17) + 1j * rng.normal(size=17))
    omegas = np.linspace(-2.0, 2.0, 9)
    combo = SampledFunction(g, 1.5 * f1.values - 0.5j * f2.values)
    lin_dev = np.abs(
        forward_transform(combo, omegas).values
        - 1.5 * forward_transform(f1, omegas).values
        + 0.5j * forward_transform(f2, omegas).values
    ).max()
    if lin_dev > 1e-12:
        failures.append(f"linearity dev {lin_dev:.2e}")

    conj_dev = np.abs(
        coefficient_matrix(g, -1.7) - np.conj(coefficient_matrix(g, 1.7))
    ).max()
    if conj_dev > 1e-15:
        failures.append(f"conjugate symmetry dev {conj_dev:.2e}")

    ph = shepp_logan_phantom()
    mass = sum(math.pi * e.semi_a * e.semi_b * e.intensity for e in ph.ellipses)
    sino = radon_analytic(ph, num_angles=3, dtheta_deg=55.0, num_bins=65537)
    mass_dev = np.abs(
        np.trapezoid(sino.data, dx=sino.dt, axis=1) / mass - 1.0
    ).max()
    if mass_dev > 1e-6:
        failures.append(f"mass conservation rel dev {mass_dev:.2e}")

    for name, dev in oracle.discrete_operator_identities(0.1, 8).items():
        if not dev <= 1e-14:
            failures.append(f"operator identity {name} dev {dev:.2e}")

    n, om = 10, 1.0
    c = coefficient_matrix(UniformGrid(0.0, 1.0, n), om)
    base = oracle.error_norm_bruteforce(c.real, c.imag, om, n)
    for _ in range(20):
        dr = rng.normal(size=n + 1)
        di = rng.normal(size=n + 1)
        dr -= dr.mean()
        di -= di.mean()
        if oracle.error_norm_bruteforce(
            c.real + 1e-3 * dr, c.imag + 1e-3 * di, om, n
        ) < base:
            failures.append("minimality violated")
            break

    sino_small = radon_analytic(ph, num_angles=4, dtheta_deg=40.0, num_bins=33)
    p1, p2 = tmp_path / "a.sino", tmp_path / "b.sino"
    oqfio.write_sinogram(p1, sino_small)
    oqfio.write_sinogram(p2, sino_small)
    back = oqfio.read_sinogram(p1)
    if not np.array_equal(back.data, sino_small.data):
        failures.append("sinogram round trip not bit exact")
    if p1.read_bytes() != p2.read_bytes():
        failures.append("writes not deterministic")

    _report("property-suites", not failures, "; ".join(failures))
