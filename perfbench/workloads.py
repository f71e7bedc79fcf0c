"""The benchmark's four workloads.

A job calls the public oqf library in the order the matching CLI
subcommands do.  Each workload splits a job into ``make_input`` (seeded
input generation, untimed), ``run`` (the library calls, timed) and
``check`` (correctness against a closed form or an acceptance window,
untimed).  Library functions are always looked up through their module
(``phantom.radon_analytic``), so the traced run sees every call.
``reference_reps`` sizes the reference kernel timed right before and after
each job (see reference.py) to a quarter of a job or more.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oqf import io as oqfio
from oqf import transform, verify
from oqf.ct import fbp, metrics, phantom
from oqf.grid import SampledFunction, UniformGrid


@dataclass(frozen=True)
class CtPipeline:
    """``oqf radon`` -> ``oqf fbp --sinogram`` -> ``oqf metrics`` on one phantom.

    Job 0 is the standard modified Shepp-Logan phantom; later jobs scale each
    ellipse's intensity by a seeded factor in [1 - jitter, 1 + jitter] with the
    scanner geometry unchanged, so a cached result cannot stand in for a job.
    """

    size: int = 512
    dtheta_deg: float = 0.5
    jitter: float = 0.1
    reference_reps: int = 6
    # Acceptance 09: job 0's PSNR(whole) window and PSNR(inner) - PSNR(whole).
    psnr_window: tuple[float, float] = (27.5, 31.5)
    inner_gain_db: float = 5.0

    def make_input(self, job: int, rng: np.random.Generator, workdir: Path):
        base = phantom.shepp_logan_phantom()
        if job == 0:
            return base
        factors = rng.uniform(1.0 - self.jitter, 1.0 + self.jitter, len(base.ellipses))
        return phantom.EllipsePhantom(tuple(
            dataclasses.replace(e, intensity=e.intensity * f)
            for e, f in zip(base.ellipses, factors)
        ))

    def run(self, source, workdir: Path):
        cfg = fbp.FbpConfig(size=self.size, dtheta_deg=self.dtheta_deg).resolved()
        sino = phantom.radon_analytic(
            source, num_angles=cfg.num_angles, dtheta_deg=cfg.dtheta_deg,
            num_bins=cfg.num_bins,
        )
        oqfio.write_sinogram(workdir / "sino.bin", sino)
        sino = oqfio.read_sinogram(workdir / "sino.bin")
        image = fbp.fbp_reconstruct(sino, cfg)
        ref = phantom.rasterize(source, self.size)
        whole = metrics.image_metrics(image, ref, "whole")
        inner = metrics.image_metrics(image, ref, "inner")
        oqfio.write_image(workdir / "recon.img", image)
        return image, whole, inner

    def check(self, job: int, source, out) -> tuple[list[str], dict]:
        image, whole, inner = out
        failures = []
        if not np.all(np.isfinite(image.pixels)):
            failures.append("reconstruction has non-finite pixels")
        if job != 0:
            return failures, {}
        lo, hi = self.psnr_window
        if not lo <= whole.psnr <= hi:
            failures.append(f"PSNR(whole) {whole.psnr:.4f} dB outside [{lo}, {hi}]")
        if not inner.psnr >= whole.psnr + self.inner_gain_db:
            failures.append(
                f"PSNR(inner) {inner.psnr:.4f} dB < PSNR(whole) + {self.inner_gain_db}"
            )
        return failures, {"psnr_whole_db": (whole.psnr, "dB"),
                          "psnr_inner_db": (inner.psnr, "dB")}


@dataclass(frozen=True)
class GaussianInput:
    path: Path
    xs: np.ndarray
    values: np.ndarray
    center: float
    width: float


@dataclass(frozen=True)
class SpectrumRoundTrip:
    """``oqf ft`` -> ``oqf ift`` round trip of a sampled Gaussian.

    f(x) = exp(-pi ((x - c)/s)^2) on [-half, half]; its transform is
    s exp(-pi s^2 w^2) exp(-2 pi i c w).  Job 0 uses c = 0, s = 1; later jobs
    draw c in [-1, 1] and s in [0.5, 1] from the seed.  The Gaussian is below
    1e-40 at the interval ends, so the error is the quadrature's own.
    """

    num_samples: int = 2001
    num_omega: int = 8001
    half: float = 6.0
    reference_reps: int = 6
    # Discretisation error is 1.9e-5 at s = 1 and 8.3e-5 at s = 0.5 (h = 0.006).
    max_err_bound: float = 2e-4

    def make_input(self, job: int, rng: np.random.Generator, workdir: Path):
        center, width = (0.0, 1.0) if job == 0 else (rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.0))
        xs = np.linspace(-self.half, self.half, self.num_samples)
        values = np.exp(-math.pi * ((xs - center) / width) ** 2)
        lines = ["x,re,im"] + [f"{float(x)!r},{float(v)!r},0.0" for x, v in zip(xs, values)]
        path = workdir / "samples.csv"
        path.write_text("\n".join(lines) + "\n")
        return GaussianInput(path, xs, values, center, width)

    def run(self, inp: GaussianInput, workdir: Path):
        xs, values = oqfio.read_complex_csv(inp.path)
        grid = UniformGrid(float(xs[0]), float(xs[-1]), len(xs) - 1)
        omegas = np.linspace(-self.half, self.half, self.num_omega)
        spectrum = transform.forward_transform(SampledFunction(grid, values), omegas)
        oqfio.write_complex_csv(workdir / "spectrum.csv", "omega", spectrum.omegas, spectrum.values)

        omegas, values = oqfio.read_complex_csv(workdir / "spectrum.csv")
        omega_grid = UniformGrid(float(omegas[0]), float(omegas[-1]), len(omegas) - 1)
        xs_out = np.linspace(-self.half, self.half, self.num_samples)
        recon = transform.inverse_transform(SampledFunction(omega_grid, values), xs_out)
        oqfio.write_complex_csv(workdir / "recon.csv", "x", xs_out, recon)
        return spectrum, recon

    def check(self, job: int, inp: GaussianInput, out) -> tuple[list[str], dict]:
        spectrum, recon = out
        c, s = inp.center, inp.width
        w = spectrum.omegas
        exact = s * np.exp(-math.pi * s * s * w * w) * np.exp(-2j * math.pi * c * w)
        err = max(float(np.max(np.abs(spectrum.values - exact))),
                  float(np.max(np.abs(recon - inp.values))))
        failures = []
        if not err < self.max_err_bound:  # also catches NaN
            failures.append(f"max_err {err:.3e} (c={c:.4f}, s={s:.4f}) "
                            f"not below {self.max_err_bound:g}")
        return failures, ({"max_err": (err, "1")} if job == 0 else {})


@dataclass(frozen=True)
class SweepTables:
    """The paper's error tables, as ``scripts/run_error_sweeps.py`` builds them.

    Inputs are fixed by the paper; the seed does not change them.
    """

    halves: tuple[float, ...] = (1.0, 10.0, 100.0)
    steps: tuple[float, ...] = (0.1, 0.01)
    omega_count: int = 201
    reference_reps: int = 3
    # Acceptance 06: rows that are exact up to roundoff.
    machine_zero: float = 1e-11

    def make_input(self, job: int, rng: np.random.Generator, workdir: Path):
        return None

    def run(self, inp, workdir: Path):
        worst = {}
        for half in self.halves:
            for alpha in (0, 1, 2):
                for h in self.steps:
                    records = transform.error_sweep(
                        alpha, (-half, half), round(2.0 * half / h),
                        -half, half, self.omega_count,
                    )
                    worst[half, alpha, h] = max(r.abs_real_error for r in records)
        return worst

    def check(self, job: int, inp, worst: dict) -> tuple[list[str], dict]:
        failures = []
        for (half, alpha, h), err in worst.items():
            exact_row = alpha == 1 or (alpha == 0 and half == 1.0)
            if not math.isfinite(err) or (exact_row and not err < self.machine_zero):
                failures.append(f"half={half:g} alpha={alpha} h={h:g}: max |Re err| {err:.3e}")
        return failures, ({"max_err": (max(worst.values()), "1")} if job == 0 else {})


@dataclass(frozen=True)
class VerifyFast:
    """``oqf verify --level fast``: closed forms against the dense oracle.

    Inputs are fixed by the verification matrix; the seed does not change them.
    """

    reference_reps: int = 1

    def make_input(self, job: int, rng: np.random.Generator, workdir: Path):
        return None

    def run(self, inp, workdir: Path):
        return verify.run_checks("fast")

    def check(self, job: int, inp, results) -> tuple[list[str], dict]:
        failures = [f"{r.name}: {r.max_deviation:.3e} >= {r.threshold:g}"
                    for r in results if not r.passed]
        if not results:
            failures.append("no checks ran")
        return failures, ({"checks": (len(results), "count")} if job == 0 else {})


WORKLOADS = {
    "ct_512": CtPipeline(),
    "spectrum_2001": SpectrumRoundTrip(),
    "sweep_tables": SweepTables(),
    "verify_fast": VerifyFast(),
}

# Same code paths at a size that runs in well under a second each, for the
# harness tests.  The acceptance-08 PSNR floor replaces the 512^2 window.
TOY_WORKLOADS = {
    "ct_512": CtPipeline(size=64, dtheta_deg=2.0, psnr_window=(20.0, 31.5)),
    "spectrum_2001": SpectrumRoundTrip(num_samples=201, num_omega=801, max_err_bound=2e-2),
    "sweep_tables": SweepTables(halves=(1.0, 10.0), steps=(0.1,)),
    "verify_fast": VerifyFast(),
}
