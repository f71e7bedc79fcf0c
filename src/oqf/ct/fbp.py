"""Filtered back-projection built on the optimal quadrature transforms.

Per angle, the projection is Fourier-transformed with the optimal weights,
multiplied by the ramp |omega| truncated at the band limit, and inverse
transformed back onto the detector lattice.  Back-projection integrates the
filtered projections over the half rotation with a plain Riemann sum in
angle and linear interpolation in detector position.

Back-projection reads each angle's detector values from a lerp table by
index arithmetic, one strip of raster rows at a time, and shares one index
array between the angles that the square raster's symmetries relate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..grid import UniformGrid
from ..quadrature import apply_weights
from .phantom import EllipsePhantom, ImageGrid, Sinogram, radon_analytic


@dataclass(frozen=True)
class FilteredSinogram(Sinogram):
    """Ramp-filtered projections on the same lattice as their source sinogram."""

    max_imag: float = 0.0


def default_num_bins(size: int) -> int:
    """Detector bin count giving spacing comparable to the pixel pitch."""
    return 2 * int(0.712 * size) + 1


@dataclass(frozen=True)
class FbpConfig:
    """Scan and raster parameters of one reconstruction run."""

    size: int = 512
    dtheta_deg: float = 0.5  # scanned at 180/num_angles degrees
    num_bins: int | None = None

    def resolved(self) -> "FbpConfig":
        num_bins = self.num_bins if self.num_bins is not None else default_num_bins(self.size)
        return replace(self, num_bins=num_bins)

    @property
    def num_angles(self) -> int:
        """180/dtheta_deg rounded; ValueError unless that is a finite count of at least 1."""
        step = self.dtheta_deg
        count = 180.0 / step if math.isfinite(step) and step > 0 else math.nan
        if not (math.isfinite(count) and round(count) >= 1):
            raise ValueError(f"angle step must be finite and positive and leave at least "
                             f"one angle in 180 degrees, got {step!r}")
        return round(count)

    def scan(self, phantom: EllipsePhantom) -> Sinogram:
        """The phantom's exact sinogram at num_angles steps of 180/num_angles degrees,
        so the angles span the half rotation whether or not dtheta_deg divides 180."""
        cfg = self.resolved()
        num_angles = cfg.num_angles
        return radon_analytic(phantom, num_angles, 180.0 / num_angles, cfg.num_bins)


def filter_projections(sino: Sinogram) -> FilteredSinogram:
    """Ramp-filter every projection through the optimal quadrature transforms.

    The forward transform runs over the detector interval; the band-limited
    inverse runs over the sinogram's own frequency lattice, 4 num_bins + 1
    points on [-1/(2 dt), 1/(2 dt)] up to the detector Nyquist, and is
    evaluated back at the detector bins.  Real input yields real output up
    to roundoff; the largest imaginary residue is reported on the result.
    """
    det_grid = UniformGrid(sino.t0, sino.t0 + sino.dt * (sino.num_bins - 1), sino.num_bins - 1)
    band = 1.0 / (2.0 * sino.dt)
    omega_grid = UniformGrid(-band, band, 4 * sino.num_bins)
    omegas = omega_grid.nodes()

    # S(omega, theta) for all angles at once: forward kernel e^{-2 pi i omega t}.
    spectra = apply_weights(det_grid, -omegas, sino.data.T)  # (4 num_bins + 1, num_angles)
    spectra *= np.abs(omegas)[:, None]

    # Q(t, theta): band-limited inverse evaluated at the detector bins.
    filtered = apply_weights(omega_grid, det_grid.nodes(), spectra).T  # (num_angles, num_bins)

    max_imag = float(np.abs(filtered.imag).max()) if filtered.size else 0.0
    return FilteredSinogram(*sino.geometry(), data=filtered.real, max_imag=max_imag)


def _square_orbits(theta0: float, dtheta: float, num_angles: int) -> list[list[tuple[int, int]]]:
    """Group the angle lattice into orbits of the centred square raster's symmetries.

    On a centred square raster the detector coordinate at angle theta + pi/2
    (frame 1), pi - theta (frame 2) and pi/2 - theta (frame 3) equals
    theta's at a rotated or mirrored pixel, so one index array serves every
    angle of an orbit.  Each orbit is a list of (angle index, frame), base
    angle first in frame 0; a partner joins when it lies on the lattice to
    within a few ulps of the angles' scale and is not already taken.
    """
    tol = 8 * np.finfo(float).eps * max(math.pi, abs(theta0) + dtheta * num_angles)
    taken = [False] * num_angles
    orbits = []
    for k in range(num_angles):
        if taken[k]:
            continue
        taken[k] = True
        theta = theta0 + dtheta * k
        orbit = [(k, 0)]
        for frame, phi in enumerate((theta + math.pi / 2, math.pi - theta, math.pi / 2 - theta), 1):
            j = round((phi - theta0) / dtheta)
            if 0 <= j < num_angles and not taken[j] and abs(theta0 + dtheta * j - phi) <= tol:
                taken[j] = True
                orbit.append((j, frame))
        orbits.append(orbit)
    return orbits


def backproject(q: FilteredSinogram, size: int) -> ImageGrid:
    """Integrate filtered projections over the half rotation onto a raster.

    Riemann sum with weight dtheta; detector values off the lattice come
    from linear interpolation, and pixels outside the detector range
    contribute nothing for that angle (``np.interp`` with zero fill).

    The detector index u = (x cos + y sin - t0) / dt is one broadcast add of
    precomputed row and column terms per strip; each angle reads a table of
    n + 1 complex slots a - i b with value Re(c[floor(u + 1)] (1 + i (u + 1)))
    = a + b (u + 1), zero outside the detector.  Frames 1-3 of an orbit are
    summed in the base angle's frame and mapped back at the end: frame 2 per
    strip by a column flip, frames 1 and 3 through a second full-size
    accumulator that is flipped and transposed once.
    """
    if size < 16:
        raise ValueError(f"raster size must be at least 16, got {size}")
    n = q.num_bins
    # Slot k + 1 holds the segment from bin k to k + 1 in the shifted index
    # v = u + 1; slots 0 and n are zero.  The integer cast truncates, which
    # is floor for v >= 0 and slot 0 for v in (-1, 0), and ``take`` clips
    # every other index off the detector onto slot 0 or n.
    slope = np.diff(q.data, axis=1)
    table = np.zeros((q.num_angles, n + 1), dtype=complex)
    table.real[:, 1:n] = q.data[:, :-1] - slope * np.arange(1, n)
    table.imag[:, 1:n] = -slope

    orbits = _square_orbits(q.theta0, q.dtheta, q.num_angles)
    image = ImageGrid(size, size, np.zeros((size, size)))
    xs, ys = image.axes()
    base = q.theta0 + q.dtheta * np.array([orbit[0][0] for orbit in orbits])
    # Bounding each term keeps the integer cast of their sum in range; past
    # 2**60 the float spacing is far coarser than one detector bin anyway.
    col_terms = np.clip((np.cos(base)[:, None] * xs - q.t0) / q.dt + 1.0, -2.0**60, 2.0**60)
    row_terms = np.clip(np.sin(base)[:, None] * ys / q.dt, -2.0**60, 2.0**60)

    accum = image.pixels                # frames 0 and 2
    turned = np.zeros((size, size))     # frames 1 and 3, before [:, ::-1].T
    strips = image.strips()
    rows = strips[0].stop  # the first strip is the tallest
    weight = np.empty((rows, size), dtype=complex)
    weight.real = 1.0
    index = np.empty((rows, size), dtype=np.intp)
    on_last_bin = np.empty((rows, size), dtype=bool)
    gathered = np.empty((rows, size), dtype=complex)
    sums = np.empty((4, rows, size), dtype=complex)
    for strip in strips:
        r0, r1 = strip.start, strip.stop
        h = r1 - r0
        w, idx, hit, g, s = (
            weight[:h], index[:h], on_last_bin[:h], gathered[:h], sums[:, :h]
        )
        v = w.imag
        s[...] = 0.0
        for o, orbit in enumerate(orbits):
            np.add(row_terms[o, r0:r1, None], col_terms[o], out=v)
            np.copyto(idx, v, casting="unsafe")
            # u == n - 1 exactly is the last bin's value, not the zero slot.
            np.equal(v, n, out=hit)
            idx[hit] = n - 1
            for k, frame in orbit:
                table[k].take(idx, out=g, mode="clip")
                g *= w
                s[frame] += g
        accum[r0:r1] += s[0].real
        accum[r0:r1] += s[2].real[:, ::-1]
        turned[r0:r1] += s[1].real
        turned[size - r1:size - r0] += s[3].real[::-1]
    accum += turned[:, ::-1].T
    accum *= q.dtheta
    return image


def fbp_reconstruct(
    source: EllipsePhantom | Sinogram, config: FbpConfig
) -> ImageGrid:
    """Full pipeline: (exact Radon if needed) -> ramp filtering -> back-projection."""
    sino = source if isinstance(source, Sinogram) else config.scan(source)
    filtered = filter_projections(sino)
    return backproject(filtered, config.size)
