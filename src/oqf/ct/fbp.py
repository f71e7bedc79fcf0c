"""Filtered back-projection built on the optimal quadrature transforms.

The ramp filter is the optimal forward transform of a projection, the ramp
|omega| up to the detector Nyquist, and the inverse Fourier integral back at
the detector bins, taken exactly over the band.  That product is one real
n x n operator per detector spacing, the same for every angle and every
detector offset, with a closed form (a Toeplitz part plus two end
columns); filter_projections applies it to all angles as one real FFT
convolution.  Back-projection integrates the filtered projections over the
half rotation with a plain Riemann sum in angle and linear interpolation in
detector position.

Back-projection reads each angle's detector values from a lerp table by
index arithmetic, one strip of raster rows at a time, and shares one index
array between the angles that the square raster's symmetries relate.  The
strips run in contiguous groups, one per CPU the process may use
(phantom.run_strips; ``taskset -c 0`` gives a single-core run), and every
pixel takes the same operations in the same order whatever the group count,
so the image is the same to the bit.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from ..quadrature import _fft_length
from .phantom import EllipsePhantom, ImageGrid, Sinogram, radon_analytic, run_strips


@dataclass(frozen=True)
class FilteredSinogram(Sinogram):
    """Ramp-filtered projections on the same lattice as their source sinogram.

    max_imag is always 0.0: the filter's operator is real (see
    filter_projections).  It stays a field because the benchmark harness
    reads it.
    """

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


def _ramp_integrals(n: int) -> np.ndarray:
    """P_k = int_0^pi (1 - (-1)^k cos s)/(k pi + s) ds for k = 0..n-1.

    P_k is Cin((k + 1) pi) - Cin(k pi), Cin(x) = int_0^x (1 - cos u)/u du.
    The integrand is analytic on [0, pi], and for k >= 1 its pole at
    s = -k pi lies at least pi away, so a 12-point Gauss-Legendre sum is
    exact to rounding.
    1 -+ cos s is taken as 2 sin^2(s/2) or 2 cos^2(s/2), without cancellation.
    """
    x, w = np.polynomial.legendre.leggauss(12)
    half = 0.25 * math.pi * (x + 1.0)  # s/2 at the nodes
    k = np.arange(n)[:, None]
    num = np.where(k % 2 == 0, np.sin(half) ** 2, np.cos(half) ** 2)
    return (num / (k * math.pi + 2.0 * half)) @ (math.pi * w)


def filter_projections(sino: Sinogram) -> FilteredSinogram:
    """Ramp-filter every projection with the exact band integral

        K[i, j] = int_{-B}^{B} |omega| e^{2 pi i omega t_i} C_j(-omega) d omega,

    C_j the optimal forward weights of detector bin t_j = t0 + j dt and
    B = 1/(2 dt) the detector Nyquist: the optimal forward transform, the
    ramp, and the inverse Fourier integral taken exactly rather than on a
    frequency lattice.  K does not depend on t0 and has a real closed form in
    P = _ramp_integrals(n) and s = 1/(2 pi^2 dt), so max_imag is 0.0:

    - interior columns are toeplitz(T) with T(0) = 2 P_0 s and
      T(d) = (P_d - P_{d-1}) s;
    - column 0 is T(i) + e_i s with e_i = (1 - (-1)^i)/i - P_i, e_0 = -P_0;
    - column n - 1 is column 0 reversed.

    K is applied to all angles as one real FFT convolution with T, of length
    N = _fft_length(2n - 1), plus a rank-2 product with the end samples.
    Its symbol is |omega| sinc^2(pi omega dt): the sinc^2 of the linear-spline
    weights damps the upper band, so white noise keeps 0.39185 of the power
    Ram-Lak's plain |omega| passes.

    Raises ValueError for samples that are not finite or exceed
    2**1020 / (max(1, s) N**4), so no FFT intermediate or output can
    overflow, and for any sample at a spacing whose s overflows.
    """
    n, dt = sino.num_bins, sino.dt
    scale = 0.5 / math.pi**2 / dt
    length = _fft_length(2 * n - 1)
    data = sino.data
    peak = max(data.max(), -data.min())
    # Every entry of K is below 4 s, so |rfft(kernel)| <= 4 N s, |rfft(f)| <= N F
    # and no FFT intermediate passes 4 N**3 s F, below 2**1024 at this limit.
    limit = 2.0**1020 / (max(1.0, scale) * float(length) ** 4)
    if not (peak <= limit and limit > 0.0):  # also catches NaN, and s = inf
        raise ValueError(f"projections must be finite with |value| <= {limit:.6g} "
                         f"for {n} bins at spacing {dt:g}")

    p = _ramp_integrals(n)
    toeplitz = np.diff(p, prepend=-p[0]) * scale
    i = np.arange(1, n)
    end = -p
    end[1:] += (i % 2) * 2.0 / i
    end *= scale

    kernel = np.zeros(length)
    kernel[:n] = toeplitz
    kernel[length - n + 1:] = toeplitz[:0:-1]
    buffer = np.zeros((sino.num_angles, length))
    buffer[:, :n] = data
    spectra = np.fft.rfft(buffer, axis=1)
    spectra *= np.fft.rfft(kernel)
    filtered = np.fft.irfft(spectra, length, axis=1, out=buffer)[:, :n]
    filtered += data[:, [0, -1]] @ np.stack([end, end[::-1]])
    return FilteredSinogram(*sino.geometry(), data=filtered)


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
    # A strip's frame 3 lands on the mirrored strip's rows of turned, which
    # may belong to another group.  Each element of turned takes exactly two
    # additions to zero, which commute, so the lock's order changes no bit.
    turned_lock = threading.Lock()

    def project(strips):
        rows = strips[0].stop - strips[0].start  # the first strip is the tallest
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
            with turned_lock:
                turned[r0:r1] += s[1].real
                turned[size - r1:size - r0] += s[3].real[::-1]

    run_strips(image.strips(), project)
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
