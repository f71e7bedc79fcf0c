"""Filtered back-projection built on the optimal quadrature transforms.

The ramp filter is the optimal forward transform of a projection onto the
sinogram's frequency lattice, the ramp |omega| up to the detector Nyquist,
and the optimal inverse transform back onto the detector bins.  Both
transforms are the same for every angle, so filter_projections builds their
product, one real n x n operator per detector geometry, from the closed-form
weights (a Toeplitz part scaled per bin plus a rank-3 part at the end bins)
and applies it to all angles as one real FFT convolution.  Back-projection
integrates the filtered projections over the half rotation with a plain
Riemann sum in angle and linear interpolation in detector position.

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

from ..quadrature import (
    TWO_PI, _fft_length, _frequencies, _half_turns, _interior_factor, _left_factor,
)
from .phantom import EllipsePhantom, ImageGrid, Sinogram, radon_analytic, run_strips


@dataclass(frozen=True)
class FilteredSinogram(Sinogram):
    """Ramp-filtered projections on the same lattice as their source sinogram.

    max_imag bounds the imaginary part the filter's complex operator would
    leave on the data (see filter_projections).
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


def filter_projections(sino: Sinogram) -> FilteredSinogram:
    """Ramp-filter every projection with K = Re(W_inv diag|omega| W_fwd).

    W_fwd holds the optimal weights of the forward transform from the n
    detector bins t_i = t0 + i dt to the sinogram's own frequency lattice,
    omega_k = (k/(4n) - 1/2)/dt for k = 0..4n (up to the detector Nyquist
    1/(2 dt)), and W_inv those of the inverse transform from that lattice
    back to the bins.  Every angle takes the same n x n operator

        K = diag(s) (toeplitz(T) + g_0 e_0^T + g_{n-1} e_{n-1}^T)
            + w (e_0 - (-1)^(n-1) e_{n-1})^T,

    built from the closed forms I = _interior_factor and L = _left_factor
    at theta_k = 2 pi omega_k dt and phi_i = 2 pi t_i tau, tau = 1/(4n dt):

    - s_i = tau I(phi_i) is the inverse interior weight;
    - T(d) = sum_{k<4n} |omega_k dt| I(theta_k) e^{2 pi i omega_k d dt} at
      d = i - j.  The two band ends share the phase (-1)^d, and the real
      parts of their inverse weights tau L(phi) and tau conj L(phi) add up
      to s, so they count once;
    - g_0 and g_{n-1} replace the interior forward weight by the end bins'
      conj L(theta_k) and L(theta_k) in the first and last column;
    - w_i = -(-1)^i tau Im L(phi_i) Im L(pi) is what the imaginary parts of
      the band ends' weights leave.

    On this lattice omega_k d dt = k d/(4n) - d/2, so T and g_0 come from
    one complex FFT of length 4n (g_{n-1} is g_0 reversed).  K is applied to
    all angles as one real FFT convolution of length >= 2n - 1, scaled by s,
    plus a rank-3 product with the end samples.  It equals the two
    transforms applied in turn to within rounding.

    K is real in exact arithmetic because the lattice is symmetric about
    omega = 0.  max_imag bounds what the complex operator, as its factors
    are evaluated here, would leave in the imaginary part on this data: the
    largest row sum of |Im K| times max |data|, with no second convolution.
    The output carries no imaginary part; max_imag is 0.0 for all-zero data.

    Raises ValueError for bins past the closed forms' range at step tau
    (see quadrature._frequencies), and for samples that are not finite or
    exceed 2**1020 / (max(1, tau) N**4), N the convolution length, so no FFT
    intermediate or output can overflow.
    """
    n, dt = sino.num_bins, sino.dt
    m = 4 * n
    tau = 1.0 / (2.0 * dt) / (2 * n)
    bins = _frequencies(sino.bins(), tau)
    length = _fft_length(2 * n - 1)
    data = sino.data
    peak = max(data.max(), -data.min())
    # |rfft(f)| <= n F and |rfft(kernel)| <= (2n - 1) 2n, so no FFT
    # intermediate passes N**4 F and no output tau N**4 F.
    limit = 2.0**1020 / (max(1.0, tau) * float(length) ** 4)
    if not peak <= limit:  # also catches NaN
        raise ValueError(f"projections must be finite with |value| <= {limit:.6g} "
                         f"for {n} bins at spacing {dt:g}")

    # Symbols over k = 0..4n - 1, with omega_k dt exact at the band ends.
    wdt = np.arange(m + 1) / m - 0.5
    theta = TWO_PI * wdt
    interior = np.abs(wdt) * _interior_factor(theta)
    first_bin = np.abs(wdt) * np.conj(_left_factor(theta))
    symbols = np.zeros((2, m), dtype=complex)
    symbols[0] = interior[:m]
    symbols[1, 1:] = first_bin[1:m] - interior[1:m]  # the band ends enter below
    sums = np.fft.ifft(symbols, norm="forward")  # sum_k c_k e^{2 pi i k d/(4n)} at d mod 4n
    sums[:, 1::2] *= -1.0
    toeplitz, first_col = sums

    # At the band ends the end bins' forward weights beta and conj(beta) meet
    # the inverse weights tau L(phi) and tau conj L(phi), whose real parts sum
    # to s; the imaginary parts leave w times f_0 - (-1)^(n-1) f_{n-1}, a
    # difference taken from the data, so equal end samples cancel exactly.
    phi = TWO_PI * bins * tau
    turns = _half_turns(2.0 * tau, bins)  # phi / pi mod 2, exactly reduced
    s = tau * _interior_factor(phi, turns)
    i = np.arange(n)
    sign = 1.0 - 2.0 * (i % 2)
    last_sign = -1.0 if n % 2 == 0 else 1.0
    beta = first_bin[0]
    end = sign * (beta.real - interior[0])
    cols = np.stack([first_col[i] + end, np.conj(first_col[n - 1 - i]) + last_sign * end])
    w = sign * (-2.0 * tau * beta.imag) * _left_factor(phi, turns).imag

    kernel = np.zeros(length)
    kernel[:n] = toeplitz[:n].real
    kernel[length - n + 1:] = toeplitz[m - n + 1:].real
    buffer = np.zeros((sino.num_angles, length))
    buffer[:, :n] = data
    spectra = np.fft.rfft(buffer, axis=1)
    spectra *= np.fft.rfft(kernel)
    filtered = np.fft.irfft(spectra, length, axis=1, out=buffer)[:, :n]
    filtered *= s
    ends = np.stack([data[:, 0], data[:, -1], data[:, 0] - last_sign * data[:, -1]], axis=1)
    filtered += ends @ np.vstack([s * cols.real, w])

    # Row i of toeplitz(Im T) spans lags d = i - n + 1 .. i.
    lags = np.abs(np.concatenate([toeplitz[m - n + 1:], toeplitz[:n]]).imag)
    window = np.concatenate([[0.0], np.cumsum(lags)])
    rows = s * (window[n:] - window[:n] + np.abs(cols.imag).sum(axis=0))
    max_imag = float(rows.max() * peak)
    return FilteredSinogram(*sino.geometry(), data=filtered, max_imag=max_imag)


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
