"""Analytic ellipse phantoms: rasterization and exact Radon transform.

Both the high-contrast ("modified") and the classic low-contrast head
phantom tables are provided; the modified one is the default everywhere.
Projections are exact chord lengths, never raster sums.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Ellipse:
    """One additive ellipse: center, semi-axes, rotation (degrees), intensity."""

    center_x: float
    center_y: float
    semi_a: float
    semi_b: float
    rotation_deg: float
    intensity: float

    def contains(self, x, y):
        """Whether each point (x, y) lies inside or on the ellipse; x and y broadcast."""
        phi = math.radians(self.rotation_deg)
        dx, dy = x - self.center_x, y - self.center_y
        u = dx * math.cos(phi) + dy * math.sin(phi)
        v = -dx * math.sin(phi) + dy * math.cos(phi)
        return (u / self.semi_a) ** 2 + (v / self.semi_b) ** 2 <= 1.0

    def window(self, image: ImageGrid) -> tuple[slice, slice]:
        """Row and column slices of image holding every pixel center the ellipse may contain.

        Each slice runs from the first to the last of ``image.axes()``'s
        centers inside the ellipse's bounding box, whose half-extents are
        sqrt(a^2 cos^2 phi + b^2 sin^2 phi) in x and
        sqrt(a^2 sin^2 phi + b^2 cos^2 phi) in y, widened by 2**-40 of the
        coordinates' scale, far beyond the rounding of ``contains``, so
        pixels outside the slices would add nothing to a raster.  The
        widening is at most the sum of the half-extents, so no centre many
        semi-axes off the ellipse, whose offsets ``contains`` could not
        square, enters the slices on a raster of huge extent.
        """
        phi = math.radians(self.rotation_deg)
        cos2, sin2 = math.cos(phi) ** 2, math.sin(phi) ** 2
        half_x = math.sqrt(self.semi_a**2 * cos2 + self.semi_b**2 * sin2)
        half_y = math.sqrt(self.semi_a**2 * sin2 + self.semi_b**2 * cos2)
        slack = min(2.0**-40 * (abs(self.center_x) + abs(self.center_y) + half_x + half_y
                                + max(map(abs, image.extent))), half_x + half_y)
        xs, ys = image.axes()
        spans = []
        for centers, middle, half in ((ys, self.center_y, half_y), (xs, self.center_x, half_x)):
            inside = np.flatnonzero(np.abs(centers - middle) <= half + slack)
            spans.append(slice(int(inside[0]), int(inside[-1]) + 1) if inside.size else slice(0, 0))
        return tuple(spans)


@dataclass(frozen=True)
class EllipsePhantom:
    """A sum of ellipses inside the unit disk, over the square [-1,1]^2."""

    ellipses: tuple[Ellipse, ...]


# Semi-axes / centers / rotations shared by both standard head phantom tables.
_GEOMETRY = [
    # (cx, cy, x_semi_axis, y_semi_axis, rotation_deg counterclockwise)
    (0.0, 0.0, 0.69, 0.92, 0.0),
    (0.0, -0.0184, 0.6624, 0.874, 0.0),
    (0.22, 0.0, 0.11, 0.31, -18.0),
    (-0.22, 0.0, 0.16, 0.41, 18.0),
    (0.0, 0.35, 0.21, 0.25, 0.0),
    (0.0, 0.1, 0.046, 0.046, 0.0),
    (0.0, -0.1, 0.046, 0.046, 0.0),
    (-0.08, -0.605, 0.046, 0.023, 0.0),
    (0.0, -0.605, 0.023, 0.023, 0.0),
    (0.06, -0.605, 0.023, 0.046, 0.0),
]

MODIFIED_INTENSITIES = (1.0, -0.8, -0.2, -0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1)
CLASSIC_INTENSITIES = (2.0, -0.98, -0.02, -0.02, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01)


# Ellipse intensities of each head phantom variant.
PHANTOM_VARIANTS = {"modified": MODIFIED_INTENSITIES, "classic": CLASSIC_INTENSITIES}


def shepp_logan_phantom(variant: str = "modified") -> EllipsePhantom:
    """The ten-ellipse head phantom; variant 'modified' (default) or 'classic'."""
    if variant not in PHANTOM_VARIANTS:
        raise ValueError(f"unknown phantom variant {variant!r}")
    return EllipsePhantom(tuple(
        Ellipse(*geometry, intensity)
        for geometry, intensity in zip(_GEOMETRY, PHANTOM_VARIANTS[variant])
    ))


# Raster loops work in strips of this many pixels, and radon_analytic in
# blocks of angle rows of this many samples, so each pass's temporaries cover
# one strip: whole-array ones page-faulted afresh on every pass, which took up
# to three times as long at 512^2.  Each numpy call in a strip loop also hands
# the GIL to the other groups' threads and back, a few microseconds each, so
# fewer, larger strips pay on two CPUs: back-projecting 512^2 from 360 angles
# (2 vCPUs, numpy 2.4.6, best of 15) took 0.22 s at 2^15 pixels against 0.25 s
# at 2^14 and 0.40 s at 2^13, while on one CPU 2^14 and 2^15 both took 0.30 s
# and 2^16 took 0.35 s.
STRIP_PIXELS = 1 << 15


def run_strips(parts: list, work) -> None:
    """Run work(group) on contiguous groups of parts, one group per usable CPU.

    There are as many groups as CPUs the process may run on (its affinity
    mask, e.g. ``taskset -c 0`` for one), and never more than parts.  Group 0
    runs on the calling thread and the rest on threads joined before this
    returns; the first exception raised in any group is re-raised here.
    numpy releases the GIL inside each array pass, so the groups run in
    parallel.
    Callers keep every output element's operations and their order the same
    whatever the grouping, so results do not depend on the CPU count.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    count = max(1, min(cpus, len(parts)))
    bounds = [len(parts) * g // count for g in range(count + 1)]
    errors = []

    def guarded(group):
        try:
            work(group)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(parts[lo:hi],))
               for lo, hi in zip(bounds[1:-1], bounds[2:])]
    for thread in threads:
        thread.start()
    guarded(parts[:bounds[1]])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


@dataclass(frozen=True)
class ImageGrid:
    """A square raster of real pixel values with physical extent.

    Row-major addressing pixel(i, j); row 0 holds the top of the image
    (largest y).  Extent is (min_x, min_y, max_x, max_y).
    """

    rows: int
    cols: int
    pixels: np.ndarray = field(repr=False)
    extent: tuple[float, float, float, float] = (-1.0, -1.0, 1.0, 1.0)

    def __post_init__(self):
        check_raster(self.rows, self.cols, *self.extent)
        pix = np.asarray(self.pixels, dtype=float)
        if pix.shape != (self.rows, self.cols):
            raise ValueError(
                f"expected {self.rows}x{self.cols} pixels, got shape {pix.shape}"
            )
        object.__setattr__(self, "pixels", pix)

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Pixel-center x per column and y per row (y falls with the row index)."""
        min_x, min_y, max_x, max_y = self.extent
        dx = (max_x - min_x) / self.cols
        dy = (max_y - min_y) / self.rows
        xs = min_x + dx * (np.arange(self.cols) + 0.5)
        ys = max_y - dy * (np.arange(self.rows) + 0.5)
        return xs, ys

    def strips(self) -> list[slice]:
        """Row slices of at most STRIP_PIXELS pixels (one row at least), in order."""
        rows = min(self.rows, max(1, STRIP_PIXELS // self.cols))
        return [slice(r0, min(r0 + rows, self.rows)) for r0 in range(0, self.rows, rows)]


def square_raster(size: int) -> ImageGrid:
    """A size x size raster of zeros over [-1, 1]^2; ValueError unless size >= 16."""
    if size < 16:
        raise ValueError(f"raster size must be at least 16, got {size}")
    return ImageGrid(size, size, np.zeros((size, size)))


def paint(image: ImageGrid, ellipses) -> ImageGrid:
    """Add each ellipse's intensity, in order, to the pixels whose centers it contains.

    Each ellipse is tested only inside its ``window``, in strips run by
    ``run_strips``, with the same bytes as testing the whole raster.  The
    pixels change in place; image is returned.
    """
    xs, ys = image.axes()
    windows = [e.window(image) for e in ellipses]

    def add(strips):
        for strip in strips:
            for e, (rows, cols) in zip(ellipses, windows):
                rows = slice(max(rows.start, strip.start), min(rows.stop, strip.stop))
                if rows.start < rows.stop:
                    image.pixels[rows, cols] += e.intensity * e.contains(xs[cols], ys[rows, None])

    run_strips(image.strips(), add)
    return image


def rasterize(phantom: EllipsePhantom, size: int) -> ImageGrid:
    """Rasterize the phantom on a size x size grid over [-1, 1]^2.

    Pixel value is the summed intensity of the ellipses containing the
    pixel center.
    """
    return paint(square_raster(size), phantom.ellipses)


def shepp_logan(size: int, variant: str = "modified") -> ImageGrid:
    """Rasterized head phantom on a size x size grid."""
    return rasterize(shepp_logan_phantom(variant), size)


class GeometryError(ValueError):
    """A projection lattice or raster that cannot mean anything; ``field`` names the culprit."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field} {message}")
        self.field = field


def check_geometry(num_angles, num_bins, theta0, dtheta, t0, dt) -> None:
    """Reject an (angle x detector-bin) lattice that cannot mean anything.

    Raises GeometryError for the first offending field: a non-finite start,
    a step that is not finite and positive, fewer than two detector bins or
    no angle at all.
    """
    for name, value in (("theta0", theta0), ("t0", t0)):
        if not math.isfinite(value):
            raise GeometryError(name, f"must be finite, got {value!r}")
    for name, value in (("dtheta", dtheta), ("dt", dt)):
        if not (math.isfinite(value) and value > 0):
            raise GeometryError(name, f"must be finite and positive, got {value!r}")
    if num_bins < 2:
        raise GeometryError("num_bins", f"must be at least 2, got {num_bins}")
    if num_angles < 1:
        raise GeometryError("num_angles", f"must be at least 1, got {num_angles}")


def check_raster(rows, cols, min_x, min_y, max_x, max_y) -> None:
    """Reject a raster without pixels or whose extent is not a finite, non-empty box.

    Raises GeometryError for the first offending field: fewer than one row
    or column, a non-finite extent value, or a maximum not above its minimum
    by a finite width, so every pixel center is finite.
    """
    for name, value in (("rows", rows), ("cols", cols)):
        if value < 1:
            raise GeometryError(name, f"must be at least 1, got {value}")
    for axis, lo, hi in (("x", min_x, max_x), ("y", min_y, max_y)):
        for name, value in ((f"min_{axis}", lo), (f"max_{axis}", hi)):
            if not math.isfinite(value):
                raise GeometryError(name, f"must be finite, got {value!r}")
        if not (hi > lo and math.isfinite(hi - lo)):
            raise GeometryError(f"max_{axis}",
                                f"must exceed min_{axis} {lo!r} by a finite width, got {hi!r}")


@dataclass(frozen=True)
class Sinogram:
    """Projection data on an (angle x detector-bin) lattice, angle-major."""

    num_angles: int
    num_bins: int
    theta0: float
    dtheta: float
    t0: float
    dt: float
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_geometry(*self.geometry())
        data = np.asarray(self.data, dtype=float)
        if data.shape != (self.num_angles, self.num_bins):
            raise ValueError(
                f"expected {self.num_angles}x{self.num_bins} data, got {data.shape}"
            )
        object.__setattr__(self, "data", data)

    def geometry(self) -> tuple[int, int, float, float, float, float]:
        """(num_angles, num_bins, theta0, dtheta, t0, dt), in file-header order."""
        return self.num_angles, self.num_bins, self.theta0, self.dtheta, self.t0, self.dt

    def angles(self) -> np.ndarray:
        return self.theta0 + self.dtheta * np.arange(self.num_angles)

    def bins(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.num_bins)


def ellipse_projection(e: Ellipse, theta: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Exact line integrals of one ellipse along x cos(theta) + y sin(theta) = t.

    theta and t broadcast against each other.
    """
    phi = math.radians(e.rotation_deg)
    # Offset of the line relative to the ellipse center.
    s = t - e.center_x * np.cos(theta) - e.center_y * np.sin(theta)
    gamma = theta - phi
    width_sq = (e.semi_a * np.cos(gamma)) ** 2 + (e.semi_b * np.sin(gamma)) ** 2
    inside = s * s < width_sq
    chord = np.where(
        inside,
        2.0 * e.intensity * e.semi_a * e.semi_b
        * np.sqrt(np.maximum(width_sq - s * s, 0.0)) / width_sq,
        0.0,
    )
    return chord


def radon_analytic(
    phantom: EllipsePhantom,
    num_angles: int,
    dtheta_deg: float,
    num_bins: int,
    t_range: tuple[float, float] = (-1.0, 1.0),
    theta0_deg: float = 0.0,
) -> Sinogram:
    """Exact sinogram of an ellipse phantom (closed-form chord lengths)."""
    if num_angles < 1 or num_bins < 2:
        raise ValueError("need at least one angle and two detector bins")
    t_min, t_max = t_range
    # Sinogram checks the rest of the lattice before any chord is computed.
    sino = Sinogram(
        num_angles=num_angles,
        num_bins=num_bins,
        theta0=math.radians(theta0_deg),
        dtheta=math.radians(dtheta_deg),
        t0=t_min,
        dt=(t_max - t_min) / (num_bins - 1),
        data=np.zeros((num_angles, num_bins)),
    )
    thetas, ts = sino.angles(), sino.bins()
    rows = max(1, STRIP_PIXELS // num_bins)
    blocks = [slice(k, k + rows) for k in range(0, num_angles, rows)]

    def add_chords(blocks):
        for block in blocks:
            data = sino.data[block]
            for e in phantom.ellipses:
                data += ellipse_projection(e, thetas[block, None], ts[None, :])

    run_strips(blocks, add_chords)
    return sino
