"""File formats: CSV tables, binary sinogram/image containers, 16-bit PGM.

Binary layouts (little-endian):

  sinogram: magic b"OQFSINO1", u32 num_angles, u32 num_bins,
            f64 theta0, dtheta, t0, dt, then num_angles*num_bins f64
            values, angle-major.
  image:    magic b"OQFIMG1\\0", u32 rows, u32 cols,
            f64 extent_min_x, extent_min_y, extent_max_x, extent_max_y,
            then row-major f64 pixels.

All writers go through a temp file and an atomic rename.
"""

from __future__ import annotations

import csv
import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .ct.phantom import ImageGrid, Sinogram

SINO_MAGIC = b"OQFSINO1"
IMG_MAGIC = b"OQFIMG1\0"


class FormatError(ValueError):
    """Malformed file content; the message names the byte offset."""


def atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode())


def write_coefficients_csv(path: str | Path, values: np.ndarray) -> None:
    """CSV with header beta,re,im at 17 significant digits."""
    lines = ["beta,re,im"]
    for beta, v in enumerate(np.asarray(values, dtype=complex)):
        lines.append(f"{beta},{v.real:.17g},{v.imag:.17g}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_complex_csv(path: str | Path, abscissa_name: str, xs, values) -> None:
    """CSV with header <abscissa>,re,im using shortest round-trip floats."""
    lines = [f"{abscissa_name},re,im"]
    for x, v in zip(np.asarray(xs, dtype=float), np.asarray(values, dtype=complex)):
        lines.append(f"{float(x)!r},{float(v.real)!r},{float(v.imag)!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_complex_csv(
    path: str | Path, uniform_rtol: float = 1e-9
) -> tuple[np.ndarray, np.ndarray]:
    """Read a <abscissa>,re,im CSV and validate uniform spacing.

    Returns (abscissae, complex values).  Raises FormatError naming the
    first offending row on non-uniform spacing, non-finite numbers or
    malformed content.
    """
    xs: list[float] = []
    vals: list[complex] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) != 3:
            raise FormatError(f"{path}: missing or malformed header")
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                x, re, im = (float(c) for c in row)
            except ValueError as exc:
                raise FormatError(f"{path}: row {row_num}: {exc}") from None
            if not (math.isfinite(x) and math.isfinite(re) and math.isfinite(im)):
                raise FormatError(f"{path}: row {row_num}: non-finite number")
            xs.append(x)
            vals.append(complex(re, im))
    if len(xs) < 2:
        raise FormatError(f"{path}: need at least 2 data rows, got {len(xs)}")
    xs_arr = np.asarray(xs)
    step = (xs_arr[-1] - xs_arr[0]) / (len(xs_arr) - 1)
    if step <= 0:
        raise FormatError(f"{path}: abscissae must be increasing")
    expected = xs_arr[0] + step * np.arange(len(xs_arr))
    dev = np.abs(xs_arr - expected)
    bad = np.nonzero(dev > uniform_rtol * max(abs(step), np.abs(xs_arr).max()))[0]
    if bad.size:
        raise FormatError(
            f"{path}: row {int(bad[0]) + 2}: abscissa {xs_arr[bad[0]]!r} "
            f"off the uniform lattice"
        )
    return xs_arr, np.asarray(vals, dtype=complex)


def write_sinogram(path: str | Path, sino: Sinogram) -> None:
    header = SINO_MAGIC + struct.pack(
        "<IIdddd", sino.num_angles, sino.num_bins,
        sino.theta0, sino.dtheta, sino.t0, sino.dt,
    )
    payload = header + np.ascontiguousarray(sino.data, dtype="<f8").tobytes()
    atomic_write_bytes(path, payload)


def read_sinogram(path: str | Path) -> Sinogram:
    raw = Path(path).read_bytes()
    if raw[:8] != SINO_MAGIC:
        raise FormatError(f"{path}: bad magic at offset 0")
    header_size = 8 + struct.calcsize("<IIdddd")
    if len(raw) < header_size:
        raise FormatError(f"{path}: truncated header at offset {len(raw)}")
    num_angles, num_bins, theta0, dtheta, t0, dt = struct.unpack(
        "<IIdddd", raw[8:header_size]
    )
    expected = header_size + 8 * num_angles * num_bins
    if len(raw) != expected:
        raise FormatError(f"{path}: payload ends at offset {len(raw)}, expected {expected}")
    data = np.frombuffer(raw[header_size:], dtype="<f8").reshape(num_angles, num_bins)
    return Sinogram(num_angles, num_bins, theta0, dtheta, t0, dt, data.copy())


def write_image(path: str | Path, image: ImageGrid) -> None:
    min_x, min_y, max_x, max_y = image.extent
    header = IMG_MAGIC + struct.pack(
        "<IIdddd", image.rows, image.cols, min_x, min_y, max_x, max_y
    )
    payload = header + np.ascontiguousarray(image.pixels, dtype="<f8").tobytes()
    atomic_write_bytes(path, payload)


def read_image(path: str | Path) -> ImageGrid:
    raw = Path(path).read_bytes()
    if raw[:8] != IMG_MAGIC:
        raise FormatError(f"{path}: bad magic at offset 0")
    header_size = 8 + struct.calcsize("<IIdddd")
    if len(raw) < header_size:
        raise FormatError(f"{path}: truncated header at offset {len(raw)}")
    rows, cols, min_x, min_y, max_x, max_y = struct.unpack(
        "<IIdddd", raw[8:header_size]
    )
    expected = header_size + 8 * rows * cols
    if len(raw) != expected:
        raise FormatError(f"{path}: payload ends at offset {len(raw)}, expected {expected}")
    pixels = np.frombuffer(raw[header_size:], dtype="<f8").reshape(rows, cols)
    return ImageGrid(rows, cols, pixels.copy(), (min_x, min_y, max_x, max_y))


def write_pgm16(path: str | Path, image: ImageGrid) -> None:
    """16-bit binary PGM with linear min-max scaling; sidecar records the scale."""
    lo = float(image.pixels.min())
    hi = float(image.pixels.max())
    span = hi - lo
    scaled = (
        np.zeros_like(image.pixels)
        if span == 0.0
        else (image.pixels - lo) / span * 65535.0
    )
    quantized = np.round(scaled).astype(">u2")
    header = f"P5\n{image.cols} {image.rows}\n65535\n".encode()
    atomic_write_bytes(path, header + quantized.tobytes())
    atomic_write_text(Path(str(path) + ".scale"), f"min={lo!r}\nmax={hi!r}\n")
