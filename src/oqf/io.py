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

from .ct.phantom import GeometryError, ImageGrid, Sinogram, check_geometry, check_raster

SINO_MAGIC = b"OQFSINO1"
IMG_MAGIC = b"OQFIMG1\0"
# Both containers: 8-byte magic, this header, then f64 data of the first two
# header fields' shape.
_HEADER = struct.Struct("<IIdddd")
# Byte offset of each header field of either container, by field name.
_HEADER_OFFSETS = {
    "num_angles": 8, "num_bins": 12, "theta0": 16, "dtheta": 24, "t0": 32, "dt": 40,
    "rows": 8, "cols": 12, "min_x": 16, "min_y": 24, "max_x": 32, "max_y": 40,
}
# read_complex_csv accepts an abscissa within this fraction of
# max(step, max|x|) of the uniform lattice through the first and last rows.
UNIFORM_RTOL = 1e-9


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


def write_sweep_csv(path: str | Path, records) -> None:
    """CSV with header omega,abs_re_err,abs_im_err, one row per error record."""
    lines = ["omega,abs_re_err,abs_im_err"]
    for rec in records:
        lines.append(
            f"{float(rec.omega)!r},{float(rec.abs_real_error)!r},{float(rec.abs_imag_error)!r}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_complex_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
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
    bad = np.nonzero(dev > UNIFORM_RTOL * max(abs(step), np.abs(xs_arr).max()))[0]
    if bad.size:
        raise FormatError(
            f"{path}: row {int(bad[0]) + 2}: abscissa {xs_arr[bad[0]]!r} "
            f"off the uniform lattice"
        )
    return xs_arr, np.asarray(vals, dtype=complex)


def _write_container(path: str | Path, magic: bytes, header: tuple, data: np.ndarray) -> None:
    payload = magic + _HEADER.pack(*header) + np.ascontiguousarray(data, dtype="<f8").tobytes()
    atomic_write_bytes(path, payload)


def _read_container(path: str | Path, magic: bytes, check) -> tuple[tuple, np.ndarray]:
    """Header fields and data of a binary container whose header passes ``check``."""
    raw = Path(path).read_bytes()
    if raw[:8] != magic:
        raise FormatError(f"{path}: bad magic at offset 0")
    header_size = 8 + _HEADER.size
    if len(raw) < header_size:
        raise FormatError(f"{path}: truncated header at offset {len(raw)}")
    header = _HEADER.unpack(raw[8:header_size])
    try:
        check(*header)
    except GeometryError as exc:
        offset = _HEADER_OFFSETS[exc.field]
        raise FormatError(f"{path}: header at offset {offset}: {exc}") from None
    shape = header[:2]
    expected = header_size + 8 * shape[0] * shape[1]
    if len(raw) != expected:
        raise FormatError(f"{path}: payload ends at offset {len(raw)}, expected {expected}")
    return header, np.frombuffer(raw[header_size:], dtype="<f8").reshape(shape).copy()


def write_sinogram(path: str | Path, sino: Sinogram) -> None:
    _write_container(path, SINO_MAGIC, sino.geometry(), sino.data)


def read_sinogram(path: str | Path) -> Sinogram:
    header, data = _read_container(path, SINO_MAGIC, check_geometry)
    return Sinogram(*header, data)


def write_image(path: str | Path, image: ImageGrid) -> None:
    _write_container(path, IMG_MAGIC, (image.rows, image.cols, *image.extent), image.pixels)


def read_image(path: str | Path) -> ImageGrid:
    (rows, cols, *extent), pixels = _read_container(path, IMG_MAGIC, check_raster)
    return ImageGrid(rows, cols, pixels, tuple(extent))


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
