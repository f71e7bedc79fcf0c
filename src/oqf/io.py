"""File formats: CSV tables, binary sinogram/image containers, 16-bit PGM.

Binary layouts (little-endian):

  sinogram: magic b"OQFSINO1", u32 num_angles, u32 num_bins,
            f64 theta0, dtheta, t0, dt, then num_angles*num_bins f64
            values, angle-major.
  image:    magic b"OQFIMG1\\0", u32 rows, u32 cols,
            f64 extent_min_x, extent_min_y, extent_max_x, extent_max_y,
            then row-major f64 pixels.

All writers go through a temp file and an atomic rename; inside
atomic_outputs() the renames wait until every output is written.
"""

from __future__ import annotations

import array
import contextlib
import contextvars
import errno
import itertools
import math
import os
import struct
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
# CSV writers format, and read_complex_csv parses, this many rows per block.
_CSV_BLOCK_ROWS = 1 << 14


class FormatError(ValueError):
    """Malformed file content; the message names the byte offset in a binary
    container and the line in a CSV table."""


# The (temp file, output) pairs of the open atomic_outputs() block; each
# thread has its own.
_staged: contextvars.ContextVar[list | None] = contextvars.ContextVar("_staged", default=None)


def _path_error(exc: OSError, path: Path) -> OSError:
    """``exc``'s errno and reason, naming ``path``, not a temp file."""
    return OSError(exc.errno, exc.strerror, str(path))


@contextlib.contextmanager
def atomic_outputs():
    """Every output written inside the block replaces its path only when the
    block ends without error, every output is written and no output path is
    a directory; otherwise the temp files are removed and no path changes.
    The renames then run in the order of the writes.  Nested blocks join the
    outermost one.
    """
    if _staged.get() is not None:
        yield
        return
    staged = []
    token = _staged.set(staged)
    try:
        yield
        for _, path in staged:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        while staged:
            tmp, path = staged[0]
            try:
                os.replace(tmp, path)
            except OSError as exc:
                raise _path_error(exc, path) from None
            staged.pop(0)
    finally:
        _staged.reset(token)
        for tmp, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)


@contextlib.contextmanager
def _atomic_file(path: str | Path):
    """A binary file handle on a new temp file beside ``path``, which
    replaces ``path`` as atomic_outputs() says.

    The temp file is created with mode 0o666 less the umask, as ``open``
    creates a file.  An OSError from creating it names ``path`` and the
    OS's reason, never the temp file's random name.
    """
    path = Path(path)
    with atomic_outputs():
        while True:
            tmp = path.parent / f"{path.name}.{os.urandom(4).hex()}.tmp"
            try:
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                break
            except FileExistsError:
                continue
            except OSError as exc:
                raise _path_error(exc, path) from None
        _staged.get().append((tmp, path))
        with os.fdopen(fd, "wb") as fh:
            yield fh


def atomic_write_text(path: str | Path, text: str) -> None:
    with _atomic_file(path) as fh:
        fh.write(text.encode())


def _write_csv(path: str | Path, header: str, columns, row_format: str | None = None) -> None:
    """CSV of equal-length 1-d float columns, _CSV_BLOCK_ROWS rows at a time.

    Each row is the bytes of ``"%r,%r,%r\\n" % row`` (see oqf._float_repr),
    or, given a ``row_format``, of that format over the row's Python floats.
    No more than one block's text is held at once.  A non-finite value is a
    ValueError naming its column and row, before ``path`` is touched.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    if len({len(c) for c in columns}) != 1:
        raise ValueError(f"{path}: columns of lengths {[len(c) for c in columns]}, not written")
    for name, column in zip(header.split(","), columns):
        _check_finite(f"{path}: {name}", column)
    if row_format is None:
        # imported here, so that its tables are built at the first write
        # and not by ``import oqf.io``
        from ._float_repr import repr_rows
    with _atomic_file(path) as fh:
        fh.write(f"{header}\n".encode())
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = [c[start : start + _CSV_BLOCK_ROWS] for c in columns]
            if row_format is None:
                fh.write(repr_rows(block))
            else:
                values = np.column_stack(block).ravel().tolist()
                fh.write((row_format * len(block[0]) % tuple(values)).encode())


def write_coefficients_csv(path: str | Path, values: np.ndarray) -> None:
    """CSV with header beta,re,im at 17 significant digits."""
    values = np.asarray(values, dtype=complex)
    _write_csv(path, "beta,re,im", (np.arange(values.size), values.real, values.imag),
               "%d,%.17g,%.17g\n")


def write_complex_csv(path: str | Path, abscissa_name: str, xs, values) -> None:
    """CSV with header <abscissa>,re,im using shortest round-trip floats."""
    values = np.asarray(values, dtype=complex)
    _write_csv(path, f"{abscissa_name},re,im", (xs, values.real, values.imag))


def write_sweep_csv(path: str | Path, records) -> None:
    """CSV with header omega,abs_re_err,abs_im_err, one row per (omega, error)
    record, such as transform.QuadratureErrorRecord."""
    table = np.array(list(records), dtype=complex).reshape(-1, 2)
    _write_csv(path, "omega,abs_re_err,abs_im_err",
               (table[:, 0].real, np.abs(table[:, 1].real), np.abs(table[:, 1].imag)))


def read_complex_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a <abscissa>,re,im CSV and validate uniform spacing.

    Returns (abscissae, complex values).  Raises FormatError naming the
    file line of the first offending row on non-uniform spacing, non-finite
    numbers or malformed content, and the file on abscissae whose span
    passes the largest float.  The input, a file or a pipe alike, is
    read once, a block of _CSV_BLOCK_ROWS lines at a time: each block's
    lines are held while np.loadtxt parses them, a bad row is named from
    them, and the block's rows are appended to the result's arrays, which
    grow in place.  Empty lines are skipped but counted in row numbers, and
    a number may be quoted.
    """
    xs = np.empty(0)
    values = np.empty(0, dtype=complex)
    blank = array.array("q")  # the file line of each empty line, ascending
    rows = 0
    with open(path) as fh:  # universal newlines: CRLF and CR end rows too
        if len(fh.readline().rstrip("\n").split(",")) != 3:
            raise FormatError(f"{path}: missing or malformed header")
        first = 2  # the file line of the block's first line
        while lines := list(itertools.islice(fh, _CSV_BLOCK_ROWS)):
            if empty := lines.count("\n"):
                blank.extend(first + i for i, line in enumerate(lines) if line == "\n")
            if empty < len(lines):  # loadtxt would warn on a block of no data
                try:
                    table = _parse_rows(lines)
                    if not np.isfinite(table).all():
                        raise ValueError("non-finite number")
                except ValueError:
                    row, reason = _first_bad_row(_data_rows(lines, first))
                    raise FormatError(f"{path}: row {row}: {reason}") from None
                # the arrays own their buffers and no view of them is held,
                # so they grow in place
                xs.resize(rows + len(table), refcheck=False)
                values.resize(rows + len(table), refcheck=False)
                xs[rows:] = table[:, 0]
                values.real[rows:] = table[:, 1]
                values.imag[rows:] = table[:, 2]
                rows += len(table)
            first += len(lines)
    if rows < 2:
        raise FormatError(f"{path}: need at least 2 data rows, got {rows}")
    span = float(xs[-1]) - float(xs[0])  # a Python float: its overflow is a quiet inf
    if not span > 0:
        raise FormatError(f"{path}: abscissae must be increasing")
    if span == math.inf:
        raise FormatError(f"{path}: abscissae {float(xs[0])!r} to {float(xs[-1])!r} "
                          "span more than the largest float")
    step = span / (rows - 1)
    # |xs - (xs[0] + step k)| a block of rows at a time, so no temporary is
    # as long as the table.  Past 2**1021 every term is taken at a quarter of
    # its size, where none can overflow and the scaling loses no bit that the
    # tolerance could see; below, the scale is 1, which changes no bit.
    top = max(xs.max(), -xs.min())
    scale = 0.25 if top > 2.0**1021 else 1.0
    tol = UNIFORM_RTOL * max(abs(step), top) * scale
    for start in range(0, rows, _CSV_BLOCK_ROWS):
        dev = np.arange(start, min(start + _CSV_BLOCK_ROWS, rows), dtype=float)
        dev *= step * scale
        dev += xs[0] * scale
        dev -= scale * xs[start : start + _CSV_BLOCK_ROWS]
        bad = np.nonzero(np.abs(dev, out=dev) > tol)[0]
        if bad.size:
            index = start + bad[0]
            row = 2 + index  # its file line, once the empty lines before it count
            for line in blank:
                row += line <= row
            raise FormatError(
                f"{path}: row {row}: abscissa {float(xs[index])!r} off the uniform lattice"
            )
    return xs, values


def _parse_rows(lines) -> np.ndarray:
    """The (rows, 3) float table of CSV lines, of which one at least is not
    empty; ValueError unless every non-empty line holds three numbers."""
    table = np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, ndmin=2)
    if table.shape[1] != 3:
        raise ValueError(f"{table.shape[1]} cells per row")
    return table


def _data_rows(lines, first: int):
    """(line number, text) of each non-empty one of the text ``lines``,
    numbered from ``first``, streamed."""
    return ((num, line.rstrip("\n")) for num, line in enumerate(lines, start=first)
            if line != "\n")


def _first_bad_row(rows) -> tuple[int, str]:
    """Row number and reason of the first of ``rows``, the (line number,
    text) pairs of a block known to hold one, that is not three finite
    numbers.  The rows are parsed one at a time up to the bad one, so each
    is parsed once more at most."""
    for num, line in rows:
        try:
            finite = np.isfinite(_parse_rows([line])).all()
        except ValueError:
            return num, f"expected 3 numbers, got {line!r}"
        if not finite:
            return num, "non-finite number"


def _check_finite(path: str | Path, data: np.ndarray) -> None:
    """ValueError naming the first non-finite value's index, before ``path`` is touched."""
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        raise ValueError(f"{path}: non-finite value at index {tuple(bad[0].tolist())}, not written")


def _write_container(path: str | Path, magic: bytes, header: tuple, data: np.ndarray) -> None:
    """The container's header, then ``data``'s own buffer as f64; no copy of
    native little-endian C-ordered data is made."""
    _check_finite(path, data)
    with _atomic_file(path) as fh:
        fh.write(magic + _HEADER.pack(*header))
        fh.write(np.ascontiguousarray(data, dtype="<f8"))


def _read_container(path: str | Path, magic: bytes, check) -> tuple[tuple, np.ndarray]:
    """Header fields and finite data of a binary container whose header passes
    ``check``.  The whole file is read first, so its length is checked before
    anything the header sizes is allocated and a pipe loads too; the data is
    then copied once out of the file's bytes, to be writable."""
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
    data = np.frombuffer(raw, dtype="<f8", offset=header_size).reshape(shape)
    finite = np.isfinite(data)
    if not finite.all():
        raise FormatError(f"{path}: non-finite value at offset {header_size + 8 * finite.argmin()}")
    return header, data.copy()


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
    """16-bit binary PGM with linear min-max scaling; a ``.scale`` sidecar
    records the scale.  Both files are replaced, or neither."""
    _check_finite(path, image.pixels)
    lo = float(image.pixels.min())
    hi = float(image.pixels.max())
    span = hi - lo
    if span == 0.0:
        scaled = np.zeros_like(image.pixels)
    elif np.isfinite(span):
        scaled = (image.pixels - lo) / span * 65535.0
    else:  # the span overflows; half of it does not
        scaled = (image.pixels / 2 - lo / 2) / (hi / 2 - lo / 2) * 65535.0
    with atomic_outputs():
        with _atomic_file(path) as fh:
            fh.write(f"P5\n{image.cols} {image.rows}\n65535\n".encode())
            fh.write(np.round(scaled).astype(">u2"))
        atomic_write_text(Path(str(path) + ".scale"), f"min={lo!r}\nmax={hi!r}\n")
