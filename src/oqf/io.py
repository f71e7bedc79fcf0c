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

import contextlib
import itertools
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
# CSV writers format this many rows per block.
_CSV_BLOCK_ROWS = 1 << 14


class FormatError(ValueError):
    """Malformed file content; the message names the byte offset in a binary
    container and the line in a CSV table."""


@contextlib.contextmanager
def _atomic_file(path: str | Path):
    """A binary file handle whose content replaces ``path`` only on success."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    with _atomic_file(path) as fh:
        fh.write(payload)


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode())


def _write_csv(path: str | Path, header: str, row_format: str, columns) -> None:
    """CSV of equal-length 1-d float columns, one ``row_format`` per row.

    Rows are formatted _CSV_BLOCK_ROWS at a time, from Python floats, so a
    float field formats exactly as in an f-string and no more than one
    block's text is held at once.  A non-finite value is a ValueError
    naming its column and row, before ``path`` is touched.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    for name, column in zip(header.split(","), columns):
        _check_finite(f"{path}: {name}", column)
    with _atomic_file(path) as fh:
        fh.write(f"{header}\n".encode())
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = np.column_stack([c[start : start + _CSV_BLOCK_ROWS] for c in columns])
            text = row_format * len(block) % tuple(block.ravel().tolist())
            fh.write(text.encode())


def write_coefficients_csv(path: str | Path, values: np.ndarray) -> None:
    """CSV with header beta,re,im at 17 significant digits."""
    values = np.asarray(values, dtype=complex)
    _write_csv(path, "beta,re,im", "%d,%.17g,%.17g\n",
               (np.arange(values.size), values.real, values.imag))


def write_complex_csv(path: str | Path, abscissa_name: str, xs, values) -> None:
    """CSV with header <abscissa>,re,im using shortest round-trip floats."""
    values = np.asarray(values, dtype=complex)
    _write_csv(path, f"{abscissa_name},re,im", "%r,%r,%r\n", (xs, values.real, values.imag))


def write_sweep_csv(path: str | Path, records) -> None:
    """CSV with header omega,abs_re_err,abs_im_err, one row per error record."""
    table = np.array(
        [(rec.omega, rec.abs_real_error, rec.abs_imag_error) for rec in records], dtype=float
    ).reshape(-1, 3)
    _write_csv(path, "omega,abs_re_err,abs_im_err", "%r,%r,%r\n", table.T)


def read_complex_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a <abscissa>,re,im CSV and validate uniform spacing.

    Returns (abscissae, complex values).  Raises FormatError naming the
    file line of the first offending row on non-uniform spacing, non-finite
    numbers or malformed content.  Rows are parsed by np.loadtxt a block of
    _CSV_BLOCK_ROWS lines at a time into the result's arrays, sized by the
    file's line count when it holds more than one block, so beside the
    result at most three blocks' tables are held; empty lines are skipped
    but counted in row numbers, and a number may be quoted.
    """
    with open(path) as fh:  # universal newlines: CRLF and CR end rows too
        if len(fh.readline().rstrip("\n").split(",")) != 3:
            raise FormatError(f"{path}: missing or malformed header")
        tables = _parse_blocks(path, fh)
        head = list(itertools.islice(tables, 2))
        # every line but the header, an upper bound on the data rows
        size = _line_count(path) - 1 if len(head) == 2 else sum(map(len, head))
        xs = np.empty(size)
        values = np.empty(size, dtype=complex)
        pairs = values.view(float).reshape(-1, 2)
        rows = 0
        for table in itertools.chain(head, tables):
            block = slice(rows, rows + len(table))
            xs[block], pairs[block] = table[:, 0], table[:, 1:]
            rows += len(table)
    if rows < 2:
        raise FormatError(f"{path}: need at least 2 data rows, got {rows}")
    del pairs
    if rows < size:  # empty lines: shrink in place, without a copy
        xs.resize(rows, refcheck=False)
        values.resize(rows, refcheck=False)
    step = (xs[-1] - xs[0]) / (rows - 1)
    if step <= 0:
        raise FormatError(f"{path}: abscissae must be increasing")
    # |xs - (xs[0] + step k)| a block of rows at a time, so no temporary is
    # as long as the table
    tol = UNIFORM_RTOL * max(abs(step), xs.max(), -xs.min())
    for start in range(0, rows, _CSV_BLOCK_ROWS):
        dev = np.arange(start, min(start + _CSV_BLOCK_ROWS, rows), dtype=float)
        dev *= step
        dev += xs[0]
        dev -= xs[start : start + _CSV_BLOCK_ROWS]
        bad = np.nonzero(np.abs(dev, out=dev) > tol)[0]
        if bad.size:
            index = start + bad[0]
            with open(path) as fh:
                row, _ = next(itertools.islice(_data_rows(fh), index, None))
            raise FormatError(
                f"{path}: row {row}: abscissa {float(xs[index])!r} off the uniform lattice"
            )
    return xs, values


def _parse_blocks(path: str | Path, fh):
    """The (rows, 3) float tables of successive blocks of at most
    _CSV_BLOCK_ROWS lines of the text file ``path`` after its header line,
    open as ``fh``, each starting at a non-empty line, so np.loadtxt never
    meets input with no data.  The lines stream through the parser, so no
    block's text is held.  FormatError naming the first bad row of the first
    block that holds a line other than three numbers, or a non-finite one."""
    line = 1  # the file lines read so far
    while first := fh.readline():
        line += 1
        if first == "\n":
            continue
        try:
            table = _parse_rows(
                itertools.chain([first], itertools.islice(fh, _CSV_BLOCK_ROWS - 1)))
            if not np.isfinite(table).all():
                raise ValueError("non-finite number")
        except ValueError:
            row, reason = _first_bad_row(path, line)
            raise FormatError(f"{path}: row {row}: {reason}") from None
        yield table
        line += _CSV_BLOCK_ROWS - 1  # a block ends short only at the end of the file


def _line_count(path: str | Path) -> int:
    """The file's lines, as universal newlines split them (LF, CRLF and CR
    each end one), counted over binary blocks."""
    count, last = 0, b""
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            codes = np.frombuffer(chunk, dtype=np.uint8)
            count += np.count_nonzero(codes == ord("\n"))
            if b"\r" in chunk:
                count += np.count_nonzero(codes == ord("\r")) - chunk.count(b"\r\n")
            count -= last == b"\r" and chunk[:1] == b"\n"  # a CRLF split across blocks
            last = chunk[-1:]
    return count + (last not in (b"", b"\n", b"\r"))  # an unterminated last line


def _parse_rows(lines) -> np.ndarray:
    """The (rows, 3) float table of CSV lines, of which one at least is not
    empty; ValueError unless every non-empty line holds three numbers."""
    table = np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, ndmin=2)
    if table.shape[1] != 3:
        raise ValueError(f"{table.shape[1]} cells per row")
    return table


def _data_rows(fh, first: int = 2):
    """(line number, text) of each non-empty line of the open text file
    ``fh`` from its line ``first`` on (1-based; 2 follows the header),
    streamed."""
    lines = itertools.islice(fh, first - 1, None)
    return ((num, line.rstrip("\n")) for num, line in enumerate(lines, start=first)
            if line != "\n")


def _first_bad_row(path: str | Path, start: int) -> tuple[int, str]:
    """Row number and reason of the first data row that is not three finite
    numbers, in the block of _CSV_BLOCK_ROWS lines from file line ``start``,
    known to hold one.  The lines before the block stream past, and the
    block's rows are among the first _CSV_BLOCK_ROWS from its start, so only
    those are held.

    A run of rows parses to finite numbers exactly when it holds no bad row,
    so bisection keeps the rows before ``lo`` good and the first bad row in
    ``rows[lo:hi]``, parsing at most as many rows again in all.
    """
    with open(path) as fh:
        rows = list(itertools.islice(_data_rows(fh, start), _CSV_BLOCK_ROWS))

    def parses(first, last, finite=True):
        try:
            table = _parse_rows([line for _, line in rows[first:last]])
        except ValueError:
            return False
        return not finite or np.isfinite(table).all()

    lo, hi = 0, len(rows)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if parses(lo, mid) else (lo, mid)
    num, line = rows[lo]
    if parses(lo, hi, finite=False):
        return num, "non-finite number"
    return num, f"expected 3 numbers, got {line!r}"


def _check_finite(path: str | Path, data: np.ndarray) -> None:
    """ValueError naming the first non-finite value's index, before ``path`` is touched."""
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        raise ValueError(f"{path}: non-finite value at index {tuple(bad[0].tolist())}, not written")


def _write_container(path: str | Path, magic: bytes, header: tuple, data: np.ndarray) -> None:
    _check_finite(path, data)
    payload = magic + _HEADER.pack(*header) + np.ascontiguousarray(data, dtype="<f8").tobytes()
    atomic_write_bytes(path, payload)


def _read_container(path: str | Path, magic: bytes, check) -> tuple[tuple, np.ndarray]:
    """Header fields and finite data of a binary container whose header passes ``check``."""
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
    data = np.frombuffer(raw[header_size:], dtype="<f8").reshape(shape)
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
    """16-bit binary PGM with linear min-max scaling; sidecar records the scale."""
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
    quantized = np.round(scaled).astype(">u2")
    header = f"P5\n{image.cols} {image.rows}\n65535\n".encode()
    atomic_write_bytes(path, header + quantized.tobytes())
    atomic_write_text(Path(str(path) + ".scale"), f"min={lo!r}\nmax={hi!r}\n")
