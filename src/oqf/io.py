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

import bisect
import contextlib
import itertools
import os
import stat
import struct
import tempfile
from operator import itemgetter
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
    numbers or malformed content.  Rows are parsed by np.loadtxt a block of
    _CSV_BLOCK_ROWS lines at a time.  A regular file of more than one block
    has the result's arrays sized by its line count and filled block by
    block, so beside the result at most three blocks' tables are held; any
    other input (a pipe, /dev/stdin) can be read only once, so its blocks'
    tables are held and joined once.  Empty lines are skipped but counted in
    row numbers, and a number may be quoted.
    """
    with open(path) as fh:  # universal newlines: CRLF and CR end rows too
        if len(fh.readline().rstrip("\n").split(",")) != 3:
            raise FormatError(f"{path}: missing or malformed header")
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
        blocks = _parse_blocks(path, fh, regular)
        head = list(itertools.islice(blocks, 2) if regular else blocks)
        # every line but the header, an upper bound on the data rows; a file
        # of one block is not counted, so it is read in one pass
        size = (_line_count(path) - 1 if regular and len(head) == 2
                else sum(len(table) for *_, table in head))
        xs = np.empty(size)
        values = np.empty(size, dtype=complex)
        pairs = values.view(float).reshape(-1, 2)
        spans = []  # (rows before, rows, first line, last line) of each block
        rows = 0
        for first, last, table in itertools.chain(head, blocks):
            block = slice(rows, rows + len(table))
            xs[block], pairs[block] = table[:, 0], table[:, 1:]
            spans.append((rows, len(table), first, last))
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
            row = _row_line(path, regular, spans, index)
            raise FormatError(
                f"{path}: {row}: abscissa {float(xs[index])!r} off the uniform lattice"
            )
    return xs, values


def _row_line(path: str | Path, regular: bool, blocks: list, index: int) -> str:
    """The text 'row N', N the file line of data row ``index``, found from
    its block, given as (rows before it, its rows, its first and last file
    lines).  A regular file streams the block's lines again.  Other input is
    never opened again, which would block on a FIFO: its row is named when
    its block holds no empty line, so that each line is a row, and
    otherwise the block's lines are named."""
    before, count, first, last = blocks[bisect.bisect_right(blocks, index, key=itemgetter(0)) - 1]
    if regular:
        with open(path) as fh:
            lines = itertools.islice(fh, first - 1, None)
            row, _ = next(itertools.islice(_data_rows(lines, first), index - before, None))
        return f"row {row}"
    if count == last - first + 1:
        return f"row {first + index - before}"
    return f"a row in lines {first}-{last}"


def _parse_blocks(path: str | Path, fh, regular: bool):
    """(first line, last line, table) of successive blocks of at most
    _CSV_BLOCK_ROWS lines of the text file ``path`` after its header line,
    open as ``fh``: the (rows, 3) float table of each block, which starts at
    a non-empty line, so np.loadtxt never meets input with no data.  A
    regular file's lines stream through the parser, so no block's text is
    held, and a block's last line is given as its first plus
    _CSV_BLOCK_ROWS - 1.  Other input cannot be read again, so each block's
    lines are held until it is parsed.  FormatError naming the first bad row
    of the first block that holds a line other than three numbers, or a
    non-finite one."""
    line = 1  # the file lines read so far
    while first := fh.readline():
        line += 1
        if first == "\n":
            continue
        rest = itertools.islice(fh, _CSV_BLOCK_ROWS - 1)
        lines = itertools.chain([first], rest) if regular else [first, *rest]
        try:
            table = _parse_rows(lines)
            if not np.isfinite(table).all():
                raise ValueError("non-finite number")
        except ValueError:
            if regular:
                with open(path) as again:
                    rows = _data_rows(itertools.islice(again, line - 1, None), line)
                    row, reason = _first_bad_row(rows)
            else:
                row, reason = _first_bad_row(_data_rows(lines, line))
            raise FormatError(f"{path}: row {row}: {reason}") from None
        start = line
        # a regular file's block ends short only at the end of the file
        line += (_CSV_BLOCK_ROWS if regular else len(lines)) - 1
        yield start, line, table


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


def _data_rows(lines, first: int):
    """(line number, text) of each non-empty one of the text ``lines``,
    numbered from ``first``, streamed."""
    return ((num, line.rstrip("\n")) for num, line in enumerate(lines, start=first)
            if line != "\n")


def _first_bad_row(rows) -> tuple[int, str]:
    """Row number and reason of the first of ``rows``, the (line number,
    text) pairs of a block known to hold one, that is not three finite
    numbers.  The rows are parsed one at a time up to the bad one, so each
    is parsed once and only one is held."""
    for num, line in itertools.islice(rows, _CSV_BLOCK_ROWS):
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
    with _atomic_file(path) as fh:
        fh.write(f"P5\n{image.cols} {image.rows}\n65535\n".encode())
        fh.write(np.round(scaled).astype(">u2"))
    atomic_write_text(Path(str(path) + ".scale"), f"min={lo!r}\nmax={hi!r}\n")
