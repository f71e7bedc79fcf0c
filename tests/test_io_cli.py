import argparse
import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oqf import io as oqfio
from oqf import quadrature, transform
from oqf.cli import build_parser, main
from oqf.ct import FbpConfig, backproject, default_num_bins, filter_projections, shepp_logan
from oqf.ct.phantom import ImageGrid, Sinogram
from oqf.grid import SampledFunction, UniformGrid
from oqf.quadrature import coefficient_matrix
from oqf.transform import forward_transform


def test_complex_csv_round_trip_bit_exact(tmp_path):
    path = tmp_path / "data.csv"
    xs = np.linspace(-1.0, 1.0, 17)
    rng = np.random.default_rng(0)
    vals = rng.normal(size=17) + 1j * rng.normal(size=17)
    oqfio.write_complex_csv(path, "x", xs, vals)
    xs2, vals2 = oqfio.read_complex_csv(path)
    np.testing.assert_array_equal(xs, xs2)
    np.testing.assert_array_equal(vals, vals2)


def test_complex_csv_rejects_nonuniform(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,re,im\n0.0,1.0,0.0\n0.1,1.0,0.0\n0.35,1.0,0.0\n")
    with pytest.raises(oqfio.FormatError, match="off the uniform lattice"):
        oqfio.read_complex_csv(path)


def test_complex_csv_rejects_garbage_value(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,re,im\n0.0,1.0,0.0\n0.1,one,0.0\n")
    with pytest.raises(oqfio.FormatError, match="row 3"):
        oqfio.read_complex_csv(path)


def test_complex_csv_rejects_single_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,re,im\n0.0,1.0,0.0\n")
    with pytest.raises(oqfio.FormatError, match="at least 2"):
        oqfio.read_complex_csv(path)


def test_complex_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "bad.csv"
    for rows, bad_row in (("0.0,1.0,0.0\nnan,1.0,0.0\n1.0,1.0,0.0\n", 3),
                          ("0.0,1.0,0.0\n0.5,1.0,0.0\n1.0,1.0,inf\n", 4)):
        path.write_text("x,re,im\n" + rows)
        with pytest.raises(oqfio.FormatError, match=f"row {bad_row}: non-finite"):
            oqfio.read_complex_csv(path)


def _read_text(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    return oqfio.read_complex_csv(path)


@pytest.mark.parametrize("text", [
    "x,re,im\r\n0,1,0\r\n0.5,2,-3\r\n1,3,0\r\n",           # CRLF
    "x,re,im\r0,1,0\r0.5,2,-3\r1,3,0\r",                   # CR
    "x,re,im\n\n0,1,0\n\n0.5,2,-3\n1,3,0\n\n\n",           # blank lines
    "x,re,im\n 0 ,1 , 0\n0.5\t,2,  -3\n1,3,0 \n",          # spaces around numbers
    'x,re,im\n"0",1,"0"\n0.5,"2",-3\n1,3,0\n',             # quoted numbers
    "x,re,im\n0.0,1.0,0.0\n0.5,2.0,-3.0\n1.0,3.0,0.0",     # no final newline
])
def test_complex_csv_accepted_layouts(tmp_path, text):
    xs, values = _read_text(tmp_path, text)
    np.testing.assert_array_equal(xs, [0.0, 0.5, 1.0])
    np.testing.assert_array_equal(values, [1.0, 2.0 - 3.0j, 3.0])


@pytest.mark.parametrize("rows, bad_row, reason", [
    ("0,1,0\n1,2\n2,3,0\n", 3, "expected 3 numbers, got '1,2'"),
    ("0,1,0\n1,2,0,0\n2,3,0\n", 3, "expected 3 numbers"),
    ("0,1\n1,2,0\n2,3,0\n", 2, "expected 3 numbers"),
    ("0,1,0\n1,abc,0\n2,3,0\n", 3, "expected 3 numbers, got '1,abc,0'"),
    ("0,1,0\n1,,0\n", 3, "expected 3 numbers"),
    ("0,1,0\n   \n1,2,0\n", 3, "expected 3 numbers"),    # whitespace is not blank
    ("0,1,0\n#1,2,0\n", 3, "expected 3 numbers"),        # no comment syntax
    ("0,1_0,0\n1,2,0\n", 2, "expected 3 numbers"),       # no digit separators
    ("nan,1,0\n1,2,0\n2,3,0\n", 2, "non-finite number"),
    ("0,1,0\n1,inf,0\n2,3,0\n", 3, "non-finite number"),
    ("0,1,0\n1,2,0\n2,3,-Infinity\n", 4, "non-finite number"),
    ("0,1,0\n1,1e400,0\n", 3, "non-finite number"),
    ("\n0,1,0\n\n1,nan,0\n2,abc,0\n", 5, "non-finite number"),  # blank lines count
    ("0,1,0\n1,abc,0\n2,nan,0\n", 3, "expected 3 numbers"),     # first bad row wins
    ("".join(f"{i},1,0\n" for i in range(999)) + "999,1\n", 1001, "expected 3 numbers"),
])
def test_complex_csv_names_first_bad_row(tmp_path, rows, bad_row, reason):
    with pytest.raises(oqfio.FormatError, match=f"row {bad_row}: {reason}"):
        _read_text(tmp_path, "x,re,im\n" + rows)


@pytest.mark.parametrize("text, message", [
    ("", "missing or malformed header"),
    ("\nx,re,im\n0,1,0\n1,2,0\n", "missing or malformed header"),
    ("x,re,im,z\n0,1,0\n1,2,0\n", "missing or malformed header"),
    ("x,re,im\n", "need at least 2 data rows, got 0"),
    ("x,re,im", "need at least 2 data rows, got 0"),
    ("x,re,im\n\n\n", "need at least 2 data rows, got 0"),
    ("x,re,im\n0,1,0\n", "need at least 2 data rows, got 1"),
    ("x,re,im\n1,1,0\n0,1,0\n", "abscissae must be increasing"),
    # the lattice check names the file line, as the parse checks do
    ("x,re,im\n\n0,1,0\n\n0.1,1,0\n0.35,1,0\n", "row 5: abscissa 0.1 off the uniform lattice"),
])
def test_complex_csv_rejects_file(tmp_path, text, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no loadtxt warning on an empty body
        with pytest.raises(oqfio.FormatError, match=message):
            _read_text(tmp_path, text)


def test_complex_csv_read_keeps_signed_zeros(tmp_path):
    xs, values = _read_text(tmp_path, "x,re,im\n-0.0,-0.0,0.0\n1.0,0.0,-0.0\n")
    assert np.signbit(xs).tolist() == [True, False]
    assert np.signbit(values.real).tolist() == [True, False]
    assert np.signbit(values.imag).tolist() == [False, True]


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("layout", ["plain", "blank lines", "no final newline"])
def test_complex_csv_read_across_blocks(tmp_path, monkeypatch, newline, layout):
    # Blocks of 2 lines: a CRLF or an empty line may fall on a block edge.
    rows = [f"{0.5 * k},{k + 1},{-k}" for k in range(9)]
    if layout == "blank lines":
        rows = ["", "", rows[0], "", "", "", *rows[1:4], "", *rows[4:], "", "", ""]
    text = newline.join(["x,re,im", *rows]) + ("" if layout == "no final newline" else newline)
    whole = _read_text(tmp_path, text)
    monkeypatch.setattr(oqfio, "_CSV_BLOCK_ROWS", 2)
    xs, values = _read_text(tmp_path, text)
    np.testing.assert_array_equal(xs, 0.5 * np.arange(9))
    np.testing.assert_array_equal(values, np.arange(1, 10) - 1j * np.arange(9))
    assert xs.tobytes() == whole[0].tobytes() and values.tobytes() == whole[1].tobytes()


@pytest.mark.parametrize("bad, message", [
    ("7,abc,0", "row 9: expected 3 numbers, got '7,abc,0'"),
    ("7,nan,0", "row 9: non-finite number"),
    ("7.5,1,0", "row 9: abscissa 7.5 off the uniform lattice"),
])
def test_complex_csv_names_bad_row_in_a_later_block(tmp_path, monkeypatch, bad, message):
    rows = [f"{k},1,0" for k in range(10)]
    rows[7] = bad
    monkeypatch.setattr(oqfio, "_CSV_BLOCK_ROWS", 3)
    with pytest.raises(oqfio.FormatError, match=message):
        _read_text(tmp_path, "x,re,im\n" + "\n".join(rows) + "\n")


def test_complex_csv_read_peak_memory_is_bounded(tmp_path):
    # 10^6 rows are parsed a block at a time and appended to the result's
    # arrays, so the traced peak stays within 1.25x the outputs' bytes; one
    # table of the whole file, copied out, took 2.0x.
    import tracemalloc

    path = tmp_path / "big.csv"
    k = np.arange(10**6)
    xs, values = 0.25 * k - 1000.0, (k % 7 - 3.0) + 0.5j * (k % 5)
    oqfio.write_complex_csv(path, "x", xs, values)
    tracemalloc.start()
    try:
        read = oqfio.read_complex_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (read[0].nbytes + read[1].nbytes)
    np.testing.assert_array_equal(read[0], xs)
    np.testing.assert_array_equal(read[1], values)


def test_complex_csv_empty_lines_cost_little_memory(tmp_path, monkeypatch):
    # Rows ended by "\r\r\n" are each followed by an empty line.  The read
    # keeps those lines' numbers, 8 bytes each, to name an off-lattice row,
    # so the traced peak, 1.40x the result's bytes, stays within 1.6x;
    # sizing the result by the line count took 2.05x, a list of ints 2.73x.
    import tracemalloc

    monkeypatch.setattr(oqfio, "_CSV_BLOCK_ROWS", 1 << 12)
    path = tmp_path / "spaced.csv"
    k = np.arange(2 * 10**5)
    oqfio.write_complex_csv(path, "x", 0.25 * k, (k % 7 - 3.0) + 0.5j * (k % 5))
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\r\n"))
    tracemalloc.start()
    try:
        xs, values = oqfio.read_complex_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * (xs.nbytes + values.nbytes)
    np.testing.assert_array_equal(xs, 0.25 * k)


def test_complex_csv_names_a_late_bad_row_from_its_block(tmp_path, monkeypatch):
    # A bad row is named from the lines of its block, which the read holds,
    # and an off-lattice row from the empty lines' numbers, so a late bad row
    # costs a few blocks beyond the read that found it.  Reading the whole
    # file's lines to name it took 7x the arrays' bytes more.
    import tracemalloc

    monkeypatch.setattr(oqfio, "_CSV_BLOCK_ROWS", 256)
    rows = 5 * 10**4
    path = tmp_path / "big.csv"
    xs = 0.25 * np.arange(rows)
    oqfio.write_complex_csv(path, "x", xs, np.ones(rows))
    lines = path.read_text().splitlines()

    def traced_read(text):
        path.write_text(text)
        tracemalloc.start()
        try:
            oqfio.read_complex_csv(path)
        except oqfio.FormatError as exc:
            message = str(exc)
        else:
            message = None
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return peak, message

    good, message = traced_read("\n".join(lines) + "\n")
    assert message is None
    last = xs[-1]
    edge = 255 + 256 * 194  # the last line of a block, file line 49921
    for index, bad, reason in ((rows - 1, f"{last},abc,0", "expected 3 numbers"),
                               (rows - 1, f"{last},nan,0", "non-finite number"),
                               (rows - 2, f"{last - 0.2},1,0", "abscissa .* off the uniform"),
                               (edge, f"{xs[edge]},abc,0", "expected 3 numbers")):
        text = "\n".join(lines[: index + 1] + [bad] + lines[index + 2 :]) + "\n"
        peak, message = traced_read(text)
        assert re.search(f"row {index + 2}: {reason}", message), message
        assert peak - good <= 4 * 256 * 128, reason


def test_complex_csv_opens_its_path_once(tmp_path, monkeypatch):
    # Every input is read once: naming a bad row in a later block, or an
    # off-lattice row after an empty line, opens nothing again.
    opened = []

    def counted_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(oqfio, "open", counted_open, raising=False)
    monkeypatch.setattr(oqfio, "_CSV_BLOCK_ROWS", 3)
    rows = [f"{k},1,0" for k in range(10)]
    for body, message in ((rows, None),
                          (rows[:7] + ["7,abc,0"] + rows[8:], "row 9: expected 3 numbers"),
                          (rows[:2] + [""] + rows[2:7] + ["7.5,1,0"] + rows[8:],
                           "row 10: abscissa 7.5 off")):
        path = tmp_path / "in.csv"
        path.write_text("\n".join(["x,re,im", *body]) + "\n")
        opened.clear()
        if message is None:
            np.testing.assert_array_equal(oqfio.read_complex_csv(path)[0], np.arange(10.0))
        else:
            with pytest.raises(oqfio.FormatError, match=message):
                oqfio.read_complex_csv(path)
        assert opened == [path]


def _per_row_csv(header, row, *columns):
    # The row-at-a-time writer the blocked writers replaced.
    return "\n".join([header] + [row(*r) for r in zip(*columns)]) + "\n"


@pytest.mark.parametrize("rows", [0, 1, 5, 6, 13])
def test_csv_writers_match_per_row_formatting_across_blocks(tmp_path, monkeypatch, rows):
    monkeypatch.setattr(oqfio, "_CSV_BLOCK_ROWS", 5)
    rng = np.random.default_rng(rows)
    xs = rng.normal(size=rows) * 10.0 ** rng.integers(-20, 20, size=rows)
    values = rng.normal(size=rows) + 1j * rng.normal(size=rows)
    values[: rows // 2] *= -0.0
    path = tmp_path / "out.csv"

    oqfio.write_complex_csv(path, "omega", xs, values)
    assert path.read_text() == _per_row_csv(
        "omega,re,im", lambda x, v: f"{float(x)!r},{float(v.real)!r},{float(v.imag)!r}",
        xs, values)

    oqfio.write_coefficients_csv(path, values)
    assert path.read_text() == _per_row_csv(
        "beta,re,im", lambda b, v: f"{b},{v.real:.17g},{v.imag:.17g}", range(rows), values)

    records = [transform.QuadratureErrorRecord(float(x), complex(v)) for x, v in zip(xs, values)]
    oqfio.write_sweep_csv(path, records)
    assert path.read_text() == _per_row_csv(
        "omega,abs_re_err,abs_im_err",
        lambda r: f"{float(r.omega)!r},{float(r.abs_real_error)!r},{float(r.abs_imag_error)!r}",
        records)
    assert list(tmp_path.iterdir()) == [path]


def _repr_text(columns):
    # The rows as "%r,...,%r\n" formats them, one Python float at a time.
    rows = np.column_stack(columns)
    row = ",".join(["%r"] * rows.shape[1]) + "\n"
    return (row * len(rows) % tuple(rows.ravel().tolist())).encode()


def _exact_ties(count, rng):
    # m + 1/4 and m + 3/4 for m in [2^49, 2^51): the two shortest decimals,
    # m.2 and m.3 (or m.7 and m.8), are equally near, and repr takes the
    # even one.
    m = rng.integers(2**49, 2**51, size=count).astype(float)
    return np.concatenate([m + 0.25, m + 0.75])


def test_csv_floats_are_repr_bytes():
    from oqf._float_repr import repr_rows

    rng = np.random.default_rng(2024)
    random = rng.integers(0, 2**64, size=10**5, dtype=np.uint64).view(float)
    random = random[np.isfinite(random)]
    two = 2.0 ** np.arange(-1074, 1024)
    near = [np.nextafter(v, to) for v in (1e-4, 1e-5, 1e16, 1e17) for to in (0.0, math.inf)]
    special = [5e-324, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0.0),
               0.0, -0.0, 1e-4, 1e-5, 1e16, 1e17, *near]
    integers = 2.0**53 + np.arange(-50, 51)
    ties = _exact_ties(500, rng)
    # each of these lies exactly halfway between its two shortest decimals
    for tie in ties[:5]:
        digits = repr(float(tie))
        assert digits[-1] in "28" and abs(Fraction(tie) - Fraction(digits)) == Fraction(1, 20)
    values = np.concatenate([random, two, -two, special, integers, -integers, ties, -ties])
    values = values[: len(values) // 3 * 3]
    columns = list(values.reshape(3, -1))
    assert repr_rows(columns).tobytes() == _repr_text(columns)
    # one column, and columns that are strided views
    assert repr_rows(columns[:1]).tobytes() == _repr_text(columns[:1])
    complex_view = values[: len(values) // 2 * 2].view(complex)
    pair = [complex_view.real, complex_view.imag]
    assert repr_rows(pair).tobytes() == _repr_text(pair)


def test_csv_floats_of_big_endian_input_are_the_same_bytes(tmp_path):
    rng = np.random.default_rng(5)
    xs = np.linspace(-3.0, 3.0, 101)
    scale = 10.0 ** rng.integers(-30, 30, size=101)
    values = rng.normal(size=101) * scale + 1j * rng.normal(size=101)
    native, swapped = tmp_path / "native.csv", tmp_path / "swapped.csv"
    oqfio.write_complex_csv(native, "x", xs, values)
    oqfio.write_complex_csv(swapped, "x", xs.astype(">f8"), values.astype(">c16"))
    assert swapped.read_bytes() == native.read_bytes()
    records = [transform.QuadratureErrorRecord(x, v) for x, v in zip(xs.astype(">f8"), values)]
    oqfio.write_sweep_csv(swapped, records)
    assert swapped.read_bytes().split(b"\n", 1)[1] == _repr_text(
        [xs, np.abs(values.real), np.abs(values.imag)])


def test_import_of_io_builds_no_float_tables():
    # The formatter's tables (and its module) are built at the first write.
    code = ("import sys, numpy as np, oqf.io as io, tempfile, os; "
            "assert 'oqf._float_repr' not in sys.modules; "
            "path = os.path.join(tempfile.mkdtemp(), 'out.csv'); "
            "io.write_coefficients_csv(path, np.ones(2)); "
            "assert 'oqf._float_repr' not in sys.modules; "
            "io.write_complex_csv(path, 'x', np.arange(2.0), np.ones(2)); "
            "assert 'oqf._float_repr' in sys.modules")
    src = str(Path(oqfio.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_complex_csv_write_peak_memory_is_bounded(tmp_path):
    # 2*10^5 rows: the traced peak is 3.46 MB with the formatter's first
    # import and tables, 3.33 MB without, where the % formatting over
    # .tolist() floats it replaced peaked at 4.19 MB (4189777 bytes).
    import tracemalloc

    rng = np.random.default_rng(0)
    xs = np.linspace(-50.0, 50.0, 2 * 10**5)
    values = rng.normal(size=xs.size) + 1j * rng.normal(size=xs.size)
    tracemalloc.start()
    try:
        oqfio.write_complex_csv(tmp_path / "big.csv", "x", xs, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4189777


def test_csv_write_failure_leaves_no_file(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError):
        oqfio.write_complex_csv(path, "x", np.zeros(3), np.zeros(4))
    assert list(tmp_path.iterdir()) == []


def test_sinogram_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    sino = Sinogram(5, 9, 0.1, 0.2, -1.0, 0.25, rng.normal(size=(5, 9)))
    path = tmp_path / "s.sino"
    oqfio.write_sinogram(path, sino)
    back = oqfio.read_sinogram(path)
    assert (back.num_angles, back.num_bins) == (5, 9)
    assert (back.theta0, back.dtheta, back.t0, back.dt) == (0.1, 0.2, -1.0, 0.25)
    np.testing.assert_array_equal(back.data, sino.data)


def test_sinogram_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "s.sino"
    path.write_bytes(b"NOTSINO1" + b"\0" * 48)
    with pytest.raises(oqfio.FormatError, match="magic"):
        oqfio.read_sinogram(path)
    sino = Sinogram(2, 3, 0.0, 0.1, 0.0, 0.5, np.zeros((2, 3)))
    oqfio.write_sinogram(path, sino)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(oqfio.FormatError, match="offset"):
        oqfio.read_sinogram(path)


def write_raw_sinogram(path, num_angles=2, num_bins=3, theta0=0.0, dtheta=0.1, t0=-1.0, dt=1.0):
    header = struct.pack("<IIdddd", num_angles, num_bins, theta0, dtheta, t0, dt)
    path.write_bytes(oqfio.SINO_MAGIC + header + bytes(8 * num_angles * num_bins))


@pytest.mark.parametrize("field,value,offset", [
    ("num_angles", 0, 8), ("num_bins", 1, 12), ("theta0", math.inf, 16),
    ("dtheta", -0.1, 24), ("t0", math.nan, 32), ("dt", 0.0, 40),
])
def test_sinogram_header_geometry_rejected_with_offset(tmp_path, field, value, offset):
    path = tmp_path / "s.sino"
    write_raw_sinogram(path, **{field: value})
    with pytest.raises(oqfio.FormatError, match=f"offset {offset}: {field}"):
        oqfio.read_sinogram(path)


def write_raw_image(path, rows=2, cols=3, min_x=-1.0, min_y=-1.0, max_x=1.0, max_y=1.0):
    header = struct.pack("<IIdddd", rows, cols, min_x, min_y, max_x, max_y)
    path.write_bytes(oqfio.IMG_MAGIC + header + bytes(8 * rows * cols))


@pytest.mark.parametrize("field,value,offset", [
    ("rows", 0, 8), ("cols", 0, 12), ("min_x", math.nan, 16),
    ("min_y", -math.inf, 24), ("max_x", -1.0, 32), ("max_y", math.nan, 40),
])
def test_image_header_raster_rejected_with_offset(tmp_path, field, value, offset):
    path = tmp_path / "i.img"
    write_raw_image(path, **{field: value})
    with pytest.raises(oqfio.FormatError, match=f"offset {offset}: {field}"):
        oqfio.read_image(path)


@pytest.mark.parametrize("axis, offset", [("x", 32), ("y", 40)])
def test_image_header_overflowing_width_rejected_with_offset(tmp_path, axis, offset):
    path = tmp_path / "i.img"
    write_raw_image(path, **{f"min_{axis}": -1e308, f"max_{axis}": 1e308})
    with pytest.raises(oqfio.FormatError, match=f"offset {offset}: max_{axis}"):
        oqfio.read_image(path)


@pytest.mark.parametrize("kind, index, value", [
    ("image", 4, math.nan), ("sinogram", 5, math.inf),
])
def test_cli_non_finite_container_value_is_validation_error(tmp_path, capsys, kind, index, value):
    path = tmp_path / kind
    if kind == "image":
        write_raw_image(path)
        argv = ["metrics", "--test", str(path), "--ref", str(path)]
    else:
        write_raw_sinogram(path)
        argv = ["fbp", "--sinogram", str(path), "--size", "16", "--out", str(tmp_path / "r.img")]
    offset = 48 + 8 * index
    raw = bytearray(path.read_bytes())
    raw[offset:offset + 8] = struct.pack("<d", value)
    path.write_bytes(raw)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: non-finite value at offset {offset}\n"
    assert captured.out == "" and not (tmp_path / "r.img").exists()


@pytest.mark.parametrize("fields", [
    dict(rows=0, cols=0), dict(min_x=math.nan), dict(max_y=-2.0),
    dict(min_x=-1e308, max_x=1e308),
])
def test_cli_metrics_bad_image_header_is_validation_error(tmp_path, capsys, fields):
    bad, ok = tmp_path / "bad.img", tmp_path / "ok.img"
    write_raw_image(bad, **fields)
    write_raw_image(ok)
    assert main(["metrics", "--test", str(bad), "--ref", str(ok), "--mask", "both"]) == 3
    err = capsys.readouterr().err
    assert "header at offset" in err and "Traceback" not in err


def test_image_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    img = ImageGrid(4, 4, rng.normal(size=(4, 4)), (-2.0, -1.0, 2.0, 1.0))
    path = tmp_path / "i.img"
    oqfio.write_image(path, img)
    back = oqfio.read_image(path)
    assert back.extent == img.extent
    np.testing.assert_array_equal(back.pixels, img.pixels)


def test_writes_are_deterministic(tmp_path):
    img = shepp_logan(32)
    p1, p2 = tmp_path / "a.img", tmp_path / "b.img"
    oqfio.write_image(p1, img)
    oqfio.write_image(p2, img)
    assert p1.read_bytes() == p2.read_bytes()


def _traced_peak(call, *args):
    import tracemalloc

    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind, shape", [("sinogram", (360, 729)), ("image", (512, 512))])
def test_container_is_written_from_its_array_and_read_with_one_copy(tmp_path, kind, shape):
    # The writer streams the array's own buffer after the header, and the
    # reader's only copy is the writable result beside the file's bytes:
    # concatenating the payload traced 2.00x the data, slicing it 3.13x.
    data = np.random.default_rng(3).normal(size=shape)
    if kind == "sinogram":
        value = Sinogram(*shape, 0.0, np.pi / 360, -1.0, 2.0 / 728, data)
        magic, header = oqfio.SINO_MAGIC, value.geometry()
        write, read = oqfio.write_sinogram, lambda p: oqfio.read_sinogram(p).data
    else:
        value = ImageGrid(*shape, data, (-1.0, -1.0, 1.0, 1.0))
        magic, header = oqfio.IMG_MAGIC, (*shape, *value.extent)
        write, read = oqfio.write_image, lambda p: oqfio.read_image(p).pixels
    path = tmp_path / kind
    _, peak = _traced_peak(write, path, value)
    assert peak <= 0.5 * data.nbytes
    assert path.read_bytes() == magic + oqfio._HEADER.pack(*header) + data.astype("<f8").tobytes()
    loaded, peak = _traced_peak(read, path)
    assert peak <= 2.5 * data.nbytes
    assert loaded.flags.writeable
    np.testing.assert_array_equal(loaded, data)


def test_pipe_inputs_load_as_files_do(tmp_path, monkeypatch):
    # A FIFO can be read once: a CSV and a container each load from a single
    # pass, so `cat s.csv | oqf ft --input /dev/stdin` works, and a bad CSV
    # row is named from the lines already read.  A reader that opened the
    # path again would block, so an alarm ends it.
    import signal
    import threading

    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    csv = tmp_path / "s.csv"
    csv.write_text("x,re,im\n0,1,0\n0.5,2,-1\n1,3,0\n")
    sino = tmp_path / "s.sino"
    oqfio.write_sinogram(sino, Sinogram(2, 3, 0.0, 0.1, -1.0, 0.5, np.arange(6.0).reshape(2, 3)))

    def fed(payload, read):
        writer = threading.Thread(target=fifo.write_bytes, args=(payload,), daemon=True)
        writer.start()
        result = read(fifo)
        writer.join()
        return result

    def timed_out(signum, frame):
        raise TimeoutError("the reader opened the pipe again")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(10)
    try:
        xs, values = fed(csv.read_bytes(), oqfio.read_complex_csv)
        expected = oqfio.read_complex_csv(csv)
        assert xs.tobytes() == expected[0].tobytes()
        assert values.tobytes() == expected[1].tobytes()
        np.testing.assert_array_equal(fed(sino.read_bytes(), oqfio.read_sinogram).data,
                                      oqfio.read_sinogram(sino).data)
        size = len(sino.read_bytes())
        with pytest.raises(oqfio.FormatError,
                           match=f"payload ends at offset {size - 8}, expected {size}"):
            fed(sino.read_bytes()[:-8], oqfio.read_sinogram)
        # Blocks of 2 lines, the second block [4, 5] holding an empty line:
        # a file and a pipe are both read once, a block's lines at a time.
        monkeypatch.setattr(oqfio, "_CSV_BLOCK_ROWS", 2)
        lines = ["x,re,im", *(f"{0.5 * k},{k},{-k}" for k in range(9))]
        lines.insert(4, "")
        csv.write_text("\n".join(lines) + "\n")
        xs, values = fed(csv.read_bytes(), oqfio.read_complex_csv)
        expected = oqfio.read_complex_csv(csv)
        assert xs.tobytes() == expected[0].tobytes()
        assert values.tobytes() == expected[1].tobytes()
        # A bad row is named from its block's lines, and an abscissa off the
        # lattice by its line, empty lines before it counted.
        for line, bad, named in (
            (10, "3.5,abc,0", "row 10: expected 3 numbers"),
            (10, "3.5,nan,0", "row 10: non-finite number"),
            (10, "3.6,1,0", "row 10: abscissa 3.6 off"),
            (4, "1.1,1,0", "row 4: abscissa 1.1 off"),
        ):
            csv.write_text("\n".join(lines[: line - 1] + [bad] + lines[line:]) + "\n")
            with pytest.raises(oqfio.FormatError, match=named):
                fed(csv.read_bytes(), oqfio.read_complex_csv)
            with pytest.raises(oqfio.FormatError, match=named):
                oqfio.read_complex_csv(csv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_pipe_read_peak_memory_is_bounded_as_a_files_is(tmp_path, monkeypatch):
    # A pipe's rows are appended to the result's arrays a block at a time,
    # as a file's are, so its traced peak stays within 1.25x the result's
    # bytes; holding its block tables and joining them took 2.02x.
    import signal
    import threading
    import tracemalloc

    monkeypatch.setattr(oqfio, "_CSV_BLOCK_ROWS", 1 << 12)
    fifo, csv = tmp_path / "pipe", tmp_path / "big.csv"
    os.mkfifo(fifo)
    k = np.arange(2 * 10**5)
    oqfio.write_complex_csv(csv, "x", 0.25 * k, (k % 7 - 3.0) + 0.5j * (k % 5))
    payload = csv.read_bytes()
    writer = threading.Thread(target=fifo.write_bytes, args=(payload,), daemon=True)

    def timed_out(signum, frame):
        raise TimeoutError("the reader opened the pipe again")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(20)
    tracemalloc.start()
    try:
        writer.start()
        xs, values = oqfio.read_complex_csv(fifo)
        peak = tracemalloc.get_traced_memory()[1]
        writer.join()
    finally:
        tracemalloc.stop()
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert peak <= 1.25 * (xs.nbytes + values.nbytes)
    np.testing.assert_array_equal(xs, 0.25 * k)
    np.testing.assert_array_equal(values, (k % 7 - 3.0) + 0.5j * (k % 5))


def test_pgm16_header_and_sidecar(tmp_path):
    img = ImageGrid(2, 3, np.array([[0.0, 0.5, 1.0], [1.0, 0.25, 0.0]]))
    path = tmp_path / "out.pgm"
    oqfio.write_pgm16(path, img)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n3 2\n65535\n")
    values = np.frombuffer(raw[len(b"P5\n3 2\n65535\n"):], dtype=">u2")
    assert values.max() == 65535 and values.min() == 0
    sidecar = (tmp_path / "out.pgm.scale").read_text()
    assert "min=0.0" in sidecar and "max=1.0" in sidecar


def test_pgm16_constant_image(tmp_path):
    img = ImageGrid(2, 2, np.full((2, 2), 3.5))
    path = tmp_path / "c.pgm"
    oqfio.write_pgm16(path, img)
    values = np.frombuffer(path.read_bytes()[len(b"P5\n2 2\n65535\n"):], dtype=">u2")
    assert values.max() == 0


def test_pgm16_span_beyond_the_float_range(tmp_path):
    img = ImageGrid(1, 3, np.array([[-1e308, 0.0, 1e308]]))
    path = tmp_path / "wide.pgm"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        oqfio.write_pgm16(path, img)
    values = np.frombuffer(path.read_bytes()[len(b"P5\n3 1\n65535\n"):], dtype=">u2")
    assert values.tolist() == [0, 32768, 65535]


@pytest.mark.parametrize("writer, value, index", [
    ("image", math.nan, (1, 0)), ("sinogram", math.inf, (0, 2)), ("pgm16", -math.inf, (0, 1)),
    ("complex_csv", math.inf, (1, 0)), ("coefficients_csv", math.nan, (0, 2)),
    ("sweep_csv", -math.inf, (0, 1)),
])
def test_writers_refuse_non_finite_data_before_creating_a_file(tmp_path, writer, value, index):
    data = np.zeros((2, 3))
    data[1, 2] = math.nan  # a later bad value, not the one named
    data[index] = value
    path = tmp_path / "out"
    # A CSV writer checks its table (rows of data) column by column.
    csv_columns = {"complex_csv": "x,re,im", "coefficients_csv": "beta,re,im",
                   "sweep_csv": "omega,abs_re_err,abs_im_err"}
    if writer in csv_columns:
        column = csv_columns[writer].split(",")[index[1]]
        where = rf"{column}: non-finite value at index \({index[0]},\)"
    else:
        where = rf"non-finite value at index \({index[0]}, {index[1]}\)"
    values = data[:, 1:].copy().view(complex).ravel()
    with pytest.raises(ValueError, match=where):
        if writer == "sinogram":
            oqfio.write_sinogram(path, Sinogram(2, 3, 0.0, 0.1, -1.0, 1.0, data))
        elif writer == "complex_csv":
            oqfio.write_complex_csv(path, "x", data[:, 0], values)
        elif writer == "coefficients_csv":
            oqfio.write_coefficients_csv(path, values)
        elif writer == "sweep_csv":
            oqfio.write_sweep_csv(path, [
                transform.QuadratureErrorRecord(w, complex(r, i)) for w, r, i in data
            ])
        else:
            getattr(oqfio, f"write_{writer}")(path, ImageGrid(2, 3, data))
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- CLI


def test_cli_coeffs_trapezoid(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["coeffs", "--a", "0", "--b", "1", "--n", "4", "--omega", "0", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "beta,re,im"
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.125 and float(first[2]) == 0.0


def test_cli_coeffs_matches_library(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["coeffs", "--n", "8", "--omega", "1.3", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    vals = np.array([complex(float(r), float(i)) for _, r, i in rows])
    expected = coefficient_matrix(UniformGrid(0.0, 1.0, 8), 1.3)
    np.testing.assert_array_equal(vals, expected)


# `oqf coeffs --n 8 --omega 1.3`, byte for byte.  Rows 7 and 8, where 2 omega x
# passes 2, carry the phase reduced mod 2 before it is rounded.
COEFFS_N8_OMEGA13 = """\
beta,re,im
0,0.057255633862597882,0.020189588563760869
1,0.059831973030218553,0.097636906133606371
2,-0.051987027660370652,0.10203028663623032
3,-0.11415826770300255,0.0089844505163679794
4,-0.067308034390185137,-0.092641561637102784
5,0.043821564977555669,-0.10579461649322865
6,0.11310144399894417,-0.01791350890766958
7,0.07436911933594352,0.087075051106661153
8,0.0015084758776304165,0.060692269655273363
"""


def test_cli_coeffs_output_is_pinned(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["coeffs", "--n", "8", "--omega", "1.3", "--out", str(out)]) == 0
    assert out.read_bytes() == COEFFS_N8_OMEGA13.encode()


# `oqf coeffs --n 40000 --omega 0.37`: 40001 rows, so the output spans
# several write blocks.  SHA-256 and length of the file.
COEFFS_N40000_SHA256 = "a886bf968b13e268fd6e38845187ce853e474d12bca622e6077be490f6ce663d"
COEFFS_N40000_BYTES = 2073097


def test_cli_coeffs_long_output_is_pinned(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["coeffs", "--n", "40000", "--omega", "0.37", "--out", str(out)]) == 0
    data = out.read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (
        COEFFS_N40000_SHA256, COEFFS_N40000_BYTES)


# Inputs of the pinned ft and ift runs: 1 - x^2 + i x/2 on [-1, 1] and
# 2^-|w| - i w/8 on [-3, 3].
FT_INPUT = "x,re,im\n" + "".join(
    f"{x},{1 - x * x},{x / 2}\n" for x in np.linspace(-1.0, 1.0, 9).tolist())
IFT_INPUT = "omega,re,im\n" + "".join(
    f"{w},{2 ** -abs(w)},{-w / 8}\n" for w in np.linspace(-3.0, 3.0, 7).tolist())

# `oqf ft --omega-min -2 --omega-max 2 --omega-count 9` of FT_INPUT.
FT_OUTPUT = """\
omega,re,im
-2.0,0.05424717563536324,4.799535401045213e-17
-1.5,-0.06107165822022469,6.251152156823815e-18
-1.0,0.05783375944955761,-4.799535401045212e-17
-0.5,0.08697484838556038,-1.1132761425382294e-16
0.0,1.3125,0.0
0.5,0.7235946207531415,-4.991210727011894e-17
1.0,-0.260476126734233,-6.040362033379313e-17
1.5,0.15113493256896926,-7.314762946403305e-17
2.0,-0.10490776745653209,4.799535401045213e-17
"""

# `oqf ift --x-min -1.5 --x-max 1.5 --x-count 7` of IFT_INPUT.
IFT_OUTPUT = """\
x,re,im
-1.5,-0.06269060760555803,2.8821472692328382e-18
-1.0,0.1193662073189215,0.0
-0.5,-0.08675063917433634,1.1138124830304075e-16
0.0,2.625,0.0
0.5,0.39071419010134967,4.28315769430055e-17
1.0,-0.1193662073189215,0.0
1.5,0.09646433548633729,-9.989235488413592e-19
"""

# `oqf error-sweep --alpha 2 --n 20 --omega-min -3 --omega-max 3 --omega-count 7`.
SWEEP_OUTPUT = """\
omega,abs_re_err,abs_im_err
-3.0,1.1622647289044608e-16,9.405269362936457e-18
-2.0,1.6306400674181987e-16,7.524889173205756e-17
-1.0,1.8041124150158794e-16,1.3646492204591222e-17
0.0,0.0033333333333336324,0.0
1.0,1.8041124150158794e-16,3.7500839472767774e-17
2.0,1.6306400674181987e-16,7.062865537210885e-17
3.0,1.6479873021779667e-16,2.211636045490859e-17
"""


@pytest.mark.parametrize("argv, stdin, expected", [
    (["ft", "--omega-min", "-2", "--omega-max", "2", "--omega-count", "9"],
     FT_INPUT, FT_OUTPUT),
    (["ift", "--x-min", "-1.5", "--x-max", "1.5", "--x-count", "7"],
     IFT_INPUT, IFT_OUTPUT),
    (["error-sweep", "--alpha", "2", "--n", "20", "--omega-min", "-3",
      "--omega-max", "3", "--omega-count", "7"], None, SWEEP_OUTPUT),
], ids=["ft", "ift", "error-sweep"])
def test_cli_csv_output_is_pinned(argv, stdin, expected, tmp_path):
    out = tmp_path / "out.csv"
    if stdin is not None:
        (tmp_path / "in.csv").write_text(stdin)
        argv = [*argv, "--input", str(tmp_path / "in.csv")]
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode()


def test_cli_coeffs_missing_out_is_validation_error(capsys):
    assert main(["coeffs", "--n", "4"]) == 3
    assert "error:" in capsys.readouterr().err


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag, value", [("--band", "1"), ("--num-omega", "99")])
def test_cli_fbp_frequency_lattice_is_not_a_flag(flag, value, tmp_path):
    # filter_projections takes its lattice from the sinogram alone.
    out = tmp_path / "r.img"
    with pytest.raises(SystemExit) as exc:
        main(["fbp", flag, value, "--size", "16", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_cli_ft_matches_library(tmp_path):
    grid = UniformGrid(-1.0, 1.0, 16)
    vals = np.cos(2.0 * np.pi * grid.nodes())
    inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
    oqfio.write_complex_csv(inp, "x", grid.nodes(), vals.astype(complex))
    rc = main(["ft", "--input", str(inp), "--out", str(out),
               "--omega-min", "-2", "--omega-max", "2", "--omega-count", "9"])
    assert rc == 0
    omegas, spectrum = oqfio.read_complex_csv(out)
    expected = forward_transform(
        SampledFunction(grid, vals.astype(complex)), np.linspace(-2, 2, 9)
    ).values
    np.testing.assert_array_equal(spectrum, expected)
    # --omega gives one frequency in place of the lattice
    assert main(["ft", "--input", str(inp), "--out", str(out), "--omega", "2.5"]) == 0
    (one,) = forward_transform(SampledFunction(grid, vals.astype(complex)), [2.5]).values
    assert out.read_text() == f"omega,re,im\n2.5,{float(one.real)!r},{float(one.imag)!r}\n"


def test_cli_ft_ift_round_trip(tmp_path):
    grid = UniformGrid(-4.0, 4.0, 160)
    vals = np.exp(-grid.nodes() ** 2)
    inp = tmp_path / "f.csv"
    spec = tmp_path / "spec.csv"
    back = tmp_path / "back.csv"
    oqfio.write_complex_csv(inp, "x", grid.nodes(), vals.astype(complex))
    assert main(["ft", "--input", str(inp), "--out", str(spec),
                 "--omega-min", "-4", "--omega-max", "4", "--omega-count", "321"]) == 0
    assert main(["ift", "--input", str(spec), "--out", str(back),
                 "--x-min", "-4", "--x-max", "4", "--x-count", "161"]) == 0
    xs, recon = oqfio.read_complex_csv(back)
    np.testing.assert_allclose(recon.real, vals, atol=5e-3)


_FT_IFT_FLAGS = {"ft": ["--omega", "0"], "ift": ["--x-min", "0", "--x-max", "1", "--x-count", "3"]}


@pytest.mark.parametrize("command", ["ft", "ift"])
def test_cli_ft_ift_input_whose_abscissae_span_overflows_is_validation_error(tmp_path, capsys,
                                                                              command):
    # Finite abscissae whose span passes the largest float used to warn of an
    # overflowing subtraction and an invalid multiply, then exit 3 from the grid.
    inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
    inp.write_text("x,re,im\n-1e308,1,0\n0,1,0\n1e308,1,0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--input", str(inp), "--out", str(out), *_FT_IFT_FLAGS[command]]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {inp}: abscissae -1e+308 to 1e+308 span more than the largest float\n"
    assert not out.exists()


@pytest.mark.parametrize("command, code", [("ft", 0), ("ift", 3)])
def test_cli_ft_ift_input_reaching_the_largest_float_is_checked_without_overflow(
        tmp_path, capsys, command, code):
    # On [0, max float] the lattice line's last entry, 3 * (max / 3), rounds
    # past the largest float; the check runs at a quarter scale there.  The
    # uniform lattice is read, and a row off it is named.  At its step only
    # omega = 0 is within the frequency limit, so ft transforms it, and ift,
    # whose x lattice holds a non-zero entry, refuses it at that limit.
    top = 1.7976931348623157e308
    inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
    lattice = (0.0, top / 3, 2 * (top / 3), top)
    inp.write_text("x,re,im\n" + "".join(f"{x!r},0,0\n" for x in lattice))
    argv = [command, "--input", str(inp), "--out", str(out), *_FT_IFT_FLAGS[command]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == code
        if code == 0:
            assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)).all()
            out.unlink()
        off = (0.0, 0.3333333333333333, 0.6666666666666666, top)
        inp.write_text("x,re,im\n" + "".join(f"{x!r},0,0\n" for x in off))
        assert main(argv) == 3
    assert "row 3: abscissa 0.3333333333333333 off the uniform lattice" in capsys.readouterr().err
    assert not out.exists()


def test_cli_error_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["error-sweep", "--alpha", "0", "--n", "20",
               "--omega-min", "-1", "--omega-max", "1", "--omega-count", "5",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "omega,abs_re_err,abs_im_err"
    assert len(lines) == 6


@pytest.mark.parametrize("bounds, message", [
    (["--omega-min", "1", "--omega-max", "1"], "--omega-max must differ from --omega-min"),
    (["--omega-max", "inf"], "--omega-min and --omega-max must be finite"),
    (["--omega-count", "1"], "--omega-count"),
])
def test_cli_error_sweep_names_its_flags_in_lattice_errors(tmp_path, capsys, bounds, message):
    out = tmp_path / "sweep.csv"
    assert main(["error-sweep", "--alpha", "0", "--n", "20", *bounds, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "omega_m" not in err
    assert not out.exists()


def test_cli_error_sweep_descends(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["error-sweep", "--alpha", "0", "--n", "20", "--omega-min", "1",
                 "--omega-max", "-1", "--omega-count", "5", "--out", str(out)]) == 0
    omegas = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
    assert omegas == [1.0, 0.5, 0.0, -0.5, -1.0]


def test_cli_phantom_and_metrics_flow(tmp_path, capsys):
    ref = tmp_path / "ref.img"
    assert main(["phantom", "--size", "64", "--out", str(ref)]) == 0
    np.testing.assert_array_equal(oqfio.read_image(ref).pixels, shepp_logan(64).pixels)
    assert main(["metrics", "--test", str(ref), "--ref", str(ref)]) == 0
    out = capsys.readouterr().out
    assert "psnr=inf" in out and "e_max=0.0" in out


@pytest.mark.parametrize("ref_extent, mask, message", [
    ((-1.0, -1.0, 1.0, 1.0), "whole", "(5.0, 5.0, 6.0, 6.0) vs 16x16 over (-1.0, -1.0, 1.0, 1.0)"),
    ((5.0, 5.0, 6.0, 6.0), "inner", "region 'inner' holds no pixel"),
])
def test_cli_metrics_raster_mismatch_is_validation_error(tmp_path, capsys, ref_extent, mask,
                                                         message):
    test, ref = tmp_path / "t.img", tmp_path / "r.img"
    oqfio.write_image(test, ImageGrid(16, 16, np.ones((16, 16)), (5.0, 5.0, 6.0, 6.0)))
    oqfio.write_image(ref, ImageGrid(16, 16, np.ones((16, 16)), ref_extent))
    assert main(["metrics", "--test", str(test), "--ref", str(ref), "--mask", mask]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_cli_metrics_zero_reference_reports_minus_inf(tmp_path, capsys):
    test, zero = tmp_path / "t.img", tmp_path / "zero.img"
    assert main(["phantom", "--size", "16", "--out", str(test)]) == 0
    oqfio.write_image(zero, ImageGrid(16, 16, np.zeros((16, 16))))
    assert main(["metrics", "--test", str(test), "--ref", str(zero)]) == 0
    captured = capsys.readouterr()
    assert "psnr=-inf\n" in captured.out and captured.err == ""


@pytest.mark.parametrize("test_value, ref_value", [
    (1.7976931348623157e308, -1.7976931348623157e308),  # the difference overflows
    (1e300, 0.0),  # its square overflows
])
def test_cli_metrics_overflowing_error_is_validation_error(tmp_path, capsys, test_value,
                                                           ref_value):
    test, ref, out = tmp_path / "t.img", tmp_path / "r.img", tmp_path / "m.txt"
    oqfio.write_image(test, ImageGrid(4, 4, np.full((4, 4), test_value)))
    oqfio.write_image(ref, ImageGrid(4, 4, np.full((4, 4), ref_value)))
    assert main(["metrics", "--test", str(test), "--ref", str(ref), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: E_max and MSE must be finite") and "Traceback" not in err
    assert not out.exists()


def test_cli_metrics_psnr_whose_peak_squared_overflows_is_finite(tmp_path, capsys):
    # peak**2 = 1e600 passes the float range, 20 log10(peak) - 10 log10(MSE) does not.
    test, ref = tmp_path / "t.img", tmp_path / "r.img"
    oqfio.write_image(test, ImageGrid(1, 2, np.array([[1e300, 1.0]])))
    oqfio.write_image(ref, ImageGrid(1, 2, np.array([[1e300, 0.0]])))
    assert main(["metrics", "--test", str(test), "--ref", str(ref)]) == 0
    out = capsys.readouterr().out
    assert "mse=0.5\n" in out
    psnr = float(out.split("psnr=")[1])
    assert psnr == pytest.approx(6000.0 + 10.0 * math.log10(2.0), rel=1e-14)


def test_cli_radon_fbp_metrics_pipeline(tmp_path, capsys):
    sino = tmp_path / "s.sino"
    recon = tmp_path / "r.img"
    ref = tmp_path / "ref.img"
    assert main(["radon", "--angles-step-deg", "3", "--num-bins", "93",
                 "--out", str(sino)]) == 0
    assert main(["fbp", "--sinogram", str(sino), "--size", "64",
                 "--angles-step-deg", "3", "--num-bins", "93",
                 "--out", str(recon)]) == 0
    assert main(["phantom", "--size", "64", "--out", str(ref)]) == 0
    assert main(["metrics", "--test", str(recon), "--ref", str(ref),
                 "--mask", "both"]) == 0
    out = capsys.readouterr().out
    psnrs = [float(line.split("=")[1]) for line in out.splitlines() if line.startswith("psnr=")]
    assert len(psnrs) == 2
    assert psnrs[0] > 15.0
    # fbp without --sinogram scans the phantom as radon did
    direct, pgm = tmp_path / "d.img", tmp_path / "d.pgm"
    assert main(["fbp", "--size", "64", "--angles-step-deg", "3", "--num-bins", "93",
                 "--out", str(direct), "--pgm", str(pgm)]) == 0
    np.testing.assert_array_equal(oqfio.read_image(direct).pixels, oqfio.read_image(recon).pixels)
    assert pgm.read_bytes().startswith(b"P5\n64 64\n65535\n")


def test_cli_fbp_filters_at_the_sinograms_own_band(tmp_path):
    # --size 64 alone would imply 91 bins and 0.5 degree steps; the 729-bin,
    # 6-degree sinogram is filtered at its own Nyquist band with 4 * 729 + 1
    # frequencies all the same.
    sino, recon = tmp_path / "s.sino", tmp_path / "r.img"
    assert main(["radon", "--angles-step-deg", "6", "--num-bins", "729", "--out", str(sino)]) == 0
    assert main(["fbp", "--sinogram", str(sino), "--size", "64", "--out", str(recon)]) == 0
    expected = backproject(filter_projections(oqfio.read_sinogram(sino)), 64)
    np.testing.assert_array_equal(oqfio.read_image(recon).pixels, expected.pixels)


def test_cli_fbp_nan_dt_sinogram_is_validation_error(tmp_path, capsys):
    sino = tmp_path / "nan.sino"
    write_raw_sinogram(sino, dt=math.nan)
    assert main(["fbp", "--sinogram", str(sino), "--size", "32",
                 "--out", str(tmp_path / "r.img")]) == 3
    assert "offset 40: dt" in capsys.readouterr().err
    assert not (tmp_path / "r.img").exists()


def test_cli_fbp_sinogram_with_a_subnormal_angle_step_reconstructs(tmp_path, capsys):
    # Two angles 5e-324 apart: every partner angle's index quotient is infinite,
    # so each angle is an orbit of its own.
    sino, out = tmp_path / "s.sino", tmp_path / "r.img"
    write_raw_sinogram(sino, dtheta=5e-324)
    assert main(["fbp", "--sinogram", str(sino), "--size", "16", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert np.isfinite(oqfio.read_image(out).pixels).all()


@pytest.mark.parametrize("unused_step", [
    ["--angles-step-deg", "0"], ["--angles-step-deg", "nan"], ["--config", "step.json"],
])
def test_cli_fbp_sinogram_ignores_the_scan_step_it_replaces(tmp_path, unused_step):
    # The sinogram's own lattice replaces --angles-step-deg, so a step no
    # scan could use is neither read nor checked.
    sino, plain, flagged = tmp_path / "s.sino", tmp_path / "a.img", tmp_path / "b.img"
    (tmp_path / "step.json").write_text(json.dumps({"angles_step_deg": 0}))
    unused_step = [str(tmp_path / arg) if arg.endswith(".json") else arg for arg in unused_step]
    assert main(["radon", "--angles-step-deg", "6", "--num-bins", "93", "--out", str(sino)]) == 0
    base = ["fbp", "--sinogram", str(sino), "--size", "32", "--out"]
    assert main(base + [str(plain)]) == 0
    assert main(base + [str(flagged)] + unused_step) == 0
    np.testing.assert_array_equal(oqfio.read_image(flagged).pixels,
                                  oqfio.read_image(plain).pixels)


@pytest.mark.parametrize("argv", [
    ["fbp", "--num-bins", "1", "--size", "32"],
    ["fbp", "--size", "1"],
    ["fbp", "--angles-step-deg", "0", "--size", "32"],
    ["radon", "--angles-step-deg", "0"],
    ["radon", "--angles-step-deg", "-3"],
    ["radon", "--angles-step-deg", "nan"],
    ["radon", "--angles-step-deg", "1e-320"],
    ["radon", "--angles-step-deg", "400"],
    ["fbp", "--angles-step-deg", "1e-320", "--size", "32"],
    ["fbp", "--angles-step-deg", "400", "--size", "32"],
])
def test_cli_degenerate_scan_is_validation_error(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 3
    assert "error:" in capsys.readouterr().err


def test_cli_radon_default_bins_follow_fbp_default(tmp_path, capsys):
    assert main(["radon", "--out", str(tmp_path / "s.sino"), "--dump-config"]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["num_bins"] == default_num_bins(FbpConfig().size) == 729
    assert oqfio.read_sinogram(tmp_path / "s.sino").num_bins == 729


def test_cli_metrics_missing_file_is_io_error(tmp_path, capsys):
    assert main(["metrics", "--test", str(tmp_path / "no.img"),
                 "--ref", str(tmp_path / "no.img")]) == 4
    assert "i/o error" in capsys.readouterr().err


def test_cli_pgm_output(tmp_path):
    pgm = tmp_path / "p.pgm"
    assert main(["phantom", "--size", "32", "--pgm", str(pgm)]) == 0
    assert pgm.read_bytes().startswith(b"P5\n32 32\n65535\n")
    assert (tmp_path / "p.pgm.scale").exists()


def test_cli_config_precedence_and_dump(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 6, "omega": 2.0}))
    out = tmp_path / "c.csv"
    rc = main(["coeffs", "--config", str(cfg), "--n", "4",
               "--out", str(out), "--dump-config"])
    assert rc == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["n"] == 4          # flag beats config
    assert dumped["omega"] == 2.0    # config beats default
    assert len(out.read_text().strip().splitlines()) == 1 + 5


def test_cli_invalid_config_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["coeffs", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 3
    assert "JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, key", [
    (["coeffs"], {"n": [1, 2]}, "n"),
    (["phantom"], {"size": 16.9}, "size"),
    (["phantom"], {"size": True}, "size"),
    (["error-sweep"], {"alpha": 1.5}, "alpha"),
    (["error-sweep"], {"alpha": 3}, "alpha"),
    (["fbp"], {"band": {"max": 2.0}}, "band"),
    (["metrics", "--test", "t.img", "--ref", "r.img"], {"mask": "all"}, "mask"),
])
def test_cli_config_value_is_typed_and_checked_as_its_flag(command, config, key, tmp_path,
                                                           capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {cfg}: {key}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, config, key", [
    (["ft"], {"omega-count": 5, "omegacount": 7}, "omega-count"),
    (["radon"], {"num_bins": 33, "size": 64}, "size"),
    (["fbp"], {"num_omega": 99}, "num_omega"),
    (["fbp"], {"band": 1.0}, "band"),
])
def test_cli_config_key_naming_no_parameter_is_validation_error(command, config, key, tmp_path,
                                                                capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert main([*command, "--config", str(cfg), "--out", str(out), "--dump-config"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: config {cfg}: {key}: ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


def test_cli_config_number_for_a_path_is_its_string_form(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"out": 5}))
    assert main(["coeffs", "--config", "cfg.json", "--n", "2"]) == 0
    assert (tmp_path / "5").read_text().startswith("beta,re,im\n")
    # {"input": 0} names the file "0", not standard input
    (tmp_path / "cfg.json").write_text(json.dumps({"input": 0, "out": "f.csv"}))
    assert main(["ft", "--config", "cfg.json"]) == 4
    assert "'0'" in capsys.readouterr().err
    (tmp_path / "0").write_text(FT_INPUT)
    assert main(["ft", "--config", "cfg.json", "--omega-count", "3"]) == 0
    assert len((tmp_path / "f.csv").read_text().splitlines()) == 4


def test_cli_config_null_is_unset(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"size": None, "variant": None}))
    out = tmp_path / "p.img"
    assert main(["phantom", "--config", str(cfg), "--out", str(out)]) == 0
    assert oqfio.read_image(out).rows == FbpConfig().size


@pytest.mark.parametrize("command, flags", [
    ("coeffs", ["--n", "4", "--omega", "2.5"]),
    ("ft", ["--omega", "1.5", "--omega-count", "5"]),
    ("ift", ["--x-min", "-2"]),
    ("error-sweep", ["--alpha", "1", "--a", "-3"]),
    ("phantom", ["--size", "64", "--variant", "classic"]),
    ("radon", ["--num-bins", "101"]),
    ("fbp", ["--num-bins", "99", "--sinogram", "s.sino"]),
    ("metrics", ["--mask", "inner", "--test", "t.img"]),
    ("verify", ["--level", "full"]),
])
def test_cli_dump_config_reads_back_as_config(command, flags, tmp_path, capsys, monkeypatch):
    # Runs stop at the missing required flags, after the dump.
    monkeypatch.setattr("oqf.verify.run_checks", lambda level: [])
    main([command, *flags, "--dump-config"])
    dumped = capsys.readouterr().out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(dumped)
    main([command, "--config", str(cfg), "--dump-config"])
    assert capsys.readouterr().out == dumped


@pytest.mark.parametrize("argv", [
    ["phantom", "--size", "1000000", "--out", "p.img"],
    ["coeffs", "--n", "1000000000", "--out", "c.csv"],
    ["ft", "--input", "in.csv", "--out", "f.csv", "--omega-count", "100000000000"],
])
def test_cli_refused_allocation_is_validation_error(argv, tmp_path):
    # Under a 2 GiB address-space limit numpy refuses these allocations
    # however much memory the machine has.
    resource = pytest.importorskip("resource")
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    limit = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)
    (tmp_path / "in.csv").write_text(FT_INPUT)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-m", "oqf.cli", *argv], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, hard)),
    )
    assert done.returncode == 3, done.stderr
    assert done.stderr.startswith("error: out of memory: ") and done.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == [tmp_path / "in.csv"]


def test_cli_verify_fast(capsys):
    assert main(["verify", "--level", "fast"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize(
    "name, level, failing",
    [
        ("coefficient_matrix", "fast",
         ["coefficients_closed_vs_dense", "norm_bruteforce_vs_closed"]),
        ("coefficient_matrix", "full",
         ["coefficients_closed_vs_dense", "norm_bruteforce_vs_closed",
          "transform_fast_vs_dense"]),
        ("error_norm", "fast",
         ["norm_bruteforce_vs_closed", "norm_trapezoid_value",
          "norm_integer_omega_h_value"]),
    ],
)
def test_cli_verify_fails_on_nan_closed_forms(monkeypatch, capsys, name, level, failing):
    # coefficient_matrix is the one-grid case of _coefficient_matrices, which
    # the checks call for all their grids at once, so its NaNs are made there.
    target = "_coefficient_matrices" if name == "coefficient_matrix" else name
    closed_form = getattr(quadrature, target)

    def nan_like(result):
        if isinstance(result, tuple):
            return tuple(map(nan_like, result))
        return np.full_like(result, np.nan)

    monkeypatch.setattr(quadrature, target, lambda *args: nan_like(closed_form(*args)))
    assert main(["verify", "--level", level]) == 5
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last) == {"failed_checks": failing}


def test_cli_ft_non_finite_input_is_validation_error(tmp_path, capsys):
    src = tmp_path / "nan.csv"
    src.write_text("x,re,im\n0.0,1.0,0.0\n0.5,nan,0.0\n1.0,1.0,0.0\n")
    assert main(["ft", "--input", str(src), "--out", str(tmp_path / "o.csv")]) == 3
    err = capsys.readouterr().err
    assert "row 3" in err and "Traceback" not in err
    assert not (tmp_path / "o.csv").exists()


def test_cli_ft_frequency_beyond_limit_is_validation_error(tmp_path, capsys):
    src = tmp_path / "in.csv"
    src.write_text(FT_INPUT)
    out = tmp_path / "o.csv"
    assert main(["ft", "--input", str(src), "--out", str(out), "--omega", "1e160"]) == 3
    err = capsys.readouterr().err
    assert "|omega| <= " in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["ift", "--x-min", "1", "--x-max", "-1", "--x-count", "3"],
    ["ift", "--x-min", "1", "--x-max", "1"],
    ["ift", "--x-max", "nan"],
    ["ft", "--omega-min", "1", "--omega-max", "-1"],
    ["ft", "--omega-min", "nan"],
    ["ft", "--omega-min=-1e308", "--omega-max", "1e308"],
])
def test_cli_output_lattice_must_increase(argv, tmp_path, capsys, monkeypatch):
    def no_transform(*args):
        raise AssertionError("transform ran on a rejected lattice")

    monkeypatch.setattr(transform, "forward_transform", no_transform)
    monkeypatch.setattr(transform, "inverse_transform", no_transform)
    src = tmp_path / "in.csv"
    src.write_text(IFT_INPUT if argv[0] == "ift" else FT_INPUT)
    out = tmp_path / "o.csv"
    assert main(argv + ["--input", str(src), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    name = "x" if argv[0] == "ift" else "omega"
    assert f"--{name}-min" in err and f"--{name}-max" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["error-sweep", "--omega-max", "inf"],
    ["error-sweep", "--omega-min", "inf"],
    ["ft", "--omega-min", "1e-300", "--omega-max", "1.7976931348623157e308",
     "--omega-count", "16"],
    ["ift", "--x-min", "1e-300", "--x-max", "1.7976931348623157e308", "--x-count", "16"],
])
def test_cli_lattice_bounds_np_linspace_cannot_take_are_refused(argv, tmp_path, capsys):
    # Refused by the shared lattice rule before np.linspace runs, so the run
    # warns of nothing.
    out = tmp_path / "o.csv"
    if argv[0] != "error-sweep":
        (tmp_path / "in.csv").write_text(IFT_INPUT if argv[0] == "ift" else FT_INPUT)
        argv = argv + ["--input", str(tmp_path / "in.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite with" in err
    assert not out.exists()


def test_cli_ft_overflowing_output_is_refused_before_a_file_exists(tmp_path):
    # apply_weights bounds the samples before any transform runs, so the run
    # raises no RuntimeWarning, with or without the error filter.
    (tmp_path / "in.csv").write_text("x,re,im\n0,1e308,0\n0.5,1e308,0\n1,1e308,0\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for warnings in (None, "error::RuntimeWarning"):
        env.pop("PYTHONWARNINGS", None)
        if warnings is not None:
            env["PYTHONWARNINGS"] = warnings
        done = subprocess.run(
            [sys.executable, "-m", "oqf.cli", "ft", "--input", "in.csv", "--out", "o.csv"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 3, done.stderr
        assert done.stderr.startswith("error: samples must be finite with max(|Re f|, |Im f|) <= ")
        assert done.stderr.count("\n") == 1
        assert list(tmp_path.iterdir()) == [tmp_path / "in.csv"]


def test_cli_verify_full_includes_fast_vs_dense(capsys):
    assert main(["verify", "--level", "full"]) == 0
    assert "PASS transform_fast_vs_dense" in capsys.readouterr().out


# Every subcommand's resolved defaults (as --dump-config prints them), its
# flags as (flag, dest, type, choices) beyond --config/--dump-config, and the
# error it gives when run with no flags at all.
CLI_SPECS = {
    "coeffs": (
        {"a": 0.0, "b": 1.0, "n": 10, "omega": 0.0, "out": None},
        {("--a", "a", float, None), ("--b", "b", float, None),
         ("--n", "n", int, None), ("--omega", "omega", float, None),
         ("--out", "out", None, None)},
        "coeffs requires --out",
    ),
    "ft": (
        {"input": None, "omega": None, "omega_count": 201, "omega_max": 1.0,
         "omega_min": -1.0, "out": None},
        {("--input", "input", None, None), ("--omega", "omega", float, None),
         ("--omega-count", "omega_count", int, None),
         ("--omega-max", "omega_max", float, None),
         ("--omega-min", "omega_min", float, None), ("--out", "out", None, None)},
        "ft requires --input and --out",
    ),
    "ift": (
        {"input": None, "out": None, "x_count": 201, "x_max": 1.0, "x_min": -1.0},
        {("--input", "input", None, None), ("--out", "out", None, None),
         ("--x-count", "x_count", int, None), ("--x-max", "x_max", float, None),
         ("--x-min", "x_min", float, None)},
        "ift requires --input and --out",
    ),
    "error-sweep": (
        {"a": -1.0, "alpha": 2, "b": 1.0, "n": 20, "omega_count": 201,
         "omega_max": 1.0, "omega_min": -1.0, "out": None},
        {("--a", "a", float, None), ("--alpha", "alpha", int, (0, 1, 2)),
         ("--b", "b", float, None), ("--n", "n", int, None),
         ("--omega-count", "omega_count", int, None),
         ("--omega-max", "omega_max", float, None),
         ("--omega-min", "omega_min", float, None), ("--out", "out", None, None)},
        "error-sweep requires --out",
    ),
    "phantom": (
        {"out": None, "pgm": None, "size": 512, "variant": "modified"},
        {("--out", "out", None, None), ("--pgm", "pgm", None, None),
         ("--size", "size", int, None),
         ("--variant", "variant", None, ("modified", "classic"))},
        "phantom requires --out and/or --pgm",
    ),
    "radon": (
        {"angles_step_deg": 0.5, "num_bins": 729, "out": None, "variant": "modified"},
        {("--angles-step-deg", "angles_step_deg", float, None),
         ("--num-bins", "num_bins", int, None), ("--out", "out", None, None),
         ("--variant", "variant", None, ("modified", "classic"))},
        "radon requires --out",
    ),
    "fbp": (
        {"angles_step_deg": 0.5, "num_bins": None, "out": None, "pgm": None,
         "sinogram": None, "size": 512, "variant": "modified"},
        {("--angles-step-deg", "angles_step_deg", float, None),
         ("--num-bins", "num_bins", int, None), ("--out", "out", None, None),
         ("--pgm", "pgm", None, None), ("--sinogram", "sinogram", None, None),
         ("--size", "size", int, None),
         ("--variant", "variant", None, ("modified", "classic"))},
        "fbp requires --out and/or --pgm",
    ),
    "metrics": (
        {"mask": "whole", "out": None, "ref": None, "test": None},
        {("--mask", "mask", None, ("whole", "inner", "both")),
         ("--out", "out", None, None), ("--ref", "ref", None, None),
         ("--test", "test", None, None)},
        "metrics requires --test and --ref",
    ),
    "verify": ({"level": "fast"}, {("--level", "level", None, ("fast", "full"))}, None),
}


@pytest.mark.parametrize("command", sorted(CLI_SPECS))
def test_cli_subcommand_defaults_flags_and_required(command, capsys, monkeypatch):
    defaults, flags, required_error = CLI_SPECS[command]
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    actions = [a for a in subparsers.choices[command]._actions if a.option_strings]
    assert {(a.option_strings[0], a.dest, a.type, a.choices) for a in actions
            if a.dest not in ("help", "config", "dump_config")} == flags
    monkeypatch.setattr("oqf.verify.run_checks", lambda level: [])
    rc = main([command, "--dump-config"])
    captured = capsys.readouterr()
    assert captured.out == json.dumps(defaults, indent=2, sort_keys=True) + "\n"
    if required_error is None:
        assert rc == 0
    else:
        assert rc == 3 and captured.err == f"error: {required_error}\n"


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, outputs", [
    ("run_error_sweeps.py", 18),
    ("run_1d_reconstruction.py", 6),
])
def test_scripts_write_their_outputs(script, outputs, tmp_path):
    # A RuntimeWarning (overflow, invalid value) in either script fails it.
    src = str(SCRIPTS.parent / "src")
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--outdir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert len(list(tmp_path.glob("*.csv"))) == outputs
    assert done.stdout.count("\n") == outputs


@pytest.mark.parametrize("flag", ["--out", "--pgm"])
def test_cli_output_in_missing_directory_names_the_output(tmp_path, capsys, flag):
    # The temp file that an atomic write creates beside the output has a
    # random name; a failed write must name the output the user gave.
    out = tmp_path / "no" / "such" / "dir" / "phantom.out"
    assert main(["phantom", "--size", "16", flag, str(out)]) == 4
    err = capsys.readouterr().err
    assert str(out) in err and "No such file or directory" in err
    assert ".tmp" not in err
    assert not out.parent.exists()


def test_every_writer_leaves_the_umask_mode(tmp_path):
    # A temp file is created with mode 0o666 less the umask, as open()
    # creates a file, and the rename keeps that mode.
    img = ImageGrid(2, 3, np.arange(6.0).reshape(2, 3))
    previous = os.umask(0o022)
    try:
        oqfio.write_complex_csv(tmp_path / "f.csv", "x", np.arange(2.0), np.ones(2))
        oqfio.write_coefficients_csv(tmp_path / "w.csv", np.ones(2))
        oqfio.write_sweep_csv(tmp_path / "s.csv", [transform.QuadratureErrorRecord(0.0, 1j)])
        oqfio.write_sinogram(tmp_path / "s.sino", Sinogram(2, 3, 0.0, 0.1, -1.0, 1.0, img.pixels))
        oqfio.write_image(tmp_path / "i.img", img)
        oqfio.write_pgm16(tmp_path / "i.pgm", img)
        assert main(["metrics", "--test", str(tmp_path / "i.img"), "--ref",
                     str(tmp_path / "i.img"), "--out", str(tmp_path / "m.txt")]) == 0
    finally:
        os.umask(previous)
    modes = {p.name: oct(p.stat().st_mode & 0o777) for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(
        ["f.csv", "w.csv", "s.csv", "s.sino", "i.img", "i.pgm", "i.pgm.scale", "m.txt"], "0o644")


def test_cli_failed_output_replaces_no_earlier_output(tmp_path, capsys):
    # --out is written first, then --pgm fails: the run exits 4 and the
    # image keeps its old bytes, with no temp file left beside it.
    img = tmp_path / "x.img"
    img.write_bytes(b"old")
    missing = tmp_path / "missing" / "x.pgm"
    assert main(["phantom", "--size", "16", "--out", str(img), "--pgm", str(missing)]) == 4
    assert str(missing) in capsys.readouterr().err
    assert img.read_bytes() == b"old"
    assert list(tmp_path.iterdir()) == [img]


def test_cli_pgm_with_a_directory_sidecar_replaces_nothing(tmp_path, capsys):
    # The sidecar's path is a directory: no rename runs, so neither the PGM
    # nor --out is replaced, and the error names the sidecar.
    pgm, img = tmp_path / "y.pgm", tmp_path / "y.img"
    (tmp_path / "y.pgm.scale").mkdir()
    assert main(["phantom", "--size", "16", "--out", str(img), "--pgm", str(pgm)]) == 4
    err = capsys.readouterr().err
    assert f"Is a directory: '{tmp_path / 'y.pgm.scale'}'" in err and ".tmp" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["y.pgm.scale"]
    assert not any((tmp_path / "y.pgm.scale").iterdir())
