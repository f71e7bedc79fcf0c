"""Crafted input files and the numeric flags of the CT and coefficient commands.

Image and sinogram containers with extreme header fields and data go through
``metrics`` and ``fbp --sinogram``, and sample CSVs with extreme abscissae and
values through ``ft`` and ``ift``; extreme values of the numeric flags go
through ``coeffs``, ``phantom``, ``radon`` and ``fbp``.  Sizes stay at most 64,
CSVs at most 8 rows, lattices at most 300 entries and angle steps at least 1
degree, so that no draw allocates much.  Every run
exits 0, 3 or 4 with no warning and no exception; an exit-0 output holds only
finite numbers (a PSNR may be +-inf, as documented, but not NaN), and a failed
run leaves no output file.
"""

import math
import struct
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oqf import io as oqfio
from oqf.cli import main

EXTREMES = [0.0, -0.0, 5e-324, 1e300, -1e300, 1e-300, -1e-300,
            1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan]
FLOATS = st.sampled_from(EXTREMES) | st.floats(-1e3, 1e3)
FINITE = st.sampled_from([x for x in EXTREMES if math.isfinite(x)]) | st.floats(-1e3, 1e3)
# Angle steps of at least 1 degree, or ones no scan can take.
STEPS = st.floats(1.0, 400.0) | st.sampled_from([0.0, -1.0, 1e300, math.inf, -math.inf, math.nan])


@st.composite
def containers(draw, magic, fields, files):
    """``files`` containers of one header, small counts and the floats
    ``fields``, each with its own finite data.  Up to two header fields are
    set to extremes (a count to 0, 1 or 2**32 - 1, past the data), up to three
    values in one file or in all alike, and a file may lose its last value."""
    header = [draw(st.integers(1, 6)), draw(st.integers(2, 6)), *fields]
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, 5))
        header[k] = draw(st.sampled_from([0, 1, 2**32 - 1] if k < 2 else EXTREMES))
    size = header[0] * header[1] if header[0] * header[1] <= 36 else 4
    data = [draw(st.lists(st.floats(-2.0, 2.0), min_size=size, max_size=size))
            for _ in range(files)]
    for _ in range(draw(st.integers(0, 3)) if size else 0):
        k, value = draw(st.integers(0, size - 1)), draw(st.sampled_from(EXTREMES))
        for values in data if draw(st.booleans()) else [draw(st.sampled_from(data))]:
            values[k] = value
    head = magic + struct.pack("<II4d", *header)
    return [head + struct.pack(f"<{size}d", *values)[: -8 if draw(st.integers(0, 7)) == 0 else None]
            for values in data]


def _run(argv, outputs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([str(arg) for arg in argv])
    assert code in (0, 3, 4)
    if code != 0:
        assert not any(path.exists() for path in outputs)
    return code


@settings(derandomize=True, deadline=None, max_examples=150)
@given(images=containers(oqfio.IMG_MAGIC, (-1.0, -1.0, 1.0, 1.0), 2),
       mask=st.sampled_from(["whole", "inner", "both"]))
def test_crafted_images_through_metrics_exit_cleanly(tmp_path_factory, images, mask):
    workdir = tmp_path_factory.mktemp("run")
    test, ref, out = workdir / "t.img", workdir / "r.img", workdir / "m.txt"
    test.write_bytes(images[0])
    ref.write_bytes(images[1])
    if _run(["metrics", "--test", test, "--ref", ref, "--mask", mask, "--out", out], [out]):
        return
    lines = [line.split("=") for line in out.read_text().splitlines()]
    for (_, e_max), (_, mse), (_, psnr) in zip(lines[1::4], lines[2::4], lines[3::4]):
        assert math.isfinite(float(e_max)) and math.isfinite(float(mse))
        # inf only for images that agree on the region, -inf for a zero peak**2 / MSE
        assert not math.isnan(float(psnr)) and (float(psnr) == math.inf) == (float(mse) == 0.0)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(sinogram=containers(oqfio.SINO_MAGIC, (0.0, 0.5, -1.0, 0.25), 1),
       size=st.integers(16, 64))
def test_crafted_sinograms_through_fbp_exit_cleanly(tmp_path_factory, sinogram, size):
    workdir = tmp_path_factory.mktemp("run")
    sino, out = workdir / "s.sino", workdir / "r.img"
    sino.write_bytes(sinogram[0])
    if _run(["fbp", "--sinogram", sino, "--size", size, "--out", out], [out]) == 0:
        assert np.isfinite(oqfio.read_image(out).pixels).all()


@settings(derandomize=True, deadline=None, max_examples=100)
@given(command=st.sampled_from(["coeffs", "phantom", "radon", "fbp"]),
       a=FLOATS, b=FLOATS, omega=FLOATS, n=st.integers(-2, 2000), size=st.integers(-2, 64),
       step=STEPS, num_bins=st.none() | st.integers(-2, 300))
def test_numeric_flags_exit_cleanly(tmp_path_factory, command, a, b, omega, n, size, step,
                                    num_bins):
    workdir = tmp_path_factory.mktemp("run")
    out = workdir / ("o.csv" if command == "coeffs" else "o.sino" if command == "radon"
                     else "o.img")
    argv = [command, "--out", out]
    if command == "coeffs":
        argv += [f"--a={a!r}", f"--b={b!r}", f"--omega={omega!r}", f"--n={n}"]
    if command in ("phantom", "fbp"):
        argv += [f"--size={size}"]
    if command in ("radon", "fbp"):
        argv += [f"--angles-step-deg={step!r}"]
        if num_bins is not None:
            argv += [f"--num-bins={num_bins}"]
    if _run(argv, [out]) != 0:
        return
    if command == "coeffs":
        assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)).all()
    elif command == "radon":
        assert np.isfinite(oqfio.read_sinogram(out).data).all()
    else:
        assert np.isfinite(oqfio.read_image(out).pixels).all()


@st.composite
def sample_csvs(draw):
    """A <x>,re,im CSV of 2-8 rows, whose abscissae step from one drawn finite
    bound to another (the step taken as hi/(rows-1) - lo/(rows-1), which is
    finite where hi - lo overflows) and whose values are ordinary floats; up
    to one abscissa and two values are then set to extremes."""
    rows = draw(st.integers(2, 8))
    lo, hi = sorted(draw(st.lists(FINITE, min_size=2, max_size=2, unique=True)))
    step = hi / (rows - 1) - lo / (rows - 1)
    xs = [lo + k * step for k in range(rows)]
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=2 * rows, max_size=2 * rows))
    for _ in range(draw(st.integers(0, 1))):
        xs[draw(st.integers(0, rows - 1))] = draw(st.sampled_from(EXTREMES))
    for _ in range(draw(st.integers(0, 2))):
        values[draw(st.integers(0, 2 * rows - 1))] = draw(st.sampled_from(EXTREMES))
    lines = [f"{x!r},{re!r},{im!r}" for x, re, im in zip(xs, values[0::2], values[1::2])]
    return "x,re,im\n" + "\n".join(lines) + "\n"


@settings(derandomize=True, deadline=None, max_examples=200)
@given(command=st.sampled_from(["ft", "ift"]), text=sample_csvs(),
       bounds=st.lists(FLOATS, min_size=2, max_size=2, unique=True),
       count=st.integers(2, 300) | st.sampled_from([-1, 0, 1]), omega=st.none() | FLOATS)
def test_crafted_sample_csvs_through_ft_and_ift_exit_cleanly(tmp_path_factory, command, text,
                                                             bounds, count, omega):
    # The output lattice's bounds are drawn in increasing order (NaN last);
    # test_cli_lattice_property.py fuzzes the lattice flags themselves.
    workdir = tmp_path_factory.mktemp("run")
    samples, out = workdir / "in.csv", workdir / "out.csv"
    samples.write_text(text)
    argv = [command, "--input", samples, "--out", out]
    name = "x" if command == "ift" else "omega"
    if command == "ft" and omega is not None:
        argv += [f"--omega={omega!r}"]
    else:
        lo, hi = sorted(bounds, key=lambda v: (math.isnan(v), v))
        argv += [f"--{name}-min={lo!r}", f"--{name}-max={hi!r}", f"--{name}-count={count}"]
    if _run(argv, [out]) == 0:
        assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)).all()
