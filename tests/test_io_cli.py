import argparse
import json
import math
import struct

import numpy as np
import pytest

from oqf import io as oqfio
from oqf.cli import build_parser, main
from oqf.ct import FbpConfig, default_num_bins, shepp_logan
from oqf.ct.phantom import ImageGrid, Sinogram
from oqf.grid import SampledFunction, UniformGrid
from oqf.quadrature import optimal_coefficients
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


@pytest.mark.parametrize("fields", [
    dict(rows=0, cols=0), dict(min_x=math.nan), dict(max_y=-2.0),
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
    expected = optimal_coefficients(UniformGrid(0.0, 1.0, 8), 1.3).values
    np.testing.assert_array_equal(vals, expected)


def test_cli_coeffs_missing_out_is_validation_error(capsys):
    assert main(["coeffs", "--n", "4"]) == 3
    assert "error:" in capsys.readouterr().err


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


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


def test_cli_error_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["error-sweep", "--alpha", "0", "--n", "20",
               "--omega-min", "-1", "--omega-max", "1", "--omega-count", "5",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "omega,abs_re_err,abs_im_err"
    assert len(lines) == 6


def test_cli_phantom_and_metrics_flow(tmp_path, capsys):
    ref = tmp_path / "ref.img"
    assert main(["phantom", "--size", "64", "--out", str(ref)]) == 0
    np.testing.assert_array_equal(oqfio.read_image(ref).pixels, shepp_logan(64).pixels)
    assert main(["metrics", "--test", str(ref), "--ref", str(ref)]) == 0
    out = capsys.readouterr().out
    assert "psnr=inf" in out and "e_max=0.0" in out


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


def test_cli_fbp_nan_dt_sinogram_is_validation_error(tmp_path, capsys):
    sino = tmp_path / "nan.sino"
    write_raw_sinogram(sino, dt=math.nan)
    assert main(["fbp", "--sinogram", str(sino), "--size", "32",
                 "--out", str(tmp_path / "r.img")]) == 3
    assert "offset 40: dt" in capsys.readouterr().err
    assert not (tmp_path / "r.img").exists()


@pytest.mark.parametrize("argv", [
    ["fbp", "--num-bins", "1", "--size", "32"],
    ["fbp", "--size", "1"],
    ["fbp", "--angles-step-deg", "0", "--size", "32"],
    ["radon", "--angles-step-deg", "0"],
    ["radon", "--angles-step-deg", "-3"],
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


def test_cli_verify_fast(capsys):
    assert main(["verify", "--level", "fast"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_ft_non_finite_input_is_validation_error(tmp_path, capsys):
    src = tmp_path / "nan.csv"
    src.write_text("x,re,im\n0.0,1.0,0.0\n0.5,nan,0.0\n1.0,1.0,0.0\n")
    assert main(["ft", "--input", str(src), "--out", str(tmp_path / "o.csv")]) == 3
    err = capsys.readouterr().err
    assert "row 3" in err and "Traceback" not in err
    assert not (tmp_path / "o.csv").exists()


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
        {"angles_step_deg": 0.5, "band": None, "num_bins": None, "num_omega": None,
         "out": None, "pgm": None, "sinogram": None, "size": 512,
         "variant": "modified"},
        {("--angles-step-deg", "angles_step_deg", float, None),
         ("--band", "band", float, None), ("--num-bins", "num_bins", int, None),
         ("--num-omega", "num_omega", int, None), ("--out", "out", None, None),
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
