"""Command-line interface.

Subcommands: coeffs, ft, ift, error-sweep, phantom, radon, fbp, metrics,
verify.  Exit codes: 0 success, 2 usage, 3 input validation, 4 I/O,
5 verification failure.  Parameter precedence: flags > config file >
defaults; --dump-config prints the fully resolved parameters.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io as oqfio
from . import transform, verify
from .ct import (
    FbpConfig,
    default_num_bins,
    fbp_reconstruct,
    filter_projections,
    image_metrics,
    radon_analytic,
    shepp_logan,
    shepp_logan_phantom,
)
from .grid import SampledFunction, UniformGrid
from .quadrature import optimal_coefficients

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4
EXIT_VERIFY = 5


class ValidationError(Exception):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValidationError(f"config {path} must hold a JSON object")
    return cfg


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """flags > config file > defaults."""
    config = _load_config(getattr(args, "config", None))
    resolved = dict(defaults)
    resolved.update({k: v for k, v in config.items() if k in defaults})
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    return resolved


def _maybe_dump(args: argparse.Namespace, resolved: dict) -> None:
    if getattr(args, "dump_config", False):
        print(json.dumps(resolved, indent=2, sort_keys=True))


def _omega_lattice(params: dict) -> np.ndarray:
    if params.get("omega") is not None:
        return np.asarray([float(params["omega"])])
    count = int(params["omega_count"])
    if count < 2:
        raise ValidationError("omega lattice needs at least 2 points")
    return np.linspace(float(params["omega_min"]), float(params["omega_max"]), count)


def cmd_coeffs(args) -> int:
    params = _resolve(args, {"a": 0.0, "b": 1.0, "n": 10, "omega": 0.0, "out": None})
    _maybe_dump(args, params)
    if params["out"] is None:
        raise ValidationError("coeffs requires --out")
    grid = UniformGrid(float(params["a"]), float(params["b"]), int(params["n"]))
    coeffs = optimal_coefficients(grid, float(params["omega"]))
    oqfio.write_coefficients_csv(params["out"], coeffs.values)
    return EXIT_OK


def cmd_ft(args) -> int:
    params = _resolve(
        args,
        {"input": None, "out": None, "omega": None,
         "omega_min": -1.0, "omega_max": 1.0, "omega_count": 201},
    )
    _maybe_dump(args, params)
    if params["input"] is None or params["out"] is None:
        raise ValidationError("ft requires --input and --out")
    xs, values = oqfio.read_complex_csv(params["input"])
    grid = UniformGrid(float(xs[0]), float(xs[-1]), len(xs) - 1)
    omegas = _omega_lattice(params)
    spectrum = transform.forward_transform(SampledFunction(grid, values), omegas)
    oqfio.write_complex_csv(params["out"], "omega", spectrum.omegas, spectrum.values)
    return EXIT_OK


def cmd_ift(args) -> int:
    params = _resolve(
        args,
        {"input": None, "out": None, "x_min": -1.0, "x_max": 1.0, "x_count": 201},
    )
    _maybe_dump(args, params)
    if params["input"] is None or params["out"] is None:
        raise ValidationError("ift requires --input and --out")
    omegas, values = oqfio.read_complex_csv(params["input"])
    grid = UniformGrid(float(omegas[0]), float(omegas[-1]), len(omegas) - 1)
    count = int(params["x_count"])
    if count < 2:
        raise ValidationError("x lattice needs at least 2 points")
    xs = np.linspace(float(params["x_min"]), float(params["x_max"]), count)
    values_out = transform.inverse_transform(SampledFunction(grid, values), xs)
    oqfio.write_complex_csv(params["out"], "x", xs, values_out)
    return EXIT_OK


def cmd_error_sweep(args) -> int:
    params = _resolve(
        args,
        {"alpha": 2, "a": -1.0, "b": 1.0, "n": 20, "out": None,
         "omega_min": -1.0, "omega_max": 1.0, "omega_count": 201},
    )
    _maybe_dump(args, params)
    if params["out"] is None:
        raise ValidationError("error-sweep requires --out")
    records = transform.error_sweep(
        int(params["alpha"]),
        (float(params["a"]), float(params["b"])),
        int(params["n"]),
        float(params["omega_min"]),
        float(params["omega_max"]),
        int(params["omega_count"]),
    )
    lines = ["omega,abs_re_err,abs_im_err"]
    for rec in records:
        lines.append(
            f"{float(rec.omega)!r},{float(rec.abs_real_error)!r},{float(rec.abs_imag_error)!r}"
        )
    oqfio.atomic_write_text(params["out"], "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_phantom(args) -> int:
    params = _resolve(args, {"size": 512, "variant": "modified", "out": None, "pgm": None})
    _maybe_dump(args, params)
    if params["out"] is None and params["pgm"] is None:
        raise ValidationError("phantom requires --out and/or --pgm")
    image = shepp_logan(int(params["size"]), params["variant"])
    if params["out"] is not None:
        oqfio.write_image(params["out"], image)
    if params["pgm"] is not None:
        oqfio.write_pgm16(params["pgm"], image)
    return EXIT_OK


def cmd_radon(args) -> int:
    params = _resolve(
        args,
        {"variant": "modified", "angles_step_deg": 0.5,
         "num_bins": default_num_bins(FbpConfig().size), "out": None},
    )
    _maybe_dump(args, params)
    if params["out"] is None:
        raise ValidationError("radon requires --out")
    step = float(params["angles_step_deg"])
    sino = radon_analytic(
        shepp_logan_phantom(params["variant"]),
        num_angles=FbpConfig(dtheta_deg=step).num_angles,
        dtheta_deg=step,
        num_bins=int(params["num_bins"]),
    )
    oqfio.write_sinogram(params["out"], sino)
    return EXIT_OK


def cmd_fbp(args) -> int:
    params = _resolve(
        args,
        {"size": 512, "angles_step_deg": 0.5, "num_bins": None, "band": None,
         "num_omega": None, "variant": "modified", "sinogram": None,
         "out": None, "pgm": None},
    )
    _maybe_dump(args, params)
    if params["out"] is None and params["pgm"] is None:
        raise ValidationError("fbp requires --out and/or --pgm")
    config = FbpConfig(
        size=int(params["size"]),
        dtheta_deg=float(params["angles_step_deg"]),
        num_bins=None if params["num_bins"] is None else int(params["num_bins"]),
        omega_band=None if params["band"] is None else float(params["band"]),
        num_omega=None if params["num_omega"] is None else int(params["num_omega"]),
        phantom_variant=params["variant"],
    )
    if params["sinogram"] is not None:
        source = oqfio.read_sinogram(params["sinogram"])
    else:
        source = shepp_logan_phantom(params["variant"])
    image = fbp_reconstruct(source, config)
    if params["out"] is not None:
        oqfio.write_image(params["out"], image)
    if params["pgm"] is not None:
        oqfio.write_pgm16(params["pgm"], image)
    return EXIT_OK


def cmd_metrics(args) -> int:
    params = _resolve(
        args, {"test": None, "ref": None, "mask": "whole", "out": None}
    )
    _maybe_dump(args, params)
    if params["test"] is None or params["ref"] is None:
        raise ValidationError("metrics requires --test and --ref")
    test = oqfio.read_image(params["test"])
    ref = oqfio.read_image(params["ref"])
    regions = ["whole", "inner"] if params["mask"] == "both" else [params["mask"]]
    lines = []
    for region in regions:
        report = image_metrics(test, ref, region)
        psnr = "inf" if report.psnr == float("inf") else repr(report.psnr)
        lines += [
            f"region={region}",
            f"e_max={report.e_max!r}",
            f"mse={report.mse!r}",
            f"psnr={psnr}",
        ]
    text = "\n".join(lines) + "\n"
    if params["out"] is not None:
        oqfio.atomic_write_text(params["out"], text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    params = _resolve(args, {"level": "fast"})
    _maybe_dump(args, params)
    results = verify.run_checks(params["level"])
    failures = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(
            f"{status} {res.name}: max deviation {res.max_deviation:.3e} "
            f"(threshold {res.threshold:.1e})"
        )
        if not res.passed:
            failures.append(res.name)
    if failures:
        print(json.dumps({"failed_checks": failures}))
        return EXIT_VERIFY
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oqf",
        description="Optimal quadrature for Fourier integrals; CT reconstruction pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--dump-config", action="store_true",
                       help="print the resolved parameters")

    p = sub.add_parser("coeffs", help="dump optimal quadrature weights to CSV")
    common(p)
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--omega", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("ft", help="forward Fourier transform of sampled data")
    common(p)
    p.add_argument("--input", help="CSV with header x,re,im on a uniform lattice")
    p.add_argument("--out")
    p.add_argument("--omega", type=float)
    p.add_argument("--omega-min", type=float, dest="omega_min")
    p.add_argument("--omega-max", type=float, dest="omega_max")
    p.add_argument("--omega-count", type=int, dest="omega_count")
    p.set_defaults(func=cmd_ft)

    p = sub.add_parser("ift", help="inverse Fourier transform of sampled spectrum")
    common(p)
    p.add_argument("--input", help="CSV with header omega,re,im on a uniform lattice")
    p.add_argument("--out")
    p.add_argument("--x-min", type=float, dest="x_min")
    p.add_argument("--x-max", type=float, dest="x_max")
    p.add_argument("--x-count", type=int, dest="x_count")
    p.set_defaults(func=cmd_ift)

    p = sub.add_parser("error-sweep", help="quadrature errors for truncated monomials")
    common(p)
    p.add_argument("--alpha", type=int, choices=(0, 1, 2))
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--omega-min", type=float, dest="omega_min")
    p.add_argument("--omega-max", type=float, dest="omega_max")
    p.add_argument("--omega-count", type=int, dest="omega_count")
    p.add_argument("--out")
    p.set_defaults(func=cmd_error_sweep)

    p = sub.add_parser("phantom", help="rasterize the head phantom")
    common(p)
    p.add_argument("--size", type=int)
    p.add_argument("--variant", choices=("modified", "classic"))
    p.add_argument("--out", help="binary image output")
    p.add_argument("--pgm", help="16-bit PGM output")
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("radon", help="exact sinogram of the head phantom")
    common(p)
    p.add_argument("--variant", choices=("modified", "classic"))
    p.add_argument("--angles-step-deg", type=float, dest="angles_step_deg")
    p.add_argument("--num-bins", type=int, dest="num_bins")
    p.add_argument("--out")
    p.set_defaults(func=cmd_radon)

    p = sub.add_parser("fbp", help="filtered back-projection reconstruction")
    common(p)
    p.add_argument("--size", type=int)
    p.add_argument("--angles-step-deg", type=float, dest="angles_step_deg")
    p.add_argument("--num-bins", type=int, dest="num_bins")
    p.add_argument("--band", type=float)
    p.add_argument("--num-omega", type=int, dest="num_omega")
    p.add_argument("--variant", choices=("modified", "classic"))
    p.add_argument("--sinogram", help="reconstruct this sinogram instead of the phantom")
    p.add_argument("--out", help="binary image output")
    p.add_argument("--pgm", help="16-bit PGM output")
    p.set_defaults(func=cmd_fbp)

    p = sub.add_parser("metrics", help="image-quality metrics of test vs reference")
    common(p)
    p.add_argument("--test")
    p.add_argument("--ref")
    p.add_argument("--mask", choices=("whole", "inner", "both"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("verify", help="cross-check closed forms against the dense oracle")
    common(p)
    p.add_argument("--level", choices=("fast", "full"))
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ValueError, oqfio.FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
