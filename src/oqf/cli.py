"""Command-line interface.

Subcommands: coeffs, ft, ift, error-sweep, phantom, radon, fbp, metrics,
verify.  Exit codes: 0 success, 2 usage, 3 input validation, 4 I/O,
5 verification failure.  Parameter precedence: flags > config file >
defaults; config values are typed and checked as flags are, and null means
unset.  --dump-config prints the fully resolved parameters.  Every
subcommand's flags, defaults and required arguments come from the one
COMMANDS table.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import io as oqfio
from . import transform, verify
from .ct import (
    FbpConfig,
    default_num_bins,
    fbp_reconstruct,
    image_metrics,
    shepp_logan,
    shepp_logan_phantom,
)
from .ct.phantom import PHANTOM_VARIANTS
from .grid import SampledFunction, UniformGrid, lattice
from .quadrature import coefficient_matrix

EXIT_OK = 0
EXIT_VALIDATION = 3
EXIT_IO = 4
EXIT_VERIFY = 5


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    return cfg


def _config_value(path: str, key: str, value, type_, extra: dict):
    """The config file's value for --key, typed and checked as argparse types
    and checks the flag: from its string form; null means unset."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"config {path}: {key} must be a string or number")
    try:
        value = (type_ or str)(str(value))
    except ValueError:
        raise ValueError(f"config {path}: {key}: invalid {type_.__name__} value "
                         f"{str(value)!r}") from None
    choices = extra.get("choices")
    if choices is not None and value not in choices:
        raise ValueError(f"config {path}: {key}: {value!r} is not one of {list(choices)}")
    return value


def _resolve(args: argparse.Namespace, parameters: list) -> dict:
    """flags > config file > defaults; a config key that names no parameter is an error."""
    config = _load_config(args.config)
    resolved = {}
    for key, type_, default, extra in parameters:
        value = _config_value(args.config, key, config.pop(key, None), type_, extra)
        flag = getattr(args, key)
        if flag is not None:
            value = flag
        resolved[key] = default if value is None else value
    if config:
        raise ValueError(f"config {args.config}: {next(iter(config))}: unknown key")
    return resolved


def _lattice(params: dict, name: str) -> np.ndarray:
    """The increasing lattice that --NAME-min, --NAME-max and --NAME-count describe."""
    keys = [f"{name}_{key}" for key in ("min", "max", "count")]
    lo, hi, count = (params[key] for key in keys)
    if not lo < hi:
        raise ValueError(f"--{name}-max must exceed --{name}-min, got {lo!r} and {hi!r}")
    return lattice(lo, hi, count, tuple(map(_flag, keys)))


def _read_samples(path: str) -> SampledFunction:
    """A <abscissa>,re,im CSV as samples on the lattice its rows span."""
    xs, values = oqfio.read_complex_csv(path)
    return SampledFunction(UniformGrid(float(xs[0]), float(xs[-1]), len(xs) - 1), values)


def cmd_coeffs(params: dict) -> int:
    grid = UniformGrid(params["a"], params["b"], params["n"])
    oqfio.write_coefficients_csv(params["out"], coefficient_matrix(grid, params["omega"]))
    return EXIT_OK


def cmd_ft(params: dict) -> int:
    samples = _read_samples(params["input"])
    if params["omega"] is not None:
        omegas = np.asarray([params["omega"]])
    else:
        omegas = _lattice(params, "omega")
    spectrum = transform.forward_transform(samples, omegas)
    oqfio.write_complex_csv(params["out"], "omega", spectrum.omegas, spectrum.values)
    return EXIT_OK


def cmd_ift(params: dict) -> int:
    samples = _read_samples(params["input"])
    xs = _lattice(params, "x")
    oqfio.write_complex_csv(params["out"], "x", xs, transform.inverse_transform(samples, xs))
    return EXIT_OK


def cmd_error_sweep(params: dict) -> int:
    records = transform.error_sweep(
        params["alpha"],
        (params["a"], params["b"]),
        params["n"],
        params["omega_min"],
        params["omega_max"],
        params["omega_count"],
    )
    oqfio.write_sweep_csv(params["out"], records)
    return EXIT_OK


def _write_image_outputs(params: dict, image) -> None:
    if params["out"] is not None:
        oqfio.write_image(params["out"], image)
    if params["pgm"] is not None:
        oqfio.write_pgm16(params["pgm"], image)


def cmd_phantom(params: dict) -> int:
    _write_image_outputs(params, shepp_logan(params["size"], params["variant"]))
    return EXIT_OK


def cmd_radon(params: dict) -> int:
    config = FbpConfig(dtheta_deg=params["angles_step_deg"], num_bins=params["num_bins"])
    sino = config.scan(shepp_logan_phantom(params["variant"]))
    oqfio.write_sinogram(params["out"], sino)
    return EXIT_OK


def cmd_fbp(params: dict) -> int:
    config = FbpConfig(size=params["size"], dtheta_deg=params["angles_step_deg"],
                       num_bins=params["num_bins"])
    if params["sinogram"] is not None:
        source = oqfio.read_sinogram(params["sinogram"])
    else:
        source = shepp_logan_phantom(params["variant"])
    _write_image_outputs(params, fbp_reconstruct(source, config))
    return EXIT_OK


def cmd_metrics(params: dict) -> int:
    test = oqfio.read_image(params["test"])
    ref = oqfio.read_image(params["ref"])
    regions = ["whole", "inner"] if params["mask"] == "both" else [params["mask"]]
    lines = []
    for region in regions:
        report = image_metrics(test, ref, region)
        lines += [
            f"region={region}",
            f"e_max={report.e_max!r}",
            f"mse={report.mse!r}",
            f"psnr={report.psnr!r}",
        ]
    text = "\n".join(lines) + "\n"
    if params["out"] is not None:
        oqfio.atomic_write_text(params["out"], text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(params: dict) -> int:
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


# A parameter is (key, type, default, extra add_argument keywords); its flag
# is --key with dashes for underscores, and type None keeps the string.
_FBP = FbpConfig()
_OUT = ("out", None, None, {})
_IMAGE_OUT = [("out", None, None, {"help": "binary image output"}),
              ("pgm", None, None, {"help": "16-bit PGM output"})]
_VARIANT = ("variant", None, "modified", {"choices": tuple(PHANTOM_VARIANTS)})
_OMEGA_LATTICE = [("omega_min", float, -1.0, {}), ("omega_max", float, 1.0, {}),
                  ("omega_count", int, 201, {})]

# Subcommand -> (handler, help, required, parameters).  Each required group
# names keys of which at least one must be set.
COMMANDS = {
    "coeffs": (
        cmd_coeffs, "dump optimal quadrature weights to CSV", [("out",)],
        [("a", float, 0.0, {}), ("b", float, 1.0, {}), ("n", int, 10, {}),
         ("omega", float, 0.0, {}), _OUT],
    ),
    "ft": (
        cmd_ft, "forward Fourier transform of sampled data", [("input",), ("out",)],
        [("input", None, None, {"help": "CSV with header x,re,im on a uniform lattice"}),
         _OUT, ("omega", float, None, {}), *_OMEGA_LATTICE],
    ),
    "ift": (
        cmd_ift, "inverse Fourier transform of sampled spectrum", [("input",), ("out",)],
        [("input", None, None, {"help": "CSV with header omega,re,im on a uniform lattice"}),
         _OUT, ("x_min", float, -1.0, {}), ("x_max", float, 1.0, {}),
         ("x_count", int, 201, {})],
    ),
    "error-sweep": (
        cmd_error_sweep, "quadrature errors for truncated monomials", [("out",)],
        [("alpha", int, 2, {"choices": (0, 1, 2)}), ("a", float, -1.0, {}),
         ("b", float, 1.0, {}), ("n", int, 20, {}), *_OMEGA_LATTICE, _OUT],
    ),
    "phantom": (
        cmd_phantom, "rasterize the head phantom", [("out", "pgm")],
        [("size", int, _FBP.size, {}), _VARIANT, *_IMAGE_OUT],
    ),
    "radon": (
        cmd_radon, "exact sinogram of the head phantom", [("out",)],
        [_VARIANT, ("angles_step_deg", float, _FBP.dtheta_deg, {}),
         ("num_bins", int, default_num_bins(_FBP.size), {}), _OUT],
    ),
    "fbp": (
        cmd_fbp, "filtered back-projection reconstruction", [("out", "pgm")],
        [("size", int, _FBP.size, {}), ("angles_step_deg", float, _FBP.dtheta_deg, {}),
         ("num_bins", int, _FBP.num_bins, {}), _VARIANT,
         ("sinogram", None, None, {"help": "reconstruct this sinogram instead of the phantom"}),
         *_IMAGE_OUT],
    ),
    "metrics": (
        cmd_metrics, "image-quality metrics of test vs reference", [("test",), ("ref",)],
        [("test", None, None, {}), ("ref", None, None, {}),
         ("mask", None, "whole", {"choices": ("whole", "inner", "both")}), _OUT],
    ),
    "verify": (
        cmd_verify, "cross-check closed forms against the dense oracle", [],
        [("level", None, "fast", {"choices": ("fast", "full")})],
    ),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _dispatch(args: argparse.Namespace) -> int:
    """Resolve the subcommand's parameters, dump them if asked, check, run;
    its outputs replace their paths only if the run succeeds."""
    handler, _, required, parameters = COMMANDS[args.command]
    params = _resolve(args, parameters)
    if args.dump_config:
        print(json.dumps(params, indent=2, sort_keys=True))
    if any(all(params[key] is None for key in group) for group in required):
        needed = " and ".join(" and/or ".join(map(_flag, group)) for group in required)
        raise ValueError(f"{args.command} requires {needed}")
    with oqfio.atomic_outputs():  # a failed run replaces none of its outputs
        return handler(params)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oqf",
        description="Optimal quadrature for Fourier integrals; CT reconstruction pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _, parameters) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--dump-config", action="store_true",
                       help="print the resolved parameters")
        for key, type_, _, extra in parameters:
            p.add_argument(_flag(key), dest=key, type=type_, **extra)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ValueError as exc:  # oqfio.FormatError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
