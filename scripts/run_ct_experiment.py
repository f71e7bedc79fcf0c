#!/usr/bin/env python3
"""End-to-end CT experiment: analytic sinogram of the head phantom,
ramp filtering through the optimal quadrature transforms, back-projection,
and quality metrics against the rasterized phantom."""

import argparse
import time
from pathlib import Path

from oqf.ct import FbpConfig, fbp_reconstruct, image_metrics, shepp_logan, shepp_logan_phantom
from oqf.io import write_image, write_pgm16


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=512)
    parser.add_argument("--angles-step-deg", type=float, default=0.5)
    parser.add_argument("--variant", choices=("modified", "classic"), default="modified")
    parser.add_argument("--outdir", default="ct_out")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    config = FbpConfig(size=args.size, dtheta_deg=args.angles_step_deg)
    start = time.perf_counter()
    recon = fbp_reconstruct(shepp_logan_phantom(args.variant), config)
    elapsed = time.perf_counter() - start
    ref = shepp_logan(args.size, args.variant)

    write_image(outdir / "reconstruction.img", recon)
    write_pgm16(outdir / "reconstruction.pgm", recon)
    write_image(outdir / "phantom.img", ref)
    write_pgm16(outdir / "phantom.pgm", ref)

    print(f"reconstruction: {args.size}x{args.size}, "
          f"{config.num_angles} angles, {elapsed:.1f}s")
    for region in ("whole", "inner"):
        rep = image_metrics(recon, ref, region)
        print(f"{region}: e_max={rep.e_max:.4f} mse={rep.mse:.4e} psnr={rep.psnr:.3f} dB")


if __name__ == "__main__":
    main()
