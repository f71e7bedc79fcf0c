#!/usr/bin/env python3
"""Quadrature error sweeps for truncated monomials on the three
symmetric intervals, at both step sizes.  Writes one CSV per
(interval, alpha, h) combination."""

import argparse
from pathlib import Path

from oqf.io import write_sweep_csv
from oqf.transform import error_sweep


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="sweeps", help="output directory")
    parser.add_argument("--omega-count", type=int, default=201)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for half in (1.0, 10.0, 100.0):
        for alpha in (0, 1, 2):
            for h in (0.1, 0.01):
                n = round(2.0 * half / h)
                records = error_sweep(
                    alpha, (-half, half), n, -half, half, args.omega_count
                )
                name = f"sweep_half{half:g}_alpha{alpha}_h{h:g}.csv"
                write_sweep_csv(outdir / name, records)
                worst = max(r.abs_real_error for r in records)
                print(f"{name}: n={n}, max |Re err| = {worst:.3e}")


if __name__ == "__main__":
    main()
