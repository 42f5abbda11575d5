#!/usr/bin/env python3
"""Scan the time-t density reconstruction over a range of times.

Writes one long-format CSV (x, t, f) suitable for plotting the support
filling in as t grows toward 2.

Usage: python scripts/density_scan.py [--times 0.25,0.5,1,2,4] [--out scan.csv]
"""

import argparse
import csv

from freejacobi.spectral import density_lambda1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--times", default="0.25,0.5,1,2,4")
    parser.add_argument("--grid-points", type=int, default=501)
    parser.add_argument("--terms", type=int, default=256)
    parser.add_argument("--out", default="density_scan.csv")
    args = parser.parse_args()

    times = [float(x) for x in args.times.split(",")]
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "t", "f", "clipped"])
        for t in times:
            grid = density_lambda1(
                t, num_points=args.grid_points, fourier_terms=args.terms
            )
            for x, f, raw in zip(grid.xs, grid.values, grid.raw_values):
                writer.writerow([f"{x:.10g}", t, f"{f:.10g}", int(raw < 0)])
            print(
                f"t={t}: min {grid.values.min():.4g}, max {grid.values.max():.4g},"
                f" pre-clip min {grid.preclip_min:.4g}"
            )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
