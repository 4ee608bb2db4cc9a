#!/usr/bin/env python3
"""Do the three cr3 classes each hold a third of the integers?

A series run sweeps [1, S_max] once and snapshots the cumulative class
fractions at log-spaced sample points, which is exactly the data you want
for eyeballing convergence toward 1/3. With matplotlib installed the
picture is saved next to this script.
"""

import argparse

from collatz_census import MapKind, run_series

parser = argparse.ArgumentParser()
parser.add_argument("--s-max", type=int, default=10**6)
parser.add_argument("--points", type=int, default=12)
args = parser.parse_args()

points = run_series(MapKind.CR3, args.s_max, points=args.points, spacing="log")

labels = list(points[0].counts)
print(f"cumulative cr3 class fractions up to S = {args.s_max}")
print(f"  {'S':>10}  " + "  ".join(f"class {label}" for label in labels))
for point in points:
    decimals = point.decimal_fractions()
    print(f"  {point.hi:>10}  " + "  ".join(f"{decimals[label]:>7}" for label in labels))

drift = max(abs(float(point.fractions[label]) - 1 / 3) for label in labels for point in points[-3:])
print(f"\nlargest deviation from 1/3 over the last three samples: {drift:.6f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping the plot")
else:
    fig, ax = plt.subplots(figsize=(7, 4.5))
    xs = [point.hi for point in points]
    for label in labels:
        ax.plot(xs, [float(point.fractions[label]) for point in points],
                marker="o", label=f"class {label}")
    ax.axhline(1 / 3, color="gray", linestyle=":", linewidth=1)
    ax.set_xscale("log")
    ax.set_xlabel("S")
    ax.set_ylabel("fraction of [1, S]")
    ax.set_title("cumulative cr3 class fractions")
    ax.legend()
    fig.tight_layout()
    out = __file__.replace(".py", ".png")
    fig.savefig(out, dpi=120)
    print(f"plot saved to {out}")
