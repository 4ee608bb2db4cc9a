#!/usr/bin/env python3
"""Classifying numbers by the fixed point their composite iteration reaches.

Two independent routes. The direct route iterates cr3 (or pdcr2) until the
value repeats. The fast route never touches the composite map: once a base
trajectory reaches 1 it cycles with period 3 (1, 4, 2), so the
eventually-constant cr3 value is determined by the number of base steps to
reach 1, taken mod 3 (0 -> 1, 1 -> 2, 2 -> 4). A table of those residues,
one byte per n below a bound, lets any trajectory stop as soon as it dips
below the bound.
"""

from collatz_census import (
    MapKind,
    build_residue_cache,
    classify_direct,
    classify_fast,
    stopping_time,
    verify_range,
)

print("direct route: iterate cr3 until a value repeats")
for n in (1, 3, 5, 8, 27):
    outcome = classify_direct(MapKind.CR3, n)
    print(f"  {n:>3} -> class {outcome.label} after {outcome.composite_steps} cr3 steps")

print("\nthe residue behind it: base steps to reach 1, mod 3")
for n in (1, 3, 5, 8, 27):
    st = stopping_time(MapKind.CR, n)
    print(f"  {n:>3}: {st.steps:>3} cr steps to 1, residue {st.residue}")

print("\nfast route: one shared table, O(1) below its bound")
cache = build_residue_cache(MapKind.CR, 1 << 16)
print(f"  cache: {cache!r}, {cache.nbytes} bytes (one per n)")
for n in (27, 97, 703, 2**40 + 1):
    outcome = classify_fast(MapKind.CR3, n, cache)
    print(f"  {n} -> class {outcome.label} via {outcome.path} path")

print("\nthe two routes are checked against each other, not trusted")
mismatches = verify_range(MapKind.CR3, 1, 20_000, cache)
print(f"  verify_range over [1, 20000]: {len(mismatches)} mismatches")

print("\npdcr2 splits the integers differently (period-2 cycle, classes 1 and 2)")
pdcr_cache = build_residue_cache(MapKind.PDCR, 1 << 16)
for n in (1, 3, 5, 8):
    direct = classify_direct(MapKind.PDCR2, n)
    fast = classify_fast(MapKind.PDCR2, n, pdcr_cache)
    assert direct.label == fast.label
    print(f"  {n:>3} -> pdcr2 class {direct.label}")

print("\nnote: 1 and 8 share cr3 class 1 but land in different pdcr2 classes;")
print("the two partitions carry no per-number correspondence")
