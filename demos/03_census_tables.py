#!/usr/bin/env python3
"""Exhaustive class censuses: how many n in [1, S] land in each class.

The classic counts for cr3 at S = 10^5, 10^6, 10^7 are reproduced exactly
by the engine; pass --full to include the two larger runs (a few seconds).
The counts always sum to S, and the chunk size never changes them.
"""

import argparse
import time

from collatz_census import CensusConfig, MapKind, run_census

parser = argparse.ArgumentParser()
parser.add_argument("--full", action="store_true", help="include S=10^6 and S=10^7")
args = parser.parse_args()

targets = [10**5, 10**6, 10**7] if args.full else [10**5]

for s in targets:
    started = time.perf_counter()
    result = run_census(MapKind.CR3, s)
    elapsed = time.perf_counter() - started
    print(f"cr3 census over [1, {s}]  ({elapsed:.2f}s)")
    decimals = result.counts.decimal_fractions()
    for label, count in result.counts.counts.items():
        print(f"  class {label}: {count:>9}  fraction {decimals[label]}")
    assert sum(result.counts.counts.values()) == s
    print(f"  counts sum to S = {s} exactly\n")

print("pdcr2 census over [1, 10^6]")
result = run_census(MapKind.PDCR2, 10**6)
decimals = result.counts.decimal_fractions()
for label, count in result.counts.counts.items():
    print(f"  class {label}: {count:>9}  fraction {decimals[label]}")

print("\ndeterminism: odd chunk sizes, same counts")
baseline = run_census(MapKind.CR3, 10**4).counts
for chunk_size in (1, 7, 9973, 10**4):
    config = CensusConfig(chunk_size=chunk_size)
    assert run_census(MapKind.CR3, 10**4, config).counts == baseline
print("  chunk sizes {1, 7, 9973, 10^4}: identical results")
