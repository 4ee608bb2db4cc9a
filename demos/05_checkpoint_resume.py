#!/usr/bin/env python3
"""Interrupting a census and resuming it without losing exactness.

The engine checkpoints the completed contiguous prefix of [1, S] to a small
versioned JSON file. Here a progress callback simulates a crash partway
through; the resumed run finishes from the file and lands on exactly the
counts of an uninterrupted run.
"""

import tempfile
from pathlib import Path

from collatz_census import CensusConfig, MapKind, load_checkpoint, run_census

S = 200_000
workdir = Path(tempfile.mkdtemp(prefix="census-demo-"))
checkpoint = workdir / "cr3.ckpt"


class SimulatedCrash(RuntimeError):
    pass


def crash_halfway(done_through, target):
    if done_through >= target // 2:
        raise SimulatedCrash


config = CensusConfig(chunk_size=10_000, checkpoint_interval=0.0, progress=crash_halfway)
try:
    run_census(MapKind.CR3, S, config, checkpoint_path=checkpoint)
except SimulatedCrash:
    pass

prefix = load_checkpoint(checkpoint).prefix
print(f"crashed run left a checkpoint at next_n = {prefix.hi + 1}")
partial = {int(label): count for label, count in prefix.counts.items()}
print(f"  partial counts {partial} covering [1, {prefix.hi}]")

resumed = run_census(MapKind.CR3, S, checkpoint_path=checkpoint, resume=True)
fresh = run_census(MapKind.CR3, S)
assert resumed.counts == fresh.counts
print(f"resumed counts match an uninterrupted run exactly:")
for label, count in resumed.counts.counts.items():
    print(f"  class {label}: {count}")
print(f"final checkpoint now reports next_n = {load_checkpoint(checkpoint).prefix.hi + 1}")
