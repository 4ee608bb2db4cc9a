import bisect
import itertools
import json
import os
import random
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatz_census import (
    CHECKPOINT_VERSION,
    CensusAbortError,
    CensusConfig,
    CensusInterrupted,
    Checkpoint,
    CheckpointError,
    ClassCounts,
    ClassLabel,
    MapKind,
    NatOverflowError,
    ResidueCache,
    StepBudgetExceeded,
    basis_for,
    build_residue_cache,
    census_chunk,
    classify_direct,
    decimal_fraction,
    labels_for,
    load_checkpoint,
    merge,
    run_census,
    run_series,
    save_checkpoint,
    verify_range,
)
from collatz_census import census as census_module
from collatz_census import classifier
from oracles import oracle_census, oracle_label


@pytest.fixture(scope="module")
def cr_cache():
    return build_residue_cache(MapKind.CR, 1 << 16)


@pytest.fixture(scope="module")
def pdcr_cache():
    return build_residue_cache(MapKind.PDCR, 1 << 16)


def counts_as_ints(counts):
    return {int(label): count for label, count in counts.items()}


class TestCensusChunk:
    def test_cr3_first_ten(self, cr_cache):
        chunk = census_chunk(MapKind.CR3, 1, 10, cr_cache)
        assert counts_as_ints(chunk.counts) == {1: 3, 2: 4, 4: 3}
        assert counts_as_ints(chunk.counts) == oracle_census(10, "cr3")

    def test_membership_matches_oracle(self, cr_cache):
        # classes {1,8,10}, {2,3,7,9}, {4,5,6}
        for n in range(1, 11):
            assert classify_direct(MapKind.CR3, n).label == oracle_label(n, "cr3")

    def test_single_fixed_point(self, cr_cache):
        chunk = census_chunk(MapKind.CR3, 4, 4, cr_cache)
        assert counts_as_ints(chunk.counts) == {1: 0, 2: 0, 4: 1}

    def test_pdcr2_first_ten(self, pdcr_cache):
        chunk = census_chunk(MapKind.PDCR2, 1, 10, pdcr_cache)
        assert counts_as_ints(chunk.counts) == {1: 4, 2: 6}
        assert counts_as_ints(chunk.counts) == oracle_census(10, "pdcr2")

    def test_range_above_cache_bound(self):
        cache = build_residue_cache(MapKind.CR, 16)
        chunk = census_chunk(MapKind.CR3, 1, 500, cache)
        assert counts_as_ints(chunk.counts) == oracle_census(500, "cr3")

    def test_budget_abort_names_offender(self):
        cache = build_residue_cache(MapKind.CR, 2, 5)
        with pytest.raises(CensusAbortError) as exc:
            census_chunk(MapKind.CR3, 27, 27, cache)
        assert exc.value.n == 27

    def test_members_beyond_uint64(self, cr_cache):
        lo = 2**64 - 1
        hi = 2**64 + 2
        chunk = census_chunk(MapKind.CR3, lo, hi, cr_cache)
        expected = {1: 0, 2: 0, 4: 0}
        for n in range(lo, hi + 1):
            expected[int(classify_direct(MapKind.CR3, n).label)] += 1
        assert counts_as_ints(chunk.counts) == expected

    @pytest.mark.parametrize("map_kind", [MapKind.CR3, MapKind.PDCR2])
    def test_uint64_guard_lanes_near_2_63(self, map_kind, cr_cache, pdcr_cache, monkeypatch):
        # 2^63 - 1 ends in thirteen 1 bits, so its first jump would leave uint64
        calls = []
        exact = classifier._descend_scalar

        def counting(cache, start):
            calls.append(start)
            return exact(cache, start)

        monkeypatch.setattr(classifier, "_descend_scalar", counting)
        cache = cr_cache if map_kind is MapKind.CR3 else pdcr_cache
        lo, hi = 2**63 - 8, 2**63 + 7
        chunk = census_chunk(map_kind, lo, hi, cache)
        assert calls
        expected = {int(label): 0 for label in chunk.counts}
        for n in range(lo, hi + 1):
            expected[int(classify_direct(map_kind, n).label)] += 1
        assert counts_as_ints(chunk.counts) == expected

    def test_cache_mismatch(self, pdcr_cache):
        with pytest.raises(ValueError):
            census_chunk(MapKind.CR3, 1, 10, pdcr_cache)

    @pytest.mark.parametrize(
        "call",
        [
            lambda cache: census_chunk(MapKind.CR3, 10, 9, cache),
            lambda cache: cache.residues(10, 9),
            lambda cache: verify_range(MapKind.CR3, 10, 9, cache),
        ],
        ids=["census_chunk", "residues", "verify_range"],
    )
    def test_empty_range_has_one_message(self, call, cr_cache):
        with pytest.raises(ValueError, match=r"^empty range \[10, 9\]$"):
            call(cr_cache)

    @pytest.mark.parametrize("span", [1, 7, 64])
    @pytest.mark.parametrize("map_kind", [MapKind.CR3, MapKind.PDCR2])
    @pytest.mark.parametrize(
        "lo, hi", [(2**16 - 150, 2**16 + 150), (2**64 - 20, 2**64 + 20)],
        ids=["cache-bound", "2^64"],
    )
    def test_spans_sum_to_the_oracle(
        self, span, map_kind, lo, hi, cr_cache, pdcr_cache, monkeypatch
    ):
        # a chunk wider than one piece adds the counts of several residues calls
        monkeypatch.setattr(census_module, "_SPAN", span)
        cache = cr_cache if map_kind is MapKind.CR3 else pdcr_cache
        chunk = census_chunk(map_kind, lo, hi, cache)
        expected = {int(label): 0 for label in chunk.counts}
        for n in range(lo, hi + 1):
            expected[oracle_label(n, map_kind.value)] += 1
        assert counts_as_ints(chunk.counts) == expected

    @pytest.mark.parametrize("map_kind", [MapKind.CR3, MapKind.PDCR2])
    def test_residue_at_the_modulus_is_never_counted(self, map_kind, cr_cache, pdcr_cache):
        cache = cr_cache if map_kind is MapKind.CR3 else pdcr_cache
        table = np.array(cache._residues)  # a writable copy of the table
        table[10] = cache.modulus
        bad = ResidueCache(cache.basis, cache.bound, cache.max_steps, table)
        with pytest.raises(ValueError):
            census_chunk(map_kind, 1, 100, bad)

    def test_counting_a_cached_chunk_makes_no_wide_copy(self):
        # a uint8 residue costs one byte; np.bincount's intp copy cost eight
        cache = build_residue_cache(MapKind.CR, (1 << 16) + 1)
        census_chunk(MapKind.CR3, 1, 1 << 16, cache)
        tracemalloc.start()
        try:
            census_chunk(MapKind.CR3, 1, 1 << 16, cache)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * (1 << 16)

class TestClassCounts:
    def test_sum_identity_enforced(self):
        with pytest.raises(ValueError):
            ClassCounts(
                MapKind.CR3, 1, 10,
                {ClassLabel.ONE: 3, ClassLabel.TWO: 3, ClassLabel.FOUR: 3},
            )

    def test_label_set_enforced(self):
        with pytest.raises(ValueError):
            ClassCounts(MapKind.PDCR2, 1, 1, {ClassLabel.ONE: 1, ClassLabel.FOUR: 0})

    def test_empty(self):
        empty = ClassCounts.empty(MapKind.CR3, at=5)
        assert empty.is_empty and empty.total == 0

    def test_range_below_empty_rejected(self):
        zero = {label: 0 for label in labels_for(MapKind.CR3)}
        with pytest.raises(ValueError, match=r"invalid range \[5, 3\]"):
            ClassCounts(MapKind.CR3, 5, 3, zero)

    def test_fractions_are_shares_of_the_range(self):
        # [6, 10]: 8 and 10 are in class 1, 7 and 9 in class 2, 6 in class 4;
        # each share is over the 5 numbers of the range, not over hi
        counts = ClassCounts(
            MapKind.CR3, 6, 10, {ClassLabel.ONE: 2, ClassLabel.TWO: 2, ClassLabel.FOUR: 1}
        )
        assert counts.fractions == {
            ClassLabel.ONE: Fraction(2, 5),
            ClassLabel.TWO: Fraction(2, 5),
            ClassLabel.FOUR: Fraction(1, 5),
        }
        assert counts.decimal_fractions(2) == {
            ClassLabel.ONE: "0.40",
            ClassLabel.TWO: "0.40",
            ClassLabel.FOUR: "0.20",
        }


class TestMerge:
    def test_adjacent_halves(self, cr_cache):
        a = census_chunk(MapKind.CR3, 1, 5, cr_cache)
        b = census_chunk(MapKind.CR3, 6, 10, cr_cache)
        whole = census_chunk(MapKind.CR3, 1, 10, cr_cache)
        assert merge(a, b) == whole
        assert merge(b, a) == whole  # commutative

    def test_empty_identity(self, cr_cache):
        x = census_chunk(MapKind.CR3, 1, 10, cr_cache)
        assert merge(x, ClassCounts.empty(MapKind.CR3, at=11)) == x
        assert merge(ClassCounts.empty(MapKind.CR3), x) == x

    def test_map_mismatch(self, cr_cache, pdcr_cache):
        a = census_chunk(MapKind.CR3, 1, 5, cr_cache)
        b = census_chunk(MapKind.PDCR2, 6, 10, pdcr_cache)
        with pytest.raises(ValueError):
            merge(a, b)

    def test_overlap_rejected(self, cr_cache):
        a = census_chunk(MapKind.CR3, 1, 6, cr_cache)
        b = census_chunk(MapKind.CR3, 6, 10, cr_cache)
        with pytest.raises(ValueError):
            merge(a, b)

    def test_gap_rejected(self, cr_cache):
        a = census_chunk(MapKind.CR3, 1, 4, cr_cache)
        b = census_chunk(MapKind.CR3, 6, 10, cr_cache)
        with pytest.raises(ValueError):
            merge(a, b)

    @given(cuts=st.lists(st.integers(1, 99), min_size=0, max_size=6, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_any_partition_folds_to_whole(self, cuts, cr_cache):
        bounds = [1] + sorted(c + 1 for c in cuts) + [101]
        parts = [
            census_chunk(MapKind.CR3, lo, hi - 1, cr_cache)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        whole = census_chunk(MapKind.CR3, 1, 100, cr_cache)
        # left fold
        acc = ClassCounts.empty(MapKind.CR3)
        for p in parts:
            acc = merge(acc, p)
        assert acc == whole
        # right fold (associativity)
        acc = ClassCounts.empty(MapKind.CR3, at=101)
        for p in reversed(parts):
            acc = merge(p, acc)
        assert acc == whole


class TestRunCensus:
    def test_first_ten(self):
        result = run_census(MapKind.CR3, 10)
        assert counts_as_ints(result.counts.counts) == {1: 3, 2: 4, 4: 3}
        assert result.counts.fractions[ClassLabel.ONE] == Fraction(3, 10)

    def test_single_number(self):
        result = run_census(MapKind.CR3, 1)
        assert counts_as_ints(result.counts.counts) == {1: 1, 2: 0, 4: 0}

    def test_pdcr2_first_ten(self):
        result = run_census(MapKind.PDCR2, 10)
        assert counts_as_ints(result.counts.counts) == {1: 4, 2: 6}

    def test_fractions_sum_to_one(self):
        result = run_census(MapKind.CR3, 997)
        assert sum(result.counts.fractions.values(), Fraction(0)) == 1

    def test_matches_direct_oracle_census(self):
        s = 10_000
        result = run_census(MapKind.CR3, s)
        direct = {1: 0, 2: 0, 4: 0}
        for n in range(1, s + 1):
            direct[int(classify_direct(MapKind.CR3, n).label)] += 1
        assert counts_as_ints(result.counts.counts) == direct

    @pytest.mark.parametrize("chunk_size", [1, 7, 97, 250, 1999, 2000])
    def test_chunking_determinism_small(self, chunk_size):
        config = CensusConfig(chunk_size=chunk_size)
        result = run_census(MapKind.CR3, 2000, config)
        assert counts_as_ints(result.counts.counts) == {1: 665, 2: 669, 4: 666}
        points = run_series(MapKind.CR3, 2000, points=4, spacing="linear", config=config)
        assert [p.hi for p in points] == [500, 1000, 1500, 2000]
        assert points[-1] == result.counts

    def test_small_matrix_expectation_from_oracle(self):
        assert oracle_census(2000, "cr3") == {1: 665, 2: 669, 4: 666}

    @pytest.mark.parametrize("chunk_size", [1000, 997, 1 << 16])
    def test_abort_names_first_failing_n(self, chunk_size):
        # several chunks (or one wide one) fail; the lowest n aborts the run
        config = CensusConfig(cache_bound=2**10, max_steps=150, chunk_size=chunk_size)
        with pytest.raises(CensusAbortError) as exc:
            run_census(MapKind.CR3, 2 * 10**5, config)
        assert exc.value.n == 10087 and exc.value.phase == "tally"
        assert str(exc.value).startswith("census aborted at n=10087 in the tally: ")

    @pytest.mark.parametrize("chunk_size", [1, 1000, 1 << 16])
    def test_build_abort_names_the_serial_start(self, chunk_size, watch_absorb):
        # the build fails before the first chunk, whatever the chunk size
        calls = record_chunks(watch_absorb)
        with pytest.raises(CensusAbortError) as exc:
            run_census(MapKind.CR3, 2 * 10**5, CensusConfig(max_steps=150, chunk_size=chunk_size))
        assert exc.value.n == 10087 and exc.value.phase == "build"
        assert str(exc.value).startswith("census aborted at n=10087 in the cache build: ")
        assert calls == []

    def test_cache_is_built_before_the_first_chunk(self, watch_absorb, monkeypatch):
        events = []
        exact_build = census_module.build_residue_cache

        def recording_build(*args, **kwargs):
            events.append("build")
            return exact_build(*args, **kwargs)

        def recording_chunk(sweep, lo, hi, totals, absorb):
            events.append("chunk")
            absorb(hi, totals)

        monkeypatch.setattr(census_module, "build_residue_cache", recording_build)
        watch_absorb(recording_chunk)
        run_census(MapKind.CR3, 1000, CensusConfig(chunk_size=250))
        assert events == ["build"] + ["chunk"] * 4

    def test_census_and_series_start_no_thread(self, watch_absorb):
        before = threading.active_count()
        seen = []

        def counting_chunk(sweep, lo, hi, totals, absorb):
            seen.append(threading.active_count())
            absorb(hi, totals)

        def progress(done_through, target):
            seen.append(threading.active_count())

        config = CensusConfig(chunk_size=100, progress=progress)
        run_census(MapKind.CR3, 1000, config)
        assert len(seen) == 10 and set(seen) == {before}
        watch_absorb(counting_chunk)
        run_series(MapKind.CR3, 1000, points=3, config=config)
        assert len(seen) > 10 and set(seen) == {before}

    def test_workers_is_no_longer_a_field(self):
        with pytest.raises(TypeError):
            CensusConfig(workers=2)

    def test_abort_propagates_from_build(self):
        with pytest.raises(CensusAbortError) as exc:
            run_census(MapKind.CR3, 100, CensusConfig(max_steps=5))
        assert exc.value.n == 3

    def test_cache_bound_never_changes_counts(self):
        small = run_census(MapKind.CR3, 3000, CensusConfig(cache_bound=2))
        large = run_census(MapKind.CR3, 3000, CensusConfig(cache_bound=1 << 20))
        assert small.counts == large.counts
        assert small.engine.cache_bound == 2
        assert large.engine.cache_bound == 3001  # never built past S+1

    def test_minimal_cache_bound_pdcr2(self):
        # every member descends all the way to 1 through the jump kernel
        result = run_census(MapKind.PDCR2, 3000, CensusConfig(cache_bound=2))
        assert counts_as_ints(result.counts.counts) == oracle_census(3000, "pdcr2")

    def test_unwritable_checkpoint_fails_before_compute(self, tmp_path, monkeypatch):
        def no_build(*args):
            raise AssertionError("cache built before the checkpoint path was checked")

        monkeypatch.setattr(census_module, "build_residue_cache", no_build)
        with pytest.raises(CheckpointError):
            run_census(MapKind.CR3, 100, checkpoint_path=tmp_path / "missing" / "cp.json")
        with pytest.raises(CheckpointError):
            run_census(MapKind.CR3, 100, checkpoint_path=tmp_path)

    def test_rejects_base_map(self):
        with pytest.raises(ValueError):
            run_census(MapKind.CR, 10)


def _first_direct_failure(map_kind, max_steps):
    n = 1
    while True:
        try:
            classify_direct(map_kind, n, max_steps)
        except StepBudgetExceeded:
            return n
        n += 1


class TestOneStepBudget:
    @pytest.mark.parametrize(
        "map_kind, max_steps, first_failing",
        [
            (MapKind.CR3, 100, 703),
            (MapKind.CR3, 150, 10087),
            (MapKind.PDCR2, 60, 703),
            (MapKind.PDCR2, 90, 10087),
        ],
    )
    def test_first_failing_n_is_the_same_for_every_engine_knob(
        self, map_kind, max_steps, first_failing, monkeypatch
    ):
        # the glide record after σ = max_steps, whatever the cache, chunks,
        # build blocks or route
        s = 2 * 10**4
        named = set()
        for bound, chunk_size, block in itertools.product(
            [2, 17, 1024, 4096, 10_000, 1 << 25],
            [1000, 1 << 16],
            [1 << 8, 1 << 12, 1 << 19],
        ):
            if block < 1 << 19 and 2 * block >= min(bound, s + 1):
                continue  # blocks are at most half the built bound: the default run again
            monkeypatch.setattr(classifier, "_MAX_BLOCK", block)
            config = CensusConfig(chunk_size=chunk_size, cache_bound=bound, max_steps=max_steps)
            with pytest.raises(CensusAbortError) as exc:
                run_census(map_kind, s, config)
            named.add(exc.value.n)
        assert named == {first_failing}
        assert _first_direct_failure(map_kind, max_steps) == first_failing


def record_chunks(watch_absorb):
    """Record every chunk [lo, hi] the counting loop ends, as it is absorbed."""
    calls = []

    def recording(sweep, lo, hi, totals, absorb):
        calls.append((lo, hi))
        absorb(hi, totals)

    watch_absorb(recording)
    return calls


def record_residues_calls(monkeypatch):
    """Wrap the cache's range route so every [lo, hi] and odd flag is recorded."""
    calls = []
    residues_by = classifier.ResidueCache._residues_by

    def recording(self, lo, hi, walk, odd=False):
        calls.append((lo, hi, odd))
        return residues_by(self, lo, hi, walk, odd)

    monkeypatch.setattr(classifier.ResidueCache, "_residues_by", recording)
    return calls


def assert_tiles(calls, first, last, most, odd):
    """The residues calls [lo, hi] tile [first, last] in order, with no
    overlap and no gap, each a full window of ``most`` members but the last,
    which holds at most that many, with ``odd`` the odd ones."""
    assert calls[0][0] == first and calls[-1][1] == last
    assert [lo for lo, _ in calls[1:]] == [hi + 1 for _, hi in calls[:-1]]
    members = [(hi + 1) // 2 - lo // 2 if odd else hi - lo + 1 for lo, hi in calls]
    assert members[:-1] == [most] * (len(calls) - 1) and members[-1] <= most, calls


class TestEngine:
    @pytest.mark.parametrize("chunk_size", [64, 97])
    def test_census_chunks_tile_from_resume_point(self, chunk_size, tmp_path, watch_absorb):
        path = tmp_path / "census.ckpt"
        prefix = run_census(MapKind.CR3, 100).counts
        save_checkpoint(Checkpoint(prefix, 1000, 1001, "2026-01-01T00:00:00+00:00"), path)
        calls = record_chunks(watch_absorb)
        config = CensusConfig(chunk_size=chunk_size)
        result = run_census(MapKind.CR3, 1000, config, checkpoint_path=path, resume=True)
        expected = [(lo, min(lo + chunk_size - 1, 1000)) for lo in range(101, 1001, chunk_size)]
        assert calls == expected
        assert counts_as_ints(result.counts.counts) == oracle_census(1000, "cr3")

    @pytest.mark.parametrize("spacing", ["log", "linear"])
    def test_series_chunks_cut_at_every_sample(self, spacing, watch_absorb):
        samples = census_module._series_samples(1000, 7, spacing)
        calls = record_chunks(watch_absorb)
        config = CensusConfig(chunk_size=64)
        points = run_series(MapKind.CR3, 1000, points=7, spacing=spacing, config=config)
        assert [lo for lo, _ in calls] == [1] + [hi + 1 for _, hi in calls[:-1]]
        assert calls[-1][1] == 1000
        for lo, hi in calls:
            assert hi - lo < 64
            assert not any(lo <= sample < hi for sample in samples)
        assert [p.hi for p in points] == samples
        for point in points:
            assert point == run_census(MapKind.CR3, point.hi).counts

    def test_failing_progress_stops_the_tally(self, watch_absorb):
        class Interrupt(RuntimeError):
            pass

        def interrupt(done_through, target):
            raise Interrupt

        calls = record_chunks(watch_absorb)
        config = CensusConfig(chunk_size=100, progress=interrupt)
        with pytest.raises(Interrupt):
            run_census(MapKind.CR3, 100_000, config)
        assert calls == [(1, 100)]  # no chunk is absorbed after the failing one


_BAD_CONFIGS = [
    {"chunk_size": 2.5},
    {"chunk_size": True},
    {"chunk_size": 0},
    {"cache_bound": 2.5},
    {"cache_bound": 1},
    {"cache_bound": True},
    {"max_steps": -1},
    {"max_steps": 1.5},
    {"checkpoint_interval": "10"},
    {"checkpoint_interval": True},
    {"checkpoint_interval": -1.0},
    {"checkpoint_interval": float("nan")},
    {"progress": 5},
]


@pytest.mark.parametrize("route", ["census", "series"])
@pytest.mark.parametrize("fields", _BAD_CONFIGS, ids=str)
def test_bad_config_rejected_before_compute(route, fields, monkeypatch):
    def no_build(*args):
        raise AssertionError("cache built before the config was checked")

    monkeypatch.setattr(census_module, "build_residue_cache", no_build)
    config = CensusConfig(**fields)
    field = next(iter(fields))
    with pytest.raises(ValueError, match="step budget" if field == "max_steps" else field):
        if route == "census":
            run_census(MapKind.CR3, 100, config)
        else:
            run_series(MapKind.CR3, 100, points=2, config=config)


class TestCheckpointFile:
    def checkpoint(self):
        return Checkpoint(
            prefix=ClassCounts(
                MapKind.CR3, 1, 50, {ClassLabel.ONE: 17, ClassLabel.TWO: 17, ClassLabel.FOUR: 16}
            ),
            target=100,
            cache_bound=101,
            created_at="2026-08-09T00:00:00+00:00",
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "census.ckpt"
        save_checkpoint(self.checkpoint(), path)
        assert load_checkpoint(path) == self.checkpoint()

    def test_write_failure_is_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError):
            save_checkpoint(self.checkpoint(), tmp_path / "missing" / "census.ckpt")

    def test_fsync_before_replace(self, tmp_path, monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append("fsync")
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.path.basename(src)))
            real_replace(src, dst)

        monkeypatch.setattr(census_module.os, "fsync", fsync)
        monkeypatch.setattr(census_module.os, "replace", replace)
        path = tmp_path / "census.ckpt"
        save_checkpoint(self.checkpoint(), path)
        assert events == ["fsync", ("replace", f"census.ckpt.{os.getpid()}.tmp")]
        assert load_checkpoint(path) == self.checkpoint()

    @pytest.mark.parametrize("failing", ["fsync", "replace"])
    def test_sync_or_rename_failure_is_checkpoint_error(self, failing, tmp_path, monkeypatch):
        def fail(*args):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(census_module.os, failing, fail)
        with pytest.raises(CheckpointError, match="Input/output error"):
            save_checkpoint(self.checkpoint(), tmp_path / "census.ckpt")
        assert list(tmp_path.iterdir()) == []  # no checkpoint, no stray temp file

    def test_interrupted_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def interrupt(fd):
            raise KeyboardInterrupt

        monkeypatch.setattr(census_module.os, "fsync", interrupt)
        with pytest.raises(KeyboardInterrupt):  # unwrapped, not a CheckpointError
            save_checkpoint(self.checkpoint(), tmp_path / "census.ckpt")
        assert list(tmp_path.iterdir()) == []  # no checkpoint, no stray temp file

    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "census.ckpt"
        save_checkpoint(self.checkpoint(), path)
        assert path.read_bytes() == (
            b'{\n'
            b'  "format_version": 2,\n'
            b'  "map": "cr3",\n'
            b'  "target_s": 100,\n'
            b'  "next_n": 51,\n'
            b'  "partial_counts": {\n'
            b'    "1": 17,\n'
            b'    "2": 17,\n'
            b'    "4": 16\n'
            b'  },\n'
            b'  "cache_bound": 101,\n'
            b'  "max_steps": 1000000,\n'
            b'  "created_at": "2026-08-09T00:00:00+00:00"\n'
            b'}\n'
        )

    def test_version_field(self, tmp_path):
        path = tmp_path / "census.ckpt"
        save_checkpoint(self.checkpoint(), path)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == CHECKPOINT_VERSION

    def rewrite(self, tmp_path, mutate):
        path = tmp_path / "census.ckpt"
        save_checkpoint(self.checkpoint(), path)
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        return path

    def test_unknown_field_rejected(self, tmp_path):
        path = self.rewrite(tmp_path, lambda d: d.update(extra=1))
        with pytest.raises(CheckpointError, match="unknown"):
            load_checkpoint(path)

    def test_missing_field_rejected(self, tmp_path):
        path = self.rewrite(tmp_path, lambda d: d.pop("next_n"))
        with pytest.raises(CheckpointError, match="missing"):
            load_checkpoint(path)

    def test_budget_recorded(self, tmp_path):
        path = tmp_path / "census.ckpt"
        run_census(MapKind.CR3, 100, CensusConfig(max_steps=500), checkpoint_path=path)
        assert json.loads(path.read_text())["max_steps"] == 500
        assert load_checkpoint(path).max_steps == 500

    @pytest.mark.parametrize("budget", [-1, 1.5, True, "100", None])
    def test_bad_budget_rejected(self, tmp_path, budget):
        path = self.rewrite(tmp_path, lambda d: d.update(max_steps=budget))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_1_file_rejected_by_the_version_check(self, tmp_path):
        # version 1 had no max_steps field; the version is checked before the fields
        def to_v1(d):
            del d["max_steps"]
            d["format_version"] = 1

        path = self.rewrite(tmp_path, to_v1)
        with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = self.rewrite(tmp_path, lambda d: d.update(format_version=99))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "count",
        [-1, True, 97.0, "5", 16, 18],
        ids=["negative", "true", "float", "string", "sum-one-short", "sum-one-over"],
    )
    def test_malformed_counts_rejected(self, tmp_path, count):
        # class 1 holds 17 of the 50 numbers in [1, next_n - 1]
        path = self.rewrite(tmp_path, lambda d: d["partial_counts"].update({"1": count}))
        with pytest.raises(CheckpointError, match="partial counts"):
            load_checkpoint(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "census.ckpt"
        path.write_text("not json {")
        with pytest.raises(CheckpointError, match="JSON"):
            load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_json_non_object_rejected(self, tmp_path):
        path = tmp_path / "census.ckpt"
        path.write_text("[1, 2]")
        with pytest.raises(CheckpointError, match="JSON object"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.update(map="cr7"), "invalid checkpoint map"),
            (lambda d: d.update(partial_counts={"1": 17, "2": 17, "3": 16}), "exactly the map's"),
            (lambda d: d.update(partial_counts={"1": 34, "2": 16}), "exactly the map's"),
            (lambda d: d.update(created_at=20260809), "created_at"),
        ],
        ids=["unknown-map", "wrong-class-key", "missing-class", "created-at-not-a-string"],
    )
    def test_malformed_field_rejected(self, tmp_path, mutate, message):
        path = self.rewrite(tmp_path, mutate)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)


class TestResume:
    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        s = 10_000
        path = tmp_path / "census.ckpt"
        uninterrupted = run_census(MapKind.CR3, s, CensusConfig(chunk_size=512))

        class Interrupt(RuntimeError):
            pass

        def tripwire(done_through, target):
            if done_through >= s // 2:
                raise Interrupt

        config = CensusConfig(
            chunk_size=512, checkpoint_interval=0.0, progress=tripwire
        )
        with pytest.raises(Interrupt):
            run_census(MapKind.CR3, s, config, checkpoint_path=path)

        saved = load_checkpoint(path)
        assert 0 < saved.prefix.hi < s  # genuinely mid-run

        resumed = run_census(
            MapKind.CR3, s, CensusConfig(chunk_size=512),
            checkpoint_path=path, resume=True,
        )
        assert resumed.counts == uninterrupted.counts
        assert load_checkpoint(path).prefix == uninterrupted.counts  # final state saved

    def test_resume_requires_matching_map(self, tmp_path):
        path = tmp_path / "census.ckpt"
        run_census(MapKind.CR3, 100, checkpoint_path=path)
        with pytest.raises(CheckpointError, match="map"):
            run_census(MapKind.PDCR2, 100, checkpoint_path=path, resume=True)

    def test_resume_requires_matching_budget_before_the_build(self, tmp_path, monkeypatch):
        path = tmp_path / "census.ckpt"
        prefix = run_census(MapKind.CR3, 50).counts
        save_checkpoint(Checkpoint(prefix, 100, 101, "then", 500), path)
        exact_build = census_module.build_residue_cache

        def no_build(*args):
            raise AssertionError("cache built before the budget was checked")

        monkeypatch.setattr(census_module, "build_residue_cache", no_build)
        with pytest.raises(CheckpointError, match="max_steps=500, requested max_steps=1000000"):
            run_census(MapKind.CR3, 100, checkpoint_path=path, resume=True)
        monkeypatch.setattr(census_module, "build_residue_cache", exact_build)
        resumed = run_census(
            MapKind.CR3, 100, CensusConfig(max_steps=500), checkpoint_path=path, resume=True
        )
        assert resumed.counts == run_census(MapKind.CR3, 100).counts
        assert load_checkpoint(path).max_steps == 500

    def test_resume_requires_matching_target(self, tmp_path):
        path = tmp_path / "census.ckpt"
        run_census(MapKind.CR3, 100, checkpoint_path=path)
        with pytest.raises(CheckpointError, match="S="):
            run_census(MapKind.CR3, 200, checkpoint_path=path, resume=True)

    def test_resume_without_path(self):
        with pytest.raises(CheckpointError):
            run_census(MapKind.CR3, 100, resume=True)

    def test_resume_from_complete_checkpoint(self, tmp_path):
        path = tmp_path / "census.ckpt"
        first = run_census(MapKind.CR3, 100, checkpoint_path=path)
        again = run_census(MapKind.CR3, 100, checkpoint_path=path, resume=True)
        assert again.counts == first.counts


    def test_resume_from_complete_checkpoint_builds_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "census.ckpt"
        first = run_census(MapKind.CR3, 100, checkpoint_path=path)
        os.remove(path)
        save_checkpoint(Checkpoint(first.counts, 100, 101, "then"), path)

        def no_build(*args, **kwargs):
            raise AssertionError("cache built with nothing left to classify")

        monkeypatch.setattr(census_module, "build_residue_cache", no_build)
        again = run_census(MapKind.CR3, 100, checkpoint_path=path, resume=True)
        assert again.counts == first.counts
        saved = load_checkpoint(path)
        assert saved.prefix == first.counts
        assert saved.created_at != "then"  # the final checkpoint was written

    @pytest.mark.parametrize("map_kind", [MapKind.CR3, MapKind.PDCR2])
    def test_every_write_of_a_halved_resume_holds_its_prefix(
        self, map_kind, tmp_path, monkeypatch
    ):
        # the resumed prefix seeds the running totals that the halved chunks
        # read, from the floor at 2 * 40001 - 1 on; every write and progress
        # call must come at a chunk end, with the counts over [1, that end]
        bound, size, s, next_n = 1 << 10, 1000, 1 << 17, 40_001
        path = tmp_path / "run.ckpt"
        prefix = _reference(map_kind, [next_n - 1], bound, 10**6)[-1]
        save_checkpoint(Checkpoint(prefix, s, bound, "then"), path)
        saved, progress = [], []
        exact = census_module.save_checkpoint

        def recording(checkpoint, at):
            saved.append(checkpoint)
            exact(checkpoint, at)

        monkeypatch.setattr(census_module, "save_checkpoint", recording)
        calls = record_residues_calls(monkeypatch)
        config = CensusConfig(
            chunk_size=size, cache_bound=bound, checkpoint_interval=0.0,
            progress=lambda done, target: progress.append((done, target)),
        )
        result = run_census(map_kind, s, config, checkpoint_path=path, resume=True)
        assert (80_001, s) in [(lo, hi) for lo, hi, odd in calls if odd]  # halved from the floor
        ends = [*range(next_n + size - 1, s, size), s]
        assert progress == [(end, s) for end in ends]
        assert [c.prefix.hi for c in saved] == ends  # the last one holds [1, s]: no second write
        expected = _reference(map_kind, ends, bound, 10**6)
        assert [c.prefix for c in saved] == expected
        assert result.counts == expected[-1]
        assert {(c.target, c.cache_bound, c.max_steps) for c in saved} == {(s, bound, 10**6)}


class TestInterrupt:
    @pytest.mark.parametrize("map_kind", [MapKind.CR3, MapKind.PDCR2])
    def test_progress_interrupt_saves_the_prefix_and_resumes(self, map_kind, tmp_path):
        s = 10_000
        path = tmp_path / "census.ckpt"
        uninterrupted = run_census(map_kind, s, CensusConfig(chunk_size=512))

        def tripwire(done_through, target):
            if done_through >= s // 2:
                raise KeyboardInterrupt

        config = CensusConfig(chunk_size=512, progress=tripwire)
        with pytest.raises(CensusInterrupted) as exc:
            run_census(map_kind, s, config, checkpoint_path=path)
        assert exc.value.next_n == 5121  # the first chunk end past s // 2, plus one
        assert exc.value.checkpoint_path == path
        assert load_checkpoint(path).prefix == exc.value.prefix
        assert exc.value.prefix == run_census(map_kind, 5120).counts

        resumed = run_census(
            map_kind, s, CensusConfig(chunk_size=512),
            checkpoint_path=path, resume=True,
        )
        assert resumed.counts == uninterrupted.counts

    def test_interrupted_chunk_absorbs_nothing_after_it(self, interrupt_at, watch_absorb):
        interrupt_at(1001)
        calls = record_chunks(watch_absorb)
        config = CensusConfig(chunk_size=100)
        with pytest.raises(CensusInterrupted) as exc:
            run_census(MapKind.CR3, 100_000, config)
        assert calls == [(lo, lo + 99) for lo in range(1, 1001, 100)]  # none from 1001
        assert exc.value.next_n == 1001
        assert exc.value.checkpoint_path is None
        assert exc.value.prefix == run_census(MapKind.CR3, 1000).counts

    @pytest.mark.parametrize("map_kind", [MapKind.CR3, MapKind.PDCR2])
    @pytest.mark.parametrize("counted", [False, True])
    def test_interrupt_inside_the_halved_region_of_a_resume(
        self, map_kind, counted, interrupt_at, watch_absorb, tmp_path, monkeypatch
    ):
        # a resume from 20001 halves from 2 * 20001 - 1 on; interrupted at the
        # chunk from 50001, before P steps into it or once P has reached its
        # end, it saves the prefix the last absorbed chunk ended
        bound, s = 1 << 10, 100_000
        config = CensusConfig(chunk_size=100, cache_bound=bound)
        cache = ResidueCache(MapKind.CR, bound, 10**6, np.zeros(bound, np.uint8))
        assert census_module._Sweep(cache, 20_001, [s], 100, [0, 0, 0]).floor == 40_001
        expected = _reference(map_kind, [50_000], bound, 10**6)[-1]
        path = tmp_path / "run.ckpt"
        save_checkpoint(Checkpoint(run_census(map_kind, 20_000).counts, s, bound, "then"), path)
        interrupt_at(50_001, counted)
        calls = record_chunks(watch_absorb)
        with pytest.raises(CensusInterrupted) as exc:
            run_census(map_kind, s, config, checkpoint_path=path, resume=True)
        assert calls == [(lo, lo + 99) for lo in range(20_001, 50_001, 100)]
        assert exc.value.next_n == 50_001
        assert load_checkpoint(path).prefix == exc.value.prefix == expected
        monkeypatch.undo()
        resumed = run_census(map_kind, s, config, checkpoint_path=path, resume=True)
        assert resumed.counts == run_census(map_kind, s).counts

    def test_interrupt_during_the_build_keeps_the_resumed_prefix(self, tmp_path, monkeypatch):
        path = tmp_path / "census.ckpt"
        prefix = run_census(MapKind.CR3, 300).counts
        save_checkpoint(Checkpoint(prefix, 1000, 1001, "then"), path)

        def interrupted_build(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(census_module, "build_residue_cache", interrupted_build)
        with pytest.raises(CensusInterrupted) as exc:
            run_census(MapKind.CR3, 1000, checkpoint_path=path, resume=True)
        assert exc.value.next_n == 301
        saved = load_checkpoint(path)
        assert saved.prefix == prefix
        assert saved.created_at != "then"


class TestRunSeries:
    def test_single_point(self):
        points = run_series(MapKind.CR3, 10, points=1)
        assert len(points) == 1
        assert points[0].hi == 10
        assert points[0].decimal_fractions() == {
            ClassLabel.ONE: "0.300000",
            ClassLabel.TWO: "0.400000",
            ClassLabel.FOUR: "0.300000",
        }

    def test_smallest_universe(self):
        points = run_series(MapKind.CR3, 1, points=1)
        assert points[0].fractions[ClassLabel.ONE] == 1

    def test_linear_two_points(self):
        points = run_series(MapKind.CR3, 10, points=2, spacing="linear")
        assert [p.hi for p in points] == [5, 10]
        assert points[1].fractions[ClassLabel.TWO] == Fraction(2, 5)

    def test_log_spacing_lands_on_s_max(self):
        points = run_series(MapKind.CR3, 100_000, points=5, spacing="log")
        assert [p.hi for p in points] == [10, 100, 1000, 10_000, 100_000]

    def test_final_point_equals_census(self):
        s = 10_000
        last = run_series(MapKind.CR3, s, points=7, spacing="log")[-1]
        assert last == run_census(MapKind.CR3, s).counts

    def test_single_point_at_hundred_thousand(self):
        point = run_series(MapKind.CR3, 100_000, points=1)[0]
        assert point.decimal_fractions() == {
            ClassLabel.ONE: "0.333640",
            ClassLabel.TWO: "0.333110",
            ClassLabel.FOUR: "0.333250",
        }

    def test_counts_monotone_along_series(self):
        points = run_series(MapKind.PDCR2, 5_000, points=25, spacing="linear")
        for prev, cur in zip(points, points[1:]):
            for label in prev.counts:
                assert prev.counts[label] <= cur.counts[label]

    def test_cumulative_consistency_with_direct_census(self):
        points = run_series(MapKind.CR3, 900, points=3, spacing="linear")
        for point in points:
            assert point == run_census(MapKind.CR3, point.hi).counts

    def test_progress_reports_every_chunk(self):
        # chunks of 300 from 1, cut at the samples 333, 666 and 1000
        calls = []
        config = CensusConfig(chunk_size=300, progress=lambda *args: calls.append(args))
        run_series(MapKind.CR3, 1000, points=3, spacing="linear", config=config)
        assert calls == [(d, 1000) for d in (300, 333, 600, 666, 900, 1000)]

    def test_rejects_more_points_than_numbers(self):
        with pytest.raises(ValueError):
            run_series(MapKind.CR3, 5, points=6)

    def test_rejects_unknown_spacing(self):
        with pytest.raises(ValueError):
            run_series(MapKind.CR3, 10, points=1, spacing="sqrt")

    @pytest.mark.parametrize("points", [0, True, 1.5])
    def test_rejects_points_not_a_positive_integer(self, points):
        with pytest.raises(ValueError, match="points must be a positive integer"):
            run_series(MapKind.CR3, 10, points=points)


class TestDecimalFraction:
    @pytest.mark.parametrize(
        "count, total, text",
        [
            (33364, 100_000, "0.333640"),
            (1, 3, "0.333333"),
            (2, 3, "0.666667"),
            (1, 1, "1.000000"),
            (0, 7, "0.000000"),
            (1, 2, "0.500000"),
            (1, 16, "0.062500"),
            (3, 16, "0.187500"),
        ],
    )
    def test_exact_rendering(self, count, total, text):
        assert decimal_fraction(count, total) == text

    def test_half_even_at_the_boundary(self):
        # 0.0000005 rounds to even last digit
        assert decimal_fraction(5, 10_000_000) == "0.000000"
        assert decimal_fraction(15, 10_000_000) == "0.000002"


def _reference(map_kind, cuts, bound, max_steps, start=1):
    """The running totals at each cut, counted by one ``census_chunk`` per
    stretch between cuts, or ("abort", n) for the smallest failing n."""
    try:
        cache = build_residue_cache(basis_for(map_kind), bound, max_steps)
    except (StepBudgetExceeded, NatOverflowError) as e:
        return ("abort", e.n)
    total = ClassCounts.empty(map_kind, at=start)
    out = []
    for first, cut in zip([start, *(c + 1 for c in cuts)], cuts):
        try:
            total = merge(total, census_chunk(map_kind, first, cut, cache))
        except CensusAbortError as e:
            return ("abort", e.n)
        out.append(total)
    return out


def _tally(map_kind, cuts, config, start=1):
    """The census engine's running totals at each cut, or ("abort", n)."""
    labels = labels_for(map_kind)
    out = []

    def absorb(hi, totals):
        if hi in cuts:
            out.append(ClassCounts(map_kind, start, hi, dict(zip(labels, totals))))

    try:
        reached = start - 1, [0] * len(labels)
        census_module._tally(map_kind, config, config.cache_bound, reached, cuts, absorb)
    except CensusAbortError as e:
        return ("abort", e.n)
    return out


def walk_chunks(sweep):
    """The sweep's chunks [lo, hi], ascending, each found with ``_Sweep._chunk``."""
    lo, hi = sweep._chunk(sweep.start)
    yield lo, hi
    while hi < sweep.cuts[-1]:
        lo, hi = sweep._chunk(hi + 1)
        yield lo, hi


class ZeroResidues(ResidueCache):
    """A cache whose every residue reads 0, so the counting loop steps P
    with no kernel call."""

    def residues(self, lo, hi, odd=False):
        return np.zeros((hi + 1) // 2 - lo // 2 if odd else hi - lo + 1, np.uint8)


class TestHalvedChunks:
    """Past the cache bound a chunk descends its odd members only and reads
    its evens off the running totals; every count, cut and abort must be
    that of counting each chunk whole."""

    @pytest.mark.parametrize("map_kind", [MapKind.CR3, MapKind.PDCR2])
    @pytest.mark.parametrize("bound", [2, 3, 17, 1 << 12])
    @pytest.mark.parametrize("max_steps", [0, 1, 30, 10**6])
    def test_tally_equals_whole_chunks(self, map_kind, bound, max_steps):
        rng = random.Random(f"{map_kind.value}-{bound}-{max_steps}")
        # a chunk [1, 2] reaches a bound of 2 but holds its own half: counted whole
        for chunk_size in (1, 2, 7, 97, 1 << 16):
            s = 700 if chunk_size <= 2 else 5000
            config = CensusConfig(chunk_size=chunk_size, cache_bound=bound, max_steps=max_steps)
            cuts = sorted({*rng.sample(range(1, s), 5), s})
            for start in (1, rng.randrange(2, s // 3)):
                cut_list = [c for c in cuts if c >= start]
                expected = _reference(map_kind, cut_list, bound, max_steps, start)
                assert _tally(map_kind, cut_list, config, start) == expected, (chunk_size, start)

    @pytest.mark.parametrize("map_kind", [MapKind.CR3, MapKind.PDCR2])
    def test_lowest_chunk_a_bound_can_halve(self, map_kind):
        # [9, 17] reaches a bound of 17 and holds no half of its own: it
        # reads P(4) at the end of [1, 8], the lowest point a chunk can read
        config = CensusConfig(chunk_size=9, cache_bound=17)
        cuts = [8, 17, 60]
        assert _tally(map_kind, cuts, config) == _reference(map_kind, cuts, 17, config.max_steps)

    @pytest.mark.parametrize("map_kind", [MapKind.CR3, MapKind.PDCR2])
    @pytest.mark.parametrize("bound", [2, 17, 1 << 12])
    @pytest.mark.parametrize("chunk_size, s", [(7, 2000), (97, 12_000), (1 << 16, 140_000)])
    def test_census_series_and_resume(self, map_kind, bound, chunk_size, s, tmp_path):
        # 2^16 chunks are halved from the third on, past 2^17
        config = CensusConfig(chunk_size=chunk_size, cache_bound=bound)
        whole = _reference(map_kind, [s], bound, config.max_steps)[-1]
        assert run_census(map_kind, s, config).counts == whole
        for spacing in ("log", "linear"):
            points = run_series(map_kind, s, points=6, spacing=spacing, config=config)
            samples = [p.hi for p in points]
            assert points == _reference(map_kind, samples, bound, config.max_steps)
        # a resume halves nothing until about twice its first n
        path = tmp_path / "run.ckpt"
        for next_n in (2, s // 5, s // 2 + 1):
            prefix = _reference(map_kind, [next_n - 1], bound, config.max_steps)[-1]
            save_checkpoint(Checkpoint(prefix, s, bound, "then"), path)
            resumed = run_census(map_kind, s, config, checkpoint_path=path, resume=True)
            assert resumed.counts == whole

    @pytest.mark.parametrize("map_kind", [MapKind.CR3, MapKind.PDCR2])
    @pytest.mark.parametrize(
        "chunk_size, record, bound", [(1, 703, 17), (7, 703, 17), (97, 10087, 17), (1 << 16, 270271, 1 << 12)]
    )
    def test_abort_inside_halved_chunks(self, map_kind, chunk_size, record, bound, tmp_path):
        # each glide record is odd and past the bound; the budget is the σ of
        # the record before it, so it is the first n to fail
        max_steps = {
            MapKind.CR3: {703: 96, 10087: 132, 270271: 220},
            MapKind.PDCR2: {703: 59, 10087: 81, 270271: 135},
        }[map_kind][record]
        s = record + 1000
        config = CensusConfig(chunk_size=chunk_size, cache_bound=bound, max_steps=max_steps)
        with pytest.raises(CensusAbortError) as exc:
            run_census(map_kind, s, config)
        assert exc.value.n == record
        # and the same from a resume that halves from about 2*next_n on
        path = tmp_path / "run.ckpt"
        next_n = record // 3
        prefix = _reference(map_kind, [next_n - 1], bound, max_steps)[-1]
        save_checkpoint(Checkpoint(prefix, s, bound, "then", max_steps), path)
        with pytest.raises(CensusAbortError) as exc:
            run_census(map_kind, s, config, checkpoint_path=path, resume=True)
        assert exc.value.n == record

    def test_halving_starts_where_every_later_chunk_qualifies(self):
        # [6, 7] could be halved, but [8, 65536] holds its own half, so the
        # halved region starts after it and [6, 7] is counted whole
        cache = build_residue_cache(MapKind.CR, 2)
        sweep = census_module._Sweep(cache, 1, [5, 7, 10**6], 1 << 16, [0, 0, 0])
        assert sweep.floor == 65537
        assert not (sweep.floor <= 6 and 7 <= sweep.ceiling)
        assert sweep.floor <= 65537 and 131072 <= sweep.ceiling
        cuts = [5, 7, 300_000]
        config = CensusConfig(cache_bound=2)
        assert _tally(MapKind.CR3, cuts, config) == _reference(MapKind.CR3, cuts, 2, 10**6)
        # the chunks are [61, 100], [101, 110] and [111, 200]; [61, 100]
        # qualifies, but the region starts at the first chunk whose lo is
        # at least the chunk size, so [61, 100] is counted whole
        cuts = [60, 110, 1000]
        sweep = census_module._Sweep(cache, 1, cuts, 100, [0, 0, 0])
        assert list(walk_chunks(sweep))[1:4] == [(61, 100), (101, 110), (111, 200)]
        assert sweep.floor == 101
        assert not (sweep.floor <= 61 and 100 <= sweep.ceiling)
        assert sweep.floor <= 101 and 110 <= sweep.ceiling
        assert sweep.floor <= 111 and 200 <= sweep.ceiling
        config = CensusConfig(chunk_size=100, cache_bound=2)
        assert _tally(MapKind.CR3, cuts, config) == _reference(MapKind.CR3, cuts, 2, 10**6)

    def test_chunk_ends_are_one_grid_plus_the_cuts(self):
        # every size-th number from the first n, plus the cuts, whatever
        # cut comes before; the halved region runs from a chunk start to a
        # chunk end, and a one-chunk sweep, as census_chunk makes, is empty
        rng = random.Random("tiling")
        for _ in range(300):
            size = rng.choice([1, 2, 3, 7, rng.randrange(1, 200)])
            s = rng.randrange(1, size * rng.randrange(1, 30) + 2)
            cuts = sorted({*rng.sample(range(1, s + 1), min(s, rng.randrange(6))), s})
            start = rng.choice([1, rng.randrange(1, s + 1)])
            cuts = [c for c in cuts if c >= start]
            bound = rng.choice([2, 3, 17, rng.randrange(2, s + 2)])
            budget = rng.choice([0, 1, 10**6])
            cache = ZeroResidues(MapKind.CR, bound, budget, np.zeros(bound, np.uint8))
            sweep = census_module._Sweep(cache, start, cuts, size, [0, 0, 0])
            ends = sorted({*range(start - 1 + size, s + 1, size), *cuts})
            case = (start, cuts, size)
            windows = [sorted(rng.randint(start, s) for _ in "uv") for _ in range(5)]
            for u, v in [(start, s), *windows]:
                expected = [e for e in ends if u <= e <= v]
                assert sorted(set().union(*sweep._ends(u, v))) == expected, (case, u, v)
            for prev, end in zip([start - 1, *ends], ends):
                for n in range(prev + 1, end + 1):
                    assert sweep._chunk(n) == (prev + 1, end), (case, n)
            assert sweep.floor - 1 in [start - 1, *ends] and sweep.ceiling in ends, case
            assert sweep.floor <= sweep.ceiling + 1, case
            absorbed = []
            census_module._count(sweep, lambda hi, totals: absorbed.append(hi))
            assert absorbed == ends, case
            lo = rng.randrange(1, s + 1)
            one = census_module._Sweep(cache, lo, [s], s - lo + 1, [0, 0, 0])
            assert (one.floor, one.ceiling) == (s + 1, s), (lo, s)

    def test_needed_points_are_the_closure_of_the_chunk_ends(self):
        # the closure by its definition: from each end that borders a halved
        # chunk, halve while the value lies strictly inside a halved chunk
        rng = random.Random("closure")
        for _ in range(300):
            size = rng.choice([1, 2, 3, 7, rng.randrange(1, 4097)])
            s = rng.randrange(1, size * rng.randrange(1, 600) + 2)
            cuts = sorted({*rng.sample(range(1, s + 1), min(s, rng.randrange(6))), s})
            start = rng.choice([1, rng.randrange(1, s + 1)])
            cuts = [c for c in cuts if c >= start]
            bound = rng.choice([2, 3, 17, rng.randrange(2, s + 2)])
            budget = rng.choice([0, 1, 10**6])
            cache = ZeroResidues(MapKind.CR, bound, budget, np.zeros(bound, np.uint8))
            sweep = census_module._Sweep(cache, start, cuts, size, [0, 0, 0])
            chunks = list(walk_chunks(sweep))
            los = [lo for lo, _ in chunks]
            halved = [(lo, hi) for lo, hi in chunks if sweep.floor <= lo and hi <= sweep.ceiling]
            for lo, hi in halved:
                assert hi >= bound and lo >= 2 * start - 1 and hi < 2 * lo and budget >= 1
            if halved:  # one region of consecutive chunks
                first = chunks.index(halved[0])
                assert chunks[first : first + len(halved)] == halved

            def strictly_inside_halved(y):
                if y < start:
                    return False
                lo, hi = chunks[bisect.bisect_right(los, y) - 1]
                return sweep.floor <= lo and hi <= sweep.ceiling and y < hi

            needed = set()
            for lo, hi in halved:
                for y in (lo - 1, hi):
                    y //= 2
                    needed.add(y)
                    while strictly_inside_halved(y):
                        y //= 2
                        needed.add(y)
            absorbed = []

            def absorb(hi, totals):
                # P has stepped through [lo, hi] and kept its points there;
                # a half it read and had not kept would raise KeyError
                lo = chunks[len(absorbed)][0]
                absorbed.append(hi)
                points = sorted(y for y in sweep.memo if lo <= y <= hi)
                assert points == sorted(y for y in needed if lo <= y <= hi), (lo, hi)

            census_module._count(sweep, absorb)
            assert absorbed == [hi for _, hi in chunks]

    def test_the_sweep_looks_up_few_chunks_per_chunk(self, monkeypatch):
        # each depth takes the chunk ends whose halvings land in the chunk as
        # ranges between cuts; re-checking every halving chain took 896
        # lookups per chunk, and looking up each end about 170
        cache = ResidueCache(MapKind.CR, 1 << 25, 10**6, np.zeros(1 << 25, np.uint8))
        sweep = census_module._Sweep(cache, 1, [10**10], 1 << 16, [0, 0, 0])
        calls = 0
        chunk = census_module._Sweep._chunk

        def counting(self, n):
            nonlocal calls
            calls += 1
            return chunk(self, n)

        monkeypatch.setattr(census_module._Sweep, "_chunk", counting)
        chunks = 3511
        for (lo, hi), _ in zip(walk_chunks(sweep), range(chunks)):
            sweep.pull(lo, hi)
        # one lookup per chunk walked, and the one the zip discards; none in pull
        assert sweep.floor <= lo and hi <= sweep.ceiling and calls <= chunks + 1

    @pytest.mark.parametrize("map_kind", [MapKind.CR3, MapKind.PDCR2])
    def test_chunks_past_the_ceiling_are_counted_whole(self, map_kind, monkeypatch):
        monkeypatch.setattr(census_module, "_HALVED_ENDS", 20)
        calls = record_residues_calls(monkeypatch)
        config = CensusConfig(chunk_size=100, cache_bound=1000)
        cuts = [20_000]
        # one span of the whole region, then spans of 3 chunks
        for span in (1 << 16, 150):
            monkeypatch.setattr(census_module, "_SPAN", span)
            calls.clear()
            assert _tally(map_kind, cuts, config) == _reference(map_kind, cuts, 1000, 10**6)
            # the region is [901, 901 + 20 * 100]
            odd_calls = [(lo, hi) for lo, hi, odd in calls if odd]
            assert_tiles(odd_calls, 901, 2900, span, odd=True)

    def test_a_vast_census_starts_counting_at_once(self):
        # the look-ahead and the memo stop at the ceiling, however far S is
        class Enough(Exception):
            pass

        cache = ZeroResidues(MapKind.CR, 2, 10**6, np.zeros(2, np.uint8))
        sweep = census_module._Sweep(cache, 1, [2**100], 1 << 16, [0, 0, 0])
        absorbed = []

        def absorb(hi, totals):
            assert len(sweep.memo) <= census_module._HALVED_ENDS
            absorbed.append(hi)
            if len(absorbed) == 600:
                raise Enough

        with pytest.raises(Enough):
            census_module._count(sweep, absorb)
        assert absorbed == [j << 16 for j in range(1, 601)]
        # the last chunk end within 65537 * 2^9
        assert sweep.ceiling == 1 << 25

    def test_halved_chunks_descend_only_odd_members(self, monkeypatch):
        calls = record_residues_calls(monkeypatch)
        config = CensusConfig(chunk_size=1 << 10, cache_bound=1 << 12)
        # one span below the bound and one past it, then windows of 5000 odd members
        for span in (1 << 16, 5000):
            monkeypatch.setattr(census_module, "_SPAN", span)
            calls.clear()
            run_census(MapKind.CR3, 1 << 16, config)
            # chunks below the bound read the table; every chunk that reaches it is halved
            whole = [(lo, hi) for lo, hi, odd in calls if not odd]
            halved = [(lo, hi) for lo, hi, odd in calls if odd]
            assert_tiles(whole, 1, 3 << 10, span, odd=False)
            assert_tiles(halved, 3 << 10 | 1, 1 << 16, span, odd=True)

    def test_reads_are_windows_whatever_the_chunk_size(self, monkeypatch):
        # a read is cut only at the halved region's edges and at S: below the
        # floor every chunk size makes the same calls, and in a region every
        # read but the last holds 2^16 members, odd ones where it is halved
        calls = record_residues_calls(monkeypatch)
        s = 150_000
        windows = [(lo, min(s, lo + (1 << 16) - 1), False) for lo in range(1, s + 1, 1 << 16)]
        whole = run_census(MapKind.CR3, s).counts
        for chunk_size in (1, 97, 1000, 1 << 16, 999983):
            calls.clear()
            config = CensusConfig(chunk_size=chunk_size, cache_bound=s + 1)
            assert run_census(MapKind.CR3, s, config).counts == whole
            assert calls == windows, chunk_size
            calls.clear()
            config = CensusConfig(chunk_size=chunk_size, cache_bound=1 << 12)
            assert run_census(MapKind.CR3, s, config).counts == whole
            regions = [list(g) for _, g in itertools.groupby(calls, key=lambda call: call[2])]
            # one chunk of 999983 holds all of [1, s]: nothing is halved
            halved = [False, True] if chunk_size < s else [False]
            assert [region[0][2] for region in regions] == halved
            for region in regions:
                lo, hi, odd = region[0][0], region[-1][1], region[0][2]
                assert_tiles([call[:2] for call in region], lo, hi, 1 << 16, odd)
            assert (calls[0][0], calls[-1][1]) == (1, s)

    @pytest.mark.parametrize("map_kind", [MapKind.CR3, MapKind.PDCR2])
    def test_every_chunk_size_descends_the_same_members_once(self, map_kind, monkeypatch):
        # 2^16 + 1 starts a chunk of each size, so each halves all of
        # [2^16 + 1, s]: the kernel descends its odd members, none twice
        bound, s = (1 << 16) + 1, 67_000
        lanes = []
        descend_range = classifier._descend_range

        def recording(cache, lo, hi, walk, classes=classifier._ALL_CLASSES):
            if cache.bound == bound:  # the tally's calls, not the build's
                lanes.extend(n for n in range(lo, hi + 1) if n % 64 in classes)
            return descend_range(cache, lo, hi, walk, classes)

        monkeypatch.setattr(classifier, "_descend_range", recording)
        whole = _reference(map_kind, [s], bound, 10**6)[-1]
        for chunk_size in (1, 97, 1 << 10, 1 << 16):
            lanes.clear()
            config = CensusConfig(chunk_size=chunk_size, cache_bound=bound)
            assert run_census(map_kind, s, config).counts == whole
            assert sorted(lanes) == list(range(bound, s + 1, 2)), chunk_size

    @pytest.mark.parametrize("map_kind", [MapKind.CR3, MapKind.PDCR2])
    @pytest.mark.parametrize("chunk_size, record", [(7, 703), (97, 10087)])
    def test_abort_in_a_later_chunk_of_a_span(
        self, map_kind, chunk_size, record, watch_absorb, monkeypatch
    ):
        # the glide records of test_abort_inside_halved_chunks: one read
        # reaches from the floor past the record, so its call fails first
        # and is cut to end before the record
        max_steps = {MapKind.CR3: {703: 96, 10087: 132}, MapKind.PDCR2: {703: 59, 10087: 81}}
        s = record + 1000
        chunks = record_chunks(watch_absorb)
        calls = record_residues_calls(monkeypatch)
        progress = []
        config = CensusConfig(
            chunk_size=chunk_size, cache_bound=17, max_steps=max_steps[map_kind][record],
            progress=lambda done, target: progress.append(done),
        )

        def run():
            for log in (chunks, calls, progress):
                log.clear()
            with pytest.raises(CensusAbortError) as exc:
                run_census(map_kind, s, config)
            assert (exc.value.n, exc.value.phase) == (record, "tally")
            return list(chunks), list(progress)

        spanned = run()
        failing = next(lo for lo, hi, odd in calls if odd and lo <= record <= hi)
        held = record - (record - 1) % chunk_size  # the record's chunk
        assert failing < held  # the read's call failed past an earlier chunk
        # chunk by chunk: a read of two halved chunks holds too many members
        monkeypatch.setattr(census_module, "_SPAN", (chunk_size + 1) // 2)
        expected = [(lo, lo + chunk_size - 1) for lo in range(1, held, chunk_size)]
        assert spanned == run() == (expected, [hi for _, hi in expected])

    def test_no_chunk_is_halved_under_a_budget_of_no_steps(self, watch_absorb, monkeypatch):
        calls = record_chunks(watch_absorb)
        residues_calls = record_residues_calls(monkeypatch)
        with pytest.raises(CensusAbortError) as exc:
            run_census(MapKind.CR3, 100, CensusConfig(chunk_size=1, cache_bound=2, max_steps=0))
        assert exc.value.n == 2 and calls == [(1, 1)]
        assert residues_calls and not any(odd for *_, odd in residues_calls)

    def test_the_memo_stays_bounded(self, watch_absorb):
        # a point y is kept from the step to it until P steps past 2y + 1,
        # so at position x the memo holds points of [x/2, x]; the live set
        # is a small share of all the points ever kept
        s = 1 << 19
        expected = _reference(MapKind.CR3, [s], 1 << 10, 10**6)[-1]
        seen = set()
        peak = 0

        def watching(sweep, lo, hi, totals, absorb):
            nonlocal peak
            assert all((lo - 1) // 2 <= y <= hi for y in sweep.memo)
            seen.update(sweep.memo)
            peak = max(peak, len(sweep.memo))
            absorb(hi, totals)

        watch_absorb(watching)
        result = run_census(MapKind.CR3, s, CensusConfig(chunk_size=1000, cache_bound=1 << 10))
        assert result.counts == expected
        assert len(seen) > 1000 and peak < len(seen) // 4

    @pytest.mark.parametrize("map_kind", [MapKind.CR3, MapKind.PDCR2])
    @pytest.mark.parametrize("span", [1, 7, 50])
    @pytest.mark.parametrize("chunk_size", [100, 1000])
    def test_a_halved_chunk_read_in_several_reads(self, map_kind, span, chunk_size, monkeypatch):
        # reads of at most `span` members end inside chunks, so P carries
        # the residues read past its last point into the next read, and a
        # step's halving spans reads; the cut at 5432 ends a halved chunk
        # early and starts the next at an odd n
        monkeypatch.setattr(census_module, "_SPAN", span)
        bound, s, cuts = 1 << 10, 8000, [5432, 8000]
        config = CensusConfig(chunk_size=chunk_size, cache_bound=bound)
        labels = labels_for(map_kind)
        for start in (1, 2001):  # a resume from 2001 halves from 4001 on
            got = []

            def absorb(hi, totals):
                got.append(ClassCounts(map_kind, start, hi, dict(zip(labels, totals))))

            reached = start - 1, [0] * len(labels)
            census_module._tally(map_kind, config, bound, reached, cuts, absorb)
            ends = [c.hi for c in got]
            assert ends == sorted({*range(start + chunk_size - 1, s, chunk_size), 5432, s})
            assert got == _reference(map_kind, ends, bound, 10**6, start), start
