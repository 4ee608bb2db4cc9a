import ast
import functools
import hashlib
import inspect
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collatz_census
from collatz_census import (
    DEFAULT_STEP_BUDGET,
    NAT_MAX,
    CensusAbortError,
    ClassLabel,
    MapKind,
    NatOverflowError,
    ResidueCache,
    StepBudgetExceeded,
    build_residue_cache,
    census_chunk,
    classify_direct,
    classify_fast,
    cr_step,
    labels_for,
    pdcr_step,
    stopping_time,
    verify_range,
)
from collatz_census import classifier, oracle
from collatz_census.classifier import _descend_range
from collatz_census.oracle import _direct_block
from oracles import oracle_composite, oracle_label, oracle_sigma, oracle_step, oracle_stopping


@pytest.fixture(scope="module")
def cr_cache():
    return build_residue_cache(MapKind.CR, 1 << 16)


@pytest.fixture(scope="module")
def pdcr_cache():
    return build_residue_cache(MapKind.PDCR, 1 << 16)


class TestLabelsFor:
    @pytest.mark.parametrize(
        "map_kind, residue, label",
        [
            (MapKind.CR3, 0, 1),
            (MapKind.CR3, 1, 2),
            (MapKind.CR3, 2, 4),
            (MapKind.PDCR2, 0, 1),
            (MapKind.PDCR2, 1, 2),
        ],
    )
    def test_table(self, map_kind, residue, label):
        assert labels_for(map_kind)[residue] == label

    def test_rejects_base_maps(self):
        with pytest.raises(ValueError):
            labels_for(MapKind.CR)
        with pytest.raises(ValueError):
            labels_for(MapKind.PDCR)

    def test_residues_consistent_with_fixed_points(self):
        # each fixed point's own stopping-time residue maps back to itself
        assert [stopping_time(MapKind.CR, x).steps for x in (1, 2, 4)] == [0, 1, 2]
        assert [stopping_time(MapKind.PDCR, x).steps for x in (1, 2)] == [0, 1]


class TestClassifyDirect:
    @pytest.mark.parametrize(
        "map_kind, n, label",
        [
            (MapKind.CR3, 1, 1),
            (MapKind.CR3, 3, 2),
            (MapKind.CR3, 5, 4),
            (MapKind.PDCR2, 3, 2),
            (MapKind.PDCR2, 5, 1),
        ],
    )
    def test_examples(self, map_kind, n, label):
        outcome = classify_direct(map_kind, n)
        assert outcome.label == label
        assert outcome.path == "direct"

    def test_step_counts(self):
        # 3 -> 16 -> 2 -> 2: the third application reproduces its input
        assert classify_direct(MapKind.CR3, 3).composite_steps == 3
        assert classify_direct(MapKind.CR3, 4).composite_steps == 1
        assert classify_direct(MapKind.CR3, 8).composite_steps == 2

    def test_rejects_base_maps(self):
        with pytest.raises(ValueError):
            classify_direct(MapKind.CR, 5)

    def test_budget(self):
        with pytest.raises(StepBudgetExceeded, match="n=27 reached no new low within 3 steps"):
            classify_direct(MapKind.CR3, 27, max_steps=3)

    @given(st.integers(1, 10**5))
    @settings(max_examples=100)
    def test_budget_stability(self, n):
        # a just-sufficient budget succeeds; doubling it changes nothing
        outcome = classify_direct(MapKind.CR3, n)
        t = _steps_below(MapKind.CR, n, 2)
        exact = classify_direct(MapKind.CR3, n, max_steps=t)
        doubled = classify_direct(MapKind.CR3, n, max_steps=2 * t)
        assert exact == doubled == outcome
        if n > 1:  # 1 has reached 1 already: no budget applies
            with pytest.raises(StepBudgetExceeded):
                classify_direct(MapKind.CR3, n, max_steps=t - 1)

    def test_partitions_of_the_two_maps_differ(self):
        # 1 and 8 share a cr3 class but split under pdcr2; the two
        # partitions carry no per-number correspondence
        assert classify_direct(MapKind.CR3, 1).label == 1
        assert classify_direct(MapKind.CR3, 8).label == 1
        assert classify_direct(MapKind.PDCR2, 1).label == 1
        assert classify_direct(MapKind.PDCR2, 8).label == 2

    def test_fixed_points_classify_to_themselves(self, cr_cache, pdcr_cache):
        for x in (1, 2, 4):
            assert classify_direct(MapKind.CR3, x).label == x
            assert classify_fast(MapKind.CR3, x, cr_cache).label == x
        for x in (1, 2):
            assert classify_direct(MapKind.PDCR2, x).label == x
            assert classify_fast(MapKind.PDCR2, x, pdcr_cache).label == x


def _entry(cache, n):
    """The residue of one n, through the one-member range [n, n]."""
    return int(cache.residues(n, n)[0])


class TestResidueCache:
    def test_minimal_bound(self):
        cache = build_residue_cache(MapKind.CR, 2)
        assert cache.residues(1, 1).tolist() == [0]

    def test_cr_entries_to_ten(self):
        cache = build_residue_cache(MapKind.CR, 10)
        assert cache.residues(1, 9).tolist() == [0, 1, 1, 2, 2, 2, 1, 0, 1]

    def test_pdcr_entries_to_five(self):
        cache = build_residue_cache(MapKind.PDCR, 5)
        assert cache.residues(1, 4).tolist() == [0, 1, 1, 0]

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            build_residue_cache(MapKind.CR, 1)

    def test_rejects_composite_basis(self):
        with pytest.raises(ValueError):
            build_residue_cache(MapKind.CR3, 100)

    def test_vector_gather_matches_scalar(self, cr_cache):
        gathered = cr_cache.residues(1, 4999)
        assert [_entry(cr_cache, n) for n in range(1, 5000)] == gathered.tolist()

    def test_vector_gather_past_the_bound(self, cr_cache):
        # [1, 2^16 + 1] on a 2^16 cache: the members past the table descend
        labels = labels_for(MapKind.CR3)
        hi = cr_cache.bound + 1
        expected = [
            labels.index(classify_fast(MapKind.CR3, n, cr_cache).label) for n in range(1, hi + 1)
        ]
        assert cr_cache.residues(1, hi).tolist() == expected

    @pytest.mark.parametrize("lo, hi", [(1, 1), (1, 2), (1, (1 << 16) - 1), (777, 40_000)])
    def test_residues_below_bound_are_entries(self, lo, hi, cr_cache):
        expected = [_entry(cr_cache, n) for n in range(lo, hi + 1)]
        assert cr_cache.residues(lo, hi).tolist() == expected

    @pytest.mark.parametrize(
        "lo, hi", [(0, 10), (10, 9), (2**64 + 1, 2**64), (1, NAT_MAX + 1), (1.0, 10), (1, "9")]
    )
    def test_residues_range_checked_before_compute(self, lo, hi, cr_cache, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("computed before checking the range")

        monkeypatch.setattr(classifier, "_descend_range", forbidden)
        monkeypatch.setattr(classifier, "_descend_scalar", forbidden)
        with pytest.raises(ValueError):
            cr_cache.residues(lo, hi)

    def test_residues_below_bound_are_a_read_only_view(self, cr_cache):
        view = cr_cache.residues(100, 60_000)
        assert np.shares_memory(view, cr_cache._residues)
        assert not view.flags.writeable

    @pytest.mark.parametrize("basis", [MapKind.CR, MapKind.PDCR])
    @pytest.mark.parametrize(
        "lo, hi",
        [(1000, 1100), (2**63 - 20, 2**63 + 20), (2**64 - 40, 2**64 + 40)],
        ids=["straddles-bound", "2^63", "straddles-2^64"],
    )
    def test_residues_match_classify_fast(self, basis, lo, hi):
        cache = _cache(basis, 1 << 10)
        map_kind = MapKind.CR3 if basis is MapKind.CR else MapKind.PDCR2
        labels = labels_for(map_kind)
        expected = [
            labels.index(classify_fast(map_kind, n, cache).label) for n in range(lo, hi + 1)
        ]
        assert cache.residues(lo, hi).tolist() == expected

    @pytest.mark.parametrize("budget", [20, 40, 60])
    def test_tight_budget_names_smallest_failing_n_across_bound(self, budget):
        cache = _cache(MapKind.CR, 17, budget)

        def fails(n):
            try:
                classify_fast(MapKind.CR3, n, cache)
            except StepBudgetExceeded:
                return True
            return False

        expected = next(n for n in range(1, 3000) if fails(n))
        assert expected >= cache.bound
        with pytest.raises(StepBudgetExceeded) as exc:
            cache.residues(10, 3000)
        assert exc.value.n == expected
        # a bound past it names the same n, in the build
        with pytest.raises(StepBudgetExceeded) as exc:
            build_residue_cache(MapKind.CR, 50, budget)
        assert exc.value.n == expected

    def test_overflow_names_smallest_failing_n_beyond_uint64(self, cr_cache):
        # 2^127 halves down to 1; 2^127 + 1 is odd and 3n + 1 leaves 128 bits
        with pytest.raises(NatOverflowError) as exc:
            cr_cache.residues(2**127, 2**127 + 3)
        assert exc.value.n == 2**127 + 1

    def test_immutable_after_build(self, cr_cache):
        with pytest.raises(ValueError):
            cr_cache._residues[0] = 0

    def test_sampled_entries_match_stopping_times(self, cr_cache, pdcr_cache):
        rng = random.Random(20260809)
        for cache, basis in ((cr_cache, MapKind.CR), (pdcr_cache, MapKind.PDCR)):
            table = cache.residues(1, cache.bound - 1)
            for n in rng.sample(range(1, cache.bound), 10_000):
                assert table[n - 1] == stopping_time(basis, n).residue

    def test_spot_entries_against_oracle(self, cr_cache):
        rng = random.Random(7)
        for n in rng.sample(range(1, cr_cache.bound), 500):
            assert _entry(cr_cache, n) == oracle_stopping(n, "cr") % 3

    @given(n=st.integers(2, (1 << 16) - 1))
    @settings(max_examples=200)
    def test_residue_additivity(self, n, cr_cache, pdcr_cache):
        # one step advances the residue by one in the basis modulus
        nxt = cr_step(n)
        if nxt < cr_cache.bound:
            assert _entry(cr_cache, n) == (1 + _entry(cr_cache, nxt)) % 3
        nxt = pdcr_step(n)
        if nxt < pdcr_cache.bound:
            assert _entry(pdcr_cache, n) == (1 + _entry(pdcr_cache, nxt)) % 2


class TestClassifyFast:
    @pytest.mark.parametrize(
        "map_kind, n, label",
        [(MapKind.CR3, 27, 1), (MapKind.CR3, 8, 1), (MapKind.PDCR2, 8, 2)],
    )
    def test_examples(self, map_kind, n, label, cr_cache, pdcr_cache):
        cache = cr_cache if map_kind is MapKind.CR3 else pdcr_cache
        outcome = classify_fast(map_kind, n, cache)
        assert outcome.label == label
        assert outcome.path == "fast"
        assert outcome.composite_steps is None

    def test_above_bound_descends_into_cache(self):
        cache = build_residue_cache(MapKind.CR, 10)
        assert classify_fast(MapKind.CR3, 27, cache).label == 1
        assert classify_fast(MapKind.CR3, 97, cache).label == ClassLabel(
            oracle_label(97, "cr3")
        )

    def test_basis_mismatch(self, pdcr_cache):
        with pytest.raises(ValueError):
            classify_fast(MapKind.CR3, 5, pdcr_cache)

    @pytest.mark.parametrize("n", [27, 1000003, 10**12 + 39, 2**70 + 1])
    def test_one_member_range_is_the_only_route(self, n, monkeypatch):
        # below the bound, above it, and from 2^64 on: one residues(n, n) call
        cache = _cache(MapKind.CR, 1 << 10)
        calls = []
        residues = classifier.ResidueCache.residues

        def recording(self, lo, hi):
            calls.append((lo, hi))
            return residues(self, lo, hi)

        monkeypatch.setattr(classifier.ResidueCache, "residues", recording)
        label = classify_fast(MapKind.CR3, n, cache).label
        assert calls == [(n, n)]
        assert label == classify_direct(MapKind.CR3, n).label

    def test_budget_above_bound(self):
        cache = build_residue_cache(MapKind.CR, 2, 5)
        with pytest.raises(StepBudgetExceeded) as exc:
            classify_fast(MapKind.CR3, 27, cache)
        assert exc.value.n == 27

    def test_overflow_names_queried_number(self, cr_cache):
        big = 2**127 + 1  # odd; trajectory immediately leaves 128 bits
        with pytest.raises(NatOverflowError) as exc:
            classify_fast(MapKind.CR3, big, cr_cache)
        assert exc.value.n == big

    def test_uint64_overflowing_start_still_classifies(self, cr_cache):
        # forces the big-int lane of the vectorized sweep's scalar twin
        n = 2**63 + 1
        fast = classify_fast(MapKind.CR3, n, cr_cache)
        direct = classify_direct(MapKind.CR3, n)
        assert fast.label == direct.label

    @given(
        n=st.integers(1, 10**6),
        map_kind=st.sampled_from([MapKind.CR3, MapKind.PDCR2]),
    )
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_direct_and_oracle(self, n, map_kind, cr_cache, pdcr_cache):
        cache = cr_cache if map_kind is MapKind.CR3 else pdcr_cache
        fast = classify_fast(map_kind, n, cache)
        assert fast.label == classify_direct(map_kind, n).label
        assert fast.label == oracle_label(n, map_kind.value)


class TestVerifyRange:
    def test_cr3_small_range(self, cr_cache):
        assert verify_range(MapKind.CR3, 1, 100, cr_cache) == []

    def test_pdcr2_small_range(self, pdcr_cache):
        assert verify_range(MapKind.PDCR2, 1, 100, pdcr_cache) == []

    def test_single_fixed_point(self, cr_cache):
        assert verify_range(MapKind.CR3, 4, 4, cr_cache) == []

    def test_straddles_cache_bound(self):
        cache = build_residue_cache(MapKind.CR, 50)
        assert verify_range(MapKind.CR3, 1, 200, cache) == []

    def test_rejects_empty_range(self, cr_cache):
        with pytest.raises(ValueError):
            verify_range(MapKind.CR3, 10, 9, cr_cache)

    def test_failing_member_is_reported(self):
        # a budget every member blows through turns the whole range into mismatches
        cache = build_residue_cache(MapKind.CR, 2, 0)
        assert verify_range(MapKind.CR3, 27, 27, cache) == [27]

    def test_direct_side_runs_under_the_cache_budget(self, monkeypatch):
        budgets = []
        exact = classifier._direct_block

        def recording(map_kind, lo, hi, max_steps, *memo):
            budgets.append(max_steps)
            return exact(map_kind, lo, hi, max_steps, *memo)

        monkeypatch.setattr(classifier, "_direct_block", recording)
        cache = build_residue_cache(MapKind.CR, 17, 95)
        assert verify_range(MapKind.CR3, 1, 30, cache) == [27]
        assert budgets == [95]

    def test_rejects_cache_of_other_basis(self, pdcr_cache):
        with pytest.raises(ValueError, match="basis"):
            verify_range(MapKind.CR3, 1, 10, pdcr_cache)

    def test_reports_a_wrong_census_residue(self, monkeypatch):
        # the fast side is the census's own descent: corrupting it must show
        cache = build_residue_cache(MapKind.CR, 1 << 10)
        before = census_chunk(MapKind.CR3, 1, 10_000, cache).counts
        descend = classifier._descend_range

        def corrupted(cache, lo, hi, walk, *classes):
            out = descend(cache, lo, hi, walk, *classes).copy()
            if lo <= 5000 <= hi:
                out[5000 - lo] += 1
            return out % 3

        monkeypatch.setattr(classifier, "_descend_range", corrupted)
        assert verify_range(MapKind.CR3, 4000, 6000, cache) == [5000]
        _assert_one_count_moved(before, census_chunk(MapKind.CR3, 1, 10_000, cache).counts)

    def test_checks_what_the_census_counts(self, monkeypatch):
        # one corrupted residue below the bound moves both verify and the census
        cache = _cache(MapKind.CR, 1 << 14)
        before = census_chunk(MapKind.CR3, 1, 10_000, cache).counts
        residues_by = classifier.ResidueCache._residues_by

        def corrupted(self, lo, hi, walk, *odd):
            out = residues_by(self, lo, hi, walk, *odd).copy()
            if lo <= 5000 <= hi:
                out[5000 - lo] = (out[5000 - lo] + 1) % self.modulus
            return out

        monkeypatch.setattr(classifier.ResidueCache, "_residues_by", corrupted)
        assert verify_range(MapKind.CR3, 4000, 6000, cache) == [5000]
        _assert_one_count_moved(before, census_chunk(MapKind.CR3, 1, 10_000, cache).counts)


def _assert_one_count_moved(before, after):
    moved = {int(label): after[label] - before[label] for label in before}
    assert sorted(moved.values()) == [-1, 0, 1]


def _verify_range_scalar(map_kind, lo, hi, cache):
    """The per-n loop ``verify_range`` replaced, kept as its reference. Its
    fast label is a second route to the residue: a table read below the
    bound, one scalar walk into the table above it, never the vector kernel."""
    labels = labels_for(map_kind)
    mismatches = []
    for n in range(lo, hi + 1):
        try:
            if n < cache.bound:
                residue = cache._residues[n]
            else:
                residue = classifier._descend_scalar(cache, n)
            direct = classify_direct(map_kind, n, cache.max_steps)
        except (NatOverflowError, StepBudgetExceeded):
            mismatches.append(n)
            continue
        if labels[residue] is not direct.label:
            mismatches.append(n)
    return mismatches


@functools.cache
def _cache(basis, bound, max_steps=DEFAULT_STEP_BUDGET):
    return build_residue_cache(basis, bound, max_steps)


# the largest x whose odd cr step 3x + 1 stays within uint64; the direct
# block's per-step guard at this value gave way to the per-pass bound B
# (_PASS_MAX), and the grid keeps the window as one more range
_U64_ODD_STEP_MAX = (2**64 - 2) // 3


class TestVerifyRangeMatchesScalarLoop:
    @pytest.mark.parametrize("map_kind", [MapKind.CR3, MapKind.PDCR2])
    @pytest.mark.parametrize("bound", [2, 17, 1 << 10])
    @pytest.mark.parametrize(
        "lo, hi",
        [
            (1, 3000),
            (2**63 - 40, 2**63 + 40),
            (_U64_ODD_STEP_MAX - 30, _U64_ODD_STEP_MAX + 30),  # the former odd-step guard
            (2**64 - 60, 2**64 + 20),  # straddles uint64
            (2**100, 2**100 + 5),
        ],
        ids=["small", "2^63", "odd-step-guard", "straddles-2^64", "2^100"],
    )
    def test_grid(self, map_kind, bound, lo, hi):
        basis = classifier.basis_for(map_kind)
        for budget in (0, 1, 3, 10, 40, 60, 150, DEFAULT_STEP_BUDGET):
            try:
                cache = _cache(basis, bound, budget)
            except StepBudgetExceeded as e:
                # the build names the smallest n below the bound the walk rejects
                assert e.n == _first_raising(functools.partial(classify_direct, map_kind), budget)
                assert e.n < bound, budget
                continue
            expected = _verify_range_scalar(map_kind, lo, hi, cache)
            assert verify_range(map_kind, lo, hi, cache) == expected, budget

    @given(
        data=st.data(),
        map_kind=st.sampled_from([MapKind.CR3, MapKind.PDCR2]),
        budget=st.sampled_from([0, 3, 150, DEFAULT_STEP_BUDGET]),
        block=st.sampled_from([97, 1 << 14]),
        width=st.sampled_from([1, 7, oracle._POOL_LANES]),
    )
    @settings(max_examples=40, deadline=None)
    def test_memo_keeps_every_result(self, data, map_kind, budget, block, width):
        # random windows, small, around the pass bound B and across 2^64,
        # in blocks that end inside the memo or hold it whole, and lane
        # pools whose members join inside the window
        lo = data.draw(
            st.one_of(
                st.integers(1, 10**5),
                st.integers(_PASS_MAX[map_kind] - 300, _PASS_MAX[map_kind] + 100),
                st.integers(2**64 - 300, 2**64 + 50),
            ),
            label="lo",
        )
        hi = lo + data.draw(st.integers(0, 300), label="length")
        # a bound-2 cache is the only one budgets 0 and 3 build; the memo
        # covers the first min(hi - lo + 1, cache.bound) members
        bound = 2 if budget < 150 else data.draw(st.sampled_from([200, 1 << 10]), label="bound")
        cache = _cache(classifier.basis_for(map_kind), bound, budget)
        expected = _verify_range_scalar(map_kind, lo, hi, cache)
        with mock.patch.object(classifier, "_VERIFY_BLOCK", block), mock.patch.object(
            oracle, "_POOL_LANES", width
        ):
            assert verify_range(map_kind, lo, hi, cache) == expected

    def test_settled_member_past_the_budget_is_no_shortcut(self, monkeypatch):
        # Under budget 150 (50 cr3 passes) 10087 is the first start to fail, so
        # 10087 is the largest cache bound it builds. 10087's 42nd composite
        # iterate is 15977, whose own lane in the same pool settles after 33
        # passes: 42 + 33 > 50, so the lane may not retire there and 10087
        # still fails.
        lo, hi, n, y = 10087, 16000, 10087, 15977
        assert _composite_iterate(MapKind.CR3, n, 42) == y
        assert _literal_passes(MapKind.CR3, y) == 33
        cache = _cache(MapKind.CR, 10087, 150)
        expected = _verify_range_scalar(MapKind.CR3, lo, hi, cache)
        assert n in expected
        assert verify_range(MapKind.CR3, lo, hi, cache) == expected

        exact = oracle.classify_direct
        restarted = []

        def recording(map_kind, m, max_steps):
            restarted.append(m)
            return exact(map_kind, m, max_steps)

        monkeypatch.setattr(oracle, "classify_direct", recording)
        settled = np.zeros(hi - lo + 1, dtype=np.uint16)
        labels = _direct_block(MapKind.CR3, lo, hi, 150, settled, lo)
        assert settled[y - lo] == 33 << 3 | oracle_label(y, "cr3")
        assert labels[n - lo] == 0 and n in restarted
        # the memo restarts exactly the lanes the literal loop does
        leaving = [m for m in range(lo, hi + 1) if _leaves_numpy(MapKind.CR3, m, 150)]
        assert restarted == leaving

    def test_direct_budget_boundary(self):
        # 27 lies above a bound-17 cache, which passes under all three budgets
        t = _steps_below(MapKind.CR, 27, 2)
        assert t == 96
        for budget, expected in ((t - 1, [27]), (t, []), (t + 1, [])):
            cache = build_residue_cache(MapKind.CR, 17, budget)
            assert _verify_range_scalar(MapKind.CR3, 27, 27, cache) == expected
            assert verify_range(MapKind.CR3, 27, 27, cache) == expected
            label = 0 if expected else oracle_label(27, "cr3")
            settled = np.zeros(1, dtype=np.uint16)
            assert _direct_block(MapKind.CR3, 27, 27, budget, settled, 27).tolist() == [label]


class TestDirectBlock:
    @pytest.mark.parametrize("map_kind", [MapKind.CR3, MapKind.PDCR2])
    def test_matches_oracle_without_any_cache(self, map_kind, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the direct route used the fast route's machinery")

        for name in (
            "ResidueCache",
            "build_residue_cache",
            "_jump_tables",
            "_descend_range",
            "_descend_scalar",
            "_descend_or_fail",
            "classify_fast",
        ):
            monkeypatch.setattr(classifier, name, forbidden)
        own = np.zeros(20_000, dtype=np.uint16)
        labels = _direct_block(map_kind, 1, 20_000, DEFAULT_STEP_BUDGET, own, 1)
        assert labels.tolist() == [oracle_label(n, map_kind.value) for n in range(1, 20_001)]
        # and through one memo shared by two blocks, as verify_range runs it
        settled = np.zeros(20_000, dtype=np.uint16)
        shared = [
            _direct_block(map_kind, a, b, DEFAULT_STEP_BUDGET, settled, 1)
            for a, b in ((1, 9_000), (9_001, 20_000))
        ]
        assert np.concatenate(shared).tolist() == labels.tolist()
        # every member settled, with its label and the pass its value repeated on
        assert (settled & 7).tolist() == labels.tolist()
        for n in random.Random(19).sample(range(1, 20_001), 500):
            assert settled[n - 1] >> 3 == _literal_passes(map_kind, n)

    @pytest.mark.parametrize("map_kind", [MapKind.CR3, MapKind.PDCR2])
    def test_lanes_of_a_small_pool_count_their_own_passes(self, map_kind, monkeypatch):
        # four lanes: members join every few passes, next to lanes of every age
        monkeypatch.setattr(oracle, "_POOL_LANES", 4)
        members = range(1, 3001)
        settled = np.zeros(len(members), dtype=np.uint16)
        labels = _direct_block(map_kind, 1, 3000, DEFAULT_STEP_BUDGET, settled, 1)
        assert labels.tolist() == [oracle_label(n, map_kind.value) for n in members]
        passes = [_literal_passes(map_kind, n) for n in members]
        assert settled.tolist() == [p << 3 | int(label) for p, label in zip(passes, labels)]

        exact = oracle.classify_direct
        restarted = []

        def recording(map_kind, m, max_steps):
            restarted.append(m)
            return exact(map_kind, m, max_steps)

        monkeypatch.setattr(oracle, "classify_direct", recording)
        # the budget's exact restarts, in ascending order, as the memo test
        # above pins them
        lo, hi = 10087, 16000
        _direct_block(map_kind, lo, hi, 150, np.zeros(hi - lo + 1, dtype=np.uint16), lo)
        assert restarted == [m for m in range(lo, hi + 1) if _leaves_numpy(map_kind, m, 150)]
        # a lane stops after 2^13 - 1 passes; at a ceiling of 7 the longer
        # lanes restart, in ascending order, and keep their labels
        monkeypatch.setattr(oracle, "_MEMO_PASSES", 8)
        restarted.clear()
        settled[:] = 0
        assert _direct_block(map_kind, 1, 3000, DEFAULT_STEP_BUDGET, settled, 1).tolist() == (
            labels.tolist()
        )
        assert restarted == [n for n, p in zip(members, passes) if p > 7]
        assert settled.tolist() == [
            p << 3 | int(label) if p <= 7 else 0 for p, label in zip(passes, labels)
        ]

    @pytest.mark.parametrize("map_kind", [MapKind.CR3, MapKind.PDCR2])
    def test_verify_through_cache_descent(self, map_kind):
        cache = _cache(classifier.basis_for(map_kind), 1 << 10)
        assert verify_range(map_kind, 1, 50_000, cache) == []

    @pytest.mark.parametrize("map_kind", [MapKind.CR3, MapKind.PDCR2])
    def test_pass_bound_is_the_largest_safe_start(self, map_kind):
        bound = _PASS_MAX[map_kind]
        assert oracle._DIRECT_PASS_MAX[map_kind] == bound
        # the last 1000 starts up to B stay within uint64, and B + 1 leaves it
        assert max(_pass_peak(map_kind, x) for x in range(bound - 1000, bound + 1)) < 2**64
        assert _pass_peak(map_kind, bound + 1) >= 2**64

    @pytest.mark.parametrize("map_kind", [MapKind.CR3, MapKind.PDCR2])
    @pytest.mark.parametrize("budget", [0, 3, 150, DEFAULT_STEP_BUDGET])
    def test_window_straddling_the_pass_bound(self, map_kind, budget, monkeypatch):
        bound = _PASS_MAX[map_kind]
        lo, hi = bound - 30, bound + 30
        exact = oracle.classify_direct
        expected = []
        for n in range(lo, hi + 1):
            try:
                expected.append(int(exact(map_kind, n, budget).label))
            except (NatOverflowError, StepBudgetExceeded):
                expected.append(0)
        restarted = []

        def recording(map_kind, n, max_steps):
            restarted.append(n)
            return exact(map_kind, n, max_steps)

        monkeypatch.setattr(oracle, "classify_direct", recording)
        settled = np.zeros(hi - lo + 1, dtype=np.uint16)
        assert _direct_block(map_kind, lo, hi, budget, settled, lo).tolist() == expected
        leaving = [n for n in range(lo, hi + 1) if _leaves_numpy(map_kind, n, budget)]
        assert sorted(restarted) == leaving
        assert set(range(bound + 1, hi + 1)) <= set(restarted)
        if budget >= 150:
            # B's own trajectory reaches its fixed point within 150 steps
            assert bound not in restarted

    @pytest.mark.parametrize("map_kind", [MapKind.CR3, MapKind.PDCR2])
    @pytest.mark.parametrize("budget, cache_bound", [(0, 2), (150, 1 << 10), (10**6, 1 << 10)])
    def test_verify_straddling_the_pass_bound(self, map_kind, budget, cache_bound):
        # a bound-2 cache is the only one a budget of 0 builds
        bound = _PASS_MAX[map_kind]
        lo, hi = bound - 30, bound + 30
        cache = _cache(classifier.basis_for(map_kind), cache_bound, budget)
        expected = _verify_range_scalar(map_kind, lo, hi, cache)
        assert verify_range(map_kind, lo, hi, cache) == expected
        if budget == 0:
            assert expected == list(range(lo, hi + 1))


# what the literal route may import, and the residue route's names it may not use
_ORACLE_IMPORTS = {"__future__", "numpy", ".kernel"}
_RESIDUE_ROUTE = {
    "classifier",
    "ResidueCache",
    "build_residue_cache",
    "classify_fast",
    "_jump_tables",
    "_sieve_tables",
    "_sieve_leaves",
    "_terras",
}


def _oracle_ties(source):
    """The imports and names in ``source`` that tie it to anything but numpy
    and the kernel: modules imported other than those, and the residue
    route's names (any ``_descend*`` among them) used anywhere in its code."""
    ties = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            ties += [a.name for a in node.names if a.name not in _ORACLE_IMPORTS]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            ties += [module] if module not in _ORACLE_IMPORTS else []
        names = [getattr(node, field, None) for field in ("id", "attr", "name", "asname", "arg")]
        ties += [
            n for n in names
            if isinstance(n, str) and (n in _RESIDUE_ROUTE or n.startswith("_descend"))
        ]
    return ties


class TestOracleImports:
    def test_oracle_imports_only_numpy_and_the_kernel(self):
        assert _oracle_ties(inspect.getsource(oracle)) == []

    @pytest.mark.parametrize(
        "line, ties",
        [
            ("from .classifier import _jump_tables", [".classifier", "_jump_tables"]),
            ("from . import classifier", [".", "classifier"]),
            ("import bisect", ["bisect"]),
            ("x = _descend_range", ["_descend_range"]),
            ("def f(cache): return cache.residues(1, 2), ResidueCache", ["ResidueCache"]),
            ("y = np.zeros(3)", []),
        ],
    )
    def test_a_tie_to_the_residue_route_is_caught(self, line, ties):
        assert _oracle_ties(f"{inspect.getsource(oracle)}\n{line}\n") == ties


# the largest x from which one composite step stays within uint64:
# (2(2^64 - 1) - 5)//9 for cr3, whose highest value is (9x+5)/2, and
# (4(2^64 - 1) - 5)//9 for pdcr2, whose highest is (9x+5)/4
_PASS_MAX = {MapKind.CR3: 4099276460824344802, MapKind.PDCR2: 8198552921648689606}
_REPS = {MapKind.CR3: 3, MapKind.PDCR2: 2}


def _pass_peak(map_kind, x):
    """The highest value one composite step from x reaches, in exact arithmetic."""
    basis = classifier.basis_for(map_kind).value
    peak = x
    for _ in range(_REPS[map_kind]):
        x = oracle_step(x, basis)
        peak = max(peak, x)
    return peak


def _composite_iterate(map_kind, n, count):
    """The ``count``-th composite iterate of n, in exact arithmetic."""
    for _ in range(count):
        n = oracle_composite(n, map_kind.value)
    return n


def _literal_passes(map_kind, n):
    """The composite step on which n's value first repeats."""
    p, x = 1, n
    while (y := oracle_composite(x, map_kind.value)) != x:
        p, x = p + 1, y
    return p


def _leaves_numpy(map_kind, n, budget):
    """Whether ``_direct_block`` hands n to ``classify_direct``: n is above the
    pass bound at the start of a pass, or not yet fixed after budget // reps passes."""
    basis = classifier.basis_for(map_kind).value
    x = n
    for _ in range(budget // _REPS[map_kind]):
        if x > _PASS_MAX[map_kind]:
            return True
        y = x
        for _ in range(_REPS[map_kind]):
            y = oracle_step(y, basis)
        if y == x:
            return False
        x = y
    return True


class TestVerifyFailingMembers:
    @pytest.mark.parametrize(
        "bound, budget", [(1024, 150), (2, 0)], ids=["rare-failures", "every-member-fails"]
    )
    def test_one_range_call_per_block(self, bound, budget, monkeypatch):
        # 10087 and one later member fail under budget 150; under budget 0
        # every member from 2 on does
        cache = _cache(MapKind.CR, bound, budget)
        hi = 1 << 14
        expected = _verify_range_scalar(MapKind.CR3, 1, hi, cache)
        assert len(expected) == (2 if budget else hi - 1)
        # the marking walk marks exactly the failing members
        marked = cache._residues_by(1, hi, classifier._descend_or_fail) == classifier._FAILED
        assert (np.flatnonzero(marked) + 1).tolist() == expected
        calls = []
        residues_by = classifier.ResidueCache._residues_by

        def recording(self, lo, hi, walk):
            calls.append((lo, hi))
            return residues_by(self, lo, hi, walk)

        monkeypatch.setattr(classifier.ResidueCache, "_residues_by", recording)
        assert verify_range(MapKind.CR3, 1, hi, cache) == expected
        assert calls == [(1, hi)]  # [1, 2^14] is one block


class TestVerifyAtScale:
    @pytest.mark.parametrize("map_kind", [MapKind.CR3, MapKind.PDCR2])
    def test_one_million(self, map_kind):
        # 10^6 is the paper's pdcr2 row
        cache = build_residue_cache(classifier.basis_for(map_kind), 10**6 + 1)
        assert verify_range(map_kind, 1, 10**6, cache) == []


class TestBudgetValidation:
    @pytest.mark.parametrize("budget", [2.5, True, -1, "x", None])
    @pytest.mark.parametrize(
        "call",
        [
            lambda b: classify_direct(MapKind.CR3, 5, max_steps=b),
            lambda b: build_residue_cache(MapKind.CR, 16, max_steps=b),
        ],
        ids=["classify_direct", "build_residue_cache"],
    )
    def test_rejected_before_compute(self, call, budget):
        with pytest.raises(ValueError, match="step budget"):
            call(budget)


def _steps_below(basis, n, floor):
    """The longest run of base steps from n without a new low, before the
    value first drops below floor: the smallest budget the walk accepts."""
    low, run, longest = n, 0, 0
    while n >= floor:
        n = oracle_step(n, basis.value)
        run += 1
        if n < low:
            low, longest, run = n, max(longest, run), 0
    return longest


def _descend(basis, lo, hi, floor, max_steps=DEFAULT_STEP_BUDGET):
    """Descend [lo, hi] into the bound-``floor`` cache, under ``max_steps``."""
    cache = ResidueCache(basis, floor, max_steps, build_residue_cache(basis, floor)._residues)
    return _descend_range(cache, lo, hi, classifier._descend_scalar)


class TestJumpTables:
    @pytest.mark.parametrize("basis", [MapKind.CR, MapKind.PDCR])
    def test_jump_equals_k_pdcr_steps(self, basis):
        k = classifier._JUMP_BITS
        mult, add, limit, advance = classifier._jump_tables(basis)
        assert len(mult) == len(add) == len(limit) == len(advance) == 1 << k
        for r in range(1 << k):
            lim = int(limit[r])
            for q in (0, 1, 12345, lim - 1, lim):
                if q == 0 and r == 0:
                    continue
                x, odd = (q << k) | r, 0
                for _ in range(k):
                    odd += x & 1
                    x = pdcr_step(x)
                assert int(mult[r]) * q + int(add[r]) == x
                assert int(mult[r]) == 3**odd
                steps = k + odd if basis is MapKind.CR else k
                assert int(advance[r]) == steps % (3 if basis is MapKind.CR else 2)

    def test_limit_is_exact_uint64_guard(self):
        mult, add, limit, _ = classifier._jump_tables(MapKind.CR)
        for m, d, lim in zip(mult.tolist(), add.tolist(), limit.tolist()):
            assert m * lim + d <= 2**64 - 1 < m * (lim + 1) + d


class TestSieveTables:
    @pytest.mark.parametrize("basis", [MapKind.CR, MapKind.PDCR])
    def test_class_steps_equal_j_pdcr_steps(self, basis):
        k = classifier._SIEVE_BITS
        modulus = 3 if basis is MapKind.CR else 2
        stride, landing, cost, advance = classifier._sieve_tables(basis)
        assert stride.shape == landing.shape == cost.shape == advance.shape == (k + 1, 1 << k)
        for r in range(1 << k):
            for q in (0, 1, 2, 7, 12345, 2**30 + 3):
                if q == 0 and r == 0:
                    continue
                x, odd = (q << k) | r, 0
                for j in range(k + 1):
                    assert int(stride[j, r]) * q + int(landing[j, r]) == x, (r, q, j)
                    assert int(stride[j, r]) == 3**odd * 2 ** (k - j)
                    steps = j + odd if basis is MapKind.CR else j
                    assert int(cost[j, r]) == steps
                    assert int(advance[j, r]) == steps % modulus
                    odd += x & 1
                    x = pdcr_step(x)

    def test_tables_are_read_only(self):
        for table in classifier._sieve_tables(MapKind.CR):
            assert not table.flags.writeable


class TestDescentKernel:
    @pytest.mark.parametrize("basis", [MapKind.CR, MapKind.PDCR])
    @pytest.mark.parametrize("n", [27, 97, 703, 9663, 77671, 2**40 + 27])
    @pytest.mark.parametrize("floor", [2, 5, 16, 27])
    def test_budget_boundary_matches_stepwise_descent(self, basis, n, floor):
        t = _steps_below(basis, n, floor)
        expected = stopping_time(basis, n).residue
        for budget in (t, t + 1):
            assert _descend(basis, n, n, floor, budget).tolist() == [expected]
        with pytest.raises(StepBudgetExceeded) as exc:
            _descend(basis, n, n, floor, t - 1)
        assert exc.value.n == n

    @pytest.mark.parametrize("basis", [MapKind.CR, MapKind.PDCR])
    def test_budget_names_smallest_failing_start(self, basis):
        starts = list(range(40, 140))
        budget = 55  # σ(27) = 59 under pdcr: at 60 no start in [40, 140) fails
        failing = [n for n in starts if _steps_below(basis, n, 16) > budget]
        assert failing
        with pytest.raises(StepBudgetExceeded) as exc:
            _descend(basis, 40, 139, 16, budget)
        assert exc.value.n == min(failing)

    @pytest.mark.parametrize("basis", [MapKind.CR, MapKind.PDCR])
    def test_floor_two_finishes_without_fallback(self, basis):
        # pins the odd jump length: a lane on 2 must land on 1, not on 2 again
        def no_fallback(cache, start):
            raise AssertionError(f"start {start} fell back to the exact descent")

        cache = ResidueCache(basis, 2, DEFAULT_STEP_BUDGET, np.zeros(2, dtype=np.uint8))
        residues = _descend_range(cache, 2, 1000, no_fallback)
        assert residues.tolist() == [
            stopping_time(basis, n).residue for n in range(2, 1001)
        ]

    @pytest.mark.parametrize("basis", [MapKind.CR, MapKind.PDCR])
    def test_each_lane_gets_its_own_residue(self, basis):
        # Class-subset ranges mixing lanes that retire after several jumps
        # (2^40 and up over a 2^12 floor: a jump divides by at most 2^13),
        # lanes the uint64 guard sends back (class 63 holds r = 2^13 - 1, all
        # 13 steps odd, just below 2^64) and lanes cut off by a 14-jump budget.
        floor = 1 << 12
        max_advance = 2 * classifier._JUMP_BITS if basis is MapKind.CR else classifier._JUMP_BITS
        budget = 14 * max_advance
        cache = ResidueCache(basis, floor, budget, build_residue_cache(basis, floor)._residues)
        rng = random.Random(14)
        far_lo = rng.randrange(2**40, 2**48)
        far_hi, far_classes = far_lo + 25 * 64 - 1, sorted(rng.sample(range(64), 16))
        far = _members(far_lo, far_hi, far_classes)
        guarded = [2**64 - 1 - (i << classifier._JUMP_BITS) for i in range(4)]
        walked = []

        def recording(cache, start):
            walked.append(start)
            return classifier._descend_or_fail(cache, start)

        for lo, hi, classes in [(far_lo, far_hi, far_classes), (guarded[-1], guarded[0], [63])]:
            members = _members(lo, hi, classes)
            calls = len(walked)
            out = _descend_range(cache, lo, hi, recording, np.array(classes))
            assert out.tolist() == [classifier._descend_or_fail(cache, n) for n in members]
            assert walked[calls:] == sorted(walked[calls:])
        assert set(guarded) <= set(walked)
        assert any(n < 2**63 for n in walked)  # cut off by the budget
        assert len(set(far) - set(walked)) > 100  # retired by the vector loop


def _members(lo, hi, classes):
    """The n in [lo, hi] whose residue mod 2^6 is in ``classes``, ascending."""
    return [n for n in range(lo, hi + 1) if n % 64 in classes]


_K = classifier._JUMP_BITS
_PIECE = 1 << _K
# the largest q = n >> k from which no first jump leaves uint64 (about 1.16e13):
# at q + 1 the lane with r = 2^k - 1, all k steps odd, is the first to leave it
_Q_SAFE = int(classifier._jump_tables(MapKind.CR)[2].min())


class TestRangeEntry:
    """``residues`` above the bound, whose first jump is read off the jump
    tables piece by piece, against a per-n scalar descent."""

    @pytest.mark.parametrize("basis", [MapKind.CR, MapKind.PDCR])
    @pytest.mark.parametrize(
        "lo, hi",
        [
            (1 << 10, (1 << 10) + 3000),
            (5 * _PIECE + 1000, 5 * _PIECE + 5000),
            (3 * _PIECE + 4000, 7 * _PIECE + 3000),
            (6 * _PIECE + 77, 6 * _PIECE + 77),
            (7 * _PIECE, 7 * _PIECE),
            ((_Q_SAFE << _K) + _PIECE - 60, ((_Q_SAFE + 1) << _K) + 60),
            (((_Q_SAFE + 1) << _K) + _PIECE - 60, ((_Q_SAFE + 2) << _K) + 60),
            (2**64 - _PIECE - 40, 2**64 - _PIECE + 40),
            (2**64 - 41, 2**64 - 1),
        ],
        ids=[
            "lo-is-bound",
            "inside-one-piece",
            "several-pieces",
            "one-member",
            "one-member-at-piece-start",
            "up-to-the-guard",
            "across-the-guard",
            "near-2^64",
            "up-to-2^64-1",
        ],
    )
    def test_matches_scalar_descent(self, basis, lo, hi):
        cache = _cache(basis, 1 << 10)
        walked = []

        def recording(cache, start):
            walked.append(start)
            return classifier._descend_scalar(cache, start)

        expected = [classifier._descend_scalar(cache, n) for n in range(lo, hi + 1)]
        assert cache.residues(lo, hi).tolist() == expected
        assert cache._residues_by(lo, hi, recording).tolist() == expected
        # the first jump's uint64 guard hands its lanes to the walk
        limit = classifier._jump_tables(basis)[2]
        guarded = [n for n in range(lo, hi + 1) if n >> _K > int(limit[n % _PIECE])]
        assert set(guarded) <= set(walked)
        if lo >> _K == _Q_SAFE + 1:
            assert guarded == [((_Q_SAFE + 1) << _K) + _PIECE - 1]

    @pytest.mark.parametrize(
        "basis, budget",
        [(MapKind.CR, 25), (MapKind.CR, 20), (MapKind.PDCR, 12), (MapKind.PDCR, 7)],
    )
    def test_budget_below_one_jump_walks_every_lane(self, basis, budget):
        # a cr jump can take 26 base steps and a pdcr jump 13: under a smaller
        # budget every lane goes to the walk, in ascending order, before any jump
        cache = build_residue_cache(basis, 17, budget)
        lo, hi = 17, 3 * _PIECE // 2
        walked = []

        def recording(cache, start):
            walked.append(start)
            return classifier._descend_or_fail(cache, start)

        out = cache._residues_by(lo, hi, recording).tolist()
        assert walked == list(range(lo, hi + 1))
        assert out == [classifier._descend_or_fail(cache, n) for n in range(lo, hi + 1)]
        failing = [n for n, r in zip(range(lo, hi + 1), out) if r == classifier._FAILED]
        assert failing
        with pytest.raises(StepBudgetExceeded) as exc:
            cache.residues(lo, hi)
        assert exc.value.n == failing[0]

    @pytest.mark.parametrize("basis", [MapKind.CR, MapKind.PDCR])
    @pytest.mark.parametrize(
        "lo, hi, classes",
        [
            (5 * _PIECE + 1037, 7 * _PIECE + 3001, [0, 13, 14, 57, 63]),
            (5 * _PIECE + 1037, 7 * _PIECE + 3001, [12, 14, 56, 58]),
            (4 * _PIECE - 10, 5 * _PIECE + 100, [5, 20]),
            (6 * _PIECE + 65, 6 * _PIECE + 70, [0, 10]),
            (3 * _PIECE + 4000, 6 * _PIECE + 17, [27]),
            (3 * _PIECE + 4001, 5 * _PIECE + 17, [r for r in range(64) if r != 37]),
            (((_Q_SAFE + 1) << _K) + _PIECE - 200, ((_Q_SAFE + 2) << _K) + 60, [7, 31, 62, 63]),
            (2**64 - 3 * _PIECE - 50, 2**64 - 1, [1, 33, 63]),
        ],
        ids=[
            "ends-are-members",
            "ends-are-not-members",
            "piece-without-members",
            "no-member",
            "one-class",
            "all-classes-but-one",
            "across-the-guard",
            "up-to-2^64-1",
        ],
    )
    def test_class_subset_matches_scalar_descent(self, basis, lo, hi, classes):
        # lo % 64 = 13 and hi sits mid-piece with hi % 64 = 57, in the first
        # two cases once as a member and once between two member classes
        cache = _cache(basis, 1 << 10)
        walked = []

        def recording(cache, start):
            walked.append(start)
            return classifier._descend_scalar(cache, start)

        members = _members(lo, hi, classes)
        out = _descend_range(cache, lo, hi, recording, np.array(classes))
        assert out.tolist() == [classifier._descend_scalar(cache, n) for n in members]
        assert walked == sorted(walked)
        limit = classifier._jump_tables(basis)[2]
        guarded = [n for n in members if n >> _K > int(limit[n % _PIECE])]
        assert set(guarded) <= set(walked)
        if lo >> _K == _Q_SAFE + 1:
            assert guarded == [((_Q_SAFE + 1) << _K) + _PIECE - 1]

    @pytest.mark.parametrize("basis, budget", [(MapKind.CR, 25), (MapKind.PDCR, 12)])
    def test_class_subset_budget_below_one_jump_walks_every_member(self, basis, budget):
        cache = build_residue_cache(basis, 17, budget)
        lo, hi, classes = 60, 3 * _PIECE // 2 + 5, [3, 40, 41, 63]
        walked = []

        def recording(cache, start):
            walked.append(start)
            return classifier._descend_or_fail(cache, start)

        members = _members(lo, hi, classes)
        out = _descend_range(cache, lo, hi, recording, np.array(classes))
        assert walked == members
        assert out.tolist() == [classifier._descend_or_fail(cache, n) for n in members]


def _kernel_build(basis, bound, max_steps=DEFAULT_STEP_BUDGET):
    """Residues built one whole block at a time through the descent kernel,
    with no residue-class sieve: the reference the sieve build must match."""
    res = np.zeros(bound, dtype=np.uint8)
    a = 2
    while a < bound:
        b = min(bound, 2 * a, a + classifier._MAX_BLOCK)
        below = ResidueCache(basis, a, max_steps, res[:a])
        res[a:b] = _descend_range(below, a, b - 1, classifier._descend_scalar)
        a = b
    return res


def _outcome(build):
    """The residues a build returns, or the type and start of its error."""
    try:
        return build()
    except (StepBudgetExceeded, NatOverflowError) as e:
        return type(e), e.n


class TestSieveBuild:
    @pytest.mark.parametrize("basis", [MapKind.CR, MapKind.PDCR])
    def test_residues_match_kernel_build_across_capped_blocks(self, basis, monkeypatch):
        # a 2^12 cap cuts [2^12, 2*10^5 + 17) into blocks of 2^12 numbers
        monkeypatch.setattr(classifier, "_MAX_BLOCK", 1 << 12)
        bound = 2 * 10**5 + 17
        expected = _kernel_build(basis, bound)
        kernel_lanes = {}
        exact = classifier._descend_range

        def recording(cache, lo, hi, walk, classes):
            out = exact(cache, lo, hi, walk, classes)
            kernel_lanes[cache.bound] = len(out)
            return out

        monkeypatch.setattr(classifier, "_descend_range", recording)
        assert np.array_equal(build_residue_cache(basis, bound)._residues, expected)
        full_blocks = range(1 << 12, bound - (1 << 12), 1 << 12)
        assert len(full_blocks) == 47
        for a in full_blocks:  # each has sieved classes and kernel lanes
            assert 0 < kernel_lanes[a] < 1 << 12, a

    @pytest.mark.parametrize("basis", [MapKind.CR, MapKind.PDCR])
    @pytest.mark.parametrize("bound", [5000, 4868])
    def test_blocks_descend_into_the_cache_built_so_far(self, basis, bound, monkeypatch):
        # a block [a, b) with kernel lanes reads a read-only view of exactly the
        # a entries below it; a block of leaves alone makes no kernel call
        monkeypatch.setattr(classifier, "_MAX_BLOCK", 1 << 8)
        seen = []
        exact = classifier._descend_range

        def recording(cache, lo, hi, walk, classes):
            seen.append(
                (lo, cache.bound, len(cache._residues), cache._residues.flags.writeable, len(classes))
            )
            return exact(cache, lo, hi, walk, classes)

        monkeypatch.setattr(classifier, "_descend_range", recording)
        built = build_residue_cache(basis, bound)._residues
        assert np.array_equal(built, _kernel_build(basis, bound))
        starts = [2, 4, 8, 16, 32, 64, 128] + list(range(256, bound, 1 << 8))
        with_lanes = [
            a
            for a in starts
            if a < 64
            or classifier._sieve_leaves(basis, a, min(bound, 2 * a, a + (1 << 8)), DEFAULT_STEP_BUDGET)[1].size
        ]
        assert [lo for lo, *_ in seen] == with_lanes
        if bound == 4868:  # [4864, 4868) holds the classes 0 to 3 mod 64, all leaves
            assert with_lanes == starts[:-1]
        else:
            assert with_lanes == starts
        for lo, floor, size, writeable, classes in seen:
            assert floor == size == lo and not writeable, lo
            # below 64 the block goes whole; above, the evens are always a leaf
            assert 0 < classes <= 64 and (classes == 64) == (lo < 64), lo

    @pytest.mark.parametrize(
        "basis, bound, digest",
        [
            (MapKind.CR, 10**7 + 1, "b5a247b4c0a67ced1c3d84309671e18ed0bd64ea387a6d83003885715aa741e7"),
            (MapKind.PDCR, 10**7 + 1, "d7f2333b09ffc4783a6cf79c711b9a5196aabb4c3f2d93508fb2f09f9b168527"),
            (MapKind.CR, 1 << 20, "e0e96c36b473e3ce52626cd231238639ba09b1cd4df5ab8a3cafa7917dde72df"),
            (MapKind.PDCR, 1 << 20, "f867ba1dd313199f7a917d56a0b61b1b3506f995b9e1dede500eeeb064186cec"),
        ],
    )
    def test_cache_bytes_are_pinned(self, basis, bound, digest):
        # digests of the tables one slice per class mod 64 built: leaves change no byte
        built = build_residue_cache(basis, bound)._residues
        assert hashlib.sha256(built.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("basis", [MapKind.CR, MapKind.PDCR])
    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 8, 13, 60, 90, 100, 150])
    def test_budget_outcome_matches_kernel_build(self, basis, budget):
        bound = 2 * 10**5
        got = _outcome(lambda: build_residue_cache(basis, bound, budget)._residues)
        want = _outcome(lambda: _kernel_build(basis, bound, budget))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "basis, budget, first_failing",
        [
            (MapKind.CR, 100, 703),
            (MapKind.CR, 150, 10087),
            (MapKind.PDCR, 60, 703),
            (MapKind.PDCR, 90, 10087),
        ],
    )
    def test_budget_error_names_the_smallest_failing_start(self, basis, budget, first_failing):
        with pytest.raises(StepBudgetExceeded) as exc:
            build_residue_cache(basis, 2 * 10**5, budget)
        assert exc.value.n == first_failing


def _pdcr_walk(basis, members, j):
    """The values of ``members`` after each of 0..j ``pdcr`` steps, literally
    iterated, with the base-step cost of each: rows 0..j."""
    x, odd = members.copy(), np.zeros_like(members)
    values, costs = [], []
    for i in range(j + 1):
        values.append(x)
        costs.append(i + odd if basis is MapKind.CR else np.full_like(x, i))
        step = x & 1
        x = np.where(step == 1, (3 * x + 1) // 2, x // 2)
        odd = odd + step
    return values, costs


class TestSieveLeaves:
    """The parity tree of a build block against brute force over its members."""

    @pytest.mark.parametrize("basis", [MapKind.CR, MapKind.PDCR])
    @pytest.mark.parametrize("budget", [0, 1, 3, 8, 60, 10**6])
    def test_leaves_match_brute_force(self, basis, budget):
        k = classifier._SIEVE_BITS
        m = 1 << k
        rng = random.Random(f"leaves-{basis.value}-{budget}")
        for _ in range(12):
            a = rng.randrange(m, 1 << rng.choice([8, 12, 16, 20, 23]))
            widest = min(a, 1 << 19)  # b <= min(2a, a + 2^19)
            b = a + rng.choice([widest, rng.randint(1, widest), rng.randint(1, 200)])
            members = np.arange(a, b, dtype=np.int64)
            values, costs = _pdcr_walk(basis, members, k)
            # failing[j]: the nodes (j, r) with a member not below a within the budget
            failing = [
                set(np.unique(members[(x >= a) | (c > budget)] % (1 << j)).tolist())
                for j, (x, c) in enumerate(zip(values, costs))
            ]

            def qualifies(j, r):
                return r % (1 << j) not in failing[j]

            leaves, rest = classifier._sieve_leaves(basis, a, b, budget)
            under = []
            for j, r in leaves:
                assert 0 <= r < 1 << j and j <= k, (a, b, j, r)
                assert qualifies(j, r), (a, b, j, r)
                assert not any(qualifies(i, r) for i in range(j)), (a, b, j, r)
                under += range(r, m, 1 << j)
                own = members[members % (1 << j) == r]
                for n in own[:1].tolist() + own[-1:].tolist():  # the ends, stepwise
                    y, odd = n, 0
                    for _ in range(j):
                        odd += y & 1
                        y = pdcr_step(y)
                    assert y < a and j + odd * (basis is MapKind.CR) <= budget, (a, b, n)
            assert sorted(under + rest.tolist()) == list(range(m)), (a, b)
            for r in rest.tolist():
                assert not any(qualifies(j, r) for j in range(k + 1)), (a, b, r)


@functools.cache
def _glide_records(basis, limit=270271):
    """Every n <= limit whose stopping time σ exceeds that of all smaller n,
    with its σ, from the package-free oracle."""
    records, best = [], -1
    for n in range(1, limit + 1):
        sigma = oracle_sigma(n, basis.value)
        if sigma > best:
            records.append((n, sigma))
            best = sigma
    return records


def _first_raising(classify, budget):
    n = 1
    while True:
        try:
            classify(n, budget)
        except StepBudgetExceeded as e:
            assert e.n == n
            return n
        n += 1


class TestGlideRecords:
    """Under a budget B the first n that fails is the first glide record with
    σ > B (Roosendaal's table, http://www.ericr.nl/wondrous/glidrecs.html)."""

    @pytest.mark.parametrize("basis", [MapKind.CR, MapKind.PDCR])
    def test_oracle_pins_the_records(self, basis):
        sigmas = {
            MapKind.CR: [0, 1, 6, 11, 96, 132, 171, 220, 267],
            MapKind.PDCR: [0, 1, 4, 7, 59, 81, 105, 135, 164],
        }[basis]
        records = [1, 2, 3, 7, 27, 703, 10087, 35655, 270271]
        assert _glide_records(basis) == list(zip(records, sigmas))

    @pytest.mark.parametrize("basis", [MapKind.CR, MapKind.PDCR])
    @pytest.mark.parametrize("record", [27, 703, 10087, 35655])
    def test_build_names_the_record_and_the_next(self, basis, record):
        records = _glide_records(basis)
        i = [n for n, _ in records].index(record)
        sigma, following = records[i][1], records[i + 1][0]
        for budget, named in ((sigma - 1, record), (sigma, following)):
            with pytest.raises(StepBudgetExceeded) as exc:
                build_residue_cache(basis, following + 1, budget)
            assert exc.value.n == named, budget

    @pytest.mark.parametrize("map_kind", [MapKind.CR3, MapKind.PDCR2])
    @pytest.mark.parametrize("record", [27, 703])
    def test_classify_direct_names_the_record_and_the_next(self, map_kind, record):
        records = _glide_records(classifier.basis_for(map_kind))
        i = [n for n, _ in records].index(record)
        sigma, following = records[i][1], records[i + 1][0]

        def classify(n, budget):
            classify_direct(map_kind, n, budget)

        assert _first_raising(classify, sigma - 1) == record
        assert _first_raising(classify, sigma) == following


class TestBudgetIsTheCaches:
    """A cache is built under one budget and every call through it uses that
    budget, so which n fails never depends on the cache bound."""

    @pytest.mark.parametrize(
        "map_kind, budget",
        [
            (MapKind.CR3, 50),
            (MapKind.CR3, 96),
            (MapKind.CR3, 150),
            (MapKind.PDCR2, 58),
            (MapKind.PDCR2, 59),
            (MapKind.PDCR2, 90),
        ],
    )
    @pytest.mark.parametrize("bound", [2, 17, 1024, 1 << 16])
    def test_outcome_does_not_depend_on_the_bound(self, map_kind, budget, bound):
        basis = classifier.basis_for(map_kind)
        r = next(n for n, sigma in _glide_records(basis) if sigma > budget)
        assert r in (27, 703, 10087)
        if r < bound:
            with pytest.raises(StepBudgetExceeded) as exc:
                build_residue_cache(basis, bound, budget)
            assert exc.value.n == r
            return
        cache = build_residue_cache(basis, bound, budget)
        with pytest.raises(CensusAbortError) as exc:
            census_chunk(map_kind, 1, 11_000, cache)
        assert exc.value.n == r
        with pytest.raises(StepBudgetExceeded) as exc:
            cache.residues(1, 11_000)
        assert exc.value.n == r
        with pytest.raises(StepBudgetExceeded) as exc:
            classify_fast(map_kind, r, cache)
        assert exc.value.n == r
        classify_fast(map_kind, r - 1, cache)
        assert verify_range(map_kind, max(1, r - 50), r + 50, cache)[0] == r

    def test_no_call_through_a_cache_takes_a_budget(self):
        callables = [getattr(collatz_census, name) for name in collatz_census.__all__]
        methods = [
            getattr(ResidueCache, name)
            for name in vars(ResidueCache)
            if not name.startswith("_") and inspect.isfunction(getattr(ResidueCache, name))
        ]
        assert ResidueCache.residues in methods
        checked = set()
        for fn in [f for f in callables if inspect.isfunction(f)] + methods:
            params = inspect.signature(fn).parameters
            if "cache" in params or fn in methods:
                assert "max_steps" not in params, fn.__qualname__
                checked.add(fn.__qualname__)
        assert {
            "ResidueCache.residues",
            "census_chunk",
            "classify_fast",
            "verify_range",
        } <= checked
        assert build_residue_cache(MapKind.CR, 100, 500).max_steps == 500


class TestResidueCacheChecksItsInput:
    # the three calls that once returned short or raised a bare IndexError
    # now stop at the constructor, before any compute
    def test_short_table_is_refused(self):
        with pytest.raises(ValueError, match="100 entries"):
            ResidueCache(MapKind.CR, 100, 10**6, np.zeros(10, np.uint8))

    @pytest.mark.parametrize(
        "basis, bound, max_steps, table",
        [
            (MapKind.CR, 100, 10**6, np.zeros(101, np.uint8)),
            (MapKind.CR, 100, 10**6, np.zeros((10, 10), np.uint8)),
            (MapKind.CR, 100, 10**6, np.zeros(100, np.int64)),
            (MapKind.CR, 100, 10**6, [0] * 100),
            (MapKind.CR, 1, 10**6, np.zeros(1, np.uint8)),
            (MapKind.CR, True, 10**6, np.zeros(1, np.uint8)),
            (MapKind.CR, 2.0, 10**6, np.zeros(2, np.uint8)),
            (MapKind.CR3, 100, 10**6, np.zeros(100, np.uint8)),
            ("cr", 100, 10**6, np.zeros(100, np.uint8)),
            (MapKind.CR, 100, -1, np.zeros(100, np.uint8)),
            (MapKind.CR, 100, 1.5, np.zeros(100, np.uint8)),
        ],
        ids=[
            "long", "2-D", "int64", "list", "bound-1", "bound-True", "bound-float",
            "composite-basis", "basis-str", "budget-negative", "budget-float",
        ],
    )
    def test_bad_input_is_a_value_error(self, basis, bound, max_steps, table):
        with pytest.raises(ValueError):
            ResidueCache(basis, bound, max_steps, table)

    def test_a_valid_table_is_wrapped_uncopied(self):
        table = build_residue_cache(MapKind.PDCR, 100)._residues
        cache = ResidueCache(MapKind.PDCR, 100, 7, table)
        assert cache._residues is table and cache.max_steps == 7 and cache.modulus == 2


# windows of m for residue(2m) = residue(m) + 1: 2m below, across and above
# a 2^10 bound, and m and 2m on both sides of 2^63 and 2^64, where the
# kernel's uint64 guard and the walked tail take over
_HALF_WINDOWS = [
    (1, 300),
    (400, 700),
    (10**6, 10**6 + 400),
    (2**63 - 40, 2**63 + 40),
    (2**64 - 40, 2**64 + 40),
]


class TestEvenMembers:
    """The identity the census counts its even members by: one base step
    sends 2m to m, and from m on the walk of 2m is m's own."""

    @pytest.mark.parametrize("basis", [MapKind.CR, MapKind.PDCR])
    @pytest.mark.parametrize(
        "lo, hi, bound, budget",
        [(lo, hi, 1 << 10, budget) for lo, hi in _HALF_WINDOWS for budget in (10**6, 150)]
        # one step: every member from 3 on fails, and so does its double
        + [(lo, hi, 2, 1) for lo, hi in _HALF_WINDOWS[:2]],
    )
    def test_residue_of_2m_is_one_more_than_m(self, basis, lo, hi, bound, budget):
        # under any budget of at least one step, 2m fails exactly when m does
        cache = _cache(basis, bound, budget)
        halves = cache._residues_by(lo, hi, classifier._descend_or_fail)
        doubles = cache._residues_by(2 * lo, 2 * hi, classifier._descend_or_fail)[::2]
        failed = halves == classifier._FAILED
        assert (doubles[failed] == classifier._FAILED).all()
        assert (doubles[~failed] == (halves[~failed] + 1) % cache.modulus).all()
        if budget == DEFAULT_STEP_BUDGET:
            assert not failed.any()
            assert (cache.residues(2 * lo, 2 * hi)[::2] == doubles).all()

    @pytest.mark.parametrize("basis", [MapKind.CR, MapKind.PDCR])
    def test_a_budget_of_no_steps_breaks_it(self, basis):
        # why the census halves nothing at max_steps = 0: 1 passes, 2 fails
        cache = _cache(basis, 2, 0)
        assert cache.residues(1, 1).tolist() == [0]
        with pytest.raises(StepBudgetExceeded):
            cache.residues(2, 2)


class TestOddRoute:
    @pytest.mark.parametrize("basis", [MapKind.CR, MapKind.PDCR])
    @pytest.mark.parametrize("bound", [2, 3, 17, 1 << 12])
    @pytest.mark.parametrize(
        "lo, hi",
        [
            (1, 1), (2, 2), (1, 40), (2, 41), (4000, 4200), (4095, 4097),
            (10**9, 10**9 + 3000), (2**64 - 41, 2**64 + 40), (2**64, 2**64 + 1),
        ],
    )
    def test_odd_members_of_the_all_class_result(self, basis, bound, lo, hi):
        cache = _cache(basis, bound, 150)
        every = cache._residues_by(lo, hi, classifier._descend_or_fail)
        odd = cache._residues_by(lo, hi, classifier._descend_or_fail, odd=True)
        first = lo | 1  # the first odd member
        assert odd.tolist() == every[first - lo :: 2].tolist()
        # the census's walk names the smallest failing odd member, or passes
        failing = [first + 2 * int(i) for i in np.flatnonzero(odd == classifier._FAILED)]
        if failing:
            with pytest.raises(StepBudgetExceeded) as exc:
                cache.residues(lo, hi, odd=True)
            assert exc.value.n == failing[0]
        else:
            assert cache.residues(lo, hi, odd=True).tolist() == odd.tolist()

    def test_one_kernel_call_with_the_odd_classes(self, monkeypatch):
        cache = _cache(MapKind.CR, 1 << 10)
        calls = []
        descend = classifier._descend_range

        def recording(cache, lo, hi, walk, classes=classifier._ALL_CLASSES):
            calls.append((lo, hi, classes.tolist()))
            return descend(cache, lo, hi, walk, classes)

        monkeypatch.setattr(classifier, "_descend_range", recording)
        cache.residues(1000, 5000, odd=True)
        assert calls == [(1024, 5000, list(range(1, 64, 2)))]
