"""The literal classification route, the oracle ``verify`` checks against.

:func:`classify_direct` iterates the composite map until the value repeats.
Slow, but self-contained: this module imports only numpy and
:mod:`.kernel`, and a test reads its imports and names to keep it so.

The direct side of ``verify_range``, :func:`_direct_block`, applies the
composite map literally to a span's members below 2^64 in one pool of
uint64 lanes, 3 ``cr`` or 2 ``pdcr`` steps per pass, until each value
repeats. Members join the pool in ascending order as lanes retire, and
each lane counts its own passes. The base
step is branch-free arithmetic on y >> 1 and the parity bit, and a pass
checks for overflow once: a lane above the largest value B from which one
composite step stays within uint64, (2(2^64 - 1) - 5)//9 for ``cr3`` and
(4(2^64 - 1) - 5)//9 for ``pdcr2``, goes to :func:`classify_direct` with
the rest. A lane that lands on a member the pool has already settled takes
that member's label, where the loop would have retired it anyway: the
composite map is deterministic. The direct side never touches the cache,
the jump tables or the residue rule.
"""

from __future__ import annotations

import numpy as np

from .kernel import (
    DEFAULT_STEP_BUDGET,
    _U64_LIMIT,
    ClassLabel,
    ClassificationOutcome,
    MapKind,
    NatOverflowError,
    StepBudgetExceeded,
    _validate_budget,
    _walk,
    basis_for,
    validate_nat,
)

_MEMO_PASSES = 1 << 13  # a lane runs fewer passes than this, so its memo entry fits
_POOL_LANES = 1 << 11  # members join the direct side's lane pool this many at a time
# composite map -> (base steps per composite step, a, c): with h = y >> 1, a
# base step sends y to h + (y & 1)*(a*h + c), which is 3y+1 (cr) or (3y+1)/2
# (pdcr) for odd y = 2h+1
_LOCKSTEP = {MapKind.CR3: (3, 5, 4), MapKind.PDCR2: (2, 2, 2)}
# composite map -> the largest x from which one composite step stays within
# uint64. The highest value it can reach is (9x+5)/2 under cr (steps odd, even,
# odd) and (9x+5)/4 under pdcr (odd, odd).
_DIRECT_PASS_MAX = {
    MapKind.CR3: (2 * (_U64_LIMIT - 1) - 5) // 9,
    MapKind.PDCR2: (4 * (_U64_LIMIT - 1) - 5) // 9,
}


def classify_direct(
    map_kind: MapKind, n: int, max_steps: int = DEFAULT_STEP_BUDGET
) -> ClassificationOutcome:
    """Iterate the composite map until its value repeats; that value is the class.

    Detection is literal repetition (next value equals current value), not
    membership in a known fixed-point set. The composite iterates are every
    3rd (``cr3``) or 2nd (``pdcr2``) value of the base walk :func:`_walk`,
    so the budget is the walk's: until the trajectory reaches 1, every run of
    ``max_steps`` base steps must reach a new low, or
    :class:`StepBudgetExceeded` names n.
    """
    basis = basis_for(map_kind)
    reps = _LOCKSTEP[map_kind][0]
    validate_nat(n)
    _validate_budget(max_steps)
    cur = n
    for i, x in enumerate(_walk(basis, n, max_steps), 1):
        if i % reps == 0:
            if x == cur:
                return ClassificationOutcome(ClassLabel(x), i // reps, "direct")
            cur = x


def _u64_span(lo, hi):
    """The members of [lo, hi] below 2^64, as a uint64 array."""
    hi = min(hi, _U64_LIMIT - 1)
    if lo > hi:
        return np.empty(0, dtype=np.uint64)
    # built as offset + iota: an arange stop of exactly 2**64 would not fit
    return np.uint64(lo) + np.arange(hi - lo + 1, dtype=np.uint64)


def _direct_block(map_kind, lo, hi, max_steps, settled, base):
    """Labels of every n in [lo, hi], in order, by literal composite iteration.

    Applies the composite map to the members below 2^64 in one pool of lanes,
    one composite step (``reps`` base steps) per pass. Members join in
    ascending order, 2^11 at a time, whenever fewer than 2^11 lanes are
    running, so the last lanes of one group iterate next to the next group
    instead of alone. Each lane counts its own passes, and it retires when
    the map reproduces its value; that value is its label. A lane runs at
    most ``max_steps // reps`` passes, so a retired lane reached 1 within
    ``max_steps`` base steps in all and meets :func:`_walk`'s rule: every
    run of ``max_steps`` base steps before 1 reaches a new low. It also runs
    fewer than 2^13 passes, so that its memo entry fits.

    The oracle memoizes its own results. ``settled`` is a uint16 array whose
    entry ``settled[v - base]`` belongs to the member v, ``P << 3 | label``:
    P is the pass count at which this loop saw v's value repeat, and 0 means
    not known (not retired yet, or restarted in :func:`classify_direct`).
    An entry is written the moment its lane retires. A lane whose iterate y
    after its q-th pass has a nonzero entry retires with y's label after
    q + P passes, if the lane may run that many: y is a composite iterate of
    the lane's start, the lane passed the overflow check of each of its q
    passes, and y's own P passes passed it too, so the literal loop would
    have seen the same value repeat on that very pass. Every other lane
    keeps iterating. So each label, each accept or reject and the set of
    members restarted below are those of the loop without the memo, in
    whatever order members retire; the memo uses only the determinism of
    the composite map.

    A base step has no branch. With h = y >> 1 it sends y to
    h + (y & 1)*(a*h + c): a*h + c is 5h + 4 under ``cr``, so an odd
    y = 2h + 1 goes to 6h + 4 = 3y + 1, and 2h + 2 under ``pdcr``, giving
    3h + 2 = (3y + 1)/2. On an even lane a*h + c may wrap, but it is
    multiplied by 0. Nor does a step check for overflow: one check per pass
    retires every lane above B, the largest x from which ``reps`` steps
    stay within uint64. The highest value a pass can reach from x is
    (9x + 5)/2 under ``cr3`` (steps odd, even, odd) and (9x + 5)/4 under
    ``pdcr2`` (odd, odd), so B = (2(2^64 - 1) - 5)//9 and
    (4(2^64 - 1) - 5)//9; from B + 1, which is 3 mod 4, the odd steps do
    leave uint64.

    Members at or above 2^64, lanes above B at the start of a pass and lanes
    still running after their last pass go to :func:`classify_direct` from
    their start, in ascending order, with the walk's exact budget and
    128-bit overflow checks, and get 0 if that raises. Uses no cache, jump
    table or residue.
    """
    reps, a, c = _LOCKSTEP[map_kind]
    pass_max = _DIRECT_PASS_MAX[map_kind]
    a, c = np.uint64(a), np.uint64(c)
    out = np.zeros(hi - lo + 1, dtype=np.uint8)
    below = max(0, min(hi, _U64_LIMIT - 1) - lo + 1)  # the members below 2^64
    mine = settled[lo - base :]  # from the entry of member lo on
    partial = len(mine) < below  # the memo ends inside this block
    if len(settled):  # an empty memo, as from 2^64 on, builds no uint64 bounds
        first, last = np.uint64(base), np.uint64(base + len(settled) - 1)
    cap = min(max_steps // reps, _MEMO_PASSES - 1)  # the passes a lane may run
    # the pool: each lane's value, member index and passes run. Lanes stay in
    # the order they joined, so the passes run never rise along the pool.
    x = np.empty(0, dtype=np.uint64)
    pos = np.empty(0, dtype=np.intp)
    q = np.empty(0, dtype=np.uint16)
    fallback = [np.arange(below, len(out), dtype=np.intp)]
    joined = 0

    def retire(members, entries):
        out[members] = entries & 7
        if partial:
            keep = members < len(mine)
            members, entries = members[keep], entries[keep]
        mine[members] = entries

    while joined < below or len(x):
        if len(x) < _POOL_LANES and joined < below:
            new = min(below - joined, _POOL_LANES)
            x = np.concatenate((x, _u64_span(lo + joined, lo + joined + new - 1)))
            pos = np.concatenate((pos, np.arange(joined, joined + new, dtype=np.intp)))
            q = np.concatenate((q, np.zeros(new, dtype=np.uint16)))
            joined += new
        if q[0] == cap:  # the first lanes have run their last pass
            k = np.count_nonzero(q == cap)
            fallback.append(pos[:k])
            x, pos, q = x[k:], pos[k:], q[k:]
            continue
        q += 1
        if x.max() > pass_max:
            over = x > pass_max
            fallback.append(pos[over])
            keep = ~over
            x, pos, q = x[keep], pos[keep], q[keep]
        x, fixed = _composite_step(x, reps, a, c)
        if fixed.any():
            retire(pos[fixed], x[fixed].astype(np.uint16) | q[fixed] << 3)
            keep = ~fixed
            x, pos, q = x[keep], pos[keep], q[keep]
        if len(settled):
            near = x <= last
            if base > 1:  # every value is at least 1
                near &= x >= first
            e = settled.take((x[near] - first).view(np.int64))
            qn = q[near]
            # nonzero with P <= cap - q; an entry of 0 wraps to 2^16 - 1
            hit = e - np.uint16(1) < ((cap - qn) << 3 | 7)
            if hit.any():
                near[near] = hit  # now marks the lanes that hit
                retire(pos[near], e[hit] + (qn[hit] << 3))
                keep = ~near
                x, pos, q = x[keep], pos[keep], q[keep]
    for i in np.sort(np.concatenate(fallback)):
        out[i] = _direct_label(map_kind, lo + int(i), max_steps)
    return out


def _composite_step(x, reps, a, c):
    """One composite step on every lane of the uint64 array ``x``: the new
    values, and whether each reproduced its input. A base step sends y to
    h + (y & 1)*(a*h + c), h = y >> 1, in place on one temporary."""
    one = np.uint64(1)
    y = x
    for _ in range(reps):
        h = y >> one
        step = a * h
        step += c
        step *= y & one
        step += h
        y = step
    return y, y == x


def _direct_label(map_kind, n, max_steps):
    """:func:`classify_direct`'s label of n as an int, 0 if it raises."""
    try:
        return int(classify_direct(map_kind, n, max_steps).label)
    except (NatOverflowError, StepBudgetExceeded):
        return 0
