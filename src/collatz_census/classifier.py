"""Fixed-point classification for the composite maps: the residue route.

Every positive integer, iterated under ``cr3`` (or ``pdcr2``), eventually
becomes constant at one of the map's fixed points; that fixed point is the
number's class. ``classify_fast`` exploits the cycle structure of the base
map: once a base trajectory reaches 1, the values cycle with period 3
(1, 4, 2) under ``cr`` or period 2 (1, 2) under ``pdcr``, so the
eventually-constant composite value is a fixed function of the stopping
time modulo the cycle length. The residues for all n below a bound are
precomputed into a :class:`ResidueCache`, one uint8 per n; numbers above
the bound only iterate until they descend into it. A single n is the
one-member range [n, n] of :meth:`ResidueCache.residues`, the route a
census chunk counts. The literal route, ``classify_direct``, is the
module :mod:`.oracle`, which imports nothing from here.

A step budget ``max_steps`` means one thing on every route, set by the
scalar walk :func:`.kernel._walk`: until the trajectory reaches 1, every run of
``max_steps`` base-map steps must reach a new low. Whether n passes depends
on n and ``max_steps`` alone, never on a cache bound, block layout, jump
length or sieve. The vector paths accept only lanes that finish within
``max_steps`` base steps in all, which implies the rule, and hand every
other lane to the walk. A cache is built under one budget and keeps it as
:attr:`ResidueCache.max_steps`; every call through the cache uses that
budget and takes none of its own, so a cache's entries and the descent
above its bound are always judged by the same rule.

The cache build and the descent above the bound (:meth:`ResidueCache.residues`)
share one kernel, :func:`_descend_range`, and every descent goes into a
:class:`ResidueCache`: its bound is the floor, its table gives the landing
residues and its ``max_steps`` is the budget. A build block [a, b) descends
into a read-only view of the cache built so far, bound a; ``classify
--path fast`` into the two-entry cache of bound 2, so it builds no table.
The kernel moves whole arrays of values k base steps per numpy pass through
Terras' jump tables, T^k(2^k*q + r) = 3^c(r)*q + d(r) under ``pdcr``, and
hands the rare lane that would outgrow uint64 or the step budget to a
per-lane walk, the exact big-int descent. That walk alone decides what a
failing member does: the build, the census and ``classify_fast`` pass
:func:`_descend_scalar`, which raises at the smallest failing start, and
``verify_range`` passes :func:`_descend_or_fail`, which marks it
``_FAILED``. The kernel's lanes are the members of a range [lo, hi] in a
set of residue classes mod 2^s, s = ``_SIEVE_BITS``: every class for a
range above the bound, the odd ones for a census chunk there, the classes
the sieve leaves for a build block. As
2^s divides 2^k, the members of a piece [2^k*q, 2^k*(q + 1)) share q and
sit at the same offsets rho in every piece, so their first jumps are
``mult[rho]*q + add[rho]``: slices of the tables gathered once at rho, or
of the jump tables themselves for a range, with no start array and no
per-lane gathers. The build runs serially and sends the kernel only
what a sieve over the parity tree of the same Terras coefficients
leaves. A leaf is a class of lanes 2^j*q + r, j <= s, whose landings
after j ``pdcr`` steps all fall below the block floor, within the step
budget, and that no shallower such class holds. It is written as one
strided slice of the entries it lands on, with no per-lane arithmetic:
the evens of a block are the one leaf 2q + 0.

The residue rule is derived engineering, so ``verify_range`` cross-checks
the two routes in blocks of at most 2^14 numbers. Its direct side is
:func:`.oracle._direct_block`, one call per span of at most 2^18 numbers.
Its fast side is one call per block to the
code behind :meth:`ResidueCache.residues`, the route a census chunk counts,
with only the walk swapped so that a failing member reads as label 0
instead of stopping the block. Past the cache bound a census counts the
odd-class call of that code, the same kernel on half the classes, and
takes its even members from residue(2m) = residue(m) + 1; verify checks
the all-class call, and the tier-1 tests check the odd call and the
identity against it.
"""

from __future__ import annotations

import bisect
import functools

import numpy as np

from .kernel import (
    DEFAULT_STEP_BUDGET,
    _U64_LIMIT,
    ClassificationOutcome,
    MapKind,
    NatOverflowError,
    StepBudgetExceeded,
    _validate_budget,
    _walk,
    basis_for,
    basis_modulus,
    labels_for,
    validate_nat,
)
from .oracle import _direct_block

# pdcr steps per jump. Odd, so that a lane on the 1 <-> 2 cycle lands on 1:
# with an even count a lane sitting on 2 would land on 2 forever and never
# fall below a floor of 2.
_JUMP_BITS = 13
_MAX_BLOCK = 1 << 19       # cap on cache-build block length
_SIEVE_BITS = 6            # the cache build sieves the parity tree down to classes mod 2^6
_ALL_CLASSES = np.arange(1 << _SIEVE_BITS)  # a whole range, as descent-kernel classes
_ODD_CLASSES = _ALL_CLASSES[1::2]  # its odd members
# verify_range's fast side runs in blocks of this length: 2^16 measured about
# 10% more peak RSS on verify 10^5
_VERIFY_BLOCK = 1 << 14
# and its direct side in spans of this length, one lane pool each. Each span
# drains its pool to a tail, so longer spans are faster, but verify holds one
# span's labels: on verify 10^7, 2^20 measured 1.6 MiB more peak RSS than
# blocks of 2^14, and 2^18 0.4 MiB more at about 4% more time
_VERIFY_SPAN = 1 << 18
_FAILED = 255              # verify's mark for a failing member: no residue, never added to


class ResidueCache:
    """Stopping-time residues for every n below ``bound``, one uint8 per n.

    A ``cr``-basis cache stores the stopping time mod 3, a ``pdcr``-basis
    cache the stopping time mod 2. It wraps the build's own array, read-only
    and uncopied; share it freely. Build with :func:`build_residue_cache`.

    ``max_steps`` is the step budget the entries were built under. Every
    call that takes the cache descends above the bound under it:
    :meth:`residues`, and through it :func:`classify_fast`,
    :func:`verify_range` and ``census_chunk``. So whether n passes never
    depends on the bound. The constructor checks its arguments, the table's
    type and length but not its entries, and raises ``ValueError``.
    """

    __slots__ = ("basis", "bound", "max_steps", "modulus", "_residues")

    def __init__(self, basis: MapKind, bound: int, max_steps: int, residues: np.ndarray):
        if not isinstance(basis, MapKind):
            raise ValueError(f"cache basis must be a MapKind, got {basis!r}")
        self.modulus = basis_modulus(basis)  # validates the basis
        if not isinstance(bound, int) or isinstance(bound, bool) or bound < 2:
            raise ValueError(f"cache bound must be an integer >= 2, got {bound!r}")
        _validate_budget(max_steps)
        # shape and type only: a scan of every entry would read up to 32 MiB
        if (
            not isinstance(residues, np.ndarray)
            or residues.dtype != np.uint8
            or residues.shape != (bound,)
        ):
            raise ValueError(
                f"a cache of bound {bound} needs a 1-D uint8 table of {bound} entries, got "
                f"{getattr(residues, 'dtype', type(residues).__name__)} of shape "
                f"{getattr(residues, 'shape', None)}"
            )
        self.basis = basis
        self.bound = bound
        self.max_steps = max_steps
        residues.setflags(write=False)
        self._residues = residues

    @property
    def nbytes(self) -> int:
        return self._residues.nbytes

    def residues(self, lo: int, hi: int, odd: bool = False) -> np.ndarray:
        """Stopping-time residue of every n in [lo, hi], in order, one uint8 each.

        The one route from a range to its residues, and from a single n as
        [n, n]: what a census chunk counts, what :func:`classify_fast`
        labels and what :func:`verify_range` checks. Below ``bound`` it is a
        read-only view of the table, not a copy; from ``bound`` up to
        2^64 - 1 the range descends into the table through
        :func:`_descend_range`, the kernel the cache build runs, whose first
        jump is read off the jump tables; from 2^64 on each n walks alone
        through :func:`_descend_scalar`. With ``odd``, only the odd members
        of [lo, hi]. A failing member raises :class:`StepBudgetExceeded` or
        :class:`NatOverflowError` naming the smallest one. The budget is the
        cache's ``max_steps``. The range is checked before any compute.
        """
        return self._residues_by(lo, hi, _descend_scalar, odd)

    def _residues_by(self, lo, hi, walk, odd=False):
        """:meth:`residues` with ``walk`` in place of :func:`_descend_scalar`,
        for the lanes :func:`_descend_range` hands back and the members from
        2^64 on. The members from ``bound`` to 2^64 - 1 go to the kernel as
        one range of every residue class mod 2^6, the call the cache build
        makes with the classes its sieve leaves.

        ``odd`` keeps the odd members, which a census past the bound counts
        (its evens are residue(2m) = residue(m) + 1): a stride-2 slice of
        the table, the same kernel call with the 32 odd classes, and every
        other member from 2^64 on. :func:`verify_range` checks the all-class
        call; the tests pin the odd call to its odd members."""
        validate_nat(lo)
        validate_nat(hi)
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        step, classes = (2, _ODD_CLASSES) if odd else (1, _ALL_CLASSES)
        first = lo | 1 if odd else lo  # the first member
        cached = self._residues[min(first, self.bound) : min(hi + 1, self.bound) : step]
        if hi < self.bound:
            return cached
        start, stop = max(lo, self.bound), min(hi, _U64_LIMIT - 1)
        descended = np.empty(0, dtype=np.uint8)
        if start <= stop:
            descended = _descend_range(self, start, stop, walk, classes)
        tail = max(first, _U64_LIMIT + step - 1)  # the first member from 2^64 on
        walked = [walk(self, n) for n in range(tail, hi + 1, step)]
        return np.concatenate([cached, descended, np.array(walked, dtype=np.uint8)])

    def __repr__(self) -> str:
        return f"ResidueCache(basis={self.basis.value}, bound={self.bound})"


def _descend_scalar(cache, start):
    """Residue of one start >= ``cache.bound``: walk it down into the cache.

    The walk drops below the bound onto some v and adds the steps it took to
    v's entry. It is :func:`_walk` under ``cache.max_steps``, so until the
    value drops below the bound every run of ``max_steps`` steps must reach
    a new low, or :class:`StepBudgetExceeded` names ``start``. As the bound
    is at most ``start``, the landing v is a new low and the rest of the
    trajectory is v's own walk: the rule holds for ``start`` if it holds up
    to v and for v, whose entry was made under it.
    """
    for steps, x in enumerate(_walk(cache.basis, start, cache.max_steps), 1):
        if x < cache.bound:
            return (steps + int(cache._residues[x])) % cache.modulus


def _descend_or_fail(cache, start):
    """:func:`_descend_scalar`, but ``_FAILED`` where it raises."""
    try:
        return _descend_scalar(cache, start)
    except (NatOverflowError, StepBudgetExceeded):
        return _FAILED


def _terras(k, j):
    """T^j(r) and c_j(r) for every r in [0, 2^k), for j <= k.

    T is ``pdcr``; c_j(r) counts the odd steps among the first j. The first
    j parities of 2^k*q + r are those of r, so T^j(2^k*q + r) =
    3^c_j(r) * 2^(k-j) * q + T^j(r).
    """
    one = np.uint64(1)
    x = np.arange(1 << k, dtype=np.uint64)
    odd_steps = np.zeros(1 << k, dtype=np.int64)
    for _ in range(j):
        odd = (x & one).astype(bool)
        x = np.where(odd, (np.uint64(3) * x + one) >> one, x >> one)
        odd_steps += odd
    return x, odd_steps


def _base_steps(basis, j, odd_steps):
    """Base-map steps in j ``pdcr`` steps with ``odd_steps`` odd ones: each
    odd ``pdcr`` step is 3x+1 and a halving under ``cr``."""
    return j + odd_steps * (basis is MapKind.CR)


def _frozen(*tables):
    for t in tables:  # shared by every caller and thread
        t.setflags(write=False)
    return tables


@functools.cache
def _jump_tables(basis):
    """Terras' k-step tables for one basis, indexed by r in [0, 2^k).

    With k = ``_JUMP_BITS``, k applications of ``pdcr`` send 2^k*q + r to
    3^c(r)*q + d(r), where c(r) counts the odd steps among them. Returns
    ``mult`` (3^c(r)), ``add`` (d(r)), ``limit`` (the largest q for which the
    result still fits in uint64) and ``advance``: the residue advance of the
    jump, k + c(r) mod 3 for ``cr`` or k mod 2 for ``pdcr``. Built on first
    use.
    """
    k = _JUMP_BITS
    add, odd_steps = _terras(k, k)
    mult = np.uint64(3) ** odd_steps.astype(np.uint64)
    limit = (np.uint64(2**64 - 1) - add) // mult
    advance = _base_steps(basis, k, odd_steps) % basis_modulus(basis)
    return _frozen(mult, add, limit, advance.astype(np.uint8))


@functools.cache
def _sieve_tables(basis):
    """Residue-class tables for the cache build, indexed [j, r] for
    j in [0, k] and r in [0, 2^k), k = ``_SIEVE_BITS``.

    j ``pdcr`` steps send 2^k*q + r to ``stride``*q + ``landing``, with
    ``stride`` = 3^c_j(r) * 2^(k-j) and ``landing`` = T^j(r). ``cost`` is the
    number of base-map steps they take and ``advance`` the residue advance,
    ``cost`` mod the basis modulus. Built on first use.
    """
    k = _SIEVE_BITS
    rows = [_terras(k, j) for j in range(k + 1)]
    xs = np.stack([x for x, _ in rows])
    odds = np.stack([c for _, c in rows])
    j = np.arange(k + 1)[:, None]
    stride = 3**odds * (1 << (k - j))
    cost = _base_steps(basis, j, odds).astype(np.int64)
    advance = (cost % basis_modulus(basis)).astype(np.uint8)
    return _frozen(stride, xs.astype(np.int64), cost, advance)


def _reduced(v, modulus):
    """``v`` mod ``modulus`` in place, for a uint8 array below 2*modulus:
    where v < modulus, v - modulus wraps high, so the minimum is the residue."""
    return np.minimum(v, v - modulus, out=v)


def _descend_range(cache, lo, hi, walk, classes=_ALL_CLASSES):
    """Stopping-time residues of the members of [lo, hi], descended into ``cache``.

    Needs ``cache.bound`` <= lo <= hi < 2^64. The descent kernel, shared by
    :meth:`ResidueCache.residues` and the cache build, which passes the
    cache built so far. The members are the n whose residue mod m = 2^s, s =
    ``_SIEVE_BITS``, is in the sorted array ``classes``; the result holds
    theirs in ascending order of n. The range route passes every class (the
    odd ones for a census chunk past the bound), the build the classes its
    sieve leaves. Counted from 0, member i is
    m*(i // len(classes)) + classes[i % len(classes)].

    Each lane moves in lockstep by k ``pdcr`` steps at a time through
    :func:`_jump_tables` until its value v lands below the floor
    ``cache.bound``, then adds v's entry in the cache to the residue advance
    it carried through its jumps. Residues stay additive even when a jump
    passes through 1, because the terminal cycle is as long as the modulus.
    The carried advance stays below the modulus: each jump adds one below
    it and :func:`_reduced` folds the sum back, as it does the entry plus
    the advance when a lane retires, with no uint8 ``%``.
    The first jump is read off the tables: since m divides 2^k, the members
    of a piece [2^k*q, 2^k*(q + 1)) sit at the same offsets rho = m*t + r,
    r in ``classes``, in every piece, so their first jumps are
    ``mult[rho]*q + add[rho]`` over a slice of the tables gathered once at
    rho, and with every class the tables themselves: no start array and no
    per-lane gathers.

    A lane whose next jump would leave uint64, and every lane still
    descending once one more jump could exceed ``cache.max_steps`` base
    steps, is finished by ``walk(cache, start)`` from its start, in
    ascending order of start; if one jump could already exceed the budget,
    that is every lane, before any jump. Every lane the vector loop retires
    fell below the floor in at most ``max_steps`` base steps in all, so it
    meets :func:`_walk`'s rule on the way and stayed within 128 bits: the
    accept/reject decision is that of the walk. With :func:`_descend_scalar`
    as ``walk`` the error names the smallest failing start and the call
    stops there; with :func:`_descend_or_fail` a failing lane reads
    ``_FAILED``.
    """
    basis, floor, residues, max_steps = cache.basis, cache.bound, cache._residues, cache.max_steps
    modulus = cache.modulus
    k = _JUMP_BITS
    m = 1 << _SIEVE_BITS
    tables = _jump_tables(basis)
    mult, add, limit, advance = tables
    max_advance = 2 * k if basis is MapKind.CR else k
    mask = np.uint64((1 << k) - 1)
    shift = np.uint64(k)
    q_safe = limit.min()  # no lane with q at or below this can overflow
    cls = classes.tolist()
    c = len(cls)
    if c < m:
        rho = (m * np.arange((1 << k) // m)[:, None] + classes).ravel()
        tables = [t.take(rho) for t in tables]
    mult0, add0, limit0, advance0 = tables
    width = len(mult0)  # members per piece
    first = lo // m * c + bisect.bisect_left(cls, lo % m)  # members below lo
    end = (hi + 1) // m * c + bisect.bisect_left(cls, (hi + 1) % m)
    size = end - first

    out = np.empty(size, dtype=np.uint8)
    fallback = []
    if max_advance > max_steps:
        x = np.empty(0, dtype=np.uint64)
        fallback.append(np.arange(size, dtype=np.intp))
    else:
        # off the tables: a gathered first pass cost ~85 000 page faults per above-bound-cr3 call
        x = np.empty(size, dtype=np.uint64)
        acc = np.empty(size, dtype=np.uint8)
        for q in range(first // width, (end + width - 1) // width):
            i0, i1 = max(first, q * width), min(end, (q + 1) * width)
            lanes, span = slice(i0 - first, i1 - first), slice(i0 - q * width, i1 - q * width)
            # wraps only on the lanes the guard below drops
            np.multiply(mult0[span], np.uint64(q), out=x[lanes])
            x[lanes] += add0[span]
            acc[lanes] = advance0[span]
            if q > q_safe:
                fallback.append(i0 - first + (limit0[span] < q).nonzero()[0])
        below = x < floor
        keep = ~below
        if fallback:
            guarded = np.concatenate(fallback)
            below[guarded] = keep[guarded] = False
        i = below.nonzero()[0]
        out[i] = _reduced(residues.take(x.take(i).view(np.int64)) + acc.take(i), modulus)
        pos = keep.nonzero()[0]
        x, acc, jumps = x.take(pos), acc.take(pos), 1
        del below, keep, i  # the loop's first pass allocates: free the range-sized arrays now
    while x.size:
        if (jumps + 1) * max_advance > max_steps:
            fallback.append(pos)
            break
        r = (x & mask).view(np.int64)
        x >>= shift
        if x.max() > q_safe:
            over = x > limit.take(r)
            i = over.nonzero()[0]
            if i.size:
                fallback.append(pos.take(i))
                i = (~over).nonzero()[0]
                x, pos, acc, r = x.take(i), pos.take(i), acc.take(i), r.take(i)
        x *= mult.take(r)
        x += add.take(r)
        _reduced(np.add(acc, advance.take(r), out=acc), modulus)
        jumps += 1
        # nonzero + take: boolean-mask indexing measured about 3x slower per
        # lane, and np.flatnonzero about 1 us slower per call than .nonzero()
        below = x < floor
        i = below.nonzero()[0]
        if i.size:
            landed = residues.take(x.take(i).view(np.int64)) + acc.take(i)
            out[pos.take(i)] = _reduced(landed, modulus)
            i = (~below).nonzero()[0]
            x, pos, acc = x.take(i), pos.take(i), acc.take(i)

    if fallback:
        # members ascend with their position, so sorted positions walk in ascending start order
        for p in np.sort(np.concatenate(fallback)).tolist():
            i = first + p
            out[p] = walk(cache, m * (i // c) + cls[i % c])
    return out


def _sieve_leaves(basis, a, b, max_steps):
    """The leaves of the parity tree over a build block [a, b), 2^k <= a < b,
    k = ``_SIEVE_BITS``, and the classes mod 2^k under none of them.

    A node (j, r), j <= k and r < 2^j, holds the members 2^j*q + r of the
    block. They share their first j ``pdcr`` parities, so j steps send them
    to 3^c*q + T^j(r) (Terras 1976; :func:`_sieve_tables` gives these for
    every class mod 2^k). A node qualifies when all of its members land
    below a after j steps, at a base-step cost within ``max_steps``: when
    every class mod 2^k under it does, or has no member in the block. A leaf
    is a qualifying node with no qualifying ancestor. Returns the leaves as
    (j, r) pairs, shallowest first, and the sorted array of classes mod 2^k
    under no leaf, which the descent kernel takes.
    """
    stride, landing, cost, _ = _sieve_tables(basis)
    m = 1 << _SIEVE_BITS
    q0 = (a - _ALL_CLASSES + m - 1) // m  # first lane of class r is m*q0 + r
    q1 = (b - 1 - _ALL_CLASSES) // m  # last lane
    top = stride * q1 + landing  # each class's largest landing after j steps
    fits = (top < a) & (cost <= max_steps) | (q0 > q1)  # an empty class fits
    under = np.zeros(m, dtype=bool)  # the classes under a leaf found so far
    leaves = []
    for j in range(_SIEVE_BITS + 1):
        # a node's classes mod m share one status, so class r stands for node (j, r)
        new = fits[j].reshape(-1, 1 << j).all(axis=0) & ~under[: 1 << j]
        leaves += [(j, r) for r in np.flatnonzero(new).tolist()]
        under.reshape(-1, 1 << j)[:] |= new  # every class mod m under a new leaf
    return leaves, _ALL_CLASSES[~under]


def build_residue_cache(
    basis: MapKind, bound: int, max_steps: int = DEFAULT_STEP_BUDGET
) -> ResidueCache:
    """Precompute stopping-time residues for every n in [1, bound).

    Built in ascending blocks [a, b) with b <= 2a: each entry descends only
    until its value drops below a, into the cache built so far, then extends
    that entry by the steps taken (the stopping time is additive along a
    trajectory). Trajectories are free to climb far above ``bound`` in the
    process. A block reads through ``ResidueCache(basis, a, max_steps,
    res[:a])``, a read-only view of the entries below a, so an index at or
    above a raises instead of reading an entry not yet filled.

    A block from a = 2^k on, k = ``_SIEVE_BITS``, is filled leaf by leaf
    (:func:`_sieve_leaves`). A leaf (j, r) holds the members 2^j*q + r
    whose first j ``pdcr`` steps take them to 3^c*q + T^j(r) below a,
    within ``max_steps``; it is written as one strided slice of the entries
    those landings hit, plus the residue advance of the j steps. The evens
    form the leaf (1, 0) of every block: one slice, since residue(2m) =
    residue(m) + 1 under ``cr`` and ``pdcr``. The classes mod 2^k under no
    leaf go through :func:`_descend_range` as one call over [a, b - 1] into
    the cache below a, which returns their members' residues in ascending
    order; each class's share is written back as one strided slice. A block
    with no such class makes no kernel call. A leaf's lane falls below a
    within ``max_steps`` steps, so the kernel would accept it with the same
    residue: the residues, and the start a budget or overflow error names
    (the smallest failing one), are those of a build that sends every lane
    through the kernel. The blocks below 2^k, where a class holds at most
    one lane, go to the kernel whole.

    The budget is :func:`_walk`'s, whatever the block layout: until its
    trajectory reaches 1, every run of ``max_steps`` base steps from n must
    reach a new low. The build raises for the smallest n that breaks it,
    and the cache keeps the budget as :attr:`ResidueCache.max_steps`.
    """
    modulus = basis_modulus(basis)  # validates the basis
    if not isinstance(bound, int) or isinstance(bound, bool) or bound < 2:
        raise ValueError(f"cache bound must be an integer >= 2, got {bound!r}")
    _validate_budget(max_steps)
    stride, landing, _, advance = _sieve_tables(basis)
    k = _SIEVE_BITS
    m = 1 << k
    res = np.zeros(bound, dtype=np.uint8)
    a = 2
    while a < bound:
        b = min(bound, 2 * a, a + _MAX_BLOCK)
        below = ResidueCache(basis, a, max_steps, res[:a])
        if a < m:  # a class holds at most one lane: nothing to sieve
            res[a:b] = _descend_range(below, a, b - 1, _descend_scalar, _ALL_CLASSES)
            a = b
            continue
        leaves, rest = _sieve_leaves(basis, a, b, max_steps)
        for j, r in leaves:
            first = a + (r - a) % (1 << j)  # the leaf's first member, 2^j*q0 + r
            q0, q1 = (first - r) >> j, (b - 1 - r) >> j
            s, d = int(stride[j, r]) >> (k - j), int(landing[j, r])  # s = 3^c
            v = below._residues[s * q0 + d : s * q1 + d + 1 : s] + advance[j, r]
            res[first : b : 1 << j] = _reduced(v, modulus)
        if rest.size:
            out = _descend_range(below, a, b - 1, _descend_scalar, rest)
            # out ascends, so the classes take turns: the p-th to start holds out[p::len(rest)]
            for p, first in enumerate(sorted(a + (r - a) % m for r in rest.tolist())):
                res[first:b:m] = out[p :: len(rest)]
        a = b
    return ResidueCache(basis, bound, max_steps, res)


def _check_cache_basis(map_kind: MapKind, cache: ResidueCache) -> MapKind:
    """The basis of ``map_kind``, checked against the cache's."""
    basis = basis_for(map_kind)
    if cache.basis is not basis:
        raise ValueError(
            f"cache basis {cache.basis.value} does not match map {map_kind.value}"
        )
    return basis


def classify_fast(map_kind: MapKind, n: int, cache: ResidueCache) -> ClassificationOutcome:
    """Classify via the stopping-time residue, using the cache.

    The residue is ``cache.residues(n, n)``, the census's own route for the
    one-member range: a table read below the cache bound, a descent into the
    cache above it, under the cache's ``max_steps``. A failing n raises
    :class:`StepBudgetExceeded` or :class:`NatOverflowError` naming it.
    """
    _check_cache_basis(map_kind, cache)
    label = labels_for(map_kind)[cache.residues(n, n)[0]]
    return ClassificationOutcome(label, None, "fast")


def verify_range(map_kind: MapKind, lo: int, hi: int, cache: ResidueCache) -> list[int]:
    """Every n in [lo, hi] whose fast and direct labels disagree, ascending.

    Expected empty. An n where either route fails (budget, overflow) is
    reported as a mismatch rather than skipped. The direct labels come from
    one :func:`_direct_block` call per span of at most 2^18 numbers, one
    lane pool each, whose memo, 2 bytes for each of the first
    min(hi - lo + 1, ``cache.bound``) members below 2^64, is shared by every
    span, so a lane stops once it lands on a member this or an earlier span
    has settled. They are compared in blocks of at most 2^14 numbers with
    the fast labels, from one call per block to the code of
    :meth:`ResidueCache.residues`, the call a census chunk counts, with
    :func:`_descend_or_fail` as its walk: a failing member reads
    ``_FAILED``, label 0, and the rest of the block still descends. Both
    sides run under the cache's ``max_steps``. The result is that of
    calling :func:`classify_fast` and :func:`classify_direct` with that
    budget for every n.
    """
    _check_cache_basis(map_kind, cache)
    validate_nat(lo)
    validate_nat(hi)
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    # the memo of _direct_block: the first members of the range, below 2^64
    settled = np.zeros(max(0, min(hi + 1, lo + cache.bound, _U64_LIMIT) - lo), dtype=np.uint16)
    labels = np.zeros(_FAILED + 1, dtype=np.uint8)  # _FAILED reads as label 0
    labels[: cache.modulus] = labels_for(map_kind)
    mismatches = []
    for s in range(lo, hi + 1, _VERIFY_SPAN):
        t = min(hi, s + _VERIFY_SPAN - 1)
        direct = _direct_block(map_kind, s, t, cache.max_steps, settled, lo)
        for a in range(s, t + 1, _VERIFY_BLOCK):
            b = min(t, a + _VERIFY_BLOCK - 1)
            fast = labels[cache._residues_by(a, b, _descend_or_fail)]
            bad = (fast == 0) | (fast != direct[a - s : b - s + 1])
            # Python-int offsets: a + index would overflow int64 for a >= 2^63
            mismatches.extend(a + int(i) for i in np.flatnonzero(bad))
    return mismatches
