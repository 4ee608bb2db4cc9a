"""Exhaustive class censuses over [1, S].

A census counts, for every class of a composite map, how many n in [1, S]
belong to it. The residue cache is built first; then [1, S] is cut into
chunks, and one loop counts them in ascending order from what the cache's
``ResidueCache.residues`` (the call ``verify_range`` checks) gives. Chunk
ends are every size-th number from the first n, plus the cuts: S, and in a
series the sample points. It reads the residues in windows of 2^16
members whatever the chunk size, cut only at the edges of the halved region
below and at S, so no member descends twice. The running residue totals P
then step from point to point through the read: to each chunk end, where P
is handed on, and to each point a halved chunk reads; what a read holds
past its last point carries into the next read. Residues are
counted at uint8 width, one ``count_nonzero`` pass per residue, never
through ``np.bincount``, which would widen them to 8 bytes each first.
Counting is exact integer arithmetic, so every chunk size gives the same
result.

Past the cache bound a chunk descends only its odd members. One base step
sends an even 2m to m, under either basis, and from there the walk of 2m
is that of m, so residue(2m) = residue(m) + 1 and 2m passes the step
budget exactly when m does, for any budget of at least one step. The
evens of (x, y] are thus the members of (x/2, y/2] one class on, and the
ascending census has counted those already: a step of P from x to y adds
P(floor(y/2)) - P(floor(x/2)), class r's count moved to r + 1 mod the
modulus. A chunk [lo, hi] can be halved when it reaches the bound, the
budget is at least one step and P(floor((lo - 1)/2)) was recorded in this
run, which holds from about twice the first n on: a resumed run counts
whole chunks until then. The halved region runs from a chunk start to a
chunk end, [floor, ceiling], and a read never mixes its chunks with whole
ones. The floor is the first chunk start at least the chunk size and
2*start - 1 that is not below the chunk holding the bound; every chunk from
it on qualifies, since hi < lo + size <= 2*lo. The ceiling is the last
chunk end at most 2^18 chunk sizes past the floor and 2^9 times it. P is
kept only at the points a step reads, floor(e/2^k) for the chunk ends e up
to the ceiling whose halvings stay in the region, from the step to y until
P steps past 2y + 1, so the memo holds points of [x/2, x] at position x,
near half the region's chunk ends at its peak (about 34 MB at most); the
cap also bounds how many chunk ends a read walks to find its points. Past
the ceiling chunks are counted whole. An even member is never the smallest
failing n, since its half failed first, so aborts name the same n as
before. A read that fails at an n past its start is cut to end at n - 1, so
the chunks before n are absorbed first and the next read, from n, aborts,
as if each chunk were read alone.

``run_census`` and ``run_series`` share that loop: a series is a census
whose sample points are cuts as well as S. Its one running total is P, the
census prefix over [1, y] (a resumed prefix seeds it; the seed cancels in
every halving). Only counts that are kept become a :class:`ClassCounts`: a
result over [1, S], a series point and a checkpoint's completed prefix.

Long runs can periodically write a checkpoint file (a small versioned JSON
document covering the completed contiguous prefix, fsync'd and renamed into
place); a run resumed from a checkpoint finishes with byte-identical counts.
An interrupted census (``KeyboardInterrupt``) saves the completed prefix to
its checkpoint, if it has one, and raises :class:`CensusInterrupted`; a
second SIGINT or SIGTERM during that save is dropped.
"""

from __future__ import annotations

import bisect
import collections
import contextlib
import json
import numbers
import os
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from typing import Callable

import numpy as np

from .classifier import ResidueCache, _check_cache_basis, build_residue_cache
from .kernel import (
    DEFAULT_STEP_BUDGET,
    ClassLabel,
    MapKind,
    NatOverflowError,
    StepBudgetExceeded,
    _validate_budget,
    _validate_range,
    basis_for,
    labels_for,
    validate_nat,
)

CHECKPOINT_VERSION = 2

# Members per read, one residues call whatever the chunks. A descent-kernel
# call on 2^16 lanes measured faster than on 2^15 or 2^17.
_SPAN = 1 << 16
# Caps on the halved region [floor, ceiling]. The memo peaks near half its
# chunk ends, at about 259 bytes a point (34 MB for 2^18 ends). The points
# at x are found in the about 2^k chunk ends past x*2^k, for each depth k up
# to ceiling/x: about 2*ceiling/x ends in all, at most 2^(depth + 1).
_HALVED_ENDS = 1 << 18
_HALVED_DEPTH = 9


class CensusAbortError(RuntimeError):
    """A census member failed to classify; the whole run is abandoned.

    Skipping the member silently would break the count identity and could
    hide a genuine counterexample, so the offending n is surfaced instead,
    with the ``phase`` it failed in: ``"build"`` for the residue-cache
    build, ``"tally"`` for counting the chunks.
    """

    _PHASES = {"build": "the cache build", "tally": "the tally"}

    def __init__(self, n: int, cause: Exception, phase: str):
        super().__init__(f"census aborted at n={n} in {self._PHASES[phase]}: {cause}")
        self.n = n
        self.phase = phase


class CheckpointError(ValueError):
    """A checkpoint file is unreadable, malformed, or does not match the run."""


class CensusInterrupted(KeyboardInterrupt):
    """A census was interrupted; the counts over the completed prefix are kept.

    :func:`run_census` raises it in place of a ``KeyboardInterrupt`` that
    arrives during the build or the tally. ``prefix`` holds every chunk
    counted before the interrupt, and was saved to the run's checkpoint
    path, if it has one. ``next_n`` is the first n not counted. It is still a
    ``KeyboardInterrupt``, so a caller that does not catch it stops as before.
    """

    def __init__(self, prefix: "ClassCounts", checkpoint_path=None):
        super().__init__(f"census interrupted at next_n={prefix.hi + 1}")
        self.prefix = prefix
        self.checkpoint_path = checkpoint_path

    @property
    def next_n(self) -> int:
        return self.prefix.hi + 1


def decimal_fraction(count: int, total: int, places: int = 6) -> str:
    """Exact fixed-place decimal rendering of count/total (half-even)."""
    scale = 10**places
    q, r = divmod(count * scale, total)
    if 2 * r > total or (2 * r == total and q & 1):
        q += 1
    whole, frac = divmod(q, scale)
    return f"{whole}.{frac:0{places}d}"


@dataclass(frozen=True)
class ClassCounts:
    """Per-class counts over an inclusive range of starting numbers.

    The counts always sum to the range width; an empty range (hi == lo - 1)
    is the merge identity. ``fractions`` and ``decimal_fractions`` divide
    each count by that width, so they are defined only for a non-empty
    range.
    """

    map_kind: MapKind
    lo: int
    hi: int
    counts: dict[ClassLabel, int]

    def __post_init__(self):
        expected = labels_for(self.map_kind)
        if set(self.counts) != set(expected):
            raise ValueError(
                f"counts must cover exactly the classes {[int(l) for l in expected]}"
            )
        canonical = {}
        for label in expected:
            c = self.counts[label]
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise ValueError(f"invalid count for class {int(label)}: {c!r}")
            canonical[label] = c
        object.__setattr__(self, "counts", canonical)
        span = self.hi - self.lo + 1
        if span < 0:
            raise ValueError(f"invalid range [{self.lo}, {self.hi}]")
        if sum(canonical.values()) != span:
            raise ValueError(
                f"counts sum to {sum(canonical.values())}, range [{self.lo}, {self.hi}] "
                f"holds {span} numbers"
            )

    @classmethod
    def empty(cls, map_kind: MapKind, at: int = 1) -> "ClassCounts":
        """The empty counts positioned just before ``at``."""
        return cls(map_kind, at, at - 1, {label: 0 for label in labels_for(map_kind)})

    @property
    def is_empty(self) -> bool:
        return self.hi < self.lo

    @property
    def total(self) -> int:
        return self.hi - self.lo + 1

    @property
    def fractions(self) -> dict[ClassLabel, Fraction]:
        """Each class's exact share of the range."""
        return {label: Fraction(c, self.total) for label, c in self.counts.items()}

    def decimal_fractions(self, places: int = 6) -> dict[ClassLabel, str]:
        """Each class's share of the range, rounded to ``places`` decimals."""
        return {
            label: decimal_fraction(c, self.total, places) for label, c in self.counts.items()
        }


def merge(a: ClassCounts, b: ClassCounts) -> ClassCounts:
    """Combine counts over adjacent ranges; commutative, empty is identity."""
    if a.map_kind is not b.map_kind:
        raise ValueError(f"map mismatch: {a.map_kind.value} vs {b.map_kind.value}")
    if a.is_empty:
        return b if not b.is_empty else a
    if b.is_empty:
        return a
    first, second = (a, b) if a.lo <= b.lo else (b, a)
    if first.hi + 1 != second.lo:
        raise ValueError(
            f"ranges [{first.lo}, {first.hi}] and [{second.lo}, {second.hi}] "
            "are not disjoint and adjacent"
        )
    summed = {label: first.counts[label] + second.counts[label] for label in first.counts}
    return ClassCounts(a.map_kind, first.lo, second.hi, summed)


def census_chunk(map_kind: MapKind, lo: int, hi: int, cache: ResidueCache) -> ClassCounts:
    """Classify every n in [lo, hi] and tally the classes.

    Counts :meth:`ResidueCache.residues`, the call ``verify_range`` checks,
    through the tally's counting loop, one chunk that is never halved, in
    reads of at most 2^16 numbers: a slice of the cache below its bound, a
    descent into the cache above it, under the cache's ``max_steps``. Any
    member that fails aborts the chunk with the smallest offending n.

    Each read is counted at uint8 width, one ``count_nonzero(residues == r)``
    per residue r below the cache's modulus (3 passes for ``cr``, 2 for
    ``pdcr``). ``np.bincount`` would first copy the residues to intp, 8 bytes
    per number. Every residue is counted, none is "the rest", so a residue
    at or above the modulus leaves the counts short of the chunk's width and
    :class:`ClassCounts` raises ``ValueError``.
    """
    _check_cache_basis(map_kind, cache)
    _validate_range(lo, hi)
    rows = []
    sweep = _Sweep(cache, lo, [hi], hi - lo + 1, [0] * cache.modulus)
    _count(sweep, lambda _, row: rows.append(row))
    return _counts(map_kind, lo, hi, rows[0])


def _counts(map_kind, lo, hi, totals) -> ClassCounts:
    """The counts over [lo, hi] whose class ``labels_for(map_kind)[r]`` is ``totals[r]``."""
    return ClassCounts(map_kind, lo, hi, dict(zip(labels_for(map_kind), totals)))


def _add_counts(totals, residues):
    """Add the number of residues equal to r to ``totals[r]``, for each r."""
    for r in range(len(totals)):
        totals[r] += int(np.count_nonzero(residues == r))


@dataclass(frozen=True)
class EngineInfo:
    """How a census was executed; informational only."""

    chunk_size: int
    cache_bound: int
    max_steps: int
    elapsed_seconds: float


@dataclass(frozen=True)
class CensusResult:
    """A completed census: the counts over [1, S] and how they were computed."""

    counts: ClassCounts
    engine: EngineInfo


@dataclass(frozen=True)
class Checkpoint:
    """Resumable census state: the counts over the completed prefix [1, next_n-1].

    The file's map and ``next_n`` are the prefix's ``map_kind`` and
    ``hi + 1``. ``max_steps`` is the step budget the prefix was classified
    under; a resume must use the same one.
    """

    prefix: ClassCounts
    target: int
    cache_bound: int
    created_at: str
    max_steps: int = DEFAULT_STEP_BUDGET


_CHECKPOINT_FIELDS = {
    "format_version",
    "map",
    "target_s",
    "next_n",
    "partial_counts",
    "cache_bound",
    "max_steps",
    "created_at",
}


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    """Write a checkpoint atomically and durably (temp file, fsync, rename).

    The temp file is per process, so runs sharing a path never share it, and
    any failure, an interrupt included, removes it. Only ``OSError`` becomes
    :class:`CheckpointError`; anything else propagates unchanged.
    """
    prefix = checkpoint.prefix
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "map": prefix.map_kind.value,
        "target_s": checkpoint.target,
        "next_n": prefix.hi + 1,
        "partial_counts": {str(int(l)): c for l, c in prefix.counts.items()},
        "cache_bound": checkpoint.cache_bound,
        "max_steps": checkpoint.max_steps,
        "created_at": checkpoint.created_at,
    }
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
            f.flush()
            os.fsync(f.fileno())  # the rename must never expose unwritten data
        os.replace(tmp, path)
    except BaseException as e:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(e, OSError):
            raise CheckpointError(f"cannot write checkpoint {path!r}: {e.strerror or e}") from e
        raise


def _check_checkpoint_writable(path) -> None:
    """Fail before any compute if a checkpoint could not be saved at ``path``."""
    path = os.fspath(path)
    if os.path.isdir(path):
        raise CheckpointError(f"cannot write checkpoint {path!r}: it is a directory")
    tmp = f"{path}.{os.getpid()}.tmp"  # the file save_checkpoint writes first
    try:
        open(tmp, "w", encoding="utf-8").close()
        os.remove(tmp)
    except OSError as e:
        raise CheckpointError(f"cannot write checkpoint {path!r}: {e.strerror or e}") from e


def _require_int(doc: dict, key: str) -> int:
    v = doc[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise CheckpointError(f"checkpoint field {key!r} must be an integer")
    return v


def load_checkpoint(path) -> Checkpoint:
    """Read and strictly validate a checkpoint file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint: {e}") from e
    except json.JSONDecodeError as e:
        raise CheckpointError(f"checkpoint is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise CheckpointError("checkpoint must be a JSON object")
    # the version decides which fields belong, so it is checked first
    if "format_version" in doc:
        version = _require_int(doc, "format_version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            )
    unknown = set(doc) - _CHECKPOINT_FIELDS
    if unknown:
        raise CheckpointError(f"unknown checkpoint fields: {sorted(unknown)}")
    missing = _CHECKPOINT_FIELDS - set(doc)
    if missing:
        raise CheckpointError(f"missing checkpoint fields: {sorted(missing)}")
    try:
        map_kind = MapKind(doc["map"])
        labels = labels_for(map_kind)
    except ValueError as e:
        raise CheckpointError(f"invalid checkpoint map: {doc['map']!r}") from e
    target = _require_int(doc, "target_s")
    next_n = _require_int(doc, "next_n")
    cache_bound = _require_int(doc, "cache_bound")
    max_steps = _require_int(doc, "max_steps")
    if target < 1 or not 1 <= next_n <= target + 1 or cache_bound < 2 or max_steps < 0:
        raise CheckpointError("checkpoint range fields out of bounds")
    raw_counts = doc["partial_counts"]
    if not isinstance(raw_counts, dict) or set(raw_counts) != {
        str(int(l)) for l in labels
    }:
        raise CheckpointError("partial_counts must hold exactly the map's classes")
    try:
        prefix = ClassCounts(
            map_kind, 1, next_n - 1, {l: raw_counts[str(int(l))] for l in labels}
        )
    except ValueError as e:
        raise CheckpointError(f"invalid partial counts: {e}") from e
    created_at = doc["created_at"]
    if not isinstance(created_at, str):
        raise CheckpointError("created_at must be a string")
    return Checkpoint(prefix, target, cache_bound, created_at, max_steps)


@dataclass(frozen=True)
class CensusConfig:
    """Engine knobs. None of them changes the counts, only how they are computed.

    ``max_steps`` is the step budget, with one meaning on every route: until
    the trajectory of n reaches 1, every run of ``max_steps`` base-map steps
    must reach a new low (a value below every earlier one), or the run
    aborts naming n. For n itself this bounds its stopping time σ(n), the
    steps until the value first drops below n. The n a run aborts at, the
    smallest that breaks the rule, depends on ``max_steps`` alone, never on
    the other fields. A run builds its residue cache under ``max_steps``,
    and the cache carries it to every chunk.
    """

    chunk_size: int = 1 << 16
    cache_bound: int = 1 << 25
    max_steps: int = DEFAULT_STEP_BUDGET
    checkpoint_interval: float = 10.0  # seconds between checkpoint writes
    progress: Callable[[int, int], None] | None = None  # (done_through, target)


def _resolve_config(config: CensusConfig, s: int) -> int:
    """Check every field before any compute; return the cache bound for a
    run over [1, s] (never built past s + 1)."""
    for name, value, least in (
        ("chunk_size", config.chunk_size, 1),
        ("cache_bound", config.cache_bound, 2),
    ):
        if not isinstance(value, int) or isinstance(value, bool) or value < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    _validate_budget(config.max_steps)
    interval = config.checkpoint_interval
    if not isinstance(interval, numbers.Real) or isinstance(interval, bool) or not interval >= 0:
        raise ValueError(f"checkpoint_interval must be a number >= 0, got {interval!r}")
    if config.progress is not None and not callable(config.progress):
        raise ValueError(f"progress must be callable or None, got {config.progress!r}")
    return max(2, min(config.cache_bound, s + 1))


def _utc_now() -> str:
    return datetime.now(timezone.utc).replace(microsecond=0).isoformat()


class _Sweep:
    """The chunks of one ascending tally, where its reads end, and the memo:
    P (int rows, by residue, from ``totals`` at start - 1) at the points
    that halved chunks read (see the module docstring), ascending in ``_kept``.

    Chunk ends are every size-th number from the first n, start - 1 +
    j*size, plus the cuts, the last of which is S. The halved region runs
    from a chunk start to a chunk end, [floor, ceiling]; when nothing is
    halved it is the empty [S + 1, S].

    A halved chunk [lo, hi] reads P(floor((lo - 1)/2)) and P(floor(y/2))
    for every y that P steps to in it: its end hi and each needed point
    inside it. So the needed points are the closure of the chunk ends under
    y -> floor(y/2), followed while y lies strictly inside a halved chunk.
    No chain needs walking: one that lands on a chunk end e' goes on with
    the points of e' itself. So the closure is floor(e/2^k), k >= 1, for
    every chunk end e <= ceiling whose last halving floor(e/2^(k - 1))
    borders the region (k = 1: e >= floor - 1) or lies in it
    (e >= floor * 2^(k - 1)). :meth:`pull` finds a read's points from the
    chunk ends of each depth, so no list of chunks or points is built.
    """

    def __init__(self, cache, start, cuts, size, totals):
        self.cache = cache
        self.start, self.cuts, self.size = start, cuts, size
        # The floor is the first chunk start lo >= max(size, 2*start - 1),
        # from the chunk that holds the bound on. Every chunk from there on
        # qualifies: hi >= bound, both halves it reads lie in this run, and
        # hi <= lo + size - 1 < 2*lo. Under a budget of no steps 2 fails
        # while 1 passes: no chunk is halved.
        least = max(size, 2 * start - 1)
        first = max(least, cache.bound)
        self.floor = cuts[-1] + 1
        if cache.max_steps >= 1 and first <= cuts[-1]:
            lo, hi = self._chunk(first)
            self.floor = lo if lo >= least else hi + 1
        cap = min(self.floor << _HALVED_DEPTH, self.floor + _HALVED_ENDS * size, cuts[-1])
        lo, hi = self._chunk(cap)
        self.ceiling = hi if hi == cap else lo - 1
        self.memo = {start - 1: totals}
        self._kept = collections.deque([start - 1])

    def read(self, a) -> tuple[bool, int]:
        """The read from a: whether it takes only the odd members (a lies in
        the halved region), and its end b, 2^16 members on from a whatever
        the chunks. A read stays in a's region: it ends by the first of the
        chunk ends floor - 1, ceiling and S at or past a."""
        odd = self.floor <= a <= self.ceiling
        last = min(e for e in (self.floor - 1, self.ceiling, self.cuts[-1]) if e >= a)
        return odd, min(last, a + (_SPAN << odd) - 1)

    def pull(self, a, b) -> set[int]:
        """The needed points in the read [a, b]: the floor(e/2^k) in it, of
        the chunk ends e in [a*2^k, (b + 1)*2^k) that the class docstring
        admits, for the depths k with floor * 2^(k - 1) <= ceiling."""
        points = set()
        for k in range(1, (self.ceiling // self.floor).bit_length() + 1):
            least = max(a << k, self.floor - 1 if k == 1 else self.floor << (k - 1))
            if least > self.ceiling:  # least grows with k
                break
            for ends in self._ends(least, min(self.ceiling, ((b + 1) << k) - 1)):
                points.update(e >> k for e in ends)
        return points

    def _ends(self, u, v):
        """The chunk ends in [u, v], for start <= u and v <= S: the range of
        grid ends start - 1 + j*size, then the slice of cuts."""
        i, j = bisect.bisect_left(self.cuts, u), bisect.bisect_right(self.cuts, v)
        return range(u + (self.start - 1 - u) % self.size, v + 1, self.size), self.cuts[i:j]

    def _chunk(self, n):
        """The chunk [lo, hi] that holds n, for start <= n <= S: n's grid
        step, clipped by the cuts on either side of n."""
        i = bisect.bisect_left(self.cuts, n)
        lo = n - (n - self.start) % self.size  # n's grid step is [lo, lo + size - 1]
        return max(lo, self.cuts[i - 1] + 1 if i else lo), min(lo + self.size - 1, self.cuts[i])


def _count(sweep, absorb) -> None:
    """Count the sweep's chunks, calling ``absorb(hi, P(hi))`` at each chunk
    end hi: the one counting loop of the module docstring.

    Each read [a, b] is one ``residues`` call. P steps in order through the
    chunk ends and needed points y in it, each step adding the residues
    read since the last point prev, and in a halved read the evens of
    (prev, y]. P is kept at the needed points; a point below floor(y/2) is
    read by no step from y on, and is dropped.
    """
    memo, kept = sweep.memo, sweep._kept
    prev = sweep.start - 1
    totals = list(memo[prev])  # P(prev), plus the residues read past prev
    a = sweep.start
    while a <= sweep.cuts[-1]:
        odd, b = sweep.read(a)
        try:
            residues = sweep.cache.residues(a, b, odd)
        except (NatOverflowError, StepBudgetExceeded) as e:
            if e.n == a:
                raise CensusAbortError(e.n, e, "tally") from e
            b = e.n - 1  # its members all pass: absorb the chunks before n
            residues = sweep.cache.residues(a, b, odd)
        points = sweep.pull(a, b)
        ends = set().union(*sweep._ends(a, b))
        i = 0
        for y in sorted(points | ends):
            j = (y + 1) // 2 - a // 2 if odd else y + 1 - a  # the read's members up to y
            _add_counts(totals, residues[i:j])
            if odd:
                half, base = memo[y // 2], memo[prev // 2]
                for r in range(len(totals)):  # index r - 1 = -1 is the last class: the shift
                    totals[r] += half[r - 1] - base[r - 1]
            row, prev, i = totals.copy(), y, j
            if y in points:
                memo[y] = row
                kept.append(y)
            if y in ends:
                absorb(y, row)
            while kept and kept[0] < y // 2:  # the next step reads memo[y // 2] and up
                del memo[kept.popleft()]
        _add_counts(totals, residues[i:])
        a = b + 1


def _tally(map_kind, config, bound, reached, cuts, absorb) -> None:
    """The ordered-absorb engine under :func:`run_census` and :func:`run_series`.

    Builds the cache below ``bound``, then classifies on from ``reached`` =
    (hi, P(hi)) to cuts[-1] in ascending chunks that end at or before each
    cut, calling ``absorb(hi, P(hi))`` (P(hi)[r] counts the class
    ``labels_for(map_kind)[r]``) before P steps past hi. An abort therefore
    names the smallest failing n, and an error or interrupt leaves exactly
    the chunks before it absorbed. With nothing left to classify it builds
    nothing.
    """
    if reached[0] >= cuts[-1]:
        return
    try:
        cache = build_residue_cache(basis_for(map_kind), bound, config.max_steps)
    except (NatOverflowError, StepBudgetExceeded) as e:
        raise CensusAbortError(e.n, e, "build") from e
    _count(_Sweep(cache, reached[0] + 1, cuts, config.chunk_size, reached[1]), absorb)


@contextlib.contextmanager
def _signal_handlers(handler, *names):
    """Handle the signals ``names`` (such as ``"SIGTERM"``) with ``handler``
    inside the block, ignore them if it is None, and restore the previous
    handlers after it. Only the main thread can set a handler; elsewhere
    the block runs as it is."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    import signal  # here, not at the top: its enums cost other commands ~0.1 MiB of peak RSS

    signums = [getattr(signal, name) for name in names]
    previous = [signal.signal(s, handler or signal.SIG_IGN) for s in signums]
    try:
        yield
    finally:
        for s, p in zip(signums, previous):
            signal.signal(s, p)


def run_census(
    map_kind: MapKind,
    s: int,
    config: CensusConfig | None = None,
    checkpoint_path=None,
    resume: bool = False,
) -> CensusResult:
    """Count class memberships over [1, s].

    Chunks are classified one at a time in ascending range order into one
    running total, so the counts are independent of chunk size. With a
    ``checkpoint_path`` the completed prefix is saved at most once per
    ``checkpoint_interval``, plus once at completion unless the last save
    already holds [1, s];
    ``resume=True`` continues from such a file after checking that its
    version, map, target and step budget match. A ``KeyboardInterrupt``
    saves the completed prefix there too, ignoring SIGINT and SIGTERM until
    the file is in place, and surfaces as :class:`CensusInterrupted`.
    """
    config = config or CensusConfig()
    validate_nat(s)
    bound = _resolve_config(config, s)
    started = time.perf_counter()

    if resume:
        if checkpoint_path is None:
            raise CheckpointError("resume requested without a checkpoint path")
        cp = load_checkpoint(checkpoint_path)
        if cp.prefix.map_kind is not map_kind:
            raise CheckpointError(
                f"checkpoint is for map {cp.prefix.map_kind.value}, requested {map_kind.value}"
            )
        if cp.target != s:
            raise CheckpointError(f"checkpoint targets S={cp.target}, requested S={s}")
        if cp.max_steps != config.max_steps:
            raise CheckpointError(
                f"checkpoint was written under max_steps={cp.max_steps}, "
                f"requested max_steps={config.max_steps}"
            )
        reached = cp.prefix.hi, list(cp.prefix.counts.values())  # as absorb receives it
    else:
        reached = 0, [0] * len(labels_for(map_kind))
    if checkpoint_path is not None:
        _check_checkpoint_writable(checkpoint_path)

    last_write = time.monotonic()
    saved = None  # the hi of this run's last checkpoint write

    def write_checkpoint(total: ClassCounts) -> None:
        nonlocal saved
        save_checkpoint(Checkpoint(total, s, bound, _utc_now(), config.max_steps), checkpoint_path)
        saved = total.hi

    def absorb(hi: int, totals: list[int]) -> None:
        nonlocal reached, last_write
        reached = hi, totals
        if (
            checkpoint_path is not None
            and time.monotonic() - last_write >= config.checkpoint_interval
        ):
            write_checkpoint(_counts(map_kind, 1, hi, totals))
            last_write = time.monotonic()
        if config.progress is not None:
            config.progress(hi, s)

    try:
        _tally(map_kind, config, bound, reached, [s], absorb)
    except KeyboardInterrupt as e:
        total = _counts(map_kind, 1, *reached)
        if checkpoint_path is not None:
            with _signal_handlers(None, "SIGINT", "SIGTERM"):  # a second signal is dropped
                write_checkpoint(total)
        raise CensusInterrupted(total, checkpoint_path) from e

    total = _counts(map_kind, 1, *reached)
    if total.lo != 1 or total.hi != s:
        raise RuntimeError(f"census covered [{total.lo}, {total.hi}], expected [1, {s}]")
    if checkpoint_path is not None and saved != s:  # this run's last save did not hold [1, s]
        write_checkpoint(total)

    engine = EngineInfo(
        chunk_size=config.chunk_size,
        cache_bound=bound,
        max_steps=config.max_steps,
        elapsed_seconds=time.perf_counter() - started,
    )
    return CensusResult(total, engine)


def _series_samples(s_max: int, points: int, spacing: str) -> list[int]:
    if spacing == "linear":
        return [(i * s_max) // points for i in range(1, points + 1)]
    if spacing == "log":
        samples = []
        for i in range(1, points + 1):
            v = min(s_max, max(1, round(s_max ** (i / points))))
            if not samples or v > samples[-1]:
                samples.append(v)
        if samples[-1] != s_max:
            samples.append(s_max)
        return samples
    raise ValueError(f"spacing must be 'log' or 'linear', got {spacing!r}")


def run_series(
    map_kind: MapKind,
    s_max: int,
    points: int = 10,
    spacing: str = "log",
    config: CensusConfig | None = None,
) -> list[ClassCounts]:
    """Cumulative class counts over [1, s] at sample points s up to s_max.

    One ascending pass on the census engine, whose chunk ends are every
    ``chunk_size``-th number from 1 plus the sample points; each point is
    the running total with ``hi`` = s. The final point always lands on s_max
    and equals the counts :func:`run_census` reports there. Log spacing
    collapses duplicate sample points, so fewer than ``points`` entries can
    come back for small ranges. Like :func:`run_census`, it calls
    ``config.progress`` after each chunk.
    """
    config = config or CensusConfig()
    validate_nat(s_max)
    if not isinstance(points, int) or isinstance(points, bool) or points < 1:
        raise ValueError(f"points must be a positive integer, got {points!r}")
    if s_max < points:
        raise ValueError(f"need s_max >= points, got s_max={s_max}, points={points}")
    bound = _resolve_config(config, s_max)
    samples = _series_samples(s_max, points, spacing)

    out = []

    def absorb(hi: int, totals: list[int]) -> None:
        if hi == samples[len(out)]:
            out.append(_counts(map_kind, 1, hi, totals))
        if config.progress is not None:
            config.progress(hi, s_max)

    _tally(map_kind, config, bound, (0, [0] * len(labels_for(map_kind))), samples, absorb)
    return out
