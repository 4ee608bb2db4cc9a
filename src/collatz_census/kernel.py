"""Step maps, trajectory iteration, and stopping times.

Four maps over the positive integers:

* ``cr``    — 3n+1 if n is odd, n/2 if n is even.
* ``pdcr``  — (3n+1)/2 if n is odd (3n+1 is always even then), n/2 if even.
* ``cr3``   — three applications of ``cr``; fixed points 1, 2, 4.
* ``pdcr2`` — two applications of ``pdcr``; fixed points 1, 2.

All arithmetic is range-checked against a 128-bit magnitude limit: a step
whose result would exceed it raises :class:`NatOverflowError` rather than
wrapping. Because termination of these maps is an open question, every
iteration is budget-guarded and reports budget exhaustion explicitly.

Both classification routes take what they share from here: the class
labels of a composite map, its basis, :class:`ClassificationOutcome` and
:func:`_walk`, the one meaning of a step budget. Everything here is pure
and stateless; safe to call from any number of threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

NAT_MAX = 2**128 - 1
DEFAULT_STEP_BUDGET = 10**6
_U64_LIMIT = 2**64  # members at or above this bypass the vector kernels

# largest n for which 3n+1 still fits in 128 bits
_ODD_STEP_MAX = (NAT_MAX - 1) // 3


class NatRangeError(ValueError):
    """A value lies outside the supported positive-integer domain."""


class NatOverflowError(OverflowError):
    """A step result would exceed the 128-bit magnitude limit.

    ``n`` is the relevant input: the value whose step overflowed, or, when
    raised from a higher-level routine, the starting number whose trajectory
    overflowed.
    """

    def __init__(self, n: int, message: str | None = None):
        super().__init__(message or f"3*{n}+1 exceeds the 128-bit limit")
        self.n = n


class StepBudgetExceeded(RuntimeError):
    """An iteration did not terminate within its step budget."""

    def __init__(self, n: int, max_steps: int, message: str | None = None):
        super().__init__(message or f"n={n} did not terminate within {max_steps} steps")
        self.n = n
        self.max_steps = max_steps


class MapKind(enum.Enum):
    """Which recursion is iterated."""

    CR = "cr"
    CR3 = "cr3"
    PDCR = "pdcr"
    PDCR2 = "pdcr2"


class Termination(enum.Enum):
    """Why an iteration stopped."""

    REACHED_FIXED_POINT = "reached_fixed_point"
    REACHED_ONE = "reached_one"
    BUDGET_EXHAUSTED = "budget_exhausted"
    OVERFLOW = "overflow"


def validate_nat(n: int) -> int:
    """Check that ``n`` is a positive integer within the 128-bit range."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise NatRangeError(f"expected a positive integer, got {n!r}")
    if n < 1:
        raise NatRangeError(f"value must be >= 1, got {n}")
    if n > NAT_MAX:
        raise NatRangeError("value exceeds the 128-bit limit")
    return n


def _validate_range(lo: int, hi: int) -> None:
    """Check lo and hi with :func:`validate_nat`, and that [lo, hi] is not empty."""
    validate_nat(lo)
    validate_nat(hi)
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")


def _validate_budget(max_steps: int) -> int:
    if not isinstance(max_steps, int) or isinstance(max_steps, bool) or max_steps < 0:
        raise ValueError(f"step budget must be a nonnegative integer, got {max_steps!r}")
    return max_steps


def cr_step(n: int) -> int:
    """One application of the base map: 3n+1 for odd n, n/2 for even n."""
    if n < 1:
        raise NatRangeError(f"value must be >= 1, got {n}")
    if n & 1:
        if n > _ODD_STEP_MAX:
            raise NatOverflowError(n)
        return 3 * n + 1
    return n >> 1


def pdcr_step(n: int) -> int:
    """One application of the accelerated map: (3n+1)/2 for odd n, n/2 for even."""
    if n < 1:
        raise NatRangeError(f"value must be >= 1, got {n}")
    if n & 1:
        if n > _ODD_STEP_MAX:
            raise NatOverflowError(n)
        return (3 * n + 1) >> 1
    return n >> 1


def cr3_step(n: int) -> int:
    """Three applications of :func:`cr_step`."""
    return cr_step(cr_step(cr_step(n)))


def pdcr2_step(n: int) -> int:
    """Two applications of :func:`pdcr_step`."""
    return pdcr_step(pdcr_step(n))


_STEP_FUNCTIONS = {
    MapKind.CR: cr_step,
    MapKind.CR3: cr3_step,
    MapKind.PDCR: pdcr_step,
    MapKind.PDCR2: pdcr2_step,
}


def step_function(map_kind: MapKind):
    """The single-step function for a map kind."""
    return _STEP_FUNCTIONS[map_kind]


@dataclass(frozen=True)
class Trajectory:
    """A recorded iteration of one of the four maps.

    ``values`` starts with the initial value and contains one entry per
    applied step; it is ``None`` when the iteration ran in count-only mode.
    ``steps`` counts applications of the chosen map, ``final`` is the last
    value reached.
    """

    map_kind: MapKind
    start: int
    values: tuple[int, ...] | None
    terminated: Termination
    steps: int
    final: int


def iterate(
    map_kind: MapKind,
    start: int,
    max_steps: int = DEFAULT_STEP_BUDGET,
    record: bool = True,
) -> Trajectory:
    """Apply ``map_kind`` repeatedly and report how the iteration ended.

    Stops when the value repeats under one application (a fixed point, which
    only the composite maps have), when the value 1 is reached (for the base
    maps, which cycle through 1 rather than fixing it), when the budget is
    exhausted, or when a step would overflow. The last two are reported
    outcomes, not exceptions. With ``record=False`` no value sequence is
    kept, only the step count and final value.

    A trajectory utility, not a classification route: ``max_steps`` counts
    the applications of ``map_kind`` this iteration makes. The classifiers'
    budget has its own meaning (:func:`_walk`).
    """
    validate_nat(start)
    _validate_budget(max_steps)
    step = step_function(map_kind)
    cyclic = map_kind in (MapKind.CR, MapKind.PDCR)
    values: list[int] | None = [start] if record else None

    def done(terminated: Termination, steps: int, final: int) -> Trajectory:
        seq = tuple(values) if values is not None else None
        return Trajectory(map_kind, start, seq, terminated, steps, final)

    cur = start
    if cyclic and cur == 1:
        return done(Termination.REACHED_ONE, 0, cur)
    steps = 0
    while steps < max_steps:
        try:
            nxt = step(cur)
        except NatOverflowError:
            return done(Termination.OVERFLOW, steps, cur)
        steps += 1
        if values is not None:
            values.append(nxt)
        if nxt == cur:
            return done(Termination.REACHED_FIXED_POINT, steps, nxt)
        cur = nxt
        if cyclic and cur == 1:
            return done(Termination.REACHED_ONE, steps, cur)
    return done(Termination.BUDGET_EXHAUSTED, steps, cur)


@dataclass(frozen=True)
class StoppingTime:
    """First-hit count of the value 1 under a base map, plus its residue.

    ``residue`` is ``steps`` modulo the terminal cycle length: 3 for the
    ``cr`` basis (cycle 1, 4, 2), 2 for the ``pdcr`` basis (cycle 1, 2).
    """

    basis: MapKind
    steps: int
    residue: int


def basis_modulus(basis: MapKind) -> int:
    """Terminal cycle length of a base map: 3 for ``cr``, 2 for ``pdcr``."""
    if basis is MapKind.CR:
        return 3
    if basis is MapKind.PDCR:
        return 2
    raise ValueError(f"stopping times are defined for cr or pdcr, not {basis.value}")


def stopping_time(
    basis: MapKind, n: int, max_steps: int = DEFAULT_STEP_BUDGET
) -> StoppingTime:
    """The total stopping time of ``n``: base-map steps to the first 1.

    Zero if ``n`` is already 1. Raises :class:`StepBudgetExceeded` or
    :class:`NatOverflowError` (naming ``n``) if 1 is not reached within
    ``max_steps`` steps. A trajectory utility, not a classification route:
    the budget counts this iteration's own steps, unlike the classifiers'
    (:func:`_walk`), which bounds the steps between new lows.
    """
    modulus = basis_modulus(basis)
    t = iterate(basis, n, max_steps, record=False)
    if t.terminated is Termination.BUDGET_EXHAUSTED:
        raise StepBudgetExceeded(n, max_steps)
    if t.terminated is Termination.OVERFLOW:
        raise NatOverflowError(
            n, f"trajectory of {n} exceeded the 128-bit limit at value {t.final}"
        )
    return StoppingTime(basis, t.steps, t.steps % modulus)


class ClassLabel(enum.IntEnum):
    """The fixed point a composite-map iteration settles on."""

    ONE = 1
    TWO = 2
    FOUR = 4

    def __str__(self) -> str:  # renders as its numeric value
        return str(self.value)


# residue of the stopping time -> class, in residue order 0, 1, ...
_LABELS_BY_RESIDUE = {
    MapKind.CR3: (ClassLabel.ONE, ClassLabel.TWO, ClassLabel.FOUR),
    MapKind.PDCR2: (ClassLabel.ONE, ClassLabel.TWO),
}

_BASIS_FOR = {MapKind.CR3: MapKind.CR, MapKind.PDCR2: MapKind.PDCR}


def labels_for(map_kind: MapKind) -> tuple[ClassLabel, ...]:
    """The possible class labels of a composite map, in residue order.

    cr3: 0 -> 1, 1 -> 2, 2 -> 4. pdcr2: 0 -> 1, 1 -> 2.
    """
    try:
        return _LABELS_BY_RESIDUE[map_kind]
    except KeyError:
        raise ValueError(
            f"classes are defined for cr3 or pdcr2, not {map_kind.value}"
        ) from None


def basis_for(map_kind: MapKind) -> MapKind:
    """The base map underlying a composite map (cr3 -> cr, pdcr2 -> pdcr)."""
    try:
        return _BASIS_FOR[map_kind]
    except KeyError:
        raise ValueError(
            f"classes are defined for cr3 or pdcr2, not {map_kind.value}"
        ) from None


@dataclass(frozen=True)
class ClassificationOutcome:
    """Result of classifying one number.

    ``composite_steps`` counts applications of the composite map up to and
    including the one that first reproduced its input; it is ``None`` on the
    fast path, which derives the label from a residue and never walks the
    composite map.
    """

    label: ClassLabel
    composite_steps: int | None
    path: str  # "direct" or "fast"


def _walk(basis, start, max_steps):
    """Yield the base-map values after ``start``, one per step, in exact arithmetic.

    This is the one meaning of a step budget on every classification route:
    until the trajectory reaches 1, every run of ``max_steps`` steps must
    reach a new low, a value below every earlier one. Otherwise the walk
    raises :class:`StepBudgetExceeded` naming ``start``. For ``start`` this
    bounds its stopping time σ(start), the steps until the value first drops
    below ``start`` (Lagarias 1985; σ(1) = 0). For each later low v it
    bounds σ(v), because from v on the walk is that of v as a start. So
    whether a start passes depends on the start and ``max_steps`` alone, and
    the smallest start that fails is a glide record: the first n whose σ
    exceeds ``max_steps``. Once at 1 the walk runs on around the terminal
    cycle without a budget. A value beyond 128 bits raises
    :class:`NatOverflowError` naming ``start``.
    """
    step = step_function(basis)
    x = low = start
    run = 0
    while True:
        if run >= max_steps and low != 1:
            raise StepBudgetExceeded(
                start, max_steps, f"n={start} reached no new low within {max_steps} steps"
            )
        try:
            x = step(x)
        except NatOverflowError as e:
            raise NatOverflowError(
                start, f"trajectory of {start} exceeded the 128-bit limit at value {e.n}"
            ) from None
        run += 1
        if x < low:
            low, run = x, 0
        yield x
