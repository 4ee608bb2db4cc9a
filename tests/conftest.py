import pytest

from collatz_census import census as census_module


@pytest.fixture
def watch_absorb(monkeypatch):
    """Wrap the ``absorb`` that the counting loop ``census._count`` receives:
    after ``watch(hook)`` the loop calls ``hook(sweep, lo, hi, totals,
    absorb)`` for each chunk [lo, hi] it ends, in place of ``absorb(hi,
    totals)``. ``census_chunk`` counts through the same loop, one chunk a
    sweep."""

    def watch(hook):
        count = census_module._count

        def counting(sweep, absorb):
            lo = sweep.start

            def watched(hi, totals):
                nonlocal lo
                first, lo = lo, hi + 1
                hook(sweep, first, hi, totals, absorb)

            count(sweep, watched)

        monkeypatch.setattr(census_module, "_count", counting)

    return watch


@pytest.fixture
def interrupt_at(watch_absorb):
    """Arm the tally to raise KeyboardInterrupt at the chunk starting at n:
    before P steps into it, right after the chunk before it is absorbed, or
    with ``counted`` once P has stepped to its end, before it is absorbed."""

    def arm(stop, counted=False):
        def interrupt(sweep, lo, hi, totals, absorb):
            if lo == stop and counted:
                raise KeyboardInterrupt
            absorb(hi, totals)
            if hi + 1 == stop and not counted and hi < sweep.cuts[-1]:
                raise KeyboardInterrupt

        watch_absorb(interrupt)

    return arm
