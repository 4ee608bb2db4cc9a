import pytest

from collatz_census import census as census_module


@pytest.fixture
def interrupt_at(monkeypatch):
    """Arm the tally's chunk count to raise KeyboardInterrupt on the chunk
    starting at n: before counting it, or with ``counted`` after counting it
    into the sweep's running totals, before it is absorbed."""

    def arm(stop, counted=False):
        exact = census_module._count_chunk

        def chunk(lo, hi, *args):
            if lo == stop and not counted:
                raise KeyboardInterrupt
            totals = exact(lo, hi, *args)
            if lo == stop:
                raise KeyboardInterrupt
            return totals

        monkeypatch.setattr(census_module, "_count_chunk", chunk)

    return arm
