import pytest

from collatz_census import census as census_module


@pytest.fixture
def interrupt_at(monkeypatch):
    """Arm the tally's chunk count to raise KeyboardInterrupt on the chunk starting at n."""

    def arm(stop):
        exact = census_module._count_chunk

        def chunk(map_kind, lo, hi, *args):
            if lo == stop:
                raise KeyboardInterrupt
            return exact(map_kind, lo, hi, *args)

        monkeypatch.setattr(census_module, "_count_chunk", chunk)

    return arm
