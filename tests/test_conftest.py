import tracemalloc

import pytest

from conftest import traced_peak


def test_traced_peak_stops_tracing_when_the_call_raises():
    def fail():
        buffer = bytearray(1 << 20)
        raise ValueError(f"failed holding {len(buffer)} bytes")

    with pytest.raises(ValueError, match="failed holding 1048576 bytes"):
        traced_peak(fail)
    assert not tracemalloc.is_tracing()
    # the next trace reads its own peak, not the failed call's
    data, peak = traced_peak(bytes, 1000)
    assert len(data) == 1000 and peak < 1 << 20
