"""Smoke test of the per-request-class timing tool over a few
chain-stream requests."""

import pytest

from benchmarks import request_classes


def test_chain_stream_classes_add_up():
    timings, failures = request_classes.measure("chain-stream", seed=1, requests=12)
    assert failures == 0
    assert request_classes.RESTORE not in timings  # chain-stream never restores
    lines = request_classes.table(timings)
    *classes, (total_name, total_count, _median, total_ms) = lines
    assert total_name == "total (requests)" and total_count == 12
    assert sum(count for _name, count, _m, _s in classes) == 12
    assert sum(ms for _name, _c, _m, ms in classes) == pytest.approx(total_ms)

