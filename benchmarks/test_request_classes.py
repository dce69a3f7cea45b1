"""Smoke tests of the per-request-class timing tool and of its set-up
split, over a few chain-stream requests and set-ups."""

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



def test_setup_split_times_build_and_warm_up():
    split, peak, failures = request_classes.setup_split("chain-stream", seed=1, setups=2)
    assert failures == 0
    assert set(split) == {"build", "warm-up"}
    assert all(len(seconds) == 2 and min(seconds) > 0 for seconds in split.values())
    assert peak > 0
