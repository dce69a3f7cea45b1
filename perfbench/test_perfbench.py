"""Self-test of the benchmark: every workload at a tiny length.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.  For each
workload it checks that no request fails against the oracle, that the
traced run's self times plus ``unattributed`` add up to the request
time, and that the traced run ends with the untraced run's engine
counters and table digest.
"""

import os

import pytest

from perfbench import harness
from perfbench.streams import WORKLOADS

TINY = 60


@pytest.fixture(autouse=True)
def _default_configuration():
    if any(name in os.environ for name in harness.REFUSED_ENVIRONMENT):
        pytest.skip("the benchmark measures the default engine configuration")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_has_no_failures(workload):
    outcome = harness.run(workload, seed=5, seconds=0, trace=False, requests=TINY)
    result = outcome["result"]
    assert outcome["detail"]["failures"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == TINY
    metrics = result["metrics"]
    assert set(metrics) == {
        "setup_s", "updates_per_s", "request_p50_ms", "request_tail_ms",
        "accepted_p50_ms", "rejected_p50_ms", "peak_rss_mb",
    }
    assert all(metric["value"] > 0 for metric in metrics.values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_attributes_request_time_and_keeps_counters(workload):
    outcome = harness.run(workload, seed=5, seconds=0, trace=True, requests=TINY)
    detail, result = outcome["detail"], outcome["result"]
    assert detail["failures"] == []
    assert detail["counters_match"] and detail["digests_match"]
    assert result["correct"] and result["failed"] == 0
    assert detail["self_seconds"] == pytest.approx(detail["request_seconds"], rel=0.01)
    assert result["metrics"]["failed_frac"]["value"] == 0.0
