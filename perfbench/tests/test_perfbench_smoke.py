"""Smoke test of the benchmark harness.

Each workload runs briefly and reports every metric with its unit; the
traced run reports every per-layer metric ``BENCHMARK.json`` lists; and
a deliberately wrong expected body shows up in ``error_rate``.
Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

import json
import os
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

from jkbench import e2e, traced  # noqa: E402
from jkbench import inputs as gen  # noqa: E402

#: Every metric the one command prints per workload, with its unit.
E2E_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "cpu_us_per_op": "us",
    "error_rate": "share",
    "setup_s": "s",
    "rss_mb": "MB",
}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture()
def brief(monkeypatch):
    """Shorter set-up and warm-up phases: the harness, not the numbers."""
    monkeypatch.setattr(e2e, "SETUPS", 2)
    monkeypatch.setattr(e2e, "WARMUP_S", 0.2)
    monkeypatch.setattr(traced, "REPLAY", 40)
    monkeypatch.setattr(traced, "WARMUP", 5)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_workload_reports_every_metric(brief, workload):
    outcome = e2e.run(workload, seed=7, seconds=1.2)
    assert outcome.failed == 0, outcome.notes
    assert outcome.attempted > 10
    for name, unit in E2E_UNITS.items():
        metric = outcome.metrics[name]
        assert metric["unit"] == unit
        assert metric["samples"] >= 1
    assert outcome.metrics["error_rate"]["value"] == 0.0
    listed = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    for name, unit in listed.items():
        assert outcome.metrics[name]["unit"] == unit
        assert outcome.metrics[name]["value"] > 0


def test_wrong_expected_body_counts_as_error(brief):
    inputs = gen.generate("table5-servlet", 3)
    path = inputs.scripts[0][0].path
    inputs.documents[path] = b"not the document"
    outcome = e2e.measure(inputs, 1.0, e2e.Outcome(inputs.workload))
    assert outcome.failed > 0
    assert outcome.metrics["error_rate"]["value"] > 0
    assert any(path in note for note in outcome.notes)


def test_traced_run_reports_every_layer(brief, tmp_path):
    outcome = traced.run("kv-policy", 5, 1.0, str(tmp_path))
    assert outcome.failed == 0, outcome.notes
    for metric in _spec()["per_layer"]:
        assert outcome.metrics[metric["name"]]["unit"] == metric["unit"]
    spans = (tmp_path / "spans-kv-policy-seed5.jsonl").read_text()
    first = json.loads(spans.splitlines()[0])
    assert set(first) == {"id", "name", "start_ns", "end_ns", "parent",
                          "rid", "n"}
