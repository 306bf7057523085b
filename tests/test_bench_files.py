"""Committed benchmark records: every BENCH_*.json at the repository root
parses, names the commit it was measured against, and gives the median and
quartiles of wall_s, cpu_s, peak_rss_mb and setup_s of operators-fine,
mc-bridged and mc-exit, for each side measured."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
WORKLOADS = ("operators-fine", "mc-bridged", "mc-exit")
METRICS = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_a_record_names_its_commit_and_summarizes_every_metric(path):
    record = json.loads(path.read_text())
    assert re.fullmatch("[0-9a-f]{40}", record["commit"]), record["commit"]
    assert record["command"]
    for workload in WORKLOADS:
        for metric in METRICS:
            sides = record["summary"][workload][metric]
            assert sides, (workload, metric)
            for side, stats in sides.items():
                assert stats["q1"] <= stats["median"] <= stats["q3"], (workload, metric, side)
