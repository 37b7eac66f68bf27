"""``Top500CarbonStudy.run`` binds; the result derives each part on first read."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro import obs
from repro.enrich.pipeline import EnrichmentPipeline
from repro.enrich.public_info import PublicInfoOracle
from repro.study import Top500CarbonStudy

SRC = Path(__file__).resolve().parents[1] / "src"
LAZY = ("baseline_records", "public_records", "enrichment_report",
        "baseline_coverage", "public_coverage")


def test_run_computes_nothing(dataset):
    with obs.capture() as trace:
        result = Top500CarbonStudy().run(dataset)
    assert len(trace) == 0
    assert not set(LAZY) & set(vars(result))


def test_public_records_are_the_dataset_view(dataset):
    result = Top500CarbonStudy().run(dataset)
    view = dataset.public_records()
    assert all(a is b for a, b in zip(result.public_records, view))
    enriched, _ = EnrichmentPipeline(
        oracle=PublicInfoOracle(dataset=dataset)).enrich(
            dataset.baseline_records())
    assert list(result.public_records) == enriched


def test_each_part_is_derived_once(dataset):
    result = Top500CarbonStudy().run(dataset)
    with obs.capture() as trace:
        for _ in range(2):
            for name in LAZY:
                getattr(result, name)
    assert len(trace.by_name("study.enrich")) == 1
    assert sorted(r["attrs"]["scenario"]
                  for r in trace.by_name("study.coverage")) \
        == ["baseline", "public"]
    assert result.enrichment_report.total_fields_filled > 0


def test_report_loads_the_list_once_and_never_synthesizes(tmp_path):
    trace = tmp_path / "trace.jsonl"
    env = dict(os.environ, REPRO_TRACE=str(trace), PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "repro", "report"], env=env,
                   stdout=subprocess.DEVNULL, check=True, timeout=120)
    names = [json.loads(line)["name"]
             for line in trace.read_text().splitlines()]
    assert names.count("data.load") == 1
    assert "data.generate" not in names
    assert names.count("study.enrich") == 0   # report prints no enrichment
    assert names.count("study.coverage") == 2
