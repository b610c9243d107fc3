"""Tests of the benchmark's own code (no Ray cluster needed).

    python3 -m pytest cdcbench/tests -q
"""

import json
import os
import random

import pyarrow as pa
import pytest

from cdcbench import checks, procfs, run, spans, workloads
from connect_smts_ray.sources.binlog import BinlogConfig, expected_final_state
from connect_smts_ray.sources.corpus import corpus_table

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_metric_names_are_valid_and_unique():
    names = list(run.END_TO_END) + list(run.PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert checks.valid_name(name), name
    for bad in ("", "a b", "x/y", "_lead", "a" * 65):
        assert not checks.valid_name(bad)


def test_benchmark_json_matches_the_reported_metrics():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("n", [1, 2, 5, 19, 20, 21, 37, 100, 1000])
def test_tail_percentile_keeps_ten_samples_beyond(n):
    xs = list(range(n))
    random.Random(n).shuffle(xs)
    value, pct, count = checks.tail(xs)
    assert count == n
    if n <= 20:
        # no rank at or above the median has ten samples beyond it
        assert (value, pct) == (checks.median(xs), 50.0)
        return
    beyond = sum(x > value for x in xs)
    assert beyond == 10  # the highest rank with at least ten beyond
    assert pct == pytest.approx(100.0 * (n - 10) / n)
    assert value >= checks.median(xs)


def test_quartile_spread():
    assert checks.quartile_spread([10.0] * 5) == 0.0
    assert checks.quartile_spread([1, 2, 3, 4, 5]) == pytest.approx(3.0 / 3.0)


@pytest.mark.parametrize("cpu, steal, want", [
    (2.0, 0.0, 1.0), (1.0, 1.0, 0.5), (1.5, 0.5, 0.75), (0.0, 0.0, 1.0)])
def test_interval_takes_out_the_stolen_share(cpu, steal, want):
    iv = procfs.Interval()
    iv.wall, iv.cpu, iv.steal = 1.0, cpu, steal
    assert iv.seconds == pytest.approx(want)


def test_null_tracer_makes_the_same_calls_without_spans():
    out = {}
    for tracer in (spans.Tracer(), spans.NullTracer()):
        ep = tracer.open("epoch")
        out[tracer.traced] = tracer.call("double", ep, lambda t: t * 2, 21)
        tracer.close(ep)
        assert len(tracer.spans) == (2 if tracer.traced else 0)
    assert out == {True: 42, False: 42}


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    d = tmp_path_factory.mktemp("docs")
    workloads.write(workloads.documents(40, seed=5),
                    os.path.join(d, "documents.parquet"))
    return expected_final_state(corpus_table(str(d)),
                                BinlogConfig(events_per_key=6, seed=5))


def _lake(expected: dict) -> pa.Table:
    rows = sorted(expected.values(), key=lambda r: (r["repo"], r["path"]))
    return pa.Table.from_pylist(rows)


def test_oracle_accepts_an_exact_lake(oracle):
    assert len(oracle) > 10
    assert checks.lake_mismatches(_lake(oracle), oracle) == []


def test_oracle_catches_a_dropped_row(oracle):
    lake = _lake(oracle)
    bad = checks.lake_mismatches(lake.slice(1), oracle)
    assert len(bad) == 1 and bad[0].startswith("missing key")


def test_oracle_catches_an_altered_row(oracle):
    for field, change in (("content", lambda v: v + " "),
                          ("commit_lsn", lambda v: v + 1),
                          ("source_offset", lambda v: v - 1)):
        rows = _lake(oracle).to_pylist()
        rows[3][field] = change(rows[3][field])
        bad = checks.lake_mismatches(pa.Table.from_pylist(rows), oracle)
        assert len(bad) == 1, (field, bad)
        assert field.split("_")[0] in bad[0]


def test_oracle_catches_extra_and_duplicate_rows(oracle):
    rows = _lake(oracle).to_pylist()
    extra = dict(rows[0], path="src/file_missing.txt")
    bad = checks.lake_mismatches(pa.Table.from_pylist(rows + [extra]), oracle)
    assert len(bad) == 1 and bad[0].startswith("unexpected key")
    bad = checks.lake_mismatches(pa.Table.from_pylist(rows + rows[:1]), oracle)
    assert len(bad) == 1 and bad[0].startswith("duplicate key")


def test_oracle_catches_an_empty_lake(oracle):
    assert len(checks.lake_mismatches(pa.table({}), oracle)) == len(oracle)


def test_inputs_follow_the_seed():
    a = workloads.documents(50, seed=3)
    assert a.equals(workloads.documents(50, seed=3))
    assert not a.equals(workloads.documents(50, seed=4))
    for w in workloads.WORKLOADS.values():
        files = workloads.epoch_inputs(w, seed=9)
        assert len(files) == w.files
        ids = [i for t in files for i in t.column("doc_id").to_pylist()]
        assert len(ids) == len(set(ids)) == w.keys * w.files
