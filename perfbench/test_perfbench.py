"""Self-test of the benchmark: metric lists agree, the tracer sees every
mapped layer on its workload, and tracing does not change any output.

    python3 -m pytest perfbench/test_perfbench.py

Runs one untraced and one traced pass of each workload (about a minute).
"""

import json
import os
import time

import pytest

import run
import tracer

ROOT = os.path.dirname(run.HERE)


def _load(name):
    with open(os.path.join(ROOT, name)) as fh:
        return json.load(fh)


BENCH = _load("BENCHMARK.json")
RECORD = _load(os.path.join("perfbench", "record.json"))


def test_metric_lists_agree():
    assert [m["name"] for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCH["per_layer"]] == tracer.metric_names()
    assert {w["name"] for w in BENCH["workloads"]} == set(RECORD["workloads"])


def test_mapping_names_known_metrics():
    layers = set(tracer.metric_names())
    for entry in RECORD["mapping"]:
        for metric in entry["metrics"]:
            assert metric in layers, metric
        for e2e in entry["moves"]:
            assert e2e in run.END_TO_END, e2e
        assert entry["workload"] in RECORD["workloads"]


@pytest.fixture(scope="module")
def passes():
    out = {}
    for w in RECORD["workloads"]:
        deadline = time.monotonic() + run.TIME_LIMIT_S
        plain = run.measure(ROOT, w, run.DEFAULT_SEED, "measure", 0, deadline, 1)
        traced = run.measure(ROOT, w, run.DEFAULT_SEED, "trace", 0, deadline, 1)
        out[w] = plain, traced
    return out


@pytest.mark.parametrize("workload", sorted(RECORD["workloads"]))
def test_outputs_exact_and_unchanged_by_tracing(passes, workload):
    plain, traced = passes[workload]
    assert plain["failed"] == 0
    assert traced["failed"] == 0
    assert plain["checked"] == plain["items"], "every item has a reference digest"
    assert traced["digest"] == plain["digest"]
    assert plain["beyond_p90"] >= 10


@pytest.mark.parametrize("workload", sorted(RECORD["workloads"]))
def test_mapped_layers_are_called(passes, workload):
    layers = passes[workload][1]["layers"]
    assert set(layers) == set(tracer.metric_names())
    for entry in RECORD["mapping"]:
        if entry["workload"] != workload:
            continue
        for metric in entry["metrics"]:
            if entry["moves"]:
                assert layers[metric] > 0, (workload, metric)
            else:  # the mapping predicts that this workload never reaches the layer
                assert layers[metric] == 0, (workload, metric)
