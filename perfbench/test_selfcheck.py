"""Self-check of the benchmark itself; run with ``python3 -m pytest perfbench``.

It checks that a seed fixes the inputs, that tracing changes no output,
that every count the traced run reports repeats exactly, and that a wrapped
name the package no longer has drops its metrics instead of crashing.
"""

from __future__ import annotations

import itertools
import sys

import pytest

import layers
import run

sys.path.insert(0, str(run.SRC))

from workloads import WORKLOADS  # noqa: E402  (imports the package from src/)


def _inputs(workload, seed, workdir):
    state, head = run._prepare(workload, seed, workdir)
    ops = head + list(itertools.islice(state["ops"], workload.trace_ops))
    files = {p.name: p.read_bytes() for p in sorted(workdir.glob("*"))} if workdir.exists() else {}
    return ops, files


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs(name, tmp_path):
    workload = WORKLOADS[name]
    first = _inputs(workload, 7, tmp_path / "a")
    again = _inputs(workload, 7, tmp_path / "a")
    other = _inputs(workload, 8, tmp_path / "b")
    assert first == again
    assert first[0] != other[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_changes_no_output_and_counts_repeat(name, tmp_path):
    workload = WORKLOADS[name]
    plain = run.trace_pass(workload, 3, tmp_path)
    tracers = [layers.Tracer(), layers.Tracer()]
    traced = [run.trace_pass(workload, 3, tmp_path, t) for t in tracers]
    assert plain["problems"] == [None] * workload.trace_ops
    for one in traced:
        assert one["prints"] == plain["prints"]
        assert one["problems"] == plain["problems"]
    counts = [{m: t.metrics()[m] for m in layers.COUNT_METRICS} for t in tracers]
    assert counts[0] == counts[1]
    assert counts[0]["pricing.node_steps"] > 0


def test_missing_wrap_target_drops_its_metrics(monkeypatch, tmp_path):
    targets = [t if t[2] != "fdm.fitted_stencil" else (t[0], "renamed_away", t[2], t[3])
               for t in layers.TARGETS]
    monkeypatch.setattr(layers, "TARGETS", targets)
    tracer = layers.Tracer()
    one = run.trace_pass(WORKLOADS["cli-cold"], 3, tmp_path, tracer)
    assert one["problems"] == [None] * len(one["prints"])
    assert tracer.absent == ["longevity.pricing.renamed_away"]
    metrics = tracer.metrics()
    assert not any(m.startswith("fdm.") for m in metrics)
    assert metrics["pricing.price_european.ms"] + metrics["pricing.price_american.ms"] > 0.0
