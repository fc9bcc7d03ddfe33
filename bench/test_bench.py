"""Tests of the benchmark itself: tracing, self time, the recall checker, smoke runs.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from layers import LAYER_MAP  # noqa: E402
from tracing import ROOT_PARENT, Span, Target, Tracer, self_times_ns, vprkit_targets  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, geo_commands, synth_setup, train_eval_reduce, write_geo_sets,
)

from vprkit.evaluator import GroundTruthMatcher, recall_at_k  # noqa: E402
from vprkit.tensorio import DescriptorSet  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def test_install_and_uninstall_restore_every_patched_attribute():
    targets = vprkit_targets()
    before = [vars(t.owner)[t.attr] for t in targets]
    tracer = Tracer()
    tracer.install(targets)
    assert tracer.absent == []
    assert all(vars(t.owner)[t.attr] is not b for t, b in zip(targets, before))
    tracer.uninstall()
    assert all(vars(t.owner)[t.attr] is b for t, b in zip(targets, before))


def test_missing_attribute_is_reported_absent_not_raised():
    import vprkit.mining as mining

    tracer = Tracer()
    tracer.install([Target(mining, "no_such_miner", "mining.no_such_miner")])
    assert tracer.absent == ["vprkit.mining.no_such_miner"]
    tracer.uninstall()
    assert not hasattr(mining, "no_such_miner")


class _Owner:
    @staticmethod
    def inner(x):
        return x + 1

    @staticmethod
    def outer(x):
        return _Owner.inner(x) * 2

    @staticmethod
    def items(n):
        yield from range(n)


def test_wrappers_record_nested_spans_and_generator_steps():
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.install([
        Target(_Owner, "inner", "inner", count=lambda args, result: {"seen": result}),
        Target(_Owner, "outer", "outer"),
        Target(_Owner, "items", "items", generator=True),
    ])
    try:
        assert _Owner.outer(1) == 4
        assert list(_Owner.items(2)) == [0, 1]
    finally:
        tracer.uninstall()
    names = [(s.name, s.parent, s.counts) for s in tracer.spans]
    assert names == [
        ("outer", ROOT_PARENT, {}),
        ("inner", 0, {"seen": 2}),
        ("items", ROOT_PARENT, {"items": 1}),
        ("items", ROOT_PARENT, {"items": 1}),
        ("items", ROOT_PARENT, {}),
    ]
    assert all(s.end_ns > s.start_ns for s in tracer.spans)


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------

def test_self_time_on_a_hand_built_span_tree():
    spans = [
        Span("root", 0, 100),
        Span("a", 10, 30, parent=0),
        Span("b", 40, 70, parent=0),
        Span("b.child", 45, 50, parent=2),
        Span("b.child", 60, 75, parent=2),  # runs past its parent: only 60..70 counts
        Span("c", 65, 80, parent=0),  # overlaps b: the union 40..80 is covered once
        Span("other_root", 200, 210),
    ]
    assert self_times_ns(spans) == [100 - 20 - 40, 20, 30 - 5 - 10, 5, 15, 15, 10]


# ---------------------------------------------------------------------------
# The brute-force recall checker
# ---------------------------------------------------------------------------

def _tied_sets():
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    mid = (e1 + e2) / np.sqrt(2.0)
    refs = DescriptorSet(
        vectors=np.array([e1, e1, e2, mid, e2]),
        ids=["r0", "r1", "r2", "r3", "r4"],
        lats=np.array([45.002, 45.0001, 45.0, 45.01, 45.0001]),
        lons=np.array([7.0, 7.0, 7.01, 7.0, 7.0]),
        place_ids=np.array([1, 0, 0, 2, 1]),
    )
    queries = DescriptorSet(
        vectors=np.array([e1, e2, mid, np.eye(3)[2]]),
        ids=["q0", "q1", "q2", "q3"],
        lats=np.array([45.0001, 45.0, 45.01, 46.0]),
        lons=np.array([7.0, 7.01, 7.0, 7.0]),
        place_ids=np.array([0, 1, 2, 5]),
    )
    return queries, refs


@pytest.mark.parametrize("mode", ["label", "geo"])
def test_brute_force_recall_agrees_with_recall_at_k_on_tied_scores(mode):
    queries, refs = _tied_sets()
    ks = [1, 2, 3, 5]
    report = recall_at_k(queries, refs, GroundTruthMatcher(mode=mode, radius_m=25.0), ks)
    recall, evaluated, excluded = checks.brute_force_recall(queries, refs, mode, 25.0, ks)
    assert (evaluated, excluded) == (report.queries_evaluated, report.queries_excluded)
    assert recall == report.recall_at
    assert recall[1] < recall[5]  # the ties decide rank 1 for some query


def test_vectorised_haversine_matches_the_library():
    from vprkit.places import haversine

    a, b = (45.0, 7.0), (45.0002, 7.0003)
    assert checks.haversine_m(*a, *b) == pytest.approx(haversine(a, b), rel=1e-12)


# ---------------------------------------------------------------------------
# The benchmark definition
# ---------------------------------------------------------------------------

def test_benchmark_json_lists_every_workload_and_layer_metric():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(LAYER_MAP)
    assert SPEC["paths"] == [HERE.name]


def test_normalised_time_scales_wall_time_by_the_probe_speed():
    nominal = run.NOMINAL_PROBE_S
    assert run.normalised(2.0, nominal, nominal) == 2.0
    assert run.normalised(2.0, 2 * nominal, 2 * nominal) == 1.0  # a host at half speed
    assert run.normalised(3.0, nominal, 2 * nominal) == 2.0  # mean of the two probes
    assert run.probe_s() > 0


# ---------------------------------------------------------------------------
# Reduced-size smoke runs of each workload
# ---------------------------------------------------------------------------

SMALL = {
    "desk_pk400": dataclasses.replace(
        WORKLOADS["desk_pk400"],
        setup=synth_setup({"synth.num_places": 8, "synth.images_per_place": 8,
                           "synth.noise_sigma": 0.05}),
        commands=train_eval_reduce({"train.num_places": 4, "train.images_per_place": 4,
                                    "train.max_epochs": 2}, out_dim=8),
        setup_repeats=1, recall_floor=0.0),
    "backbone_20x20": dataclasses.replace(
        WORKLOADS["backbone_20x20"],
        setup=synth_setup({"synth.num_places": 4, "synth.images_per_place": 6,
                           "synth.height": 5, "synth.width": 5, "synth.channels": 64}),
        commands=train_eval_reduce({"train.num_places": 2, "train.images_per_place": 4,
                                    "train.out_channels": 16, "train.max_epochs": 1}, out_dim=4),
        setup_repeats=1, recall_floor=0.0),
    "retrieval_geo": dataclasses.replace(
        WORKLOADS["retrieval_geo"],
        setup=lambda inputs, seed: write_geo_sets(inputs, seed, num_places=40, num_queries=20),
        commands=geo_commands,
        setup_repeats=1, recall_floor=0.0),
}


@pytest.fixture
def setup_in_process(monkeypatch):
    """The child-process set-up looks workloads up by name; run the small ones here."""
    def setup(wl, seed, inputs, ops):
        ops.record("set-up", True)
        return run.setup_here(wl, seed, inputs)

    monkeypatch.setattr(run, "setup_in_child", setup)


@pytest.mark.parametrize("name", list(SMALL))
def test_smoke_untraced_run_reports_every_end_to_end_metric(name, tmp_path, setup_in_process):
    ops, reps = run.Ops(), []
    metrics = run.measure(SMALL[name], 3, 0.0, tmp_path, ops, reps)
    assert ops.failures == []
    assert len(reps) == run.WARMUP_REPS + run.MIN_REPS
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v > 0 for v in metrics.values())


@pytest.mark.parametrize("name", list(SMALL))
def test_smoke_traced_run_reports_every_layer_metric(name, tmp_path):
    ops, reps, tracer = run.Ops(), [], Tracer()
    metrics = run.trace(SMALL[name], 3, 0.0, tmp_path, ops, tracer, reps)
    assert ops.failures == []
    assert tracer.absent == []
    assert list(metrics) == list(LAYER_MAP)
    trains = name != "retrieval_geo"
    assert (metrics["trainer.steps"] > 0) == trains
    assert (metrics["mining.pairs_per_step"] > 0) == trains
    assert metrics["evaluator.topk_calls"] > 0


def test_setup_child_reports_its_own_time(tmp_path):
    ops = run.Ops()
    seconds = run.setup_in_child(WORKLOADS["retrieval_geo"], 1, tmp_path / "inputs", ops)
    assert ops.failures == [] and seconds > 0
    assert (tmp_path / "inputs" / "queries.vprk").exists()
