"""Self-tests of the benchmark harness. They time nothing: they check
the harness's bookkeeping, not the program's speed."""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import workloads as wl
from perfbench.harness import SELF_TIMES, WORKLOADS
from perfbench.loops import ClosedLoop, Outcome
from perfbench.pace import PACE_REF_S, Pacer
from perfbench.report import LAYERS, PER_LAYER
from perfbench.spans import Patches, Tracer

ROOT = Path(__file__).resolve().parents[2]


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd=ROOT, seconds: str = "0.01"):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", seconds,
         "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def traced_results():
    """One short traced run of every workload: ``{name: result}``."""
    results = {}
    for name in WORKLOADS:
        proc = _run(name, 1)
        assert proc.returncode == 0, proc.stderr
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return results


def test_every_per_layer_metric_has_a_layer():
    assert set(LAYERS) == set(PER_LAYER)


def test_printed_metrics_match_benchmark_json(traced_results):
    declared = _declared()
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    for name, result in traced_results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, name
        assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer
    proc = _run("babi-mixed", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared["end_to_end"]
    }
    assert result["failed"] == 0 and result["attempted"] >= 1


#: Self-time metrics each workload must exercise (every other reads 0).
ENGINE_SPANS = ("engine.write_us", "engine.hops_us", "mips.search_us")
SERVING_SPANS = ("api.build_us", "scheduler.self_us", "router.self_us", "predictor.self_us")
USED_SPANS = {
    "babi-mixed": SERVING_SPANS + ENGINE_SPANS,
    "prod-zipf": SERVING_SPANS + ENGINE_SPANS + ("cache.lookup_us",),
    "babi-hw": SERVING_SPANS + ("hw.run_us",),
    "babi-async": SERVING_SPANS + ENGINE_SPANS + ("frontend.admit_us",),
}
#: Largest share of the traced wall time left outside every span on the
#: closed loops: the client's own loop and waiting for the futures.
MAX_UNATTRIBUTED = 0.35


def test_every_workload_has_a_span_list():
    assert set(USED_SPANS) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(USED_SPANS))
def test_each_workload_exercises_its_spans(traced_results, name):
    metrics = {k: v["value"] for k, v in traced_results[name]["metrics"].items()}
    for metric in SELF_TIMES:
        if metric in USED_SPANS[name]:
            assert metrics[metric] > 0, metric
        else:
            assert metrics[metric] == 0, metric
    if name == "babi-async":
        assert metrics["frontend.wake_us"] > 0


@pytest.mark.parametrize("name", ["babi-mixed", "prod-zipf"])
def test_self_times_account_for_the_end_to_end_time(traced_results, name):
    metrics = {k: v["value"] for k, v in traced_results[name]["metrics"].items()}
    accounted = sum(metrics[m] for m in SELF_TIMES)
    assert 0 < accounted <= metrics["trace.e2e_us"]
    unattributed = metrics["trace.unattributed_us"]
    assert 0 <= unattributed < MAX_UNATTRIBUTED * metrics["trace.e2e_us"]
    assert math.isclose(accounted + unattributed, metrics["trace.e2e_us"], rel_tol=1e-9)


def test_tracer_self_time_is_span_minus_children():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 2.0

    def middle():
        now[0] += 1.0
        traced_leaf()
        now[0] += 3.0

    traced_leaf = tracer.wrap("leaf", leaf)
    tracer.wrap("middle", middle)()
    start = tracer.begin()
    now[0] += 5.0
    tracer.end("root", start)
    assert tracer.self_seconds() == {"leaf": 2.0, "middle": 4.0, "root": 5.0}
    assert tracer.calls() == {"leaf": 1, "middle": 1, "root": 1}


def test_pacer_slowdown_is_the_mean_of_the_slices_around_a_window():
    now = [0.0]
    slices = iter([1.0, 3.0, 2.0])
    pacer = Pacer(slice=lambda: next(slices) * PACE_REF_S, clock=lambda: now[0])
    for wall in (4.0, 6.0):
        pacer.start()
        now[0] += wall
        pacer.stop()
    assert pacer.walls == [4.0, 6.0]
    assert list(pacer.slowdowns()) == [2.0, 2.5]
    assert sum(w / s for w, s in zip(pacer.walls, pacer.slowdowns())) == 4.4


def test_patches_restore_class_methods():
    class Thing:
        def f(self):
            return 1

    thing = Thing()
    patches = Patches()
    patches.set(thing, "f", lambda: 2)
    patches.set(thing, "f", lambda: 3)
    assert thing.f() == 3
    patches.restore()
    assert thing.f() == 1 and "f" not in vars(thing)


@pytest.fixture(scope="module")
def babi_suite():
    from repro.artifacts import load_suite

    return load_suite(wl.babi_artifacts())


def test_same_seed_same_stream_new_seed_same_shape(babi_suite):
    def shape(items):
        return [(item.task, item.story.shape, item.question.shape) for item in items]

    def content(items):
        return [
            (item.task, item.story.tobytes(), item.question.tobytes(), item.gold)
            for item in items
        ]

    for make in (lambda s: wl.babi_stream(babi_suite, s), wl.prod_stream):
        first, again, other = make(1), make(1), make(2)
        assert content(first) == content(again)
        assert content(first) != content(other)
        assert len(first) == len(other)
        assert sorted(shape(first), key=repr) == sorted(shape(other), key=repr)


def test_babi_round_serves_every_test_example_equally(babi_suite):
    counts = {}
    for item in wl.babi_stream(babi_suite, 5):
        key = (item.task, item.story.tobytes(), item.question.tobytes())
        counts[key] = counts.get(key, 0) + 1
    assert set(counts.values()) == {wl.BABI_ROUND // (len(wl.BABI_TASKS) * 50)}


def test_oracle_catches_one_injected_wrong_label(babi_suite):
    served = wl.open_babi(wl.babi_artifacts(), "sw")
    try:
        items = wl.babi_stream(babi_suite, 1)
        engines = {t: served.router.predictor(t).engine for t in wl.BABI_TASKS}
        loop = ClosedLoop(served.router, items, wl.oracle(items, engines), True)
        clean = Outcome()
        loop.round(clean)
        assert clean.mismatches == 0 and clean.answered == len(items)

        route = served.router.predictor(items[7].task)
        inner = route.predict_batch

        def flip_one(requests):
            responses = inner(requests)
            return [
                replace(r, label=r.label + 1) if q.request_id == 7 else r
                for q, r in zip(requests, responses)
            ]

        patches = Patches()
        patches.set(route, "predict_batch", flip_one)
        try:
            flipped = Outcome()
            loop.round(flipped)
        finally:
            patches.restore()
        assert flipped.mismatches == 1
    finally:
        served.router.close()


def test_run_without_program_source_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run("babi-mixed", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
