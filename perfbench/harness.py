"""One benchmark run: set up, compute the oracle, measure, report.

A run with ``trace=False`` measures the end-to-end metrics with no
wrapper installed. Times are paced: scaled to a fixed host speed
(:mod:`perfbench.pace`); the per-layer set also carries the raw
throughput and the host's slowdown. A run with ``trace=True`` alternates untraced and
traced rounds and reports the per-layer metrics (plus the tracing
overhead between the two kinds of round).
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

import numpy as np

from perfbench import workloads as wl
from perfbench.loops import AsyncLoop, ClosedLoop, FlushLog, Outcome, install_layers
from perfbench.pace import PACE_REF_S, pace_slice
from perfbench.report import (
    END_TO_END,
    PER_LAYER,
    host_fingerprint,
    metrics_block,
    peak_rss_mb,
)
from perfbench.spans import Tracer

SETUP_REPEATS = 41


@dataclass(frozen=True)
class Workload:
    """How a workload is served; its reason is in ``BENCHMARK.json``."""

    model: str  # "babi" or "prod"
    device: str = "sw"
    frontend: bool = False  # through AsyncFrontend instead of router.submit


WORKLOADS = {
    "babi-mixed": Workload("babi"),
    "prod-zipf": Workload("prod"),
    "babi-hw": Workload("babi", device="hw"),
    "babi-async": Workload("babi", frontend=True),
}


def _setup(workload: Workload, artifacts):
    """Set up ``SETUP_REPEATS`` times; keep the last stack. Returns the
    stack and the median of each paced set-up timing.

    The slices just before and after a set-up give its slowdown. Only
    its CPU time is scaled: the first answer waits for the
    ``max_wait_s`` timer, and a timer does not run slower on a slow
    host. The load and open steps are CPU work and are divided by it.
    """
    samples = []
    served = None
    for _ in range(SETUP_REPEATS):
        if served is not None:
            served.router.close()
        before = pace_slice()
        cpu0 = time.process_time()
        if workload.model == "prod":
            served = wl.open_prod()
        elif workload.frontend:
            served = wl.open_babi_async(artifacts)
        else:
            served = wl.open_babi(artifacts, workload.device)
        cpu_s = time.process_time() - cpu0
        slowdown = (before + pace_slice()) / (2.0 * PACE_REF_S)
        samples.append(
            (
                served.setup_s - cpu_s * (1.0 - 1.0 / slowdown),
                served.load_s / slowdown,
                served.open_s / slowdown,
            )
        )
    medians = [statistics.median(column) for column in zip(*samples)]
    return served, dict(zip(("setup_s", "artifacts.load_s", "router.open_s"), medians))


def _engines(workload: Workload, served):
    """Oracle engines per route: the route's own ``BatchInferenceEngine``,
    or a cache-free / software twin where the route has none to spare
    (the cached production route, the co-simulated routes)."""
    from repro.mann.batch import BatchInferenceEngine
    from repro.serving import open_predictor

    if workload.model == "prod":
        return {None: BatchInferenceEngine(wl.production_weights(), "exact")}
    if workload.device == "hw":
        return {
            task: open_predictor(served.suite, task, mips_backend="threshold").engine
            for task in wl.BABI_TASKS
        }
    return {task: served.router.predictor(task).engine for task in wl.BABI_TASKS}


def _streams(workload: Workload, served, seed: int):
    """The seeded stream, and the fixed (seed 0) one the reference uses."""
    if workload.model == "prod":
        return wl.prod_stream(seed), wl.prod_stream(0)
    return wl.babi_stream(served.suite, seed), wl.babi_stream(served.suite, 0)


#: Self-time metrics (µs per request) and the spans each one sums.
#: Together with ``trace.unattributed_us`` they account for a request.
SELF_TIMES = {
    "api.build_us": ("api",),
    "scheduler.self_us": ("scheduler",),
    "router.self_us": ("router",),
    "predictor.self_us": ("predictor",),
    "engine.write_us": ("engine.write",),
    "engine.hops_us": ("engine.hops",),
    "mips.search_us": ("mips",),
    "cache.lookup_us": ("cache",),
    "hw.run_us": ("hw",),
    "frontend.admit_us": ("frontend",),
}


class FlushStats:
    """Flush-level facts accumulated over traced rounds."""

    def __init__(self):
        self.flushes = 0
        self.requests = 0
        self.queue_wait_s = 0.0
        self.resolve_s = 0.0
        self.root_resolve_s = 0.0
        self.wake_s = 0.0

    def absorb(self, log: FlushLog, submitted, done) -> None:
        """Fold one round's flushes in: ``submitted``/``done`` are that
        round's per-request submit and done-callback times."""
        for start, end, nested, ids in log.flushes:
            self.flushes += 1
            self.requests += len(ids)
            self.queue_wait_s += sum(start - submitted[k] for k in ids)
            resolve = max(done[k] for k in ids) - end
            self.resolve_s += resolve
            if not nested:  # flushed by the deadline thread, outside a span
                self.root_resolve_s += resolve
        log.flushes.clear()


def _hw_metrics(reports) -> dict:
    """Simulated per-query figures of the co-simulation's reports."""
    examples = [run for report in reports for run in report.examples]
    if not examples:
        return {}
    values = {
        f"hw.sim_cycles.{phase}": sum(getattr(run.phases, phase) for run in examples)
        / len(examples)
        for phase in ("control", "write", "question", "hops", "output")
    }
    energy = sum(report.energy_joules for report in reports)
    values["hw.sim_energy_uj"] = energy / len(examples) * 1e6
    values["hw.interface_share"] = sum(r.interface_seconds for r in reports) / sum(
        r.wall_seconds for r in reports
    )
    values["hw.flops_per_kj"] = sum(r.flops for r in reports) / (energy / 1e3)
    return values


def _cache(served):
    predictor = served.router.predictor(served.router.tasks[0])
    return getattr(predictor, "cache", None)


def _closed(workload, served, items, refs, seconds: float, trace: bool):
    """Closed-loop rounds for ``seconds``; traced runs alternate an
    untraced and a traced round. Counts come from the first traced
    round: a fixed amount of work, so they compare across commits."""
    exact_logit = workload.device == "sw"
    if workload.frontend:
        loop = AsyncLoop(served.frontend, items, refs, exact_logit)
        on_admit = loop.on_admit
    else:
        loop = ClosedLoop(served.router, items, refs, exact_logit)
        on_admit = None
    try:
        return _rounds(loop, served, seconds, trace, on_admit)
    finally:
        if workload.frontend:
            loop.close()


def _rounds(loop, served, seconds: float, trace: bool, on_admit):
    loop.warm_up()  # caches, buffers, lazy set-up, the deadline thread's arena
    plain, traced = Outcome(), Outcome()
    layer: dict = {}
    tracer, log, flush_stats = Tracer(), FlushLog(), FlushStats()
    cache = _cache(served)
    stats = served.router.stats
    while plain.wall_s + traced.wall_s < seconds or (trace and not traced.attempted):
        loop.round(plain)
        if not trace:
            continue
        first = not traced.attempted
        log.keep_reports = first
        before = cache.counters() if cache is not None else (0, 0, 0)
        refused = stats.shed, stats.expired
        patches = install_layers(tracer, served.router, log, on_admit)
        try:
            answers = loop.round(traced, tracer)
        finally:
            patches.restore()
        if first:
            after = cache.counters() if cache is not None else (0, 0, 0)
            hits, misses, evictions = (a - b for a, b in zip(after, before))
            layer.update(
                {
                    "cache.hits": hits,
                    "cache.misses": misses,
                    "cache.evictions": evictions,
                    "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
                    "scheduler.flushes": len(log.flushes),
                    "mips.comparisons_per_query": float(answers.comparisons.mean()),
                    "mips.early_exit_rate": float(answers.early_exits.mean()),
                    "frontend.shed": stats.shed - refused[0],
                    "frontend.expired": stats.expired - refused[1],
                }
            )
            layer.update(_hw_metrics(log.hw_reports))
            log.hw_reports.clear()
        if on_admit is not None:
            woken = answers.answered
            flush_stats.wake_s += float(np.sum((loop.resumed - loop.done)[woken]))
        flush_stats.absorb(log, loop.submitted, loop.done)
    if trace:
        layer.update(_traced_layers(tracer, traced, flush_stats))
        layer["trace.overhead"] = plain.rate_rps() / traced.rate_rps() - 1.0
    return plain, traced, layer


def _traced_layers(tracer: Tracer, traced: Outcome, flush_stats: FlushStats) -> dict:
    n = traced.attempted
    self_s = tracer.self_seconds()
    layer = {
        metric: sum(self_s.get(span, 0.0) for span in spans) / n * 1e6
        for metric, spans in SELF_TIMES.items()
    }
    layer["scheduler.self_us"] += flush_stats.root_resolve_s / n * 1e6
    layer["scheduler.resolve_us"] = flush_stats.resolve_s / n * 1e6
    layer["scheduler.queue_wait_ms"] = (
        flush_stats.queue_wait_s / max(1, flush_stats.requests) * 1e3
    )
    layer["scheduler.batch_size_mean"] = flush_stats.requests / max(
        1, flush_stats.flushes
    )
    layer["router.engine_calls_per_flush"] = tracer.calls().get("predictor", 0) / max(
        1, flush_stats.flushes
    )
    layer["frontend.wake_us"] = flush_stats.wake_s / n * 1e6
    layer["trace.e2e_us"] = traced.wall_s / n * 1e6
    layer["trace.unattributed_us"] = layer["trace.e2e_us"] - sum(
        layer[metric] for metric in SELF_TIMES
    )
    return layer


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns ``(result, info)`` where ``result`` is
    the printed result object and ``info`` the host fingerprint and
    same-run reference printed beside it."""
    workload = WORKLOADS[name]
    artifacts = wl.babi_artifacts() if workload.model == "babi" else None
    served, setup = _setup(workload, artifacts)
    try:
        items, fixed_items = _streams(workload, served, seed)
        engines = _engines(workload, served)
        refs = wl.oracle(items, engines)
        reference_us = wl.reference_search_us(engines, fixed_items)
        # Set-up, stream and oracle objects live for the whole run; keep
        # them out of the collector's full passes, whose pauses would
        # otherwise grow with the benchmark's own heap.
        gc.collect()
        gc.freeze()
        plain, traced, layer = _closed(workload, served, items, refs, seconds, trace)
    finally:
        served.router.close()

    attempted = plain.attempted + traced.attempted
    failed = attempted - plain.answered - traced.answered
    mismatches = plain.mismatches + traced.mismatches
    errors = plain.unexpected_errors + traced.unexpected_errors
    values = {
        "setup_s": setup["setup_s"],
        "throughput_rps": plain.rate_rps(),
        "latency_p50_ms": plain.latency_ms(50),
        "latency_p99_ms": plain.latency_ms(99),
        "cpu_ms_per_kreq": plain.cpu_ms_per_kreq(),
        "rss_mb": peak_rss_mb(),
        # Closed-loop requests carry no deadline: every answer is in time.
        "goodput_ratio": plain.answered / plain.attempted,
        "accuracy": plain.gold_hits / plain.gold_total,
    }
    if trace:
        names = PER_LAYER
        # Layers a workload does not use (the cache on bAbI, the
        # co-simulation in software, the engine on the co-simulation) read 0.
        values.update(dict.fromkeys(names, 0.0))
        values.update(layer)
        values["artifacts.load_s"] = setup["artifacts.load_s"]
        values["router.open_s"] = setup["router.open_s"]
        values["error_rate"] = failed / attempted
        values["reference.engine_search_us"] = reference_us
        # CPU ms per 1000 answers is CPU µs per answer; both sides raw.
        values["reference.routed_ratio"] = plain.cpu_ms_per_kreq(paced=False) / reference_us
        values["raw.throughput_rps"] = plain.rate_rps(paced=False)
        values["host.slowdown"] = plain.slowdown()
    else:
        names = END_TO_END
    result = {
        "correct": mismatches == 0 and errors == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_block(values, names),
    }
    info = {
        "workload": name,
        "seed": seed,
        "host": host_fingerprint(),
        "reference.engine_search_us": reference_us,
        "oracle_mismatches": mismatches,
        "unexpected_errors": errors,
    }
    return result, info
