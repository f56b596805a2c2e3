"""Routed serving throughput: the single-worker scheduler vs one at a time.

This benchmark routes one mixed-task request stream through
:class:`ModelRouter` twice — one-at-a-time ``predict()`` calls and the
micro-batching scheduler, whose flushes run inline on one worker —
asserting bit-identical answers, and persists

* ``benchmarks/output/workers.txt`` — the human-readable comparison,
  and
* ``benchmarks/output/BENCH_serving.json`` — a machine-readable
  throughput summary (key ``serving_workers``) CI archives so the
  serving perf trajectory is comparable across PRs.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import persist, persist_bench_summary

from repro.serving import ModelRouter, QueryRequest
from repro.utils.tables import TextTable

N_REQUESTS = 512
MAX_BATCH = 64
TASKS = (1, 2, 6, 15)  # four routes: enough mix to exercise the router
#: The routed scheduler must beat one-at-a-time submission by this much
#: (the end-to-end serving contract).
MIN_SERVING_SPEEDUP = 2.0
#: Best-of-N timing per configuration keeps the numbers stable against
#: scheduler jitter (flushes race the deadline thread).
REPEATS = 3


def _requests(suite, n: int) -> list[QueryRequest]:
    tasks = [t for t in TASKS if t in suite.tasks]
    stream = []
    for i in range(n):
        task = tasks[i % len(tasks)]
        batch = suite.tasks[task].test_batch
        j = (i // len(tasks)) % len(batch)
        stream.append(
            QueryRequest(
                batch.stories[j],
                batch.questions[j],
                n_sentences=int(batch.story_lengths[j]),
                request_id=i,
                task=task,
            )
        )
    return stream


def _timed_run(suite, requests):
    """Best-of-REPEATS timing of the routed single-worker scheduler."""
    best_seconds, labels, router = None, None, None
    for _ in range(REPEATS):
        candidate = ModelRouter.open(
            suite,
            tasks=[t for t in TASKS if t in suite.tasks],
            mips_backend="exact",
            max_batch=MAX_BATCH,
            max_wait_s=0.005,
        )
        warm_up = [candidate.submit(r) for r in requests[:MAX_BATCH]]
        candidate.flush()
        for future in warm_up:
            future.result()
        start = time.perf_counter()
        with candidate:
            futures = [candidate.submit(request) for request in requests]
            run_labels = [future.result().label for future in futures]
        seconds = time.perf_counter() - start
        if labels is not None:
            assert run_labels == labels, "nondeterministic serving answers"
        if best_seconds is None or seconds < best_seconds:
            best_seconds, labels, router = seconds, run_labels, candidate
    return best_seconds, labels, router


def test_bench_worker_scaling(full_suite):
    requests = _requests(full_suite, N_REQUESTS)

    # One-at-a-time baseline (no scheduler at all).
    warm = ModelRouter.open(
        full_suite,
        tasks=[t for t in TASKS if t in full_suite.tasks],
        mips_backend="exact",
        start_worker=False,
    )
    warm.predict_batch(requests[: 2 * MAX_BATCH])  # BLAS/alloc warm-up
    one_at_a_time, reference = None, None
    for _ in range(REPEATS):
        start = time.perf_counter()
        reference = [warm.predict(request).label for request in requests]
        seconds = time.perf_counter() - start
        one_at_a_time = seconds if one_at_a_time is None else min(one_at_a_time, seconds)
    warm.close()

    seconds, labels, router = _timed_run(full_suite, requests)
    assert labels == reference, "scheduled serving changed an answer"
    speedup = one_at_a_time / seconds
    stats = router.stats
    row = {
        "workers": 1,
        "requests_per_s": round(N_REQUESTS / seconds, 1),
        "mean_batch": round(stats.mean_batch_size, 2),
        "mean_latency_ms": round(stats.mean_latency_s * 1e3, 3),
        "p50_latency_ms": round(stats.p50_latency_s * 1e3, 3),
        "p95_latency_ms": round(stats.p95_latency_s * 1e3, 3),
        "p99_latency_ms": round(stats.p99_latency_s * 1e3, 3),
    }

    table = TextTable(
        ["configuration", "requests/s", "mean batch", "speedup"],
        title=(
            f"Routed serving — {len(TASKS)} task routes, "
            f"{N_REQUESTS} requests, exact backend, max_batch={MAX_BATCH}"
        ),
    )
    table.add_row(
        ["one-at-a-time predict()", f"{N_REQUESTS / one_at_a_time:,.0f}", "1.0", "-"]
    )
    table.add_row(
        [
            "router(1 worker)",
            f"{N_REQUESTS / seconds:,.0f}",
            f"{stats.mean_batch_size:.1f}",
            f"{speedup:.2f}x",
        ]
    )

    cores = os.cpu_count() or 1
    persist_bench_summary(
        "serving_workers",
        {
            "benchmark": "serving_workers",
            "cpu_count": cores,
            "n_requests": N_REQUESTS,
            "task_routes": list(TASKS),
            "mips_backend": "exact",
            "max_batch": MAX_BATCH,
            "one_at_a_time_rps": round(N_REQUESTS / one_at_a_time, 1),
            "single_worker_speedup": round(speedup, 2),
            "single_worker": row,
        },
    )
    persist(
        "workers",
        table.render()
        + f"\nsingle-worker scheduler vs one-at-a-time: {speedup:.2f}x "
        f"(floor {MIN_SERVING_SPEEDUP}x)"
        + f"\ncpu cores: {cores}",
    )

    assert speedup >= MIN_SERVING_SPEEDUP, (
        f"routed scheduler only {speedup:.2f}x over one-at-a-time "
        f"(floor {MIN_SERVING_SPEEDUP}x)"
    )
