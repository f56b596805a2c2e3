"""Chaos soak: the fault-tolerant runtime under injected model failures.

The acceptance gate for the resilience layer: route a mixed-task
request stream through the serving stack while the chaos harness makes
a fraction of the per-route engine calls raise a transient
``raise-in-predict`` fault, at a ladder of fault rates, with and
without a retry policy:

* **retry** (``RetryPolicy``): the scheduler replays every failed
  flush — the soak must finish with **zero** failed requests and
  bit-identical answers.
* **no retry**: each fault fails its whole flush — requests are lost,
  which is the row that shows what the retry policy buys.

The scheduler runs in manual mode (``start_worker=False``): every flush
is a full ``MAX_BATCH`` taken at submit time, so flush composition, and
with the pure :class:`FaultPlan` draws every counter, repeats exactly
run to run. ``N_REQUESTS`` is large enough that the two nonzero rates
report different retry and recovery counts.

Persists ``benchmarks/output/resilience.txt`` (the human-readable
ladder) and a machine-readable summary under the
``serving_resilience`` key of ``benchmarks/output/BENCH_serving.json``
so CI can watch the zero-failure contract hold across PRs.
"""

from __future__ import annotations

import time

from benchmarks.conftest import persist, persist_bench_summary

from repro.serving import (
    FaultPlan,
    ModelRouter,
    QueryRequest,
    RetryPolicy,
    ServingError,
)
from repro.utils.tables import TextTable

N_REQUESTS = 1024
MAX_BATCH = 16
TASKS = (1, 2, 6, 15)
#: Attempts per flush under retry. A flush calls all four routes, so at
#: rate 0.08 about 28% of attempts fault; eight attempts leave a flush
#: failing for good with probability ~4e-5.
RETRY_ATTEMPTS = 8
#: (fault rate, retry) soak ladder. Every nonzero-rate plan also
#: schedules a guaranteed fault at each route's third engine call, so
#: the no-retry row demonstrably loses requests even if the rate draw
#: happens to spare the early indices.
LADDER = ((0.0, True), (0.04, True), (0.08, True), (0.04, False))


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


def _soak(suite, requests, fault_rate: float, retry: bool):
    """One soak run; returns (labels, seconds, failed, stats)."""
    plan = None
    if fault_rate > 0:
        plan = FaultPlan(
            raise_rate=fault_rate,
            seed=13,
            schedule=((2, "raise-in-predict"),),
        )
    router = ModelRouter.open(
        suite,
        tasks=[t for t in TASKS if t in suite.tasks],
        mips_backend="exact",
        max_batch=MAX_BATCH,
        start_worker=False,
        chaos_plan=plan,
        retry_policy=(
            RetryPolicy(max_attempts=RETRY_ATTEMPTS, backoff_base_s=0.0)
            if retry
            else None
        ),
    )
    labels: dict[int, int] = {}
    failed = 0
    start = time.perf_counter()
    with router:
        futures = []
        for request in requests:
            try:
                futures.append((request.request_id, router.submit(request)))
            except ServingError:
                failed += 1
        router.flush()
        for request_id, future in futures:
            try:
                labels[request_id] = future.result(timeout=120.0).label
            except ServingError:
                failed += 1
    seconds = time.perf_counter() - start
    return labels, seconds, failed, router.stats


def test_bench_chaos_soak(full_suite):
    requests = _requests(full_suite, N_REQUESTS)

    # Fault-free reference answers, one request at a time.
    reference_router = ModelRouter.open(
        full_suite,
        tasks=[t for t in TASKS if t in full_suite.tasks],
        mips_backend="exact",
        start_worker=False,
    )
    with reference_router:
        reference = {
            r.request_id: reference_router.predict(r).label for r in requests
        }

    table = TextTable(
        [
            "fault rate",
            "retry",
            "served",
            "failed",
            "retried",
            "recovered",
            "requests/s",
        ],
        title=(
            f"Chaos soak — {N_REQUESTS} requests, {len(TASKS)} routes, "
            f"max_batch={MAX_BATCH}, raise-in-predict faults, "
            f"retry budget {RETRY_ATTEMPTS} attempts"
        ),
    )
    rows = []
    for fault_rate, retry in LADDER:
        labels, seconds, failed, stats = _soak(
            full_suite, requests, fault_rate, retry
        )
        if retry:
            # The zero-failure contract: every request served, every
            # answer bit-identical to the fault-free reference.
            assert failed == 0, (
                f"soak with retry at fault rate {fault_rate} lost "
                f"{failed} requests"
            )
            assert labels == reference, "recovery changed an answer"
            if fault_rate > 0:
                assert stats.retries >= 1, "no fault was ever injected"
                assert stats.recovered >= 1
        else:
            assert failed > 0, (
                "soak without retry survived injected faults — the "
                "faults are not being exercised"
            )
            assert all(labels[k] == reference[k] for k in labels)
        rows.append(
            {
                "fault_rate": fault_rate,
                "retry": retry,
                "served": len(labels),
                "failed": failed,
                "retries": stats.retries,
                "recovered": stats.recovered,
                "requests_per_s": round(len(labels) / seconds, 1)
                if seconds > 0
                else 0.0,
            }
        )
        table.add_row(
            [
                f"{fault_rate:.2f}",
                "yes" if retry else "no",
                str(len(labels)),
                str(failed),
                str(stats.retries),
                str(stats.recovered),
                f"{len(labels) / seconds:,.0f}",
            ]
        )

    # The soak is sized so the nonzero rates tell apart.
    low, high = rows[1], rows[2]
    assert (low["retries"], low["recovered"]) != (
        high["retries"],
        high["recovered"],
    ), "soak too small: fault rates 0.04 and 0.08 report the same counters"

    persist("resilience", table.render())
    persist_bench_summary(
        "serving_resilience",
        {
            "benchmark": "chaos_soak",
            "n_requests": N_REQUESTS,
            "max_batch": MAX_BATCH,
            "retry_attempts": RETRY_ATTEMPTS,
            "tasks": list(TASKS),
            "rows": rows,
        },
    )
