"""ServingStats under concurrent hammering.

The scheduler serialises every stats mutation behind its internal
stats lock; these tests are the proof — many submitter threads racing
max-batch inline flushes and the deadline thread, with *exact* request
totals asserted at the end.
A torn reservoir update or a dropped counter increment shows up here
as an off-by-N total or a non-monotone percentile.
"""

from __future__ import annotations

import threading

from repro.serving import ModelRouter, QueryRequest

N_THREADS = 8
PER_THREAD = 40


def _requests_for(suite, thread_id: int):
    """PER_THREAD requests cycling over both tasks' test examples."""
    requests = []
    tasks = (1, 6)
    for k in range(PER_THREAD):
        task = tasks[k % len(tasks)]
        batch = suite.tasks[task].test_batch
        i = (thread_id * PER_THREAD + k) % len(batch)
        requests.append(
            QueryRequest(
                batch.stories[i],
                batch.questions[i],
                n_sentences=int(batch.story_lengths[i]),
                request_id=f"{thread_id}-{k}",
                task=task,
            )
        )
    return requests


def _assert_monotone_percentiles(stats) -> None:
    assert 0.0 <= stats.p50_latency_s <= stats.p95_latency_s <= stats.p99_latency_s
    assert stats.p99_latency_s <= stats.max_latency_s
    assert 0.0 <= stats.mean_service_s and 0.0 <= stats.p95_service_s


def test_concurrent_submitters_exact_totals(tiny_suite, artifacts_dir):
    total = N_THREADS * PER_THREAD
    with ModelRouter.open(
        artifacts_dir,
        max_batch=8,
        max_wait_s=0.001,
    ) as router:
        barrier = threading.Barrier(N_THREADS)
        futures_by_thread: dict[int, list] = {}
        errors: list[BaseException] = []

        def submitter(thread_id: int) -> None:
            try:
                barrier.wait(timeout=30.0)
                futures_by_thread[thread_id] = [
                    router.submit(r) for r in _requests_for(tiny_suite, thread_id)
                ]
            except BaseException as error:  # surface, don't hang the join
                errors.append(error)

        threads = [
            threading.Thread(target=submitter, args=(t,), name=f"submitter-{t}")
            for t in range(N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors

        responses = [
            future.result(timeout=60.0)
            for t in range(N_THREADS)
            for future in futures_by_thread[t]
        ]
        assert len(responses) == total
        # Every response routed correctly despite the interleaving.
        for response in responses:
            thread_id, k = map(int, response.request_id.split("-"))
            assert 0 <= thread_id < N_THREADS and 0 <= k < PER_THREAD

    # Flush accounting lands just after futures resolve, so exact-total
    # assertions run after close() has drained every in-flight flush.
    stats = router.stats
    assert stats.requests == total  # no increment lost, none double-counted
    assert sum(stats.batch_sizes) == total  # below reservoir capacity
    assert len(stats.latencies_s) == total
    assert stats.flushes >= total / router.scheduler.max_batch
    assert stats.shed == 0 and stats.expired == 0
    _assert_monotone_percentiles(stats)
    # Per-route accounting adds up across the same races.
    assert sum(s.requests for s in router.route_stats.values()) == total


def test_shed_and_deadline_counters_exact_under_concurrency(
    tiny_suite, artifacts_dir
):
    """offered = requests + shed + expired must balance exactly even
    when many threads race a bounded queue with shedding."""
    with ModelRouter.open(
        artifacts_dir,
        max_batch=8,
        max_wait_s=0.0005,
        queue_cap=4,
        overload_policy="shed",
    ) as router:
        barrier = threading.Barrier(N_THREADS)
        outcomes: list[str] = []
        lock = threading.Lock()
        futures: list = []

        def submitter(thread_id: int) -> None:
            barrier.wait(timeout=30.0)
            from repro.serving import OverloadError

            for request in _requests_for(tiny_suite, thread_id):
                try:
                    future = router.submit(request)
                except OverloadError:
                    with lock:
                        outcomes.append("shed")
                else:
                    with lock:
                        outcomes.append("served")
                        futures.append(future)

        threads = [
            threading.Thread(target=submitter, args=(t,))
            for t in range(N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)

        for future in futures:
            future.result(timeout=60.0)  # every admitted request resolves

    stats = router.stats  # post-close: all flush accounting has landed
    total = N_THREADS * PER_THREAD
    assert len(outcomes) == total
    assert stats.requests == outcomes.count("served")
    assert stats.shed == outcomes.count("shed")
    assert stats.offered == total
    assert stats.expired == 0
    _assert_monotone_percentiles(stats)
