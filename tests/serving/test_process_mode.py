"""Process-pool flush execution: bit-identical to the inline mode.

The contract `worker_mode="process"` ships on: worker processes rebuild
each route from its picklable :class:`WorkerSpec` over memory-mapped
artifacts, receive only encoded arrays, and the decoded responses match
the inline thread mode **bit-identically** — across every backend. The
pool's flush mechanics (partition hook, close under load, FIFO dequeue)
are pinned in ``test_scheduler.py``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.artifacts import load_suite, mmap_npz
from repro.serving import (
    BatchScheduler,
    ModelRouter,
    QueryRequest,
    WorkerSpec,
    open_predictor,
)


def _suite_requests(suite, tasks=(1, 6)):
    requests = []
    for task in tasks:
        batch = suite.tasks[task].test_batch
        for i in range(len(batch)):
            requests.append(
                QueryRequest(
                    batch.stories[i],
                    batch.questions[i],
                    n_sentences=int(batch.story_lengths[i]),
                    request_id=f"{task}-{i}",
                    task=task,
                )
            )
    return requests


def _serve(artifacts_dir, requests, **kwargs):
    with ModelRouter.open(
        artifacts_dir, max_batch=8, start_worker=False, **kwargs
    ) as router:
        futures = [router.submit(r) for r in requests]
        router.flush()
        responses = [f.result(timeout=60.0) for f in futures]
        stats = (router.stats.requests, dict(router.route_stats))
    return responses, stats


def _assert_identical_responses(thread, process):
    assert len(thread) == len(process)
    for a, b in zip(thread, process):
        assert a.label == b.label
        assert a.logit == b.logit  # bitwise float equality, not approx
        assert a.comparisons == b.comparisons
        assert a.early_exit == b.early_exit
        assert a.answer == b.answer
        assert a.request_id == b.request_id


class TestParityMatrix:
    """worker_mode="process" == worker_mode="thread", every backend."""

    @pytest.mark.parametrize("backend", ["alsh", "clustering", "exact", "threshold"])
    def test_bit_identical_to_thread_mode(self, tiny_suite, artifacts_dir, backend):
        requests = _suite_requests(tiny_suite)
        kwargs = dict(mips_backend=backend, seed=0)
        thread, _ = _serve(artifacts_dir, requests, **kwargs)
        process, (n_requests, route_stats) = _serve(
            artifacts_dir, requests, n_workers=2, worker_mode="process", **kwargs
        )
        _assert_identical_responses(thread, process)
        assert n_requests == len(requests)
        # Route accounting works on the process path too.
        assert sum(s.requests for s in route_stats.values()) == len(requests)

    def test_single_process_worker(self, tiny_suite, artifacts_dir):
        """n_workers=1 still runs out-of-process and still matches."""
        requests = _suite_requests(tiny_suite)
        thread, _ = _serve(artifacts_dir, requests, n_workers=1)
        process, _ = _serve(
            artifacts_dir, requests, n_workers=1, worker_mode="process"
        )
        _assert_identical_responses(thread, process)

    def test_latency_and_flush_stats_recorded(self, artifacts_dir, tiny_suite):
        requests = _suite_requests(tiny_suite)
        with ModelRouter.open(
            artifacts_dir,
            max_batch=8,
            start_worker=False,
            n_workers=2,
            worker_mode="process",
        ) as router:
            futures = [router.submit(r) for r in requests]
            router.flush()
            responses = [f.result(timeout=60.0) for f in futures]
            assert all(
                r.latency_s is not None and r.latency_s >= 0 for r in responses
            )
            assert router.stats.flushes >= 1
            assert len(router.stats.latencies_s) == len(requests)
            assert all(n >= 1 for n in router.stats.sub_batches_per_flush)


class TestSchedulerProcessMode:
    def test_worker_mode_validated(self):
        predictor = object()
        with pytest.raises(ValueError, match="worker_mode"):
            BatchScheduler(predictor, worker_mode="fibers", start_worker=False)

    def test_suite_backed_predictor_rejected_eagerly(self, tiny_suite):
        """No artifact directory → no WorkerSpec → construction fails
        with a pointed error, not a mid-flush pickle crash."""
        predictor = open_predictor(tiny_suite, 1)
        with pytest.raises(ValueError, match="artifact"):
            BatchScheduler(predictor, worker_mode="process", start_worker=False)

    def test_hookless_predictor_rejected(self):
        class Hookless:
            def predict_batch(self, requests):  # pragma: no cover
                return []

        with pytest.raises(ValueError, match="worker_specs"):
            BatchScheduler(Hookless(), worker_mode="process", start_worker=False)

    def test_cancellation_on_process_path(self, artifacts_dir):
        predictor = open_predictor(artifacts_dir, 1)
        scheduler = BatchScheduler(
            predictor, max_batch=16, n_workers=2,
            worker_mode="process", start_worker=False,
        )
        batch = load_suite(artifacts_dir).tasks[1].test_batch
        requests = [
            QueryRequest(
                batch.stories[i], batch.questions[i],
                n_sentences=int(batch.story_lengths[i]), request_id=i,
            )
            for i in range(6)
        ]
        futures = [scheduler.submit(r) for r in requests]
        assert futures[3].cancel()
        scheduler.flush()
        for i, future in enumerate(futures):
            if i == 3:
                assert future.cancelled()
            else:
                assert future.result(timeout=60.0).request_id == i
        scheduler.close()

    def test_bad_request_fails_only_its_sub_batch(self, artifacts_dir):
        """A payload the parent cannot encode (story wider than the
        model's memory) resolves its futures with the error and leaves
        the rest of the flush intact."""
        predictor = open_predictor(artifacts_dir, 1)
        memory_size = predictor.engine.config.memory_size
        scheduler = BatchScheduler(
            predictor, max_batch=16, n_workers=2,
            worker_mode="process", start_worker=False,
        )
        good = QueryRequest(
            np.ones((2, 3), dtype=np.int64), np.ones(3, dtype=np.int64)
        )
        bad = QueryRequest(
            np.ones((memory_size + 1, 3), dtype=np.int64),
            np.ones(3, dtype=np.int64),
        )
        good_future = scheduler.submit(good)
        bad_future = scheduler.submit(bad)
        scheduler.flush()
        assert good_future.result(timeout=60.0).label >= 0
        assert isinstance(bad_future.exception(timeout=60.0), ValueError)
        scheduler.close()


class TestWorkerSpec:
    def test_pickle_round_trip(self, artifacts_dir):
        predictor = open_predictor(
            artifacts_dir, 6, mips_backend="threshold", rho=0.9
        )
        (spec,) = predictor.worker_specs()
        assert spec == pickle.loads(pickle.dumps(spec))
        assert spec.artifacts == str(artifacts_dir)
        assert spec.task_id == 6
        assert spec.mips_backend == "threshold"
        assert dict(spec.params)["rho"] == 0.9

    def test_router_collects_all_routes(self, artifacts_dir):
        with ModelRouter.open(
            artifacts_dir, start_worker=False
        ) as router:
            specs = router.scheduler.predictor.worker_specs()
        assert {s.task_id for s in specs} == {1, 6}
        assert all(isinstance(s, WorkerSpec) for s in specs)

    def test_suite_backed_predictor_has_no_spec(self, tiny_suite):
        predictor = open_predictor(tiny_suite, 1)
        assert predictor.spec is None
        with pytest.raises(ValueError, match="artifact"):
            predictor.worker_specs()


class TestMmapArtifacts:
    def test_mmap_npz_bit_identical(self, artifacts_dir):
        path = artifacts_dir / "task_01" / "arrays.npz"
        mapped = mmap_npz(path)
        with np.load(path) as data:
            assert set(mapped) == set(data.files)
            for name in data.files:
                assert np.array_equal(data[name], mapped[name]), name
                assert data[name].dtype == mapped[name].dtype, name

    def test_mapped_weights_are_read_only(self, artifacts_dir):
        suite = load_suite(artifacts_dir, mmap=True)
        weights = suite.tasks[1].weights
        assert isinstance(weights.w_o, np.memmap)
        with pytest.raises(ValueError):
            weights.w_o[0, 0] = 1.0

    def test_mmap_suite_serves_identically(self, artifacts_dir, tiny_suite):
        requests = _suite_requests(tiny_suite, tasks=(1,))
        copied = open_predictor(load_suite(artifacts_dir), 1)
        mapped = open_predictor(load_suite(artifacts_dir, mmap=True), 1)
        _assert_identical_responses(
            copied.predict_batch(requests), mapped.predict_batch(requests)
        )
