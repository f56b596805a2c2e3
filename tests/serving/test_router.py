"""ModelRouter: many task routes, one scheduler, per-route accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import ModelRouter, QueryRequest, open_predictor


def _request(suite, task, i, route=None):
    batch = suite.tasks[task].test_batch
    j = i % len(batch)
    return QueryRequest(
        batch.stories[j],
        batch.questions[j],
        n_sentences=int(batch.story_lengths[j]),
        request_id=(task, i),
        task=task if route is None else route,
    )


class TestOpen:
    def test_routes_cover_artifacts(self, artifacts_dir):
        with ModelRouter.open(str(artifacts_dir), start_worker=False) as router:
            assert router.tasks == [1, 6]

    def test_task_subset(self, tiny_suite):
        with ModelRouter.open(tiny_suite, tasks=[6], start_worker=False) as router:
            assert router.tasks == [6]

    def test_unknown_task_rejected_at_open(self, tiny_suite):
        with pytest.raises(KeyError, match="13"):
            ModelRouter.open(tiny_suite, tasks=[13])

    def test_single_task_system_route(self, tiny_suite):
        with ModelRouter.open(
            tiny_suite.tasks[1], start_worker=False
        ) as router:
            assert router.tasks == [1]

    def test_rejects_empty_and_garbage(self):
        with pytest.raises(ValueError, match="route"):
            ModelRouter({})
        with pytest.raises(TypeError, match="artifacts"):
            ModelRouter.open(42)


class TestRouting:
    def test_scheduled_matches_direct_predictors(self, tiny_suite):
        """Mixed-task submissions through the shared scheduler equal
        per-task direct predictor calls, bit for bit."""
        requests = [
            _request(tiny_suite, (1, 6)[i % 2], i) for i in range(30)
        ]
        direct = {
            task: open_predictor(tiny_suite, task) for task in (1, 6)
        }
        expected = [direct[r.task].predict(r) for r in requests]
        with ModelRouter.open(
            tiny_suite, max_batch=8, max_wait_s=0.005
        ) as router:
            futures = [router.submit(r) for r in requests]
            answered = [f.result(timeout=10.0) for f in futures]
        assert [r.label for r in answered] == [r.label for r in expected]
        # BLAS reduction order varies with the co-batch shape of the
        # *forward pass*: logits agree to float tolerance, every
        # discrete field must agree exactly.
        assert np.allclose(
            [r.logit for r in answered], [r.logit for r in expected]
        )
        assert [r.comparisons for r in answered] == [
            r.comparisons for r in expected
        ]
        assert [r.request_id for r in answered] == [
            r.request_id for r in expected
        ]

    def test_per_route_stats(self, tiny_suite):
        with ModelRouter.open(
            tiny_suite, start_worker=False, max_batch=64
        ) as router:
            futures = [
                router.submit(_request(tiny_suite, task, i))
                for i, task in enumerate([1, 1, 1, 6, 6])
            ]
            router.flush()
            assert all(f.done() for f in futures)
            assert router.route_stats[1].requests == 3
            assert router.route_stats[6].requests == 2
            assert router.stats.requests == 5

    def test_unknown_task_raises_in_caller(self, tiny_suite):
        with ModelRouter.open(tiny_suite, start_worker=False) as router:
            with pytest.raises(KeyError, match="routes"):
                router.submit(_request(tiny_suite, 1, 0, route=99))
            assert router.scheduler.pending == 0  # nothing enqueued

    def test_taskless_request_needs_single_route(self, tiny_suite):
        multi = ModelRouter.open(tiny_suite, start_worker=False)
        single = ModelRouter.open(tiny_suite, tasks=[1], start_worker=False)
        batch = tiny_suite.tasks[1].test_batch
        request = QueryRequest(batch.stories[0], batch.questions[0])
        with multi, single:
            with pytest.raises(ValueError, match="task"):
                multi.submit(request)
            future = single.submit(request)
            single.flush()
            reference = open_predictor(tiny_suite, 1).predict(request)
            assert future.result().label == reference.label

    def test_direct_predict_batch_mixed_tasks(self, tiny_suite):
        requests = [_request(tiny_suite, (1, 6)[i % 2], i) for i in range(8)]
        with ModelRouter.open(tiny_suite, start_worker=False) as router:
            answered = router.predict_batch(requests)
        expected = [
            open_predictor(tiny_suite, r.task).predict(r) for r in requests
        ]
        assert [r.label for r in answered] == [r.label for r in expected]

    def test_submit_after_close_rejected(self, tiny_suite):
        router = ModelRouter.open(tiny_suite, start_worker=False)
        router.close()
        with pytest.raises(RuntimeError, match="closed"):
            router.submit(_request(tiny_suite, 1, 0))
