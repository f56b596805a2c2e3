"""Retry/backoff and per-route breakers.

The fault-tolerance contract in three layers, tested bottom-up: the
:class:`RetryPolicy`/:class:`CircuitBreaker` machines are deterministic
in isolation (ManualClock, fixed seeds — no wall-clock waits, no
flakes); the scheduler replays transient flush failures; the router
isolates a failing route behind its breaker without touching healthy
routes.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.serving import (
    AsyncFrontend,
    BatchScheduler,
    CircuitBreaker,
    ManualClock,
    ModelRouter,
    QueryRequest,
    QueryResponse,
    RetryPolicy,
    RouteUnavailableError,
    SchedulerClosedError,
    WorkerCrashError,
)


def _request(i: int, task: int | None = None) -> QueryRequest:
    return QueryRequest(
        story=np.full((2, 3), i + 1, dtype=np.int64),
        question=np.array([i + 1, 0, 0], dtype=np.int64),
        request_id=i,
        task=task,
    )


def _response(request) -> QueryResponse:
    return QueryResponse(
        label=int(request.request_id),
        logit=0.0,
        comparisons=1,
        early_exit=False,
        request_id=request.request_id,
    )


class FlakyPredictor:
    """Fails the first ``fail_times`` flushes, then answers."""

    def __init__(self, fail_times: int, error=WorkerCrashError):
        self.fail_times = fail_times
        self.error = error
        self.calls = 0

    def predict_batch(self, requests):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise self.error(f"flaky failure #{self.calls}")
        return [_response(r) for r in requests]


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_attempts=0),
            dict(backoff_base_s=-0.1),
            dict(backoff_max_s=-1.0),
            dict(backoff_multiplier=0.5),
            dict(jitter=-0.1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_should_retry_requires_transient_and_budget(self):
        policy = RetryPolicy(max_attempts=3)
        transient = WorkerCrashError("died")
        assert policy.should_retry(transient, 1)
        assert policy.should_retry(transient, 2)
        assert not policy.should_retry(transient, 3)  # budget spent
        assert not policy.should_retry(ValueError("permanent"), 1)

    def test_backoff_is_deterministic_per_seed(self):
        a = [RetryPolicy(seed=7).backoff_s(k) for k in range(1, 6)]
        b = [RetryPolicy(seed=7).backoff_s(k) for k in range(1, 6)]
        assert a == b  # bitwise: same seed, same jitter stream
        c = [RetryPolicy(seed=8).backoff_s(k) for k in range(1, 6)]
        assert a != c

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            backoff_base_s=0.001,
            backoff_multiplier=2.0,
            backoff_max_s=0.004,
            jitter=0.0,
        )
        assert [policy.backoff_s(k) for k in range(1, 6)] == [
            0.001,
            0.002,
            0.004,
            0.004,  # capped
            0.004,
        ]

    def test_jitter_scales_within_bounds(self):
        policy = RetryPolicy(backoff_base_s=0.010, jitter=0.5)
        wait = policy.backoff_s(1)
        assert 0.010 <= wait <= 0.015

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            RetryPolicy().backoff_s(0)


class TestCircuitBreaker:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(failure_threshold=0),
            dict(reset_timeout_s=-1.0),
            dict(half_open_probes=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CircuitBreaker(**kwargs)

    def test_opens_at_consecutive_failure_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=ManualClock())
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.opens == 1

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=ManualClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # failures were not consecutive

    def test_half_open_probe_success_closes(self):
        clock = ManualClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=1.0, clock=clock
        )
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        clock.advance(1.0)
        assert breaker.allow()  # the probe slot
        assert breaker.state == "half-open"
        assert not breaker.allow()  # only one probe by default
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        clock = ManualClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=1.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()  # the probe failed
        assert breaker.state == "open"
        assert breaker.opens == 2
        assert not breaker.allow()  # the timer restarted
        clock.advance(1.0)
        assert breaker.allow()

    def test_would_allow_is_side_effect_free(self):
        clock = ManualClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=1.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(1.0)
        for _ in range(5):
            assert breaker.would_allow()
        assert breaker.state == "open"  # never transitioned
        assert breaker.allow()  # the probe slot is still unclaimed
        assert not breaker.would_allow()  # ... and now it is claimed

    def test_on_open_fires_per_transition(self):
        opened = []
        clock = ManualClock()
        breaker = CircuitBreaker(
            failure_threshold=2,
            reset_timeout_s=1.0,
            clock=clock,
            on_open=lambda: opened.append(breaker.state),
        )
        breaker.record_failure()
        assert opened == []
        breaker.record_failure()
        assert opened == ["open"]
        clock.advance(1.0)
        breaker.allow()
        breaker.record_failure()  # probe failure: reopen fires again
        assert opened == ["open", "open"]


class TestSchedulerRetry:
    """The scheduler's retry loop."""

    def test_transient_failure_replayed_to_success(self):
        flaky = FlakyPredictor(fail_times=2)
        scheduler = BatchScheduler(
            flaky,
            max_batch=4,
            start_worker=False,
            retry_policy=RetryPolicy(max_attempts=3, backoff_base_s=0.0),
        )
        futures = [scheduler.submit(_request(i)) for i in range(3)]
        scheduler.flush()
        assert [f.result(timeout=10.0).label for f in futures] == [0, 1, 2]
        assert flaky.calls == 3  # two failures + the winning replay
        assert scheduler.stats.retries == 2
        assert scheduler.stats.recovered == 3  # requests, not attempts
        scheduler.close()

    def test_budget_exhaustion_fails_the_sub_batch(self):
        flaky = FlakyPredictor(fail_times=10)
        scheduler = BatchScheduler(
            flaky,
            max_batch=4,
            start_worker=False,
            retry_policy=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
        )
        future = scheduler.submit(_request(0))
        scheduler.flush()
        assert isinstance(future.exception(timeout=10.0), WorkerCrashError)
        assert flaky.calls == 2
        assert scheduler.stats.retries == 1
        assert scheduler.stats.recovered == 0
        scheduler.close()

    def test_permanent_failure_is_not_replayed(self):
        flaky = FlakyPredictor(fail_times=10, error=ValueError)
        scheduler = BatchScheduler(
            flaky,
            max_batch=4,
            start_worker=False,
            retry_policy=RetryPolicy(max_attempts=5, backoff_base_s=0.0),
        )
        future = scheduler.submit(_request(0))
        scheduler.flush()
        assert isinstance(future.exception(timeout=10.0), ValueError)
        assert flaky.calls == 1  # no second attempt
        assert scheduler.stats.retries == 0
        scheduler.close()

    def test_no_policy_means_no_replay(self):
        flaky = FlakyPredictor(fail_times=1)
        scheduler = BatchScheduler(flaky, max_batch=4, start_worker=False)
        future = scheduler.submit(_request(0))
        scheduler.flush()
        assert isinstance(future.exception(timeout=10.0), WorkerCrashError)
        assert flaky.calls == 1
        scheduler.close()

    def test_backoff_sleeps_through_the_injected_clock(self):
        clock = ManualClock()
        flaky = FlakyPredictor(fail_times=1)
        scheduler = BatchScheduler(
            flaky,
            max_batch=4,
            start_worker=False,
            clock=clock,
            retry_policy=RetryPolicy(
                max_attempts=2, backoff_base_s=1.0, backoff_max_s=1.0,
                jitter=0.0,
            ),
        )
        future = scheduler.submit(_request(0))
        before = clock.now()
        scheduler.flush()  # returns immediately: the sleep advanced the clock
        assert future.result(timeout=10.0).label == 0
        assert clock.now() - before >= 1.0
        scheduler.close()

    def test_closed_scheduler_rejects_submits_typed(self):
        scheduler = BatchScheduler(
            FlakyPredictor(0), max_batch=4, start_worker=False
        )
        scheduler.close()
        with pytest.raises(SchedulerClosedError, match="closed"):
            scheduler.submit(_request(0))


class TestRouterBreakers:
    """Per-route circuit breaking on the shared scheduler."""

    def _router(self, clock=None, fallbacks=None, **kwargs):
        predictors = {1: FlakyPredictor(fail_times=10**9, error=ValueError),
                      6: FlakyPredictor(fail_times=0)}
        scheduler_kwargs = dict(
            max_batch=4, start_worker=False, breaker_threshold=2,
            breaker_reset_s=1.0, fallbacks=fallbacks,
        )
        if clock is not None:
            scheduler_kwargs["clock"] = clock
        scheduler_kwargs.update(kwargs)
        return ModelRouter(predictors, **scheduler_kwargs)

    def _fail_once(self, router, task=1):
        future = router.submit(_request(0, task=task))
        router.flush()
        assert isinstance(future.exception(timeout=10.0), ValueError)

    def test_breaker_opens_and_fails_fast(self):
        router = self._router(clock=ManualClock())
        self._fail_once(router)
        self._fail_once(router)
        assert router.breakers[1].state == "open"
        with pytest.raises(RouteUnavailableError, match="open"):
            router.submit(_request(0, task=1))
        assert router.stats.breaker_opens == 1
        assert router.route_stats[1].breaker_opens == 1
        router.close()

    def test_healthy_routes_are_unaffected(self):
        router = self._router(clock=ManualClock())
        self._fail_once(router)
        self._fail_once(router)
        future = router.submit(_request(3, task=6))
        router.flush()
        assert future.result(timeout=10.0).label == 3
        assert router.breakers[6].state == "closed"
        router.close()

    def test_half_open_probe_closes_on_recovery(self):
        clock = ManualClock()
        router = self._router(clock=clock)
        self._fail_once(router)
        self._fail_once(router)
        # The model "recovers": stop the route's predictor failing.
        router._routes[1].fail_times = 0
        clock.advance(1.0)
        future = router.submit(_request(5, task=1))  # the probe
        router.flush()
        assert future.result(timeout=10.0).label == 5
        assert router.breakers[1].state == "closed"
        router.close()

    def test_open_route_diverts_to_fallback(self):
        clock = ManualClock()
        fallback = FlakyPredictor(fail_times=0)
        router = self._router(clock=clock, fallbacks={1: fallback})
        self._fail_once(router)
        self._fail_once(router)
        assert router.breakers[1].state == "open"
        # With a fallback, admission keeps accepting the route...
        future = router.submit(_request(7, task=1))
        router.flush()
        # ...and the degraded predictor answers.
        assert future.result(timeout=10.0).label == 7
        assert router.stats.degraded == 1
        assert router.route_stats[1].degraded == 1
        router.close()

    def test_fallback_keys_validated(self):
        with pytest.raises(KeyError, match="fallback"):
            ModelRouter(
                {1: FlakyPredictor(0)},
                start_worker=False,
                fallbacks={2: FlakyPredictor(0)},
            )


class TestFrontendSafetyNet:
    def test_room_retry_validated(self):
        with pytest.raises(ValueError, match="room_retry_s"):
            AsyncFrontend(object(), room_retry_s=0.0)

    def test_lost_wakeups_are_counted(self):
        """Park an admission coroutine at a full queue with a tiny
        ``room_retry_s``: the safety net must fire (and be counted)
        while no room wakeup arrives, and the request must still be
        served once room frees up."""
        stub = FlakyPredictor(fail_times=0)
        scheduler = BatchScheduler(
            stub, max_batch=2, start_worker=False, queue_cap=1,
            overload_policy="block",
        )

        async def run():
            frontend = AsyncFrontend(
                scheduler, close_backend=False, room_retry_s=0.005
            )
            first = asyncio.ensure_future(frontend.query(_request(0)))
            await asyncio.sleep(0.01)  # first admitted; the queue is full
            second = asyncio.ensure_future(frontend.query(_request(1)))
            # Let the safety net fire a few times with no room wakeup.
            while scheduler.stats.safety_net_wakeups < 2:
                await asyncio.sleep(0.005)
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, scheduler.flush)  # frees room
            assert (await first).label == 0
            await loop.run_in_executor(None, scheduler.flush)
            assert (await second).label == 1

        asyncio.run(run())
        assert scheduler.stats.safety_net_wakeups >= 2
        scheduler.close()
