"""Property tests: the scheduler's accounting holds on every schedule.

Hypothesis draws ``ManualClock`` schedules that mix ``submit``,
``submit_nowait``, ``flush``, ``close``, time advances (which expire
deadlines), caller cancellations and chaos-injected faults replayed
under a :class:`RetryPolicy`, over every admission policy. With
``start_worker=False`` and one execute path, a schedule is a plain
sequence of calls, so each drawn case replays exactly.

After the final ``close()`` it checks the invariants:

* every accepted future resolves exactly once — with an answer (its
  own), an error, ``DeadlineExceededError`` or a cancellation;
* ``stats.requests`` counts the futures resolved with an answer or an
  error (cancelled and expired ones excluded), ``stats.expired`` the
  expired ones, ``stats.shed`` the shed submissions;
* ``stats.offered == stats.requests + stats.shed + stats.expired``, and
  with cancellations that is every accepted or shed submission;
* the predictor ran once per flush plus once per retry, and
  ``stats.recovered`` counts the answers that needed a replay.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    OVERLOAD_POLICIES,
    BatchScheduler,
    ChaosPredictor,
    DeadlineExceededError,
    FaultPlan,
    ManualClock,
    OverloadError,
    QueryRequest,
    QueryResponse,
    RetryPolicy,
    SchedulerClosedError,
)


class EchoPredictor:
    """Answers each request with its own id as the label."""

    def predict_batch(self, requests):
        return [
            QueryResponse(
                label=int(r.request_id),
                logit=0.0,
                comparisons=1,
                early_exit=False,
                request_id=r.request_id,
            )
            for r in requests
        ]


class FailureLog:
    """Forwards to a predictor and records the ids of failed calls."""

    def __init__(self, inner):
        self.inner = inner
        self.failed: set[int] = set()

    def predict_batch(self, requests):
        try:
            return self.inner.predict_batch(requests)
        except Exception:
            self.failed.update(r.request_id for r in requests)
            raise


def _request(i: int, deadline_s: float | None) -> QueryRequest:
    return QueryRequest(
        story=np.full((2, 3), i + 1, dtype=np.int64),
        question=np.array([i + 1, 0, 0], dtype=np.int64),
        request_id=i,
        deadline_s=deadline_s,
    )


#: Operation kinds, repeated to weight the draw towards submissions.
KINDS = ["submit"] * 4 + ["submit_nowait"] * 2 + ["flush", "advance"] * 2 + ["cancel"]
operations = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.sampled_from([None, 0.001, 0.01]),  # deadline
        st.sampled_from([0.0005, 0.005, 0.02]),  # clock advance
        st.integers(min_value=0, max_value=40),  # which future to cancel
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    ops=operations,
    close_at=st.one_of(st.none(), st.integers(min_value=0, max_value=60)),
    policy=st.sampled_from(OVERLOAD_POLICIES),
    queue_cap=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
    max_batch=st.integers(min_value=1, max_value=6),
    max_attempts=st.integers(min_value=1, max_value=4),
    raise_rate=st.sampled_from([0.0, 0.2, 0.5]),
    corrupt_rate=st.sampled_from([0.0, 0.1]),
    delay_rate=st.sampled_from([0.0, 0.1]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_every_future_resolves_once_and_counters_balance(
    ops,
    close_at,
    policy,
    queue_cap,
    max_batch,
    max_attempts,
    raise_rate,
    corrupt_rate,
    delay_rate,
    seed,
):
    clock = ManualClock()
    plan = FaultPlan(
        raise_rate=raise_rate,
        corrupt_rate=corrupt_rate,
        delay_rate=delay_rate,
        delay_s=0.002,
        seed=seed,
    )
    chaos = ChaosPredictor(EchoPredictor(), plan, clock=clock)
    log = FailureLog(chaos)
    scheduler = BatchScheduler(
        log,
        max_batch=max_batch,
        start_worker=False,
        queue_cap=queue_cap,
        overload_policy=policy,
        clock=clock,
        retry_policy=RetryPolicy(max_attempts=max_attempts, seed=seed),
    )
    accepted: list = []  # (request id, future)
    resolutions: dict[int, int] = {}
    shed = 0
    next_id = 0
    for step, (kind, deadline_s, advance_s, victim) in enumerate(ops):
        if step == close_at:
            scheduler.close()
        if kind in ("submit", "submit_nowait"):
            request = _request(next_id, deadline_s)
            next_id += 1
            submit = getattr(scheduler, kind)
            try:
                future = submit(request)
            except OverloadError:
                # A nowait refusal under "block" is a retry signal, not
                # load shedding; the shed policies count every refusal.
                shed += policy != "block"
                continue
            except SchedulerClosedError:
                continue  # never admitted, never offered
            resolutions[request.request_id] = 0
            future.add_done_callback(
                lambda _f, i=request.request_id: resolutions.__setitem__(
                    i, resolutions[i] + 1
                )
            )
            accepted.append((request.request_id, future))
        elif kind == "flush":
            scheduler.flush()
        elif kind == "advance":
            clock.advance(advance_s)
        elif accepted:
            accepted[victim % len(accepted)][1].cancel()
    scheduler.close()

    answered = errored = expired = cancelled = recovered = 0
    for request_id, future in accepted:
        assert future.done(), request_id
        assert resolutions[request_id] == 1, request_id
        if future.cancelled():
            cancelled += 1
        elif isinstance(future.exception(), DeadlineExceededError):
            expired += 1
        elif future.exception() is not None:
            errored += 1
        else:
            assert future.result().label == request_id  # its own answer
            answered += 1
            recovered += request_id in log.failed

    stats = scheduler.stats
    assert stats.requests == answered + errored
    assert stats.expired == expired
    assert stats.shed == shed
    assert stats.offered == stats.requests + stats.shed + stats.expired
    assert stats.offered + cancelled == len(accepted) + shed
    assert stats.recovered == recovered
    assert chaos.calls == stats.flushes + stats.retries
    assert scheduler.pending == 0
