"""The typed failure surface and its transient-vs-permanent taxonomy.

The taxonomy is load-bearing: ``is_transient`` is the single verdict
the retry layer consults, so these tests pin which failures may be
replayed (worker deaths — predictions are pure, replay is safe) and
which must resolve immediately (corruption, admission, lifecycle).
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.serving.chaos import InjectedFaultError
from repro.serving.errors import (
    TRANSIENT_ERRORS,
    DeadlineExceededError,
    OverloadError,
    PayloadCorruptionError,
    RouteUnavailableError,
    SchedulerClosedError,
    ServingError,
    WorkerCrashError,
    is_transient,
)


class TestTaxonomy:
    @pytest.mark.parametrize(
        "error",
        [
            WorkerCrashError("worker died"),
            InjectedFaultError("chaos kill"),
            BrokenExecutor("pool broke"),
            BrokenProcessPool("a process died"),
        ],
    )
    def test_transient_failures_are_replayable(self, error):
        assert is_transient(error)

    @pytest.mark.parametrize(
        "error",
        [
            PayloadCorruptionError("bad bytes"),
            RouteUnavailableError("breaker open"),
            SchedulerClosedError("closed"),
            OverloadError("queue full"),
            DeadlineExceededError("budget spent"),
            ValueError("malformed story"),
            RuntimeError("unknown"),
        ],
    )
    def test_everything_else_is_permanent(self, error):
        assert not is_transient(error)

    def test_transient_tuple_is_the_source_of_truth(self):
        assert WorkerCrashError in TRANSIENT_ERRORS
        assert BrokenExecutor in TRANSIENT_ERRORS


class TestHierarchy:
    def test_serving_errors_are_runtime_errors(self):
        """Callers that caught RuntimeError before the taxonomy existed
        (e.g. closed-scheduler submits) keep working."""
        for cls in (
            ServingError,
            OverloadError,
            SchedulerClosedError,
            WorkerCrashError,
            PayloadCorruptionError,
            RouteUnavailableError,
        ):
            assert issubclass(cls, RuntimeError)
        assert issubclass(SchedulerClosedError, ServingError)

    def test_deadline_error_stays_a_timeout(self):
        """Generic timeout handling must keep catching deadline misses."""
        assert issubclass(DeadlineExceededError, TimeoutError)

    def test_injected_fault_is_a_worker_crash(self):
        """Chaos faults ride the same retry path as real worker deaths."""
        assert issubclass(InjectedFaultError, WorkerCrashError)
