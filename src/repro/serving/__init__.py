"""Serving-first public API: one facade over every inference path.

The deployment story of the repro in three calls::

    from repro.serving import open_predictor, BatchScheduler, QueryRequest

    predictor = open_predictor("artifacts/", task_id=1,
                               mips_backend="threshold", rho=1.0)
    with BatchScheduler(predictor, max_batch=32) as scheduler:
        future = scheduler.submit(QueryRequest(story, question))
        print(future.result().answer)

* :func:`open_predictor` — turns saved artifacts
  (:mod:`repro.artifacts`), a built suite or a single task system into
  a :class:`Predictor`, on ``device="sw"`` (vectorised batch engine,
  any registered MIPS backend) or ``device="hw"`` (cycle-level FPGA
  co-simulation) — same :class:`QueryRequest`/:class:`QueryResponse`
  types either way.
* :class:`BatchScheduler` — coalesces individually submitted requests
  into vectorised flushes (max-batch / max-wait), recording per-request
  latency and per-flush batch sizes in :class:`ServingStats`. Each
  flush runs inline, as one ``predict_batch`` call, completing in
  submission order.
* :class:`ModelRouter` — many named predictors (one per bAbI task)
  behind one shared scheduler, routed by ``QueryRequest.task`` with
  per-route statistics::

      with ModelRouter.open("artifacts/") as r:
          answer = r.submit(QueryRequest(story, question, task=6)).result()
* :class:`MemoryCache` — the cross-request story-encoding cache
  (``cache_entries=`` on :func:`open_predictor` / ``ModelRouter.open``):
  replayed stories skip the memory-write phase (Eqs. 1–2)
  bit-identically, with hit rates surfaced in :class:`ServingStats`.
* :class:`AsyncFrontend` — the asyncio front door: awaitable queries
  with per-request SLO deadlines (``deadline_s``), admission control
  over a bounded queue (``queue_cap`` + ``overload_policy`` —
  :data:`OVERLOAD_POLICIES`), typed :class:`OverloadError` /
  :class:`DeadlineExceededError`, and a deadline thread that flushes
  early when the predicted flush cost (:class:`FlushCostModel`, fed by
  live :class:`ServingStats` and the cache hit rate) would eat a
  request's remaining slack::

      async with AsyncFrontend.open("artifacts/", queue_cap=256,
                                    overload_policy="shed") as frontend:
          response = await frontend.query(request, deadline_s=0.05)

* **Fault tolerance** (:mod:`repro.serving.errors` /
  :mod:`repro.serving.resilience` / :mod:`repro.serving.chaos`) — a
  typed failure taxonomy (transient failures are replay-safe because
  predictions are pure; :func:`is_transient` is the verdict), a
  :class:`RetryPolicy` with deterministic exponential backoff the
  scheduler applies per flush (replays are bit-identical), one
  :class:`CircuitBreaker` per router route (``breaker_threshold=`` on
  ``ModelRouter.open``, with optional degraded fallbacks), and a
  deterministic fault-injection harness (:class:`FaultPlan` /
  :class:`ChaosPredictor`) that raises, delays or corrupts chosen
  flushes so every recovery path is exercised reproducibly.

All serving timestamps come from one :class:`Clock`
(:data:`MONOTONIC`); tests swap in a :class:`ManualClock`.
"""

from repro.serving.api import (
    Predictor,
    QueryRequest,
    QueryResponse,
    ServingStats,
)
from repro.serving.cache import CacheStats, MemoryCache
from repro.serving.chaos import (
    FAULT_KINDS,
    ChaosPredictor,
    FaultPlan,
    InjectedFaultError,
)
from repro.serving.clock import MONOTONIC, Clock, ManualClock
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
from repro.serving.frontend import AsyncFrontend
from repro.serving.predictor import (
    DEVICES,
    HardwarePredictor,
    SoftwarePredictor,
    open_predictor,
)
from repro.serving.resilience import BREAKER_STATES, CircuitBreaker, RetryPolicy
from repro.serving.router import ModelRouter
from repro.serving.scheduler import (
    OVERLOAD_POLICIES,
    BatchScheduler,
    FlushCostModel,
)

__all__ = [
    "AsyncFrontend",
    "BatchScheduler",
    "BREAKER_STATES",
    "CacheStats",
    "ChaosPredictor",
    "CircuitBreaker",
    "Clock",
    "DeadlineExceededError",
    "FAULT_KINDS",
    "FaultPlan",
    "FlushCostModel",
    "InjectedFaultError",
    "ManualClock",
    "MONOTONIC",
    "OVERLOAD_POLICIES",
    "OverloadError",
    "PayloadCorruptionError",
    "RetryPolicy",
    "RouteUnavailableError",
    "SchedulerClosedError",
    "ServingError",
    "TRANSIENT_ERRORS",
    "WorkerCrashError",
    "DEVICES",
    "HardwarePredictor",
    "MemoryCache",
    "ModelRouter",
    "Predictor",
    "QueryRequest",
    "QueryResponse",
    "ServingStats",
    "SoftwarePredictor",
    "is_transient",
    "open_predictor",
]
