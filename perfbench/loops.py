"""The closed-loop load generator and the layer tracing it can switch on.

A round builds every request inside the measured region, times it to
the done callback of the scheduler's future, and checks every answer
against the oracle after the measured region ends. Every window is
paced (:mod:`perfbench.pace`): its times are also reported scaled to a
fixed host speed. With a
:class:`Tracer` installed (:func:`install_layers`), a round also
collects the flush-level facts the per-layer metrics need.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from perfbench.pace import Pacer
from perfbench.spans import Patches, Tracer
from perfbench.workloads import WINDOW

#: Logits of a request answered inside a batch may differ from the same
#: request answered alone in the last bits (BLAS sums in another
#: order); a tolerance set from float64 precision, labels exact.
LOGIT_RTOL = 1e-9
LOGIT_ATOL = 1e-12

clock = time.perf_counter


@dataclass
class Round:
    """One measured pass over the stream: raw wall and CPU time summed
    over its windows, the same paced, and paced latencies."""

    answered: int
    wall_s: float
    cpu_s: float
    paced_wall_s: float
    paced_cpu_s: float
    latencies_s: np.ndarray
    slowdown: float  # median over the round's windows


@dataclass
class Outcome:
    """What the measured rounds of one kind answered, and how fast.

    Timing figures are medians over rounds of the paced times (raw
    ones with ``paced=False``): the host's speed drifts over seconds,
    and paced medians over many rounds are what stays put from run to
    run.
    """

    attempted: int = 0
    answered: int = 0
    mismatches: int = 0
    unexpected_errors: int = 0
    gold_hits: int = 0
    gold_total: int = 0
    rounds: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.rounds)

    def rate_rps(self, paced: bool = True) -> float:
        return float(
            np.median(
                [r.answered / (r.paced_wall_s if paced else r.wall_s) for r in self.rounds]
            )
        )

    def cpu_ms_per_kreq(self, paced: bool = True) -> float:
        return float(
            np.median(
                [(r.paced_cpu_s if paced else r.cpu_s) / r.answered * 1e6 for r in self.rounds]
            )
        )

    def slowdown(self) -> float:
        return float(np.median([r.slowdown for r in self.rounds]))

    def latency_ms(self, q: float) -> float:
        return float(
            np.median([np.percentile(r.latencies_s, q) for r in self.rounds]) * 1e3
        )


class Answers:
    """One round's answers as arrays (``answered`` marks who got one)."""

    def __init__(self, n: int):
        self.answered = np.zeros(n, dtype=bool)
        self.labels = np.zeros(n, dtype=np.int64)
        self.logits = np.zeros(n)
        self.comparisons = np.zeros(n, dtype=np.int64)
        self.early_exits = np.zeros(n, dtype=bool)

    def put(self, k: int, response) -> None:
        self.answered[k] = True
        self.labels[k] = response.label
        self.logits[k] = response.logit
        self.comparisons[k] = response.comparisons
        self.early_exits[k] = response.early_exit


def check_answers(
    outcome: Outcome, answers: Answers, items, refs, exact_logit: bool
) -> None:
    """Oracle check of one round; request ``k`` is stream item ``k``."""
    ref_labels, ref_logits = refs
    answered = answers.answered
    got = answers.labels[answered]
    wrong = got != ref_labels[answered]
    if exact_logit:
        wrong |= ~np.isclose(
            answers.logits[answered],
            ref_logits[answered],
            rtol=LOGIT_RTOL,
            atol=LOGIT_ATOL,
        )
    gold = np.array(
        [ref if item.gold is None else item.gold for ref, item in zip(ref_labels, items)]
    )
    outcome.mismatches += int(wrong.sum())
    outcome.gold_total += len(got)
    outcome.gold_hits += int(np.sum(got == gold[answered]))


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------
@dataclass
class FlushLog:
    """Per-flush facts gathered by the traced router dispatch."""

    flushes: list = field(default_factory=list)  # (start, end, nested, ids)
    hw_reports: list = field(default_factory=list)
    keep_reports: bool = False


def install_layers(tracer: Tracer, router, log: FlushLog, on_admit=None) -> Patches:
    """Wrap every layer boundary of a live router; returns the undo.

    Span names are the layers: ``router`` (``ModelRouter.submit`` /
    ``submit_nowait`` and the scheduler's routing predictor),
    ``scheduler``, ``predictor`` (each route's ``predict_batch``),
    ``engine.hops`` (``search``), ``engine.write``
    (``write_memory_cached``), ``mips``, ``cache`` and ``hw``.
    ``on_admit(request, future)`` runs as each ``submit_nowait``
    returns (the frontend's admission).
    """
    patches = Patches()

    def wrap(obj, attr, name, on_exit=None):
        patches.set(obj, attr, tracer.wrap(name, getattr(obj, attr), on_exit))

    def on_dispatch(args, result, start, end, nested):
        log.flushes.append((start, end, nested, [r.request_id for r in args[0]]))

    def on_hw(args, report, start, end, nested):
        if log.keep_reports:
            log.hw_reports.append(report)

    def on_submit_nowait(args, future, start, end, nested):
        if on_admit is not None:
            on_admit(args[0], future)

    scheduler = router.scheduler
    wrap(router, "submit", "router")
    wrap(router, "submit_nowait", "router", on_submit_nowait)
    wrap(scheduler, "submit", "scheduler")
    wrap(scheduler, "submit_nowait", "scheduler")
    wrap(scheduler.predictor, "predict_batch", "router", on_dispatch)
    for task in router.tasks:
        predictor = router.predictor(task)
        wrap(predictor, "predict_batch", "predictor")
        engine = getattr(predictor, "engine", None)
        if engine is not None:
            wrap(engine, "search", "engine.hops")
            wrap(engine, "write_memory_cached", "engine.write")
            wrap(engine.mips, "search_batch", "mips")
            cache = engine.memory_cache
            if cache is not None:
                for attr in ("key", "get", "put"):
                    wrap(cache, attr, "cache")
        accelerator = getattr(predictor, "accelerator", None)
        if accelerator is not None:
            wrap(accelerator, "run", "hw", on_hw)
    return patches


def _stamp(done: np.ndarray, k: int, _future) -> None:
    done[k] = clock()


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------
class ClosedLoop:
    """One client submitting windows of :data:`WINDOW` requests and
    waiting for all of them; a round is one pass over the stream."""

    def __init__(self, router, items, refs, exact_logit: bool):
        from repro.serving import QueryRequest

        self.request = QueryRequest
        self.router = router
        self.items = items
        self.refs = refs
        self.exact_logit = exact_logit
        n = len(items)
        if n % WINDOW:
            raise ValueError(f"round of {n} is not whole windows of {WINDOW}")
        self.done = np.zeros(n)
        self.stamps = [partial(_stamp, self.done, k) for k in range(n)]
        self.submitted = np.zeros(n)

    def warm_up(self) -> None:
        """Untimed: one window short of a batch, which the scheduler's
        deadline thread flushes on its timer, then one round.

        The deadline thread allocates from its own malloc arena. Without
        this, whether a window stalls past ``max_wait_s`` somewhere in a
        run decided whether that arena grew, and peak RSS spread by 0.06
        on ``prod-zipf``.
        """
        futures = [
            self.router.submit(
                self.request(item.story, item.question, item.n_sentences, k, item.task)
            )
            for k, item in enumerate(self.items[: WINDOW - 1])
        ]
        for future in futures:
            future.result()
        self.round(Outcome())

    def round(self, outcome: Outcome, tracer: Tracer | None = None) -> Answers:
        """Serve one round into ``outcome``; returns its answers."""
        n = len(self.items)
        starts = np.zeros(n)
        responses: list = [None] * n
        pacer = Pacer()
        errors = self._serve(starts, responses, tracer, pacer)
        walls, cpus = np.array(pacer.walls), np.array(pacer.cpus)
        slowdowns = pacer.slowdowns()
        answers = Answers(n)
        for k, response in enumerate(responses):
            if response is not None:
                answers.put(k, response)
        answered = answers.answered
        latencies_s = (self.answered_at() - starts) / np.repeat(slowdowns, WINDOW)
        outcome.rounds.append(
            Round(
                int(answered.sum()),
                float(walls.sum()),
                float(cpus.sum()),
                float(np.sum(walls / slowdowns)),
                float(np.sum(cpus / slowdowns)),
                latencies_s[answered],
                float(np.median(slowdowns)),
            )
        )
        outcome.attempted += n
        outcome.answered += int(answered.sum())
        outcome.unexpected_errors += errors
        check_answers(outcome, answers, self.items, self.refs, self.exact_logit)
        return answers

    def answered_at(self) -> np.ndarray:
        """When each request of the last round counts as answered."""
        return self.done

    def build(self, k: int, starts: np.ndarray, tracer: Tracer | None):
        """Request ``k``, timed from the start of its construction."""
        item = self.items[k]
        if tracer is None:
            starts[k] = clock()
            return self.request(item.story, item.question, item.n_sentences, k, item.task)
        starts[k] = tracer.begin()
        request = self.request(item.story, item.question, item.n_sentences, k, item.task)
        self.submitted[k] = tracer.end("api", starts[k])
        return request

    def _serve(self, starts, responses, tracer, pacer: Pacer) -> int:
        """Submit every window and wait for it; returns the error count."""
        submit, stamps, errors = self.router.submit, self.stamps, 0
        for w in range(0, len(self.items), WINDOW):
            pacer.start()
            futures = []
            for k in range(w, w + WINDOW):
                future = submit(self.build(k, starts, tracer))
                future.add_done_callback(stamps[k])
                futures.append(future)
            for k, future in zip(range(w, w + WINDOW), futures):
                if future.exception() is None:
                    responses[k] = future.result()
                else:
                    errors += 1
            pacer.stop()
        return errors


# ---------------------------------------------------------------------------
# closed loop through the asyncio frontend
# ---------------------------------------------------------------------------
class AsyncLoop(ClosedLoop):
    """The closed loop through ``AsyncFrontend.query``: each window is
    :data:`WINDOW` coroutines gathered on one event loop, and a request
    counts as answered when its coroutine resumes.

    Traced rounds also record the frontend: the ``frontend`` span runs
    from the ``query`` call to ``submit_nowait``'s return (admission),
    and ``done`` holds each scheduler future's done-callback time, so
    ``resumed - done`` is the wake-up (future resolved -> coroutine
    resumed).
    """

    def __init__(self, frontend, items, refs, exact_logit: bool):
        super().__init__(frontend.backend, items, refs, exact_logit)
        self.query = frontend.query
        self.event_loop = asyncio.new_event_loop()
        self.resumed = np.zeros(len(items))
        self._tracer: Tracer | None = None
        self._admit_start: float | None = None

    def close(self) -> None:
        self.event_loop.close()

    def answered_at(self) -> np.ndarray:
        return self.resumed

    def on_admit(self, request, future) -> None:
        """``install_layers`` hook: admission returned a future."""
        future.add_done_callback(self.stamps[request.request_id])
        self._tracer.end("frontend", self._admit_start)
        self._admit_start = None

    def _serve(self, starts, responses, tracer, pacer: Pacer) -> int:
        self._tracer = tracer
        return self.event_loop.run_until_complete(
            self._windows(starts, responses, pacer)
        )

    async def _windows(self, starts, responses, pacer: Pacer) -> int:
        tracer, query, resumed = self._tracer, self.query, self.resumed
        errors = 0

        async def one(k: int) -> None:
            nonlocal errors
            request = self.build(k, starts, tracer)
            if tracer is not None:
                self._admit_start = tracer.begin()
            try:
                responses[k] = await query(request)
            except Exception:
                errors += 1
                if self._admit_start is not None:  # refused at admission
                    tracer.end("frontend", self._admit_start)
                    self._admit_start = None
            resumed[k] = clock()

        for w in range(0, len(self.items), WINDOW):
            pacer.start()
            await asyncio.gather(*(one(k) for k in range(w, w + WINDOW)))
            pacer.stop()
        return errors
