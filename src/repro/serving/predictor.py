"""Device-shaped predictors and the ``open_predictor`` factory.

``open_predictor`` is the one call that turns *anything holding a
trained model* — an artifact directory written by
:func:`repro.artifacts.save_suite`, an in-memory
:class:`~repro.eval.suite.BabiSuite`, or a single
:class:`~repro.eval.suite.TaskSystem` — into a
:class:`~repro.serving.api.Predictor` answering typed
:class:`~repro.serving.api.QueryRequest` objects, hiding the
``InferenceEngine`` / ``BatchInferenceEngine`` / accelerator-co-sim
split behind one object::

    predictor = open_predictor("artifacts/", task_id=1,
                               mips_backend="threshold", rho=0.99)
    response = predictor.predict(QueryRequest(story, question))

``device="sw"`` serves through the vectorised batch engine with any
registered MIPS backend; ``device="hw"`` serves through the cycle-level
FPGA co-simulation (same request/response types, orders of magnitude
slower — it is a simulator).
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from repro.babi.dataset import EncodedBatch
from repro.babi.vocab import Vocab
from repro.eval.suite import BabiSuite, TaskSystem
from repro.hw.accelerator import MannAccelerator
from repro.hw.config import HwConfig
from repro.mann.batch import BatchInferenceEngine, infer_story_lengths
from repro.serving.api import QueryRequest, QueryResponse
from repro.serving.cache import MemoryCache

DEVICES = ("sw", "hw")


def _stack_requests(
    requests: Sequence[QueryRequest], memory_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad heterogeneous requests into (stories, questions, lengths).

    Stories are padded to the widest slot/word count of the batch
    (zeros are semantically inert everywhere in the model); lengths use
    the request's ``n_sentences`` when pinned, else the engines' usual
    last-non-pad inference.
    """
    if not requests:
        raise ValueError("need at least one request")
    slots = max(r.story.shape[0] for r in requests)
    if slots > memory_size:
        raise ValueError(
            f"request story has {slots} slots, model supports {memory_size}"
        )
    words = max(
        max(r.story.shape[1] for r in requests),
        max(r.question.shape[0] for r in requests),
    )
    batch = len(requests)
    stories = np.zeros((batch, slots, words), dtype=np.int64)
    questions = np.zeros((batch, words), dtype=np.int64)
    pinned = np.zeros(batch, dtype=np.int64)  # 0 = infer
    for i, request in enumerate(requests):
        s, q = request.story, request.question
        stories[i, : s.shape[0], : s.shape[1]] = s
        questions[i, : q.shape[0]] = q
        if request.n_sentences is not None:
            # Validate against the request's OWN story, not the padded
            # batch width — acceptance must not depend on co-batching.
            if not 1 <= request.n_sentences <= s.shape[0]:
                raise ValueError(
                    f"n_sentences={request.n_sentences} outside "
                    f"[1, {s.shape[0]}] for a {s.shape[0]}-slot story"
                )
            pinned[i] = request.n_sentences
    # Padding slots are all-zero, so inferring on the padded batch
    # equals inferring on each request's own story.
    lengths = np.where(pinned > 0, pinned, infer_story_lengths(stories))
    return stories, questions, lengths


class SoftwarePredictor:
    """Serves queries through the vectorised batch inference engine.

    Every flush is one ``search_batch`` call on the configured MIPS
    backend — the same kernel the evaluation suite runs — so per-request
    comparison counts and early-exit flags come back for free.
    """

    device = "sw"

    def __init__(
        self,
        engine: BatchInferenceEngine,
        vocab: Vocab | None = None,
        task_id: int | None = None,
    ):
        if engine.mips is None:
            raise ValueError(
                "serving engine needs a MIPS backend; build via open_predictor"
            )
        self.engine = engine
        self.vocab = vocab
        self.task_id = task_id
        #: The engine's story-encoding cache (None when caching is off).
        self.cache = engine.memory_cache

    def predict(self, request: QueryRequest) -> QueryResponse:
        return self.predict_batch([request])[0]

    def predict_batch(
        self, requests: Sequence[QueryRequest]
    ) -> list[QueryResponse]:
        stories, questions, lengths = _stack_requests(
            requests, self.engine.config.memory_size
        )
        results = self.engine.search(stories, questions, lengths)
        labels, logits = results.labels, results.logits
        comparisons, early_exits = results.comparisons, results.early_exits
        return [
            QueryResponse(
                label=int(labels[i]),
                logit=float(logits[i]),
                comparisons=int(comparisons[i]),
                early_exit=bool(early_exits[i]),
                answer=(
                    self.vocab.word(int(labels[i]))
                    if self.vocab is not None and int(labels[i]) >= 0
                    else None
                ),
                request_id=request.request_id,
            )
            for i, request in enumerate(requests)
        ]

    # -- story-encoding cache hooks ------------------------------------
    def cache_counters(self) -> tuple[int, int, int] | None:
        """Cumulative cache ``(hits, misses, evictions)``, or None when
        caching is off — the scheduler mirrors this into its stats."""
        return self.cache.counters() if self.cache is not None else None


class HardwarePredictor:
    """Serves queries through the cycle-level accelerator co-simulation.

    Each flush streams the requests through the five-module pipeline
    (:class:`~repro.hw.accelerator.MannAccelerator`); responses carry
    the OUTPUT module's scan statistics. The weights are considered
    resident on the device, so per-flush runs skip the one-off model
    transfer.
    """

    device = "hw"

    def __init__(
        self,
        accelerator: MannAccelerator,
        vocab: Vocab | None = None,
        task_id: int | None = None,
    ):
        self.accelerator = accelerator
        self.vocab = vocab
        self.task_id = task_id

    def predict(self, request: QueryRequest) -> QueryResponse:
        return self.predict_batch([request])[0]

    def predict_batch(
        self, requests: Sequence[QueryRequest]
    ) -> list[QueryResponse]:
        memory_size = self.accelerator.weights.config.memory_size
        stories, questions, lengths = _stack_requests(requests, memory_size)
        batch = EncodedBatch(
            stories=stories,
            questions=questions,
            answers=np.zeros(len(requests), dtype=np.int64),  # unknown at serve time
            story_lengths=lengths,
        )
        report = self.accelerator.run(
            batch, include_model_transfer=False, keep_examples=True
        )
        return [
            QueryResponse(
                label=run.prediction,
                logit=float(run.logit),
                comparisons=run.comparisons,
                early_exit=run.early_exit,
                answer=(
                    self.vocab.word(run.prediction)
                    if self.vocab is not None and run.prediction >= 0
                    else None
                ),
                request_id=request.request_id,
            )
            for request, run in zip(requests, report.examples)
        ]


# ---------------------------------------------------------------------------
# factory
# ---------------------------------------------------------------------------
def _resolve_system(
    artifacts, task_id: int | None
) -> tuple[TaskSystem, Vocab | None]:
    """Accept a path / BabiSuite / TaskSystem and pick one task."""
    if isinstance(artifacts, TaskSystem):
        if task_id is not None and task_id != artifacts.task_id:
            raise ValueError(
                f"task_id={task_id} does not match the given system "
                f"(task {artifacts.task_id})"
            )
        return artifacts, artifacts.train.vocab if artifacts.train else None
    if isinstance(artifacts, (str, Path)):
        from repro.artifacts import load_suite

        artifacts = load_suite(artifacts)
    if not isinstance(artifacts, BabiSuite):
        raise TypeError(
            "artifacts must be an artifact directory path, a BabiSuite "
            f"or a TaskSystem, got {type(artifacts).__name__}"
        )
    if task_id is None:
        if len(artifacts.tasks) != 1:
            raise ValueError(
                f"suite holds tasks {artifacts.task_ids}; pass task_id="
            )
        task_id = artifacts.task_ids[0]
    if task_id not in artifacts.tasks:
        raise KeyError(
            f"task {task_id} not in artifacts (available: {artifacts.task_ids})"
        )
    return artifacts.tasks[task_id], artifacts.vocab


def open_predictor(
    artifacts,
    task_id: int | None = None,
    *,
    device: str = "sw",
    mips_backend: str = "exact",
    hw_config: HwConfig | None = None,
    quantized: bool = False,
    cache_entries: int | None = None,
    cache_bytes: int | None = None,
    **params,
):
    """Open a unified :class:`Predictor` over saved or in-memory models.

    ``artifacts`` is an artifact directory (``str``/``Path``, as written
    by :func:`repro.artifacts.save_suite`), a built
    :class:`~repro.eval.suite.BabiSuite`, or a single
    :class:`~repro.eval.suite.TaskSystem`. ``task_id`` selects the task
    (optional when the suite holds exactly one). ``mips_backend`` is any
    registered ``repro.mips`` name. ``quantized=True`` serves the fixed-point
    weights persisted in the artifacts (``save_suite(..., qformat=...)``)
    instead of the float model. ``**params`` are backend build
    parameters (``rho``, ``index_ordering``, ``seed``, ...). On
    ``device="hw"`` the backend runs inside the accelerator's OUTPUT
    module via ``hw_config`` (only ``rho``/``index_ordering`` tune it).

    ``cache_entries`` enables the cross-request story-encoding cache
    (:class:`~repro.serving.cache.MemoryCache`): replayed stories skip
    the memory-write phase (Eqs. 1–2) bit-identically. It bounds the
    LRU in entries; ``cache_bytes`` optionally bounds resident payload
    bytes. Software device only.
    """
    if device not in DEVICES:
        raise ValueError(f"unknown device {device!r}; expected one of {DEVICES}")
    if device != "sw" and cache_entries is not None:
        raise ValueError(
            "cache_entries= memoises the software engine's memory-write "
            "phase; device='hw' simulates every write cycle-by-cycle"
        )
    system, vocab = _resolve_system(artifacts, task_id)

    weights = system.weights
    if quantized:
        if system.quantized is None:
            raise ValueError(
                "artifacts hold no quantized weights; save them with "
                "save_suite(..., qformat=QFormat(m, n))"
            )
        weights = system.quantized.weights

    if device == "sw":
        from repro.mann.batch import BatchInferenceEngine

        memory_cache = (
            MemoryCache(
                capacity_entries=cache_entries, capacity_bytes=cache_bytes
            )
            if cache_entries is not None
            else None
        )
        engine = BatchInferenceEngine(
            weights,
            mips_backend,
            threshold_model=system.threshold_model,
            memory_cache=memory_cache,
            **params,
        )
        return SoftwarePredictor(engine, vocab=vocab, task_id=system.task_id)

    unsupported = set(params) - {"rho", "index_ordering"}
    if unsupported:
        raise ValueError(
            f"device='hw' does not accept backend params {sorted(unsupported)}; "
            "only rho/index_ordering tune the OUTPUT module"
        )
    config = (hw_config or HwConfig()).with_embed_dim(
        weights.config.embed_dim
    )
    config = config.with_ith(
        config.ith_enabled,
        rho=params.get("rho"),
        index_ordering=params.get("index_ordering"),
    ).with_mips_backend(mips_backend)
    accelerator = MannAccelerator(
        weights, config, threshold_model=system.threshold_model
    )
    return HardwarePredictor(accelerator, vocab=vocab, task_id=system.task_id)
