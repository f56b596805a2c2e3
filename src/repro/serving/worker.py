"""Process-worker side of ``BatchScheduler(worker_mode="process")``.

In-process threads cannot speed up CPU-bound einsum scans (the GIL
serialises them), so the process mode runs each flush sub-batch in a
``ProcessPoolExecutor``. This module is everything that crosses the
process boundary:

* :class:`WorkerSpec` — a picklable recipe for one predictor: artifact
  directory + backend name + quantized flag + backend params. Specs
  travel once, at pool construction.
* :func:`initialize_worker` — the pool initializer. Each worker process
  builds its predictors locally from the specs, loading the artifacts
  npz **once, zero-copy** via ``load_suite(..., mmap=True)`` — every
  worker maps the same file, so the weights occupy one set of
  page-cache pages regardless of worker count, and no weight array is
  ever pickled over the pipe.
* :func:`predict_encoded` — the per-sub-batch job. The parent sends
  only the encoded arrays (stories, questions, lengths — a few KB);
  the worker answers with stacked label/logit/comparison/early-exit
  arrays. Decoding back into :class:`~repro.serving.api.QueryResponse`
  objects happens parent-side through the predictor's ``worker_decode``
  hook, with exactly the code path the inline mode uses — which is why
  the two modes are bit-identical.

Workers keep a process-local cache keyed by spec, so a worker that
receives a spec it has not seen (e.g. it was forked before a route was
added) simply builds it lazily on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.artifacts import load_suite

#: Process-local caches (one per worker process; harmless in the parent).
_SUITES: dict = {}
_PREDICTORS: dict = {}


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to rebuild one predictor.

    Only primitives cross the pipe: the artifact *directory path* (not
    the arrays), the MIPS backend name, the quantized flag and the
    backend build params as a sorted tuple of ``(name, value)`` pairs —
    hashable, so specs key the worker-side predictor cache directly.
    """

    artifacts: str
    task_id: int
    mips_backend: str = "exact"
    quantized: bool = False
    cache_entries: int | None = None
    cache_bytes: int | None = None
    params: tuple = field(default_factory=tuple)


def _suite_for(path: str):
    suite = _SUITES.get(path)
    if suite is None:
        suite = load_suite(path, mmap=True)
        _SUITES[path] = suite
    return suite


def worker_predictor(spec: WorkerSpec):
    """The (cached) worker-local predictor for ``spec``."""
    predictor = _PREDICTORS.get(spec)
    if predictor is None:
        from repro.serving.predictor import open_predictor

        predictor = open_predictor(
            _suite_for(spec.artifacts),
            spec.task_id,
            device="sw",
            mips_backend=spec.mips_backend,
            quantized=spec.quantized,
            cache_entries=spec.cache_entries,
            cache_bytes=spec.cache_bytes,
            **dict(spec.params),
        )
        _PREDICTORS[spec] = predictor
    return predictor


def initialize_worker(specs) -> None:
    """ProcessPoolExecutor initializer: build every route's predictor
    up front so fork/spawn cost is paid once, not on the first flush."""
    for spec in specs:
        worker_predictor(spec)


def predict_encoded(
    spec: WorkerSpec,
    stories: np.ndarray,
    questions: np.ndarray,
    lengths: np.ndarray,
):
    """Answer one encoded sub-batch; returns stacked result arrays.

    This is the only function the parent submits to the pool — arrays
    in, arrays out, no response objects or predictors on the pipe. The
    fifth element is this call's story-cache counter delta
    ``(hits, misses, evictions)`` when the spec enables caching (each
    worker keeps its own :class:`~repro.serving.cache.MemoryCache`;
    only the accounting travels back), else None.

    ``spec`` may arrive wrapped in a fault rider exposing
    ``apply_worker_side()`` (the chaos harness's
    :class:`~repro.serving.chaos.ChaosOp`): the rider injects its fault
    *inside this worker process* — so e.g. a kill really breaks the
    pool — and unwraps to the real :class:`WorkerSpec`. Duck-typed, so
    this module keeps zero chaos imports on the hot path.
    """
    resolve = getattr(spec, "apply_worker_side", None)
    if resolve is not None:
        spec = resolve()
    predictor = worker_predictor(spec)
    cache = predictor.cache
    before = cache.counters() if cache is not None else None
    result = predictor.engine.search(stories, questions, lengths)
    delta = None
    if cache is not None:
        after = cache.counters()
        delta = tuple(b - a for a, b in zip(before, after))
    return (
        np.asarray(result.labels),
        np.asarray(result.logits),
        np.asarray(result.comparisons),
        np.asarray(result.early_exits),
        delta,
    )
