"""The benchmark's workloads: models, request streams and answer oracle.

Every workload serves through the public serving API on one process:
``n_workers=1``, thread mode, no sharding, one client. Inputs are made
from the workload seed only; the program sees the generated requests.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: bAbI routes of the mixed workloads (tasks 1, 2, 3 and 6).
BABI_TASKS = (1, 2, 3, 6)
BABI_TRAIN = dict(task_ids=BABI_TASKS, n_train=150, n_test=50, epochs=30, seed=7)
#: Closed-loop window; equals ``max_batch`` so a full window is one flush.
WINDOW = 64
#: One bAbI round: lcm(64, 4 routes x 50 test examples), so a round is
#: whole windows and serves every test example equally often.
BABI_ROUND = 1600
BABI_ROUTER = dict(mips_backend="threshold", max_batch=WINDOW, max_wait_s=0.005)
#: The frontend's stack. The flush runs inline, on the event loop's
#: thread: with the frontend's default ``inline_flush=False`` every
#: window was handed to the deadline thread and back, and on a shared
#: 2-core Xeon VM that GIL hand-off spread throughput by 0.20 and p99 by
#: 0.67 (quartile distance over median, 10 seeds). Admitting a window
#: takes about 4 ms there, so a 5 ms timer split some windows in two;
#: at 20 ms a window always flushes whole, as on ``babi-mixed``.
BABI_ASYNC = dict(
    BABI_ROUTER,
    max_wait_s=0.02,
    inline_flush=True,
    queue_cap=256,
    overload_policy="shed-expired",
)

#: Production-shaped synthetic model (full-vocabulary deployment shape).
PROD_VOCAB, PROD_EMBED, PROD_SLOTS, PROD_WORDS, PROD_HOPS = 400, 64, 32, 10, 3
PROD_WEIGHTS_SEED = 11
PROD_POOL = 384
PROD_ZIPF_S = 1.2
PROD_CACHE_ENTRIES = 96
PROD_ROUND = 4096


@dataclass(frozen=True)
class Item:
    """One request of a stream, with its gold answer when one exists."""

    task: int | None
    story: np.ndarray
    question: np.ndarray
    n_sentences: int | None
    gold: int | None


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------
def _source_digest() -> str:
    """Digest of the program source and the training recipe, so a cached
    suite is rebuilt whenever either changes."""
    digest = hashlib.sha256(repr(sorted(BABI_TRAIN.items())).encode())
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def train_suite(directory) -> None:
    """Train the bAbI suite and save it as artifacts (runs in a child
    process so training never counts toward the measured process)."""
    from repro.artifacts import save_suite
    from repro.eval.suite import BabiSuite, SuiteConfig

    save_suite(BabiSuite.build(SuiteConfig(**BABI_TRAIN)), directory)


def babi_artifacts() -> Path:
    """The trained suite's artifact directory, trained on first use.

    Training is offline and untimed; the result is kept under
    ``.bench_build/`` in the checkout, keyed by :func:`_source_digest`.
    """
    build_dir = ROOT / ".bench_build" / "perfbench"
    target = build_dir / f"babi-{_source_digest()}"
    if (target / "suite.json").is_file():
        return target
    build_dir.mkdir(parents=True, exist_ok=True)
    staging = build_dir / f"tmp-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from perfbench.workloads import train_suite; "
            "train_suite(sys.argv[1])",
            str(staging),
        ],
        env=env,
        check=True,
        timeout=600,
    )
    try:
        staging.rename(target)
    except OSError:  # another run finished first
        shutil.rmtree(staging, ignore_errors=True)
    return target


def production_weights():
    """Random weights of the production-shaped model (fixed seed)."""
    from repro.mann.config import MannConfig
    from repro.mann.weights import MannWeights

    rng = np.random.default_rng(PROD_WEIGHTS_SEED)
    config = MannConfig(
        vocab_size=PROD_VOCAB,
        embed_dim=PROD_EMBED,
        memory_size=PROD_SLOTS,
        hops=PROD_HOPS,
    )

    def w(*shape):
        return rng.normal(0.0, 0.1, shape)

    return MannWeights(
        config,
        w(PROD_VOCAB, PROD_EMBED),
        w(PROD_VOCAB, PROD_EMBED),
        w(PROD_VOCAB, PROD_EMBED),
        w(PROD_EMBED, PROD_EMBED),
        w(PROD_VOCAB, PROD_EMBED),
        w(PROD_SLOTS, PROD_EMBED),
        w(PROD_SLOTS, PROD_EMBED),
    )


# ---------------------------------------------------------------------------
# serving stacks
# ---------------------------------------------------------------------------
@dataclass
class Served:
    """A set-up serving stack and how long each set-up step took."""

    router: object
    suite: object | None
    load_s: float
    open_s: float
    setup_s: float
    frontend: object | None = None


def open_babi(artifacts: Path, device: str) -> Served:
    """artifact dir -> ``load_suite`` + ``ModelRouter.open`` + first answer."""
    from repro.artifacts import load_suite
    from repro.serving import ModelRouter

    start = time.perf_counter()
    suite = load_suite(artifacts)
    loaded = time.perf_counter()
    router = ModelRouter.open(suite, BABI_TASKS, device=device, **BABI_ROUTER)
    opened = time.perf_counter()
    router.submit(_first_request(suite)).result()
    done = time.perf_counter()
    return Served(router, suite, loaded - start, opened - loaded, done - start)


def open_babi_async(artifacts: Path) -> Served:
    """artifact dir -> ``load_suite`` + ``AsyncFrontend.open`` + first
    answer awaited through the frontend. The benchmark closes the
    router itself (``AsyncFrontend.aclose`` would start an executor
    thread to do it)."""
    from repro.artifacts import load_suite
    from repro.serving.frontend import AsyncFrontend

    start = time.perf_counter()
    suite = load_suite(artifacts)
    loaded = time.perf_counter()
    frontend = AsyncFrontend.open(suite, BABI_TASKS, **BABI_ASYNC)
    opened = time.perf_counter()
    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(frontend.query(_first_request(suite)))
    finally:
        loop.close()
    done = time.perf_counter()
    return Served(
        frontend.backend, suite, loaded - start, opened - loaded, done - start, frontend
    )


def _first_request(suite):
    from repro.serving import QueryRequest

    batch = suite.tasks[BABI_TASKS[0]].test_batch
    return QueryRequest(batch.stories[0], batch.questions[0], task=BABI_TASKS[0])


def open_prod() -> Served:
    """weights -> cached exact-search route + first answer."""
    from repro.mann.batch import BatchInferenceEngine
    from repro.serving import MemoryCache, ModelRouter, QueryRequest
    from repro.serving.predictor import SoftwarePredictor

    start = time.perf_counter()
    weights = production_weights()
    loaded = time.perf_counter()
    engine = BatchInferenceEngine(
        weights,
        "exact",
        memory_cache=MemoryCache(capacity_entries=PROD_CACHE_ENTRIES),
    )
    router = ModelRouter(
        {"prod": SoftwarePredictor(engine)}, max_batch=WINDOW, max_wait_s=0.005
    )
    opened = time.perf_counter()
    story = np.zeros((PROD_SLOTS, PROD_WORDS), dtype=np.int64)
    story[0] = 1
    router.submit(QueryRequest(story, story[0])).result()
    done = time.perf_counter()
    return Served(router, None, loaded - start, opened - loaded, done - start)


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------
def babi_stream(suite, seed: int) -> list[Item]:
    """One bAbI round: routes round-robin, each route walking fresh
    seeded permutations of its test examples."""
    rng = np.random.default_rng(seed)
    tests = {task: suite.tasks[task].test_batch for task in BABI_TASKS}
    orders: dict[int, list[int]] = {task: [] for task in BABI_TASKS}
    items = []
    for k in range(BABI_ROUND):
        task = BABI_TASKS[k % len(BABI_TASKS)]
        if not orders[task]:
            orders[task] = list(rng.permutation(len(tests[task].answers)))
        j = int(orders[task].pop())
        batch = tests[task]
        items.append(
            Item(task, batch.stories[j], batch.questions[j], None, int(batch.answers[j]))
        )
    return items


def prod_stream(seed: int) -> list[Item]:
    """One production round: zipf-popular stories from a seeded pool,
    each request with an independent question (no gold answer)."""
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(PROD_POOL):
        length = int(rng.integers(PROD_SLOTS // 2, PROD_SLOTS + 1))
        story = np.zeros((PROD_SLOTS, PROD_WORDS), dtype=np.int64)
        story[:length] = rng.integers(1, PROD_VOCAB, (length, PROD_WORDS))
        pool.append((story, length))
    ranks = np.arange(1, PROD_POOL + 1, dtype=np.float64)
    popularity = ranks**-PROD_ZIPF_S
    popularity /= popularity.sum()
    choices = rng.choice(PROD_POOL, size=PROD_ROUND, p=popularity)
    return [
        Item(
            None,
            pool[c][0],
            rng.integers(1, PROD_VOCAB, PROD_WORDS).astype(np.int64),
            pool[c][1],
            None,
        )
        for c in choices
    ]


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------
def oracle(items: list[Item], engines: dict) -> tuple[np.ndarray, np.ndarray]:
    """Reference ``(labels, logits)`` per stream position: the route's
    ``BatchInferenceEngine.search`` on each request alone."""
    labels = np.empty(len(items), dtype=np.int64)
    logits = np.empty(len(items), dtype=np.float64)
    for k, item in enumerate(items):
        lengths = (
            None
            if item.n_sentences is None
            else np.array([item.n_sentences], dtype=np.int64)
        )
        result = engines[item.task].search(item.story[None], item.question[None], lengths)
        labels[k], logits[k] = result.labels[0], result.logits[0]
    return labels, logits


#: Timed calls per route for the same-run reference.
REFERENCE_REPEATS = 30


def reference_search_us(engines: dict, items: list[Item]) -> float:
    """Same-run reference: ``engine.search`` µs per request on a fixed
    64-request batch of each route (median call, mean over routes)."""
    per_route = []
    for task, engine in engines.items():
        rows = [item for item in items if item.task == task][:WINDOW]
        stories = np.stack([item.story for item in rows])
        questions = np.stack([item.question for item in rows])
        lengths = (
            None
            if rows[0].n_sentences is None
            else np.array([item.n_sentences for item in rows], dtype=np.int64)
        )
        times = []
        for _ in range(REFERENCE_REPEATS):
            start = time.perf_counter()
            engine.search(stories, questions, lengths)
            times.append(time.perf_counter() - start)
        per_route.append(float(np.median(times)) / len(rows) * 1e6)
    return float(np.mean(per_route))
