"""Benchmark fixtures: the full 20-task suite, built once per session.

Benchmarks print the reproduced tables/series to stdout (run with
``-s`` to see them live) and persist them under benchmarks/output/.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.eval.suite import BabiSuite, SuiteConfig

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def persist(name: str, text: str) -> None:
    """Print a reproduced table and save it next to the benchmarks."""
    print("\n" + text)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")


def persist_bench_summary(key: str, summary: dict) -> None:
    """Merge one benchmark's machine-readable summary into
    ``benchmarks/output/BENCH_serving.json`` under its own top-level
    key, so several serving benchmarks (workers ladder, caching
    ladder, ...) archive into the one file CI uploads without
    clobbering each other. Pre-existing single-summary files (the
    legacy flat format with a ``"benchmark"`` name field) are wrapped
    under their own name on first contact.
    """
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / "BENCH_serving.json"
    data: dict = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            data = {}
    if isinstance(data, dict) and isinstance(data.get("benchmark"), str):
        data = {data["benchmark"]: data}  # migrate the legacy flat layout
    if not isinstance(data, dict):
        data = {}
    data[key] = summary
    path.write_text(json.dumps(data, indent=2) + "\n")


@pytest.fixture(scope="session")
def full_suite() -> BabiSuite:
    """All 20 bAbI tasks with a shared vocabulary (the paper's setup)."""
    return BabiSuite.build(
        SuiteConfig(
            task_ids=tuple(range(1, 21)),
            n_train=150,
            n_test=50,
            epochs=30,
            seed=7,
        )
    )


@pytest.fixture(scope="session")
def task1_system(full_suite):
    return full_suite.tasks[1]
