"""Metric names and units, the layer -> metric map, and host facts.

Names, units and directions are read from ``BENCHMARK.json`` at the
repository root. ``LAYERS`` adds what that file has no key for: each
per-layer metric's layer and the end-to-end metric and workload it
should move — the prediction a performance change is judged against.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
from pathlib import Path

DECLARED = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
END_TO_END = tuple(m["name"] for m in DECLARED["end_to_end"])
PER_LAYER = tuple(m["name"] for m in DECLARED["per_layer"])
UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}

#: Per-layer metric -> (layer, what it should move). Self times are µs
#: per request: a span minus its child spans.
LAYERS = {
    "api.build_us": ("serving.api", "throughput_rps, cpu_ms_per_kreq on babi-mixed"),
    "scheduler.self_us": ("serving.scheduler", "throughput_rps on babi-mixed"),
    "scheduler.resolve_us": ("serving.scheduler", "throughput_rps on babi-mixed"),
    "scheduler.queue_wait_ms": (
        "serving.scheduler",
        "latency_p50_ms on babi-mixed, prod-zipf and babi-async",
    ),
    "scheduler.batch_size_mean": (
        "serving.scheduler",
        "throughput_rps on babi-mixed (64 unless the deadline thread splits)",
    ),
    "scheduler.flushes": (
        "serving.scheduler",
        "throughput_rps on babi-mixed (25 a bAbI round, 64 a prod round)",
    ),
    "router.self_us": ("serving.router", "throughput_rps on babi-mixed"),
    "router.engine_calls_per_flush": ("serving.router", "throughput_rps on babi-mixed"),
    "predictor.self_us": ("serving.predictor", "throughput_rps on babi-mixed"),
    "frontend.admit_us": (
        "serving.frontend",
        "throughput_rps, latency_p99_ms on babi-async",
    ),
    "frontend.wake_us": ("serving.frontend", "latency_p50_ms, latency_p99_ms on babi-async"),
    "frontend.shed": ("serving.frontend", "goodput_ratio on babi-async"),
    "frontend.expired": ("serving.frontend", "goodput_ratio on babi-async"),
    "cache.lookup_us": ("serving.cache", "throughput_rps on prod-zipf"),
    "cache.hit_rate": ("serving.cache", "throughput_rps on prod-zipf"),
    "cache.hits": ("serving.cache", "throughput_rps on prod-zipf"),
    "cache.misses": ("serving.cache", "throughput_rps on prod-zipf"),
    "cache.evictions": ("serving.cache", "throughput_rps on prod-zipf"),
    "engine.write_us": ("mann.batch", "throughput_rps on prod-zipf"),
    "engine.hops_us": ("mann.batch", "throughput_rps on babi-mixed and prod-zipf"),
    "mips.search_us": (
        "mips",
        "throughput_rps on babi-mixed (ITH) and prod-zipf (exact)",
    ),
    "mips.comparisons_per_query": ("mips", "throughput_rps on babi-mixed"),
    "mips.early_exit_rate": ("mips", "throughput_rps on babi-mixed"),
    "hw.run_us": ("hw", "throughput_rps on babi-hw"),
    **{
        f"hw.sim_{name}": ("hw", "simulated count, kept out of the end-to-end set")
        for name in (
            "cycles.control",
            "cycles.write",
            "cycles.question",
            "cycles.hops",
            "cycles.output",
            "energy_uj",
        )
    },
    "hw.interface_share": ("hw", "simulated count, kept out of the end-to-end set"),
    "hw.flops_per_kj": ("hw", "simulated count, kept out of the end-to-end set"),
    "artifacts.load_s": ("setup", "setup_s"),
    "router.open_s": ("setup", "setup_s"),
    "trace.overhead": ("harness", "untraced over traced throughput_rps, minus 1"),
    "trace.e2e_us": ("harness", "wall time per request of the traced rounds"),
    "trace.unattributed_us": ("harness", "trace.e2e_us minus every self time"),
    "error_rate": ("harness", "failed over attempted; goodput_ratio"),
    "reference.engine_search_us": (
        "reference",
        "same-run engine.search on a fixed 64-request batch",
    ),
    "reference.routed_ratio": (
        "reference",
        "untraced raw CPU µs per answer over reference.engine_search_us",
    ),
    "raw.throughput_rps": ("harness", "throughput_rps before pacing"),
    "host.slowdown": ("harness", "median pace slice time over PACE_REF_S"),
}


def metrics_block(values: dict[str, float], names) -> dict:
    """``{"name": {"value": v, "unit": u}}`` for exactly ``names``."""
    return {
        name: {"value": float(values[name]), "unit": UNITS[name]} for name in names
    }


def host_fingerprint() -> dict:
    """CPU model, cores, Python/numpy/BLAS: lets archives from
    different boxes be compared."""
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # numpy without dict-mode config reporting
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "usable_cores": usable,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

