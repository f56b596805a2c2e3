"""Persistent suite artifacts: train once, serve forever.

``save_suite(suite, directory)`` writes one self-contained artifact
directory; ``load_suite(directory)`` restores a fully functional
:class:`~repro.eval.suite.BabiSuite` — frozen weights, shared vocab,
fitted :class:`~repro.mips.thresholding.ThresholdModel` per task, the
encoded train/test batches and the training summary — without running
a single training step. Layout::

    directory/
      suite.json            # format version, SuiteConfig, vocab words
      task_01/
        arrays.npz          # weights, encoded batches, train logits,
                            # reference test predictions
        threshold.npz       # fitted ThresholdModel (see codec.py)
        quantized.npz       # optional Qm.n integer codes (format v2)
        meta.json           # MannConfig + TrainResult summary
      task_02/ ...

Everything numeric round-trips bit-exactly (``np.savez`` preserves
dtype and bits; JSON floats use ``repr`` round-tripping), which
:func:`verify_artifacts` checks by recomputing predictions and logits
from the restored weights. The serving layer
(:func:`repro.serving.open_predictor`,
:class:`repro.serving.ModelRouter`) accepts these directories directly;
``save_suite(..., qformat=QFormat(3, 8))`` additionally persists a
fixed-point snapshot of every task so quantized models can be served
with ``open_predictor(..., quantized=True)``.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.artifacts.codec import (
    FORMAT_VERSION,
    check_format_version,
    decode_quantized_weights,
    decode_threshold_model,
    encode_quantized_weights,
    encode_threshold_model,
)
from repro.babi.dataset import EncodedBatch
from repro.babi.vocab import Vocab
from repro.eval.suite import BabiSuite, SuiteConfig, TaskSystem
from repro.mann.config import MannConfig
from repro.mann.inference import InferenceEngine
from repro.mann.quantize import QFormat, QuantizedWeights
from repro.mann.trainer import TrainResult
from repro.mann.weights import MannWeights

_WEIGHT_FIELDS = ("w_emb_a", "w_emb_c", "w_emb_q", "w_r", "w_o", "t_a", "t_c")
_BATCH_FIELDS = ("stories", "questions", "answers", "story_lengths")


def _task_dirname(task_id: int) -> str:
    return f"task_{task_id:02d}"


# ---------------------------------------------------------------------------
# save
# ---------------------------------------------------------------------------
def save_suite(suite: BabiSuite, directory, qformat: QFormat | None = None) -> Path:
    """Write ``suite`` to ``directory`` (created if missing).

    Returns the directory as a :class:`~pathlib.Path`. Raises if the
    directory already holds a ``suite.json`` for different task ids —
    refusing to silently mix two suites in one place. With ``qformat``
    every task additionally persists a fixed-point snapshot
    (:class:`~repro.mann.quantize.QuantizedWeights`) servable via
    ``open_predictor(..., quantized=True)``; without it, any quantized
    snapshot already attached to a task (e.g. from a previous load)
    is preserved as-is.
    """
    directory = Path(directory)
    marker = directory / "suite.json"
    if marker.exists():
        existing = json.loads(marker.read_text())
        if existing.get("task_ids") != sorted(suite.tasks):
            raise FileExistsError(
                f"{directory} already holds artifacts for tasks "
                f"{existing.get('task_ids')}; refusing to overwrite with "
                f"tasks {sorted(suite.tasks)}"
            )
    directory.mkdir(parents=True, exist_ok=True)

    for task_id, system in suite.tasks.items():
        _save_task_system(system, directory / _task_dirname(task_id), qformat)

    marker.write_text(
        json.dumps(
            {
                "format_version": FORMAT_VERSION,
                "config": asdict(suite.config),
                "task_ids": sorted(suite.tasks),
                "vocab": suite.vocab.words(),
            },
            indent=2,
        )
        + "\n"
    )
    return directory


def _save_task_system(
    system: TaskSystem, task_dir: Path, qformat: QFormat | None = None
) -> None:
    task_dir.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {
        name: getattr(system.weights, name) for name in _WEIGHT_FIELDS
    }
    for split, batch in (("train", system.train_batch), ("test", system.test_batch)):
        for field in _BATCH_FIELDS:
            arrays[f"{split}_{field}"] = getattr(batch, field)
    arrays["train_logits"] = system.train_logits
    # Reference predictions let verify_artifacts (and the CI round-trip
    # job) assert bit-exactness in a fresh process without retraining.
    arrays["expected_test_predictions"] = system.batch_engine.predict(
        system.test_batch.stories,
        system.test_batch.questions,
        system.test_batch.story_lengths,
    )
    np.savez(task_dir / "arrays.npz", **arrays)
    np.savez(
        task_dir / "threshold.npz", **encode_threshold_model(system.threshold_model)
    )

    quantized = system.quantized
    if qformat is not None:  # explicit request wins: re-snap the floats
        quantized, _ = QuantizedWeights.quantize(system.weights, qformat)
    if quantized is not None:
        np.savez(
            task_dir / "quantized.npz", **encode_quantized_weights(quantized)
        )

    result = system.train_result
    meta = {
        "task_id": system.task_id,
        "model_config": asdict(system.weights.config),
        "train_result": {
            "train_losses": list(result.train_losses),
            "train_accuracies": list(result.train_accuracies),
            "test_accuracy": result.test_accuracy,
            "majority_accuracy": result.majority_accuracy,
            "epochs_run": result.epochs_run,
        },
    }
    if quantized is not None:
        meta["quantization"] = {
            "int_bits": quantized.qformat.int_bits,
            "frac_bits": quantized.qformat.frac_bits,
        }
    (task_dir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")


# ---------------------------------------------------------------------------
# load
# ---------------------------------------------------------------------------
def load_suite(directory) -> BabiSuite:
    """Restore a :class:`BabiSuite` saved by :func:`save_suite`.

    The restored systems are ready for every experiment driver and for
    :func:`repro.serving.open_predictor`; their ``train``/``test``
    dataset fields are ``None`` (raw examples are not persisted — the
    encoded batches are).
    """
    directory = Path(directory)
    marker = directory / "suite.json"
    if not marker.is_file():
        raise FileNotFoundError(f"no suite artifacts at {directory} (suite.json missing)")
    manifest = json.loads(marker.read_text())
    check_format_version(manifest.get("format_version"))

    words = manifest["vocab"]
    vocab = Vocab(words[1:])  # index 0 is always the reserved pad token
    if vocab.words() != words:
        raise ValueError(f"corrupt vocabulary list in {marker}")

    config_dict = dict(manifest["config"])
    config_dict["task_ids"] = tuple(config_dict["task_ids"])
    suite = BabiSuite(config=SuiteConfig(**config_dict), vocab=vocab)
    for task_id in manifest["task_ids"]:
        suite.tasks[int(task_id)] = _load_task_system(
            directory / _task_dirname(int(task_id))
        )
    return suite


def _load_task_system(task_dir: Path) -> TaskSystem:
    meta = json.loads((task_dir / "meta.json").read_text())
    model_config = MannConfig(**meta["model_config"])

    with np.load(task_dir / "arrays.npz") as data:
        weights = MannWeights(
            model_config, *(data[name].copy() for name in _WEIGHT_FIELDS)
        )
        batches = {
            split: EncodedBatch(
                *(data[f"{split}_{field}"].copy() for field in _BATCH_FIELDS)
            )
            for split in ("train", "test")
        }
        train_logits = data["train_logits"].copy()

    with np.load(task_dir / "threshold.npz") as data:
        threshold_model = decode_threshold_model(data)

    quantized = None
    if (task_dir / "quantized.npz").is_file():
        with np.load(task_dir / "quantized.npz") as data:
            quantized = decode_quantized_weights(data, model_config)

    summary = meta["train_result"]
    train_result = TrainResult(
        model=None,  # the autograd model is not persisted, only its weights
        train_losses=list(summary["train_losses"]),
        train_accuracies=list(summary["train_accuracies"]),
        test_accuracy=float(summary["test_accuracy"]),
        majority_accuracy=float(summary["majority_accuracy"]),
        epochs_run=int(summary["epochs_run"]),
    )
    engine = InferenceEngine(weights)
    return TaskSystem(
        task_id=int(meta["task_id"]),
        train=None,
        test=None,
        train_batch=batches["train"],
        test_batch=batches["test"],
        weights=weights,
        engine=engine,
        batch_engine=engine.batch,
        threshold_model=threshold_model,
        train_result=train_result,
        train_logits=train_logits,
        quantized=quantized,
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------
def verify_artifacts(directory) -> BabiSuite:
    """Load ``directory`` and prove the round-trip is bit-exact.

    Recomputes every task's test-set predictions and training logits
    from the restored weights and asserts they equal the arrays stored
    at save time — the check the CI round-trip job runs in a fresh
    process. Returns the verified suite.
    """
    directory = Path(directory)
    suite = load_suite(directory)
    for task_id, system in suite.tasks.items():
        task_dir = directory / _task_dirname(task_id)
        with np.load(task_dir / "arrays.npz") as data:
            expected_preds = data["expected_test_predictions"].copy()
            expected_logits = data["train_logits"].copy()
        preds = system.batch_engine.predict(
            system.test_batch.stories,
            system.test_batch.questions,
            system.test_batch.story_lengths,
        )
        if not np.array_equal(preds, expected_preds):
            raise AssertionError(
                f"task {task_id}: restored predictions differ from the "
                "predictions recorded at save time"
            )
        logits = system.batch_engine.logits(
            system.train_batch.stories,
            system.train_batch.questions,
            system.train_batch.story_lengths,
        )
        if not np.array_equal(logits, expected_logits):
            raise AssertionError(
                f"task {task_id}: restored train logits are not bit-exact"
            )
        if system.quantized is not None:
            # The fixed-point snapshot must be exactly the float model
            # snapped to its stored grid — re-quantise and compare.
            qformat = system.quantized.qformat
            for name in _WEIGHT_FIELDS:
                restored = getattr(system.quantized.weights, name)
                expected = qformat.quantize(getattr(system.weights, name))
                if not np.array_equal(restored, expected):
                    raise AssertionError(
                        f"task {task_id}: quantized weight {name} does not "
                        f"match the float model snapped to {qformat}"
                    )
    return suite
