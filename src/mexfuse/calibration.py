"""Similarity calibration of raw referring scores.

A test expression borrows a pseudo-frequency from the training expressions
via a temperature softmax over expression similarities; the raw score is
then refined by an affine rule s' = s + a * p + b.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .tensor import DegenerateInputError, DimensionError

DEFAULT_TAU = 100.0
DEFAULT_A = 8.0
DEFAULT_B = -0.1


class CalibrationError(ValueError):
    """A calibration manifest that cannot be read, is malformed, or has no row
    for a prompt; the message names the manifest file."""


def normalized_weights(similarities, tau):
    """Temperature softmax over one test expression's train similarities.

    w_i = exp(tau * x_i) / sum_k exp(tau * x_k), max-subtracted for stability.
    """
    x = np.asarray(similarities, dtype=np.float64)
    if x.size == 0:
        raise DegenerateInputError("empty similarity vector")
    if not np.isfinite(x).all():
        raise ValueError("non-finite similarity values")
    z = tau * x
    z -= z.max()
    e = np.exp(z)
    return e / e.sum()


def pseudo_frequency(weights, train_freqs):
    """Convex combination of training frequencies under the softmax weights."""
    w = np.asarray(weights, dtype=np.float64)
    p = np.asarray(train_freqs, dtype=np.float64)
    if w.shape != p.shape:
        raise DimensionError(f"weights {w.shape} vs train freqs {p.shape}")
    return float(w @ p)


def refine(s, p_ts, a=DEFAULT_A, b=DEFAULT_B):
    """Refined score s' = s + a * p + b. No clamping."""
    return s + a * p_ts + b


@dataclass
class ExpressionStats:
    """Calibration inputs: train frequencies plus the test-vs-train similarity matrix.

    ``similarity[j]`` holds x_{ij} for test expression j against every train
    expression i; ``test_ids`` optionally names the rows.
    """

    train_ids: list
    train_freqs: np.ndarray
    similarity: np.ndarray  # [n_test, n_train]
    tau: float = DEFAULT_TAU
    a: float = DEFAULT_A
    b: float = DEFAULT_B
    test_ids: list | None = None
    _pseudo: dict = field(default_factory=dict, repr=False)
    # the manifest file these stats were read from, for error messages
    source: str = field(default="calibration stats", init=False, repr=False)

    def __post_init__(self):
        self.train_freqs = np.asarray(self.train_freqs, dtype=np.float64)
        self.similarity = np.atleast_2d(np.asarray(self.similarity, dtype=np.float64))
        if (self.train_freqs < 0).any():
            raise ValueError("negative train frequency")
        if self.similarity.shape[1] != self.train_freqs.shape[0]:
            raise DimensionError(
                f"similarity columns {self.similarity.shape} vs train freqs "
                f"{self.train_freqs.shape}")
        if self.similarity.shape[1] == 0:
            raise DegenerateInputError("similarity rows must have >= 1 entry")
        if self.test_ids is not None and len(self.test_ids) != self.similarity.shape[0]:
            raise DimensionError(f"{len(self.test_ids)} test_ids name "
                                 f"{self.similarity.shape[0]} similarity rows")
        if not np.isfinite(self.similarity).all():
            raise ValueError("non-finite similarity matrix")

    def _row_for(self, prompt_id, fallback_index):
        if self.test_ids is not None:
            try:
                return self.test_ids.index(prompt_id)
            except ValueError:
                raise CalibrationError(
                    f"{self.source}: prompt {prompt_id!r} not in test_ids") from None
        if self.similarity.shape[0] == 1:
            return 0  # single row applies to every test expression
        if fallback_index >= self.similarity.shape[0]:
            raise DimensionError(
                f"no similarity row for test expression index {fallback_index}")
        return fallback_index

    def pseudo_for(self, prompt_id, fallback_index=0):
        key = (prompt_id, fallback_index)
        if key not in self._pseudo:
            row = self.similarity[self._row_for(prompt_id, fallback_index)]
            w = normalized_weights(row, self.tau)
            self._pseudo[key] = pseudo_frequency(w, self.train_freqs)
        return self._pseudo[key]

    def refine(self, s, prompt_id, fallback_index=0):
        p = self.pseudo_for(prompt_id, fallback_index)
        return refine(s, p, self.a, self.b), p


def disabled_stats():
    """Identity calibration: p = 0, a = 0, b = 0, so s' == s bitwise."""
    return ExpressionStats(train_ids=["none"], train_freqs=np.array([0.0]),
                           similarity=np.array([[1.0]]), tau=DEFAULT_TAU, a=0.0, b=0.0)


def load_manifest(path):
    """Calibration manifest JSON:

    {"train": [{"expr_id": ..., "freq": ...}], "similarity": [[x_ij]],
     "tau": ..., "a": ..., "b": ..., "test_ids": [...]}   (test_ids optional)

    Raises CalibrationError naming ``path`` for a file that cannot be read or
    is not JSON, an unknown or missing key, or values that do not form valid
    stats.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CalibrationError(f"{path}: cannot read ({exc})") from None
    if not isinstance(raw, dict):
        raise CalibrationError(f"{path}: not a JSON object")
    unknown = set(raw) - {"train", "similarity", "tau", "a", "b", "test_ids"}
    if unknown:
        raise CalibrationError(f"{path}: unknown calibration keys {sorted(unknown)}")
    try:
        stats = ExpressionStats(
            train_ids=[t["expr_id"] for t in raw["train"]],
            train_freqs=np.array([t["freq"] for t in raw["train"]], dtype=np.float64),
            similarity=np.array(raw["similarity"], dtype=np.float64),
            tau=float(raw.get("tau", DEFAULT_TAU)),
            a=float(raw.get("a", DEFAULT_A)),
            b=float(raw.get("b", DEFAULT_B)),
            test_ids=raw.get("test_ids"),
        )
    except KeyError as exc:
        raise CalibrationError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CalibrationError(f"{path}: {exc}") from None
    stats.source = str(path)
    return stats
