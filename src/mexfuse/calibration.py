"""Similarity calibration of raw referring scores.

A test expression borrows a pseudo-frequency from the training expressions
via a temperature softmax over expression similarities; the raw score is
then refined by an affine rule s' = s + a * p + b.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .config import check_kind
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
    expression i, and ``test_ids[j]`` names that row. Without ``test_ids``
    there must be one row, which applies to every test expression.
    """

    train_ids: list
    train_freqs: np.ndarray
    similarity: np.ndarray  # [n_test, n_train]
    tau: float = DEFAULT_TAU
    a: float = DEFAULT_A
    b: float = DEFAULT_B
    test_ids: list | None = None
    # the manifest file these stats were read from, for error messages
    source: str = "calibration stats"
    _pseudo: dict = field(default_factory=dict, repr=False)

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
        if not np.isfinite(self.similarity).all():
            raise ValueError("non-finite similarity matrix")
        n_rows = self.similarity.shape[0]
        if self.test_ids is None and n_rows > 1:
            raise CalibrationError(f"{self.source}: {n_rows} similarity rows and no test_ids")
        if self.test_ids is not None and len(self.test_ids) != n_rows:
            raise DimensionError(f"{len(self.test_ids)} test_ids name {n_rows} similarity rows")
        repeated = [i for i, n in Counter(self.test_ids).items() if n > 1]
        if repeated:
            raise CalibrationError(f"{self.source}: test_ids repeat {repeated[0]!r}")

    def pseudo_for(self, prompt_id):
        if prompt_id not in self._pseudo:
            if self.test_ids is not None and prompt_id not in self.test_ids:
                raise CalibrationError(f"{self.source}: prompt {prompt_id!r} not in test_ids")
            # without test_ids, the one row applies to every test expression
            row = self.test_ids.index(prompt_id) if self.test_ids is not None else 0
            w = normalized_weights(self.similarity[row], self.tau)
            self._pseudo[prompt_id] = pseudo_frequency(w, self.train_freqs)
        return self._pseudo[prompt_id]

    def refine(self, s, prompt_id):
        p = self.pseudo_for(prompt_id)
        return refine(s, p, self.a, self.b), p


def disabled_stats():
    """Identity calibration: p = 0, a = 0, b = 0, so s' == s bitwise."""
    return ExpressionStats(train_ids=["none"], train_freqs=np.array([0.0]),
                           similarity=np.array([[1.0]]), tau=DEFAULT_TAU, a=0.0, b=0.0)


def load_manifest(path):
    """Calibration manifest JSON:

    {"train": [{"expr_id": str, "freq": number}], "similarity": [[number, ...]],
     "tau": number, "a": number, "b": number, "test_ids": [str]}

    ``tau``, ``a`` and ``b`` are optional, and ``test_ids`` is too when there
    is one similarity row. Raises CalibrationError naming ``path`` for a file
    that cannot be read or is not JSON, an unknown or missing key, a value of
    the wrong kind (naming its key), or values that do not form valid stats.
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
        train, rows = raw["train"], raw["similarity"]
        if not (type(train) is type(rows) is list and all(type(t) is dict for t in train)):
            raise TypeError("train must be a list of objects, and similarity a list of rows")
        scalars = {key: raw[key] for key in ("tau", "a", "b") if key in raw}
        for i, t in enumerate(train):
            check_kind("str", t["expr_id"], f"train[{i}].expr_id")
            check_kind("number", t["freq"], f"train[{i}].freq")
        for j, row in enumerate(rows):
            check_kind("numbers", row, f"similarity[{j}]")
        for key, value in scalars.items():
            check_kind("number", value, key)
        if "test_ids" in raw:
            check_kind("strs", raw["test_ids"], "test_ids")
        return ExpressionStats(
            train_ids=[t["expr_id"] for t in train], train_freqs=[t["freq"] for t in train],
            similarity=rows, **{key: float(value) for key, value in scalars.items()},
            test_ids=raw.get("test_ids"), source=str(path))
    except KeyError as exc:
        raise CalibrationError(f"{path}: missing key {exc}") from None
    except CalibrationError:
        raise
    except (TypeError, ValueError) as exc:
        raise CalibrationError(f"{path}: {exc}") from None
