"""Similarity calibration of raw referring scores.

A test expression borrows a pseudo-frequency from the training expressions
via a temperature softmax over expression similarities; the raw score is
then refined by an affine rule s' = s + a * p + b.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .config import DataFileError, check_fields, read_json

DEFAULT_TAU = 100.0
DEFAULT_A = 8.0
DEFAULT_B = -0.1


def normalized_weights(similarities, tau):
    """Temperature softmax over one test expression's train similarities.

    w_i = exp(tau * x_i) / sum_k exp(tau * x_k), max-subtracted for stability.
    Where a product tau * x_i overflows, the max of x (the min when tau < 0)
    is subtracted before scaling, on halves so that no step makes a NaN.
    """
    x = np.asarray(similarities, dtype=np.float64)
    with np.errstate(over="ignore"):
        z = tau * x
        if not np.isfinite(z).all():
            z = 2 * (tau * (x / 2 - (x.max() if tau >= 0 else x.min()) / 2))
        z -= z.max()
    e = np.exp(z)
    return e / e.sum()


def pseudo_frequency(weights, train_freqs):
    """Convex combination of training frequencies under the softmax weights."""
    w, p = (np.asarray(v, dtype=np.float64) for v in (weights, train_freqs))
    return float(w @ p)


def refine(s, p_ts, a=DEFAULT_A, b=DEFAULT_B):
    """Refined score s' = s + a * p + b. No clamping."""
    return s + a * p_ts + b


@dataclass
class ExpressionStats:
    """Calibration inputs: train frequencies plus the test-vs-train similarity matrix.

    ``similarity[j]`` holds x_{ij} for test expression j against every train
    expression i, and ``test_ids[j]`` names that row. Without ``test_ids``
    there is one row, which applies to every test expression.
    ``load_manifest`` checks these shapes.
    """

    train_freqs: list
    similarity: list  # [n_test][n_train]
    tau: float = DEFAULT_TAU
    a: float = DEFAULT_A
    b: float = DEFAULT_B
    test_ids: list | None = None
    # the manifest file these stats were read from, for error messages
    source: str = "calibration stats"
    _pseudo: dict = field(default_factory=dict, repr=False)

    def pseudo_for(self, prompt_id):
        if prompt_id not in self._pseudo:
            if self.test_ids is not None and prompt_id not in self.test_ids:
                raise DataFileError(f"{self.source}: prompt {prompt_id!r} not in test_ids")
            # without test_ids, the one row applies to every test expression
            row = self.test_ids.index(prompt_id) if self.test_ids is not None else 0
            w = normalized_weights(self.similarity[row], self.tau)
            self._pseudo[prompt_id] = pseudo_frequency(w, self.train_freqs)
        return self._pseudo[prompt_id]

    def refine(self, s, prompt_id):
        p = self.pseudo_for(prompt_id)
        return refine(s, p, self.a, self.b), p


# a calibration manifest's fields and their kinds; OPTIONAL's may be left out
MANIFEST = {"train": [{"expr_id": "str", "freq": "number"}], "similarity": ["numbers"]}
OPTIONAL = {"tau": "number", "a": "number", "b": "number", "test_ids": "strs"}


def _check_manifest(doc):
    """Refuse unknown keys, then check the optional fields' kinds and the shapes."""
    unknown = set(doc) - set(MANIFEST) - set(OPTIONAL)
    if unknown:
        raise ValueError(f"unknown calibration keys {sorted(unknown)}")
    check_fields(doc, {key: kind for key, kind in OPTIONAL.items() if key in doc})
    train, rows, ids = doc["train"], doc["similarity"], doc.get("test_ids")
    for i, t in enumerate(train):
        if t["freq"] < 0:
            raise ValueError(f"train[{i}].freq must be >= 0, got {t['freq']!r}")
    for j, row in enumerate(rows):
        if len(row) != len(train):
            raise ValueError(f"similarity[{j}] has length {len(row)}; train has "
                             f"{len(train)} entries")
    if ids is None:
        if len(rows) != 1:
            raise ValueError(f"{len(rows)} similarity rows and no test_ids")
    elif len(ids) != len(rows):
        raise ValueError(f"{len(ids)} test_ids name {len(rows)} similarity rows")
    repeated = [i for i, n in Counter(ids or ()).items() if n > 1]
    if repeated:
        raise ValueError(f"test_ids repeat {repeated[0]!r}")


def load_manifest(path):
    """The ExpressionStats of the calibration manifest JSON at ``path``:

    {"train": [{"expr_id": str, "freq": number}], "similarity": [[number, ...]],
     "tau": number, "a": number, "b": number, "test_ids": [str]}

    ``tau``, ``a`` and ``b`` are optional, and ``test_ids`` is too when there
    is one similarity row. Raises DataFileError naming ``path`` for a file
    that cannot be read or is not a JSON object, an unknown or missing key,
    a value of the wrong kind (naming its key), a negative frequency, a
    similarity row whose length is not the number of train entries (naming
    the row), or test_ids that do not name each row once.
    """
    doc = read_json(path, MANIFEST, check=_check_manifest)
    return ExpressionStats(
        train_freqs=[t["freq"] for t in doc["train"]], similarity=doc["similarity"],
        **{key: float(doc[key]) for key in ("tau", "a", "b") if key in doc},
        test_ids=doc.get("test_ids"), source=str(path))
