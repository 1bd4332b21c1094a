import json
import math
import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mexfuse.calibration import (
    ExpressionStats,
    load_manifest,
    normalized_weights,
    pseudo_frequency,
    refine,
)
from mexfuse.config import DataFileError
from mexfuse.pipeline import refine_threshold_sort


class TestNormalizedWeights:
    def test_symmetry(self):
        for tau in (0.5, 1.0, 100.0):
            w = normalized_weights([0.5, 0.5], tau)
            assert np.abs(w - 0.5).max() <= 1e-15

    def test_worked_example(self):
        w = normalized_weights([0.02, 0.01], 100.0)
        e = math.e
        assert w[0] == pytest.approx(e / (e + 1), abs=1e-5)
        assert w[1] == pytest.approx(1 / (e + 1), abs=1e-5)

    def test_zero_temperature_uniform(self):
        w = normalized_weights([0.9, -0.3, 0.1, 0.4], 0.0)
        assert np.abs(w - 0.25).max() <= 1e-15

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.uniform(-1, 1, size=rng.integers(1, 20))
            assert abs(normalized_weights(x, 100.0).sum() - 1) <= 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=8)
        assert np.abs(normalized_weights(x, 50.0)
                      - normalized_weights(x + 0.37, 50.0)).max() <= 1e-12

    def test_strictly_monotone(self):
        x = np.array([0.3, -0.2, 0.9, 0.31])
        w = normalized_weights(x, 10.0)
        order_x = np.argsort(x)
        order_w = np.argsort(w)
        assert np.array_equal(order_x, order_w)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None, database=None)
@given(tau=FINITE | st.sampled_from([1e308, -1e308, 0.0]),
       row=st.lists(FINITE, min_size=1, max_size=8))
@example(tau=1e308, row=[10.0, 5.0])
def test_weights_are_finite_and_sum_to_one_at_any_finite_temperature(tau, row):
    # tau * x overflows at such temperatures; the weights must not be NaN
    w = normalized_weights(row, tau)
    assert np.isfinite(w).all()
    assert abs(w.sum() - 1) <= 1e-12


class TestPseudoFrequency:
    def test_constant_frequencies(self):
        w = normalized_weights([0.1, 0.9, -0.4], 5.0)
        assert pseudo_frequency(w, [0.3, 0.3, 0.3]) == pytest.approx(0.3)

    def test_one_hot_weights(self):
        assert pseudo_frequency([0.0, 1.0, 0.0], [0.2, 0.6, 0.1]) == 0.6

    def test_hand_arithmetic(self):
        w = normalized_weights([0.02, 0.01], 100.0)
        assert pseudo_frequency(w, [0.2, 0.6]) == pytest.approx(0.30758, abs=1e-5)

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.uniform(-1, 1, size=6)
            freqs = rng.uniform(0, 1, size=6)
            p = pseudo_frequency(normalized_weights(x, 100.0), freqs)
            assert freqs.min() - 1e-12 <= p <= freqs.max() + 1e-12


class TestRefine:
    def test_paper_constants(self):
        assert refine(0.5, 0.05, 8, -0.1) == 0.8

    def test_identity_configuration(self):
        assert refine(0.37, 0.9, 0, 0) == 0.37

    def test_zero_pseudo_frequency(self):
        assert refine(0.5, 0.0, 8, -0.1) == pytest.approx(0.4)

    def test_preserves_ordering_within_expression(self):
        p = 0.123
        s1, s2 = 0.8, 0.2
        assert refine(s1, p) > refine(s2, p)


class TestExpressionStats:
    def test_refine_via_stats(self):
        stats = ExpressionStats(train_freqs=[0.2, 0.6],
                                similarity=[[0.02, 0.01]], tau=100.0, a=8.0, b=-0.1)
        s_prime, p = stats.refine(0.5, "q0")
        assert p == pytest.approx(0.30758, abs=1e-5)
        assert s_prime == pytest.approx(0.5 + 8 * p - 0.1)

    def test_disabled_is_identity(self):
        # calibration off is no stats: p = 0 and s' = s
        (c,) = refine_threshold_sort([(0, "anything", 0.123456789)], None, 0.0)
        assert c.refined_score == 0.123456789
        assert c.pseudo_freq == 0.0

    def test_manifest_round_trip(self, tmp_path):
        doc = {"train": [{"expr_id": "a", "freq": 0.4}, {"expr_id": "b", "freq": 0.6}],
               "similarity": [[0.1, 0.2], [0.3, 0.4]], "tau": 50.0, "a": 2.0, "b": 0.1,
               "test_ids": ["p0", "p1"]}
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(doc))
        loaded = load_manifest(path)
        assert np.array_equal(loaded.train_freqs, [0.4, 0.6])
        assert np.array_equal(loaded.similarity, doc["similarity"])
        assert (loaded.tau, loaded.a, loaded.b) == (50.0, 2.0, 0.1)
        assert loaded.test_ids == ["p0", "p1"]

    def test_unknown_manifest_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": [], "similarity": [[1.0]], "bogus": 1}))
        with pytest.raises(ValueError, match="bogus"):
            load_manifest(path)

    def test_test_ids_name_every_row(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text(json.dumps({"train": [{"expr_id": "a", "freq": 1.0}],
                                    "similarity": [[0.5]], "test_ids": ["p0", "p1"]}))
        with pytest.raises(DataFileError,
                           match=re.escape(f"{path}: 2 test_ids name 1 similarity rows")):
            load_manifest(path)

    def test_row_of_the_wrong_length_named(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text(json.dumps({"train": [{"expr_id": "a", "freq": 0.5},
                                              {"expr_id": "b", "freq": 0.5}],
                                    "similarity": [[0.5, 0.5], [0.5], [0.5, 0.5]],
                                    "test_ids": ["p0", "p1", "p2"]}))
        with pytest.raises(DataFileError, match=re.escape(
                f"{path}: similarity[1] has length 1; train has 2 entries")):
            load_manifest(path)

    def test_unknown_prompt_in_test_ids(self):
        stats = ExpressionStats(train_freqs=[1.0], similarity=[[0.5]], test_ids=["p0"])
        with pytest.raises(DataFileError, match="'missing' not in test_ids"):
            stats.refine(0.5, "missing")

    def test_several_rows_without_test_ids_refused_at_load(self, tmp_path):
        # which row a prompt reads is named, never taken from its place among the prompts
        path = tmp_path / "cal.json"
        path.write_text(json.dumps({"train": [{"expr_id": "x", "freq": 0.2},
                                              {"expr_id": "y", "freq": 0.6}],
                                    "similarity": [[1.0, 0.0], [0.0, 1.0]]}))
        with pytest.raises(DataFileError,
                           match=re.escape(f"{path}: 2 similarity rows and no test_ids")):
            load_manifest(path)

    def test_repeated_test_ids_refused_at_load(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text(json.dumps({"train": [{"expr_id": "x", "freq": 0.2}],
                                    "similarity": [[1.0], [0.5], [0.0]],
                                    "test_ids": ["p0", "p1", "p1"]}))
        with pytest.raises(DataFileError, match=re.escape(f"{path}: test_ids repeat 'p1'")):
            load_manifest(path)


FINITE = st.floats(-1.0, 1.0)


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_refine_threshold_sort_invariants(data):
    """Over random finite manifests with test_ids and random raw scores: p lies
    within the train frequencies and comes from the row its prompt names; every
    pair comes out once, sorted by (prompt, -s', track), in raw-score order
    within a prompt, kept when s' > threshold; no stats leave s as is, bitwise."""
    n_train, n_test = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    freqs = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n_train, max_size=n_train))
    ids = data.draw(st.permutations([f"p{j}" for j in range(n_test)]), label="test_ids")
    doc = {"train": [{"expr_id": f"e{i}", "freq": f} for i, f in enumerate(freqs)],
           "similarity": data.draw(st.lists(st.lists(FINITE, min_size=n_train,
                                                     max_size=n_train),
                                            min_size=n_test, max_size=n_test)),
           "tau": data.draw(st.floats(0.0, 200.0)), "a": data.draw(st.floats(-10.0, 10.0)),
           "b": data.draw(st.floats(-1.0, 1.0)), "test_ids": ids}
    pairs = data.draw(st.lists(st.tuples(st.integers(0, 5), st.sampled_from(ids)),
                               unique=True, max_size=20), label="pairs")
    raw = [(tid, pid, data.draw(FINITE, label="s")) for tid, pid in pairs]
    threshold = data.draw(st.floats(-3.0, 3.0), label="threshold")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cal.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out = refine_threshold_sort(raw, load_manifest(path), threshold)

    for c in out:
        assert min(freqs) - 1e-12 <= c.pseudo_freq <= max(freqs) + 1e-12
        row = doc["similarity"][ids.index(c.prompt_id)]
        assert c.pseudo_freq == pseudo_frequency(normalized_weights(row, doc["tau"]), freqs)
        assert c.kept == (c.refined_score > threshold)
    assert sorted((c.track_id, c.prompt_id, c.raw_score) for c in out) == sorted(raw)
    key = [(c.prompt_id, -c.refined_score, c.track_id) for c in out]
    assert key == sorted(key)
    for c, d in zip(out, out[1:]):
        if c.prompt_id == d.prompt_id:  # s' ties may put a lower raw score first
            assert c.raw_score >= d.raw_score or c.refined_score == d.refined_score

    def bits(x):
        return struct.pack("<d", x)

    for c in refine_threshold_sort(raw, None, threshold):
        assert bits(c.refined_score) == bits(c.raw_score) and bits(c.pseudo_freq) == bits(0.0)
