"""Output checks, one per workload, computed independently of the program.

Each check reads the files a workload's commands wrote and returns a list
of error strings; an empty list means the outputs are correct.  The score
and calibration formulas are evaluated here again in straight numpy.  Only
the synthetic feature provider (``features.embed_synthetic``) and the
entity naming helpers are taken from the program, since they define the
inputs rather than compute the outputs.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

SAMPLED_PAIRS = 8
SCORE_TOL = 1e-9
CALIBRATION_TOL = 1e-12


def _read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _pseudo_frequencies(manifest, tau):
    """Prompt id -> softmax(tau * similarity row) . train frequencies."""
    freqs = np.array([t["freq"] for t in manifest["train"]], dtype=np.float64)
    out = {}
    for prompt_id, row in zip(manifest["test_ids"], manifest["similarity"]):
        z = tau * np.asarray(row, dtype=np.float64)
        w = np.exp(z - z.max())
        out[prompt_id] = float((w / w.sum()) @ freqs)
    return out


def _score_rows(rows, threshold, errors, what):
    """Checks every scores file shares: finite, kept iff s' > threshold, sorted."""
    for i, r in enumerate(rows):
        if not all(math.isfinite(r[k]) for k in ("s", "p", "s_prime")):
            errors.append(f"{what} row {i}: non-finite value {r}")
        elif r["kept"] != (r["s_prime"] > threshold):
            errors.append(f"{what} row {i}: kept={r['kept']} but s'={r['s_prime']}")
    order = [(r["prompt_id"], -r["s_prime"], r["track_id"]) for r in rows]
    if order != sorted(order):
        errors.append(f"{what}: rows not sorted by (prompt_id, -s', track_id)")


def check_toy_train(ws, cfg):
    errors = []
    rows = _read_jsonl(os.path.join(ws, "scores.jsonl"))
    ds = cfg["dataset"]
    if len(rows) != ds["n_tracks"] * ds["n_prompts"]:
        errors.append(f"toy-train: {len(rows)} score rows")
    _score_rows(rows, cfg["pipeline"].get("threshold", 0.0), errors, "toy-train")
    truth = {(r["prompt_id"], r["track_id"]): r["match"]
             for r in _read_jsonl(os.path.join(ws, "dataset", "labels.jsonl"))}
    kept = {(r["prompt_id"], r["track_id"]) for r in rows if r["kept"]}
    matches = {k for k, match in truth.items() if match}
    if kept != matches:
        errors.append(f"toy-train: precision/recall below 1.0: {len(kept - matches)} false "
                      f"positives, {len(matches - kept)} false negatives")
    curve = _read_json(os.path.join(ws, "loss_curve.json"))["epoch_mean_loss"]
    if len(curve) != cfg["pipeline"]["epochs"] or not all(math.isfinite(v) for v in curve):
        errors.append(f"toy-train: loss curve has {len(curve)} values or a non-finite one")
    elif not curve[-1] < curve[0]:
        errors.append(f"toy-train: final loss {curve[-1]} not below initial {curve[0]}")
    return errors


def _read_mext(path):
    """Independent reader of the program's MEXT tensor files."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"MEXT":
        raise ValueError(f"{path}: not a MEXT file")
    _version, code, rank = struct.unpack_from("<HBB", raw, 4)
    shape = struct.unpack_from(f"<{rank}Q", raw, 8)
    dtype = {0: "<f8", 1: "<f4"}[code]
    return np.frombuffer(raw, dtype, offset=8 + 8 * rank).reshape(shape).astype(np.float64)


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))


def _softmax_rows(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class _NumpyMex:
    """Straight-numpy forward of a saved mex model with shared projections."""

    def __init__(self, model_dir, concept_of):
        from mexfuse import features

        self.features = features
        params = _read_json(os.path.join(model_dir, "params.json"))
        fusion = params["fusion"]
        if fusion["variant"] != "mex" or fusion["per_pair"] or fusion["residual_add"]:
            raise ValueError(f"numpy reference covers shared-projection mex only: {fusion}")
        self.w = {name: _read_mext(os.path.join(model_dir, name + ".mext"))
                  for name in params["params"]}
        emb = params["embedder"]
        self.embedder = features.EmbedderConfig(**{**emb, "concepts": tuple(emb["concepts"])})
        self.concept_of = concept_of
        self.d_k = fusion["d_k"]

    def _linear(self, x, name):
        return x @ self.w[name + ".w"] + self.w[name + ".bias"]

    def _tokens(self, entity, modality, mlp):
        f = self.features.embed_synthetic(entity, modality, self.embedder,
                                          concept=self.concept_of.get(entity))
        x = f.tokens[0]
        if self.embedder.truncate_to is not None:
            x = x[:self.embedder.truncate_to]
        return self._linear(_gelu(self._linear(x, mlp + ".first")), mlp + ".second")

    def score(self, frame_entities, local_entities, prompt_entity):
        f = self.features
        inv = 1.0 / math.sqrt(self.d_k)
        fp = self._tokens(prompt_entity, f.PROMPT, "mlp_prompt")
        proj_p = self._linear(fp, "fusion.proj_p")
        per_frame = []
        for fe, le in zip(frame_entities, local_entities):
            q = self._linear(self._tokens(fe, f.GLOBAL_FRAME, "mlp_global"), "fusion.proj_i")
            t = self._linear(self._tokens(le, f.LOCAL_TRACK, "mlp_local"), "fusion.proj_t")
            p_it = _softmax_rows(q @ t.T * inv)
            p_tp = _softmax_rows(t @ proj_p.T * inv)
            per_frame.append(p_it @ t + (p_it @ p_tp) @ proj_p)
        pooled = np.stack(per_frame).mean(axis=1).max(axis=0)
        prompt = fp.mean(axis=0)
        c = float(pooled @ prompt) / (np.linalg.norm(pooled) * np.linalg.norm(prompt))
        return min(1.0, max(-1.0, c))


def check_paper_score(ws, cfg, seed):
    from mexfuse.pipeline import frame_entity, local_entity

    errors = []
    ds = cfg["dataset"]
    rows = _read_jsonl(os.path.join(ws, "scores.jsonl"))
    if len(rows) != ds["n_tracks"] * ds["n_prompts"]:
        errors.append(f"paper-score: {len(rows)} score rows")
    for i, r in enumerate(rows):
        if not -1.0 <= r["s"] <= 1.0:
            errors.append(f"paper-score row {i}: raw score {r['s']} outside [-1, 1]")
    _score_rows(rows, cfg["pipeline"]["threshold"], errors, "paper-score")
    if errors:
        return errors

    data_dir = os.path.join(ws, "dataset")
    concept_of = {e["entity_id"]: e["concept"]
                  for e in _read_jsonl(os.path.join(data_dir, "concepts.jsonl"))}
    frames, track_entity = {}, {}
    for r in _read_jsonl(os.path.join(data_dir, "trajectories.jsonl")):
        frames.setdefault(r["track_id"], []).append(r["frame"])
        track_entity[r["track_id"]] = r["entity_id"]
    prompt_entity = {r["prompt_id"]: r["entity_id"]
                     for r in _read_jsonl(os.path.join(data_dir, "tasks.jsonl"))}
    cal = cfg["calibration"]
    pseudo = _pseudo_frequencies(_read_json(os.path.join(ws, "calibration.json")), cal["tau"])
    model = _NumpyMex(os.path.join(ws, "model"), concept_of)
    window = cfg["pipeline"]["window"]
    rng = np.random.default_rng([seed, 3])
    for i in sorted(rng.choice(len(rows), min(SAMPLED_PAIRS, len(rows)), replace=False).tolist()):
        r = rows[i]
        idx = sorted(frames[r["track_id"]])[-window:]
        s = model.score([frame_entity(k) for k in idx],
                        [local_entity(track_entity[r["track_id"]], k) for k in idx],
                        prompt_entity[r["prompt_id"]])
        s_prime = s + cal["a"] * pseudo[r["prompt_id"]] + cal["b"]
        if abs(s - r["s"]) > SCORE_TOL or abs(s_prime - r["s_prime"]) > SCORE_TOL:
            errors.append(f"paper-score row {i}: (s, s') = ({r['s']}, {r['s_prime']}), "
                          f"numpy reference gives ({s}, {s_prime})")
    return errors


def check_rescore(ws, cfg, spec):
    errors = []
    inputs = _read_jsonl(os.path.join(ws, "scores.jsonl"))
    rows = _read_jsonl(os.path.join(ws, "scores_calibrated.jsonl"))
    if len(rows) != len(inputs):
        errors.append(f"rescore: {len(rows)} rows out for {len(inputs)} in")
    raw = {(r["prompt_id"], r["track_id"]): r["s"] for r in inputs}
    pseudo = _pseudo_frequencies(_read_json(os.path.join(ws, "calibration.json")), spec["tau"])
    seen = set()
    for i, r in enumerate(rows):
        key = (r["prompt_id"], r["track_id"])
        if key not in raw or key in seen or r["s"] != raw[key]:
            errors.append(f"rescore row {i}: {key} is not an input row, or repeated or changed")
            break
        seen.add(key)
        p = pseudo[r["prompt_id"]]
        if (abs(r["p"] - p) > CALIBRATION_TOL
                or abs(r["s_prime"] - (r["s"] + spec["a"] * p + spec["b"])) > CALIBRATION_TOL):
            errors.append(f"rescore row {i}: (p, s') = ({r['p']}, {r['s_prime']}), "
                          f"expected p = {p}")
            break
    _score_rows(rows, cfg["pipeline"]["threshold"], errors, "rescore")
    return errors


def check(workload, ws, cfg, seed):
    """Errors (at most 20) in the outputs a workload's commands left in ``ws``."""
    try:
        if workload.name == "toy-train":
            errors = check_toy_train(ws, cfg)
        elif workload.name == "paper-score":
            errors = check_paper_score(ws, cfg, seed)
        else:
            errors = check_rescore(ws, cfg, workload.spec)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        errors = [f"{workload.name}: outputs unreadable: {type(exc).__name__}: {exc}"]
    return errors[:20]
