"""Tracking-then-referring orchestration at desk scale.

Tracker output is held frozen; every (trajectory, prompt) pair is scored by
the fusion block over a sliding window of frames, calibrated, and filtered
by a strict threshold. Also hosts the synthetic dataset generator that
stands in for the real benchmark data, and the toy training loop.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import calibration, features, fusion, tensor, tensor_io
from .config import check_kind
from .features import EmbedderConfig, ProjectionMLP
from .fusion import FusionParams
from .tensor import (
    DegenerateInputError,
    Linear,
    MomentumSGD,
    Tensor,
    add,
    fresh_context,
    no_grad,
    node,
    reshape,
    scale,
    take,
)


class LookupError_(ValueError):
    pass


class TrainingError(RuntimeError):
    pass


class ModelLoadError(ValueError):
    """A saved model directory that is incomplete or disagrees with its manifest."""


class DataFileError(ValueError):
    """A data file that is missing, unreadable, not JSON or lacks a key; names the file and line."""


@dataclass
class Trajectory:
    track_id: int
    frames: list  # ordered (frame_index, [x, y, w, h])
    entity_id: str

    def __post_init__(self):
        idx = [f for f, _ in self.frames]
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"track {self.track_id}: frame indices not strictly increasing")
        for _, box in self.frames:
            if box[2] <= 0 or box[3] <= 0:
                raise ValueError(f"track {self.track_id}: non-positive box extent {box}")


@dataclass
class ReferringTask:
    prompt_id: str
    text: str
    entity_id: str
    candidates: list


@dataclass
class ScoredCandidate:
    track_id: int
    prompt_id: str
    raw_score: float
    pseudo_freq: float
    refined_score: float
    kept: bool


@dataclass
class TrainSample:
    track_id: int
    prompt_id: str
    frame_indices: list
    match: bool


# ---- the referring model ---------------------------------------------------


class ReferringModel:
    """Frozen synthetic embedders + trainable projection MLPs + fusion block.

    Every trainable ``Linear`` is in one table, ``linears``, keyed by the
    names ``_linear_shapes`` gives; the fusion block and the MLPs use them.
    """

    def __init__(self, embedder: EmbedderConfig, linears, variant="mex", residual_add=False,
                 per_pair=False, concept_of=None):
        self.embedder = embedder
        self.linears = linears
        self.fusion_params = FusionParams(
            variant, embedder.fused_dim,
            {n: linears[f"fusion.{n}"] for n in fusion.linear_names(variant, per_pair)},
            residual_add=residual_add, per_pair=per_pair)
        self.mlp_global, self.mlp_local, self.mlp_prompt = (
            ProjectionMLP(linears[f"{m}.first"], linears[f"{m}.second"]) for m in _MLPS)
        self.concept_of = dict(concept_of or {})

    @classmethod
    def build(cls, embedder: EmbedderConfig, variant="mex", residual_add=False,
              per_pair=False, mlp_hidden=None, seed=0, concept_of=None):
        rng = np.random.default_rng(seed)
        linears = {name: Linear.init(d_in, d_out, rng) for name, (d_in, d_out)
                   in _linear_shapes(embedder, variant, per_pair, mlp_hidden).items()}
        return cls(embedder, linears, variant, residual_add=residual_add, per_pair=per_pair,
                   concept_of=concept_of)

    def parameters(self):
        return [t for name in sorted(self.linears) for t in self.linears[name].parameters()]

    def _raw_shape(self, modality):
        """(s, d_raw) of one entity's raw tokens: at most ``truncate_to`` tokens."""
        s, d = self.embedder.token_shape(modality)
        return min(s, self.embedder.truncate_to or s), d

    def _raw_tokens(self, entities, modality, out=None):
        """Raw tokens of a list of entity ids from the frozen embedder, [n, s, d_raw].

        Each entity's tokens are drawn straight into its row of one buffer:
        ``out``, an [n, s, d_raw] array the caller gives, or a new one. It
        makes no tensor and touches no context, so it may run off the
        calling thread.
        """
        if out is None:
            out = np.empty((len(entities),) + self._raw_shape(modality))
        for row, e in zip(out, entities):
            features.embed_synthetic(e, modality, self.embedder,
                                     concept=self.concept_of.get(e), out=row)
        if not np.isfinite(out).all():
            raise ValueError(f"non-finite {modality} embedding values")
        return out

    def global_terms(self, tokens):
        """Fusion terms of global frames, from raw tokens [..., w, s, d_raw] in one MLP call."""
        return fusion.global_terms(self.fusion_params, self.mlp_global(Tensor(tokens)))

    def prompt_terms(self, tokens):
        """(fusion terms, token means) of prompts, from raw tokens [U, s, d_raw] in one MLP call."""
        fP = self.mlp_prompt(Tensor(tokens))
        return fusion.prompt_terms(self.fusion_params, fP), tensor.mean_axis(fP, axis=-2)

    def forward_window(self, glob, local_tokens, prompts, idx):
        """Raw scores of track windows against the prompts at rows ``idx``, [len(idx)].

        ``glob`` is the windows' ``global_terms``, ``local_tokens`` their raw
        local tokens and ``prompts`` a ``prompt_terms``. The local tokens go
        through the local MLP as one batch, and the per-prompt part runs for
        all the prompts at once, pooled over tokens before the last product.
        Each prompt term is taken as [len(idx), 1, l, d_k]: one window
        ([w, s, d_raw] tokens) meets every prompt; in a batch of windows
        ([len(idx), w, s, d_raw]) window i meets prompt idx[i].
        """
        params = self.fusion_params
        visual = fusion.visual_terms(params, glob, self.mlp_local(Tensor(local_tokens)))
        terms, pooled = prompts

        def taken(t):
            return reshape(take(t, idx), (len(idx), 1) + t.shape[1:])

        # shared mex's one prompt projection is both k and v: take it once
        k = taken(terms["k"])
        v = k if terms["v"] is terms["k"] else taken(terms["v"])
        return fusion.pooled_score(visual, {"k": k, "v": v}, take(pooled, idx))

    def forward_batch(self, tables, windows):
        """Raw scores of a minibatch of windows, as one graph.

        ``tables`` maps each modality to the raw tokens of the training
        entities, one [n, s, d_raw] row per entity; ``windows`` is a list of
        (global frame rows [w], local track rows [w], prompt row) into them.
        The batch's distinct prompts go through ``prompt_terms`` once, and
        the windows of one length go through ``global_terms`` and
        ``forward_window`` as one [n, w, s, d_raw] batch, each window taking
        its prompt's terms by index.

        Returns one (positions, scores) pair per window length: ``scores`` is
        the [n] tensor of the windows at ``positions`` in ``windows``.
        """
        slots = {pr: i for i, pr in enumerate(dict.fromkeys(pr for _, _, pr in windows))}
        prompts = self.prompt_terms(tables[features.PROMPT][list(slots)])
        by_length = {}
        for pos, (frames, _, _) in enumerate(windows):
            by_length.setdefault(len(frames), []).append(pos)
        out = []
        for positions in by_length.values():
            frames, local, prs = zip(*(windows[i] for i in positions))
            glob = self.global_terms(tables[features.GLOBAL_FRAME][np.array(frames)])
            out.append((positions, self.forward_window(
                glob, tables[features.LOCAL_TRACK][np.array(local)], prompts,
                [slots[pr] for pr in prs])))
        return out

    # ---- persistence -------------------------------------------------------

    def save(self, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        names = []
        for name in sorted(self.linears):
            for part, t in zip(("w", "bias"), self.linears[name].parameters()):
                tensor_io.write_tensor(os.path.join(out_dir, f"{name}.{part}.mext"), t.data)
                names.append(f"{name}.{part}")
        manifest = {
            "embedder": asdict(self.embedder),
            "fusion": {
                "variant": self.fusion_params.variant,
                "d_k": self.fusion_params.d_k,
                "residual_add": self.fusion_params.residual_add,
                "per_pair": self.fusion_params.per_pair,
            },
            "mlp_hidden": self.mlp_global.first.d_out,
            "params": names,
            "concept_of": self.concept_of,
        }
        _write_json(os.path.join(out_dir, "params.json"), manifest)

    @classmethod
    def load(cls, in_dir):
        """The model saved in ``in_dir``; its ``Linear``s are built from the ``.mext`` files.

        Raises ModelLoadError, naming the file, for a missing or unreadable
        file, a missing or ill-typed manifest key, a fusion ``d_k`` other
        than the embedder's ``fused_dim``, a ``concept_of`` that maps an
        entity to an unknown concept, or a parameter whose shape disagrees
        with the manifest.
        """
        manifest_path = os.path.join(in_dir, "params.json")
        try:
            with open(manifest_path) as fh:
                manifest = json.load(fh)
            emb = EmbedderConfig(**{**manifest["embedder"],
                                    "concepts": tuple(manifest["embedder"]["concepts"])})
            f = manifest["fusion"]
            if f["d_k"] != emb.fused_dim:
                raise ValueError(f"fusion d_k {f['d_k']!r} is not the embedder's fused_dim "
                                 f"{emb.fused_dim}")
            shapes = _linear_shapes(emb, f["variant"], f["per_pair"], manifest["mlp_hidden"])
            concept_of = manifest["concept_of"]
            if not (isinstance(concept_of, dict)
                    and all(isinstance(c, str) for c in concept_of.values())):
                raise TypeError(f"concept_of must be an object of strings, got {concept_of!r}")
            unknown = sorted(set(concept_of.values()) - set(emb.concepts))
            if unknown:
                raise ValueError(f"concept_of names concept(s) {unknown} not in the "
                                 f"embedder's concepts")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ModelLoadError(f"{manifest_path}: {type(exc).__name__}: {exc}") from None
        linears = {name: Linear(*(Tensor(_read_param(in_dir, f"{name}.{part}", shape),
                                         requires_grad=True)
                                  for part, shape in (("w", (d_in, d_out)), ("bias", (d_out,)))))
                   for name, (d_in, d_out) in shapes.items()}
        return cls(emb, linears, f["variant"], residual_add=f["residual_add"],
                   per_pair=f["per_pair"], concept_of=concept_of)


_MLPS = ("mlp_global", "mlp_local", "mlp_prompt")


def _linear_shapes(embedder: EmbedderConfig, variant, per_pair, mlp_hidden):
    """Each ``Linear``'s name and (d_in, d_out), in initialisation order.

    ``fusion.<name>`` (d_k x d_k) in ``fusion.linear_names`` order, then the
    global, local and prompt MLPs' ``<mlp>.first`` (d_raw -> hidden) and
    ``<mlp>.second`` (hidden -> d_k); ``mlp_hidden`` defaults to d_k.
    """
    d_k = embedder.fused_dim
    hidden = mlp_hidden or d_k
    shapes = {f"fusion.{n}": (d_k, d_k) for n in fusion.linear_names(variant, per_pair)}
    for mlp, d_raw in zip(_MLPS, (embedder.raw_visual_dim, embedder.raw_visual_dim,
                                  embedder.raw_text_dim)):
        shapes[f"{mlp}.first"] = (d_raw, hidden)
        shapes[f"{mlp}.second"] = (hidden, d_k)
    return shapes


def _read_param(in_dir, name, shape):
    path = os.path.join(in_dir, name + ".mext")
    try:
        arr = tensor_io.read_tensor(path)
    except FileNotFoundError:
        raise ModelLoadError(f"{path}: parameter file missing") from None
    except tensor_io.TensorFileError as exc:  # its message names the file
        raise ModelLoadError(str(exc)) from None
    except OSError as exc:  # strerror: str(exc) may name the file again
        raise ModelLoadError(f"{path}: {exc.strerror or exc}") from None
    if arr.shape != tuple(shape):
        raise ModelLoadError(f"{path}: shape {arr.shape}, the manifest needs {tuple(shape)}")
    return arr


# ---- scoring and filtering -------------------------------------------------


def frame_entity(frame_index):
    return f"frame-{frame_index}"


def local_entity(track_entity, frame_index):
    return f"{track_entity}@{frame_index}"


def _window_frames(traj: Trajectory, window):
    if window < 1:
        raise DegenerateInputError(f"window must be >= 1, got {window}")
    if not traj.frames:
        raise DegenerateInputError(f"track {traj.track_id} has no frames")
    return [f for f, _ in traj.frames[-window:]]


def score_all(trajectories, tasks, model: ReferringModel, window, stats=None,
              threshold=0.0):
    """Score every (candidate trajectory, prompt) pair. Deterministic given seeds.

    The prompts are projected and their fusion terms computed once for the
    pass, and each distinct window of global frames once. Pairs are grouped
    by track: each track window is scored against all its prompts in one
    ``forward_window`` call.

    The frozen embedder runs one track window ahead on one worker thread:
    while a window goes through the local MLP and the fusion block here,
    the worker draws the next window's raw local tokens into the other of
    two buffers. The worker only fills those buffers; every tensor, and so
    every ledger charge, is made on the calling thread. Inputs are checked
    and the prompts projected before the worker starts, a draw's error is
    raised here in window order, and the worker is joined before this
    returns or raises.
    """
    by_id = {t.track_id: t for t in trajectories}
    by_track = {}
    for task in sorted(tasks, key=lambda t: t.prompt_id):
        if not task.candidates:
            raise DegenerateInputError(f"task {task.prompt_id} has no candidates")
        for tid in task.candidates:
            if tid not in by_id:
                raise LookupError_(f"unknown track_id {tid} in task {task.prompt_id}")
            by_track.setdefault(tid, []).append(task)
    windows = [(tid, jobs, _window_frames(by_id[tid], window))
               for tid, jobs in by_track.items()]

    def draw(k):
        """The worker's job: window k's raw local tokens, into its buffer."""
        tid, _, idx = windows[k]
        return model._raw_tokens([local_entity(by_id[tid].entity_id, i) for i in idx],
                                 features.LOCAL_TRACK, out=buffers[k % 2][:len(idx)])

    raw = []
    with no_grad():
        slots = {e: i for i, e in enumerate(dict.fromkeys(t.entity_id for t in tasks))}
        prompts = model.prompt_terms(model._raw_tokens(list(slots), features.PROMPT))
        # made after the prompt projection has freed its arrays: made before
        # it, they raise a paper-dims score's peak RSS by about 1 MB more
        rows = max((len(idx) for _, _, idx in windows), default=0)
        buffers = [np.empty((rows,) + model._raw_shape(features.LOCAL_TRACK)) for _ in range(2)]
        # leaving the block waits for the draw in flight
        with ThreadPoolExecutor(1, thread_name_prefix="mexfuse-embedder") as worker:
            ahead = worker.submit(draw, 0) if windows else None
            glob = {}
            for k, (tid, jobs, idx) in enumerate(windows):
                local = ahead.result()  # raises a failed draw here, in window order
                frames = tuple(frame_entity(i) for i in idx)
                if frames not in glob:
                    glob[frames] = model.global_terms(
                        model._raw_tokens(frames, features.GLOBAL_FRAME))
                # window k-1's buffer is free again: the worker draws window k+1
                # into it, after a global projection so that the two do not add up
                # at the pass's peak memory
                if k + 1 < len(windows):
                    ahead = worker.submit(draw, k + 1)
                scores = model.forward_window(glob[frames], local, prompts,
                                              [slots[task.entity_id] for task in jobs])
                raw.extend((tid, task.prompt_id, float(s)) for task, s in zip(jobs, scores.data))
    return refine_threshold_sort(raw, stats or calibration.disabled_stats(), threshold)


def refine_threshold_sort(raw, stats, threshold):
    """Calibrated candidates from raw (track_id, prompt_id, score) triples.

    Each score is refined with ``stats``, kept when the refined score is
    strictly above ``threshold``, and the candidates are sorted by prompt,
    refined score (descending) and track. A prompt's fallback row in
    ``stats`` is its rank among the sorted distinct prompt ids. ``score_all``
    and the ``calibrate`` command both go through here.
    """
    rank = {pid: j for j, pid in enumerate(sorted({pid for _, pid, _ in raw}))}
    out = []
    for tid, pid, s in raw:
        s_prime, p = stats.refine(s, pid, fallback_index=rank[pid])
        out.append(ScoredCandidate(track_id=tid, prompt_id=pid, raw_score=s, pseudo_freq=p,
                                   refined_score=s_prime, kept=s_prime > threshold))
    out.sort(key=lambda c: (c.prompt_id, -c.refined_score, c.track_id))
    return out


# ---- training --------------------------------------------------------------


def _loss_sum(scores, match, neg_margin):
    """Sum over windows of the cosine objective: 1 - s for a match, relu(s - margin) otherwise.

    ``scores`` is an [n] tensor, ``match`` n booleans. One graph node:
    sum(m(1 - s) + (1 - m) relu(s - margin)), whose gradient with respect
    to s is (1 - m)[s > margin] - m.
    """
    s = scores.data
    m = np.asarray(match, dtype=s.dtype)
    over = s - neg_margin
    above = over > 0
    total = (m * (1.0 - s) + (1.0 - m) * np.where(above, over, 0.0)).sum()

    def bwd(g):
        if scores.requires_grad:
            scores._accumulate(float(g) * ((1.0 - m) * above - m))

    return node(np.asarray(total), (scores,), bwd)


def train(samples, trajectories, tasks, model: ReferringModel, epochs=100,
          batch_size=8, lr=1e-5, momentum=1e-5, neg_margin=0.0, seed=0,
          log=None):
    """SGD with momentum on the cosine objective; embedders stay frozen.

    Each minibatch is one graph (``ReferringModel.forward_batch``) with one
    backward pass; its loss is the mean over its windows. Returns the
    per-epoch mean loss curve. ``log``, when given, is called after each
    epoch with a dict: epoch, mean_loss, wall_s (the epoch's wall time) and
    batches.
    """
    if not samples:
        raise DegenerateInputError("empty training dataset")
    by_track = {t.track_id: t for t in trajectories}
    by_prompt = {t.prompt_id: t for t in tasks}
    # each distinct entity is embedded once, into one table per modality;
    # a window is its rows in those tables
    rows = {m: {} for m in features.MODALITIES}

    def row(entity, modality):
        return rows[modality].setdefault(entity, len(rows[modality]))

    windows = []
    for k, smp in enumerate(samples):
        if smp.track_id not in by_track:
            raise LookupError_(f"unknown track_id {smp.track_id} in training window {k}")
        if smp.prompt_id not in by_prompt:
            raise LookupError_(f"unknown prompt_id {smp.prompt_id} in training window {k}")
        if not smp.frame_indices:
            raise DegenerateInputError(f"training window {k} has no frames")
        ent = by_track[smp.track_id].entity_id
        windows.append((
            np.array([row(frame_entity(i), features.GLOBAL_FRAME) for i in smp.frame_indices]),
            np.array([row(local_entity(ent, i), features.LOCAL_TRACK)
                      for i in smp.frame_indices]),
            row(by_prompt[smp.prompt_id].entity_id, features.PROMPT)))
    tables = {m: model._raw_tokens(list(ents), m) for m, ents in rows.items()}
    match = np.array([smp.match for smp in samples])
    # the parameters become views into one buffer, updated as a whole
    optimizer = MomentumSGD(model.parameters(), lr, momentum)
    order_rng = np.random.default_rng(seed)
    curve = []
    for epoch in range(epochs):
        t0 = time.perf_counter()
        order = order_rng.permutation(len(samples))
        total = 0.0
        for start in range(0, len(order), batch_size):
            batch = order[start:start + batch_size]
            with fresh_context():
                batch_loss = None
                for positions, scores in model.forward_batch(tables,
                                                             [windows[i] for i in batch]):
                    part = _loss_sum(scores, match[batch[positions]], neg_margin)
                    batch_loss = part if batch_loss is None else add(batch_loss, part)
                batch_loss = scale(batch_loss, 1.0 / len(batch))
                val = batch_loss.item()
                if not np.isfinite(val):
                    raise TrainingError(
                        f"non-finite loss {val} at epoch {epoch}, batch start {start}")
                total += val * len(batch)
                batch_loss.backward()
            optimizer.step()
        curve.append(total / len(samples))
        if log is not None:
            log({"epoch": epoch, "mean_loss": curve[-1],
                 "wall_s": time.perf_counter() - t0,
                 "batches": len(range(0, len(order), batch_size))})
    return curve


# ---- synthetic dataset -----------------------------------------------------


@dataclass
class DatasetConfig:
    seed: int = 0
    n_concepts: int = 4
    n_tracks: int = 10
    n_prompts: int = 4
    n_frames: int = 12
    n_windows: int = 32
    window: int = 4


def generate_synthetic_dataset(cfg: DatasetConfig):
    """Deterministic toy referring dataset; prompts link to >= 1 matching track."""
    for name in ("n_concepts", "n_tracks", "n_prompts", "n_frames", "n_windows", "window"):
        if getattr(cfg, name) <= 0:
            raise DegenerateInputError(f"{name} must be positive")
    rng = np.random.default_rng(cfg.seed)
    concepts = [f"concept-{i}" for i in range(cfg.n_concepts)]
    trajectories, manifest = [], []
    for i in range(cfg.n_tracks):
        concept = concepts[i % cfg.n_concepts]
        ent = f"track-{i}"
        boxes = []
        x, y = rng.uniform(0, 600, size=2)
        for f in range(cfg.n_frames):
            x += rng.uniform(-5, 5)
            y += rng.uniform(-5, 5)
            w, h = rng.uniform(20, 80, size=2)
            boxes.append((f, [round(float(v), 3) for v in (x, y, w, h)]))
        trajectories.append(Trajectory(track_id=i, frames=boxes, entity_id=ent))
        manifest.append({"entity_id": ent, "modality": features.LOCAL_TRACK,
                         "concept": concept})
        for f in range(cfg.n_frames):
            manifest.append({"entity_id": local_entity(ent, f),
                             "modality": features.LOCAL_TRACK, "concept": concept})
    tasks = []
    for j in range(cfg.n_prompts):
        concept = concepts[j % cfg.n_concepts]
        ent = f"prompt-{j}"
        tasks.append(ReferringTask(prompt_id=f"p{j:03d}", text=f"objects of {concept}",
                                   entity_id=ent, candidates=list(range(cfg.n_tracks))))
        manifest.append({"entity_id": ent, "modality": features.PROMPT, "concept": concept})

    concept_by_track = {t.track_id: concepts[t.track_id % cfg.n_concepts]
                        for t in trajectories}
    concept_by_prompt = {t.prompt_id: concepts[int(t.prompt_id[1:]) % cfg.n_concepts]
                         for t in tasks}
    labels = [{"prompt_id": t.prompt_id, "track_id": tr.track_id,
               "match": concept_by_prompt[t.prompt_id] == concept_by_track[tr.track_id]}
              for t in tasks for tr in trajectories]

    # cycle through every (prompt, track-concept) pairing so the training set
    # covers all concept combinations before repeating any
    samples = []
    for w in range(cfg.n_windows):
        prompt = tasks[w % cfg.n_prompts]
        concept = concepts[(w // cfg.n_prompts) % cfg.n_concepts]
        pool = [tr for tr in trajectories if concept_by_track[tr.track_id] == concept]
        traj = pool[int(rng.integers(len(pool)))]
        start = int(rng.integers(0, cfg.n_frames - cfg.window + 1))
        samples.append(TrainSample(
            track_id=traj.track_id, prompt_id=prompt.prompt_id,
            frame_indices=list(range(start, start + cfg.window)),
            match=concept == concept_by_prompt[prompt.prompt_id]))
    return {
        "trajectories": trajectories,
        "tasks": tasks,
        "labels": labels,
        "samples": samples,
        "concepts": concepts,
        "manifest": manifest,
    }


# ---- JSON and JSON-lines I/O -----------------------------------------------


def _write_json(path, doc):
    """One JSON document: indented by 2, keys sorted, a trailing newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_jsonl(path, records):
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r, sort_keys=True) + "\n")


def _read_jsonl(path, fields, check=None):
    """The records of a JSON-lines file; each line is a JSON object holding ``fields``.

    ``fields`` maps each key a record requires to its kind (``config.KINDS``).
    ``check``, when given, is called on each record whose fields are of
    their kinds, and raises ValueError, TypeError or IndexError for a bad one.

    Raises DataFileError naming the file for a missing or unreadable file,
    and the file and line for a line that is not a JSON object, lacks a key,
    holds a field not of its kind or fails ``check``.
    """
    out = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataFileError(f"{path}:{lineno}: not valid JSON ({exc})") from None
                if not isinstance(rec, dict):
                    raise DataFileError(f"{path}:{lineno}: not a JSON object")
                missing = [k for k in fields if k not in rec]
                if missing:
                    raise DataFileError(f"{path}:{lineno}: missing key(s) {missing}")
                try:
                    for key, kind in fields.items():
                        check_kind(kind, rec[key], key)
                    if check is not None:
                        check(rec)
                except (ValueError, TypeError, IndexError) as exc:
                    raise DataFileError(f"{path}:{lineno}: {exc}") from None
                out.append(rec)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFileError(f"{path}: cannot read ({exc})") from None
    return out


def save_dataset(out_dir, data, cfg: DatasetConfig):
    os.makedirs(out_dir, exist_ok=True)
    _write_jsonl(os.path.join(out_dir, "trajectories.jsonl"),
                 [{"track_id": t.track_id, "frame": f, "box": box, "entity_id": t.entity_id}
                  for t in data["trajectories"] for f, box in t.frames])
    _write_jsonl(os.path.join(out_dir, "tasks.jsonl"),
                 [{"prompt_id": t.prompt_id, "text": t.text, "entity_id": t.entity_id,
                   "candidates": t.candidates} for t in data["tasks"]])
    _write_jsonl(os.path.join(out_dir, "labels.jsonl"), data["labels"])
    _write_jsonl(os.path.join(out_dir, "windows.jsonl"),
                 [{"track_id": s.track_id, "prompt_id": s.prompt_id,
                   "frames": s.frame_indices, "match": s.match} for s in data["samples"]])
    _write_jsonl(os.path.join(out_dir, "concepts.jsonl"), data["manifest"])
    _write_json(os.path.join(out_dir, "meta.json"),
                {"seed": cfg.seed, "n_concepts": cfg.n_concepts, "n_tracks": cfg.n_tracks,
                 "n_prompts": cfg.n_prompts, "n_frames": cfg.n_frames,
                 "n_windows": cfg.n_windows, "window": cfg.window,
                 "concepts": data["concepts"]})


def load_dataset(in_dir):
    """The dataset ``save_dataset`` wrote to ``in_dir``.

    Raises DataFileError naming the file, and the line where there is one,
    for a missing or unreadable file, a line that is not a JSON object, a
    missing key or a field not of its kind (README "File formats"), a
    trajectory row with a box extent <= 0 or a frame its track already has,
    a task candidate that is not a track, a window row whose track or
    prompt is unknown or whose frames are not that track's, or a concepts
    row whose concept is not in meta.json's list of concept names.
    """
    by_track = {}

    def add_box(r):
        frames = by_track.setdefault((r["track_id"], r["entity_id"]), {})
        if r["frame"] in frames:
            raise ValueError(f"track {r['track_id']}: frame {r['frame']} listed twice")
        Trajectory(track_id=r["track_id"], frames=[(r["frame"], r["box"])],
                   entity_id=r["entity_id"])  # checks the box
        frames[r["frame"]] = r["box"]

    _read_jsonl(os.path.join(in_dir, "trajectories.jsonl"),
                {"track_id": "int", "frame": "int", "box": "box", "entity_id": "str"},
                check=add_box)
    trajectories = [Trajectory(track_id=tid, frames=sorted(frames.items()), entity_id=ent)
                    for (tid, ent), frames in sorted(by_track.items())]
    frames_of = {}
    for t in trajectories:
        frames_of.setdefault(t.track_id, set()).update(f for f, _ in t.frames)

    def check_task(r):
        unknown = [tid for tid in r["candidates"] if tid not in frames_of]
        if unknown:
            raise ValueError(f"unknown track_id {unknown[0]} in candidates")

    tasks = [ReferringTask(prompt_id=r["prompt_id"], text=r["text"],
                           entity_id=r["entity_id"], candidates=r["candidates"])
             for r in _read_jsonl(os.path.join(in_dir, "tasks.jsonl"),
                                  {"prompt_id": "str", "text": "str", "entity_id": "str",
                                   "candidates": "track ids"}, check=check_task)]
    labels = _read_jsonl(os.path.join(in_dir, "labels.jsonl"),
                         {"prompt_id": "str", "track_id": "int", "match": "bool"})
    prompt_ids = {t.prompt_id for t in tasks}

    def check_window(r):
        tid = r["track_id"]
        if tid not in frames_of:
            raise ValueError(f"unknown track_id {tid}")
        if r["prompt_id"] not in prompt_ids:
            raise ValueError(f"unknown prompt_id {r['prompt_id']}")
        missing = [i for i in r["frames"] if i not in frames_of[tid]]
        if missing:
            raise ValueError(f"track {tid} has no frame(s) {missing}")

    samples = [TrainSample(track_id=r["track_id"], prompt_id=r["prompt_id"],
                           frame_indices=r["frames"], match=r["match"])
               for r in _read_jsonl(os.path.join(in_dir, "windows.jsonl"),
                                    {"track_id": "int", "prompt_id": "str", "frames": "frames",
                                     "match": "bool"}, check=check_window)]
    meta_path = os.path.join(in_dir, "meta.json")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DataFileError(f"{meta_path}: cannot read ({exc})") from None
    if not isinstance(meta, dict) or "concepts" not in meta:
        raise DataFileError(f"{meta_path}: missing key 'concepts'")
    concepts = meta["concepts"]
    if not isinstance(concepts, list) or any(type(c) is not str for c in concepts):
        raise DataFileError(f"{meta_path}: 'concepts' must be a list of strings, got {concepts!r}")

    def check_concept(r):
        if r["concept"] not in concepts:
            raise ValueError(f"concept {r['concept']!r} is not in {meta_path}'s concepts")

    manifest = _read_jsonl(os.path.join(in_dir, "concepts.jsonl"),
                           {"entity_id": "str", "concept": "str"}, check=check_concept)
    return {"trajectories": trajectories, "tasks": tasks, "labels": labels,
            "samples": samples, "manifest": manifest, "meta": meta}


def concept_map(manifest):
    return {e["entity_id"]: e["concept"] for e in manifest}


def write_scores(path, candidates):
    _write_jsonl(path, [{"prompt_id": c.prompt_id, "track_id": c.track_id,
                         "s": c.raw_score, "p": c.pseudo_freq,
                         "s_prime": c.refined_score, "kept": c.kept}
                        for c in candidates])


def read_scores(path):
    """The candidates ``write_scores`` wrote to ``path``.

    Raises DataFileError naming the file and line, as ``_read_jsonl`` does.
    """
    return [ScoredCandidate(track_id=r["track_id"], prompt_id=r["prompt_id"],
                            raw_score=r["s"], pseudo_freq=r["p"],
                            refined_score=r["s_prime"], kept=r["kept"])
            for r in _read_jsonl(path, {"track_id": "int", "prompt_id": "str", "s": "number",
                                        "p": "number", "s_prime": "number", "kept": "bool"})]


def precision_recall(candidates, labels):
    """Kept-vs-label precision and recall over (prompt, track) pairs.

    A labelled match that was never scored counts as a false negative; a
    kept pair without a label counts as a false positive.
    """
    matches = {(l["prompt_id"], l["track_id"]) for l in labels if l["match"]}
    kept = {(c.prompt_id, c.track_id) for c in candidates if c.kept}
    tp = len(kept & matches)
    fp = len(kept - matches)
    fn = len(matches - kept)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall
