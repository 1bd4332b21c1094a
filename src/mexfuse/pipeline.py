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

from . import features, fusion, tensor, tensor_io
from .config import DataFileError, cannot_read, check_record, read_json
from .features import EmbedderConfig, ProjectionMLP
from .fusion import FusionParams
from .tensor import (
    DegenerateInputError,
    Linear,
    MomentumSGD,
    Tensor,
    add,
    fresh_context,
    node,
    take,
)


class TrainingError(RuntimeError):
    pass


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
    ``streams`` are the modalities some projection reads (plain reads no
    global frame), and ``mlps`` holds the projection MLP of each of them.
    A form made for the stages of a scoring pass (``scoring_form``,
    ``stage_form``) holds only the ``Linear``s those stages read.
    """

    def __init__(self, embedder: EmbedderConfig, linears, variant="mex", residual_add=False,
                 per_pair=False, concept_of=None):
        self.embedder = embedder
        self.linears = linears
        self.fusion_params = FusionParams(
            variant, embedder.fused_dim,
            {n: linears[f"fusion.{n}"] for n in fusion.linear_names(variant, per_pair)
             if f"fusion.{n}" in linears},
            residual_add=residual_add, per_pair=per_pair)
        self.streams = fusion.streams(variant, per_pair)
        self.mlps = {m: ProjectionMLP(linears[f"{_MLPS[m]}.first"],
                                      linears.get(f"{_MLPS[m]}.second"))
                     for m in self.streams if f"{_MLPS[m]}.first" in linears}
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

    def scoring_form(self):
        """This model re-parameterised for a pass without gradients: a new model
        whose ``Linear``s are constants, charged nothing, over the same arrays,
        without the local MLP's last layer ``second``. Each projection that
        reads that layer's output is, under its own name, the one affine map
        ``second.then(proj)``, since nothing nonlinear lies between them: a
        window's MLP stops at its hidden rows, and the fusion terms apply each
        map to them as training applies the projections. No pass through this
        form, or a ``stage_form`` of it, records a graph, whoever calls it;
        this model is left as it was.
        """
        fp = self.fusion_params
        second = self.linears["mlp_local.second"]
        composed = {f"fusion.{n}" for n in fusion.reads(fp, features.LOCAL_TRACK)}
        linears = {n: second.then(lin) if n in composed else
                   Linear(*(node(t.data, (), None, charge=0) for t in lin.parameters()))
                   for n, lin in self.linears.items() if n != "mlp_local.second"}
        return ReferringModel(self.embedder, linears, fp.variant, residual_add=fp.residual_add,
                              per_pair=fp.per_pair, concept_of=self.concept_of)

    def stage_form(self, *streams):
        """This scoring form cut to what the stages of ``streams`` (modalities)
        read, as a new model: each one's MLP and the projections that
        ``fusion.stage_reads`` gives. It holds no other ``Linear``."""
        fp = self.fusion_params
        names = set()
        for m in streams:
            names |= {f"{_MLPS[m]}.first", f"{_MLPS[m]}.second"}
            names |= {f"fusion.{n}" for n in fusion.stage_reads(fp, m)}
        return ReferringModel(self.embedder,
                              {n: lin for n, lin in self.linears.items() if n in names},
                              fp.variant, residual_add=fp.residual_add, per_pair=fp.per_pair,
                              concept_of=self.concept_of)

    def global_terms(self, tokens):
        """Fusion terms of global frames, from raw tokens [..., w, s, d_raw] in one MLP call."""
        return fusion.global_terms(self.fusion_params,
                                   self.mlps[features.GLOBAL_FRAME](Tensor(tokens)))

    def prompt_terms(self, tokens):
        """(fusion terms, token means) of prompts, from raw tokens [U, s, d_raw] in one MLP call."""
        fP = self.mlps[features.PROMPT](Tensor(tokens))
        return fusion.prompt_terms(self.fusion_params, fP), tensor.mean_axis(fP, axis=-2)

    def forward_window(self, glob, local_tokens, prompts, idx):
        """Raw scores of track windows against the prompts at rows ``idx``, [len(idx)].

        ``glob`` is the windows' ``global_terms``, ``local_tokens`` their raw
        local tokens and ``prompts`` a ``prompt_terms``. The local tokens go
        through the local MLP (up to its hidden activations, in a
        ``scoring_form``) as one batch, and the per-prompt part runs for all
        the prompts at once, pooled over tokens before the last product.
        Each prompt term is taken as [len(idx), 1, ...]: one window
        ([w, s, d_raw] tokens) meets every prompt; in a batch of windows
        ([len(idx), w, s, d_raw]) window i meets prompt idx[i].
        """
        fL = self.mlps[features.LOCAL_TRACK](Tensor(local_tokens))
        visual = fusion.visual_terms(self.fusion_params, glob, fL)
        terms, pooled = prompts
        # each distinct term taken once: shared mex's one prompt projection is both k and v
        rows = np.asarray(idx, dtype=np.intp)[:, None]
        distinct = {id(t): t for t in terms.values()}
        taken = {key: take(t, rows) for key, t in distinct.items()}
        prompt = {role: taken[id(t)] for role, t in terms.items()}
        return fusion.pooled_score(self.fusion_params, visual, prompt, take(pooled, idx))

    def batch_loss(self, tables, windows, match, neg_margin):
        """The mean training loss of a minibatch of windows, as one graph.

        ``tables`` maps each of the model's ``streams`` to the raw tokens of
        the training entities, one [n, s, d_raw] row per entity; ``windows``
        is a list of (global frame rows [w], local track rows [w], prompt
        row) into them, and ``match`` one boolean per window.
        The batch's distinct prompts go through ``prompt_terms`` once, and
        the windows of one length go through ``global_terms`` and
        ``forward_window`` as one [n, w, s, d_raw] batch, each window taking
        its prompt's terms by index. Each length's ``_loss_sum``, weighted
        by 1/len(windows), is added into the loss.
        """
        slots = {pr: i for i, pr in enumerate(dict.fromkeys(pr for _, _, pr in windows))}
        prompts = self.prompt_terms(tables[features.PROMPT][list(slots)])
        by_length = {}
        for pos, (frames, _, _) in enumerate(windows):
            by_length.setdefault(len(frames), []).append(pos)
        loss = None
        for positions in by_length.values():
            frames, local, prs = zip(*(windows[i] for i in positions))
            glob = (self.global_terms(tables[features.GLOBAL_FRAME][np.array(frames)])
                    if features.GLOBAL_FRAME in self.streams else {})
            scores = self.forward_window(glob, tables[features.LOCAL_TRACK][np.array(local)],
                                         prompts, [slots[pr] for pr in prs])
            part = _loss_sum(scores, [match[i] for i in positions], neg_margin,
                             1.0 / len(windows))
            loss = part if loss is None else add(loss, part)
        return loss

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
            "mlp_hidden": self.mlps[features.LOCAL_TRACK].first.d_out,
            "params": names,
        }
        _write_json(os.path.join(out_dir, "params.json"), manifest)

    @classmethod
    def load(cls, in_dir, concept_of):
        """The model saved in ``in_dir``, embedding entities by the dataset's
        ``concept_of`` map; its ``Linear``s are built from the ``.mext`` files.

        Raises DataFileError, naming the file, for a missing or unreadable
        file, a ``params.json`` field that is missing or not of its kind in
        ``PARAMS`` (naming the key), a ``fusion.d_k`` other than
        ``embedder.fused_dim``, an ``embedder.concepts`` that lacks a concept
        of ``concept_of``, or a parameter whose shape disagrees with the manifest.
        """
        doc = read_json(os.path.join(in_dir, "params.json"), PARAMS,
                        check=lambda doc: _check_params(doc, concept_of))
        e, f = doc["embedder"], doc["fusion"]
        emb = EmbedderConfig(**{key: e[key] for key in PARAMS["embedder"]}
                             | {"concepts": tuple(e["concepts"])})
        shapes = _linear_shapes(emb, f["variant"], f["per_pair"], doc["mlp_hidden"])
        linears = {name: Linear(*(Tensor(_read_param(in_dir, f"{name}.{part}", shape),
                                         requires_grad=True)
                                  for part, shape in (("w", (d_in, d_out)), ("bias", (d_out,)))))
                   for name, (d_in, d_out) in shapes.items()}
        return cls(emb, linears, f["variant"], residual_add=f["residual_add"],
                   per_pair=f["per_pair"], concept_of=concept_of)


# every field ``ReferringModel.save`` writes to params.json, and its kind
PARAMS = {
    "embedder": {"seed": "int", "raw_visual_dim": "size", "visual_tokens": "size",
                 "raw_text_dim": "size", "text_tokens": "size", "fused_dim": "size",
                 "truncate_to": "size?", "oracle_mode": "bool", "noise_scale": "number",
                 "concepts": "strs"},
    "fusion": {"variant": "variant", "d_k": "size", "residual_add": "bool", "per_pair": "bool"},
    "mlp_hidden": "size?", "params": "strs"}


def _check_params(doc, concept_of):
    emb, d_k = doc["embedder"], doc["fusion"]["d_k"]
    if d_k != emb["fused_dim"]:
        raise ValueError(f"fusion.d_k {d_k} is not embedder.fused_dim {emb['fused_dim']}")
    unknown = sorted(set(concept_of.values()) - set(emb["concepts"]))
    if unknown:
        raise ValueError(f"embedder.concepts lacks the dataset's concept(s) {unknown}")


# each modality's projection MLP, by its name in ``linears``
_MLPS = {features.GLOBAL_FRAME: "mlp_global", features.LOCAL_TRACK: "mlp_local",
         features.PROMPT: "mlp_prompt"}


def _linear_shapes(embedder: EmbedderConfig, variant, per_pair, mlp_hidden):
    """Each ``Linear``'s name and (d_in, d_out), in initialisation order.

    ``fusion.<name>`` (d_k x d_k) in ``fusion.linear_names`` order, then the
    MLP of each modality read (``fusion.streams``): ``<mlp>.first`` (d_raw ->
    hidden) and ``<mlp>.second`` (hidden -> d_k); ``mlp_hidden`` defaults to d_k.
    """
    d_k = embedder.fused_dim
    hidden = mlp_hidden or d_k
    shapes = {f"fusion.{n}": (d_k, d_k) for n in fusion.linear_names(variant, per_pair)}
    for m in fusion.streams(variant, per_pair):
        _, d_raw = embedder.token_shape(m)
        shapes[f"{_MLPS[m]}.first"] = (d_raw, hidden)
        shapes[f"{_MLPS[m]}.second"] = (hidden, d_k)
    return shapes


def _read_param(in_dir, name, shape):
    path = os.path.join(in_dir, name + ".mext")
    arr = tensor_io.read_tensor(path)
    if arr.shape != tuple(shape):
        raise DataFileError(f"{path}: shape {arr.shape}, the manifest needs {tuple(shape)}")
    return arr


# ---- scoring and filtering -------------------------------------------------


def frame_entity(frame_index):
    return f"frame-{frame_index}"


def local_entity(track_entity, frame_index):
    return f"{track_entity}@{frame_index}"


def score_all(trajectories, tasks, model: ReferringModel, window, stats=None,
              threshold=0.0):
    """Score every (candidate trajectory, prompt) pair. Deterministic given seeds.

    The pass runs in stages: compose the ``scoring_form``; project the
    prompts and compute their fusion terms; project each distinct window of
    global frames (plain reads none: it neither embeds nor projects them);
    score the track windows, each against all its prompts in one
    ``forward_window`` call. After the prompt and the global stage the form
    is cut to what the later stages read (``stage_form``), so a stage's
    weights die when it ends unless the caller keeps ``model``, which is
    left unchanged.

    The frozen embedder runs one track window ahead on one worker thread:
    while a window goes through the local MLP and the fusion block here,
    the worker draws the next window's raw local tokens into the other of
    two buffers. The worker only fills those buffers; every tensor, and so
    every ledger charge, is made on the calling thread. The worker starts
    after the global stage, a draw's error is raised here in window order,
    and the worker is joined before this returns or raises.
    Every candidate must be a track of ``trajectories``, listed once by its
    task, as ``load_dataset`` checks.
    """
    by_id = {t.track_id: t for t in trajectories}
    by_track = {}
    for task in sorted(tasks, key=lambda t: t.prompt_id):
        for tid in task.candidates:
            by_track.setdefault(tid, []).append(task)
    windows = []
    for tid, jobs in by_track.items():
        idx = [f for f, _ in by_id[tid].frames[-window:]]
        windows.append((tid, jobs, idx, tuple(frame_entity(i) for i in idx)))

    def draw(k):
        """The worker's job: window k's raw local tokens, into its buffer."""
        tid, _, idx, _ = windows[k]
        return model._raw_tokens([local_entity(by_id[tid].entity_id, i) for i in idx],
                                 features.LOCAL_TRACK, out=buffers[k % 2][:len(idx)])

    raw = []
    model = model.scoring_form()
    slots = {e: i for i, e in enumerate(dict.fromkeys(t.entity_id for t in tasks))}
    prompts = model.prompt_terms(model._raw_tokens(list(slots), features.PROMPT))
    # each stage's weights die with the form that held them, unless the
    # caller keeps the model
    model = model.stage_form(features.GLOBAL_FRAME, features.LOCAL_TRACK)
    read_global = features.GLOBAL_FRAME in model.streams
    glob = {frames: model.global_terms(model._raw_tokens(frames, features.GLOBAL_FRAME))
            if read_global else {}
            for frames in dict.fromkeys(frames for _, _, _, frames in windows)}
    model = model.stage_form(features.LOCAL_TRACK)
    # made after the prompt projection has freed its arrays: made before
    # it, they raise a paper-dims score's peak RSS by about 1 MB more
    rows = max((len(idx) for _, _, idx, _ in windows), default=0)
    buffers = [np.empty((rows,) + model._raw_shape(features.LOCAL_TRACK)) for _ in range(2)]
    # leaving the block waits for the draw in flight
    with ThreadPoolExecutor(1, thread_name_prefix="mexfuse-embedder") as worker:
        ahead = worker.submit(draw, 0) if windows else None
        for k, (tid, jobs, _, frames) in enumerate(windows):
            local = ahead.result()  # raises a failed draw here, in window order
            # window k-1's buffer is free again: the worker draws window k+1 into it
            if k + 1 < len(windows):
                ahead = worker.submit(draw, k + 1)
            scores = model.forward_window(glob[frames], local, prompts,
                                          [slots[task.entity_id] for task in jobs])
            raw.extend((tid, task.prompt_id, float(s)) for task, s in zip(jobs, scores.data))
    return refine_threshold_sort(raw, stats, threshold)


def refine_threshold_sort(raw, stats, threshold):
    """Calibrated candidates from raw (track_id, prompt_id, score) triples.

    Each score is refined with ``stats``; with ``stats`` None, calibration
    is off: p = 0 and s' = s. A candidate is kept when s' is strictly above
    ``threshold``, and the candidates are sorted by prompt,
    refined score (descending) and track. ``score_all`` and the
    ``calibrate`` command both go through here.
    """
    out = []
    for tid, pid, s in raw:
        s_prime, p = (s, 0.0) if stats is None else stats.refine(s, pid)
        out.append(ScoredCandidate(track_id=tid, prompt_id=pid, raw_score=s, pseudo_freq=p,
                                   refined_score=s_prime, kept=s_prime > threshold))
    out.sort(key=lambda c: (c.prompt_id, -c.refined_score, c.track_id))
    return out


# ---- training --------------------------------------------------------------


def _loss_sum(scores, match, neg_margin, weight):
    """Weighted sum over windows of the cosine objective: 1 - s for a match,
    relu(s - margin) otherwise.

    ``scores`` is an [n] tensor, ``match`` n booleans and ``weight`` a float
    (a batch's mean takes 1/len(batch)). One graph node: weight * sum(m(1 -
    s) + (1 - m) relu(s - margin)), whose gradient with respect to s is
    weight * ((1 - m)[s > margin] - m).
    """
    s = scores.data
    m = np.asarray(match, dtype=s.dtype)
    over = s - neg_margin
    above = over > 0
    total = (m * (1.0 - s) + (1.0 - m) * np.where(above, over, 0.0)).sum() * weight

    def bwd(g):
        if scores.requires_grad:
            scores._accumulate(float(g) * weight * ((1.0 - m) * above - m))

    return node(np.asarray(total), (scores,), bwd)


def train(samples, trajectories, tasks, model: ReferringModel, epochs=100,
          batch_size=8, lr=1e-5, momentum=1e-5, neg_margin=0.0, seed=0,
          log=None):
    """SGD with momentum on the cosine objective; embedders stay frozen.

    Each minibatch is one graph (``ReferringModel.batch_loss``), the mean
    loss over its windows, with one backward pass. Returns the
    per-epoch mean loss curve. ``log``, when given, is called after each
    epoch with a dict: epoch, mean_loss, wall_s (the epoch's wall time) and
    batches. Each sample's track, prompt and frames must be known, as
    ``load_dataset`` checks. A batch whose forward pass raises
    DegenerateInputError, as diverged weights make it do (the tables are
    finite), raises TrainingError naming the epoch and the batch start, or
    "after the last step", whose weights the first ``batch_size`` samples are
    run on once more. Before any step the input is at fault: DegenerateInputError.
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
    for smp in samples:
        ent = by_track[smp.track_id].entity_id
        windows.append((
            np.array([row(frame_entity(i), features.GLOBAL_FRAME) for i in smp.frame_indices]),
            np.array([row(local_entity(ent, i), features.LOCAL_TRACK)
                      for i in smp.frame_indices]),
            row(by_prompt[smp.prompt_id].entity_id, features.PROMPT)))
    tables = {m: model._raw_tokens(list(rows[m]), m) for m in model.streams}
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
                try:
                    loss = model.batch_loss(tables, [windows[i] for i in batch], match[batch],
                                            neg_margin)
                except DegenerateInputError as exc:
                    if epoch == start == 0:
                        raise DegenerateInputError(
                            f"the first batch fails before any optimizer step, so the input "
                            f"is at fault, not training (embedder.noise_scale is "
                            f"{model.embedder.noise_scale!r}): {exc}") from None
                    raise TrainingError(f"epoch {epoch}, batch start {start}: {exc}") from None
                total += loss.item() * len(batch)
                loss.backward()
            optimizer.step()
        curve.append(total / len(samples))
        if log is not None:
            log({"epoch": epoch, "mean_loss": curve[-1],
                 "wall_s": time.perf_counter() - t0,
                 "batches": len(range(0, len(order), batch_size))})
    # no later batch runs the last step's weights
    with fresh_context():
        try:
            model.batch_loss(tables, windows[:batch_size], match[:batch_size], neg_margin)
        except DegenerateInputError as exc:
            raise TrainingError(f"after the last step: {exc}") from None
    return curve


# ---- synthetic dataset -----------------------------------------------------


@dataclass
class DatasetConfig:
    seed: int
    n_concepts: int
    n_tracks: int
    n_prompts: int
    n_frames: int
    n_windows: int
    window: int


def generate_synthetic_dataset(cfg: DatasetConfig):
    """Deterministic toy referring dataset; prompts link to >= 1 matching track."""
    if cfg.window > cfg.n_frames:
        raise DegenerateInputError(f"pipeline.window {cfg.window} is more than "
                                   f"dataset.n_frames {cfg.n_frames}: no window fits")
    if cfg.n_concepts > cfg.n_tracks:
        raise DegenerateInputError(f"dataset.n_concepts {cfg.n_concepts} is more than "
                                   f"dataset.n_tracks {cfg.n_tracks}: a concept would have "
                                   f"no track")
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
    """The records of a JSON-lines file, each through ``config.check_record``.

    Raises DataFileError naming the file for a missing or unreadable file,
    and the file and line for a line that is not JSON or a bad record.
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
                out.append(check_record(f"{path}:{lineno}", rec, fields, check))
    except (OSError, UnicodeDecodeError) as exc:
        raise cannot_read(path, exc) from None
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
    trajectory row with a box extent <= 0, a frame its track already has or
    an entity_id other than its track's, a task whose prompt_id an earlier
    task has, with no candidates or with a candidate that is not a track or
    is listed twice, a window row whose track or prompt is unknown or whose
    frames are not that track's, or a concepts row whose concept is not in
    meta.json's concepts.
    """
    by_track = {}  # track_id -> (entity_id, {frame: box})

    def add_box(r):
        tid = r["track_id"]
        entity, frames = by_track.setdefault(tid, (r["entity_id"], {}))
        if r["entity_id"] != entity:
            raise ValueError(f"track {tid}: entity_id {r['entity_id']!r}, "
                             f"but an earlier row gives {entity!r}")
        if r["frame"] in frames:
            raise ValueError(f"track {tid}: frame {r['frame']} listed twice")
        Trajectory(track_id=tid, frames=[(r["frame"], r["box"])],
                   entity_id=entity)  # checks the box
        frames[r["frame"]] = r["box"]

    _read_jsonl(os.path.join(in_dir, "trajectories.jsonl"),
                {"track_id": "int", "frame": "int", "box": "box", "entity_id": "str"},
                check=add_box)
    trajectories = [Trajectory(track_id=tid, frames=sorted(frames.items()), entity_id=ent)
                    for tid, (ent, frames) in sorted(by_track.items())]
    frames_of = {tid: frames for tid, (_, frames) in by_track.items()}
    prompt_ids = set()

    def check_task(r):
        if r["prompt_id"] in prompt_ids:
            raise ValueError(f"prompt_id {r['prompt_id']} listed twice")
        prompt_ids.add(r["prompt_id"])
        if not r["candidates"]:
            raise ValueError("candidates is empty")
        unknown = [tid for tid in r["candidates"] if tid not in frames_of]
        if unknown:
            raise ValueError(f"unknown track_id {unknown[0]} in candidates")
        seen = set()
        for tid in r["candidates"]:
            if tid in seen:
                raise ValueError(f"track_id {tid} listed twice in candidates")
            seen.add(tid)

    tasks = [ReferringTask(prompt_id=r["prompt_id"], text=r["text"],
                           entity_id=r["entity_id"], candidates=r["candidates"])
             for r in _read_jsonl(os.path.join(in_dir, "tasks.jsonl"),
                                  {"prompt_id": "str", "text": "str", "entity_id": "str",
                                   "candidates": "track ids"}, check=check_task)]
    labels = _read_jsonl(os.path.join(in_dir, "labels.jsonl"),
                         {"prompt_id": "str", "track_id": "int", "match": "bool"})

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
    meta = read_json(meta_path, {"concepts": "strs"})

    def check_concept(r):
        if r["concept"] not in meta["concepts"]:
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
