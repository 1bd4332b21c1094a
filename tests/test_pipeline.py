import contextlib
import copy
import json
import sys
import threading

import numpy as np
import pytest

from mexfuse import calibration, features, kernels, pipeline, tensor_io
from mexfuse.features import (
    GLOBAL_FRAME,
    LOCAL_TRACK,
    PROMPT,
    EmbedderConfig,
    embed_synthetic,
)
from mexfuse.fusion import linear_names
from mexfuse.pipeline import (
    DataFileError,
    DatasetConfig,
    LookupError_,
    ModelLoadError,
    ReferringModel,
    ScoredCandidate,
    TrainSample,
    Trajectory,
    concept_map,
    frame_entity,
    generate_synthetic_dataset,
    load_dataset,
    local_entity,
    precision_recall,
    refine_threshold_sort,
    save_dataset,
    score_all,
    train,
    write_scores,
)
from mexfuse.tensor import (
    DegenerateInputError,
    Linear,
    Tensor,
    add,
    fresh_context,
    mean_axis,
    no_grad,
    scale,
)

from conftest import TOY_CONFIG, cosine, full_stream, relu, st_pool, stack, sub


SMALL = DatasetConfig(seed=3, n_concepts=2, n_tracks=4, n_prompts=2,
                      n_frames=6, n_windows=8, window=3)


def small_model(data, variant="mex", seed=3, **kw):
    emb = EmbedderConfig(seed=seed, raw_visual_dim=16, visual_tokens=3,
                         raw_text_dim=24, text_tokens=4, fused_dim=8,
                         oracle_mode=True, concepts=tuple(sorted({m["concept"]
                                                                  for m in data["manifest"]})))
    return ReferringModel.build(emb, variant=variant, mlp_hidden=16, seed=seed,
                                concept_of=concept_map(data["manifest"]), **kw)


def stream(model, entity, modality, mlp):
    """One entity's projected [s, d_k] stream, embedded afresh."""
    f = embed_synthetic(entity, modality, model.embedder, concept=model.concept_of.get(entity))
    return mlp(Tensor(f.tokens[0]))


def full_stream_score(model, track_entity, frame_indices, prompt_entity):
    """Raw score of one (track window, prompt) pair: every frame fused on its own
    as 2-D streams, the full fused stream stacked, ST-pooled and compared."""
    fP = stream(model, prompt_entity, PROMPT, model.mlp_prompt)
    per_frame = [
        full_stream(model.fusion_params,
                    stream(model, frame_entity(i), GLOBAL_FRAME, model.mlp_global),
                    stream(model, local_entity(track_entity, i), LOCAL_TRACK, model.mlp_local),
                    fP)[0]
        for i in frame_indices]
    return cosine(st_pool(stack(per_frame)), mean_axis(fP, axis=0))


def per_pair_reference(trajectories, tasks, model, window, threshold):
    """Unbatched, unfactorised scoring: every (track, prompt) pair on its own."""
    by_id = {t.track_id: t for t in trajectories}
    out = []
    with no_grad():
        for task in tasks:
            for tid in task.candidates:
                traj = by_id[tid]
                s = full_stream_score(model, traj.entity_id,
                                      [i for i, _ in traj.frames[-window:]],
                                      task.entity_id).item()
                out.append(ScoredCandidate(tid, task.prompt_id, s, 0.0, s, s > threshold))
    out.sort(key=lambda c: (c.prompt_id, -c.refined_score, c.track_id))
    return out


def momentum_loop(params, velocities, lr, momentum):
    """Reference momentum update, one parameter at a time: v = mu*v + grad;
    w -= lr*v; a parameter with no gradient keeps its value and velocity."""
    for p, v in zip(params, velocities):
        if p.grad is None:
            continue
        v *= momentum
        v += p.grad
        p.data -= lr * v
        p.grad = None


def per_sample_train(samples, trajectories, tasks, model, epochs, batch_size, lr,
                     momentum, neg_margin, seed):
    """Reference training loop: one full-stream graph per window
    (``full_stream_score``), the windows' losses added one by one, then
    averaged over the batch."""
    by_track = {t.track_id: t for t in trajectories}
    by_prompt = {t.prompt_id: t for t in tasks}
    params = model.parameters()
    velocities = [np.zeros_like(p.data) for p in params]
    order_rng = np.random.default_rng(seed)
    curve = []
    for _ in range(epochs):
        order = order_rng.permutation(len(samples))
        total = 0.0
        for start in range(0, len(order), batch_size):
            batch = [samples[i] for i in order[start:start + batch_size]]
            with fresh_context():
                losses = []
                for smp in batch:
                    s = full_stream_score(model, by_track[smp.track_id].entity_id,
                                          smp.frame_indices,
                                          by_prompt[smp.prompt_id].entity_id)
                    losses.append(sub(Tensor(np.asarray(1.0)), s) if smp.match else
                                  relu(sub(s, Tensor(np.asarray(neg_margin)))))
                loss = losses[0]
                for extra in losses[1:]:
                    loss = add(loss, extra)
                loss = scale(loss, 1.0 / len(losses))
                total += loss.item() * len(losses)
                loss.backward()
            momentum_loop(params, velocities, lr, momentum)
        curve.append(total / len(samples))
    return curve


@pytest.fixture(scope="module")
def small_data():
    return generate_synthetic_dataset(SMALL)


class TestDatasetGeneration:
    def test_byte_identical_given_seed(self, tmp_path):
        for sub in ("a", "b"):
            save_dataset(tmp_path / sub, generate_synthetic_dataset(SMALL), SMALL)
        for name in ("trajectories.jsonl", "tasks.jsonl", "labels.jsonl",
                     "windows.jsonl", "concepts.jsonl", "meta.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_round_trip(self, tmp_path, small_data):
        save_dataset(tmp_path / "ds", small_data, SMALL)
        loaded = load_dataset(tmp_path / "ds")
        assert loaded["trajectories"] == small_data["trajectories"]
        assert loaded["tasks"] == small_data["tasks"]
        assert loaded["labels"] == small_data["labels"]
        assert loaded["samples"] == small_data["samples"]

    @pytest.mark.parametrize("concepts", ["concept-0", ["concept-0", 1]], ids=["str", "int"])
    def test_meta_concepts_must_be_a_list_of_strings(self, tmp_path, small_data, concepts):
        save_dataset(tmp_path / "ds", small_data, SMALL)
        meta = json.loads((tmp_path / "ds" / "meta.json").read_text())
        (tmp_path / "ds" / "meta.json").write_text(json.dumps({**meta, "concepts": concepts}))
        with pytest.raises(DataFileError, match="meta.json: 'concepts' must be a list of strings"):
            load_dataset(tmp_path / "ds")

    def test_match_counts_by_construction(self, small_data):
        # 4 tracks over 2 concepts: every prompt matches exactly 2 tracks
        per_prompt = {}
        for l in small_data["labels"]:
            per_prompt.setdefault(l["prompt_id"], 0)
            per_prompt[l["prompt_id"]] += l["match"]
        assert all(v == 2 for v in per_prompt.values())

    def test_every_prompt_has_a_match(self, small_data):
        matched = {l["prompt_id"] for l in small_data["labels"] if l["match"]}
        assert matched == {t.prompt_id for t in small_data["tasks"]}


class TestTrajectoryInvariants:
    def test_frame_indices_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(track_id=0, frames=[(2, [0, 0, 1, 1]), (1, [0, 0, 1, 1])],
                       entity_id="t")

    def test_positive_box_extents(self):
        with pytest.raises(ValueError, match="extent"):
            Trajectory(track_id=0, frames=[(0, [0, 0, -1, 1])], entity_id="t")


class TestScoring:
    def test_deterministic(self, small_data):
        model = small_model(small_data)
        kw = dict(window=3)
        first = score_all(small_data["trajectories"], small_data["tasks"], model, **kw)
        second = score_all(small_data["trajectories"], small_data["tasks"], model, **kw)
        assert first == second

    @pytest.mark.parametrize("variant,kw", [
        ("mex", {}), ("mex", {"per_pair": True}), ("mex", {"residual_add": True}),
        ("cascade", {}), ("plain", {})], ids=["mex", "mex-per_pair", "mex-residual_add",
                                              "cascade", "plain"])
    def test_matches_per_pair_reference(self, small_data, variant, kw):
        model = small_model(small_data, variant=variant, **kw)
        # tracks of different lengths, so their windows cover different frames
        trajs = [Trajectory(track_id=t.track_id, frames=t.frames[:len(t.frames) - i % 3],
                            entity_id=t.entity_id)
                 for i, t in enumerate(small_data["trajectories"])]
        tasks = small_data["tasks"]
        threshold = 0.1
        got = score_all(trajs, tasks, model, window=3, threshold=threshold,
                        stats=calibration.disabled_stats())
        want = per_pair_reference(trajs, tasks, model, window=3, threshold=threshold)
        assert [(c.prompt_id, c.track_id, c.kept) for c in got] == \
               [(c.prompt_id, c.track_id, c.kept) for c in want]
        assert max(abs(a.raw_score - b.raw_score) for a, b in zip(got, want)) <= 1e-12
        assert all(c.refined_score == c.raw_score for c in got)

    def test_projects_each_prompt_and_global_window_once(self, small_data, monkeypatch):
        calls = []
        mlp_call = features.ProjectionMLP.__call__

        def counted(mlp, x):
            calls.append(x.shape)
            return mlp_call(mlp, x)

        monkeypatch.setattr(features.ProjectionMLP, "__call__", counted)
        trajs = [Trajectory(track_id=t.track_id, frames=t.frames[:len(t.frames) - i % 2],
                            entity_id=t.entity_id)
                 for i, t in enumerate(small_data["trajectories"])]
        score_all(trajs, small_data["tasks"], small_model(small_data), window=3)
        # one call for all prompts, one per distinct global window, one per track window
        assert calls[0][0] == len(small_data["tasks"])
        assert len(calls) == 1 + 2 + len(trajs)

    def test_track_relabeling_changes_only_ids(self, small_data):
        model = small_model(small_data)
        base = score_all(small_data["trajectories"], small_data["tasks"], model, window=3)
        relabeled = [Trajectory(track_id=t.track_id + 100, frames=t.frames,
                                entity_id=t.entity_id)
                     for t in small_data["trajectories"]]
        tasks = [copy.deepcopy(t) for t in small_data["tasks"]]
        for t in tasks:
            t.candidates = [c + 100 for c in t.candidates]
        shifted = score_all(relabeled, tasks, model, window=3)
        assert {(c.track_id, c.prompt_id, c.raw_score) for c in base} == \
               {(c.track_id - 100, c.prompt_id, c.raw_score) for c in shifted}

    def test_window_one_equals_single_frame(self, small_data):
        model = small_model(small_data)
        traj = small_data["trajectories"][0]
        task = copy.deepcopy(small_data["tasks"][0])
        task.candidates = [traj.track_id]
        last_only = Trajectory(track_id=traj.track_id, frames=traj.frames[-1:],
                               entity_id=traj.entity_id)
        a = score_all([traj], [task], model, window=1)
        b = score_all([last_only], [task], model, window=1)
        assert a[0].raw_score == b[0].raw_score

    def test_unknown_track_id(self, small_data):
        model = small_model(small_data)
        tasks = [copy.deepcopy(small_data["tasks"][0])]
        tasks[0].candidates = [999]
        with pytest.raises(LookupError_):
            score_all(small_data["trajectories"], tasks, model, window=3)

    @pytest.mark.parametrize("failing", [(), (0,), (2,), (3,), (1, 2)],
                             ids=["none", "first", "middle", "last", "two"])
    def test_embedder_worker(self, small_data, monkeypatch, failing):
        # the tracks' windows are scored in candidate order, 0 to 3
        trajs = small_data["trajectories"]
        bad = {local_entity(trajs[k].entity_id, trajs[k].frames[-1][0]): k for k in failing}
        embed = features.embed_synthetic
        threads = {}

        def draw(entity_id, modality, *args, **kw):
            threads.setdefault(modality, set()).add(threading.current_thread())
            if entity_id in bad:
                raise RuntimeError(f"draw failed for window {bad[entity_id]}")
            return embed(entity_id, modality, *args, **kw)

        monkeypatch.setattr(features, "embed_synthetic", draw)
        baseline = threading.active_count()
        model = small_model(small_data)
        if failing:
            # the first failing window's error, raised here
            with pytest.raises(RuntimeError, match=f"window {failing[0]}$"):
                score_all(trajs, small_data["tasks"], model, window=3)
        else:
            got = score_all(trajs, small_data["tasks"], model, window=3)
            assert len(got) == len(trajs) * len(small_data["tasks"])
        assert threading.active_count() == baseline
        # every local draw ran on one worker thread; the rest on this one
        main = threading.current_thread()
        assert len(threads[LOCAL_TRACK]) == 1 and main not in threads[LOCAL_TRACK]
        assert threads[PROMPT] | threads.get(GLOBAL_FRAME, set()) == {main}

    def test_input_checked_before_the_worker_starts(self, small_data, monkeypatch):
        calls = []
        monkeypatch.setattr(features, "embed_synthetic", lambda *a, **kw: calls.append(a))
        model = small_model(small_data)
        trajs, tasks = small_data["trajectories"], small_data["tasks"]
        with pytest.raises(DegenerateInputError, match="window must be >= 1"):
            score_all(trajs, tasks, model, window=0)
        empty = [copy.deepcopy(tasks[0]), copy.deepcopy(tasks[1])]
        empty[1].candidates = []
        with pytest.raises(DegenerateInputError, match="no candidates"):
            score_all(trajs, empty, model, window=3)
        unknown = [copy.deepcopy(tasks[0]), copy.deepcopy(tasks[1])]
        unknown[1].candidates = [0, 999]
        with pytest.raises(LookupError_, match="999"):
            score_all(trajs, unknown, model, window=3)
        assert calls == []

    def test_short_switch_interval_matches_reference(self, small_data):
        # the two stages swap the interpreter lock as often as it allows
        model = small_model(small_data)
        trajs = [Trajectory(track_id=t.track_id, frames=t.frames[:len(t.frames) - i % 3],
                            entity_id=t.entity_id)
                 for i, t in enumerate(small_data["trajectories"])]
        want = per_pair_reference(trajs, small_data["tasks"], model, window=3, threshold=0.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = score_all(trajs, small_data["tasks"], model, window=3)
        finally:
            sys.setswitchinterval(interval)
        assert [(c.prompt_id, c.track_id) for c in got] == \
               [(c.prompt_id, c.track_id) for c in want]
        assert max(abs(a.raw_score - b.raw_score) for a, b in zip(got, want)) <= 1e-12


def kept_candidates(cands, threshold):
    """The candidates ``refine_threshold_sort`` keeps, without calibration."""
    raw = [(c.track_id, c.prompt_id, c.raw_score) for c in cands]
    return [c for c in refine_threshold_sort(raw, calibration.disabled_stats(), threshold)
            if c.kept]


class TestFilter:
    def _candidates(self):
        return [ScoredCandidate(0, "p0", 0.8, 0.0, 0.8, True),
                ScoredCandidate(1, "p0", -0.2, 0.0, -0.2, False),
                ScoredCandidate(2, "p1", 0.1, 0.0, 0.1, True)]

    def test_very_negative_threshold_keeps_all(self):
        assert len(kept_candidates(self._candidates(), -1e9)) == 3

    def test_threshold_above_max_keeps_none(self):
        assert kept_candidates(self._candidates(), 10.0) == []

    def test_threshold_zero(self):
        kept = kept_candidates(self._candidates()[:2], 0.0)
        assert [c.track_id for c in kept] == [0]

    def test_never_increases_count(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            cands = [ScoredCandidate(i, "p", s, 0.0, s, s > 0)
                     for i, s in enumerate(rng.uniform(-1, 1, size=rng.integers(1, 10)))]
            thr = rng.uniform(-1.5, 1.5)
            assert len(kept_candidates(cands, thr)) <= len(cands)

    def test_positive_raw_cosine_with_calibration_disabled(self, small_data):
        model = small_model(small_data)
        cands = score_all(small_data["trajectories"], small_data["tasks"], model,
                          window=3, threshold=0.0)
        kept = kept_candidates(cands, 0.0)
        assert {(c.prompt_id, c.track_id) for c in kept} == \
               {(c.prompt_id, c.track_id) for c in cands if c.raw_score > 0}

    def test_fallback_row_is_prompt_rank(self):
        # rows unnamed: prompt "b" (rank 1 of the sorted ids) reads row 1
        stats = calibration.ExpressionStats(
            train_ids=["x", "y"], train_freqs=[0.2, 0.6],
            similarity=[[1.0, 0.0], [0.0, 1.0]], tau=1e3, a=1.0, b=0.0)
        out = refine_threshold_sort([(0, "b", 0.0), (1, "a", 0.0)], stats, threshold=0.5)
        assert [(c.prompt_id, c.pseudo_freq, c.kept) for c in out] == \
               [("a", pytest.approx(0.2), False), ("b", pytest.approx(0.6), True)]


VARIANTS = [("mex", {}), ("mex", {"per_pair": True}), ("mex", {"residual_add": True}),
            ("cascade", {}), ("plain", {})]
VARIANT_IDS = ["mex", "mex-per_pair", "mex-residual_add", "cascade", "plain"]


class TestTraining:
    @pytest.mark.parametrize("variant,kw", VARIANTS, ids=VARIANT_IDS)
    @pytest.mark.parametrize("batch_size,mixed", [(3, True), (1, True), (8, False)],
                             ids=["mixed-lengths-partial-batch", "batch-1", "one-batch"])
    def test_matches_per_sample_reference(self, small_data, variant, kw, batch_size, mixed):
        samples = small_data["samples"]
        if mixed:  # windows of 3, 2 and 1 frames
            samples = [TrainSample(s.track_id, s.prompt_id, s.frame_indices[k % 3:], s.match)
                       for k, s in enumerate(samples)]
        seed = 4
        batches = [[samples[i] for i in b] for b in np.array_split(
            np.random.default_rng(seed).permutation(len(samples)),
            range(batch_size, len(samples), batch_size))]
        if batch_size > 1:  # the first epoch's batches repeat a prompt
            assert any(len({s.prompt_id for s in b}) < len(b) for b in batches)
        if mixed and batch_size > 1:  # ... mix window lengths and end in a partial batch
            assert any(len({len(s.frame_indices) for s in b}) > 1 for b in batches)
            assert len(batches[-1]) < batch_size
        kwargs = dict(epochs=3, batch_size=batch_size, lr=0.05, momentum=0.9,
                      neg_margin=-0.1, seed=seed)
        args = (samples, small_data["trajectories"], small_data["tasks"])
        batched, reference = (small_model(small_data, variant=variant, **kw) for _ in range(2))
        got = train(*args, batched, **kwargs)
        want = per_sample_train(*args, reference, **kwargs)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12
        for p, q in zip(batched.parameters(), reference.parameters()):
            assert np.abs(p.data - q.data).max() <= 1e-12

    def test_embeds_each_entity_once(self, small_data, monkeypatch):
        calls = []
        embed = features.embed_synthetic

        def counted(entity_id, modality, *args, **kw):
            calls.append((entity_id, modality))
            return embed(entity_id, modality, *args, **kw)

        monkeypatch.setattr(features, "embed_synthetic", counted)
        train(small_data["samples"], small_data["trajectories"], small_data["tasks"],
              small_model(small_data), epochs=3, batch_size=3, lr=1e-3)
        by_track = {t.track_id: t.entity_id for t in small_data["trajectories"]}
        by_prompt = {t.prompt_id: t.entity_id for t in small_data["tasks"]}
        distinct = set()
        for s in small_data["samples"]:
            distinct.add((by_prompt[s.prompt_id], PROMPT))
            for i in s.frame_indices:
                distinct.add((frame_entity(i), GLOBAL_FRAME))
                distinct.add((local_entity(by_track[s.track_id], i), LOCAL_TRACK))
        assert sorted(calls) == sorted(distinct)

    def test_parameters_without_gradient_keep_their_values(self, small_data):
        # plain attends from the local tracks to the prompt: its global MLP gets no gradient
        model = small_model(small_data, variant="plain")
        before = [p.data.copy() for p in model.parameters()]
        train(small_data["samples"], small_data["trajectories"], small_data["tasks"],
              model, epochs=3, batch_size=4, lr=0.05, momentum=0.9)
        unused = {id(p) for name in ("mlp_global.first", "mlp_global.second")
                  for p in model.linears[name].parameters()}
        for prev, p in zip(before, model.parameters()):
            assert np.array_equal(prev, p.data) == (id(p) in unused)

    def test_unknown_track_id(self, small_data):
        model = small_model(small_data)
        samples = [TrainSample(999, "p000", [0, 1], True)]
        with pytest.raises(LookupError_, match="999"):
            train(samples, small_data["trajectories"], small_data["tasks"], model, epochs=1)

    def test_zero_lr_leaves_params_bit_identical(self, small_data):
        model = small_model(small_data)
        before = [p.data.copy() for p in model.parameters()]
        train(small_data["samples"], small_data["trajectories"], small_data["tasks"],
              model, epochs=1, batch_size=4, lr=0.0, momentum=0.9)
        for prev, p in zip(before, model.parameters()):
            assert np.array_equal(prev, p.data)

    def test_single_step_descends(self, small_data):
        model = small_model(small_data)
        sample = [s for s in small_data["samples"] if s.match][0]
        one = [sample]
        curve = train(one, small_data["trajectories"], small_data["tasks"], model,
                      epochs=2, batch_size=1, lr=1e-3, momentum=0.0)
        assert curve[1] < curve[0]

    def test_loss_curve_length(self, small_data):
        model = small_model(small_data)
        curve = train(small_data["samples"], small_data["trajectories"],
                      small_data["tasks"], model, epochs=3, batch_size=4, lr=1e-3)
        assert len(curve) == 3


class TestLedgerCountsProducts:
    """The ledger's multiply-adds are those of the products the engine makes,
    ``out.size * a.shape[-1]`` each, forward and backward."""

    @pytest.fixture
    def products(self, monkeypatch):
        made = []
        matmul2d = kernels.matmul2d

        def counted(a, b):
            out = matmul2d(a, b)
            made.append(out.size * a.shape[-1])
            return out

        monkeypatch.setattr(kernels, "matmul2d", counted)
        return made

    def test_one_toy_training_batch(self, products, monkeypatch):
        ds, emb = TOY_CONFIG["dataset"], TOY_CONFIG["embedder"]
        data = generate_synthetic_dataset(DatasetConfig(
            seed=TOY_CONFIG["seed"], window=TOY_CONFIG["pipeline"]["window"], **ds))
        model = ReferringModel.build(
            EmbedderConfig(seed=TOY_CONFIG["seed"], fused_dim=TOY_CONFIG["fusion"]["d_k"],
                           oracle_mode=True, concepts=tuple(data["concepts"]),
                           **{k: v for k, v in emb.items() if k != "mlp_hidden"}),
            mlp_hidden=emb["mlp_hidden"], seed=TOY_CONFIG["seed"],
            concept_of=concept_map(data["manifest"]))
        ledgers = []
        fresh = pipeline.fresh_context

        @contextlib.contextmanager
        def recorded():
            with fresh() as ctx:
                ledgers.append(ctx.ledger)
                yield ctx

        monkeypatch.setattr(pipeline, "fresh_context", recorded)
        batch = TOY_CONFIG["pipeline"]["batch_size"]
        train(data["samples"][:batch], data["trajectories"], data["tasks"], model, epochs=1,
              batch_size=batch, lr=0.05, momentum=0.9, neg_margin=-0.1)
        assert len(ledgers) == 1
        assert products and ledgers[0].flops == sum(products)

    def test_paper_dims_score_pass(self, products, monkeypatch):
        # the paper-score benchmark's inputs at seed 12: 40 tracks, 8 prompts, window 8
        data = generate_synthetic_dataset(DatasetConfig(
            seed=12, n_concepts=4, n_tracks=40, n_prompts=8, n_frames=12, n_windows=8, window=8))
        model = ReferringModel.build(
            EmbedderConfig(seed=12, oracle_mode=True, concepts=tuple(data["concepts"])),
            seed=12, concept_of=concept_map(data["manifest"]))
        mlp_calls = []
        mlp_call = features.ProjectionMLP.__call__

        def counted(mlp, x):
            mlp_calls.append(x.shape)
            return mlp_call(mlp, x)

        monkeypatch.setattr(features.ProjectionMLP, "__call__", counted)
        with fresh_context() as ctx:
            score_all(data["trajectories"], data["tasks"], model, window=8)
        assert ctx.ledger.flops == sum(products)
        assert (len(products), sum(products), len(mlp_calls)) == (326, 2_028_503_040, 42)
        # shared mex's one prompt tensor is both k and v, and taken once per window
        assert ctx.ledger.peak_values == 13_231_424


MLPS = ("mlp_global", "mlp_local", "mlp_prompt")


class TestPersistence:
    @pytest.mark.parametrize("variant,kw", VARIANTS, ids=VARIANT_IDS)
    def test_round_trip(self, small_data, tmp_path, variant, kw):
        model = small_model(small_data, variant=variant, **kw)
        model.save(tmp_path / "m")
        # the fusion projections by sorted name, then each MLP's first and
        # second layer; each weight before its bias
        fused = linear_names(variant, kw.get("per_pair", False))
        names = [f"fusion.{n}.{part}" for n in sorted(fused) for part in ("w", "bias")]
        names += [f"{m}.{layer}.{part}" for m in MLPS for layer in ("first", "second")
                  for part in ("w", "bias")]
        assert json.loads((tmp_path / "m" / "params.json").read_text())["params"] == names
        loaded = ReferringModel.load(tmp_path / "m")
        for m in (model, loaded):
            assert [id(p) for p in m.parameters()] == \
                   [id(getattr(m.linears[n.rsplit(".", 1)[0]], n.rsplit(".", 1)[1]))
                    for n in names]
        for p, q in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(p.data, q.data) and q.requires_grad
        kw = dict(window=3)
        assert score_all(small_data["trajectories"], small_data["tasks"], model, **kw) == \
               score_all(small_data["trajectories"], small_data["tasks"], loaded, **kw)

    @pytest.mark.parametrize("variant,kw", VARIANTS, ids=VARIANT_IDS)
    def test_build_draw_order(self, small_data, variant, kw):
        model = small_model(small_data, variant=variant, seed=11, **kw)
        emb, hidden = model.embedder, 16
        d_k = emb.fused_dim
        # one rng: the fusion projections in linear_names order, then the
        # global, local and prompt MLPs, each first then second
        rng = np.random.default_rng(11)
        want = {f"fusion.{n}": Linear.init(d_k, d_k, rng)
                for n in linear_names(variant, kw.get("per_pair", False))}
        for m, d_raw in zip(MLPS, (emb.raw_visual_dim, emb.raw_visual_dim, emb.raw_text_dim)):
            want[f"{m}.first"] = Linear.init(d_raw, hidden, rng)
            want[f"{m}.second"] = Linear.init(hidden, d_k, rng)
        assert sorted(model.linears) == sorted(want)
        for name, lin in want.items():
            assert np.array_equal(model.linears[name].w.data, lin.w.data)
            assert np.array_equal(model.linears[name].bias.data, lin.bias.data)
        # the fusion block and the MLPs are wired from that one table
        for n, lin in model.fusion_params.linears.items():
            assert lin is model.linears[f"fusion.{n}"]
        for m in MLPS:
            mlp = getattr(model, m)
            assert mlp.first is model.linears[f"{m}.first"]
            assert mlp.second is model.linears[f"{m}.second"]

    def test_missing_file_named(self, small_data, tmp_path):
        small_model(small_data).save(tmp_path / "m")
        (tmp_path / "m" / "fusion.proj_t.bias.mext").unlink()
        with pytest.raises(ModelLoadError, match="fusion.proj_t.bias.mext"):
            ReferringModel.load(tmp_path / "m")

    def test_d_k_other_than_the_embedder_width_named(self, small_data, tmp_path):
        small_model(small_data).save(tmp_path / "m")
        path = tmp_path / "m" / "params.json"
        manifest = json.loads(path.read_text())
        manifest["fusion"]["d_k"] = 16
        path.write_text(json.dumps(manifest))
        with pytest.raises(ModelLoadError, match=r"params.json: ValueError: fusion d_k 16 is "
                                                 r"not the embedder's fused_dim 8"):
            ReferringModel.load(tmp_path / "m")

    def test_shape_mismatch_named(self, small_data, tmp_path):
        small_model(small_data).save(tmp_path / "m")
        tensor_io.write_tensor(tmp_path / "m" / "mlp_prompt.first.w.mext", np.zeros((24, 15)))
        with pytest.raises(ModelLoadError, match=r"mlp_prompt.first.w.mext.*\(24, 16\)"):
            ReferringModel.load(tmp_path / "m")


def test_precision_recall_and_scores_io(tmp_path):
    cands = [ScoredCandidate(0, "p0", 0.9, 0.0, 0.9, True),
             ScoredCandidate(1, "p0", -0.4, 0.0, -0.4, False)]
    labels = [{"prompt_id": "p0", "track_id": 0, "match": True},
              {"prompt_id": "p0", "track_id": 1, "match": False}]
    assert precision_recall(cands, labels) == (1.0, 1.0)
    path = tmp_path / "scores.jsonl"
    write_scores(path, cands)
    rows = [json.loads(l) for l in path.read_text().splitlines()]
    assert rows[0] == {"prompt_id": "p0", "track_id": 0, "s": 0.9, "p": 0.0,
                       "s_prime": 0.9, "kept": True}


def test_unscored_labelled_match_is_a_false_negative():
    cands = [ScoredCandidate(0, "p0", 0.9, 0.0, 0.9, True)]
    labels = [{"prompt_id": "p0", "track_id": 0, "match": True},
              {"prompt_id": "p0", "track_id": 1, "match": True}]
    assert precision_recall(cands, labels) == (1.0, 0.5)
