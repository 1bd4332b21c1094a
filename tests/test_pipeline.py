import contextlib
import copy
import json
import sys
import threading
import weakref

import numpy as np
import pytest
from click.testing import CliRunner

from mexfuse import cli, config, features, kernels, pipeline, tensor_io
from mexfuse.cli import GRADCHECK_CONFIGS
from mexfuse.features import (
    GLOBAL_FRAME,
    LOCAL_TRACK,
    PROMPT,
    EmbedderConfig,
    embed_synthetic,
)
from mexfuse.fusion import linear_names, reads
from mexfuse.pipeline import (
    DataFileError,
    DatasetConfig,
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
    Linear,
    MomentumSGD,
    Tensor,
    fresh_context,
    mean_axis,
)

from conftest import TOY_CONFIG, cosine, full_stream, relu, st_pool, stack, sub


SMALL = DatasetConfig(seed=3, n_concepts=2, n_tracks=4, n_prompts=2,
                      n_frames=6, n_windows=8, window=3)


def small_model(data, variant="mex", seed=3, mlp_hidden=16, **kw):
    emb = EmbedderConfig(seed=seed, raw_visual_dim=16, visual_tokens=3,
                         raw_text_dim=24, text_tokens=4, fused_dim=8,
                         oracle_mode=True, concepts=tuple(sorted({m["concept"]
                                                                  for m in data["manifest"]})))
    return ReferringModel.build(emb, variant=variant, mlp_hidden=mlp_hidden, seed=seed,
                                concept_of=concept_map(data["manifest"]), **kw)


def toy_run(variant="mex", per_pair=False, residual_add=False):
    """The toy config (defaults filled in), its dataset, and the model
    ``mexfuse train`` builds for it with these fusion options."""
    fusion = {**TOY_CONFIG["fusion"], "variant": variant, "per_pair_projections": per_pair,
              "residual_add": residual_add}
    cfg = config.load(overrides={**TOY_CONFIG, "fusion": fusion})
    data = generate_synthetic_dataset(cli._dataset_config(cfg))
    return cfg, data, cli._build_model(cfg, data["concepts"], data["manifest"])


def stream(model, entity, modality, mlp):
    """One entity's projected [s, d_k] stream, embedded afresh."""
    f = embed_synthetic(entity, modality, model.embedder, concept=model.concept_of.get(entity))
    return mlp(Tensor(f.tokens[0]))


def full_stream_score(model, track_entity, frame_indices, prompt_entity):
    """Raw score of one (track window, prompt) pair: every frame fused on its own
    as 2-D streams, the full fused stream stacked, ST-pooled and compared."""
    mlps = model.mlps
    fP = stream(model, prompt_entity, PROMPT, mlps[PROMPT])
    # a stream the model has no MLP for (plain's global frames) is read by no projection
    per_frame = [
        full_stream(model.fusion_params,
                    stream(model, frame_entity(i), GLOBAL_FRAME, mlps[GLOBAL_FRAME])
                    if GLOBAL_FRAME in mlps else None,
                    stream(model, local_entity(track_entity, i), LOCAL_TRACK, mlps[LOCAL_TRACK]),
                    fP)[0]
        for i in frame_indices]
    return cosine(st_pool(stack(per_frame)), mean_axis(fP, axis=0))


def per_pair_reference(trajectories, tasks, model, window, threshold):
    """Unbatched, unfactorised scoring: every (track, prompt) pair on its own."""
    by_id = {t.track_id: t for t in trajectories}
    out = []
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
    w -= lr*v."""
    for p, v in zip(params, velocities):
        v *= momentum
        v += p.grad
        p.data -= lr * v
        p.grad = None


def per_sample_train(samples, trajectories, tasks, model, epochs, batch_size, lr,
                     momentum, neg_margin, seed):
    """Reference training loop: one full-stream graph per window
    (``full_stream_score``), the windows' losses stacked and averaged over
    the batch."""
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
                loss = mean_axis(stack(losses), axis=0)
                total += loss.item() * len(losses)
                loss.backward()
            momentum_loop(params, velocities, lr, momentum)
        curve.append(total / len(samples))
    return curve


@pytest.fixture(scope="module")
def small_data():
    return generate_synthetic_dataset(SMALL)


@pytest.fixture
def mlp_calls(monkeypatch):
    """(kind, MLP, input shape) of each projection-MLP call: ``__call__`` of a
    whole MLP (Linear, GELU, Linear), or ``hidden`` of a scoring form's local
    MLP (Linear, GELU), told apart by its ``second`` being None."""
    calls = []
    original = features.ProjectionMLP.__call__

    def counted(mlp, x):
        calls.append(("__call__" if mlp.second is not None else "hidden", mlp, x.shape))
        return original(mlp, x)

    monkeypatch.setattr(features.ProjectionMLP, "__call__", counted)
    return calls


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
        with pytest.raises(DataFileError, match="meta.json: concepts must be a list of strs"):
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

    @pytest.mark.parametrize("variant,kw", GRADCHECK_CONFIGS,
                             ids=["/".join([v, *kw]) for v, kw in GRADCHECK_CONFIGS])
    @pytest.mark.parametrize("mlp_hidden", [16, 8, 5])
    def test_matches_per_pair_reference(self, small_data, variant, kw, mlp_hidden):
        # the scoring form against the unfolded chain; d_k is 8, so a hidden
        # width of 16 or 5 tells an attention scale of 1/sqrt(h) from 1/sqrt(d_k)
        model = small_model(small_data, variant=variant, mlp_hidden=mlp_hidden, **kw)
        # biases start at zero: give every Linear one, so that each composed
        # bias counts
        rng = np.random.default_rng(mlp_hidden)
        for linear in model.linears.values():
            linear.bias.data[...] = rng.standard_normal(linear.bias.data.shape)
        # tracks of different lengths, so their windows cover different frames
        trajs = [Trajectory(track_id=t.track_id, frames=t.frames[:len(t.frames) - i % 3],
                            entity_id=t.entity_id)
                 for i, t in enumerate(small_data["trajectories"])]
        tasks = small_data["tasks"]
        threshold = 0.1
        got = score_all(trajs, tasks, model, window=3, threshold=threshold,
                        stats=None)
        want = per_pair_reference(trajs, tasks, model, window=3, threshold=threshold)
        assert [(c.prompt_id, c.track_id, c.kept) for c in got] == \
               [(c.prompt_id, c.track_id, c.kept) for c in want]
        assert max(abs(a.raw_score - b.raw_score) for a, b in zip(got, want)) <= 1e-12
        assert all(c.refined_score == c.raw_score for c in got)

    def test_projects_each_prompt_and_global_window_once(self, small_data, mlp_calls):
        trajs = [Trajectory(track_id=t.track_id, frames=t.frames[:len(t.frames) - i % 2],
                            entity_id=t.entity_id)
                 for i, t in enumerate(small_data["trajectories"])]
        model = small_model(small_data)
        score_all(trajs, small_data["tasks"], model, window=3)
        # one whole-MLP call for all prompts and one per distinct global window;
        # the local tracks stop at the hidden activations, one call per track
        # window. The scoring form's MLPs are new, over constants that share the
        # model's first Linears' arrays
        name = {id(model.mlps[m].first.w.data): n for m, n in MLPS.items()}
        assert (mlp_calls[0][0], name[id(mlp_calls[0][1].first.w.data)]) == \
            ("__call__", "mlp_prompt")
        assert mlp_calls[0][2][0] == len(small_data["tasks"])
        assert sorted((e, name[id(m.first.w.data)]) for e, m, _ in mlp_calls[1:]) == \
            [("__call__", "mlp_global")] * 2 + [("hidden", "mlp_local")] * len(trajs)

    @pytest.mark.parametrize("variant,kw", GRADCHECK_CONFIGS,
                             ids=["/".join([v, *kw]) for v, kw in GRADCHECK_CONFIGS])
    def test_records_no_graph(self, small_data, monkeypatch, variant, kw):
        # the model's weights require gradients, but the scoring form holds
        # constants over them, so no op of the pass records a backward
        model = small_model(small_data, variant=variant, **kw)
        assert all(p.requires_grad for p in model.parameters())
        made = []
        init = Tensor.__init__

        def recorded(t, *args, **kwargs):
            init(t, *args, **kwargs)
            made.append((t.requires_grad, t._backward is not None))

        monkeypatch.setattr(Tensor, "__init__", recorded)
        score_all(small_data["trajectories"], small_data["tasks"], model, window=3)
        assert len(made) > 20 and set(made) == {(False, False)}

    def test_plain_embeds_and_projects_no_global_frame(self, small_data, monkeypatch):
        # no projection of plain reads the global frames, in scoring or training
        modalities = []
        embed = features.embed_synthetic

        def counted(entity_id, modality, *args, **kw):
            modalities.append(modality)
            return embed(entity_id, modality, *args, **kw)

        monkeypatch.setattr(features, "embed_synthetic", counted)
        model = small_model(small_data, variant="plain")
        got = score_all(small_data["trajectories"], small_data["tasks"], model, window=3)
        assert len(got) == len(small_data["trajectories"]) * len(small_data["tasks"])
        train(small_data["samples"], small_data["trajectories"], small_data["tasks"], model,
              epochs=1, batch_size=4, lr=1e-3)
        assert GLOBAL_FRAME not in modalities and LOCAL_TRACK in modalities
        # nor does it build, train or save a global MLP
        assert model.streams == tuple(model.mlps) == (LOCAL_TRACK, PROMPT)
        assert not any(n.startswith("mlp_global.") for n in model.linears)

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
    return [c for c in refine_threshold_sort(raw, None, threshold)
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

    @pytest.mark.parametrize("variant,kw", VARIANTS, ids=VARIANT_IDS)
    def test_never_takes_the_composed_path(self, small_data, mlp_calls, monkeypatch, variant,
                                           kw):
        # composed heads are constants: a training graph runs each MLP whole
        def composed(*args):
            raise AssertionError("composed heads in a training pass")

        monkeypatch.setattr(Linear, "then", composed)
        model = small_model(small_data, variant=variant, **kw)
        train(small_data["samples"], small_data["trajectories"], small_data["tasks"],
              model, epochs=1, batch_size=4, lr=1e-3)
        assert mlp_calls and {e for e, _, _ in mlp_calls} == {"__call__"}

    # graph nodes, the tensors made with a backward, in each toy training batch:
    # the dispatch cost that bounds toy-dims training
    NODES_PER_TOY_BATCH = {"mex": 16, "mex/per_pair": 20, "mex/residual_add": 18,
                           "mex/per_pair/residual_add": 22, "cascade": 19, "plain": 12}

    @pytest.mark.parametrize("variant,kw", GRADCHECK_CONFIGS,
                             ids=["/".join([v, *kw]) for v, kw in GRADCHECK_CONFIGS])
    def test_graph_nodes_per_toy_batch(self, monkeypatch, variant, kw):
        cfg, data, model = toy_run(variant, **kw)
        p = cfg["pipeline"]
        made, per_batch = [0], []
        init, backward = Tensor.__init__, Tensor.backward

        def counted(t, *args, **kwargs):
            init(t, *args, **kwargs)
            made[0] += t._backward is not None

        def counted_backward(t):
            per_batch.append(made[0])
            made[0] = 0
            backward(t)

        monkeypatch.setattr(Tensor, "__init__", counted)
        monkeypatch.setattr(Tensor, "backward", counted_backward)
        train(data["samples"], data["trajectories"], data["tasks"], model, epochs=1,
              batch_size=p["batch_size"], lr=p["lr"], momentum=p["momentum"],
              neg_margin=p["neg_margin"], seed=cfg["seed"])
        name = "/".join([variant, *kw])
        assert len(per_batch) == cfg["dataset"]["n_windows"] // p["batch_size"]
        assert per_batch == [self.NODES_PER_TOY_BATCH[name]] * len(per_batch)

    @pytest.mark.parametrize("variant,kw", VARIANTS, ids=VARIANT_IDS)
    def test_every_parameter_has_a_gradient_after_each_batch(self, small_data, monkeypatch,
                                                             variant, kw):
        # the optimizer updates every parameter in each step: a batch of one
        # window reaches each of them
        model = small_model(small_data, variant=variant, **kw)
        has_grad = []
        step = MomentumSGD.step

        def recorded(opt):
            assert [id(p) for p in opt.params] == [id(p) for p in model.parameters()]
            has_grad.append([p.grad is not None for p in opt.params])
            step(opt)

        monkeypatch.setattr(MomentumSGD, "step", recorded)
        train(small_data["samples"], small_data["trajectories"], small_data["tasks"],
              model, epochs=1, batch_size=1, lr=0.05, momentum=0.9)
        assert len(has_grad) == len(small_data["samples"])
        assert all(all(flags) for flags in has_grad)

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
        _, data, model = toy_run()
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
        # the batch's step, and the forward pass that checks the last step's weights
        assert len(ledgers) == 2
        assert products and sum(ledger.flops for ledger in ledgers) == sum(products)

    def test_paper_dims_score_pass(self, products, mlp_calls):
        # the paper-score benchmark's inputs at seed 12: 40 tracks, 8 prompts, window 8
        data = generate_synthetic_dataset(DatasetConfig(
            seed=12, n_concepts=4, n_tracks=40, n_prompts=8, n_frames=12, n_windows=8, window=8))
        model = ReferringModel.build(
            EmbedderConfig(seed=12, oracle_mode=True, concepts=tuple(data["concepts"])),
            seed=12, concept_of=concept_map(data["manifest"]))
        with fresh_context() as ctx:
            score_all(data["trajectories"], data["tasks"], model, window=8)
        assert ctx.ledger.flops == sum(products)
        # the local MLP's last layer composed into the projection that reads
        # the local tracks, which each window applies to its hidden rows once
        assert (len(products), sum(products), len(mlp_calls)) == (288, 1_709_801_472, 42)
        # each window meets every prompt in order, so it takes the prompt terms as they are
        assert ctx.ledger.peak_values == 10_266_176

    @pytest.mark.parametrize("variant,kw,maps", [
        ("mex", {}, 1), ("mex", {"per_pair": True}, 3), ("cascade", {}, 1), ("plain", {}, 1)],
        ids=["mex", "mex-per_pair", "cascade", "plain"])
    def test_a_window_applies_each_composed_map_once(self, monkeypatch, variant, kw, maps):
        # the products that read a track window's hidden rows a [8, 16, h], at
        # paper dims with h = 192 != d_k: one [128, h] x [h, d_k] per map
        # c = proj∘second that the scoring form holds, and no other
        hidden_rows, read = [], []
        original, matmul2d = features.ProjectionMLP.__call__, kernels.matmul2d

        def mlp(m, x):
            out = original(m, x)
            if m.second is None:
                hidden_rows.append(out.data)
            return out

        def recorded(a, b):
            if any(np.shares_memory(x, h) for x in (a, b) for h in hidden_rows):
                read.append((a.shape, b.shape))
            return matmul2d(a, b)

        monkeypatch.setattr(features.ProjectionMLP, "__call__", mlp)
        monkeypatch.setattr(kernels, "matmul2d", recorded)
        data = generate_synthetic_dataset(DatasetConfig(
            seed=12, n_concepts=4, n_tracks=40, n_prompts=8, n_frames=12, n_windows=8, window=8))
        model = ReferringModel.build(
            EmbedderConfig(seed=12, oracle_mode=True, concepts=tuple(data["concepts"])),
            variant=variant, mlp_hidden=192, seed=12, concept_of=concept_map(data["manifest"]),
            **kw)
        score_all(data["trajectories"], data["tasks"], model, window=8)
        assert len(hidden_rows) == 40
        assert read == [((128, 192), (192, 256))] * 40 * maps


MLPS = {GLOBAL_FRAME: "mlp_global", LOCAL_TRACK: "mlp_local", PROMPT: "mlp_prompt"}


def streams_read(variant):
    """The modalities whose MLP a variant builds: plain reads no global frame."""
    return (LOCAL_TRACK, PROMPT) if variant == "plain" else tuple(MLPS)


class TestPersistence:
    @pytest.mark.parametrize("variant,kw", VARIANTS, ids=VARIANT_IDS)
    def test_round_trip(self, small_data, tmp_path, variant, kw):
        model = small_model(small_data, variant=variant, **kw)
        model.save(tmp_path / "m")
        # the fusion projections by sorted name, then the first and second
        # layer of each MLP the variant reads; each weight before its bias
        fused = linear_names(variant, kw.get("per_pair", False))
        names = [f"fusion.{n}.{part}" for n in sorted(fused) for part in ("w", "bias")]
        names += [f"{MLPS[m]}.{layer}.{part}" for m in streams_read(variant)
                  for layer in ("first", "second") for part in ("w", "bias")]
        assert json.loads((tmp_path / "m" / "params.json").read_text())["params"] == names
        loaded = ReferringModel.load(tmp_path / "m", model.concept_of)
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
    def test_scoring_leaves_the_model_unchanged(self, small_data, tmp_path, variant, kw):
        # scoring goes through a new, re-parameterised model, never an edit of this one
        model = small_model(small_data, variant=variant, **kw)
        linears = dict(model.linears)
        model.save(tmp_path / "before")
        score_all(small_data["trajectories"], small_data["tasks"], model, window=3)
        assert list(model.linears) == list(linears)
        assert all(model.linears[n] is linear for n, linear in linears.items())
        assert model.mlps[LOCAL_TRACK].second is linears["mlp_local.second"]
        model.save(tmp_path / "after")
        files = sorted(p.name for p in (tmp_path / "before").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "after").iterdir())
        for name in files:
            assert (tmp_path / "before" / name).read_bytes() == \
                (tmp_path / "after" / name).read_bytes()

    @pytest.mark.parametrize("variant,kw", VARIANTS, ids=VARIANT_IDS)
    def test_build_draw_order(self, small_data, variant, kw):
        model = small_model(small_data, variant=variant, seed=11, **kw)
        emb, hidden = model.embedder, 16
        d_k = emb.fused_dim
        # one rng: the fusion projections in linear_names order, then the
        # global (if read), local and prompt MLPs, each first then second
        rng = np.random.default_rng(11)
        want = {f"fusion.{n}": Linear.init(d_k, d_k, rng)
                for n in linear_names(variant, kw.get("per_pair", False))}
        for m in streams_read(variant):
            d_raw = emb.raw_text_dim if m == PROMPT else emb.raw_visual_dim
            want[f"{MLPS[m]}.first"] = Linear.init(d_raw, hidden, rng)
            want[f"{MLPS[m]}.second"] = Linear.init(hidden, d_k, rng)
        assert sorted(model.linears) == sorted(want)
        for name, lin in want.items():
            assert np.array_equal(model.linears[name].w.data, lin.w.data)
            assert np.array_equal(model.linears[name].bias.data, lin.bias.data)
        # the fusion block and the MLPs are wired from that one table
        for n, lin in model.fusion_params.linears.items():
            assert lin is model.linears[f"fusion.{n}"]
        assert tuple(model.mlps) == streams_read(variant)
        for m, mlp in model.mlps.items():
            assert mlp.first is model.linears[f"{MLPS[m]}.first"]
            assert mlp.second is model.linears[f"{MLPS[m]}.second"]

    @pytest.mark.parametrize("variant,kw", VARIANTS, ids=VARIANT_IDS)
    def test_a_loaded_model_trains_and_saves_as_a_built_one(self, small_data, tmp_path,
                                                           variant, kw):
        # a loaded model's weights are mapped read-only from its files;
        # MomentumSGD trains copies of them in its own buffer
        def files(name):
            return {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}

        built = small_model(small_data, variant=variant, **kw)
        built.save(tmp_path / "m")
        loaded = ReferringModel.load(tmp_path / "m", built.concept_of)
        assert not any(p.data.flags.writeable for p in loaded.parameters())
        args = (small_data["samples"], small_data["trajectories"], small_data["tasks"])
        kwargs = dict(epochs=2, batch_size=4, lr=0.05, momentum=0.9, neg_margin=-0.1)
        assert train(*args, loaded, **kwargs) == train(*args, built, **kwargs)
        built.save(tmp_path / "built")
        loaded.save(tmp_path / "loaded")
        assert files("loaded") == files("built") != files("m")

    def test_plain_model_with_a_saved_global_mlp_loads(self, small_data, tmp_path):
        # older versions built, trained and saved plain's unread global MLP:
        # its files and its names in params.json are ignored
        model = small_model(small_data, variant="plain")
        model.save(tmp_path / "m")
        path = tmp_path / "m" / "params.json"
        manifest = json.loads(path.read_text())
        rng = np.random.default_rng(5)
        extra = []
        for layer, shape in (("first", (16, 16)), ("second", (16, 8))):
            for part, t in zip(("w", "bias"), Linear.init(*shape, rng).parameters()):
                tensor_io.write_tensor(tmp_path / "m" / f"mlp_global.{layer}.{part}.mext", t.data)
                extra.append(f"mlp_global.{layer}.{part}")
        at = manifest["params"].index("mlp_local.first.w")
        manifest["params"][at:at] = extra
        path.write_text(json.dumps(manifest))
        loaded = ReferringModel.load(tmp_path / "m", model.concept_of)
        assert sorted(loaded.linears) == sorted(model.linears)
        kw = dict(window=3)
        assert score_all(small_data["trajectories"], small_data["tasks"], loaded, **kw) == \
               score_all(small_data["trajectories"], small_data["tasks"], model, **kw)

    def test_missing_file_named(self, small_data, tmp_path):
        small_model(small_data).save(tmp_path / "m")
        (tmp_path / "m" / "fusion.proj_t.bias.mext").unlink()
        with pytest.raises(DataFileError, match="fusion.proj_t.bias.mext"):
            ReferringModel.load(tmp_path / "m", concept_map(small_data["manifest"]))

    def test_d_k_other_than_the_embedder_width_named(self, small_data, tmp_path):
        small_model(small_data).save(tmp_path / "m")
        path = tmp_path / "m" / "params.json"
        manifest = json.loads(path.read_text())
        manifest["fusion"]["d_k"] = 16
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataFileError,
                           match=r"params.json: fusion.d_k 16 is not embedder.fused_dim 8"):
            ReferringModel.load(tmp_path / "m", concept_map(small_data["manifest"]))

    def test_shape_mismatch_named(self, small_data, tmp_path):
        small_model(small_data).save(tmp_path / "m")
        tensor_io.write_tensor(tmp_path / "m" / "mlp_prompt.first.w.mext", np.zeros((24, 15)))
        with pytest.raises(DataFileError, match=r"mlp_prompt.first.w.mext.*\(24, 16\)"):
            ReferringModel.load(tmp_path / "m", concept_map(small_data["manifest"]))


# the loaded projections each stage of a scoring pass holds beyond the local
# MLP's first layer: the global stage's, and those a window's stage-1 output
# meets (cascade's s2_q)
GLOBAL_STAGE = {"mex": {"fusion.proj_i"}, "mex/per_pair": {"fusion.q_it"},
                "cascade": {"fusion.s1_k", "fusion.s1_v"}}
WINDOW_STAGE = {"mex": set(), "mex/per_pair": set(), "cascade": {"fusion.s2_q"},
                "plain": set()}
# the projections that read the local tracks: a scoring form holds each
# composed after the local MLP's last layer, under its own name
COMPOSED = {"mex": {"fusion.proj_t"}, "mex/per_pair": {"fusion.k_it", "fusion.q_tp", "fusion.v_t"},
            "cascade": {"fusion.s1_q"}, "plain": {"fusion.q"}}


class TestStagedScoring:
    @pytest.mark.parametrize("variant,kw", GRADCHECK_CONFIGS,
                             ids=["/".join([v, *kw]) for v, kw in GRADCHECK_CONFIGS])
    def test_each_local_track_projection_is_composed_under_its_name(self, small_data, variant,
                                                                    kw):
        model = small_model(small_data, variant=variant, **kw)
        rng = np.random.default_rng(8)
        for linear in model.linears.values():  # non-zero biases, so each bias term counts
            linear.bias.data[...] = rng.standard_normal(linear.bias.data.shape)
        second, form = model.linears["mlp_local.second"], model.scoring_form()
        composed = COMPOSED["mex/per_pair" if kw.get("per_pair") else variant]
        assert set(form.linears) == set(model.linears) - {"mlp_local.second"}
        assert form.mlps[LOCAL_TRACK].second is None
        for name, lin in form.linears.items():
            assert not lin.w.requires_grad and not lin.bias.requires_grad, name
            if name in composed:
                c = second.then(model.linears[name])
                assert (lin.d_in, lin.d_out) == (16, 8), name
                assert np.array_equal(lin.w.data, c.w.data), name
                assert np.array_equal(lin.bias.data, c.bias.data), name
            else:
                assert lin.w.data is model.linears[name].w.data, name
                assert lin.bias.data is model.linears[name].bias.data, name
            assert form.fusion_params.linears.get(name.removeprefix("fusion."), lin) is lin

    @pytest.mark.parametrize("variant,kw", GRADCHECK_CONFIGS,
                             ids=["/".join([v, *kw]) for v, kw in GRADCHECK_CONFIGS])
    def test_no_local_track_projection_reads_another_stream(self, small_data, variant, kw):
        # the scoring form swaps each of them for a map from the local MLP's
        # hidden rows, under the same name: a stream of another width must
        # never reach it
        fp = small_model(small_data, variant=variant, **kw).fusion_params
        local = set(reads(fp, LOCAL_TRACK))
        assert local
        for m in (GLOBAL_FRAME, PROMPT):
            assert local.isdisjoint(reads(fp, m)), m

    def test_shared_mex_holds_one_prompt_tensor(self, small_data, monkeypatch):
        # shared mex's one f(P) is the prompts' keys and their values
        seen = []
        forward_window = ReferringModel.forward_window

        def observed(form, glob, local_tokens, prompts, idx):
            seen.append(prompts[0]["k"] is prompts[0]["v"])
            return forward_window(form, glob, local_tokens, prompts, idx)

        monkeypatch.setattr(ReferringModel, "forward_window", observed)
        score_all(small_data["trajectories"], small_data["tasks"], small_model(small_data),
                  window=3)
        assert seen and all(seen)

    @pytest.mark.parametrize("variant,kw", GRADCHECK_CONFIGS,
                             ids=["/".join([v, *kw]) for v, kw in GRADCHECK_CONFIGS])
    def test_score_holds_only_the_running_stages_weights(self, tmp_path, monkeypatch,
                                                        variant, kw):
        # ``mexfuse score`` hands the loaded model to score_all and keeps no
        # reference: each stage's weights die when its stage ends, and of the
        # loaded Linears' arrays exactly those the running form holds, not
        # copied, stay alive
        cfg, data, model = toy_run(variant, **kw)
        save_dataset(tmp_path / "ds", data, cli._dataset_config(cfg))
        model.save(tmp_path / "model")
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        loaded, seen = {}, {}
        load = ReferringModel.load

        def recorded_load(in_dir, concept_of):
            m = load(in_dir, concept_of)
            loaded["model"] = weakref.ref(m)
            loaded["linears"] = {n: [weakref.ref(t.data) for t in lin.parameters()]
                                 for n, lin in m.linears.items()}
            return m

        def observe(stage, original):
            def observed(form, *args):
                if stage not in seen:  # names only: the test must hold no weight
                    alive = {n for n, refs in loaded["linears"].items()
                             if any(ref() is not None for ref in refs)}
                    same = all(t.data is ref() for n, lin in form.linears.items() if n in alive
                               for t, ref in zip(lin.parameters(), loaded["linears"][n]))
                    seen[stage] = (loaded["model"]() is None, alive, set(form.linears), same,
                                   set(form.mlps))
                return original(form, *args)
            return observed

        monkeypatch.setattr(ReferringModel, "load", recorded_load)
        for stage in ("global_terms", "forward_window"):
            monkeypatch.setattr(ReferringModel, stage,
                                observe(stage, getattr(ReferringModel, stage)))
        result = CliRunner().invoke(cli.main, [
            "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "run"), "score",
            "--dataset", str(tmp_path / "ds"), "--model", str(tmp_path / "model")],
            catch_exceptions=False)
        assert result.exit_code == 0, result.output
        key = "mex/per_pair" if kw.get("per_pair") else variant
        window = {"mlp_local.first"} | WINDOW_STAGE[key]
        stages = {"forward_window": (window, {LOCAL_TRACK})}
        if variant != "plain":
            stages["global_terms"] = (
                window | {"mlp_global.first", "mlp_global.second"} | GLOBAL_STAGE[key],
                {GLOBAL_FRAME, LOCAL_TRACK})
        assert set(seen) == set(stages)
        for stage, (names, mlps) in stages.items():
            model_dead, alive, linears, same, form_mlps = seen[stage]
            assert model_dead, stage
            # the loaded projections that read the local tracks died with the
            # composition; the form holds their composed maps under their names
            assert alive == names and linears == names | COMPOSED[key] and same, stage
            assert form_mlps == mlps, stage
        # the same scores as the in-memory model's, byte for byte
        write_scores(tmp_path / "want.jsonl", score_all(
            data["trajectories"], data["tasks"], model, window=cfg["pipeline"]["window"]))
        assert (tmp_path / "run" / "scores.jsonl").read_bytes() == \
            (tmp_path / "want.jsonl").read_bytes()


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
