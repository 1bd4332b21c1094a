import numpy as np
import pytest

from mexfuse.fusion import (
    global_terms,
    last_stage,
    pooled_score,
    prompt_terms,
    visual_terms,
)
from mexfuse.tensor import (
    DimensionError,
    Tensor,
    attention_map,
    fresh_context,
    matmul,
    pooled_cosine,
)

from conftest import cosine, full_stream, fusion_params, st_pool, sum_all


# ---- independent straight-from-formula oracles -----------------------------
# Streams are [..., tokens, d_k]; leading axes broadcast as in np.matmul.


def oracle_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def T(x):
    return np.swapaxes(x, -1, -2)


def oracle_attention(q, k, v):
    return oracle_softmax(q @ T(k) / np.sqrt(q.shape[-1])) @ v


def apply_linear(lin, x):
    return x @ lin.w.data + lin.bias.data


def oracle_mex(fI, fT, fP, params):
    L = params.linears
    if params.per_pair:
        q_it, k_it = apply_linear(L["q_it"], fI), apply_linear(L["k_it"], fT)
        q_tp, k_tp = apply_linear(L["q_tp"], fT), apply_linear(L["k_tp"], fP)
        v_t, v_p = apply_linear(L["v_t"], fT), apply_linear(L["v_p"], fP)
    else:
        q_it = apply_linear(L["proj_i"], fI)
        k_it = q_tp = v_t = apply_linear(L["proj_t"], fT)
        k_tp = v_p = apply_linear(L["proj_p"], fP)
    rd = np.sqrt(params.d_k)
    p_it = oracle_softmax(q_it @ T(k_it) / rd)
    p_tp = oracle_softmax(q_tp @ T(k_tp) / rd)
    fused = p_it @ v_t + (p_it @ p_tp) @ v_p
    if params.residual_add:
        fused = fused + q_it
    return fused


def oracle_cascade(fL, fG, fP, params):
    L = params.linears
    rd = np.sqrt(params.d_k)

    def stage(x_q, x_kv, qn, kn, vn):
        q, k, v = apply_linear(L[qn], x_q), apply_linear(L[kn], x_kv), apply_linear(L[vn], x_kv)
        return oracle_softmax(q @ T(k) / rd) @ v + q

    mid = stage(fL, fG, "s1_q", "s1_k", "s1_v")
    return stage(mid, fP, "s2_q", "s2_k", "s2_v")


def oracle_plain(fL, fP, params):
    L = params.linears
    return oracle_attention(apply_linear(L["q"], fL), apply_linear(L["k"], fP),
                            apply_linear(L["v"], fP))


def oracle_fused(variant, fG, fL, fP, params):
    """The full fused stream of any variant, from the formulas."""
    if variant == "mex":
        return oracle_mex(fG, fL, fP, params)
    if variant == "cascade":
        return oracle_cascade(fL, fG, fP, params)
    return oracle_plain(fL, fP, params)


def oracle_score(fused, target):
    """Cosine of ST-pooled [..., frames, tokens, d] streams (token mean, then
    frame max) with [..., d] targets."""
    pooled = fused.mean(axis=-2).max(axis=-2)
    return (pooled * target).sum(axis=-1) / (
        np.linalg.norm(pooled, axis=-1) * np.linalg.norm(target, axis=-1))


def identity_params(variant, d_k, **kw):
    params = fusion_params(variant, d_k, np.random.default_rng(0), **kw)
    for lin in params.linears.values():
        lin.w.data = np.eye(d_k)
        lin.bias.data = np.zeros(d_k)
    return params


def random_streams(rng, g, t, l, d_k, frames=()):
    """Global, local and prompt streams; ``frames`` leads the first two."""
    return (rng.standard_normal(frames + (g, d_k)), rng.standard_normal(frames + (t, d_k)),
            rng.standard_normal((l, d_k)))


def pooled(params, fG, fL, fP, target):
    """The pooled scoring path on arrays: the window's score against each prompt."""
    visual = visual_terms(params, global_terms(params, Tensor(fG)), Tensor(fL))
    return pooled_score(params, visual, prompt_terms(params, Tensor(fP)), Tensor(target)).data


# ---- scaled dot-product attention ------------------------------------------


def attention(q, k, v):
    """softmax(q k^T / sqrt(d_k)) v, as the plain block composes it."""
    return matmul(attention_map(q, k), v)


class TestAttention:
    def test_single_key_broadcasts_value(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((4, 3))
        v = rng.standard_normal((1, 5))
        out = attention(Tensor(q), Tensor(rng.standard_normal((1, 3))), Tensor(v))
        assert np.abs(out.data - np.repeat(v, 4, axis=0)).max() <= 1e-12

    def test_large_scale_selects_rows(self):
        big = 1000.0
        q = k = np.eye(2) * big
        v = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = attention(Tensor(q), Tensor(k), Tensor(v))
        assert np.abs(out.data - v).max() <= 1e-9

    def test_matches_two_step_oracle(self):
        rng = np.random.default_rng(1)
        q, k, v = rng.standard_normal((3, 4)), rng.standard_normal((5, 4)), rng.standard_normal((5, 2))
        out = attention(Tensor(q), Tensor(k), Tensor(v))
        assert np.abs(out.data - oracle_attention(q, k, v)).max() <= 1e-12

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            attention(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))), Tensor(np.ones((2, 4))))


# ---- MEX attention ---------------------------------------------------------


class TestMexAttention:
    def test_single_token_collapse(self):
        # t = l = 1: all softmaxes collapse to 1, so each fused row, and the
        # pooled row the folded last stage gives, is fT + fP
        params = identity_params("mex", 4)
        rng = np.random.default_rng(2)
        fI, fT, fP = random_streams(rng, 3, 1, 1, 4, frames=(1,))
        visual = visual_terms(params, global_terms(params, Tensor(fI)), Tensor(fT))
        last = last_stage(params, visual, prompt_terms(params, Tensor(fP)))
        row = last.map.data @ last.values.data + last.residual.data
        assert np.abs(row - (fT + fP)).max() <= 1e-12

    def test_chained_map_row_stochastic(self):
        # the folded maps are the row means of p_it and of p_itp = p_it @ p_tp
        rng = np.random.default_rng(3)
        params = fusion_params("mex", 8, rng)
        fI, fT, fP = random_streams(rng, 3, 4, 5, 8, frames=(2,))
        visual = visual_terms(params, global_terms(params, Tensor(fI)), Tensor(fT))
        last = last_stage(params, visual, prompt_terms(params, Tensor(fP)))
        _, maps = full_stream(params, Tensor(fI), Tensor(fT), Tensor(fP))
        for got, full in ((visual["pbar"], maps["it"]), (last.map, maps["itp"])):
            assert got.shape == (2, 1, full.shape[-1])
            assert np.abs(got.data.sum(axis=-1) - 1).max() <= 1e-9
            assert np.abs(got.data - full.data.mean(axis=-2, keepdims=True)).max() <= 1e-12

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(4)
        params = fusion_params("mex", 8, rng)
        fI, fT, fP = random_streams(rng, 3, 4, 5, 8, frames=(3,))
        target = rng.standard_normal(8)
        want = oracle_score(oracle_mex(fI, fT, fP, params), target)
        assert np.abs(pooled(params, fI, fT, fP, target) - want).max() <= 1e-10

    @pytest.mark.parametrize("per_pair,residual", [(True, False), (False, True)])
    def test_variants_match_oracle(self, per_pair, residual):
        rng = np.random.default_rng(5)
        params = fusion_params("mex", 8, rng, per_pair=per_pair, residual_add=residual)
        fI, fT, fP = random_streams(rng, 2, 3, 4, 8, frames=(2,))
        target = rng.standard_normal(8)
        want = oracle_score(oracle_mex(fI, fT, fP, params), target)
        assert np.abs(pooled(params, fI, fT, fP, target) - want).max() <= 1e-10

    def test_permutation_equivariance(self):
        # the fused rows, and so the score, do not depend on the order of fT's tokens
        rng = np.random.default_rng(6)
        params = fusion_params("mex", 8, rng)
        fI, fT, fP = random_streams(rng, 3, 5, 4, 8, frames=(2,))
        target = rng.standard_normal(8)
        base = pooled(params, fI, fT, fP, target)
        permuted = pooled(params, fI, fT[:, rng.permutation(5)], fP, target)
        assert np.abs(base - permuted).max() <= 1e-10

    def test_channel_mismatch(self):
        params = fusion_params("mex", 8, np.random.default_rng(0))
        with pytest.raises(DimensionError):
            pooled(params, np.ones((1, 2, 8)), np.ones((1, 2, 4)), np.ones((2, 8)), np.ones(8))


# ---- cascade attention -----------------------------------------------------


class TestCascadeAttention:
    def test_single_prompt_token(self):
        # identity projections: stage-2 output = stage-1 output + projected value row
        params = identity_params("cascade", 4)
        rng = np.random.default_rng(7)
        fG, fL, fP = random_streams(rng, 2, 3, 1, 4, frames=(1,))
        target = rng.standard_normal(4)
        stage1 = oracle_attention(fL, fG, fG) + fL
        want = oracle_score((stage1 + fP)[None], target)
        assert np.abs(pooled(params, fG, fL, fP, target) - want).max() <= 1e-10

    def test_matches_composed_oracle(self):
        rng = np.random.default_rng(8)
        params = fusion_params("cascade", 8, rng)
        fG, fL, fP = random_streams(rng, 3, 4, 5, 8, frames=(3,))
        target = rng.standard_normal(8)
        want = oracle_score(oracle_cascade(fL, fG, fP, params), target)
        assert np.abs(pooled(params, fG, fL, fP, target) - want).max() <= 1e-10

    def test_census_exceeds_mex(self):
        rng = np.random.default_rng(9)
        mex = fusion_params("mex", 256, rng)
        cascade = fusion_params("cascade", 256, rng)
        assert census(cascade) > census(mex)
        # census equals the analytic formula over registered linears
        assert census(mex) == 3 * (256 * 256 + 256)
        assert census(cascade) == 6 * (256 * 256 + 256)


# ---- pooling and block counts ----------------------------------------------


class TestStPool:
    """The ST pooling of the full-stream references (``conftest.st_pool``)."""

    def test_single_frame_single_token_identity(self):
        x = np.array([[[1.0, -2.0, 3.0]]])
        assert np.array_equal(st_pool(Tensor(x)).data, x[0, 0])

    def test_avg_then_max(self):
        x = np.array([[[1.0, 1.0]], [[3.0, 3.0]]])  # 2 frames, 1 token, d=2
        assert np.array_equal(st_pool(Tensor(x)).data, [3.0, 3.0])

    def test_matches_sequential_oracle(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((4, 5, 3))
        expected = x.mean(axis=1).max(axis=0)
        assert np.array_equal(st_pool(Tensor(x)).data, expected)

    def test_batched_matches_per_window(self):
        x = np.random.default_rng(12).standard_normal((2, 4, 5, 3))  # [windows, frames, tokens, d]
        out = st_pool(Tensor(x)).data
        assert out.shape == (2, 3)
        for i in range(2):
            assert np.array_equal(out[i], st_pool(Tensor(x[i])).data)


POOLED_CASES = pytest.mark.parametrize("variant,kw", [
    ("mex", {}), ("mex", {"per_pair": True}), ("mex", {"residual_add": True}),
    ("cascade", {}), ("plain", {})],
    ids=["mex", "mex-per_pair", "mex-residual_add", "cascade", "plain"])


class TestPooledScore:
    """The pooled path (token mean taken before the last product) against
    full fused streams, pooled and compared."""

    @POOLED_CASES
    def test_equals_full_stream_score(self, variant, kw):
        # against the numpy formula oracles, with [P, 1, l, d_k] prompts
        # broadcast over the w frames of one window
        rng = np.random.default_rng(14)
        worst = 0.0
        for _ in range(60):
            n_prompts, w = (int(n) for n in rng.integers(2, 5, size=2))
            g, t, l = rng.integers(1, 6, size=3)
            d_k = int(rng.choice([4, 8]))
            params = fusion_params(variant, d_k, rng, **kw)
            fG = rng.standard_normal((w, g, d_k))
            fL = rng.standard_normal((w, t, d_k))
            fP = rng.standard_normal((n_prompts, 1, l, d_k))
            target = rng.standard_normal((n_prompts, d_k))
            fused = oracle_fused(variant, fG, fL, fP, params)
            assert fused.shape[:2] == (n_prompts, w)
            got = pooled(params, fG, fL, fP, target)
            assert got.shape == (n_prompts,)
            worst = max(worst, np.abs(got - oracle_score(fused, target)).max())
        assert worst <= 1e-12

    @POOLED_CASES
    def test_pooled_cosine_equals_st_pool_score(self, variant, kw):
        # the one-node head against the tensor composition full_stream ->
        # st_pool -> cosine, with [P, 1, l, d_k] prompts broadcast over the
        # frames and with one shared prompt
        rng = np.random.default_rng(15)
        worst = 0.0
        for k in range(40):
            n_prompts, w = (int(n) for n in rng.integers(2, 5, size=2))
            g, t, l = rng.integers(1, 6, size=3)
            d_k = int(rng.choice([4, 8]))
            params = fusion_params(variant, d_k, rng, **kw)
            fG = Tensor(rng.standard_normal((w, g, d_k)))
            fL = Tensor(rng.standard_normal((w, t, d_k)))
            lead = (n_prompts, 1) if k % 2 else ()
            fP = Tensor(rng.standard_normal(lead + (l, d_k)))
            target = Tensor(rng.standard_normal(lead[:1] + (d_k,)))
            fused, _ = full_stream(params, fG, fL, fP)
            want = cosine(st_pool(fused), target).data
            last = last_stage(params, visual_terms(params, global_terms(params, fG), fL),
                              prompt_terms(params, fP))
            got = pooled_cosine(last.map, last.values, last.residual, target).data
            assert got.shape == want.shape == lead[:1]
            worst = max(worst, np.abs(got - want).max())
        assert worst <= 1e-12


def census(params):
    """Trainable values of a fusion block's projections."""
    return sum(p.data.size for lin in params.linears.values() for p in lin.parameters())


def block_counts(variant, g, t, l, d_k, with_backward=False, windows=1, prompts=1):
    """Counts of one fusion block's pooled scoring pass on random d_k streams,
    forward and optionally backward, under a fresh ledger.

    The pass is the part of the one ``score`` makes after the projection
    MLPs, for a track window of ``windows`` frames (g global and t local
    tokens each) against ``prompts`` prompts of l tokens: ``global_terms``,
    ``visual_terms``, ``prompt_terms`` and ``pooled_score``, and with
    ``with_backward`` the backward pass of the scores' sum. Returns the
    block's parameter count, the values charged within the pass
    (``peak_values``, cumulative) and its multiply-adds (``flops``).
    """
    rng = np.random.default_rng(0)
    with fresh_context() as ctx:
        params = fusion_params(variant, d_k, rng)
        fGlobal = Tensor(rng.standard_normal((windows, g, d_k)))
        fLocal = Tensor(rng.standard_normal((windows, t, d_k)))
        prompt = rng.standard_normal((prompts, 1, l, d_k))  # broadcast over the frames
        fPrompt, target = Tensor(prompt), Tensor(prompt.mean(axis=-2)[:, 0])
        # parameters and inputs are not activations; count the pass only
        ctx.ledger.reset()
        visual = visual_terms(params, global_terms(params, fGlobal), fLocal)
        scores = pooled_score(params, visual, prompt_terms(params, fPrompt), target)
        if with_backward:
            sum_all(scores).backward()
        snap = ctx.ledger.snapshot()
    return {"param_count": census(params), **snap}


def full_stream_values(variant, g, t, l, d_k):
    """Values the ledger charges for one full fused stream (2-D streams, forward)."""
    rng = np.random.default_rng(0)
    with fresh_context() as ctx:
        params = fusion_params(variant, d_k, rng)
        streams = [Tensor(s) for s in random_streams(rng, g, t, l, d_k)]
        ctx.ledger.reset()
        full_stream(params, *streams)
        return ctx.ledger.peak_values


class TestBlockCounts:
    """The fusion block alone, on random d_k streams: one frame and one
    prompt unless a test says otherwise, no projection MLPs."""

    def test_plain_census_formula(self):
        row = block_counts("plain", 4, 4, 4, 16)
        assert row["param_count"] == 3 * (16 * 16 + 16)

    def test_paper_dims_direction(self):
        mex = block_counts("mex", 16, 16, 20, 256)
        cascade = block_counts("cascade", 16, 16, 20, 256)
        assert mex["param_count"] < cascade["param_count"]
        assert mex["peak_values"] < cascade["peak_values"]

    def test_paper_dims_counts(self):
        # op by op, one frame and one prompt; the head charges its pooled
        # row, the max and the cosine: 2d + 1, and the row mean of its map
        # when the map has more rows than one: l more for cascade's [t, l]
        # map, nothing for mex's one-row pbar @ p_tp
        g, t, l, d = 16, 16, 20, 256
        head = 2 * d + 1
        mex = (g + t + l) * d + g * t + t + d + t * l + l + head
        cascade = 2 * g * d + t * d + t * g + 3 * t * d + 2 * l * d + t * l + l + head
        assert block_counts("mex", g, t, l, d)["peak_values"] == mex == 14_693
        assert block_counts("cascade", g, t, l, d)["peak_values"] == cascade == 35_925

    @pytest.mark.parametrize("variant", ["mex", "cascade"])
    def test_flops_scale_quadratically(self, variant):
        lo = block_counts(variant, 16, 16, 20, 128)
        hi = block_counts(variant, 16, 16, 20, 256)
        assert 3.5 <= hi["flops"] / lo["flops"] <= 4.5

    def test_memory_ordering_across_configs(self):
        # the full fused stream, as tests/conftest.py composes it
        for d_k in (16, 32, 64):
            for g, t, l in ((2, 2, 2), (4, 3, 5), (16, 16, 20), (1, 2, 3)):
                if t * l <= 1:
                    continue
                mex = full_stream_values("mex", g, t, l, d_k)
                cascade = full_stream_values("cascade", g, t, l, d_k)
                assert mex < cascade, (g, t, l, d_k)

    def test_pooled_memory_ordering_across_configs(self):
        # the pooled pass that score and train run, over frames w and prompts P
        for d_k in (16, 32, 64, 256):
            for g, t, l in ((2, 2, 2), (4, 3, 5), (16, 16, 20), (1, 2, 3)):
                for w in (1, 8):
                    for n_prompts in (1, 8):
                        for bwd in (False, True):
                            kw = dict(windows=w, prompts=n_prompts, with_backward=bwd)
                            mex = block_counts("mex", g, t, l, d_k, **kw)
                            cascade = block_counts("cascade", g, t, l, d_k, **kw)
                            assert mex["peak_values"] < cascade["peak_values"], \
                                (g, t, l, d_k, w, n_prompts, bwd)

    def test_deterministic(self):
        assert block_counts("mex", 3, 4, 5, 16) == block_counts("mex", 3, 4, 5, 16)

    def test_backward_pass_counted(self):
        fwd = block_counts("mex", 3, 4, 5, 16)
        bwd = block_counts("mex", 3, 4, 5, 16, with_backward=True)
        assert bwd["flops"] > fwd["flops"]
