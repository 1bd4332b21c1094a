import json

import numpy as np
import pytest

from mexfuse.fusion import FusionParams, linear_names
from mexfuse.tensor import Linear, add, attention_map, matmul, mean_axis, node


TOY_CONFIG = {
    "seed": 7,
    "embedder": {"raw_visual_dim": 32, "visual_tokens": 4, "raw_text_dim": 48,
                 "text_tokens": 5, "mlp_hidden": 32},
    "fusion": {"variant": "mex", "d_k": 16},
    "pipeline": {"window": 4, "epochs": 100, "batch_size": 8, "lr": 0.05,
                 "momentum": 0.9, "neg_margin": -0.1},
    "dataset": {"n_concepts": 4, "n_tracks": 10, "n_prompts": 4,
                "n_frames": 12, "n_windows": 32},
}


@pytest.fixture
def toy_config_file(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(TOY_CONFIG))
    return str(path)


# ---- ops the tests build graphs with, on the engine's public ``node`` ------


def mul(a, b):
    """Elementwise product of two same-shape tensors."""

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return node(a.data * b.data, (a, b), bwd)


def sum_all(a):
    """The sum of every value of ``a``, as a scalar tensor."""

    def bwd(g):
        if a.requires_grad:
            a._accumulate(np.full_like(a.data, float(g)))

    return node(np.asarray(a.data.sum()), (a,), bwd)


def relu(x):
    mask = x.data > 0

    def bwd(g):
        if x.requires_grad:
            x._accumulate(g * mask)

    return node(np.where(mask, x.data, 0.0), (x,), bwd)


def stack(tensors):
    """Same-shape tensors stacked along a new leading axis."""

    def bwd(g):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(g[i])

    return node(np.stack([t.data for t in tensors]), tuple(tensors), bwd)


def sub(a, b):
    """a - b of two same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"sub: shape mismatch {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(-g)

    return node(a.data - b.data, (a, b), bwd)


def max_axis(a, axis):
    """Max along ``axis``; its gradient goes to the first maximum, as np.argmax picks it."""
    idx = np.expand_dims(np.argmax(a.data, axis=axis), axis)

    def bwd(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.put_along_axis(full, idx, np.expand_dims(g, axis), axis)
            a._accumulate(full)

    return node(np.max(a.data, axis=axis), (a,), bwd)


def cosine(a, b):
    """Unclamped cosine of same-shape [..., d] rows, [...]."""
    na, nb = np.linalg.norm(a.data, axis=-1), np.linalg.norm(b.data, axis=-1)
    den = na * nb
    c = (a.data * b.data).sum(axis=-1) / den

    def bwd(g):
        g, cn = g[..., None], c[..., None]
        if a.requires_grad:
            a._accumulate(g * (b.data / den[..., None] - cn * a.data / (na * na)[..., None]))
        if b.requires_grad:
            b._accumulate(g * (a.data / den[..., None] - cn * b.data / (nb * nb)[..., None]))

    return node(c, (a, b), bwd)


def st_pool(x):
    """Spatio-temporal pooling of [..., frames, tokens, d]: token mean, then frame max."""
    return max_axis(mean_axis(x, axis=-2), axis=-2)


# ---- the fusion block's full fused stream, as a reference ------------------


def fusion_params(variant, d_k, rng, residual_add=False, per_pair=False):
    """Params of fresh ``Linear.init`` projections, drawn in ``linear_names`` order."""
    return FusionParams(variant, d_k, {name: Linear.init(d_k, d_k, rng)
                                       for name in linear_names(variant, per_pair)},
                        residual_add=residual_add, per_pair=per_pair)


def full_stream(params, fG, fL, fP):
    """The whole fusion block, every map and product built as the formulas read.

    Returns the fused stream [..., g, d_k] (``g`` global tokens for mex,
    local tokens otherwise) and the attention maps by name. Streams are
    [..., tokens, d_k] tensors whose leading axes broadcast. The pooled
    path of ``mexfuse.fusion`` never builds this stream; the tests compare
    it against this composition, and the ledger charges it op by op.
    """
    L = params.linears
    if params.variant == "mex":
        if params.per_pair:
            q_it, k_it, v_t = L["q_it"](fG), L["k_it"](fL), L["v_t"](fL)
            q_tp, k_tp, v_p = L["q_tp"](fL), L["k_tp"](fP), L["v_p"](fP)
        else:
            q_it = L["proj_i"](fG)
            k_it = q_tp = v_t = L["proj_t"](fL)
            k_tp = v_p = L["proj_p"](fP)
        p_it = attention_map(q_it, k_it)
        it = matmul(p_it, v_t)
        residual = add(it, q_it) if params.residual_add else it
        p_tp = attention_map(q_tp, k_tp)
        p_itp = matmul(p_it, p_tp)
        fused = add(matmul(p_itp, v_p), residual)
        return fused, {"it": p_it, "tp": p_tp, "itp": p_itp}
    if params.variant == "cascade":
        q1 = L["s1_q"](fL)
        p1 = attention_map(q1, L["s1_k"](fG))
        q2 = L["s2_q"](add(matmul(p1, L["s1_v"](fG)), q1))
        p2 = attention_map(q2, L["s2_k"](fP))
        return add(matmul(p2, L["s2_v"](fP)), q2), {"it": p1, "tp": p2}
    q = L["q"](fL)
    p = attention_map(q, L["k"](fP))
    return matmul(p, L["v"](fP)), {"tp": p}
