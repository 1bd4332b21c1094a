"""Fusion block variants and their instrumentation.

Three interchangeable blocks over the projected modality streams:

* ``plain``   — one scaled dot-product attention (query = local tracks,
  key/value = prompt tokens).
* ``cascade`` — two sequential attentions with full query/key/value
  projections each; stage outputs add their query vector.
* ``mex``     — the memory-efficient triple-modality block: two
  row-stochastic maps chained by a matrix product, reusing one shared
  projection per modality.

Every forward pass is charged to the active ledger, so parameter counts,
the values charged in a pass, and multiply-add totals are exact and
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    DimensionError,
    Linear,
    Tensor,
    add,
    attention_map,
    cosine_similarity,
    fresh_context,
    matmul,
    max_axis,
    mean_axis,
    pooled_product,
    sum_all,
)

VARIANTS = ("mex", "cascade", "plain")


@dataclass
class FusionOutput:
    """The fused stream and, for inspection, the attention maps' arrays (not copies)."""

    fused: Tensor
    attn_it: np.ndarray | None = None
    attn_tp: np.ndarray | None = None
    attn_itp: np.ndarray | None = None


class FusionParams:
    """Learnable projections for one fusion variant, with parameter census.

    MEX defaults to one shared projection per modality (the same projected
    track/prompt features serve as keys and values, and the track projection
    is reused as the query of the second map). ``per_pair=True`` switches to
    separate query/key/value projections per modality pair, which brings the
    census up to the cascade block's.
    """

    def __init__(self, variant, d_k, rng, residual_add=False, per_pair=False,
                 requires_grad=True):
        self._setup(variant, d_k, residual_add, per_pair, {
            name: Linear.init(d_k, d_k, rng, requires_grad=requires_grad)
            for name in linear_names(variant, per_pair)})

    @classmethod
    def from_linears(cls, variant, d_k, linears, residual_add=False, per_pair=False):
        """Params made of given ``Linear``s, keyed as ``linear_names`` lists them."""
        self = cls.__new__(cls)
        self._setup(variant, d_k, residual_add, per_pair, dict(linears))
        return self

    def _setup(self, variant, d_k, residual_add, per_pair, linears):
        self.variant = variant
        self.d_k = d_k
        self.residual_add = residual_add
        self.per_pair = per_pair
        self.linears = linears

    def param_count(self):
        return sum(l.param_count() for l in self.linears.values())

    def parameters(self):
        out = []
        for name in sorted(self.linears):
            out.extend(self.linears[name].parameters())
        return out


def linear_names(variant, per_pair=False):
    """Names of a variant's d_k x d_k projections, in initialisation order."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if variant == "mex":
        return ("q_it", "k_it", "v_t", "q_tp", "k_tp", "v_p") if per_pair else \
            ("proj_i", "proj_t", "proj_p")
    if variant == "cascade":
        return ("s1_q", "s1_k", "s1_v", "s2_q", "s2_k", "s2_v")
    return ("q", "k", "v")


def _check_channels(params, *streams):
    for s in streams:
        if s.data.ndim < 2 or s.data.shape[-1] != params.d_k:
            raise DimensionError(
                f"stream shape {s.data.shape} incompatible with d_k={params.d_k}")


@dataclass
class LastStage:
    """A variant's last stage left factored: fused = map @ values + residual.

    ``maps`` holds the attention maps' arrays, as FusionOutput names them.
    """

    map: Tensor
    values: Tensor
    residual: Tensor | None
    maps: dict


# Each variant is split into four parts:
#   global(params, fGlobal)        -> terms of the global frames alone
#   visual(params, glob, fLocal)   -> prompt-independent terms of a track window
#   prompt(params, fPrompt)        -> terms of the prompt alone
#   joint(params, vis, txt)        -> the LastStage of the visual and prompt terms
# so a scoring pass computes each global window's terms and each prompt's
# terms once. Streams are [..., tokens, d_k]; leading axes (prompts, windows,
# frames) are batch axes and broadcast.


def _mex_global(params, fI):
    return {"q_it": params.linears["q_it" if params.per_pair else "proj_i"](fI)}


def _mex_visual(params, glob, fT):
    L = params.linears
    q_it = glob["q_it"]
    if params.per_pair:
        k_it, q_tp, v_t = L["k_it"](fT), L["q_tp"](fT), L["v_t"](fT)
    else:
        k_it = q_tp = v_t = L["proj_t"](fT)
    p_it = attention_map(q_it, k_it)
    it = matmul(p_it, v_t)
    return {"q_tp": q_tp, "p_it": p_it,
            "residual": add(it, q_it) if params.residual_add else it}


def _mex_prompt(params, fP):
    L = params.linears
    if params.per_pair:
        return {"k_tp": L["k_tp"](fP), "v_p": L["v_p"](fP)}
    k_tp = L["proj_p"](fP)
    return {"k_tp": k_tp, "v_p": k_tp}


def _mex_joint(params, vis, txt):
    """Triple-modality attention: two chained row-stochastic maps.

    p_it = softmax(f(I) f(T)^T / sqrt(d_k))          [g x t]
    p_tp = softmax(f(T) f(P)^T / sqrt(d_k))          [t x l]
    p_itp = p_it @ p_tp                              [g x l]
    fused = p_it @ f(T) + p_itp @ f(P)               [g x d_k]

    ``residual_add`` adds the projected query stream f(I) to the output.
    The last stage is p_itp @ f(P) with residual p_it @ f(T) (+ f(I)).
    """
    p_tp = attention_map(vis["q_tp"], txt["k_tp"])
    p_itp = matmul(vis["p_it"], p_tp)
    return LastStage(p_itp, txt["v_p"], vis["residual"],
                     {"attn_it": vis["p_it"].data, "attn_tp": p_tp.data,
                      "attn_itp": p_itp.data})


def _cascade_global(params, fGlobal):
    L = params.linears
    return {"k": L["s1_k"](fGlobal), "v": L["s1_v"](fGlobal)}


def _cascade_visual(params, glob, fLocal):
    """Stage 1 (local queries on the global frames, plus the query) and the stage-2 query."""
    L = params.linears
    q = L["s1_q"](fLocal)
    p1 = attention_map(q, glob["k"])
    mid = add(matmul(p1, glob["v"]), q)
    return {"q": L["s2_q"](mid), "p1": p1}


def _cascade_prompt(params, fP):
    L = params.linears
    return {"k": L["s2_k"](fP), "v": L["s2_v"](fP)}


def _cascade_joint(params, vis, txt):
    """Stage 2: the prompt attended from the stage-1 output, plus its query."""
    p2 = attention_map(vis["q"], txt["k"])
    return LastStage(p2, txt["v"], vis["q"], {"attn_it": vis["p1"].data, "attn_tp": p2.data})


def _plain_global(params, fGlobal):
    return {}


def _plain_visual(params, glob, fLocal):
    return {"q": params.linears["q"](fLocal)}


def _plain_prompt(params, fP):
    L = params.linears
    return {"k": L["k"](fP), "v": L["v"](fP)}


def _plain_joint(params, vis, txt):
    return LastStage(attention_map(vis["q"], txt["k"]), txt["v"], None, {})


_PARTS = {
    "mex": (_mex_global, _mex_visual, _mex_prompt, _mex_joint),
    "cascade": (_cascade_global, _cascade_visual, _cascade_prompt, _cascade_joint),
    "plain": (_plain_global, _plain_visual, _plain_prompt, _plain_joint),
}


def global_terms(params: FusionParams, fGlobal: Tensor) -> dict:
    """The part of the fusion block that depends on the global frames alone."""
    _check_channels(params, fGlobal)
    return _PARTS[params.variant][0](params, fGlobal)


def visual_terms(params: FusionParams, glob: dict, fLocal: Tensor) -> dict:
    """The prompt-independent part of the fusion block for a track window."""
    _check_channels(params, fLocal)
    return _PARTS[params.variant][1](params, glob, fLocal)


def prompt_terms(params: FusionParams, fPrompt: Tensor) -> dict:
    """The part of the fusion block that depends on the prompt alone."""
    _check_channels(params, fPrompt)
    return _PARTS[params.variant][2](params, fPrompt)


def last_stage(params: FusionParams, visual: dict, prompt: dict) -> LastStage:
    """The per-prompt part: a window's visual terms with a prompt's terms, factored."""
    return _PARTS[params.variant][3](params, visual, prompt)


def fuse(params: FusionParams, fGlobal: Tensor, fLocal: Tensor, fPrompt: Tensor) -> FusionOutput:
    """The whole fusion block with a uniform stream order: the full fused stream.

    Streams are [..., tokens, d_k]; leading axes (frames of a window, and
    prompts) are batch axes and broadcast.
    """
    visual = visual_terms(params, global_terms(params, fGlobal), fLocal)
    last = last_stage(params, visual, prompt_terms(params, fPrompt))
    fused = matmul(last.map, last.values)
    if last.residual is not None:
        fused = add(fused, last.residual)
    return FusionOutput(fused=fused, **last.maps)


def pooled_score(params: FusionParams, visual: dict, prompt: dict,
                 prompt_pooled: Tensor) -> Tensor:
    """score(st_pool(fused), prompt_pooled), without building the fused stream.

    The token mean of ST pooling is linear and comes before the max over
    frames, so it is taken inside the last stage (``tensor.pooled_product``):
    mean_rows(map) @ values + mean_rows(residual) per frame, then the max
    over frames and the cosine. ``visual`` holds the [..., frames, tokens, *]
    terms of track windows and ``prompt_pooled`` is [..., d_k]; leading
    axes broadcast.
    """
    last = last_stage(params, visual, prompt)
    pooled = pooled_product(last.map, last.values, last.residual)
    return score(max_axis(pooled, axis=-2), prompt_pooled)


def st_pool(x: Tensor) -> Tensor:
    """Spatio-temporal pooling: average over tokens, then max over frames.

    Input is [..., n_frames, s, d_k]; output is [..., d_k]. Leading axes
    (windows of a batch) are batch axes.
    """
    if x.data.ndim < 3:
        raise DimensionError(f"st_pool expects [..., frames, tokens, d], got {x.data.shape}")
    return max_axis(mean_axis(x, axis=-2), axis=-2)


def score(fused_pooled: Tensor, prompt_pooled: Tensor) -> Tensor:
    """Raw referring score: cosine similarity of the pooled vectors."""
    return cosine_similarity(fused_pooled, prompt_pooled)


def profile(variant, g, t, l, d_k, seed=0, with_backward=False,
            residual_add=False, per_pair=False):
    """One instrumented forward (optionally backward) pass under a fresh ledger.

    Returns exact, deterministic counts: trainable parameters, the values
    charged within the pass (``peak_values``; nothing frees a charge, so
    this is not a high-water mark of live values), and accumulated
    multiply-adds. The pass's graph is freed by reference counting when it
    returns.
    """
    rng = np.random.default_rng(seed)
    with fresh_context() as ctx:
        params = FusionParams(variant, d_k, rng, residual_add=residual_add,
                              per_pair=per_pair, requires_grad=with_backward)
        fGlobal = Tensor(rng.standard_normal((g, d_k)))
        fLocal = Tensor(rng.standard_normal((t, d_k)))
        fPrompt = Tensor(rng.standard_normal((l, d_k)))
        # parameters and inputs are not activations; count the pass only
        ctx.ledger.reset()
        out = fuse(params, fGlobal, fLocal, fPrompt)
        if with_backward:
            sum_all(out.fused).backward()
        snap = ctx.ledger.snapshot()
    return {
        "variant": variant,
        "d_k": d_k,
        "g": g,
        "t": t,
        "l": l,
        "param_count": params.param_count(),
        "peak_values": snap["peak_values"],
        "flops": snap["flops"],
    }
