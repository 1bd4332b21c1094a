"""Fusion block variants.

Three interchangeable blocks over the projected modality streams:

* ``plain``   — one scaled dot-product attention (query = local tracks,
  key/value = prompt tokens).
* ``cascade`` — two sequential attentions with full query/key/value
  projections each; stage outputs add their query vector.
* ``mex``     — the memory-efficient triple-modality block: two
  row-stochastic maps chained by a matrix product, reusing one shared
  projection per modality.

The blocks differ only before the prompt: all three end in one last stage,
map @ values + residual (``last_stage``). The fused stream is never built:
scoring and training pool that last stage as they compose it
(``pooled_score``). Every op is charged to the active ledger, so the values
charged and the multiply-adds of the scoring pass that ``bench`` measures
are exact and reproducible.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .features import GLOBAL_FRAME, LOCAL_TRACK, PROMPT
from .tensor import (
    DimensionError,
    Tensor,
    add,
    attention_map,
    matmul,
    mean_axis,
    pooled_cosine,
    product,
)

VARIANTS = ("mex", "cascade", "plain")


class FusionParams:
    """Learnable projections for one fusion variant.

    MEX defaults to one shared projection per modality (the same projected
    track/prompt features serve as keys and values, and the track projection
    is reused as the query of the second map). ``per_pair=True`` switches to
    separate query/key/value projections per modality pair, which brings the
    parameter count up to the cascade block's.

    ``hidden`` is None in the training structure. In a scoring form, whose
    local-track stream is the local MLP's hidden activations ``a``, it holds
    the composed maps that ``composed_maps`` makes, keyed by the stage (a
    ``features`` modality) that reads each: ``global_terms``,
    ``prompt_terms`` and ``visual_terms`` each absorb or apply their own.
    """

    def __init__(self, variant, d_k, linears, residual_add=False, per_pair=False, hidden=None):
        self.variant = variant
        self.d_k = d_k
        self.residual_add = residual_add
        self.per_pair = per_pair
        self.linears = linears  # keyed as ``linear_names`` lists them
        self.hidden = hidden


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


# The role each d_k x d_k projection plays, by the stream it reads. Shared
# mex's one projection per stream plays all of that stream's roles; cascade's
# s2_q reads stage 1's output, no stream; plain's global stream has no reader.
_ROLES = {
    "mex": {GLOBAL_FRAME: {"q_it": "proj_i"},
            LOCAL_TRACK: {"k_it": "proj_t", "q_tp": "proj_t", "v_t": "proj_t"},
            PROMPT: {"k": "proj_p", "v": "proj_p"}},
    "mex/per_pair": {GLOBAL_FRAME: {"q_it": "q_it"},
                     LOCAL_TRACK: {"k_it": "k_it", "q_tp": "q_tp", "v_t": "v_t"},
                     PROMPT: {"k": "k_tp", "v": "v_p"}},
    "cascade": {GLOBAL_FRAME: {"k": "s1_k", "v": "s1_v"}, LOCAL_TRACK: {"q": "s1_q"},
                PROMPT: {"k": "s2_k", "v": "s2_v"}},
    "plain": {GLOBAL_FRAME: {}, LOCAL_TRACK: {"q": "q"}, PROMPT: {"k": "k", "v": "v"}},
}


def _roles(variant, per_pair):
    return _ROLES["mex/per_pair" if variant == "mex" and per_pair else variant]


def streams(variant, per_pair=False):
    """The modalities some projection of a variant reads, in ``features.MODALITIES`` order."""
    return tuple(m for m, roles in _roles(variant, per_pair).items() if roles)


def roles(params, stream):
    """Role -> name of the projection that plays it, for each role of ``stream``."""
    return _roles(params.variant, params.per_pair)[stream]


def reads(params, stream):
    """Names of the projections that read ``stream`` (a ``features`` modality)."""
    return tuple(dict.fromkeys(roles(params, stream).values()))


# The local-track role whose composed map each stage of a scoring pass reads:
# absorbed into the prompt's or the global frames' terms, or, at the track
# windows' stage, applied to a window by ``visual_terms``.
_ABSORBED_AT = {
    "mex": {PROMPT: "q_tp", GLOBAL_FRAME: "k_it", LOCAL_TRACK: "v_t"},
    "cascade": {GLOBAL_FRAME: "q", LOCAL_TRACK: "q"},
    "plain": {PROMPT: "q"},
}


def composed_maps(params, second):
    """Stage -> the map c = proj∘second it reads (``FusionParams.hidden``), for
    the local MLP's last layer ``second``. Each projection that reads the local
    tracks is composed once, so shared mex's three stages hold one map;
    cascade's window stage reads its query's map composed with s2_q."""
    by_role = roles(params, LOCAL_TRACK)
    composed = {n: second.then(params.linears[n]) for n in reads(params, LOCAL_TRACK)}
    hidden = {m: composed[by_role[role]] for m, role in _ABSORBED_AT[params.variant].items()}
    if params.variant == "cascade":
        hidden[LOCAL_TRACK] = hidden[LOCAL_TRACK].then(params.linears["s2_q"])
    return hidden


def stage_reads(params, stream):
    """Names of the projections that the ``stream`` stage of a scoring pass
    reads: those that read ``stream``, with cascade's s2_q, absorbed into
    the global frames' values."""
    names = reads(params, stream)
    if params.variant == "cascade" and stream == GLOBAL_FRAME:
        names += ("s2_q",)
    return names


def _project(params, stream, x):
    """Role -> ``x`` ([..., tokens, d]) through each projection that reads ``stream``.

    A projection that plays several roles runs once, and its one tensor
    fills them all.
    """
    linears, by_role = params.linears, roles(params, stream)
    done = {}
    for name in dict.fromkeys(by_role.values()):
        d_in = linears[name].d_in
        if x.data.ndim < 2 or x.data.shape[-1] != d_in:
            raise DimensionError(
                f"stream shape {x.data.shape} incompatible with {name}'s input width {d_in}")
        done[name] = linears[name](x)
    return {role: done[name] for role, name in by_role.items()}


class LastStage(NamedTuple):
    """A variant's last stage left factored: fused = map @ values + residual.

    ``map`` and ``residual`` may have fewer rows than the fused stream when
    they are already means over its rows (mex): pooling takes the row mean,
    and the mean of ``map @ values + residual`` is the same either way.
    """

    map: Tensor
    values: Tensor
    residual: Tensor | None


# The variants differ only before the prompt meets a track window. The
# global frames' and the prompt's terms are their projections by role
# (``_ROLES``); ``visual_terms`` gives a track window's query q, the map pbar
# (or None) that q's map is chained after, and the residual (or None), from
# the global terms and the window's projections. One ``last_stage`` joins
# them to the prompt's, so a scoring pass computes each global window's terms
# and each prompt's terms once. Streams are [..., tokens, d]; leading axes
# (prompts, windows, frames) are batch axes and broadcast.
#
# A scoring form (``params.hidden`` set) never applies a map c = proj∘second
# to a window's hidden rows a: a fills each local-track role as it is, and
# c is absorbed into what the role meets, once per global window or per
# pass, where no gradient is needed:
# - a key met by a query q (mex k_it): q c(a)^T = (q W_c^T) a^T + q b_c, and
#   q b_c is the same along each softmax row, so it drops;
# - a query met by keys K (mex q_tp, plain q, cascade s1_q): c(a) K^T =
#   a (K W_c^T)^T + K b_c, the last a per-key bias;
# - a value pooled by a row-stochastic map (mex v_t): pbar @ c(a) = c(pbar @ a);
# - cascade's query, added into s2_q: s2_q(p1 @ v + c(a)) = p1 @ (v W_s2q) +
#   (c∘s2_q)(a), the one per-row product of a cascade window.


def _map(params, q, k, bias=None):
    """softmax((q k^T + bias) / sqrt(d_k)): the block's scale, which an
    absorbed query or key, as wide as the local MLP's hidden layer, does not give."""
    return attention_map(q, k, bias, scale=1.0 / math.sqrt(params.d_k))


def _times(x, w):
    """x [..., d] @ w [d, e] as one product over all of x's rows: a constant."""
    return Tensor(product(x.data.reshape(-1, w.shape[0]), w).reshape(x.shape[:-1] + w.shape[1:]))


def _absorb_keys(c, terms):
    """The keys ``terms["k"]`` [..., l, d_k] that c(a) meets as its query become
    k W_c^T [..., l, h], with their bias k b_c [..., l] as ``terms["bias"]``."""
    k = terms["k"]
    terms["k"], terms["bias"] = _times(k, c.w.data.T), Tensor(product(k.data, c.bias.data))
    return terms


def global_terms(params: FusionParams, fGlobal: Tensor) -> dict:
    """The part of the fusion block that depends on the global frames alone:
    their projections by role, and mex's ``residual_add`` row mean of f(I)."""
    glob = _project(params, GLOBAL_FRAME, fGlobal)
    if params.variant == "mex":
        if params.residual_add:
            glob["q_it_mean"] = mean_axis(glob["q_it"], axis=-2, keepdims=True)
        if params.hidden is not None:
            glob["q_it"] = _times(glob["q_it"], params.hidden[GLOBAL_FRAME].w.data.T)
    elif params.variant == "cascade" and params.hidden is not None:
        _absorb_keys(params.hidden[GLOBAL_FRAME], glob)
        glob["v"] = _times(glob["v"], params.linears["s2_q"].w.data)
    return glob


def visual_terms(params: FusionParams, glob: dict, fLocal: Tensor) -> dict:
    """A track window's prompt-independent terms: ``q``, ``pbar`` and ``residual``.

    Mex's block is two chained row-stochastic maps:

    p_it = softmax(f(I) f(T)^T / sqrt(d_k))          [g x t]
    p_tp = softmax(f(T) f(P)^T / sqrt(d_k))          [t x l]
    p_itp = p_it @ p_tp                              [g x l]
    fused = p_it @ f(T) + p_itp @ f(P)               [g x d_k]

    ``residual_add`` adds the projected query stream f(I) to the output.
    Pooling takes the mean over the fused stream's g rows, and every term
    starts with p_it, so only its row mean pbar ([..., 1, t]) is kept: the
    last stage's map is pbar @ p_tp, and the pooled residual is pbar @ f(T)
    (+ the row mean of f(I)). Cascade's stage 1 (local queries on the global
    frames, plus the query) gives the stage-2 query, which stage 2 adds to
    its output. In a scoring form ``fLocal`` is the hidden rows a, which
    fill every local-track role as they are.
    """
    local = (_project(params, LOCAL_TRACK, fLocal) if params.hidden is None
             else dict.fromkeys(roles(params, LOCAL_TRACK), fLocal))
    if params.variant == "mex":
        pbar = mean_axis(_map(params, glob["q_it"], local["k_it"]), axis=-2, keepdims=True)
        residual = matmul(pbar, local["v_t"])
        if params.hidden is not None:
            residual = params.hidden[LOCAL_TRACK](residual)
        if params.residual_add:
            residual = add(residual, glob["q_it_mean"])
        return {"q": local["q_tp"], "pbar": pbar, "residual": residual}
    if params.variant == "cascade":
        q = local["q"]
        stage1 = matmul(_map(params, q, glob["k"], glob.get("bias")), glob["v"])
        q2 = (params.linears["s2_q"](add(stage1, q)) if params.hidden is None
              else add(stage1, params.hidden[LOCAL_TRACK](q)))
        return {"q": q2, "pbar": None, "residual": q2}
    return {"q": local["q"], "pbar": None, "residual": None}


def prompt_terms(params: FusionParams, fPrompt: Tensor) -> dict:
    """A prompt's keys ``k`` and values ``v``: one tensor when one projection gives
    both. In a scoring form with a map for the prompt stage (the windows' rows
    meet the keys as their query), the keys are absorbed: ``k`` is h wide, with a
    key bias ``bias``."""
    prompt = _project(params, PROMPT, fPrompt)
    if params.hidden is None or PROMPT not in params.hidden:
        return prompt
    return _absorb_keys(params.hidden[PROMPT], prompt)


def last_stage(params: FusionParams, visual: dict, prompt: dict) -> LastStage:
    """The per-prompt part of every variant: map = [pbar @] softmax((q k^T [+ bias]) /
    sqrt(d_k)), values v and the window's residual."""
    p = _map(params, visual["q"], prompt["k"], prompt.get("bias"))
    if visual["pbar"] is not None:
        p = matmul(visual["pbar"], p)
    return LastStage(p, prompt["v"], visual["residual"])


def pooled_score(params: FusionParams, visual: dict, prompt: dict,
                 prompt_pooled: Tensor) -> Tensor:
    """Cosine of the ST-pooled fused stream and ``prompt_pooled``, never building the stream.

    Spatio-temporal (ST) pooling is the mean over a frame's tokens, then the
    max over frames. The token mean is linear and comes before the max, so
    it is taken inside the last stage: mean_rows(map) @ values +
    mean_rows(residual) per frame, then the max over frames and the cosine,
    all in one graph node (``tensor.pooled_cosine``). ``visual`` holds the
    [..., frames, tokens, *] terms of track windows and ``prompt_pooled``
    is [..., d_k]; leading axes broadcast.
    """
    return pooled_cosine(*last_stage(params, visual, prompt), prompt_pooled)
