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
)

VARIANTS = ("mex", "cascade", "plain")


class FusionParams:
    """Learnable projections for one fusion variant.

    MEX defaults to one shared projection per modality (the same projected
    track/prompt features serve as keys and values, and the track projection
    is reused as the query of the second map). ``per_pair=True`` switches to
    separate query/key/value projections per modality pair, which brings the
    parameter count up to the cascade block's.
    """

    def __init__(self, variant, d_k, linears, residual_add=False, per_pair=False):
        self.variant = variant
        self.d_k = d_k
        self.residual_add = residual_add
        self.per_pair = per_pair
        self.linears = linears  # keyed as ``linear_names`` lists them


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


def stage_reads(params, stream):
    """Names of the projections that the ``stream`` stage of a scoring pass
    reads: those that read ``stream``, with cascade's s2_q, which a track
    window's stage-1 output meets."""
    names = reads(params, stream)
    if params.variant == "cascade" and stream == LOCAL_TRACK:
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
# (prompts, windows, frames) are batch axes and broadcast. Training and
# scoring run the same terms (``ReferringModel.scoring_form``).


def global_terms(params: FusionParams, fGlobal: Tensor) -> dict:
    """The part of the fusion block that depends on the global frames alone:
    their projections by role, and mex's ``residual_add`` row mean of f(I)."""
    glob = _project(params, GLOBAL_FRAME, fGlobal)
    if params.variant == "mex" and params.residual_add:
        glob["q_it_mean"] = mean_axis(glob["q_it"], axis=-2, keepdims=True)
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
    its output.
    """
    local = _project(params, LOCAL_TRACK, fLocal)
    if params.variant == "mex":
        pbar = mean_axis(attention_map(glob["q_it"], local["k_it"]), axis=-2, keepdims=True)
        residual = matmul(pbar, local["v_t"])
        if params.residual_add:
            residual = add(residual, glob["q_it_mean"])
        return {"q": local["q_tp"], "pbar": pbar, "residual": residual}
    if params.variant == "cascade":
        stage1 = matmul(attention_map(local["q"], glob["k"]), glob["v"])
        q2 = params.linears["s2_q"](add(stage1, local["q"]))
        return {"q": q2, "pbar": None, "residual": q2}
    return {"q": local["q"], "pbar": None, "residual": None}


def prompt_terms(params: FusionParams, fPrompt: Tensor) -> dict:
    """A prompt's keys ``k`` and values ``v``: one tensor when one projection gives both."""
    return _project(params, PROMPT, fPrompt)


def last_stage(params: FusionParams, visual: dict, prompt: dict) -> LastStage:
    """The per-prompt part of every variant: map = [pbar @] softmax(q k^T /
    sqrt(d_k)), values v and the window's residual."""
    p = attention_map(visual["q"], prompt["k"])
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
