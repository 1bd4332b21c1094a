"""Central-difference verification of the reverse-mode gradients."""

import numpy as np

from . import fusion, pipeline
from .fusion import FusionParams
from .tensor import Tensor, fresh_context

# every other window matches its prompt, so the loss's two branches both run
_MATCH = np.arange(4) % 2 == 0
_NEG_MARGIN = 0.0


def fusion_loss(params: FusionParams, streams, target):
    """The training objective after the projection MLPs, over a batch of windows.

    ``streams`` is a (global, local, prompt) triple: [n, frames, tokens, d_k]
    track windows and [n, 1, tokens, d_k] prompts, broadcast over the
    frames; ``target`` is [n, d_k]. The chain is the one training runs:
    ``global_terms`` -> ``visual_terms`` -> ``prompt_terms`` ->
    ``pooled_score`` -> ``pipeline._loss_sum``, summed over the windows, with
    window i a match when ``_MATCH[i]`` holds.
    """
    fG, fL, fP = (Tensor(s) for s in streams)
    visual = fusion.visual_terms(params, fusion.global_terms(params, fG), fL)
    scores = fusion.pooled_score(params, visual, fusion.prompt_terms(params, fP), Tensor(target))
    return pipeline._loss_sum(scores, _MATCH, _NEG_MARGIN, 1.0)


def max_relative_error(variant, g=2, t=3, l=4, d_k=8, n_frames=2, seed=0,
                       step=1e-5, residual_add=False, per_pair=False):
    """Analytic vs central-difference gradients over every fusion parameter."""
    rng = np.random.default_rng(seed)
    params = FusionParams.init(variant, d_k, rng, residual_add=residual_add,
                               per_pair=per_pair)
    n = len(_MATCH)
    streams = (rng.standard_normal((n, n_frames, g, d_k)),
               rng.standard_normal((n, n_frames, t, d_k)),
               rng.standard_normal((n, 1, l, d_k)))
    target = rng.standard_normal((n, d_k))

    def forward():
        with fresh_context():
            return fusion_loss(params, streams, target).item()

    with fresh_context():
        loss = fusion_loss(params, streams, target)
        loss.backward()
        grads = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                 for p in params.parameters()]

    worst = 0.0
    for p, g_analytic in zip(params.parameters(), grads):
        flat = p.data.reshape(-1)
        ga = g_analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            plus = forward()
            flat[i] = orig - step
            minus = forward()
            flat[i] = orig
            g_num = (plus - minus) / (2 * step)
            rel = abs(ga[i] - g_num) / max(1e-6, abs(ga[i]) + abs(g_num))
            worst = max(worst, rel)
        p.grad = None
    return worst
