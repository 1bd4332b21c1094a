"""Central-difference verification of the reverse-mode gradients."""

import numpy as np

from .fusion import FusionParams, fuse, score, st_pool
from .tensor import Tensor, fresh_context, sub


def fusion_loss(params: FusionParams, streams, target):
    """fusion of all frames as one batch -> ST pooling -> cosine loss against a fixed target.

    ``streams`` is a (global, local, prompt) triple of [frames, tokens, d_k] arrays.
    """
    fused = fuse(params, *(Tensor(s) for s in streams)).fused
    return sub(Tensor(np.asarray(1.0)), score(st_pool(fused), Tensor(target)))


def max_relative_error(variant, g=2, t=3, l=4, d_k=8, n_frames=2, seed=0,
                       step=1e-5, residual_add=False, per_pair=False):
    """Analytic vs central-difference gradients over every fusion parameter."""
    rng = np.random.default_rng(seed)
    params = FusionParams(variant, d_k, rng, residual_add=residual_add,
                          per_pair=per_pair)
    per_frame = [(rng.standard_normal((g, d_k)), rng.standard_normal((t, d_k)),
                  rng.standard_normal((l, d_k))) for _ in range(n_frames)]
    streams = [np.stack(s) for s in zip(*per_frame)]
    target = rng.standard_normal(d_k)

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
