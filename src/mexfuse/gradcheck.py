"""Central-difference verification of the training objective's gradients."""

import numpy as np

from .features import GLOBAL_FRAME, LOCAL_TRACK, PROMPT, EmbedderConfig
from .pipeline import ReferringModel
from .tensor import fresh_context

_STEP = 1e-5
# a tiny model: raw visual and text widths 5 and 6, 2 and 3 tokens, d_k 4
_EMBEDDER = EmbedderConfig(raw_visual_dim=5, visual_tokens=2, raw_text_dim=6, text_tokens=3,
                           fused_dim=4)
_MLP_HIDDEN = 3
# rows of the raw tables the windows index
_ROWS = {GLOBAL_FRAME: 5, LOCAL_TRACK: 10, PROMPT: 2}
# A fixed batch of (global frame rows, local track rows, prompt row) windows.
# The 2-frame windows meet prompts 0 and 1 in order, which ``take`` reads
# as a view; the 3-frame windows meet prompt 1 twice, which it gathers.
# Windows 1 and 3 are the non-matches, and the margin lies between their
# scores, so the loss's relu is active for one and not the other.
_WINDOWS = (([0, 1], [0, 1], 0), ([1, 2], [2, 3], 1),
            ([0, 1, 2], [4, 5, 6], 1), ([2, 3, 4], [7, 8, 9], 1))
_MATCH = (True, False, True, False)


def max_relative_error(variant, seed=0, residual_add=False, per_pair=False):
    """Analytic vs central-difference gradients of ``ReferringModel.batch_loss``,
    the loss ``train`` steps on, over every parameter of a tiny model built
    as ``train``'s is, MLPs included, on seeded random raw tables."""
    model = ReferringModel.build(_EMBEDDER, variant, residual_add=residual_add,
                                 per_pair=per_pair, mlp_hidden=_MLP_HIDDEN, seed=seed)
    rng = np.random.default_rng([seed, 1])  # not the stream the weights were drawn from
    tables = {m: rng.standard_normal((_ROWS[m],) + _EMBEDDER.token_shape(m))
              for m in model.streams}

    def loss(windows, match, margin):
        with fresh_context():
            return model.batch_loss(tables, windows, match, margin).item()

    # a window's score is 1 minus its loss as a match
    margin = sum(1.0 - loss([_WINDOWS[i]], [True], 0.0) for i in (1, 3)) / 2
    with fresh_context():
        model.batch_loss(tables, _WINDOWS, _MATCH, margin).backward()

    worst = 0.0
    for p in model.parameters():
        flat = p.data.reshape(-1)
        analytic = (np.zeros_like(p.data) if p.grad is None else p.grad).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + _STEP
            plus = loss(_WINDOWS, _MATCH, margin)
            flat[i] = orig - _STEP
            minus = loss(_WINDOWS, _MATCH, margin)
            flat[i] = orig
            numeric = (plus - minus) / (2 * _STEP)
            rel = abs(analytic[i] - numeric) / max(1e-6, abs(analytic[i]) + abs(numeric))
            worst = max(worst, rel)
    return worst
