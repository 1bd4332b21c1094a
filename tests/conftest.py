import json

import numpy as np
import pytest

from mexfuse.tensor import node


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
