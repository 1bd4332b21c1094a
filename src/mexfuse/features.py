"""Synthetic modality feature streams.

Stands in for frozen visual/text encoders: deterministic pseudo-random
embeddings with the same output shapes ([n,16,768] visual, [n,20,1024]
textual by default), plus the per-modality projection MLPs that reduce raw
channels to the fused width.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .tensor import DegenerateInputError, DimensionError, Linear, node

GLOBAL_FRAME = "global_frame"
LOCAL_TRACK = "local_track"
PROMPT = "prompt"
MODALITIES = (GLOBAL_FRAME, LOCAL_TRACK, PROMPT)


@dataclass(frozen=True)
class EmbedderConfig:
    seed: int = 0
    raw_visual_dim: int = 768
    visual_tokens: int = 16
    raw_text_dim: int = 1024
    text_tokens: int = 20
    fused_dim: int = 256
    truncate_to: int | None = None
    oracle_mode: bool = False
    noise_scale: float = 0.05
    concepts: tuple = ()

    def token_shape(self, modality):
        if modality == PROMPT:
            return self.text_tokens, self.raw_text_dim
        if modality in (GLOBAL_FRAME, LOCAL_TRACK):
            return self.visual_tokens, self.raw_visual_dim
        raise ValueError(f"unknown modality {modality!r}")


@dataclass
class ModalityFeatures:
    modality: str
    tokens: np.ndarray  # [n, s, d_raw]
    source_id: str

    def __post_init__(self):
        if self.tokens.ndim != 3:
            raise DimensionError(f"tokens must be [n,s,d], got {self.tokens.shape}")
        if not np.isfinite(self.tokens).all():
            raise ValueError("non-finite embedding values")


def _rng_for(*parts):
    h = hashlib.sha256("\x1f".join(str(p) for p in parts).encode()).digest()
    return np.random.default_rng(int.from_bytes(h[:8], "little"))


def concept_space(config: EmbedderConfig, dim: int):
    """Orthonormal base vector per configured concept.

    QR of a seeded Gaussian matrix, so distinct concepts are exactly
    orthogonal and the oracle-mode cosine bounds hold by construction.
    Memoised, since every oracle-mode embedding needs it; the vectors are
    read-only so that no caller can change the memoised basis.
    """
    if len(config.concepts) > dim:
        raise DegenerateInputError(f"{len(config.concepts)} concepts exceed embedding dim {dim}")
    return dict(_concept_basis(config.seed, dim, tuple(sorted(config.concepts))))


@functools.lru_cache(maxsize=64)
def _concept_basis(seed, dim, concepts):
    if not concepts:
        return ()
    rng = _rng_for(seed, "concept-space", dim, *concepts)
    q, _ = np.linalg.qr(rng.standard_normal((dim, len(concepts))))
    basis = []
    for i, c in enumerate(concepts):
        v = np.ascontiguousarray(q[:, i])
        v.flags.writeable = False
        basis.append((c, v))
    return tuple(basis)


def embed_synthetic(entity_id, modality, config: EmbedderConfig, concept=None, out=None):
    """Deterministic features for one entity; pure in (seed, entity_id, modality).

    In oracle mode a concept label anchors the embedding at that concept's
    base direction plus small noise, so same-concept entities are highly
    similar and disjoint-concept entities nearly orthogonal.

    With ``out``, a [k, d_raw] row of a batch buffer, the first k tokens are
    drawn straight into it, scaled and shifted in place, and ``out`` is
    returned; the caller checks the buffer's finiteness once. Otherwise the
    result is a checked one-entity ``ModalityFeatures`` of the same values.
    """
    whole = out is None
    if whole:
        out = np.empty(config.token_shape(modality))
    rng = _rng_for(config.seed, entity_id, modality)
    rng.standard_normal(out=out)
    if config.oracle_mode and concept is not None:
        if concept not in config.concepts:
            raise KeyError(f"concept {concept!r} not in configured concepts")
        d = out.shape[-1]
        # base + noise_scale * (z / sqrt(d)): noise_scale is the expected
        # noise norm relative to the unit base vector
        out /= np.sqrt(d)
        out *= config.noise_scale
        out += concept_space(config, d)[concept]
    if whole:
        return ModalityFeatures(modality=modality, tokens=out[None], source_id=str(entity_id))
    return out


_GELU_C = np.sqrt(2.0 / np.pi)


class ProjectionMLP:
    """Two-layer per-token MLP with a GELU between: d_raw -> hidden -> d_k.

    Without ``second`` (a scoring form's local MLP, whose last layer is
    composed into the projections that read it) it stops at gelu(first(x)).
    """

    def __init__(self, first: Linear, second: Linear | None = None):
        self.first = first
        self.second = second

    def __call__(self, x):
        """second(gelu(first(x))) over x[..., d_raw], as one graph node.

        Leading axes are folded inside numpy, and the tanh-approximation
        GELU runs in place on arrays the node has just made, in the
        operation order of (1 + tanh(c*(h + 0.044715*h*h*h)))*h*0.5; powers
        as products, as ``**`` goes through pow. The node keeps the hidden
        pre-activation h, the tanh term t and gelu(h) for its backward pass
        and charges the ledger what the composed Linear-GELU-Linear chain
        would: h, gelu(h) and the output.

        Without ``second`` the result is gelu(h), [..., hidden], as a
        constant that charges h and gelu(h): no gradient flows back.
        """
        first, second = self.first, self.second
        if x.data.shape[-1] != first.d_in:
            raise DimensionError(
                f"projection MLP: input trailing dim {x.data.shape} vs weight {first.w.data.shape}")
        x2 = x.data.reshape(-1, first.d_in)
        h = first.forward(x2)
        t = h * h
        t *= h
        t *= 0.044715
        t += h
        t *= _GELU_C
        np.tanh(t, out=t)
        a = t + 1.0
        a *= h
        a *= 0.5
        if second is None:
            return node(a.reshape(x.data.shape[:-1] + (a.shape[-1],)), (), None,
                        charge=h.size + a.size)
        out = second.forward(a)

        def bwd(g):
            want = x.requires_grad or first.w.requires_grad or first.bias.requires_grad
            gh = second.backward(a, g.reshape(-1, second.d_out), want)
            if gh is None:
                return
            # gh is made here, so it is scaled in place by the GELU derivative
            # 0.5*(1 + t) + 0.5*h*(1 - t*t) * c*(1 + 3*0.044715*h*h)
            slope = h * 0.5
            tmp = t * t
            np.subtract(1.0, tmp, out=tmp)
            slope *= tmp
            np.multiply(h, h, out=tmp)
            tmp *= 3 * 0.044715
            tmp += 1.0
            tmp *= _GELU_C
            slope *= tmp
            np.add(t, 1.0, out=tmp)
            tmp *= 0.5
            slope += tmp
            gh *= slope
            gx = first.backward(x2, gh, x.requires_grad)
            if gx is not None:
                x._accumulate(gx.reshape(x.data.shape))

        return node(out.reshape(x.data.shape[:-1] + (second.d_out,)),
                    (x, first.w, first.bias, second.w, second.bias), bwd,
                    charge=out.size + h.size + a.size)
