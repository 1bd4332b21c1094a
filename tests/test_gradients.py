"""Central finite-difference checks for every differentiable op, the ops the
test references build, and the fusion + pooled cosine + training loss chain."""

import numpy as np
import pytest

from mexfuse import gradcheck
from mexfuse.features import ProjectionMLP
from mexfuse.pipeline import _loss_sum
from mexfuse.tensor import (
    Linear,
    Tensor,
    add,
    attention_map,
    fresh_context,
    matmul,
    mean_axis,
    pooled_cosine,
    sum_all,
    take,
)

from conftest import cosine, max_axis, mul, st_pool, stack

STEP = 1e-5
TOL = 1e-4


def numeric_grad(fn, x, step=STEP):
    g = np.zeros_like(x)
    flat_x, flat_g = x.reshape(-1), g.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + step
        plus = fn()
        flat_x[i] = orig - step
        minus = fn()
        flat_x[i] = orig
        flat_g[i] = (plus - minus) / (2 * step)
    return g


def check(build_loss, *leaves):
    with fresh_context():
        loss = build_loss()
        loss.backward()
        analytic = [leaf.grad.copy() for leaf in leaves]

    def value():
        with fresh_context():
            return build_loss().item()

    for leaf, ga in zip(leaves, analytic):
        gn = numeric_grad(value, leaf.data)
        rel = np.abs(ga - gn) / np.maximum(1e-6, np.abs(ga) + np.abs(gn))
        assert rel.max() <= TOL, f"rel err {rel.max():.2e}"


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def test_matmul(rng):
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    w = rng.standard_normal((3, 2))
    check(lambda: sum_all(mul(matmul(a, b), Tensor(w))), a, b)


@pytest.mark.parametrize("a_shape,b_shape", [((2, 3, 4), (2, 4, 2)), ((2, 3, 4), (4, 2)),
                                              ((3, 4), (2, 4, 2))])
def test_matmul_batched(rng, a_shape, b_shape):
    a = Tensor(rng.standard_normal(a_shape), requires_grad=True)
    b = Tensor(rng.standard_normal(b_shape), requires_grad=True)
    w = rng.standard_normal((2, 3, 2))
    check(lambda: sum_all(mul(matmul(a, b), Tensor(w))), a, b)


@pytest.mark.parametrize("k_shape", [(2, 5, 4), (5, 4)])
def test_attention_map(rng, k_shape):
    # [2, 3, 4] queries against batched keys, and against 2-D keys broadcast over the batch
    q = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    k = Tensor(rng.standard_normal(k_shape), requires_grad=True)
    w = rng.standard_normal((2, 3, 5))
    check(lambda: sum_all(mul(attention_map(q, k), Tensor(w))), q, k)


@pytest.mark.parametrize("a_shape,b_shape", [((2, 3, 4), (3, 4)), ((3, 4), (2, 1, 3, 4)),
                                              ((2, 1, 4), (3, 4))])
def test_add_broadcast(rng, a_shape, b_shape):
    a = Tensor(rng.standard_normal(a_shape), requires_grad=True)
    b = Tensor(rng.standard_normal(b_shape), requires_grad=True)
    w = rng.standard_normal(np.broadcast_shapes(a_shape, b_shape))
    check(lambda: sum_all(mul(add(a, b), Tensor(w))), a, b)


@pytest.mark.parametrize("p_shape,v_shape,r_shape", [
    ((2, 3, 4), (4, 2), None),
    ((2, 3, 4), (2, 4, 2), (2, 3, 2)),
    # [P, w, m, n] maps against [P, 1, n, d] values, plus a [w, m, d] residual
    ((2, 3, 3, 4), (2, 1, 4, 2), (3, 3, 2)),
    # a map shared by the batch, and a residual that broadcasts over it
    ((3, 4), (2, 4, 2), (2, 1, 3, 2)),
], ids=["frames", "batched-residual", "broadcast-prompts", "broadcast-map"])
def test_pooled_cosine(rng, p_shape, v_shape, r_shape):
    p = Tensor(rng.standard_normal(p_shape), requires_grad=True)
    v = Tensor(rng.standard_normal(v_shape), requires_grad=True)
    r = Tensor(rng.standard_normal(r_shape), requires_grad=True) if r_shape else None
    batch = np.broadcast_shapes(p_shape[:-2], v_shape[:-2], r_shape[:-2] if r_shape else ())
    b = Tensor(rng.standard_normal(batch[:-1] + v_shape[-1:]), requires_grad=True)
    w = rng.standard_normal(batch[:-1])
    leaves = [p, v, b] if r is None else [p, v, r, b]
    check(lambda: sum_all(mul(pooled_cosine(p, v, r, b), Tensor(w))), *leaves)


def test_pooled_cosine_tied_frames(rng):
    # frames 0 and 2 pool to the same row and hold every channel's max: the
    # gradient goes to frame 0, as max_axis gives it, and b's passes gradcheck
    p1, r1 = rng.standard_normal((3, 4)), rng.standard_normal((3, 2))
    p_data = np.stack([p1, p1 - 5.0, p1])
    r_data = np.stack([r1, r1 - 5.0, r1])
    v = Tensor(np.abs(rng.standard_normal((4, 2))), requires_grad=True)
    p = Tensor(p_data, requires_grad=True)
    r = Tensor(r_data, requires_grad=True)
    b = Tensor(rng.standard_normal(2), requires_grad=True)
    with fresh_context():
        pooled_cosine(p, v, r, b).backward()
        fused = [t.grad for t in (p, v, r, b)]
    p.grad = v.grad = r.grad = b.grad = None
    with fresh_context():
        pooled = mean_axis(add(matmul(p, v), r), axis=-2)
        cosine(max_axis(pooled, axis=-2), b).backward()
        composed = [t.grad for t in (p, v, r, b)]
    for got, want in zip(fused, composed):
        assert np.abs(got - want).max() <= 1e-12
    assert not fused[0][2].any() and not fused[2][2].any()
    assert np.abs(fused[2][0]).max() > 0
    p.grad = v.grad = r.grad = b.grad = None
    check(lambda: pooled_cosine(p, v, r, b), b)


def test_projection_mlp(rng):
    # one graph node for Linear -> GELU -> Linear on a [B, w, s, d] input
    x = Tensor(rng.standard_normal((2, 3, 2, 4)), requires_grad=True)
    mlp = ProjectionMLP(
        Linear(Tensor(rng.standard_normal((4, 5)), requires_grad=True),
               Tensor(rng.standard_normal(5), requires_grad=True)),
        Linear(Tensor(rng.standard_normal((5, 3)), requires_grad=True),
               Tensor(rng.standard_normal(3), requires_grad=True)))
    w = rng.standard_normal((2, 3, 2, 3))
    check(lambda: sum_all(mul(mlp(x), Tensor(w))), x, *mlp.first.parameters(),
          *mlp.second.parameters())


def test_loss_sum(rng):
    # non-matches on both sides of the margin (0.25 and 0.9 above, -0.3 below), and matches
    s = Tensor(np.array([0.3, -0.4, 0.25, -0.3, 0.9, -0.7]), requires_grad=True)
    match = [True, True, False, False, False, True]
    check(lambda: _loss_sum(s, match, neg_margin=-0.1), s)


def test_linear_batched(rng):
    # one graph node for x @ w + bias on a [B, w, s, d] input
    x = Tensor(rng.standard_normal((2, 3, 2, 4)), requires_grad=True)
    lin = Linear(Tensor(rng.standard_normal((4, 3)), requires_grad=True),
                 Tensor(rng.standard_normal(3), requires_grad=True))
    w = rng.standard_normal((2, 3, 2, 3))
    check(lambda: sum_all(mul(lin(x), Tensor(w))), x, lin.w, lin.bias)


def test_pooling(rng):
    x = Tensor(rng.standard_normal((3, 4, 2)), requires_grad=True)
    w = rng.standard_normal(2)
    check(lambda: sum_all(mul(max_axis(mean_axis(x, axis=1), axis=0), Tensor(w))), x)


def test_stack(rng):
    a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    w = rng.standard_normal((2, 2, 3))
    check(lambda: sum_all(mul(stack([a, b]), Tensor(w))), a, b)


def test_st_pool_batched(rng):
    x = Tensor(rng.standard_normal((2, 3, 4, 2)), requires_grad=True)  # [windows, frames, tokens, d]
    w = rng.standard_normal((2, 2))
    check(lambda: sum_all(mul(st_pool(x), Tensor(w))), x)


def test_take_repeated_indices(rng):
    x = Tensor(rng.standard_normal((3, 2, 4)), requires_grad=True)
    idx = [2, 0, 2, 2]  # row 1 is never taken, row 2 three times
    w = rng.standard_normal((4, 2, 4))
    check(lambda: sum_all(mul(take(x, idx), Tensor(w))), x)


# the map of one frame with one row: pooled_cosine(ONE, a, None, b) is cos(a, b)
ONE = Tensor(np.ones((1, 1, 1)))


def test_cosine(rng):
    a = Tensor(rng.standard_normal((1, 1, 6)), requires_grad=True)
    b = Tensor(rng.standard_normal(6), requires_grad=True)
    check(lambda: pooled_cosine(ONE, a, None, b), a, b)
    a1, b1 = (Tensor(x, requires_grad=True) for x in (a.data[0, 0], b.data))
    check(lambda: cosine(a1, b1), a1, b1)  # the reference op


def test_cosine_row_batched(rng):
    a = Tensor(rng.standard_normal((2, 3, 1, 1, 6)), requires_grad=True)
    b = Tensor(rng.standard_normal((2, 3, 6)), requires_grad=True)
    w = rng.standard_normal((2, 3))
    check(lambda: sum_all(mul(pooled_cosine(ONE, a, None, b), Tensor(w))), a, b)
    a2, b2 = (Tensor(x, requires_grad=True) for x in (a.data[:, :, 0, 0], b.data))
    check(lambda: sum_all(mul(cosine(a2, b2), Tensor(w))), a2, b2)  # the reference op


@pytest.mark.parametrize("variant", ["mex", "cascade", "plain"])
def test_full_fusion_loss(variant):
    err = gradcheck.max_relative_error(variant, g=2, t=3, l=4, d_k=8, step=STEP)
    assert err <= TOL


def test_mex_per_pair_projections():
    err = gradcheck.max_relative_error("mex", g=2, t=3, l=4, d_k=8, per_pair=True)
    assert err <= TOL


def test_mex_residual_add():
    err = gradcheck.max_relative_error("mex", g=2, t=3, l=4, d_k=8, residual_add=True)
    assert err <= TOL
