"""Central finite-difference checks for every differentiable op, the ops the
test references build, and the batch loss training steps on."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mexfuse import gradcheck, pipeline
from mexfuse.cli import GRADCHECK_CONFIGS
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
    take,
)

from conftest import cosine, max_axis, mul, st_pool, stack, sum_all

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


@pytest.mark.parametrize("weight", [1.0, 1.0 / 6, -2.5])
def test_loss_sum(rng, weight):
    # non-matches on both sides of the margin (0.25 and 0.9 above, -0.3 below), and matches
    s = Tensor(np.array([0.3, -0.4, 0.25, -0.3, 0.9, -0.7]), requires_grad=True)
    match = [True, True, False, False, False, True]
    check(lambda: _loss_sum(s, match, -0.1, weight), s)


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


@pytest.mark.parametrize("variant,kw", GRADCHECK_CONFIGS,
                         ids=["/".join([v, *kw]) for v, kw in GRADCHECK_CONFIGS])
def test_batch_loss(variant, kw):
    # the loss train steps on, over every parameter of a tiny model
    assert gradcheck.max_relative_error(variant, **kw) <= TOL


def test_batch_loss_takes_both_paths(monkeypatch):
    # the checked batch takes its prompts' terms as a view in one length
    # group and gathers them in the other, and meets the loss's three cases
    views, cases = set(), set()
    take, loss_sum = pipeline.take, pipeline._loss_sum

    # gradcheck also scores windows one by one, to place the margin: a batch
    # of one takes one row and has weight 1
    def recorded_take(a, idx):
        out = take(a, idx)
        if np.size(idx) > 1:
            views.add(np.shares_memory(out.data, a.data))
        return out

    def recorded_loss_sum(scores, match, neg_margin, weight):
        if weight != 1.0:
            cases.update("match" if m else "above" if s > neg_margin else "below"
                         for s, m in zip(scores.data, match))
        return loss_sum(scores, match, neg_margin, weight)

    monkeypatch.setattr(pipeline, "take", recorded_take)
    monkeypatch.setattr(pipeline, "_loss_sum", recorded_loss_sum)
    gradcheck.max_relative_error("mex")
    assert views == {True, False}
    assert cases == {"match", "above", "below"}


# ---- every op on random shapes ---------------------------------------------
# Each op's output is weighted by a random array of its shape and summed, so
# every output value's gradient is checked. Leading axes that an op
# broadcasts are drawn so that some are dropped and some are 1.

RANDOM_SHAPES = settings(max_examples=25, deadline=None, database=None)
DIM = st.integers(1, 3)
BATCH = st.lists(st.integers(1, 2), max_size=2).map(tuple)
SHAPE = st.lists(DIM, min_size=1, max_size=4).map(tuple)
SEED = st.integers(0, 2**32 - 1)


@st.composite
def partner(draw, shape):
    """A shape that broadcasts against ``shape``: leading axes dropped, others kept or 1."""
    kept = shape[draw(st.integers(0, len(shape))):]
    return tuple(draw(st.sampled_from((n, 1))) for n in kept)


def leaf(rng, shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def check_weighted(rng, op, *leaves):
    """Gradcheck of sum(op() * w), w a random array of op's output shape."""
    with fresh_context():
        w = Tensor(rng.standard_normal(op().data.shape))
    check(lambda: sum_all(mul(op(), w)), *leaves)


@RANDOM_SHAPES
@given(data=st.data(), seed=SEED)
def test_add_random_shapes(data, seed):
    a_shape = data.draw(SHAPE)
    b_shape = data.draw(partner(a_shape))
    if data.draw(st.booleans()):
        a_shape, b_shape = b_shape, a_shape
    rng = np.random.default_rng(seed)
    a, b = leaf(rng, a_shape), leaf(rng, b_shape)
    check_weighted(rng, lambda: add(a, b), a, b)


@RANDOM_SHAPES
@given(data=st.data(), m=DIM, k=DIM, n=DIM, seed=SEED)
def test_matmul_random_shapes(data, m, k, n, seed):
    batch = data.draw(BATCH)
    rng = np.random.default_rng(seed)
    a = leaf(rng, data.draw(partner(batch)) + (m, k))
    b = leaf(rng, data.draw(partner(batch)) + (k, n))
    check_weighted(rng, lambda: matmul(a, b), a, b)


@RANDOM_SHAPES
@given(data=st.data(), n=DIM, seed=SEED)
def test_take_random_shapes(data, n, seed):
    # 1-D and 2-D index arrays: subsets, permutations and repeats, or every
    # row in order as [n] or [n, 1], which takes the view path
    rest = data.draw(st.lists(DIM, max_size=2).map(tuple))
    if data.draw(st.booleans()):
        idx = np.arange(n).reshape(data.draw(st.sampled_from([(n,), (n, 1)])))
    else:
        shape = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple))
        size = int(np.prod(shape))
        idx = np.reshape(data.draw(st.lists(st.integers(0, n - 1), min_size=size,
                                            max_size=size)), shape)
    rng = np.random.default_rng(seed)
    a = leaf(rng, (n,) + rest)
    check_weighted(rng, lambda: take(a, idx), a)


@RANDOM_SHAPES
@given(data=st.data(), m=DIM, n=DIM, d=DIM, seed=SEED)
def test_attention_map_random_shapes(data, m, n, d, seed):
    batch = data.draw(BATCH)
    rng = np.random.default_rng(seed)
    q = leaf(rng, data.draw(partner(batch)) + (m, d))
    k = leaf(rng, data.draw(partner(batch)) + (n, d))
    check_weighted(rng, lambda: attention_map(q, k), q, k)


@RANDOM_SHAPES
@given(data=st.data(), frames=DIM, m=DIM, n=DIM, d=DIM, seed=SEED)
def test_pooled_cosine_random_shapes(data, frames, m, n, d, seed):
    # the map or the values hold the whole batch, frames last; the other
    # operands broadcast against it
    batch = data.draw(BATCH) + (frames,)
    full = data.draw(st.sampled_from("pv"))
    p_lead = batch if full == "p" else data.draw(partner(batch))
    v_lead = batch if full == "v" else data.draw(partner(batch))
    rng = np.random.default_rng(seed)
    p, v = leaf(rng, p_lead + (m, n)), leaf(rng, v_lead + (n, d))
    r = leaf(rng, data.draw(partner(batch)) + (m, d)) if data.draw(st.booleans()) else None
    b = leaf(rng, batch[:-1] + (d,))
    leaves = [p, v, b] if r is None else [p, v, r, b]
    check_weighted(rng, lambda: pooled_cosine(p, v, r, b), *leaves)


@RANDOM_SHAPES
@given(data=st.data(), keepdims=st.booleans(), seed=SEED)
def test_mean_axis_random_shapes(data, keepdims, seed):
    shape = data.draw(SHAPE)
    axis = data.draw(st.integers(-len(shape), len(shape) - 1))
    rng = np.random.default_rng(seed)
    a = leaf(rng, shape)
    check_weighted(rng, lambda: mean_axis(a, axis, keepdims=keepdims), a)


@RANDOM_SHAPES
@given(batch=BATCH, d_in=DIM, d_out=DIM, seed=SEED)
def test_linear_random_shapes(batch, d_in, d_out, seed):
    rng = np.random.default_rng(seed)
    x = leaf(rng, batch + (d_in,))
    lin = Linear(leaf(rng, (d_in, d_out)), leaf(rng, (d_out,)))
    check_weighted(rng, lambda: lin(x), x, lin.w, lin.bias)


@RANDOM_SHAPES
@given(batch=BATCH, d_in=DIM, hidden=DIM, d_out=DIM, seed=SEED)
def test_projection_mlp_random_shapes(batch, d_in, hidden, d_out, seed):
    rng = np.random.default_rng(seed)
    x = leaf(rng, batch + (d_in,))
    mlp = ProjectionMLP(Linear(leaf(rng, (d_in, hidden)), leaf(rng, (hidden,))),
                        Linear(leaf(rng, (hidden, d_out)), leaf(rng, (d_out,))))
    check_weighted(rng, lambda: mlp(x), x, *mlp.first.parameters(), *mlp.second.parameters())
