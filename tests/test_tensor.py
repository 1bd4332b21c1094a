import gc
import re
import sys
import threading

import numpy as np
import pytest

from mexfuse.fusion import global_terms, pooled_score, prompt_terms, visual_terms
from mexfuse.pipeline import _loss_sum, generate_synthetic_dataset, train
from mexfuse.tensor import (
    ContractError,
    DegenerateInputError,
    DimensionError,
    Linear,
    MomentumSGD,
    Tensor,
    add,
    attention_map,
    current_context,
    fresh_context,
    matmul,
    mean_axis,
    node,
    pooled_cosine,
    take,
)

from conftest import fusion_params, max_axis, mul, sum_all
from test_pipeline import SMALL, momentum_loop, small_model


def naive_matmul(a, b):
    """Triple-loop oracle, independent of the kernel path."""
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


class TestMatmul:
    def test_identity(self):
        out = matmul(Tensor([[1, 0], [0, 1]]), Tensor([[3, 4], [5, 6]]))
        assert np.array_equal(out.data, [[3, 4], [5, 6]])

    def test_hand_arithmetic(self):
        out = matmul(Tensor([[1, 2]]), Tensor([[3], [4]]))
        assert np.array_equal(out.data, [[11]])

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((5, 3))
        out = matmul(Tensor(a), Tensor(b))
        assert np.abs(out.data - naive_matmul(a, b)).max() <= 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_associativity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            dims = rng.integers(1, 9, size=4)
            a = Tensor(rng.standard_normal((dims[0], dims[1])))
            b = Tensor(rng.standard_normal((dims[1], dims[2])))
            c = Tensor(rng.standard_normal((dims[2], dims[3])))
            left = matmul(matmul(a, b), c).data
            right = matmul(a, matmul(b, c)).data
            assert np.abs(left - right).max() <= 1e-9

    def test_flop_accounting(self):
        with fresh_context() as ctx:
            matmul(Tensor(np.ones((4, 5))), Tensor(np.ones((5, 3))))
            assert ctx.ledger.flops == 4 * 3 * 5
        # batched: B*m*n*k, a 2-D operand broadcast across the batch axis
        with fresh_context() as ctx:
            out = matmul(Tensor(np.ones((2, 4, 5))), Tensor(np.ones((5, 3))))
            assert out.shape == (2, 4, 3) and ctx.ledger.flops == 2 * 4 * 3 * 5

    def test_batch_axes_must_broadcast(self):
        with pytest.raises(DimensionError, match="batch axes"):
            matmul(Tensor(np.ones((2, 4, 5))), Tensor(np.ones((3, 5, 3))))


def softmax_of(logits):
    """attention_map of a 1-channel query 1 against keys ``logits``: softmax(logits)."""
    return attention_map(Tensor([[1.0]]), Tensor(np.asarray(logits, dtype=float)[:, None]),
                         scale=1.0)


class TestSoftmax:
    """The row softmax inside ``attention_map``."""

    def test_uniform_input(self):
        out = softmax_of([0.0, 0.0, 0.0])
        assert np.abs(out.data - 1 / 3).max() <= 1e-12

    def test_extreme_magnitude_no_overflow(self):
        out = softmax_of([1000.0, 0.0])
        assert np.isfinite(out.data).all()
        assert out.data[0, 0] == pytest.approx(1.0)

    def test_against_extended_precision_oracle(self):
        import mpmath

        x = [1.0, 2.0, 3.0]
        es = [mpmath.e ** v for v in x]
        total = sum(es)
        expected = np.array([float(e / total) for e in es])
        out = softmax_of(x)
        assert np.abs(out.data[0] - expected).max() <= 1e-12

    def test_rows_sum_to_one_randomized(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m, n, d = rng.integers(1, 6, size=3)
            q = rng.uniform(-30, 30, size=(m, d))
            k = rng.uniform(-30, 30, size=(n, d))
            out = attention_map(Tensor(q), Tensor(k), scale=1.0 / np.sqrt(d))
            assert out.shape == (m, n)
            assert (out.data >= 0).all()
            assert np.abs(out.data.sum(axis=1) - 1).max() <= 1e-12

    @pytest.mark.parametrize("q_shape,k_shape", [
        ((3, 4), (2, 5, 4)), ((2, 3, 4), (4, 1, 5, 4)), ((2, 3, 4), (6, 4, 1, 5, 4)),
        ((2, 3, 4), (4, 2, 5, 4)), ((1, 3, 4), (4, 1, 5, 4))])
    def test_keys_in_front_of_the_queries_batch(self, q_shape, k_shape):
        # one product for every batch of keys, same map as the broadcast one,
        # same products counted
        rng = np.random.default_rng(5)
        q, k = rng.standard_normal(q_shape), rng.standard_normal(k_shape)
        bias = rng.standard_normal(k_shape[:-1])
        logits = (np.matmul(q, np.swapaxes(k, -1, -2)) + bias[..., None, :]) * 0.7
        want = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
        with fresh_context() as ctx:
            got = attention_map(Tensor(q), Tensor(k), Tensor(bias), scale=0.7)
        assert got.shape == want.shape and got.data.flags.c_contiguous
        assert np.abs(got.data - want).max() <= 1e-12
        assert ctx.ledger.flops == want.size * q_shape[-1]

    def test_charges_only_the_map(self):
        # multiply-adds of q @ k^T; the map is charged, not k^T or the logits
        q = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        k = Tensor(np.ones((5, 4)), requires_grad=True)
        with fresh_context() as ctx:
            sum_all(attention_map(q, k, scale=0.5)).backward()
            assert ctx.ledger.peak_values == 2 * 3 * 5 + 1
            assert ctx.ledger.flops == 3 * (2 * 3 * 5 * 4)


class TestLinear:
    def test_identity_weights(self):
        out = Linear(Tensor(np.eye(2)), Tensor([0.0, 0.0]))(Tensor([1.0, 1.0]))
        assert np.array_equal(out.data, [1.0, 1.0])

    def test_bias(self):
        out = Linear(Tensor(np.eye(2)), Tensor([3.0, 4.0]))(Tensor([1.0, 2.0]))
        assert np.array_equal(out.data, [4.0, 6.0])

    def test_against_oracle(self):
        rng = np.random.default_rng(3)
        x, w, b = rng.standard_normal((6, 4)), rng.standard_normal((4, 5)), rng.standard_normal(5)
        out = Linear(Tensor(w), Tensor(b))(Tensor(x))
        assert np.abs(out.data - (naive_matmul(x, w) + b)).max() <= 1e-12

    def test_param_count(self):
        lin = Linear(Tensor(np.zeros((7, 3))), Tensor(np.zeros(3)))
        assert sum(p.data.size for p in lin.parameters()) == 7 * 3 + 3

    def test_batched_input_charges_as_flattened(self):
        # the flattening and un-flattening reshapes are views: no new values
        rng = np.random.default_rng(5)
        lin = Linear.init(4, 3, rng)
        x = rng.standard_normal((2, 5, 4))

        def charged(inp):
            with fresh_context() as ctx:
                t = Tensor(inp)
                ctx.ledger.reset()
                out = lin(t)
                return out.data, ctx.ledger.snapshot()

        out3, snap3 = charged(x)
        out2, snap2 = charged(x.reshape(-1, 4))
        assert np.array_equal(out3.reshape(-1, 3), out2)
        assert snap3 == snap2

    def test_then_is_the_chain_as_one_constant_map(self):
        # w = w1 @ w2 and bias = b1 @ w2 + b2, through the counted product
        rng = np.random.default_rng(6)
        first, after = Linear.init(4, 5, rng), Linear.init(5, 3, rng)
        for p in first.parameters() + after.parameters():
            p.data += rng.standard_normal(p.data.shape)  # non-zero biases
        x = Tensor(rng.standard_normal((2, 6, 4)))
        with fresh_context() as ctx:
            both = first.then(after)
            snap = ctx.ledger.snapshot()
        assert snap == {"peak_values": 4 * 3 + 3, "flops": 4 * 5 * 3 + 5 * 3}
        assert np.abs(both(x).data - after(first(x)).data).max() <= 1e-12
        assert not any(p.requires_grad for p in both.parameters())


def cos(a, b):
    """cos(a, b) of [..., d] rows through the scoring head: one frame, one map row."""
    a = np.asarray(a, dtype=float)
    return pooled_cosine(Tensor(np.ones((1, 1, 1))), Tensor(a[..., None, None, :]), None,
                         Tensor(b))


class TestCosine:
    """The cosine of ``pooled_cosine``, on one frame whose one row is ``a``."""

    def test_self_similarity(self):
        assert cos([1.0, 2, 3], [1.0, 2, 3]).item() == 1.0

    def test_orthogonal(self):
        assert cos([1.0, 0], [0.0, 1]).item() == 0.0
        assert cos([1.0, 1], [1.0, -1]).item() == 0.0

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateInputError, match="zero-norm"):
            cos([0.0, 0.0], [1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        # clamping a NaN cosine would score the pair as a confident non-match
        with pytest.raises(DegenerateInputError, match="non-finite"):
            cos([bad, 1.0], [1.0, 1.0])

    def test_clamped_to_unit_interval(self):
        v = [1e-8, 1e8]
        assert abs(cos(v, v).item()) <= 1.0

    def test_row_batched_matches_per_row(self):
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal((2, 3, 5)), rng.standard_normal((2, 3, 5))
        out = cos(a, b).data
        assert out.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                assert out[i, j] == cos(a[i, j], b[i, j]).item()

    def test_inf_row_rejected(self):
        a = np.ones((3, 4))
        a[1, 2] = np.inf
        with pytest.raises(DegenerateInputError, match="non-finite"):
            cos(a, np.ones((3, 4)))

    def test_zero_row_rejected(self):
        b = np.ones((3, 4))
        b[2] = 0.0
        with pytest.raises(DegenerateInputError, match="zero-norm"):
            cos(np.ones((3, 4)), b)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            cos(np.ones((2, 4)), np.ones(4))


class TestTake:
    def test_rows_and_repeats(self):
        x = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(take(Tensor(x), [2, 0, 2]).data, x[[2, 0, 2]])

    def test_index_shape_leads_the_result(self):
        x = np.arange(6.0).reshape(3, 2)
        idx = [[2, 0], [2, 1]]
        assert np.array_equal(take(Tensor(x), idx).data, x[np.array(idx)])

    @pytest.mark.parametrize("shape", [(3,), (3, 1)])
    def test_every_row_in_order_is_a_view_charged_nothing(self, shape):
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        with fresh_context() as ctx:
            out = take(x, np.arange(3).reshape(shape))
            assert ctx.ledger.peak_values == 0
        assert out.data.shape == shape + (2,) and np.shares_memory(out.data, x.data)
        sum_all(mul(out, Tensor(np.ones(shape + (2,))))).backward()
        assert np.array_equal(x.grad, np.ones((3, 2)))

    @pytest.mark.parametrize("idx", [[3], [-1], 0, [[0], [3]]])
    def test_bad_indices_rejected(self, idx):
        with pytest.raises(DimensionError, match="take"):
            take(Tensor(np.ones((3, 2))), idx)


class TestPooling:
    """``mean_axis``, and the ``max_axis`` of the test references."""

    def test_avg_rows(self):
        out = mean_axis(Tensor([[1.0, 3], [3, 5]]), axis=0)
        assert np.array_equal(out.data, [2.0, 4.0])

    def test_max_rows(self):
        out = max_axis(Tensor([[1.0, 3], [3, 5]]), axis=0)
        assert np.array_equal(out.data, [3.0, 5.0])

    def test_single_element_axis_identity(self):
        x = np.array([[1.5, -2.0]])
        assert np.array_equal(mean_axis(Tensor(x), axis=0).data, x[0])
        assert np.array_equal(max_axis(Tensor(x), axis=0).data, x[0])

    def test_empty_axis_rejected(self):
        with pytest.raises(DegenerateInputError):
            mean_axis(Tensor(np.zeros((0, 3))), axis=0)

    def test_keepdims(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = mean_axis(x, axis=-2, keepdims=True)
        assert np.array_equal(out.data, [[1.5, 2.5, 3.5]])
        sum_all(out).backward()
        assert np.array_equal(x.grad, np.full((2, 3), 0.5))


class TestAdd:
    def test_broadcasts_leading_axes(self):
        a = np.arange(24.0).reshape(2, 3, 4)
        b = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(add(Tensor(a), Tensor(b)).data, a + b)

    def test_shapes_that_do_not_broadcast_rejected(self):
        with pytest.raises(DimensionError, match=r"add.*\(2, 3\).*\(2, 4\)"):
            add(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))


def _pooled_cosine_oracle(p, v, r, b):
    """cos(max over frames of mean_rows(p @ v + r), b) in numpy."""
    a = (p @ v + (0.0 if r is None else r)).mean(axis=-2).max(axis=-2)
    return (a * b).sum(axis=-1) / (np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1))


class TestPooledProduct:
    """The pooled product mean_rows(p) @ v + mean_rows(r) inside the head
    ``pooled_cosine``, which takes its max over frames and the cosine."""

    @pytest.mark.parametrize("p_shape,v_shape,r_shape", [
        ((2, 3, 4), (4, 2), None), ((2, 3, 4), (4, 2), (2, 3, 2)),
        ((2, 5, 3, 4), (2, 1, 4, 6), (5, 3, 6)), ((5, 3, 4), (2, 1, 4, 6), None)])
    def test_row_mean_of_product_plus_residual(self, p_shape, v_shape, r_shape):
        rng = np.random.default_rng(21)
        p, v = rng.standard_normal(p_shape), rng.standard_normal(v_shape)
        r = rng.standard_normal(r_shape) if r_shape else None
        maxima = np.broadcast_shapes(p_shape[:-2], v_shape[:-2],
                                     r_shape[:-2] if r_shape else ())[:-1]
        b = rng.standard_normal(maxima + v_shape[-1:])
        out = pooled_cosine(Tensor(p), Tensor(v), Tensor(r) if r_shape else None, Tensor(b))
        want = _pooled_cosine_oracle(p, v, r, b)
        assert out.data.shape == want.shape
        assert np.abs(out.data - want).max() <= 1e-12

    def test_charges_output_and_row_means(self):
        # the pooled rows and p's row means, then the maxima and the cosine
        rng = np.random.default_rng(22)
        p, v = Tensor(rng.standard_normal((2, 3, 4))), Tensor(rng.standard_normal((4, 5)))
        b = Tensor(rng.standard_normal(5))
        with fresh_context() as ctx:
            pooled_cosine(p, v, None, b)
            assert ctx.ledger.snapshot() == {"peak_values": 2 * 5 + 2 * 4 + 5 + 1,
                                             "flops": 2 * 4 * 5}

    @pytest.mark.parametrize("p_shape,v_shape,r_shape", [
        ((3, 4), (5, 2), None), ((3, 4), (4, 2), (2, 2)), ((2, 3, 4), (3, 4, 2), None),
        ((2, 3, 4), (4, 2), (3, 3, 2))])
    def test_bad_shapes_rejected(self, p_shape, v_shape, r_shape):
        with pytest.raises(DimensionError, match="pooled_cosine"):
            pooled_cosine(Tensor(np.ones(p_shape)), Tensor(np.ones(v_shape)),
                          Tensor(np.ones(r_shape)) if r_shape else None, Tensor(np.ones(2)))


class TestPooledCosine:
    @pytest.mark.parametrize("p_shape,b_shape", [
        ((3, 4), (2,)), ((2, 3, 4), (3,)), ((2, 3, 4), (2, 2))],
        ids=["no-frame-axis", "prompt-channels", "prompt-rows"])
    def test_bad_frames_or_prompt_rejected(self, p_shape, b_shape):
        with pytest.raises(DimensionError, match="pooled_cosine"):
            pooled_cosine(Tensor(np.ones(p_shape)), Tensor(np.ones((4, 2))), None,
                          Tensor(np.ones(b_shape)))

    def test_zero_norm_rejected(self):
        p, v = Tensor(np.ones((2, 3, 4))), Tensor(np.ones((4, 2)))
        with pytest.raises(DegenerateInputError, match="zero-norm"):
            pooled_cosine(p, v, None, Tensor(np.zeros(2)))
        with pytest.raises(DegenerateInputError, match="zero-norm"):
            pooled_cosine(p, Tensor(np.zeros((4, 2))), None, Tensor(np.ones(2)))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        # clamping a NaN cosine would score the pair as a confident non-match
        v = np.ones((4, 2))
        v[1, 0] = bad
        with pytest.raises(DegenerateInputError, match="non-finite"):
            pooled_cosine(Tensor(np.ones((2, 3, 4))), Tensor(v), None, Tensor(np.ones(2)))
        b = np.ones(2)
        b[1] = bad
        with pytest.raises(DegenerateInputError, match="non-finite"):
            pooled_cosine(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((4, 2))), None, Tensor(b))


class TestMomentumSGD:
    def test_flat_buffer_equals_per_parameter_loop(self):
        # five steps, every parameter with a gradient in each
        rng = np.random.default_rng(24)
        shapes = [(3, 4), (4,), (2, 2), (5, 3), (3,)]
        init = [rng.standard_normal(s) for s in shapes]
        flat = [Tensor(x.copy(), requires_grad=True) for x in init]
        loop = [Tensor(x.copy(), requires_grad=True) for x in init]
        velocities = [np.zeros(s) for s in shapes]
        opt = MomentumSGD(flat, lr=0.05, momentum=0.9)
        offsets = np.cumsum([0] + [x.size for x in init])
        for p, x in zip(flat, init):
            assert np.shares_memory(p.data, opt.weights) and np.array_equal(p.data, x)
        for step in range(5):
            for i, s in enumerate(shapes):
                g = rng.standard_normal(s)
                flat[i].grad, loop[i].grad = g, g.copy()
            opt.step()
            momentum_loop(loop, velocities, 0.05, 0.9)
            for a, b, vel, lo, hi in zip(flat, loop, velocities, offsets, offsets[1:]):
                assert a.grad is None and b.grad is None
                assert np.array_equal(a.data, b.data)
                assert np.array_equal(opt.velocities[lo:hi], vel.reshape(-1))

    def test_missing_gradient_raises_naming_the_parameter(self):
        params = [Tensor(np.ones(2), requires_grad=True) for _ in range(3)]
        opt = MomentumSGD(params, lr=0.1, momentum=0.9)
        params[0].grad = params[2].grad = np.ones(2)
        with pytest.raises(ContractError, match="parameter 1 has no gradient"):
            opt.step()
        assert all(np.array_equal(p.data, np.ones(2)) for p in params)
        assert not opt.velocities.any()


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = Tensor(np.random.default_rng(4).standard_normal((3, 2)), requires_grad=True)
        sum_all(x).backward()
        assert np.array_equal(x.grad, np.ones((3, 2)))

    def test_hand_derivative(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        sum_all(mul(x, x)).backward()
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_non_scalar_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            add(x, x).backward()

    def test_shared_gradient_not_written_in_place(self):
        # add() hands one gradient array to both of its operands; a's second
        # contribution must not change the array b holds
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        w = Tensor([5.0, 7.0])
        sum_all(mul(add(add(a, b), a), w)).backward()
        assert np.array_equal(b.grad, [5.0, 7.0])
        assert np.array_equal(a.grad, [10.0, 14.0])


    @pytest.mark.parametrize("bad", [np.ones(3), np.ones((1, 2)), np.ones(2, dtype=np.float32)],
                             ids=["shape", "broadcastable", "dtype"])
    def test_wrong_gradient_is_a_contract_error(self, bad):
        # a backward hands each parent a gradient of its exact shape and dtype;
        # anything else is a bug in the op, never broadcast or cast
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = node(x.data * 2.0, (x,), lambda g: x._accumulate(bad))
        with pytest.raises(ContractError, match=re.escape(
                f"gradient {bad.shape} {bad.dtype} for a tensor (2,) float64")):
            sum_all(y).backward()


class TestLedger:
    def test_forward_peak_deterministic(self):
        def run():
            with fresh_context() as ctx:
                a = Tensor(np.ones((3, 4)))
                b = Tensor(np.ones((5, 4)))
                attention_map(a, b, scale=0.5)
                return ctx.ledger.snapshot()

        first, second = run(), run()
        assert first == second


class TestContext:
    def test_threads_see_only_their_own_context(self):
        # each thread works inside its own fresh_context while the other does
        # the same; a context shared between threads would mix their ledgers
        rounds, sizes = 200, (3, 5)
        barrier = threading.Barrier(len(sizes), timeout=10)
        errors = []

        def work(n):
            try:
                x = Tensor(np.ones(n), requires_grad=True)
                with fresh_context() as ctx:
                    for k in range(1, rounds + 1):
                        barrier.wait()
                        mul(x, x)
                        assert current_context() is ctx
                        assert ctx.ledger.peak_values == k * n
            except Exception as exc:  # reported by the main thread
                errors.append(exc)
                barrier.abort()

        prev = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in sizes]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(prev)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


class TestGraphRelease:
    """Graphs are freed by reference counting: none is left to the cyclic collector."""

    @staticmethod
    def cyclic_tensors(run):
        """Tensors that only the cyclic collector would free after ``run()``."""
        gc.collect()
        enabled, flags, start = gc.isenabled(), gc.get_debug(), len(gc.garbage)
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            run()
            gc.collect()
            return sum(isinstance(o, Tensor) for o in gc.garbage[start:])
        finally:
            gc.set_debug(flags)
            del gc.garbage[start:]
            if enabled:
                gc.enable()

    def test_graphs_leave_nothing_to_the_cyclic_collector(self):
        # the pooled graph training builds after the MLPs: two windows of
        # two frames, each against its own prompt, and the loss
        rng = np.random.default_rng(0)
        params = fusion_params("mex", 8, rng)
        fG, fL = (Tensor(rng.standard_normal((2, 2, n, 8))) for n in (3, 4))
        fP = Tensor(rng.standard_normal((2, 1, 5, 8)))
        target = Tensor(rng.standard_normal((2, 8)))

        def loss():
            visual = visual_terms(params, global_terms(params, fG), fL)
            scores = pooled_score(params, visual, prompt_terms(params, fP), target)
            return _loss_sum(scores, [True, False], -1.0, 0.5)

        def forward():
            with fresh_context():
                loss()

        def backward():
            with fresh_context():
                out = loss()
                out.backward()
            # backward released the interior node; the leaves keep their gradients
            assert out._backward is None and out.grad is None
            assert all(p.grad is not None for lin in params.linears.values()
                       for p in lin.parameters())

        data = generate_synthetic_dataset(SMALL)

        def training():
            train(data["samples"], data["trajectories"], data["tasks"], small_model(data),
                  epochs=2, batch_size=3)

        left = {name: self.cyclic_tensors(run)
                for name, run in [("forward", forward), ("backward", backward),
                                  ("train", training)]}
        assert left == {"forward": 0, "backward": 0, "train": 0}
