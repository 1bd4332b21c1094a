import gc
import sys
import threading

import numpy as np
import pytest

from mexfuse.fusion import FusionParams, fuse
from mexfuse.pipeline import generate_synthetic_dataset, train
from mexfuse.tensor import (
    ContractError,
    DegenerateInputError,
    DimensionError,
    Linear,
    Tensor,
    add,
    attention_map,
    cosine_similarity,
    current_context,
    fresh_context,
    matmul,
    max_axis,
    mean_axis,
    pooled_product,
    sum_all,
    take,
)

from conftest import mul
from test_pipeline import SMALL, small_model


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
    return attention_map(Tensor([[1.0]]), Tensor(np.asarray(logits, dtype=float)[:, None]))


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
            out = attention_map(Tensor(q), Tensor(k))
            assert out.shape == (m, n)
            assert (out.data >= 0).all()
            assert np.abs(out.data.sum(axis=1) - 1).max() <= 1e-12

    def test_charges_only_the_map(self):
        # multiply-adds of q @ k^T; the map is charged, not k^T or the logits
        q = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        k = Tensor(np.ones((5, 4)), requires_grad=True)
        with fresh_context() as ctx:
            sum_all(attention_map(q, k)).backward()
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
        assert lin.param_count() == 7 * 3 + 3

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


class TestCosine:
    def test_self_similarity(self):
        assert cosine_similarity(Tensor([1.0, 2, 3]), Tensor([1.0, 2, 3])).item() == 1.0

    def test_orthogonal(self):
        assert cosine_similarity(Tensor([1.0, 0]), Tensor([0.0, 1])).item() == 0.0
        assert cosine_similarity(Tensor([1.0, 1]), Tensor([1.0, -1])).item() == 0.0

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateInputError):
            cosine_similarity(Tensor([0.0, 0.0]), Tensor([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        # clamping a NaN cosine would score the pair as a confident non-match
        with pytest.raises(DegenerateInputError, match="non-finite"):
            cosine_similarity(Tensor([bad, 1.0]), Tensor([1.0, 1.0]))

    def test_clamped_to_unit_interval(self):
        v = Tensor([1e-8, 1e8])
        assert abs(cosine_similarity(v, v).item()) <= 1.0

    def test_row_batched_matches_per_row(self):
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal((2, 3, 5)), rng.standard_normal((2, 3, 5))
        out = cosine_similarity(Tensor(a), Tensor(b)).data
        assert out.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                assert out[i, j] == cosine_similarity(Tensor(a[i, j]), Tensor(b[i, j])).item()

    def test_inf_row_rejected(self):
        a = np.ones((3, 4))
        a[1, 2] = np.inf
        with pytest.raises(DegenerateInputError, match="non-finite"):
            cosine_similarity(Tensor(a), Tensor(np.ones((3, 4))))

    def test_zero_row_rejected(self):
        b = np.ones((3, 4))
        b[2] = 0.0
        with pytest.raises(DegenerateInputError, match="zero-norm"):
            cosine_similarity(Tensor(np.ones((3, 4))), Tensor(b))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            cosine_similarity(Tensor(np.ones((2, 4))), Tensor(np.ones(4)))


class TestTake:
    def test_rows_and_repeats(self):
        x = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(take(Tensor(x), [2, 0, 2]).data, x[[2, 0, 2]])

    @pytest.mark.parametrize("idx", [[3], [-1], [[0]]])
    def test_bad_indices_rejected(self, idx):
        with pytest.raises(DimensionError, match="take"):
            take(Tensor(np.ones((3, 2))), idx)


class TestPooling:
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


class TestAdd:
    def test_broadcasts_leading_axes(self):
        a = np.arange(24.0).reshape(2, 3, 4)
        b = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(add(Tensor(a), Tensor(b)).data, a + b)

    def test_shapes_that_do_not_broadcast_rejected(self):
        with pytest.raises(DimensionError, match=r"add.*\(2, 3\).*\(2, 4\)"):
            add(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))


class TestPooledProduct:
    @pytest.mark.parametrize("p_shape,v_shape,r_shape", [
        ((3, 4), (4, 2), None), ((3, 4), (4, 2), (3, 2)),
        ((2, 5, 3, 4), (2, 1, 4, 6), (5, 3, 6)), ((5, 3, 4), (2, 1, 4, 6), None)])
    def test_row_mean_of_product_plus_residual(self, p_shape, v_shape, r_shape):
        rng = np.random.default_rng(21)
        p, v = rng.standard_normal(p_shape), rng.standard_normal(v_shape)
        r = rng.standard_normal(r_shape) if r_shape else None
        out = pooled_product(Tensor(p), Tensor(v), Tensor(r) if r_shape else None)
        want = (p @ v + (r if r_shape else 0.0)).mean(axis=-2)
        assert out.data.shape == want.shape
        assert np.abs(out.data - want).max() <= 1e-12

    def test_charges_output_and_row_means(self):
        rng = np.random.default_rng(22)
        p, v = Tensor(rng.standard_normal((2, 3, 4))), Tensor(rng.standard_normal((4, 5)))
        with fresh_context() as ctx:
            pooled_product(p, v)
            assert ctx.ledger.snapshot() == {"peak_values": 2 * 5 + 2 * 4, "flops": 2 * 4 * 5}

    @pytest.mark.parametrize("p_shape,v_shape,r_shape", [
        ((3, 4), (5, 2), None), ((3, 4), (4, 2), (2, 2)), ((2, 3, 4), (3, 4, 2), None),
        ((2, 3, 4), (4, 2), (3, 3, 2))])
    def test_bad_shapes_rejected(self, p_shape, v_shape, r_shape):
        with pytest.raises(DimensionError, match="pooled_product"):
            pooled_product(Tensor(np.ones(p_shape)), Tensor(np.ones(v_shape)),
                           Tensor(np.ones(r_shape)) if r_shape else None)


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


class TestLedger:
    def test_forward_peak_deterministic(self):
        def run():
            with fresh_context() as ctx:
                a = Tensor(np.ones((3, 4)))
                b = Tensor(np.ones((5, 4)))
                attention_map(a, b)
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
        rng = np.random.default_rng(0)
        params = FusionParams("mex", 8, rng)
        streams = [Tensor(rng.standard_normal((2, n, 8))) for n in (3, 4, 5)]

        def forward():
            with fresh_context():
                fuse(params, *streams)

        def backward():
            with fresh_context():
                out = fuse(params, *streams)
                sum_all(out.fused).backward()
            # backward released the interior node; the leaves keep their gradients
            assert out.fused._backward is None and out.fused.grad is None
            assert all(p.grad is not None for p in params.parameters())

        data = generate_synthetic_dataset(SMALL)

        def training():
            train(data["samples"], data["trajectories"], data["tasks"], small_model(data),
                  epochs=2, batch_size=3)

        left = {name: self.cyclic_tensors(run)
                for name, run in [("forward", forward), ("backward", backward),
                                  ("train", training)]}
        assert left == {"forward": 0, "backward": 0, "train": 0}
