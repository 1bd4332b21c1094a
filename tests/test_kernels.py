import numpy as np

from mexfuse import kernels


rng = np.random.default_rng(0)


def test_numpy_matmul_matches_blas():
    a, b = rng.standard_normal((7, 5)), rng.standard_normal((5, 9))
    assert np.abs(kernels.matmul2d(a, b) - a @ b).max() <= 1e-12
    # leading batch axes, one operand broadcast across them
    a3, b3 = rng.standard_normal((3, 7, 5)), rng.standard_normal((3, 5, 9))
    for x, y in ((a3, b3), (a3, b)):
        got = kernels.matmul2d(x, y)
        yb = np.broadcast_to(y, (3, 5, 9))
        assert np.abs(got - np.stack([x[i] @ yb[i] for i in range(3)])).max() <= 1e-12


def test_numpy_softmax_rows_sum_to_one():
    x = rng.standard_normal((6, 4)) * 100
    y = kernels.softmax_rows2d(x)
    assert np.abs(y.sum(axis=1) - 1).max() <= 1e-12
    x3 = rng.standard_normal((2, 6, 4)) * 100
    y3 = kernels.softmax_rows2d(x3)
    assert np.abs(y3.sum(axis=-1) - 1).max() <= 1e-12
    assert np.array_equal(y3[1], kernels.softmax_rows2d(x3[1]))
