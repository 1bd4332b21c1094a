"""The two hot numeric kernels under the tensor engine, on numpy/BLAS.

Both act on the last two axes (matmul) or the last axis (softmax) and take
any number of leading batch axes; ``matmul2d`` broadcasts them as
``np.matmul`` does. The tensor engine calls them through this module, so a
profiler or tracer can wrap each in one place.
"""

import numpy as np


def matmul2d(a, b):
    return np.matmul(a, b)


def softmax_rows2d(x):
    # the ufunc reductions are ndarray.max/sum without their Python-level
    # wrappers; exp and the division run in place on the one array made
    m = np.maximum.reduce(x, axis=-1, keepdims=True)
    e = x - m
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e
