"""Minimal dense tensor engine with reverse-mode gradients.

Tensors wrap numpy arrays. An op that needs a gradient keeps its parents
and a backward closure on its result, and every tensor allocation is charged
to the active ExecutionContext's AllocationLedger (values, not bytes), so
the values charged in a pass and its multiply-add counts are exact and
deterministic. No context holds a graph: a graph lives while its tensors are
referenced, ``backward`` releases each node as it runs, and reference
counting frees the rest.
"""

from __future__ import annotations

import contextvars
import math
from contextlib import contextmanager

import numpy as np

from . import kernels


class DimensionError(ValueError):
    pass


class DegenerateInputError(ValueError):
    pass


class ContractError(ValueError):
    pass


class AllocationLedger:
    """Counts charged tensor values and accumulated multiply-adds.

    ``peak_values`` is every value charged since the last ``reset``: nothing
    frees a charge, so within one pass it is the values that pass charged,
    not a high-water mark of the values alive at one time.
    """

    def __init__(self):
        self.reset()

    def alloc(self, n):
        self.peak_values += n

    def add_flops(self, n):
        self.flops += n

    def reset(self):
        self.peak_values = 0
        self.flops = 0

    def snapshot(self):
        return {"peak_values": self.peak_values, "flops": self.flops}


class ExecutionContext:
    """A ledger and a grad switch; it holds no tensors, so graphs are freed
    by reference counting when their last tensor goes."""

    def __init__(self):
        self.ledger = AllocationLedger()
        self.grad_enabled = True


# the active context of this thread (or asyncio task); threads never share one
_CTX = contextvars.ContextVar("mexfuse_execution_context")


def current_context():
    ctx = _CTX.get(None)
    if ctx is None:
        ctx = ExecutionContext()
        _CTX.set(ctx)
    return ctx


@contextmanager
def fresh_context():
    ctx = ExecutionContext()
    token = _CTX.set(ctx)
    try:
        yield ctx
    finally:
        _CTX.reset(token)


@contextmanager
def no_grad():
    ctx = current_context()
    prev = ctx.grad_enabled
    ctx.grad_enabled = False
    try:
        yield
    finally:
        ctx.grad_enabled = prev


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None, _charge=None):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = _parents
        self._backward = _backward
        current_context().ledger.alloc(arr.size if _charge is None else _charge)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self):
        return float(self.data)

    # ---- autograd plumbing -------------------------------------------------

    def _accumulate(self, g):
        # No gradient array is ever written in place, so one array may be the
        # gradient of several tensors: the first one is kept as it comes, and
        # later ones are added out of place.
        if g.shape == self.data.shape and g.dtype == self.data.dtype:
            self.grad = g if self.grad is None else self.grad + g
        else:  # broadcast or cast, as an in-place add does
            grad = np.zeros_like(self.data) if self.grad is None else self.grad.copy()
            grad += g
            self.grad = grad

    def backward(self):
        if self.data.size != 1:
            raise ContractError(f"backward() needs a scalar loss, got shape {self.data.shape}")
        # depth-first post-order, iterative: a recursive closure would form a
        # reference cycle that keeps the whole graph, gradients included,
        # alive until the next cyclic garbage collection
        topo, seen, todo = [], set(), [(self, False)]
        while todo:
            t, expanded = todo.pop()
            if expanded:
                topo.append(t)
            elif id(t) not in seen:
                seen.add(id(t))
                todo.append((t, True))
                todo.extend((p, False) for p in reversed(t._parents))
        self.grad = np.ones_like(self.data)
        # release each node once its backward has run: its closure and parent
        # references go, and with them the activations nothing else holds;
        # only leaves keep a gradient
        while topo:
            t = topo.pop()
            if t._backward is not None:
                t._backward(t.grad)
                t._backward, t._parents, t.grad = None, (), None


def node(data, parents, backward_fn, charge=None):
    """The result of an op: a graph node when a parent needs a gradient.

    ``backward_fn(g)`` hands each parent that requires a gradient its part
    of ``g``. ``charge`` is the number of values the ledger is charged,
    ``data.size`` by default: a view allocates none, and a fused op also
    charges the intermediates it keeps for its backward pass.
    """
    ctx = current_context()
    needs = ctx.grad_enabled and any(p.requires_grad for p in parents)
    if needs:
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=backward_fn,
                      _charge=charge)
    return Tensor(data, _charge=charge)


# ---- elementwise ops -------------------------------------------------------


def _check_same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise DimensionError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


def add(a, b):
    """a + b; leading axes broadcast as in numpy, and each gradient is summed back."""
    try:
        out = a.data + b.data
    except ValueError:
        raise DimensionError(f"add: shapes do not broadcast, {a.data.shape} vs {b.data.shape}") \
            from None

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_sum_to(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_sum_to(g, b.data.shape))

    return node(out, (a, b), bwd)


def sub(a, b):
    _check_same_shape(a, b, "sub")

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(-g)

    return node(a.data - b.data, (a, b), bwd)


def scale(a, c):
    c = float(c)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g * c)

    return node(a.data * c, (a,), bwd)


# ---- linear algebra --------------------------------------------------------


def _sum_to(g, shape):
    """Sum a gradient over the axes its operand was broadcast along."""
    if g.shape == shape:
        return g
    g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True) if axes else g


def matmul(a, b):
    """a @ b over the last two axes; leading batch axes broadcast as in np.matmul.

    Charges B*m*n*k multiply-adds, B being the size of the broadcast batch.
    """
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(
            f"matmul: need operands of rank >= 2, got {a.data.shape} x {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(f"matmul: inner extents differ, {a.data.shape} x {b.data.shape}")
    try:
        batch = np.broadcast_shapes(a.data.shape[:-2], b.data.shape[:-2])
    except ValueError:
        raise DimensionError(
            f"matmul: batch axes do not broadcast, {a.data.shape} x {b.data.shape}") from None
    m, k = a.data.shape[-2:]
    n = b.data.shape[-1]
    madds = math.prod(batch) * m * n * k
    ctx = current_context()
    ctx.ledger.add_flops(madds)
    out = kernels.matmul2d(a.data, b.data)

    def bwd(g):
        if a.requires_grad:
            ctx.ledger.add_flops(madds)
            a._accumulate(_sum_to(kernels.matmul2d(g, np.swapaxes(b.data, -1, -2)),
                                  a.data.shape))
        if b.requires_grad:
            ctx.ledger.add_flops(madds)
            b._accumulate(_sum_to(kernels.matmul2d(np.swapaxes(a.data, -1, -2), g),
                                  b.data.shape))

    return node(out, (a, b), bwd)


def reshape(a, shape):
    """Reshape; a view of a contiguous input, which the ledger charges nothing."""
    out = np.ascontiguousarray(a.data.reshape(shape))

    def bwd(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.data.shape))

    # a view shares its parent's values, so it allocates none
    return node(out, (a,), bwd, charge=0 if np.may_share_memory(out, a.data) else None)


def take(a, idx):
    """Rows of ``a`` along axis 0 at the integer indices ``idx``; indices may repeat.

    The backward scatter-adds each row's gradient back to its source row.
    """
    idx = np.asarray(idx, dtype=np.intp)
    n = a.data.shape[0] if a.data.ndim else 0
    if idx.ndim != 1 or (idx.size and (idx.min() < 0 or idx.max() >= n)):
        raise DimensionError(f"take: need 1-D indices in [0, {n}), got {idx.tolist()}")

    def bwd(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, idx, g)
            a._accumulate(full)

    return node(a.data[idx], (a,), bwd)


def attention_map(q, k):
    """softmax(q k^T / sqrt(d)) over the last two axes, as one graph node.

    ``q`` is [..., m, d] and ``k`` [..., n, d]; leading batch axes broadcast
    as in ``matmul``. ``k`` is read through a transposed view and the logits
    are scaled in place, so the [..., m, n] map is the only array kept and
    the only one charged; the multiply-adds are those of ``matmul(q, k^T)``.
    """
    if q.data.ndim < 2 or k.data.ndim < 2:
        raise DimensionError(
            f"attention_map: need operands of rank >= 2, got {q.data.shape} x {k.data.shape}")
    if q.data.shape[-1] != k.data.shape[-1]:
        raise DimensionError(f"attention_map: channels differ, {q.data.shape} x {k.data.shape}")
    try:
        batch = np.broadcast_shapes(q.data.shape[:-2], k.data.shape[:-2])
    except ValueError:
        raise DimensionError(
            f"attention_map: batch axes do not broadcast, {q.data.shape} x {k.data.shape}") from None
    m, d = q.data.shape[-2:]
    n = k.data.shape[-2]
    madds = math.prod(batch) * m * n * d
    c = 1.0 / math.sqrt(d)
    ctx = current_context()
    ctx.ledger.add_flops(madds)
    logits = kernels.matmul2d(q.data, np.swapaxes(k.data, -1, -2))
    logits *= c
    y = kernels.softmax_rows2d(logits)

    def bwd(g):
        # dS = y * (g - sum(g * y)) * c over each row of the map
        ds = y * (g - (g * y).sum(axis=-1, keepdims=True))
        ds *= c
        if q.requires_grad:
            ctx.ledger.add_flops(madds)
            q._accumulate(_sum_to(kernels.matmul2d(ds, k.data), q.data.shape))
        if k.requires_grad:
            ctx.ledger.add_flops(madds)
            k._accumulate(_sum_to(kernels.matmul2d(np.swapaxes(ds, -1, -2), q.data),
                                  k.data.shape))

    return node(y, (q, k), bwd)


def pooled_product(p, v, r=None):
    """mean_rows(p) @ v + mean_rows(r), as one graph node: the row mean of p @ v + r.

    ``p`` is [..., m, n], ``v`` [..., n, d] and ``r`` [..., m, d] or None;
    leading batch axes broadcast as in ``matmul``, and the result is
    [..., d]. The mean is linear, so it is taken before the product and the
    [..., m, d] product is never built. The node keeps the row means of
    ``p`` for its backward pass and charges them with its output; the
    multiply-adds are those of ``mean_rows(p) @ v``, forward and backward.
    """
    if p.data.ndim < 2 or v.data.ndim < 2:
        raise DimensionError(
            f"pooled_product: need operands of rank >= 2, got {p.data.shape} x {v.data.shape}")
    m, n = p.data.shape[-2:]
    d = v.data.shape[-1]
    if v.data.shape[-2] != n:
        raise DimensionError(f"pooled_product: inner extents differ, {p.data.shape} x {v.data.shape}")
    if r is not None and r.data.shape[-2:] != (m, d):
        raise DimensionError(
            f"pooled_product: residual {r.data.shape} is not [..., {m}, {d}]")
    parents = (p, v) if r is None else (p, v, r)
    # np.add.reduce(x) / m is x.mean() without its Python-level wrapper
    p_mean = (np.add.reduce(p.data, axis=-2) / m)[..., None, :]  # [..., 1, n]
    try:
        prod = kernels.matmul2d(p_mean, v.data)[..., 0, :]
        out = prod if r is None else prod + np.add.reduce(r.data, axis=-2) / m
    except ValueError:
        raise DimensionError(f"pooled_product: batch axes do not broadcast, "
                             f"{tuple(t.data.shape for t in parents)}") from None
    madds = prod.size * n
    ctx = current_context()
    ctx.ledger.add_flops(madds)

    def bwd(g):
        g1 = g[..., None, :]  # [..., 1, d]
        if p.requires_grad:
            ctx.ledger.add_flops(madds)
            gp = kernels.matmul2d(g1, np.swapaxes(v.data, -1, -2))
            gp /= m
            # every row of p gets the same share: sum over the batch first, then a view
            p._accumulate(np.broadcast_to(_sum_to(gp, p.data.shape[:-2] + (1, n)),
                                          p.data.shape))
        if v.requires_grad:
            ctx.ledger.add_flops(madds)
            v._accumulate(_sum_to(kernels.matmul2d(np.swapaxes(p_mean, -1, -2), g1),
                                  v.data.shape))
        if r is not None and r.requires_grad:
            r._accumulate(np.broadcast_to(_sum_to(g1, r.data.shape[:-2] + (1, d)) / m,
                                          r.data.shape))

    return node(out, parents, bwd, charge=out.size + p_mean.size)


# ---- reductions ------------------------------------------------------------


def sum_all(a):
    def bwd(g):
        if a.requires_grad:
            a._accumulate(np.full_like(a.data, float(g)))

    return node(np.asarray(a.data.sum()), (a,), bwd)


def mean_axis(a, axis):
    if a.data.shape[axis] == 0:
        raise DegenerateInputError(f"mean over empty axis {axis} of {a.data.shape}")
    n = a.data.shape[axis]

    def bwd(g):
        if a.requires_grad:
            # a read-only view: no gradient array is written in place
            a._accumulate(np.broadcast_to(np.expand_dims(g / n, axis), a.data.shape))

    return node(a.data.mean(axis=axis), (a,), bwd)


def max_axis(a, axis):
    if a.data.shape[axis] == 0:
        raise DegenerateInputError(f"max over empty axis {axis} of {a.data.shape}")
    idx = np.argmax(a.data, axis=axis)

    def bwd(g):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.put_along_axis(full, np.expand_dims(idx, axis),
                              np.expand_dims(g, axis), axis)
            a._accumulate(full)

    return node(np.max(a.data, axis=axis), (a,), bwd)


# ---- similarity ------------------------------------------------------------


def cosine_similarity(a, b):
    """cos(a, b) along the last axis, clamped to [-1, 1].

    ``a`` and ``b`` are [..., d] of one shape; leading axes are batch axes
    and the result is [...] (a scalar for 1-D vectors). Zero and non-finite
    rows are rejected: clamping a NaN cosine would report it as a confident
    non-match.
    """
    if a.data.ndim < 1 or a.data.shape != b.data.shape:
        raise DimensionError(f"cosine: need matching [..., d] rows, got {a.data.shape} vs {b.data.shape}")
    na = np.sqrt(np.vecdot(a.data, a.data))
    nb = np.sqrt(np.vecdot(b.data, b.data))
    dot = np.vecdot(a.data, b.data)
    den = na * nb
    with np.errstate(divide="ignore", invalid="ignore"):
        c = dot / den
    # one test for every bad row: a non-finite dot makes c non-finite, a
    # non-finite norm makes den non-finite, a zero norm makes den zero
    if not np.isfinite(c + den).all():
        finite = np.isfinite(dot) & np.isfinite(na) & np.isfinite(nb)
        if not finite.all():
            i = np.unravel_index(np.argmin(finite), finite.shape)
            raise DegenerateInputError(
                f"cosine similarity of a non-finite vector (dot {dot[i]}, norms {na[i]}, {nb[i]})")
        raise DegenerateInputError("cosine similarity of a zero-norm vector")
    clamped = np.minimum(np.maximum(c, -1.0), 1.0)  # np.clip costs twice as much

    def bwd(g):
        g, ab, cn = g[..., None], den[..., None], c[..., None]
        if a.requires_grad:
            a._accumulate(g * (b.data / ab - cn * a.data / (na * na)[..., None]))
        if b.requires_grad:
            b._accumulate(g * (a.data / ab - cn * b.data / (nb * nb)[..., None]))

    return node(clamped, (a, b), bwd)


# ---- parameter containers --------------------------------------------------


class Linear:
    """Affine map along the last axis; census = d_in*d_out + d_out."""

    def __init__(self, w, bias):
        w = w if isinstance(w, Tensor) else Tensor(w)
        bias = bias if isinstance(bias, Tensor) else Tensor(bias)
        if w.data.ndim != 2 or bias.data.ndim != 1 or bias.data.shape[0] != w.data.shape[1]:
            raise DimensionError(f"linear params: w {w.data.shape}, bias {bias.data.shape}")
        self.w = w
        self.bias = bias

    @classmethod
    def init(cls, d_in, d_out, rng, scale=None, requires_grad=True):
        scale = scale if scale is not None else 1.0 / np.sqrt(d_in)
        w = Tensor(rng.standard_normal((d_in, d_out)) * scale, requires_grad=requires_grad)
        b = Tensor(np.zeros(d_out), requires_grad=requires_grad)
        return cls(w, b)

    @property
    def d_in(self):
        return self.w.data.shape[0]

    @property
    def d_out(self):
        return self.w.data.shape[1]

    def param_count(self):
        return self.d_in * self.d_out + self.d_out

    def parameters(self):
        return [self.w, self.bias]

    def __call__(self, x):
        """x[..., d_in] @ w + bias as one graph node.

        Leading axes are folded inside numpy and the bias is added in place,
        so the ledger is charged the output only (the pre-bias product is
        never a tensor) and ``rows*d_in*d_out`` multiply-adds per product.
        """
        if x.data.shape[-1] != self.d_in:
            raise DimensionError(
                f"linear: input trailing dim {x.data.shape} vs weight {self.w.data.shape}")
        w, bias = self.w, self.bias
        x2 = x.data.reshape(-1, self.d_in)
        madds = x2.shape[0] * self.d_in * self.d_out
        ctx = current_context()
        ctx.ledger.add_flops(madds)
        out = kernels.matmul2d(x2, w.data)
        out += bias.data

        def bwd(g):
            g2 = g.reshape(-1, self.d_out)
            if x.requires_grad:
                ctx.ledger.add_flops(madds)
                x._accumulate(kernels.matmul2d(g2, w.data.T).reshape(x.data.shape))
            if w.requires_grad:
                ctx.ledger.add_flops(madds)
                w._accumulate(kernels.matmul2d(x2.T, g2))
            if bias.requires_grad:
                bias._accumulate(g2.sum(axis=0))

        return node(out.reshape(x.data.shape[:-1] + (self.d_out,)), (x, w, bias), bwd)


def sgd_momentum_step(params, velocities, lr, momentum):
    """Classic momentum update: v = mu*v + grad; w -= lr*v. In-place on leaves."""
    for p, v in zip(params, velocities):
        if p.grad is None:
            continue
        v *= momentum
        v += p.grad
        p.data -= lr * v
        p.grad = None
