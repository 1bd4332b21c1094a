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
    frees a charge, so for a pass run in a fresh context, as ``bench`` runs
    ``score_all``, it is the values that pass charged, not a high-water mark
    of the values alive at one time.
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
    """A ledger; it holds no tensors, so graphs are freed by reference
    counting when their last tensor goes."""

    def __init__(self):
        self.ledger = AllocationLedger()


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


_F64 = np.dtype(np.float64)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None, _charge=None):
        # np.asarray returns a float64 array as it is, but its call costs more than this test
        arr = data if type(data) is np.ndarray and data.dtype is _F64 else \
            np.asarray(data, dtype=np.float64)
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
        if g.shape != self.data.shape or g.dtype != self.data.dtype:
            raise ContractError(f"gradient {g.shape} {g.dtype} for a tensor "
                                f"{self.data.shape} {self.data.dtype}")
        self.grad = g if self.grad is None else self.grad + g

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
    """The result of an op: a graph node exactly when a parent requires a
    gradient, and otherwise a constant that keeps neither its parents nor
    ``backward_fn``.

    ``backward_fn(g)`` hands each parent that requires a gradient its part
    of ``g``. ``charge`` is the number of values the ledger is charged,
    ``data.size`` by default: a view allocates none, and a fused op also
    charges the intermediates it keeps for its backward pass.
    """
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=backward_fn,
                      _charge=charge)
    return Tensor(data, _charge=charge)


# ---- elementwise ops -------------------------------------------------------


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


# ---- linear algebra --------------------------------------------------------


def product(a, b):
    """a @ b of two arrays through ``kernels.matmul2d``, charged to the active ledger.

    Every multiply-add the engine counts is one of these products, forward
    and backward: ``out.size * a.shape[-1]`` of them, leading batch axes
    broadcast as in ``np.matmul``. A backward product charges the context
    active when ``backward()`` runs; ``train`` (per batch) and ``gradcheck``
    each run a pass's forward and backward in one context.
    """
    out = kernels.matmul2d(a, b)
    current_context().ledger.add_flops(out.size * a.shape[-1])
    return out


def _sum_to(g, shape):
    """Sum a gradient over the axes its operand was broadcast along."""
    if g.shape == shape:
        return g
    # np.add.reduce is ndarray.sum without its Python-level wrapper
    if g.ndim > len(shape):
        g = np.add.reduce(g, axis=tuple(range(g.ndim - len(shape))))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return np.add.reduce(g, axis=axes, keepdims=True) if axes else g


def matmul(a, b):
    """a @ b over the last two axes; leading batch axes broadcast as in np.matmul."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(
            f"matmul: need operands of rank >= 2, got {a.data.shape} x {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(f"matmul: inner extents differ, {a.data.shape} x {b.data.shape}")
    try:
        out = product(a.data, b.data)
    except ValueError:
        raise DimensionError(
            f"matmul: batch axes do not broadcast, {a.data.shape} x {b.data.shape}") from None

    def bwd(g):
        if a.requires_grad:
            a._accumulate(_sum_to(product(g, np.swapaxes(b.data, -1, -2)), a.data.shape))
        if b.requires_grad:
            b._accumulate(_sum_to(product(np.swapaxes(a.data, -1, -2), g), b.data.shape))

    return node(out, (a, b), bwd)


def take(a, idx):
    """Rows of ``a`` along axis 0 at the integer indices ``idx``, an array of
    any shape; indices may repeat. The result is idx.shape + a.shape[1:].

    Every row in order (a track window scored against all the prompts) is
    a view of ``a``, which the ledger charges nothing. The backward
    scatter-adds each row's gradient back to its source row.
    """
    idx = np.asarray(idx, dtype=np.intp)
    n = a.data.shape[0] if a.data.ndim else 0
    if idx.ndim == 0 or (idx.size and (idx.min() < 0 or idx.max() >= n)):
        raise DimensionError(f"take: need an array of indices in [0, {n}), got {idx.tolist()}")
    whole = idx.size == n and bool((idx.ravel() == np.arange(n)).all())
    out = a.data.reshape(idx.shape + a.data.shape[1:]) if whole else a.data[idx]

    def bwd(g):
        if a.requires_grad:
            if whole:
                a._accumulate(g.reshape(a.data.shape))
                return
            full = np.zeros_like(a.data)
            np.add.at(full, idx, g)
            a._accumulate(full)

    return node(out, (a,), bwd, charge=0 if whole and np.may_share_memory(out, a.data) else None)


def attention_map(q, k):
    """softmax(q k^T / sqrt(d)) over the last two axes, as one graph node.

    ``q`` is [..., m, d] and ``k`` [..., n, d]; leading batch axes broadcast
    as in ``matmul``. ``k`` is read through a transposed view and the logits
    are scaled in place, so the [..., m, n] map is the only array kept and
    the only one charged.
    """
    if q.data.ndim < 2 or k.data.ndim < 2:
        raise DimensionError(
            f"attention_map: need operands of rank >= 2, got {q.data.shape} x {k.data.shape}")
    if q.data.shape[-1] != k.data.shape[-1]:
        raise DimensionError(f"attention_map: channels differ, {q.data.shape} x {k.data.shape}")
    try:
        logits = product(q.data, np.swapaxes(k.data, -1, -2))
    except ValueError:
        raise DimensionError(f"attention_map: batch axes do not broadcast, "
                             f"{q.data.shape} x {k.data.shape}") from None
    scale = 1.0 / math.sqrt(q.data.shape[-1])
    logits *= scale
    y = kernels.softmax_rows2d(logits)

    def bwd(g):
        # dS = y * (g - sum(g * y)) * scale over each row of the map
        ds = y * (g - np.add.reduce(g * y, axis=-1, keepdims=True))
        ds *= scale
        if q.requires_grad:
            q._accumulate(_sum_to(product(ds, k.data), q.data.shape))
        if k.requires_grad:
            k._accumulate(_sum_to(product(np.swapaxes(ds, -1, -2), q.data), k.data.shape))

    return node(y, (q, k), bwd)


def pooled_cosine(p, v, r, b):
    """cos(max over frames of mean_rows(p @ v + r), b), as one graph node.

    ``p`` is [..., F, m, n], ``v`` [..., F, n, d] and ``r`` [..., F, m, d]
    or None; leading batch axes broadcast as in ``matmul``, ``F`` being the
    last of them. The row mean is linear, so it is taken before the product:
    the pooled rows are mean_rows(p) @ v + mean_rows(r), [..., F, d], and
    the [..., m, d] product is never built. Each channel's max over the F
    frames takes the first frame among ties, as ``np.argmax`` does. ``b`` is
    [..., d] of the maxima's shape; the result is their cosine, [...],
    clamped to [-1, 1]; zero and non-finite rows are rejected.

    The node keeps the row means of ``p`` and the pooled rows for its
    backward pass, which takes the argmax frames (a pass without gradients
    never needs them), and charges what the pooled product (with those row
    means, unless ``p`` has one row), the max and the cosine charge as
    separate nodes.
    """
    if p.data.ndim < 2 or v.data.ndim < 2:
        raise DimensionError(
            f"pooled_cosine: need operands of rank >= 2, got {p.data.shape} x {v.data.shape}")
    m, n = p.data.shape[-2:]
    d = v.data.shape[-1]
    if v.data.shape[-2] != n:
        raise DimensionError(f"pooled_cosine: inner extents differ, {p.data.shape} x {v.data.shape}")
    if r is not None and r.data.shape[-2:] != (m, d):
        raise DimensionError(f"pooled_cosine: residual {r.data.shape} is not [..., {m}, {d}]")
    # parents in the order of the separate nodes' graph, so that a backward
    # pass adds up shared gradients in the same order
    parents = (p, v, b) if r is None else (p, v, r, b)
    # np.add.reduce(x) / m is x.mean() without its Python-level wrapper; a
    # one-row map is its own row mean and is neither copied nor charged
    p_mean = p.data if m == 1 else (np.add.reduce(p.data, axis=-2) / m)[..., None, :]
    try:
        prod = product(p_mean, v.data)[..., 0, :]
        pooled = prod if r is None else prod + np.add.reduce(r.data, axis=-2) / m
    except ValueError:
        raise DimensionError(f"pooled_cosine: batch axes do not broadcast, "
                             f"{tuple(t.data.shape for t in parents[:-1])}") from None
    if pooled.ndim < 2:
        raise DimensionError(f"pooled_cosine: pooled rows {pooled.shape} have no frame axis")
    frames = pooled.shape[-2]
    if frames == 0:
        raise DegenerateInputError(f"max over an empty frame axis of {pooled.shape}")
    if b.data.shape != pooled.shape[:-2] + (d,):
        raise DimensionError(f"pooled_cosine: need [..., d] rows of one shape, got maxima "
                             f"{pooled.shape[:-2] + (d,)} vs {b.data.shape}")
    a = np.maximum.reduce(pooled, axis=-2)
    clamped, c, den, na, nb = _cosine(a, b.data)

    def bwd(g):
        g, ab, cn = g[..., None], den[..., None], c[..., None]
        if b.requires_grad:
            b._accumulate(g * (a / ab - cn * b.data / (nb * nb)[..., None]))
        ga = g * (b.data / ab - cn * a / (na * na)[..., None])
        # each channel's gradient goes to its argmax frame, zero elsewhere
        idx = np.argmax(pooled, axis=-2)  # [..., d]
        mask = idx[..., None, :] == np.arange(frames)[:, None]
        g1 = np.where(mask, ga[..., None, :], 0.0)[..., None, :]  # [..., F, 1, d]
        if p.requires_grad:
            gp = product(g1, np.swapaxes(v.data, -1, -2))
            gp /= m
            # every row of p gets the same share: sum over the batch first, then a view
            p._accumulate(np.broadcast_to(_sum_to(gp, p.data.shape[:-2] + (1, n)),
                                          p.data.shape))
        if v.requires_grad:
            v._accumulate(_sum_to(product(np.swapaxes(p_mean, -1, -2), g1), v.data.shape))
        if r is not None and r.requires_grad:
            r._accumulate(np.broadcast_to(_sum_to(g1, r.data.shape[:-2] + (1, d)) / m,
                                          r.data.shape))

    return node(clamped, parents, bwd,
                charge=pooled.size + (p_mean.size if m > 1 else 0) + a.size + c.size)


# ---- reductions ------------------------------------------------------------


def mean_axis(a, axis, keepdims=False):
    if a.data.shape[axis] == 0:
        raise DegenerateInputError(f"mean over empty axis {axis} of {a.data.shape}")
    n = a.data.shape[axis]

    def bwd(g):
        if a.requires_grad:
            # a read-only view: no gradient array is written in place
            g = g if keepdims else np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g / n, a.data.shape))

    return node(a.data.mean(axis=axis, keepdims=keepdims), (a,), bwd)


# ---- similarity ------------------------------------------------------------


def _cosine(a, b):
    """(cos clamped to [-1, 1], cos, |a||b|, |a|, |b|) of the rows of a and b.

    Rows lie along the last axis. Zero and non-finite rows are rejected:
    clamping a NaN cosine would report it as a confident non-match.
    """
    na = np.sqrt(np.vecdot(a, a))
    nb = np.sqrt(np.vecdot(b, b))
    dot = np.vecdot(a, b)
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
    return clamped, c, den, na, nb


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
    def init(cls, d_in, d_out, rng):
        w = Tensor(rng.standard_normal((d_in, d_out)) * (1.0 / np.sqrt(d_in)), requires_grad=True)
        b = Tensor(np.zeros(d_out), requires_grad=True)
        return cls(w, b)

    @property
    def d_in(self):
        return self.w.data.shape[0]

    @property
    def d_out(self):
        return self.w.data.shape[1]

    def parameters(self):
        return [self.w, self.bias]

    def then(self, after):
        """The one affine map ``after(self(x))``: w = w_self @ w_after and
        bias = bias_self @ w_after + bias_after, made through ``product``.

        The result is a constant: no gradient flows back to either map.
        """
        bias = product(self.bias.data, after.w.data)
        bias += after.bias.data
        return Linear(product(self.w.data, after.w.data), bias)

    def forward(self, x2):
        """x2[rows, d_in] @ w + bias, as an array; the bias is added in place."""
        out = product(x2, self.w.data)
        out += self.bias.data
        return out

    def backward(self, x2, g2, want_input):
        """Accumulate w's and bias's gradients from g2[rows, d_out], the gradient
        of ``forward(x2)``; return the input's gradient g2 @ w^T when ``want_input``."""
        if self.w.requires_grad:
            self.w._accumulate(product(x2.T, g2))
        if self.bias.requires_grad:
            self.bias._accumulate(np.add.reduce(g2, axis=0))
        return product(g2, self.w.data.T) if want_input else None

    def __call__(self, x):
        """x[..., d_in] @ w + bias as one graph node.

        Leading axes are folded inside numpy and the bias is added in place,
        so the ledger is charged the output only: the pre-bias product is
        never a tensor.
        """
        if x.data.shape[-1] != self.d_in:
            raise DimensionError(
                f"linear: input trailing dim {x.data.shape} vs weight {self.w.data.shape}")
        x2 = x.data.reshape(-1, self.d_in)

        def bwd(g):
            gx = self.backward(x2, g.reshape(-1, self.d_out), x.requires_grad)
            if gx is not None:
                x._accumulate(gx.reshape(x.data.shape))

        return node(self.forward(x2).reshape(x.data.shape[:-1] + (self.d_out,)),
                    (x, self.w, self.bias), bwd)


class MomentumSGD:
    """Classic momentum, v = mu*v + grad; w -= lr*v, over one flat buffer.

    Each parameter's ``data`` becomes a view into one contiguous buffer of
    their values, and the velocities are a second one. A step is one
    concatenate of the gradients and three whole-buffer ops; it raises
    ContractError, naming its index, for a parameter with no gradient.
    """

    def __init__(self, params, lr, momentum):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        offsets = np.cumsum([0] + [p.data.size for p in self.params]).tolist()
        self.weights = np.concatenate([p.data for p in self.params], axis=None)
        for p, lo, hi in zip(self.params, offsets, offsets[1:]):
            p.data = self.weights[lo:hi].reshape(p.data.shape)
        self.velocities = np.zeros_like(self.weights)

    def step(self):
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ContractError(f"parameter {i} has no gradient")
        self.velocities *= self.momentum
        self.velocities += np.concatenate([p.grad for p in self.params], axis=None)
        self.weights -= self.lr * self.velocities
        for p in self.params:
            p.grad = None
