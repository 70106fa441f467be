"""Minimal dense-tensor engine with reverse-mode differentiation.

Everything is float64. Each operation records its parents and a
vector-Jacobian closure on the output tensor; backward() topologically
orders the reachable graph (the tape) and accumulates gradients into the
leaves. Running a forward pass twice simply builds two disjoint graphs, so
no explicit clearing is needed. Broadcasting is supported for the
elementwise ops (gradients are summed back over broadcast axes); matmul
requires explicit shapes beyond the weight-matrix and equal-batch cases.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    InvalidProbability,
    IndivisibleShape,
    NonScalarLoss,
    ShapeMismatch,
)

LAYER_NORM_EPS = 1e-5  # added to the variance in layer_norm


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data, parents, vjp) -> Tensor:
    """Record the op only when some parent participates in the tape."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def _unbroadcast(grad, shape):
    """Sum grad back down to `shape` after numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def backward(loss: Tensor):
    """Accumulate d(loss)/d(leaf) into every reachable leaf's .grad."""
    if loss.data.size != 1:
        raise NonScalarLoss(f"loss must be scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    # topological order of the graph reachable from the loss, leaves first
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg


# ---------------------------------------------------------------------------
# Elementwise / structural ops
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = _wrap(a), _wrap(b)
    return _result(a.data + b.data, (a, b),
                   lambda g: (_unbroadcast(g, a.data.shape),
                              _unbroadcast(g, b.data.shape)))


def sub(a, b):
    a, b = _wrap(a), _wrap(b)
    return _result(a.data - b.data, (a, b),
                   lambda g: (_unbroadcast(g, a.data.shape),
                              _unbroadcast(-g, b.data.shape)))


def mul(a, b):
    a, b = _wrap(a), _wrap(b)
    return _result(a.data * b.data, (a, b),
                   lambda g: (_unbroadcast(g * b.data, a.data.shape),
                              _unbroadcast(g * a.data, b.data.shape)))


def relu(a):
    a = _wrap(a)
    mask = a.data > 0
    return _result(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def square(a):
    a = _wrap(a)
    return _result(a.data * a.data, (a,), lambda g: (2.0 * a.data * g,))


def matmul(a, b):
    a, b = _wrap(a), _wrap(b)
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeMismatch("matmul operands must be at least 2-D")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeMismatch(f"matmul inner dims {ad.shape} @ {bd.shape}")
    if ad.ndim == bd.ndim:
        if ad.shape[:-2] != bd.shape[:-2]:
            raise ShapeMismatch(f"matmul batch dims differ: {ad.shape} @ {bd.shape}")

        def vjp(g):
            return (g @ np.swapaxes(bd, -1, -2), np.swapaxes(ad, -1, -2) @ g)
    elif bd.ndim == 2:
        def vjp(g):
            da = g @ bd.T
            db = ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            return (da, db)
    else:
        raise ShapeMismatch(
            f"unsupported matmul shapes {ad.shape} @ {bd.shape}")
    return _result(ad @ bd, (a, b), vjp)


def reshape(a, shape):
    a = _wrap(a)
    return _result(a.data.reshape(shape), (a,),
                   lambda g: (g.reshape(a.data.shape),))


def transpose(a, axes):
    a = _wrap(a)
    inverse = np.argsort(axes)
    return _result(a.data.transpose(axes), (a,),
                   lambda g: (g.transpose(inverse),))


def roll(a, shift, axis):
    """Cyclic shift; backward rolls the gradient the opposite way."""
    a = _wrap(a)
    neg_shift = tuple(-s for s in shift) if isinstance(shift, tuple) else -shift
    return _result(np.roll(a.data, shift, axis), (a,),
                   lambda g: (np.roll(g, neg_shift, axis),))


def concat(tensors, axis: int = 0):
    tensors = [_wrap(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    return _result(np.concatenate([t.data for t in tensors], axis), tensors,
                   lambda g: tuple(np.split(g, splits, axis)))


def mean(a, axis=None, keepdims: bool = False):
    a = _wrap(a)
    count = a.data.size if axis is None else (
        np.prod([a.data.shape[ax] for ax in np.atleast_1d(axis)]))

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape) / count,)

    return _result(a.data.mean(axis=axis, keepdims=keepdims), (a,), vjp)


def total(a, axis=None, keepdims: bool = False):
    a = _wrap(a)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _result(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def gather_rows(table, index):
    """out[i] = table[index[i]]; backward scatter-adds into the table."""
    table = _wrap(table)
    index = np.asarray(index, dtype=np.intp)

    def vjp(g):
        dt = np.zeros_like(table.data)
        np.add.at(dt, index, g)
        return (dt,)

    return _result(table.data[index], (table,), vjp)


# ---------------------------------------------------------------------------
# Neural-net ops
# ---------------------------------------------------------------------------

def softmax(a, axis: int = -1):
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    return _result(s, (a,),
                   lambda g: (s * (g - (g * s).sum(axis=axis, keepdims=True)),))


def layer_norm(a, gamma, beta):
    """Normalize over the last axis, then scale and shift."""
    a, gamma, beta = _wrap(a), _wrap(gamma), _wrap(beta)
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = (a.data - mu) * inv
    sum_axes = tuple(range(a.data.ndim - 1))

    def vjp(g):
        gg = g * gamma.data
        dx = inv * (gg - gg.mean(axis=-1, keepdims=True)
                    - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
        return (dx, (g * xhat).sum(axis=sum_axes), g.sum(axis=sum_axes))

    return _result(xhat * gamma.data + beta.data, (a, gamma, beta), vjp)


def dropout(a, p: float, training: bool, rng=None):
    """Zero units with probability p, scaling survivors by 1/(1-p).

    Identity when not training or p == 0. The mask comes from the supplied
    generator (or an int seed), so a fixed seed gives a fixed mask.
    """
    a = _wrap(a)
    if not 0.0 <= p < 1.0:
        raise InvalidProbability(f"dropout p must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return _result(a.data, (a,), lambda g: (g,))
    if rng is None or isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    keep = (rng.random(a.data.shape) >= p) / (1.0 - p)
    return _result(a.data * keep, (a,), lambda g: (g * keep,))


def conv2d(x, w, b):
    """Cross-correlation of (N,C,H,W) with (F,C,kh,kw) filters plus bias.

    Stride and zero padding are fixed at 1; with kh = kw = 3 the spatial
    dimensions are preserved.
    """
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeMismatch("conv2d expects (N,C,H,W) input and (F,C,kh,kw) weights")
    n, c, h, wd = x.data.shape
    f, cw, kh, kw = w.data.shape
    if cw != c:
        raise ShapeMismatch(f"input has {c} channels, weights expect {cw}")
    if b.data.shape != (f,):
        raise ShapeMismatch(f"bias must have shape ({f},)")
    xp = np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1)))
    ho, wo = h + 3 - kh, wd + 3 - kw
    view = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    cols = np.ascontiguousarray(view.transpose(0, 2, 3, 1, 4, 5)).reshape(
        n, ho * wo, c * kh * kw)
    wmat = w.data.reshape(f, -1)
    out = (cols @ wmat.T + b.data).reshape(n, ho, wo, f).transpose(0, 3, 1, 2)

    def vjp(g):
        g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n, ho * wo, f)
        dw = (g2.reshape(-1, f).T @ cols.reshape(-1, c * kh * kw)).reshape(w.data.shape)
        db = g2.sum(axis=(0, 1))
        dx = None
        if x.requires_grad:
            dcols = (g2 @ wmat).reshape(n, ho, wo, c, kh, kw)
            dxp = np.zeros_like(xp)
            for u in range(kh):
                for v in range(kw):
                    dxp[:, :, u:u + ho, v:v + wo] += dcols[:, :, :, :, u, v].transpose(
                        0, 3, 1, 2)
            dx = dxp[:, :, 1:1 + h, 1:1 + wd]
        return (dx, dw, db)

    return _result(out, (x, w, b), vjp)


def maxpool2d(x):
    """2x2 max pooling, stride 2; gradient to the first maximum in row-major scan."""
    x = _wrap(x)
    n, c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise IndivisibleShape(f"H and W must be even, got {h}x{w}")
    h2, w2 = h // 2, w // 2
    win = x.data.reshape(n, c, h2, 2, w2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(
        n, c, h2, w2, 4)
    idx = win.argmax(axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]

    def vjp(g):
        dwin = np.zeros_like(win)
        np.put_along_axis(dwin, idx[..., None], g[..., None], axis=-1)
        dx = dwin.reshape(n, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(
            n, c, h, w)
        return (dx,)

    return _result(out, (x,), vjp)
