"""Minimal dense-tensor engine with reverse-mode differentiation.

Everything is float64. A recorded op gives its output tensor a graph node,
`_Node(parents, vjp)`, that holds no array of its own. Each parent entry is
the parent's node, the parent tensor itself for a leaf that requires grad,
or None for a constant; the vector-Jacobian closure captures only the
arrays and shapes its backward reads. So the graph never keeps a tensor's
.data alive: an output that no vjp saved (a residual sum, a reshaped copy,
a pooled map) is freed during forward as soon as the caller drops it.
backward() topologically orders the nodes reachable from the loss (the
tape) and accumulates gradients into the leaves, releasing each node as it
walks past it: a graph can be backpropagated once (again raises
GraphReleased), and a training step holds only its own graph. Inside
`with no_grad():` nothing is recorded, so an inference pass keeps no
closures or inputs alive.
Broadcasting is supported for the elementwise ops (gradients are summed
back over broadcast axes); matmul requires explicit shapes beyond the
weight-matrix and equal-batch cases. linear(x, w, b) is x @ w + b as one
graph node, with the bias added in place.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    GraphReleased,
    InvalidProbability,
    IndivisibleShape,
    NonScalarLoss,
    ShapeMismatch,
)

LAYER_NORM_EPS = 1e-5  # added to the variance in layer_norm


class _Node:
    """One recorded op: parent entries and the vjp closure, no output array."""

    __slots__ = ("parents", "vjp")

    def __init__(self, parents, vjp):
        self.parents = parents
        self.vjp = vjp


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._node = None  # set on the output of a recorded op

    @property
    def _vjp(self):
        """The recording op's vjp closure; None on a leaf or a constant.

        Reads and writes _node.vjp. perfbench/tracing.py times backward per
        op by wrapping exactly this slot, so it keeps its name and setter.
        """
        return None if self._node is None else self._node.vjp

    @_vjp.setter
    def _vjp(self, vjp):
        self._node.vjp = vjp

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


class no_grad:
    """Context in which ops record no graph: outputs are constants.

    Gradients flow only through ops recorded outside it; the previous
    setting is restored on exit, also when the block raises.
    """

    recording = True

    def __enter__(self):
        self._saved, no_grad.recording = no_grad.recording, False
        return self

    def __exit__(self, *exc):
        no_grad.recording = self._saved


def _taped(parents) -> bool:
    """Whether an op on these parents is recorded."""
    return no_grad.recording and any(p.requires_grad for p in parents)


def _entry(t: Tensor):
    """A parent's entry in a node: its node, itself as a leaf, or None."""
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


def _result(data, parents, vjp) -> Tensor:
    """Record the op only when recording and some parent is on the tape."""
    out = Tensor(data)
    if _taped(parents):
        out.requires_grad = True
        out._node = _Node(tuple(_entry(p) for p in parents), vjp)
    return out


def _keep(mask, x):
    """np.where(mask, x, 0.0) bit for bit, without a data-dependent branch.

    ANDs the float64 bit pattern of `x` (which may broadcast against `mask`)
    with -mask as uint64 (all ones where set, zero elsewhere), so set places
    keep x exactly (NaN, inf and -0.0 included) and the rest read +0.0.
    """
    bits = np.negative(mask, dtype=np.uint64)
    np.bitwise_and(bits, x.view(np.uint64), out=bits)
    return bits.view(np.float64)


def _unbroadcast(grad, shape):
    """Sum grad back down to `shape` after numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _released(g):
    raise GraphReleased("this graph was already backpropagated and released")


def backward(loss: Tensor):
    """Accumulate d(loss)/d(leaf) into every reachable leaf's .grad."""
    if loss.data.size != 1:
        raise NonScalarLoss(f"loss must be scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return
    # topological order of the entries reachable from the loss, leaves
    # first: nodes, and leaf tensors, which have no parents
    root = _entry(loss)
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        entry, expanded = stack.pop()
        if expanded:
            order.append(entry)
            continue
        if entry is None or id(entry) in seen:
            continue
        seen.add(id(entry))
        stack.append((entry, True))
        if isinstance(entry, _Node):
            for p in entry.parents:
                stack.append((p, False))
    # Nodes are popped children first, so a node is released, and freed, as
    # soon as its vjp has run; the ids in `grads` are of entries still queued.
    grads = {id(root): np.ones_like(loss.data)}
    while order:
        entry = order.pop()
        g = grads.pop(id(entry), None)
        if g is None:
            continue
        if not isinstance(entry, _Node):  # a leaf: add in place, into its .grad
            if entry.grad is None:
                entry.grad = np.zeros_like(entry.data)
            entry.grad += g
            continue
        parents, vjp = entry.parents, entry.vjp
        entry.parents, entry.vjp = (), _released
        for parent, pg in zip(parents, vjp(g)):
            if pg is None or parent is None:
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
    sa, sb = a.data.shape, b.data.shape
    return _result(a.data + b.data, (a, b),
                   lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a, b):
    a, b = _wrap(a), _wrap(b)
    sa, sb = a.data.shape, b.data.shape
    return _result(a.data - b.data, (a, b),
                   lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def mul(a, b):
    """a * b; each operand is kept only if the other one needs a gradient."""
    a, b = _wrap(a), _wrap(b)
    sa, sb = a.data.shape, b.data.shape
    bd = b.data if a.requires_grad else None
    ad = a.data if b.requires_grad else None

    def vjp(g):
        return (None if bd is None else _unbroadcast(g * bd, sa),
                None if ad is None else _unbroadcast(g * ad, sb))

    return _result(a.data * b.data, (a, b), vjp)


def relu(a):
    a = _wrap(a)
    mask = a.data > 0
    return _result(_keep(mask, a.data), (a,), lambda g: (_keep(mask, g),))


def square(a):
    a = _wrap(a)
    ad = a.data
    return _result(ad * ad, (a,), lambda g: (2.0 * ad * g,))


def _check_matmul(ad, bd):
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeMismatch("matmul operands must be at least 2-D")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeMismatch(f"matmul inner dims {ad.shape} @ {bd.shape}")
    if ad.ndim == bd.ndim:
        if ad.shape[:-2] != bd.shape[:-2]:
            raise ShapeMismatch(f"matmul batch dims differ: {ad.shape} @ {bd.shape}")
    elif bd.ndim != 2:
        raise ShapeMismatch(
            f"unsupported matmul shapes {ad.shape} @ {bd.shape}")


def _weight_vjp(ad, bd, g):
    """(dA, dW) of A @ W for a 2-D weight W and A of any rank >= 2."""
    return (g @ bd.T, ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1]))


def matmul(a, b):
    a, b = _wrap(a), _wrap(b)
    ad, bd = a.data, b.data
    _check_matmul(ad, bd)
    if ad.ndim == bd.ndim:
        def vjp(g):
            return (g @ np.swapaxes(bd, -1, -2), np.swapaxes(ad, -1, -2) @ g)
    else:
        def vjp(g):
            return _weight_vjp(ad, bd, g)
    return _result(ad @ bd, (a, b), vjp)


def linear(x, w, b):
    """x @ w + b for a (K, N) weight and an (N,) bias, as one graph node.

    Bit for bit add(matmul(x, w), b), forward and backward, without the
    second (..., N) array: the bias is added to the product in place.
    """
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    xd, wd = x.data, w.data
    _check_matmul(xd, wd)
    if wd.ndim != 2 or b.data.shape != wd.shape[1:]:
        raise ShapeMismatch(f"linear needs a (K, N) weight and an (N,) bias, "
                            f"got {wd.shape} and {b.data.shape}")
    out = xd @ wd
    out += b.data
    sb = b.data.shape

    def vjp(g):
        return (*_weight_vjp(xd, wd, g), _unbroadcast(g, sb))

    return _result(out, (x, w, b), vjp)


def reshape(a, shape):
    a = _wrap(a)
    sa = a.data.shape
    return _result(a.data.reshape(shape), (a,), lambda g: (g.reshape(sa),))


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
    sa = a.data.shape
    count = a.data.size if axis is None else (
        np.prod([sa[ax] for ax in np.atleast_1d(axis)]))

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, sa) / count,)

    return _result(a.data.mean(axis=axis, keepdims=keepdims), (a,), vjp)


def total(a, axis=None, keepdims: bool = False):
    a = _wrap(a)
    sa = a.data.shape

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, sa).copy(),)

    return _result(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def gather_rows(table, index):
    """out[i] = table[index[i]]; backward scatter-adds into the table."""
    table = _wrap(table)
    index = np.asarray(index, dtype=np.intp)
    st = table.data.shape

    def vjp(g):
        dt = np.zeros(st)
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
    xhat = a.data - mu  # centred once; numpy's var() would centre again
    var = np.square(xhat).sum(axis=-1, keepdims=True) / a.data.shape[-1]
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat *= inv
    sum_axes = tuple(range(a.data.ndim - 1))
    gd = gamma.data

    def vjp(g):
        gg = g * gd
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
    out = cols @ wmat.T
    out += b.data  # in place: `+ b` would hold a second (N, H*W, F) array
    out = out.reshape(n, ho, wo, f).transpose(0, 3, 1, 2)
    # backward reads cols and wmat, not xp or the output
    xp_shape, w_shape, x_grad = xp.shape, w.data.shape, x.requires_grad

    def vjp(g):
        g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n, ho * wo, f)
        dw = (g2.reshape(-1, f).T @ cols.reshape(-1, c * kh * kw)).reshape(w_shape)
        db = g2.sum(axis=(0, 1))
        dx = None
        if x_grad:
            dcols = (g2 @ wmat).reshape(n, ho, wo, c, kh, kw)
            dxp = np.zeros(xp_shape)
            for u in range(kh):
                for v in range(kw):
                    dxp[:, :, u:u + ho, v:v + wo] += dcols[:, :, :, :, u, v].transpose(
                        0, 3, 1, 2)
            dx = dxp[:, :, 1:1 + h, 1:1 + wd]
        return (dx, dw, db)

    return _result(out, (x, w, b), vjp)


def _max_2x2(a):
    """Window view and maxima of a 2x2, stride-2 max over an (N, C, H, W) array.

    The (N, C, H/2, 2, W/2, 2) window view exists for any memory layout, so
    the (N, C, H/2, W/2) maxima keep the input's layout.
    """
    n, c, h, w = a.shape
    win = a.reshape(n, c, h // 2, 2, w // 2, 2)
    return win, np.maximum(np.maximum(win[..., 0, :, 0], win[..., 0, :, 1]),
                           np.maximum(win[..., 1, :, 0], win[..., 1, :, 1]))


def maxpool2d(x):
    """2x2 max pooling, stride 2; gradient to the first maximum in row-major scan.

    Works on the (N, C, H/2, 2, W/2, 2) window view of the input, so the
    output and the input gradient keep the input's layout (channels-last
    conv maps stay channels-last) and nothing is copied into window order.
    When recording, forward marks each window's first hit, so the graph
    keeps a 1-byte mask per input element instead of the input.
    """
    x = _wrap(x)
    n, c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise IndivisibleShape(f"H and W must be even, got {h}x{w}")
    win, out = _max_2x2(x.data)
    if not _taped((x,)):
        return Tensor(out)
    hit = win == out[:, :, :, None, :, None]
    free = ~hit[..., 0, :, 0]
    for i, j in ((0, 1), (1, 0), (1, 1)):  # keep each window's first hit
        later = hit[..., i, :, j]
        later &= free
        free &= ~later

    def vjp(g):
        # _keep, not g * hit, which would write -0.0 beside a negative g
        dx = _keep(hit, g[:, :, :, None, :, None])
        return (dx.reshape(n, c, h, w),)

    return _result(out, (x,), vjp)
