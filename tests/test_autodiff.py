import weakref

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import bearingrul.autodiff as ad
from bearingrul.autodiff import Tensor
from bearingrul.errors import (
    GraphReleased,
    IndivisibleShape,
    InvalidProbability,
    NonScalarLoss,
    ShapeMismatch,
)
from gradcheck import check_op, total


def t(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


# --- forward values ---

def test_matmul_hand_checked():
    a = t([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    b = t([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    np.testing.assert_allclose(ad.matmul(a, b).data, [[4.0, 5.0], [10.0, 11.0]])


def test_relu_values():
    out = ad.relu(t([-1.0, 0.0, 2.0]))
    np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])


def test_mean_gradient_is_uniform():
    x = t(np.arange(6.0).reshape(2, 3))
    ad.backward(ad.mean(x))
    np.testing.assert_allclose(x.grad, np.full((2, 3), 1.0 / 6.0))


def test_softmax_uniform():
    out = ad.softmax(t([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0))


def test_softmax_rows_sum_to_one():
    x = t(np.random.default_rng(0).normal(size=(5, 7)) * 10)
    out = ad.softmax(x, axis=-1)
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5), atol=1e-12)


def test_layer_norm_standardizes():
    x = t(np.random.default_rng(1).normal(size=(4, 16)) * 3 + 2)
    out = ad.layer_norm(x, t(np.ones(16)), t(np.zeros(16)))
    np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(4), atol=1e-6)
    np.testing.assert_allclose(out.data.var(axis=-1), np.ones(4), atol=1e-4)


def test_concat_and_split_back():
    a, b = t(np.ones((2, 3))), t(np.full((2, 2), 2.0))
    out = ad.concat([a, b], axis=1)
    assert out.data.shape == (2, 5)
    ad.backward(total(ad.mul(out, np.arange(10.0).reshape(2, 5))))
    np.testing.assert_allclose(a.grad, [[0, 1, 2], [5, 6, 7]])
    np.testing.assert_allclose(b.grad, [[3, 4], [8, 9]])


def test_roll_round_trip():
    x = t(np.arange(16.0).reshape(1, 4, 4))
    out = ad.roll(ad.roll(x, (1, 1), (1, 2)), (-1, -1), (1, 2))
    np.testing.assert_allclose(out.data, x.data)


# --- backward basics ---

def test_backward_sum_gives_ones():
    x = t(np.random.default_rng(2).normal(size=(3, 4)))
    ad.backward(total(x))
    np.testing.assert_allclose(x.grad, np.ones((3, 4)))


def test_backward_sum_of_squares():
    x = t(np.random.default_rng(3).normal(size=7))
    ad.backward(total(ad.square(x)))
    np.testing.assert_allclose(x.grad, 2.0 * x.data, rtol=1e-12)


def test_backward_fanout_accumulates():
    x = t([1.0, 2.0])
    ad.backward(total(ad.add(x, x)))
    np.testing.assert_allclose(x.grad, [2.0, 2.0])


def test_backward_sums_a_leaf_used_by_two_ops():
    x = t([1.0, -2.0, 0.5])
    ad.backward(total(ad.add(ad.mul(x, 3.0), ad.square(x))))
    np.testing.assert_allclose(x.grad, 3.0 + 2.0 * x.data)


def test_backward_of_a_scalar_leaf_gives_one():
    for data in (2.5, [2.5], [[2.5]]):
        x = t(data)
        ad.backward(x)
        assert x.grad.shape == x.data.shape
        assert x.grad.tobytes() == np.ones_like(x.data).tobytes()


def test_a_leaf_gradient_is_freed_before_the_next_vjp_runs():
    """w's gradient goes into w.grad when matmul's vjp returns it, not at
    the end of the walk, so square's vjp, which runs next, finds the array
    matmul returned already freed."""
    x, w = t([[1.0, -2.0]]), t([[0.5], [2.0]])
    h = ad.square(x)
    out = ad.matmul(h, w)
    returned, alive = [], []

    def spy(vjp, check):
        def wrapped(g):
            if check:
                alive.append(returned[0]() is not None)
            grads = vjp(g)
            if not check:
                returned.append(weakref.ref(grads[1]))
            return grads
        return wrapped

    out._vjp = spy(out._vjp, check=False)
    h._vjp = spy(h._vjp, check=True)
    ad.backward(total(out))
    assert alive == [False]
    np.testing.assert_allclose(w.grad, h.data.T)
    np.testing.assert_allclose(x.grad, 2.0 * x.data * w.data.T)


def test_backward_requires_scalar():
    with pytest.raises(NonScalarLoss):
        ad.backward(t([1.0, 2.0]))


def test_backward_accumulates_across_calls():
    x = t([1.0, 1.0])
    ad.backward(total(x))
    ad.backward(total(x))
    np.testing.assert_allclose(x.grad, [2.0, 2.0])


def test_two_forwards_are_independent_graphs():
    x = t([2.0])
    first = ad.square(x)
    second = ad.square(ad.square(x))
    ad.backward(total(first))
    np.testing.assert_allclose(x.grad, [4.0])
    x.grad = None
    ad.backward(total(second))
    np.testing.assert_allclose(x.grad, [32.0])


def test_backward_releases_the_graph_it_walks():
    x = t([1.0, -2.0, 3.0])
    w = t([[0.5, -1.0], [2.0, 0.25], [1.0, 1.0]])
    h = ad.relu(ad.matmul(ad.reshape(ad.square(x), (1, 3)), w))
    loss = total(ad.add(h, h))
    interior, stack = [], [loss._node]
    while stack:
        node = stack.pop()
        if isinstance(node, ad._Node) and all(n is not node for n in interior):
            interior.append(node)
            stack.extend(node.parents)
    assert len(interior) == 7  # total is two nodes, mean and mul
    ad.backward(loss)
    once_x, once_w = x.grad.copy(), w.grad.copy()
    assert all(node.parents == () for node in interior)
    with pytest.raises(GraphReleased):
        ad.backward(loss)  # a second pass would double every leaf gradient
    assert x.grad.tobytes() == once_x.tobytes()
    assert w.grad.tobytes() == once_w.tobytes()


def test_graph_keeps_only_what_backward_reads():
    """No vjp reads a conv2d output that fed maxpool2d, a layer_norm input or
    an add output, so the graph frees them during forward, and the
    gradients match a backward whose arrays were all kept alive."""
    rng = np.random.default_rng(21)
    leaves = [t(rng.normal(size=shape)) for shape in
              ((2, 1, 6, 6), (3, 1, 3, 3), (3,), (3,), (3,))]
    shift, weights = rng.normal(size=(2, 3, 3, 3)), rng.normal(size=(2, 3, 3, 3))

    def forward():
        x, w, b, gamma, beta = leaves
        conv = ad.conv2d(x, w, b)
        normed_in = ad.add(ad.relu(ad.maxpool2d(conv)), shift)
        residual = ad.add(normed_in, ad.layer_norm(normed_in, gamma, beta))
        loss = total(ad.mul(residual, weights))
        return loss, (conv, normed_in, residual)

    def gradients(loss):
        for leaf in leaves:
            leaf.grad = None
        ad.backward(loss)
        return [leaf.grad.tobytes() for leaf in leaves]

    loss, _kept = forward()  # the reference keeps every array alive
    want = gradients(loss)
    loss, freed = forward()
    owners = [weakref.ref(a.data if a.data.base is None else a.data.base)
              for a in freed]
    del freed
    assert [ref() is None for ref in owners] == [True, True, True]
    assert gradients(loss) == want


def test_forward_determinism():
    rng_data = np.random.default_rng(4).normal(size=(4, 4))
    a = ad.softmax(ad.matmul(t(rng_data), t(rng_data.T))).data
    b = ad.softmax(ad.matmul(t(rng_data), t(rng_data.T))).data
    assert np.array_equal(a, b)


# --- shape/validation errors ---

def test_matmul_shape_errors():
    with pytest.raises(ShapeMismatch):
        ad.matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))
    with pytest.raises(ShapeMismatch):
        ad.matmul(t(np.ones((2, 2, 3))), t(np.ones((3, 3, 2))))
    with pytest.raises(ShapeMismatch):
        ad.matmul(t(np.ones(3)), t(np.ones((3, 2))))


def test_conv2d_shape_errors():
    x = t(np.ones((1, 2, 4, 4)))
    with pytest.raises(ShapeMismatch):
        ad.conv2d(x, t(np.ones((3, 1, 3, 3))), t(np.zeros(3)))
    with pytest.raises(ShapeMismatch):
        ad.conv2d(x, t(np.ones((3, 2, 3, 3))), t(np.zeros(4)))


def test_maxpool_indivisible():
    with pytest.raises(IndivisibleShape):
        ad.maxpool2d(t(np.ones((1, 1, 5, 4))))


def test_dropout_invalid_probability():
    with pytest.raises(InvalidProbability):
        ad.dropout(t(np.ones(4)), 1.0, training=True)


# --- conv and pool behavior ---

def test_conv2d_output_shape():
    x = t(np.random.default_rng(5).normal(size=(2, 1, 64, 64)), grad=False)
    w = t(np.random.default_rng(6).normal(size=(32, 1, 3, 3)))
    out = ad.conv2d(x, w, t(np.zeros(32)))
    assert out.data.shape == (2, 32, 64, 64)


def test_conv2d_identity_kernel():
    x = np.random.default_rng(7).normal(size=(1, 1, 6, 6))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    out = ad.conv2d(t(x), t(w), t(np.zeros(1)))
    np.testing.assert_allclose(out.data, x, atol=1e-14)


def test_conv2d_channel_sum_rule():
    # identity-center kernels over two channels sum the channels
    x = np.random.default_rng(8).normal(size=(1, 2, 5, 5))
    w = np.zeros((1, 2, 3, 3))
    w[0, :, 1, 1] = 1.0
    out = ad.conv2d(t(x), t(w), t(np.zeros(1)))
    np.testing.assert_allclose(out.data[0, 0], x[0].sum(axis=0), atol=1e-14)


def test_maxpool_shape_and_values():
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    out = ad.maxpool2d(t(x))
    np.testing.assert_allclose(out.data[0, 0], [[5.0, 7.0], [13.0, 15.0]])


def test_maxpool_tie_routes_to_first_in_row_major():
    x = t([[[[1.0, 3.0], [3.0, 2.0]]]])
    out = ad.maxpool2d(x)
    assert out.data[0, 0, 0, 0] == 3.0
    ad.backward(total(out))
    np.testing.assert_allclose(x.grad[0, 0], [[0.0, 1.0], [0.0, 0.0]])



def _maxpool_oracle(x, g):
    """The 6-D reshape/argmax pool: (output, input gradient for g)."""
    n, c, h, w = x.shape
    win = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(
        n, c, h // 2, w // 2, 4)
    idx = win.argmax(axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    dwin = np.zeros_like(win)
    np.put_along_axis(dwin, idx[..., None], g[..., None], axis=-1)
    dx = dwin.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(
        n, c, h, w)
    return out, dx


def _channels_last(rng, shape):
    """An (N,C,H,W) array laid out (N,H,W,C) in memory, like conv2d's output."""
    n, c, h, w = shape
    return rng.normal(size=(n, h, w, c)).round(1).transpose(0, 3, 1, 2)


def _assert_same_bits(a, b):
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_strided_maxpool_matches_argmax_oracle_on_relu_ties():
    rng = np.random.default_rng(21)
    x = np.maximum(_channels_last(rng, (3, 5, 8, 6)), 0.0)  # about half ties at 0
    g = rng.normal(size=(3, 4, 3, 5)).transpose(0, 3, 1, 2)  # as fuse sends it
    g[::2, :, 0] = -0.0
    want_out, want_dx = _maxpool_oracle(x, g)
    out = ad.maxpool2d(t(x))
    (dx,) = out._vjp(g)
    _assert_same_bits(out.data, want_out)
    _assert_same_bits(dx, want_dx)
    # a channels-last map stays channels-last both ways
    assert out.data.transpose(0, 2, 3, 1).flags.c_contiguous
    assert dx.transpose(0, 2, 3, 1).flags.c_contiguous


def test_relu_commutes_with_maxpool_bit_for_bit():
    rng = np.random.default_rng(22)
    x = _channels_last(rng, (2, 4, 6, 8))
    g = rng.normal(size=(2, 4, 3, 4))
    results = []
    for order in ((ad.relu, ad.maxpool2d), (ad.maxpool2d, ad.relu)):
        xt = t(x)
        out = order[1](order[0](xt))
        ad.backward(total(ad.mul(out, g)))
        results.append((out.data, xt.grad))
    (out_a, dx_a), (out_b, dx_b) = results
    _assert_same_bits(out_a, out_b)
    _assert_same_bits(dx_a, dx_b)


# --- rewritten kernels, bit for bit against the formulas they replaced ---

def _same_bytes(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    assert a.tobytes() == b.tobytes()


SPECIAL = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                    2.2e-308, -1e-310, 1.5, -2.5, 1.797e308, -1.797e308])
NAN_PAYLOAD = np.array([0x7FF8_0000_0000_0ABC, 0xFFF0_0000_0000_0001],
                       dtype=np.uint64).view(np.float64)


def _special_values(rng, shape, signalling=True):
    """Random picks of NaNs (payloads included), infinities, signed zeros,
    subnormals and normals; without the signalling NaN if not signalling."""
    payloads = NAN_PAYLOAD if signalling else NAN_PAYLOAD[:1]
    pool = np.concatenate([SPECIAL, payloads, rng.normal(size=8)])
    return pool[rng.integers(0, pool.size, size=shape)]


def test_keep_is_where_bit_for_bit_on_every_layout():
    rng = np.random.default_rng(31)
    mask = rng.random((3, 4, 6, 5)) < 0.5
    base = _special_values(rng, (3, 6, 5, 4))
    row = _special_values(rng, (3, 4, 1, 5))
    for x in (base.transpose(0, 3, 1, 2).copy(),           # contiguous
              base.transpose(0, 3, 1, 2),                  # channels-last
              np.broadcast_to(row, mask.shape),            # stride 0
              row):                                        # broadcast by _keep
        got = ad._keep(mask, x)
        want = np.where(mask, x, 0.0)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert not ad._keep(mask, base.transpose(0, 3, 1, 2))[~mask].view(np.uint64).any()


def test_relu_matches_where_formula_bit_for_bit():
    """Recorded, and unrecorded under no_grad, where relu is fmax(x, 0) + 0.0.

    The unrecorded inputs leave out the signalling NaN: no arithmetic op
    makes one, and numpy's fmax gives 0 or NaN for it by SIMD lane."""
    rng = np.random.default_rng(32)
    x = _special_values(rng, (4, 7, 9))
    g = _special_values(rng, (4, 7, 9))
    for data, grad in ((x, g), (x.transpose(2, 0, 1), g.transpose(2, 0, 1))):
        out = ad.relu(t(data))
        _same_bytes(out.data, np.where(data > 0, data, 0.0))
        (dx,) = out._vjp(grad)
        _same_bytes(dx, np.where(data > 0, grad, 0.0))
    quiet = _special_values(rng, (4, 7, 9), signalling=False)
    # fmax keeps some -0.0 outside its SIMD loop, as on a short all -0.0 run
    for data in (quiet, quiet.transpose(2, 0, 1), np.full(7, -0.0)):
        with ad.no_grad():
            out = ad.relu(t(data))
        assert out._node is None
        _same_bytes(out.data, np.where(data > 0, data, 0.0))


def _conv2d_im2col_oracle(x, w, b, g):
    """conv2d's output and (dx, dw, db) for g, through the np.pad and
    sliding_window_view im2col it used to build."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    ho, wo = h + 3 - kh, wd + 3 - kw
    view = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    cols = np.ascontiguousarray(view.transpose(0, 2, 3, 1, 4, 5)).reshape(
        n, ho * wo, c * kh * kw)
    wmat = w.reshape(f, -1)
    out = cols @ wmat.T
    out += b
    out = out.reshape(n, ho, wo, f).transpose(0, 3, 1, 2)
    g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n, ho * wo, f)
    dw = (g2.reshape(-1, f).T @ cols.reshape(-1, c * kh * kw)).reshape(w.shape)
    db = g2.sum(axis=(0, 1))
    dcols = (g2 @ wmat).reshape(n, ho, wo, c, kh, kw)
    dxp = np.zeros(xp.shape)
    for u in range(kh):
        for v in range(kw):
            dxp[:, :, u:u + ho, v:v + wo] += dcols[:, :, :, :, u, v].transpose(
                0, 3, 1, 2)
    return out, dxp[:, :, 1:1 + h, 1:1 + wd], dw, db


@pytest.mark.parametrize("n", [1, 5, 8, 16])
@pytest.mark.parametrize("c", [1, 3])
@pytest.mark.parametrize("side", [2, 5, 32])
def test_conv2d_matches_padded_im2col_bit_for_bit(n, c, side):
    """Both input layouts, with NaNs, infinities, signed zeros and
    subnormals among the pixels, against the padded im2col it replaced."""
    rng = np.random.default_rng(100 * n + 10 * c + side)
    base = _special_values(rng, (n, side, side, c))
    w, b = rng.normal(size=(32, c, 3, 3)), rng.normal(size=32)
    g = rng.normal(size=(n, side, side, 32)).transpose(0, 3, 1, 2)
    for xd in (np.ascontiguousarray(base.transpose(0, 3, 1, 2)),  # contiguous
               base.transpose(0, 3, 1, 2)):                       # channels-last
        with np.errstate(all="ignore"):  # the 1.797e308 pixels overflow
            want = _conv2d_im2col_oracle(xd, w, b, g)
            out = ad.conv2d(t(xd), t(w), t(b))
            got = (out.data, *out._vjp(g))
        for a, e in zip(got, want):
            _same_bytes(a, e)


def _maxpool_where_oracle(x, g):
    """The pool's first-hit routing, written with np.where as it was."""
    n, c, h, w = x.shape
    win = x.reshape(n, c, h // 2, 2, w // 2, 2)
    out = np.maximum(np.maximum(win[..., 0, :, 0], win[..., 0, :, 1]),
                     np.maximum(win[..., 1, :, 0], win[..., 1, :, 1]))
    hit = win == out[:, :, :, None, :, None]
    free = ~hit[..., 0, :, 0]
    for i, j in ((0, 1), (1, 0), (1, 1)):
        later = hit[..., i, :, j]
        later &= free
        free &= ~later
    dx = np.where(hit, g[:, :, :, None, :, None], 0.0)
    return out, dx.reshape(n, c, h, w)


def test_maxpool_matches_where_formula_with_ties_and_negative_zeros():
    rng = np.random.default_rng(33)
    shape = (2, 6, 8, 10)
    tied = np.maximum(_channels_last(rng, shape), 0.0)      # ties at 0 and equal
    tied[:, :, ::2, ::2] = tied[:, :, 1::2, 1::2]           # ties between nonzeros
    for x in (tied, np.ascontiguousarray(tied)):
        g = rng.normal(size=(2, 4, 5, 6)).round(0).transpose(0, 3, 1, 2)
        g[g == 0] = -0.0
        g[0, 0, 0, 0] = -0.0
        want_out, want_dx = _maxpool_where_oracle(x, g)
        out = ad.maxpool2d(t(x))
        (dx,) = out._vjp(g)
        _same_bytes(out.data, want_out)
        _same_bytes(dx, want_dx)
        assert np.signbit(dx).any() and (dx == 0).sum() > dx.size // 2


@pytest.mark.parametrize("x_shape", [(40, 70), (5, 9, 70), (2, 5, 6, 70)])
@pytest.mark.parametrize("contiguous", [True, False])
def test_linear_matches_add_of_matmul_bit_for_bit(x_shape, contiguous):
    rng = np.random.default_rng(len(x_shape) + 10 * contiguous)
    xd = rng.normal(size=x_shape[::-1]).T       # reversed memory layout
    if contiguous:
        xd = np.ascontiguousarray(xd)
    wd, bd = rng.normal(size=(70, 33)), rng.normal(size=33)
    g = rng.normal(size=x_shape[:-1] + (33,))
    results = []
    for op in (lambda x, w, b: ad.add(ad.matmul(x, w), b), ad.linear):
        x, w, b = t(xd), t(wd), t(bd)
        out = op(x, w, b)
        ad.backward(total(ad.mul(out, g)))
        results.append((out.data, x.grad, w.grad, b.grad))
    for want, got in zip(*results):
        _same_bytes(got, want)


def test_linear_shape_errors():
    x, w, b = t(np.ones((4, 3))), t(np.ones((3, 2))), t(np.ones(2))
    with pytest.raises(ShapeMismatch, match="inner dims"):
        ad.linear(x, t(np.ones((2, 2))), b)
    with pytest.raises(ShapeMismatch, match="at least 2-D"):
        ad.linear(t(np.ones(3)), w, b)
    with pytest.raises(ShapeMismatch, match="bias"):
        ad.linear(x, w, t(np.ones((1, 2))))
    with pytest.raises(ShapeMismatch, match="bias"):
        ad.linear(x, w, t(np.ones(3)))
    with pytest.raises(ShapeMismatch):
        ad.linear(t(np.ones((2, 4, 3))), t(np.ones((2, 3, 2))), b)


def _layer_norm_var_formula(a, gamma, g):
    """The layer norm written with a.var(): (output over beta = 0, dx, dgamma)."""
    mu = a.mean(axis=-1, keepdims=True)
    var = a.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + ad.LAYER_NORM_EPS)
    xhat = (a - mu) * inv
    gg = g * gamma
    dx = inv * (gg - gg.mean(axis=-1, keepdims=True)
                - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
    return xhat * gamma, dx, (g * xhat).sum(axis=(0, 1))


@pytest.mark.parametrize("width", [16, 32, 64, 128])    # the desk stage widths
@pytest.mark.parametrize("offset", [0.0, 1e6, -3e9])
def test_layer_norm_matches_var_formula_bit_for_bit(width, offset):
    rng = np.random.default_rng(width)
    a = offset + rng.normal(size=(3, 5, width)) * rng.uniform(0.01, 10, size=(3, 5, 1))
    gamma = rng.normal(size=width)
    g = rng.normal(size=a.shape)
    want_out, want_dx, want_dgamma = _layer_norm_var_formula(a, gamma, g)
    out = ad.layer_norm(t(a), t(gamma), t(np.zeros(width)))
    dx, dgamma, dbeta = out._vjp(g)
    _same_bytes(out.data, want_out + 0.0)
    _same_bytes(dx, want_dx)
    _same_bytes(dgamma, want_dgamma)
    _same_bytes(dbeta, g.sum(axis=(0, 1)))


# --- no_grad ---

def test_no_grad_records_no_graph():
    a, b = t(np.ones((2, 3))), t(np.ones((3, 2)))
    with ad.no_grad():
        out = ad.relu(ad.matmul(a, b))
        loss = total(out)
    for node in (out, loss):
        assert not node.requires_grad and node._node is None and node._vjp is None
    ad.backward(loss)
    assert a.grad is None and b.grad is None
    np.testing.assert_array_equal(out.data, np.full((2, 2), 3.0))
    ad.backward(total(ad.matmul(a, b)))  # recording resumes on exit
    np.testing.assert_array_equal(a.grad, np.full((2, 3), 2.0))


def test_no_grad_restores_the_flag_after_an_exception():
    with pytest.raises(ShapeMismatch):
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert not ad.no_grad.recording
            ad.matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))
    assert ad.no_grad.recording
    assert ad.relu(t([1.0]))._node is not None


# --- dropout semantics ---

def test_dropout_identity_when_not_training():
    x = t(np.random.default_rng(9).normal(size=100))
    out = ad.dropout(x, 0.5, training=False, rng=0)
    np.testing.assert_allclose(out.data, x.data, atol=0)


def test_dropout_p_zero_identity():
    x = t(np.random.default_rng(10).normal(size=100))
    out = ad.dropout(x, 0.0, training=True, rng=0)
    np.testing.assert_allclose(out.data, x.data, atol=0)


def test_dropout_scales_survivors():
    x = t(np.ones(10000))
    out = ad.dropout(x, 0.3, training=True, rng=11)
    kept = out.data[out.data != 0.0]
    np.testing.assert_allclose(kept, np.full(kept.size, 1.0 / 0.7), atol=1e-12)
    assert abs(kept.size / 10000.0 - 0.7) < 0.03


def test_dropout_seed_reproducible():
    x = t(np.ones(64))
    a = ad.dropout(x, 0.5, training=True, rng=12).data
    b = ad.dropout(x, 0.5, training=True, rng=12).data
    assert np.array_equal(a, b)


# --- gradient checks per operator ---

def test_gradcheck_add_broadcast():
    rng = np.random.default_rng(20)
    a, b = t(rng.normal(size=(3, 4))), t(rng.normal(size=(4,)))
    check_op(lambda: ad.add(a, b), [a, b])


def test_gradcheck_mul_broadcast():
    rng = np.random.default_rng(21)
    a, b = t(rng.normal(size=(2, 3, 4))), t(rng.normal(size=(1, 3, 1)))
    check_op(lambda: ad.mul(a, b), [a, b])


def test_gradcheck_sub():
    rng = np.random.default_rng(22)
    a, b = t(rng.normal(size=(5,))), t(rng.normal(size=(5,)))
    check_op(lambda: ad.sub(a, b), [a, b])


def test_gradcheck_matmul_2d():
    rng = np.random.default_rng(23)
    a, b = t(rng.normal(size=(3, 4))), t(rng.normal(size=(4, 2)))
    check_op(lambda: ad.matmul(a, b), [a, b])


def test_gradcheck_matmul_batched_times_weight():
    rng = np.random.default_rng(24)
    a, b = t(rng.normal(size=(2, 3, 4))), t(rng.normal(size=(4, 5)))
    check_op(lambda: ad.matmul(a, b), [a, b])


def test_gradcheck_matmul_batched_pair():
    rng = np.random.default_rng(25)
    a, b = t(rng.normal(size=(2, 3, 4))), t(rng.normal(size=(2, 4, 3)))
    check_op(lambda: ad.matmul(a, b), [a, b])


def test_gradcheck_relu_away_from_kink():
    rng = np.random.default_rng(26)
    data = rng.normal(size=20)
    data[np.abs(data) < 1e-3] = 0.5
    x = t(data)
    check_op(lambda: ad.relu(x), [x])


def test_gradcheck_reshape_transpose_roll():
    rng = np.random.default_rng(27)
    x = t(rng.normal(size=(2, 3, 4)))
    check_op(lambda: ad.roll(
        ad.transpose(ad.reshape(x, (2, 12)), (1, 0)), 3, 0), [x])


def test_gradcheck_mean_and_sum_axes():
    rng = np.random.default_rng(28)
    x = t(rng.normal(size=(3, 4, 5)))
    check_op(lambda: ad.mean(x, axis=1), [x])
    x.grad = None
    check_op(lambda: ad.mean(x, axis=2, keepdims=True), [x])
    x.grad = None
    check_op(lambda: total(x), [x])  # the tests' sum, from mean and mul


def test_gradcheck_softmax():
    rng = np.random.default_rng(29)
    x = t(rng.normal(size=(3, 6)))
    check_op(lambda: ad.softmax(x, axis=-1), [x])


def test_gradcheck_layer_norm():
    rng = np.random.default_rng(30)
    x = t(rng.normal(size=(4, 8)))
    g, b = t(rng.normal(size=8)), t(rng.normal(size=8))
    check_op(lambda: ad.layer_norm(x, g, b), [x, g, b], tol=2e-4)


def test_gradcheck_dropout_fixed_mask():
    rng = np.random.default_rng(31)
    x = t(rng.normal(size=(4, 4)))
    check_op(lambda: ad.dropout(x, 0.4, training=True, rng=77), [x])


def test_gradcheck_conv2d():
    rng = np.random.default_rng(32)
    x = t(rng.normal(size=(1, 1, 5, 5)))
    w = t(rng.normal(size=(2, 1, 3, 3)))
    b = t(rng.normal(size=2))
    check_op(lambda: ad.conv2d(x, w, b), [x, w, b])


def test_gradcheck_maxpool_non_tied():
    rng = np.random.default_rng(33)
    x = t(rng.normal(size=(1, 2, 4, 4)))
    check_op(lambda: ad.maxpool2d(x), [x])


def test_gradcheck_gather_rows():
    rng = np.random.default_rng(34)
    table = t(rng.normal(size=(6, 3)))
    index = np.array([0, 2, 2, 5, 1])
    check_op(lambda: ad.gather_rows(table, index), [table])


def test_gradcheck_concat():
    rng = np.random.default_rng(35)
    a, b = t(rng.normal(size=(2, 3))), t(rng.normal(size=(2, 2)))
    check_op(lambda: ad.concat([a, b], axis=1), [a, b])
