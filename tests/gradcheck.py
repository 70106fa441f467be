"""Central finite-difference gradient checking, and the scalar sum the
test suite backpropagates from."""

import numpy as np

import bearingrul.autodiff as ad


def total(x):
    """Sum of every element of tensor x, from public ops: the mean times the
    count. Backward hands each element (1.0 * n) / n, which is exactly 1.0."""
    return ad.mul(ad.mean(x), x.data.size)


def numeric_grad(f, tensor, h=1e-5):
    """d f / d tensor.data by central differences, elementwise."""
    grad = np.zeros_like(tensor.data)
    it = np.nditer(tensor.data, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = tensor.data[idx]
        tensor.data[idx] = orig + h
        f_plus = f()
        tensor.data[idx] = orig - h
        f_minus = f()
        tensor.data[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * h)
        it.iternext()
    return grad


def check_op(build, tensors, h=1e-5, tol=1e-4, seed=0):
    """Gradcheck `build(tensors) -> Tensor` against all listed tensors.

    The scalar objective is a fixed random weighting of the output, so
    every output entry contributes. Relative error is normalized by the
    largest gradient magnitude per tensor.
    """
    rng = np.random.default_rng(seed)
    out = build()
    weights = rng.normal(size=out.data.shape)

    def objective():
        return float((build().data * weights).sum())

    for t in tensors:
        t.grad = None
    loss = total(ad.mul(build(), weights))
    ad.backward(loss)
    worst = 0.0
    for t in tensors:
        assert t.grad is not None, "no gradient reached a checked tensor"
        num = numeric_grad(objective, t, h=h)
        scale = max(np.abs(num).max(), np.abs(t.grad).max(), 1e-8)
        rel = np.abs(t.grad - num).max() / scale
        worst = max(worst, rel)
        assert rel < tol, f"gradcheck failed: rel error {rel:.3e} >= {tol}"
    return worst
