"""A tour of the reverse-mode tensor engine.

Build a computation, call backward on a scalar, and gradients accumulate
into the leaves. The finite-difference comparison at the end is the same
oracle the test suite uses for every operator.
"""

import numpy as np

import bearingrul.autodiff as ad
from bearingrul.autodiff import Tensor

# a tiny two-layer network by hand
rng = np.random.default_rng(0)
x = Tensor(rng.normal(size=(4, 3)))
w1 = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
b1 = Tensor(np.zeros(5), requires_grad=True)
w2 = Tensor(rng.normal(size=(5, 1)), requires_grad=True)

hidden = ad.relu(ad.add(ad.matmul(x, w1), b1))
out = ad.matmul(hidden, w2)
loss = ad.mean(ad.square(out))
ad.backward(loss)

print("loss:", float(loss.data))
print("dloss/dw2 shape:", w2.grad.shape, " norm:", np.linalg.norm(w2.grad))

# gradients accumulate over fan-out: d/dy sum(y + y) = 2, the sum being
# the mean times the count
y = Tensor(np.ones(3), requires_grad=True)
ad.backward(ad.mul(ad.mean(ad.add(y, y)), 3))
print("fan-out gradient:", y.grad)

# the analytic gradient matches central finite differences
w1.grad = None


def loss_value():
    h = ad.relu(ad.add(ad.matmul(x, w1), b1))
    return float(ad.mean(ad.square(ad.matmul(h, w2))).data)


ad.backward(ad.mean(ad.square(ad.matmul(ad.relu(ad.add(ad.matmul(x, w1), b1)), w2))))
h_step = 1e-5
worst = 0.0
for idx in ((0, 0), (1, 3), (2, 4)):
    orig = w1.data[idx]
    w1.data[idx] = orig + h_step
    up = loss_value()
    w1.data[idx] = orig - h_step
    down = loss_value()
    w1.data[idx] = orig
    numeric = (up - down) / (2 * h_step)
    rel = abs(w1.grad[idx] - numeric) / max(abs(numeric), 1e-12)
    worst = max(worst, rel)
    print(f"w1{idx}: analytic {w1.grad[idx]:+.6f}  numeric {numeric:+.6f}  "
          f"rel err {rel:.2e}")
print("worst relative error:", f"{worst:.2e}")
