"""
A tour of the tensor engine
===========================

Everything the network does runs through the small reverse-mode engine in
milnet.autodiff: float64 arrays, a closure per op that routes gradients to
its parents, and an iterative topological backward pass.  This script walks
the basics and double-checks a few gradients by central differences.
"""

import numpy as np

from milnet import autodiff as ad
from milnet.autodiff import Tensor

rng = np.random.default_rng(0)

# ---------------------------------------------------------------------------
# a scalar chain: loss = sum(relu(x * 3)) on a small vector
x = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True, name="x")
y = ad.relu(ad.scale(x, 3.0))
loss = ad.reduce_sum(y)
loss.backward()
print("x      =", x.data)
print("loss   =", float(loss.data))
print("x.grad =", x.grad)
# relu kills the negative entry, the others pass the factor of 3 through;
# the convention at exactly zero is a zero gradient

# ---------------------------------------------------------------------------
# checking an op against central differences, the same way the gradcheck
# command does it for the full network
w = rng.normal(size=(4,))
wt = Tensor(w.copy(), requires_grad=True, name="w")
out = ad.reduce_sum(ad.sigmoid(wt))
out.backward()

step = 1e-6
for i in range(4):
    w_hi = w.copy(); w_hi[i] += step
    w_lo = w.copy(); w_lo[i] -= step
    hi = float(ad.reduce_sum(ad.sigmoid(Tensor(w_hi))).data)
    lo = float(ad.reduce_sum(ad.sigmoid(Tensor(w_lo))).data)
    numeric = (hi - lo) / (2 * step)
    print(f"w[{i}] analytic {wt.grad[i]:+.9f}  numeric {numeric:+.9f}  "
          f"diff {abs(wt.grad[i] - numeric):.2e}")

# ---------------------------------------------------------------------------
# the bag losses are built from log_sigmoid, log(1 / (1 + e^-z)) computed as
# -softplus(-z): finite for any logit, and its gradient sigmoid(-z) stays
# near 1 for a confidently wrong patch instead of vanishing, as it would
# through a probability clipped away from 0 and 1
z = Tensor(np.array([-20.0, 0.0, 20.0]), requires_grad=True, name="z")
ad.reduce_sum(ad.log_sigmoid(z)).backward()
print("\nlog_sigmoid(z) =", ad.log_sigmoid(z).data)
print("grad wrt z     =", z.grad, "(= sigmoid(-z))")

# which patches count is decided outside the graph (a sort of the logits);
# it only picks constant coefficients, and weighted_sum applies them
c = Tensor(np.array([0.1, 0.9, 0.4, 0.9]), requires_grad=True)
order = np.argsort(-c.data, kind="stable")
coeff = np.zeros(4)
coeff[order[1]] = 1.0  # the second-ranked entry; ties keep the earlier index first
ad.weighted_sum(c, coeff).backward()
print("\nranking order  =", order)
print("grad wrt c     =", c.grad, "(only the second-ranked slot)")

# ---------------------------------------------------------------------------
# graphs can reuse a node; backward accumulates instead of overwriting
a = Tensor(np.array([2.0]), requires_grad=True)
twice = ad.reduce_sum(ad.add(a, a))
twice.backward()
print("d(a + a)/da    =", a.grad)
