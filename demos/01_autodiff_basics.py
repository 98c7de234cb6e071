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
# a scalar chain: loss = ||relu(x)||^2 on a small vector
x = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True, name="x")
loss = ad.l2_norm_sq(ad.relu(x))
loss.backward()
print("x      =", x.data)
print("loss   =", float(loss.data))
print("x.grad =", x.grad)
# relu kills the negative entry, the others get 2 * x; the convention at
# exactly zero is a zero gradient

# ---------------------------------------------------------------------------
# checking an op against central differences, the same way the gradcheck
# command does it for the full network
w = rng.normal(size=(4,))
wt = Tensor(w.copy(), requires_grad=True, name="w")
out = ad.l2_norm_sq(ad.sigmoid(wt))
out.backward()

step = 1e-6
for i in range(4):
    w_hi = w.copy(); w_hi[i] += step
    w_lo = w.copy(); w_lo[i] -= step
    hi = float(ad.l2_norm_sq(ad.sigmoid(Tensor(w_hi))).data)
    lo = float(ad.l2_norm_sq(ad.sigmoid(Tensor(w_lo))).data)
    numeric = (hi - lo) / (2 * step)
    print(f"w[{i}] analytic {wt.grad[i]:+.9f}  numeric {numeric:+.9f}  "
          f"diff {abs(wt.grad[i] - numeric):.2e}")

# ---------------------------------------------------------------------------
# a node of your own: ad.node takes a value, the parents and a closure that
# hands each parent its share of the upstream gradient.  The closure may
# read only what it captured, never a parent's .data.  The training
# objective is such a node: the bag loss is plain numpy, and its closure
# hands the logits the loss gradient (see demos/04_loss_heads.py).  Here,
# the second-ranked entry of c; which entry that is is decided outside the
# graph, by a sort, and only picks a constant coefficient
c = Tensor(np.array([0.1, 0.9, 0.4, 0.9]), requires_grad=True)
order = np.argsort(-c.data, kind="stable")
coeff = np.zeros(4)
coeff[order[1]] = 1.0  # the second-ranked entry; ties keep the earlier index first
picked = ad.node(float(coeff @ c.data), (c,),
                 lambda grad: c._accumulate(float(grad) * coeff))
picked.backward()
print("\nranking order  =", order)
print("grad wrt c     =", c.grad, "(only the second-ranked slot)")

# ---------------------------------------------------------------------------
# graphs can reuse a node; backward accumulates instead of overwriting
a = Tensor(np.array([2.0]), requires_grad=True)
twice = ad.l2_norm_sq(a, a)
twice.backward()
print("d(a^2 + a^2)/da =", a.grad)
