"""
The three bag losses, by hand
=============================

A bag is one image's vector of patch responses; the label says whether at
least one patch is positive, never which one.  The three heads turn that
weak signal into a loss in different ways.  They read the network's logits
z (a response is sigmoid(z)) for a whole batch of bags at once; here we feed
them one four-patch bag small enough to check against pencil arithmetic.
"""

import math

import numpy as np

from milnet import autodiff as ad
from milnet.autodiff import Tensor
from milnet.heads import BagWeights, MilConfig, bag_loss, bag_weights


def make_bag(values):
    """A (1, m) logit leaf whose responses are the given values."""
    v = np.asarray(values, dtype=np.float64)
    return Tensor((np.log(v) - np.log1p(-v))[None, :], requires_grad=True)


def loss_of(head, values, label, **kw):
    z = make_bag(values)
    loss = bag_loss(MilConfig(head=head, **kw), z, [label], w)
    loss.backward()
    return float(loss.data), z.grad[0]


r = (0.2, 0.8, 0.5, 0.1)
w = BagWeights(w1=1.0, w0=1.0, w1_patch=0.25, w0_patch=0.75)
print("responses:", r, " bag label: 1")
print("bag prediction (all heads):", ad.sigmoid(make_bag(r)).data.max())

# ---------------------------------------------------------------------------
# max pooling: only the largest response matters, loss = -log(max r).  The
# gradient is taken with respect to the logits: -(1 - r) at the top patch
loss, grad = loss_of("max_pool", r, 1)
print(f"\nmax_pool     loss = {loss:.6f}"
      f"   (-ln 0.8 = {-math.log(0.8):.6f})")
print("             grad =", grad, " only the argmax patch moves")

# ---------------------------------------------------------------------------
# label assignment: the top k patches inherit the bag label, the rest are
# treated as negatives, each side weighted by its patch prior
loss, grad = loss_of("label_assign", r, 1, k=1)
by_hand = -0.25 * math.log(0.8) - 0.75 * (
    math.log(1 - 0.5) + math.log(1 - 0.2) + math.log(1 - 0.1)
)
print(f"\nlabel_assign loss = {loss:.6f}   (by hand {by_hand:.6f})")
print("             grad =", grad, " every patch moves, tail pushed down")

# ---------------------------------------------------------------------------
# sparse: the max-pool term plus an L1 penalty on all responses, so the map
# is encouraged to stay dark away from the evidence
loss, grad = loss_of("sparse", r, 1, mu=0.1)
print(f"\nsparse       loss = {loss:.6f}"
      f"   (-ln 0.8 + 0.1 * {sum(r):.1f} = {-math.log(0.8) + 0.1 * sum(r):.6f})")
print("             grad =", grad, " argmax term plus mu * r * (1 - r)")

# ---------------------------------------------------------------------------
# two degeneracies worth knowing
mu0 = loss_of("sparse", r, 1, mu=0.0)[0]
mp = loss_of("max_pool", r, 1)[0]
print("\nsparse with mu=0 equals max_pool exactly:", mu0 == mp)

full = loss_of("label_assign", r, 1, k=4)[0]
expect = -0.25 * sum(math.log(v) for v in r)
print(f"label_assign with k=m keeps only the positive sum: "
      f"{full:.6f} vs {expect:.6f}")

# a negative bag collapses label_assign to one cross entropy over all m
neg = loss_of("label_assign", r, 0, k=1)[0]
expect = -0.75 * sum(math.log(1 - v) for v in r)
print(f"negative bag, any k:                        {neg:.6f} vs {expect:.6f}")

# ---------------------------------------------------------------------------
# a confidently wrong bag still gets pushed: a negative bag whose top logit is
# 20 (response 1 - 2e-9) costs w0 * (20 + log(1 + e^-20)) and that logit's
# gradient is w0 * sigmoid(20), not zero
z = Tensor(np.array([[20.0, 0.0, -1.0, 1.0]]), requires_grad=True)
loss = bag_loss(MilConfig(head="max_pool"), z, [0], BagWeights(0.8, 0.2, 0.25, 0.75))
loss.backward()
print(f"\nwrong negative bag: loss {float(loss.data):.6f}, grad {z.grad[0]}")

# ---------------------------------------------------------------------------
# where the weights come from: training-set counts.  Say 40 positives out of
# 200 bags with m=16 patches and k=4 assigned per positive bag.
bal = bag_weights(n_pos=40, n_total=200, k=4, m=16)
lit = bag_weights(n_pos=40, n_total=200, k=4, m=16, mode="literal")
print("\ncounts 40/200, k=4, m=16")
print(f"  patch prior      w1_patch = 4*40/(16*200) = {bal.w1_patch}")
print(f"  balanced bags    w1 = {bal.w1}, w0 = {bal.w0}  (minority up-weighted)")
print(f"  literal  bags    w1 = {lit.w1}, w0 = {lit.w0}")
# balanced is the default; with literal weights the rare positives barely
# register and training on an imbalanced set goes nowhere
