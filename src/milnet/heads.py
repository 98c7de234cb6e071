"""The three MIL loss heads, computed from one (N, m) logit array.

Every head scores the same instance logits z (the response of a patch is
sigmoid(z)) and differs only in which ranked patches get which target.  The
max-pooling head penalizes only the top response; the label-assignment head
treats the top k patches as carrying the bag label and the rest as negative;
the sparse head adds mu * sum(sigmoid(z)), the L1 norm of the responses, to
the max-pooling term.  Inference is the same for every head: the top
response is the bag's predicted probability.

Ranking is a row-wise stable argsort of the logits, ties going to the
smaller patch index; it is the same order as ranking the responses.  The
ranks and labels fix two constant per-cell coefficient arrays, one for the
-log sigmoid(z) terms and one for the -log sigmoid(-z) = -log(1 - sigmoid(z))
terms.  A head is plain numpy, not a piece of the autodiff graph: bag_loss
returns the batch's loss and its gradient with respect to the logits, and
the training objective puts both under one graph node.  A sort is locally
a fixed permutation, so the ranking adds nothing to the gradient.  Working
in logits keeps every term finite, and a confidently wrong patch gets a
gradient close to its weight rather than none.

bag_loss sums the bag terms over the batch (no mean); the training objective
adds the L2 penalty (lam / 2) * ||theta||^2 once per step, over all
trainable parameters including biases.  The number of instances per bag, m,
is the backbone's cell count; bag_loss reads it from the logits it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import _logistic

__all__ = [
    "HEADS",
    "WEIGHT_MODES",
    "MilConfig",
    "BagWeights",
    "bag_weights",
    "bag_loss",
]

HEADS = ("max_pool", "label_assign", "sparse")
WEIGHT_MODES = ("balanced", "literal")


@dataclass(frozen=True)
class MilConfig:
    """Head selection and its hyperparameters.

    k applies to label_assign only, mu to sparse only.  k is checked
    against the backbone's cell count by ``TrainConfig``, which knows both.
    """

    head: str = "max_pool"
    k: int = 4
    mu: float = 1e-5
    lam: float = 1e-5
    weight_mode: str = "balanced"

    def __post_init__(self):
        if self.head not in HEADS:
            raise ValueError(f"unknown head {self.head!r}; choose from {HEADS}")
        if self.k < 1:
            raise ValueError(f"k must be a positive int, got {self.k}")
        # "not 0 <= x < inf" is also true of NaN: a NaN mu would train a
        # plain max_pool run, and a NaN lambda would drop the L2 term
        if not 0.0 <= self.mu < math.inf:
            raise ValueError(f"mu must be a finite nonnegative number, got {self.mu}")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lambda must be a finite nonnegative number, got {self.lam}")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(
                f"weight_mode must be {' or '.join(map(repr, WEIGHT_MODES))}, "
                f"got {self.weight_mode!r}"
            )


@dataclass(frozen=True)
class BagWeights:
    """Class weights at bag level (w1, w0) and patch level (w1_patch, w0_patch)."""

    w1: float
    w0: float
    w1_patch: float
    w0_patch: float

    def __post_init__(self):
        for name in ("w1", "w0", "w1_patch", "w0_patch"):
            # "not 0 <= x < inf" is also true of NaN, which "x < 0" lets by
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(
                    f"{name} must be a finite nonnegative number, got {getattr(self, name)}"
                )


def bag_weights(n_pos: int, n_total: int, k: int, m: int, mode: str = "balanced") -> BagWeights:
    """Empirical class weights from training-set counts.

    Patch level is always w1_patch = k * n_pos / (m * n_total) and
    w0_patch = 1 - w1_patch, for a k in [1, m].  Bag level depends on mode: 'literal' uses the
    raw positive prevalence as w1; 'balanced' (default) swaps the two so the
    minority class is up-weighted, which is what a weighted loss on an
    imbalanced set is for.
    """
    if not 0 < n_pos < n_total:
        raise ValueError(
            f"need both classes present: n_pos={n_pos} of n_total={n_total}"
        )
    prevalence = n_pos / n_total
    w1_patch = k * n_pos / (m * n_total)
    if mode == "literal":
        w1, w0 = prevalence, 1.0 - prevalence
    elif mode == "balanced":
        w1, w0 = 1.0 - prevalence, prevalence
    else:
        raise ValueError(f"unknown weight mode {mode!r}")
    return BagWeights(w1=w1, w0=w0, w1_patch=w1_patch, w0_patch=1.0 - w1_patch)


def bag_loss(
    cfg: MilConfig,
    z: np.ndarray,
    labels,
    weights: BagWeights,
) -> tuple[float, np.ndarray]:
    """Summed bag terms of the configured head over a batch, without L2, and
    their gradient with respect to the logits: ``(value, dz)``.

    z is the (N, m) array of instance logits, labels the N bag labels (0 or
    1).  Per bag, with the patches ranked by logit:
      max_pool      -w1 log sigmoid(z_top) if positive,
                    -w0 log sigmoid(-z_top) if negative;
      label_assign  -w1_patch sum_top-k log sigmoid(z)
                    - w0_patch sum_rest log sigmoid(-z) if positive,
                    -w0_patch sum_all log sigmoid(-z) if negative;
      sparse        the max_pool term + mu * sum_all sigmoid(z).
    Each sum is correctly rounded (math.fsum), so the value does not change
    by one bit when the patches or the bags are reordered.  The value and dz
    keep the expressions, and dz the order of its terms, that the reference
    graph of scalar ops in tests/test_heads.py checks byte for byte.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] == 0:
        raise ValueError(f"logits must be a nonempty (N, m) array, got {z.shape}")
    n, m = z.shape
    labels = np.asarray(labels)
    if labels.shape != (n,) or not np.isin(labels, (0, 1)).all():
        raise ValueError(f"need {n} labels, each 0 or 1, got {labels!r}")
    order = np.argsort(-z, axis=1, kind="stable")
    pos = labels == 1
    neg = ~pos
    pos_coef = np.zeros((n, m))  # weight of -log sigmoid(z) per cell
    neg_coef = np.zeros((n, m))  # weight of -log sigmoid(-z) per cell
    if cfg.head == "label_assign":
        if not 1 <= cfg.k <= m:
            raise ValueError(f"k={cfg.k} must be in [1, m={m}]")
        rows = np.flatnonzero(pos)[:, None]
        pos_coef[rows, order[pos, :cfg.k]] = weights.w1_patch
        neg_coef[rows, order[pos, cfg.k:]] = weights.w0_patch
        neg_coef[neg] = weights.w0_patch
    else:
        pos_coef[pos, order[pos, 0]] = weights.w1
        neg_coef[neg, order[neg, 0]] = weights.w0

    def weighted_log_sigmoid(coeff: np.ndarray, d: np.ndarray) -> float:
        # sum(coeff * log sigmoid(d)); log sigmoid(d) = -softplus(-d) is
        # finite for every finite d
        terms = coeff * (np.minimum(d, 0.0) - np.log1p(np.exp(-np.abs(d))))
        return math.fsum(terms.ravel().tolist())

    # d/dd log sigmoid(d) = sigmoid(-d), computed directly rather than as
    # 1 - sigmoid(d), so it stays exact to rounding where sigmoid(d) rounds
    # to 1; "+ 0.0" turns each -0.0 into +0.0, as a fresh gradient starts
    up, down, flip = -pos_coef, -neg_coef, z * -1.0
    value = weighted_log_sigmoid(up, z) + weighted_log_sigmoid(down, flip)
    dz = (up + 0.0) * _logistic(-z) + 0.0
    dz += ((down + 0.0) * _logistic(-flip) + 0.0) * -1.0
    if cfg.head == "sparse" and cfg.mu > 0.0:
        r = _logistic(z)
        value += math.fsum(r.ravel().tolist()) * cfg.mu
        dz += cfg.mu * r * (1.0 - r)
    return value, dz
