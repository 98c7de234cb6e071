"""The three MIL loss heads, computed from one (N, m) logit tensor.

Every head scores the same instance logits z (the response of a patch is
sigmoid(z)) and differs only in which ranked patches get which target.  The
max-pooling head penalizes only the top response; the label-assignment head
treats the top k patches as carrying the bag label and the rest as negative;
the sparse head adds mu * sum(sigmoid(z)), the L1 norm of the responses, to
the max-pooling term.  Inference is the same for every head: the top
response is the bag's predicted probability.

Ranking is a row-wise stable argsort of the logits, ties going to the
smaller patch index; it is the same order as ranking the responses, and it
is not a graph op, since a sort is locally a fixed permutation.  The ranks
and labels fix two constant per-cell coefficient arrays, one for the
-log sigmoid(z) terms and one for the -log sigmoid(-z) = -log(1 - sigmoid(z))
terms, and each is applied with one weighted sum, so a batch costs the same
handful of graph nodes at every size.  Working in logits keeps every term
finite, and a confidently wrong patch gets a gradient close to its weight
rather than none.

bag_loss sums the bag terms over the batch (no mean); the training objective
adds the L2 penalty (lam / 2) * ||theta||^2 once per step, over all
trainable parameters including biases.  The number of instances per bag, m,
is the backbone's cell count; bag_loss reads it from the logits it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

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
        if self.mu < 0:
            raise ValueError(f"mu must be nonnegative, got {self.mu}")
        if self.lam < 0:
            raise ValueError(f"lambda must be nonnegative, got {self.lam}")
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
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


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
    logits: Tensor,
    labels,
    weights: BagWeights,
) -> Tensor:
    """Summed bag terms of the configured head over a batch, without L2.

    logits is the (N, m) graph tensor of instance logits, labels the N bag
    labels (0 or 1).  Per bag, with the patches ranked by logit:
      max_pool      -w1 log sigmoid(z_top) if positive,
                    -w0 log sigmoid(-z_top) if negative;
      label_assign  -w1_patch sum_top-k log sigmoid(z)
                    - w0_patch sum_rest log sigmoid(-z) if positive,
                    -w0_patch sum_all log sigmoid(-z) if negative;
      sparse        the max_pool term + mu * sum_all sigmoid(z).
    """
    z = logits.data
    if z.ndim != 2 or z.shape[1] == 0:
        raise ValueError(f"logits must be a nonempty (N, m) tensor, got {z.shape}")
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
    terms = [
        ad.weighted_sum(ad.log_sigmoid(logits), -pos_coef),
        ad.weighted_sum(ad.log_sigmoid(ad.scale(logits, -1.0)), -neg_coef),
    ]
    if cfg.head == "sparse" and cfg.mu > 0.0:
        terms.append(ad.scale(ad.reduce_sum(ad.sigmoid(logits)), cfg.mu))
    return ad.add_n(terms)
