"""Loss-head values and gradients against from-scratch scalar oracles, and
byte for byte against the graph of scalar ops the heads were once built of.

The heads take instance logits; a bag given here as responses r is fed in
as logit(r), and the oracles are written in terms of r.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from milnet import autodiff as ad
from milnet.autodiff import Tensor, _logistic
from milnet.config import TrainConfig
from milnet.heads import (
    BagWeights,
    MilConfig,
    bag_loss,
    bag_weights,
)
from milnet.model import (
    BackboneSpec,
    ModelParams,
    forward_backbone,
    init_params,
    instance_responses,
    params_to_leaves,
)
from milnet.training import bag_scores, batch_objective


def logit(values):
    v = np.asarray(values, dtype=np.float64)
    return np.log(v) - np.log1p(-v)


def bag_from(values):
    """One bag of responses as a (1, m) logit array."""
    return logit(values)[None, :]


def head_loss(head, z, label, weights, k=1, mu=0.0):
    """(value, gradient with respect to z) of one bag."""
    return bag_loss(MilConfig(head=head, k=k, mu=mu), z, [label], weights)


def max_pool_oracle(r, label, w1, w0):
    """Scalar re-derivation: -w_y log p(y), p(1) = max response."""
    top = max(r)
    p = top if label == 1 else 1.0 - top
    w = w1 if label == 1 else w0
    return -w * math.log(p)


def label_assign_oracle(r, label, k, w1p, w0p):
    """Scalar re-derivation of the top-k assignment loss."""
    ranked = sorted(r, reverse=True)
    if label == 1:
        total = -w1p * sum(math.log(v) for v in ranked[:k])
        total += -w0p * sum(math.log(1.0 - v) for v in ranked[k:])
    else:
        total = -w0p * sum(math.log(1.0 - v) for v in ranked)
    return total


def sparse_oracle(r, label, mu, w1, w0):
    return max_pool_oracle(r, label, w1, w0) + mu * sum(abs(v) for v in r)


UNIT = BagWeights(w1=1.0, w0=1.0, w1_patch=0.25, w0_patch=0.75)


class TestHandValues:
    """The three worked examples, recomputed here from their definitions."""

    R = (0.2, 0.8, 0.5, 0.1)

    def test_max_pool_positive_bag(self):
        loss, _ = head_loss("max_pool", bag_from(self.R), 1, UNIT)
        assert_allclose(loss, -math.log(0.8), rtol=1e-12)
        assert_allclose(loss, 0.223144, atol=1e-6)

    def test_max_pool_negative_bag(self):
        loss, _ = head_loss("max_pool", bag_from((0.2, 0.1)), 0, UNIT)
        assert_allclose(loss, -math.log(1.0 - 0.2), rtol=1e-12)
        assert_allclose(loss, 0.223144, atol=1e-6)

    def test_max_pool_half_is_ln2_either_label(self):
        for label in (0, 1):
            loss, _ = head_loss("max_pool", bag_from((0.5, 0.3)), label, UNIT)
            assert_allclose(loss, math.log(2.0), rtol=1e-12)

    def test_label_assign_worked_example(self):
        # r=(0.2,0.8,0.5,0.1), y=1, k=2, patch weights (0.25, 0.75):
        # 0.25*(-ln 0.8 - ln 0.5) + 0.75*(-ln 0.8 - ln 0.9)
        expected = 0.25 * (-math.log(0.8) - math.log(0.5)) \
            + 0.75 * (-math.log(0.8) - math.log(0.9))
        loss, _ = head_loss("label_assign", bag_from(self.R), 1, UNIT, k=2)
        assert_allclose(loss, expected, rtol=1e-12)
        oracle = label_assign_oracle(self.R, 1, 2, 0.25, 0.75)
        assert_allclose(loss, oracle, rtol=1e-12)

    def test_sparse_worked_example(self):
        # max-pool term -ln 0.8 plus 0.01 * (0.2+0.8+0.5+0.1)
        loss, _ = head_loss("sparse", bag_from(self.R), 1, UNIT, mu=0.01)
        assert_allclose(loss, -math.log(0.8) + 0.01 * 1.6, rtol=1e-12)
        assert_allclose(loss, 0.239144, atol=1e-6)


class TestAgainstScalarOracle:
    """Random bags vs the pure-python re-implementations above."""

    def test_max_pool_random(self):
        rng = np.random.default_rng(100)
        for _ in range(300):
            m = int(rng.integers(1, 9))
            r = rng.uniform(0.01, 0.99, size=m)
            label = int(rng.integers(0, 2))
            w1, w0 = rng.uniform(0.1, 2.0, size=2)
            weights = BagWeights(w1=w1, w0=w0, w1_patch=0.5, w0_patch=0.5)
            loss, _ = head_loss("max_pool", bag_from(r), label, weights)
            assert_allclose(loss, max_pool_oracle(r.tolist(), label, w1, w0),
                            rtol=1e-12)

    def test_label_assign_random(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            m = int(rng.integers(1, 9))
            r = rng.uniform(0.01, 0.99, size=m)
            label = int(rng.integers(0, 2))
            k = int(rng.integers(1, m + 1))
            w1p, w0p = rng.uniform(0.1, 1.0, size=2)
            weights = BagWeights(w1=1.0, w0=1.0, w1_patch=w1p, w0_patch=w0p)
            loss, _ = head_loss("label_assign", bag_from(r), label, weights, k=k)
            assert_allclose(loss,
                            label_assign_oracle(r.tolist(), label, k, w1p, w0p),
                            rtol=1e-12)

    def test_sparse_random(self):
        rng = np.random.default_rng(102)
        for _ in range(300):
            m = int(rng.integers(1, 9))
            r = rng.uniform(0.01, 0.99, size=m)
            label = int(rng.integers(0, 2))
            mu = float(rng.uniform(0.0, 0.1))
            w1, w0 = rng.uniform(0.1, 2.0, size=2)
            weights = BagWeights(w1=w1, w0=w0, w1_patch=0.5, w0_patch=0.5)
            loss, _ = head_loss("sparse", bag_from(r), label, weights, mu=mu)
            assert_allclose(loss, sparse_oracle(r.tolist(), label, mu, w1, w0),
                            rtol=1e-12)

    def test_batch_is_the_sum_of_its_bags(self):
        rng = np.random.default_rng(106)
        weights = BagWeights(w1=0.7, w0=0.3, w1_patch=0.2, w0_patch=0.8)
        for cfg in (MilConfig(head="max_pool"), MilConfig(head="label_assign", k=3),
                    MilConfig(head="sparse", mu=0.05)):
            z = rng.normal(0.0, 2.0, size=(6, 9))
            labels = np.array([0, 1, 1, 0, 1, 0])
            loss, dz = bag_loss(cfg, z, labels, weights)
            for i in range(6):
                _, row = bag_loss(cfg, z[i:i + 1], labels[i:i + 1], weights)
                assert_allclose(dz[i], row[0], rtol=1e-12, atol=0)
            total = sum(bag_loss(cfg, z[i:i + 1], labels[i:i + 1], weights)[0]
                        for i in range(6))
            assert_allclose(loss, total, rtol=1e-12)


class TestDegeneracies:
    def test_sparse_mu_zero_equals_max_pool(self):
        rng = np.random.default_rng(103)
        for _ in range(200):
            m = int(rng.integers(1, 17))
            r = rng.uniform(0.01, 0.99, size=m)
            label = int(rng.integers(0, 2))
            la, ga = head_loss("sparse", bag_from(r), label, UNIT, mu=0.0)
            lb, gb = head_loss("max_pool", bag_from(r), label, UNIT)
            assert la == lb
            assert_array_equal(ga, gb)

    def test_label_assign_k_equals_m_is_per_instance_ce(self):
        rng = np.random.default_rng(104)
        for m in range(1, 7):
            for _ in range(50):
                r = rng.uniform(0.01, 0.99, size=m)
                w1p = float(rng.uniform(0.1, 1.0))
                weights = BagWeights(w1=1.0, w0=1.0, w1_patch=w1p, w0_patch=0.5)
                loss, _ = head_loss("label_assign", bag_from(r), 1, weights, k=m)
                brute = -w1p * sum(math.log(v) for v in r)
                assert_allclose(loss, brute, rtol=1e-12)


class TestPermutationInvariance:
    def test_all_heads_and_inference(self):
        rng = np.random.default_rng(105)
        r = rng.uniform(0.05, 0.95, size=8)
        base = None
        for trial in range(6):
            perm = rng.permutation(8)
            z = bag_from(r[perm])
            vals = (
                head_loss("max_pool", z, 1, UNIT)[0],
                head_loss("label_assign", z, 1, UNIT, k=3)[0],
                head_loss("label_assign", z, 0, UNIT, k=3)[0],
                head_loss("sparse", z, 1, UNIT, mu=0.02)[0],
                float(ad.sigmoid(Tensor(z)).data.max()),  # inference: the top response
            )
            if base is None:
                base = vals
            else:
                assert vals == base


class TestGradientStructure:
    """Gradients with respect to the logits: d(-log sigmoid(z))/dz =
    -(1 - r) and d(-log(1 - sigmoid(z)))/dz = r for response r."""

    def test_max_pool_touches_only_argmax(self):
        _, grad = head_loss("max_pool", bag_from((0.2, 0.8, 0.5, 0.1)), 1, UNIT)
        assert grad[0, 1] != 0.0
        assert grad[0, 0] == grad[0, 2] == grad[0, 3] == 0.0
        # -(1 - r) at the top response
        assert_allclose(grad[0, 1], -(1.0 - 0.8), rtol=1e-12)

    def test_max_pool_ties_go_to_the_smaller_index(self):
        _, grad = head_loss("max_pool", np.array([[0.5, 0.7, 0.5, 0.7]]), 1, UNIT)
        assert grad[0, 1] != 0.0
        assert grad[0, 0] == grad[0, 2] == grad[0, 3] == 0.0

    def test_label_assign_touches_all(self):
        _, grad = head_loss("label_assign", bag_from((0.2, 0.8, 0.5, 0.1)), 1, UNIT, k=2)
        assert (grad != 0.0).all()
        # top-2 pulled up (negative gradient), tail pushed down (positive)
        assert grad[0, 1] < 0 and grad[0, 2] < 0
        assert grad[0, 0] > 0 and grad[0, 3] > 0

    def test_sparse_touches_all(self):
        _, grad = head_loss("sparse", bag_from((0.2, 0.8, 0.5, 0.1)), 1, UNIT, mu=0.05)
        assert (grad != 0.0).all()
        # mu * r * (1 - r) from the response sum on every cell
        assert_allclose(grad[0, 1], -(1.0 - 0.8) + 0.05 * 0.8 * 0.2, rtol=1e-12)
        assert_allclose(grad[0, 0], 0.05 * 0.2 * 0.8, rtol=1e-12)

    def test_loss_decreases_as_top_response_rises(self):
        for top in (0.6, 0.7, 0.8, 0.9):
            lo, _ = head_loss("max_pool", bag_from((top - 0.05, 0.1)), 1, UNIT)
            hi, _ = head_loss("max_pool", bag_from((top, 0.1)), 1, UNIT)
            assert hi < lo


class TestConfidentlyWrongBag:
    """A negative bag whose top logit is 20 (response 1 - 2e-9): the loss is
    finite and the top logit still gets pushed down, for every head."""

    W = BagWeights(w1=0.8, w0=0.2, w1_patch=0.25, w0_patch=0.75)

    @pytest.mark.parametrize("cfg", [
        MilConfig(head="max_pool"),
        MilConfig(head="label_assign", k=2),
        MilConfig(head="sparse", mu=0.01),
    ], ids=lambda c: c.head)
    def test_finite_loss_and_gradient_on_the_top_logit(self, cfg):
        loss, grad = bag_loss(cfg, np.array([[20.0, 0.0, -1.0, 1.0]]), [0], self.W)
        assert np.isfinite(loss)
        assert np.isfinite(grad).all()
        assert grad[0, 0] > 0.1

    def test_max_pool_value_and_gradient(self):
        loss, grad = head_loss("max_pool", np.array([[20.0, 0.0, -1.0, 1.0]]), 0, self.W)
        # -w0 log(1 - sigmoid(20)) = w0 * (20 + log(1 + e^-20))
        assert_allclose(loss, 0.2 * (20.0 + math.log1p(math.exp(-20.0))),
                        rtol=1e-12)
        assert_allclose(grad[0, 0], 0.2 / (1.0 + math.exp(-20.0)), rtol=1e-12)
        assert grad[0, 1] == grad[0, 2] == grad[0, 3] == 0.0


class TestL2Penalty:
    def test_value_and_gradient(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([[3.0]]), requires_grad=True)
        pen = ad.l2_norm_sq(a, b)
        assert_allclose(pen.data, 1.0 + 4.0 + 9.0, rtol=0)
        pen.backward()
        assert_array_equal(a.grad, [2.0, 4.0])
        assert_array_equal(b.grad, [[6.0]])

    def test_objective_adds_lam_half(self):
        params = init_params(TrainConfig().backbone, seed=3)
        x = Tensor(np.random.default_rng(3).uniform(0, 1, size=(2, 1, 64, 64)))
        labels = np.array([1, 0])
        plain_cfg = TrainConfig(mil=MilConfig(lam=0.0))
        reg_cfg = TrainConfig(mil=MilConfig(lam=0.1))
        plain_leaves = params_to_leaves(params)
        reg_leaves = params_to_leaves(params)
        plain = batch_objective(plain_cfg, UNIT, plain_leaves, x, labels)
        reg = batch_objective(reg_cfg, UNIT, reg_leaves, x, labels)
        norm_sq = sum(float((a * a).sum()) for a in params.arrays.values())
        assert_allclose(reg.data - plain.data, 0.05 * norm_sq, rtol=1e-12)
        plain.backward()
        reg.backward()
        for name, arr in params.arrays.items():
            assert_allclose(reg_leaves[name].grad - plain_leaves[name].grad,
                            0.1 * arr, rtol=1e-9, atol=1e-15)


class TestBagWeights:
    def test_patch_weights_formula(self):
        # k=4, m=36, 94 positives of 410: 376/14760
        w = bag_weights(n_pos=94, n_total=410, k=4, m=36)
        assert_allclose(w.w1_patch, 376.0 / 14760.0, rtol=1e-15)
        assert_allclose(w.w0_patch, 1.0 - 376.0 / 14760.0, rtol=1e-15)

    def test_balanced_mode_upweights_minority(self):
        w = bag_weights(n_pos=94, n_total=410, k=4, m=36, mode="balanced")
        assert_allclose(w.w1, 316.0 / 410.0, rtol=1e-15)
        assert_allclose(w.w0, 94.0 / 410.0, rtol=1e-15)
        assert w.w1 > w.w0

    def test_literal_mode_uses_prevalence(self):
        w = bag_weights(n_pos=94, n_total=410, k=4, m=36, mode="literal")
        assert_allclose(w.w1, 94.0 / 410.0, rtol=1e-15)
        assert_allclose(w.w0, 316.0 / 410.0, rtol=1e-15)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            bag_weights(n_pos=0, n_total=10, k=1, m=4)
        with pytest.raises(ValueError):
            bag_weights(n_pos=10, n_total=10, k=1, m=4)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            BagWeights(w1=-0.1, w0=1.0, w1_patch=0.5, w0_patch=0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["w1", "w0", "w1_patch", "w0_patch"])
    def test_non_finite_weight_rejected(self, field, value):
        # a NaN passes "x < 0"; each field must be finite and nonnegative
        fields = {"w1": 1.0, "w0": 1.0, "w1_patch": 0.5, "w0_patch": 0.5}
        fields[field] = value
        with pytest.raises(ValueError, match=f"{field} must be a finite nonnegative"):
            BagWeights(**fields)


class TestMilConfig:
    def test_defaults(self):
        cfg = MilConfig()
        assert cfg.head == "max_pool"
        assert cfg.k == 4 and cfg.mu == 1e-5 and cfg.lam == 1e-5
        assert cfg.weight_mode == "balanced"

    def test_unknown_head(self):
        with pytest.raises(ValueError):
            MilConfig(head="mean_pool")

    def test_k_vs_m(self):
        # the desk backbone has m = 16 cells
        TrainConfig(mil=MilConfig(head="label_assign", k=16))
        with pytest.raises(ValueError):
            TrainConfig(mil=MilConfig(head="label_assign", k=17))
        # for other heads k is inert, so any k is fine
        TrainConfig(mil=MilConfig(head="max_pool", k=99))

    def test_negative_hyperparams(self):
        with pytest.raises(ValueError):
            MilConfig(mu=-1e-3)
        with pytest.raises(ValueError):
            MilConfig(lam=-1e-3)
        with pytest.raises(ValueError):
            MilConfig(k=0)

    def test_weight_mode_validated(self):
        with pytest.raises(ValueError):
            MilConfig(weight_mode="none")


class TestBagLossDispatch:
    def test_selects_head(self):
        r = (0.2, 0.8, 0.5, 0.1)
        cfgs = {
            "max_pool": MilConfig(head="max_pool"),
            "label_assign": MilConfig(head="label_assign", k=2),
            "sparse": MilConfig(head="sparse", mu=0.01),
        }
        w = BagWeights(w1=1.0, w0=1.0, w1_patch=0.25, w0_patch=0.75)
        vals = {}
        for name, cfg in cfgs.items():
            vals[name] = bag_loss(cfg, bag_from(r), [1], w)[0]
        assert_allclose(vals["max_pool"], -math.log(0.8), rtol=1e-12)
        assert_allclose(vals["label_assign"],
                        label_assign_oracle(r, 1, 2, 0.25, 0.75), rtol=1e-12)
        assert_allclose(vals["sparse"], -math.log(0.8) + 0.01 * 1.6, rtol=1e-12)

    def test_bag_loss_has_no_l2(self):
        cfg = MilConfig(head="max_pool", lam=10.0)
        loss, _ = bag_loss(cfg, bag_from((0.4, 0.2)), [1], UNIT)
        assert_allclose(loss, -math.log(0.4), rtol=1e-12)



class TestInferBag:
    """The inference rule, identical for every head: a bag's score is its
    top response.  A 1x1 identity conv makes each pixel one patch logit."""

    @staticmethod
    def score(z):
        z = np.asarray(z, dtype=np.float64)
        spec = BackboneSpec(input_size=z.shape[0], layers=(("conv", 1, 1, 1, 0),))
        params = ModelParams(spec, {
            "conv0.kernel": np.ones((1, 1, 1, 1)), "conv0.bias": np.zeros(1),
            "response.weight": np.ones(1), "response.bias": np.asarray(0.0),
        })
        return bag_scores(params, [z])[0]

    @pytest.mark.usefixtures("float64_gemms")
    def test_returns_top(self):
        z = logit([[0.2, 0.8], [0.5, 0.1]])
        assert self.score(z) == 1.0 / (1.0 + np.exp(-z.max()))
        assert_allclose(self.score(z), 0.8, rtol=1e-15)

    @pytest.mark.usefixtures("float64_gemms")
    def test_single_instance(self):
        z = logit([[0.37]])  # negative: sigmoid(z) = e^z / (1 + e^z)
        assert self.score(z) == np.exp(z[0, 0]) / (1.0 + np.exp(z[0, 0]))

    def test_all_equal(self):
        assert self.score(np.zeros((2, 2))) == 0.5

    def test_label_assign_errors(self):
        z = bag_from((0.4, 0.2))
        with pytest.raises(ValueError):
            head_loss("label_assign", z, 1, UNIT, k=3)
        with pytest.raises(ValueError):
            head_loss("label_assign", z, 2, UNIT, k=1)
        with pytest.raises(ValueError):
            bag_loss(MilConfig(), z, [1, 0], UNIT)
        with pytest.raises(ValueError):
            bag_loss(MilConfig(), np.zeros(4), [1], UNIT)


# ---------------------------------------------------------------------------
# The reference: the six scalar ops and the head and objective composition
# that training used before each head became plain numpy, as they were but
# for building their nodes with ad.node.

def ref_log_sigmoid(x: Tensor) -> Tensor:
    d = x.data
    out = np.minimum(d, 0.0) - np.log1p(np.exp(-np.abs(d)))

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * _logistic(-d))

    return ad.node(out, (x,), backward)


def ref_reduce_sum(x: Tensor) -> Tensor:
    out = np.asarray(math.fsum(x.data.ravel().tolist()))

    def backward(grad: np.ndarray) -> None:
        x._accumulate(np.full(x.shape, float(grad)))

    return ad.node(out, (x,), backward)


def ref_weighted_sum(x: Tensor, coeff: np.ndarray) -> Tensor:
    coeff = np.asarray(coeff, dtype=np.float64)
    out = np.asarray(math.fsum((coeff * x.data).ravel().tolist()))

    def backward(grad: np.ndarray) -> None:
        x._accumulate(float(grad) * coeff)

    return ad.node(out, (x,), backward)


def ref_scale(x: Tensor, c: float) -> Tensor:
    out = x.data * c

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * c)

    return ad.node(out, (x,), backward)


def ref_add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad)
        if b.requires_grad:
            b._accumulate(grad)

    return ad.node(out, (a, b), backward)


def ref_add_n(tensors: list[Tensor]) -> Tensor:
    out = tensors[0].data.copy()
    for t in tensors[1:]:
        out = out + t.data

    def backward(grad: np.ndarray) -> None:
        for t in tensors:
            if t.requires_grad:
                t._accumulate(grad)

    return ad.node(out, tuple(tensors), backward)


def ref_bag_loss(cfg: MilConfig, logits: Tensor, labels, weights: BagWeights) -> Tensor:
    z = logits.data
    n, m = z.shape
    labels = np.asarray(labels)
    order = np.argsort(-z, axis=1, kind="stable")
    pos = labels == 1
    neg = ~pos
    pos_coef = np.zeros((n, m))
    neg_coef = np.zeros((n, m))
    if cfg.head == "label_assign":
        rows = np.flatnonzero(pos)[:, None]
        pos_coef[rows, order[pos, :cfg.k]] = weights.w1_patch
        neg_coef[rows, order[pos, cfg.k:]] = weights.w0_patch
        neg_coef[neg] = weights.w0_patch
    else:
        pos_coef[pos, order[pos, 0]] = weights.w1
        neg_coef[neg, order[neg, 0]] = weights.w0
    terms = [
        ref_weighted_sum(ref_log_sigmoid(logits), -pos_coef),
        ref_weighted_sum(ref_log_sigmoid(ref_scale(logits, -1.0)), -neg_coef),
    ]
    if cfg.head == "sparse" and cfg.mu > 0.0:
        terms.append(ref_scale(ref_reduce_sum(ad.sigmoid(logits)), cfg.mu))
    return ref_add_n(terms)


def ref_objective(cfg: TrainConfig, weights, leaves, x, labels) -> Tensor:
    fmap = forward_backbone(x, cfg.backbone, leaves)
    logits = instance_responses(fmap, leaves["response.weight"], leaves["response.bias"])
    total = ref_bag_loss(cfg.mil, logits, labels, weights)
    if cfg.mil.lam > 0.0:
        total = ref_add(total, ref_scale(ad.l2_norm_sq(*leaves.values()), cfg.mil.lam / 2.0))
    return total


M = 16  # the desk preset's cell count
LABELS = np.array([1, 0, 1, 1, 0, 0])


def special_logits(rng: np.random.Generator) -> dict[str, np.ndarray]:
    """(6, M) logit batches: plain draws, ties, signed zeros, and magnitudes
    where exp overflows (750) or the logistic rounds to 0 or 1 (1e300)."""
    shape = (len(LABELS), M)
    return {
        "normal": rng.normal(0.0, 3.0, size=shape),
        "ties": rng.integers(-2, 3, size=shape) * 0.5,
        "zeros": rng.choice(np.array([-0.0, 0.0, 0.0, -0.0, 1.5, -1.5]), size=shape),
        "large": rng.choice(np.array([-750.0, 750.0, -1e300, 1e300, -0.0, 0.0, 3.0, -3.0]),
                            size=shape),
    }


def configs(head: str, weight_mode: str):
    """Every MilConfig the byte tests cover: k in {1, M/2, M}, mu in {0, 1e-3}
    and lam in {0, 1e-5}."""
    for k in (1, M // 2, M):
        for mu in (0.0, 1e-3):
            for lam in (0.0, 1e-5):
                yield MilConfig(head=head, k=k, mu=mu, lam=lam, weight_mode=weight_mode)


HEAD_CASES = [pytest.param(head, mode, id=f"{head}-{mode}")
              for head in ("max_pool", "label_assign", "sparse")
              for mode in ("balanced", "literal")]


class TestComposedGraphBytes:
    """bag_loss and batch_objective give the bytes of the reference graph:
    the loss value, the logit gradient and every leaf gradient."""

    @pytest.mark.parametrize("head, weight_mode", HEAD_CASES)
    def test_value_and_logit_gradient(self, head, weight_mode):
        rng = np.random.default_rng(71)
        batches = special_logits(rng)
        for cfg in configs(head, weight_mode):
            weights = bag_weights(3, 8, cfg.k, M, mode=weight_mode)
            for what, z in batches.items():
                value, dz = bag_loss(cfg, z, LABELS, weights)
                assert np.isfinite(value) and np.isfinite(dz).all(), (cfg, what)
                leaf = Tensor(z, requires_grad=True)
                ref = ref_bag_loss(cfg, leaf, LABELS, weights)
                ref.backward()
                assert np.asarray(value).tobytes() == ref.data.tobytes(), (cfg, what)
                assert dz.dtype == leaf.grad.dtype and dz.shape == leaf.grad.shape
                assert dz.tobytes() == leaf.grad.tobytes(), (cfg, what)

    @staticmethod
    def objective_bytes(objective, cfg, params, x) -> list[bytes]:
        leaves = params_to_leaves(params)
        weights = bag_weights(3, 8, cfg.mil.k, M, mode=cfg.mil.weight_mode)
        total = objective(cfg, weights, leaves, Tensor(x), LABELS)
        total.backward()
        return [total.data.tobytes()] + [leaf.grad.tobytes() for leaf in leaves.values()]

    @pytest.mark.parametrize("head, weight_mode", HEAD_CASES)
    def test_objective_value_and_leaf_gradients(self, head, weight_mode):
        rng = np.random.default_rng(73)
        desk = TrainConfig()
        desk_params = init_params(desk.backbone, seed=5)
        images = rng.uniform(0.0, 1.0, size=(len(LABELS), 1, 64, 64))
        # a 1x1 identity conv on 4x4 inputs makes each pixel a logit, so the
        # special batches reach the head; float64 GEMMs keep 1e300 finite
        spec = BackboneSpec(input_size=4, layers=(("conv", 1, 1, 1, 0),))
        unit = ModelParams(spec, {
            "conv0.kernel": np.ones((1, 1, 1, 1)), "conv0.bias": np.zeros(1),
            "response.weight": np.ones(1), "response.bias": np.asarray(0.0),
        })
        pixels = [z.reshape(len(LABELS), 1, 4, 4) for z in special_logits(rng).values()]
        for mil in configs(head, weight_mode):
            cfg = TrainConfig(mil=mil)
            assert (self.objective_bytes(batch_objective, cfg, desk_params, images)
                    == self.objective_bytes(ref_objective, cfg, desk_params, images)), mil
            cfg = TrainConfig(backbone=spec, mil=mil)
            with ad.float64_gemms():
                for x in pixels:
                    assert (self.objective_bytes(batch_objective, cfg, unit, x)
                            == self.objective_bytes(ref_objective, cfg, unit, x)), mil

    def test_bag_loss_builds_no_graph_node(self, monkeypatch):
        built = []
        init = Tensor.__init__

        def recording(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", recording)
        for head in ("max_pool", "label_assign", "sparse"):
            value, dz = bag_loss(MilConfig(head=head, k=2, mu=0.1),
                                 bag_from((0.2, 0.8, 0.5, 0.1)), [1], UNIT)
            assert type(value) is float and type(dz) is np.ndarray
        assert built == []

