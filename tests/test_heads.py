"""Loss-head values and gradients against from-scratch scalar oracles.

The heads take instance logits; a bag given here as responses r is fed in
as logit(r), and the oracles are written in terms of r.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from milnet import autodiff as ad
from milnet.autodiff import Tensor
from milnet.config import TrainConfig
from milnet.heads import (
    BagWeights,
    MilConfig,
    bag_loss,
    bag_weights,
)
from milnet.model import BackboneSpec, ModelParams, init_params, params_to_leaves
from milnet.training import bag_scores, batch_objective


def logit(values):
    v = np.asarray(values, dtype=np.float64)
    return np.log(v) - np.log1p(-v)


def bag_from(values):
    """One bag of responses as a (1, m) logit leaf that records gradients."""
    return Tensor(logit(values)[None, :], requires_grad=True)


def head_loss(head, z, label, weights, k=1, mu=0.0):
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
        loss = head_loss("max_pool", bag_from(self.R), 1, UNIT)
        assert_allclose(loss.data, -math.log(0.8), rtol=1e-12)
        assert_allclose(loss.data, 0.223144, atol=1e-6)

    def test_max_pool_negative_bag(self):
        loss = head_loss("max_pool", bag_from((0.2, 0.1)), 0, UNIT)
        assert_allclose(loss.data, -math.log(1.0 - 0.2), rtol=1e-12)
        assert_allclose(loss.data, 0.223144, atol=1e-6)

    def test_max_pool_half_is_ln2_either_label(self):
        for label in (0, 1):
            loss = head_loss("max_pool", bag_from((0.5, 0.3)), label, UNIT)
            assert_allclose(loss.data, math.log(2.0), rtol=1e-12)

    def test_label_assign_worked_example(self):
        # r=(0.2,0.8,0.5,0.1), y=1, k=2, patch weights (0.25, 0.75):
        # 0.25*(-ln 0.8 - ln 0.5) + 0.75*(-ln 0.8 - ln 0.9)
        expected = 0.25 * (-math.log(0.8) - math.log(0.5)) \
            + 0.75 * (-math.log(0.8) - math.log(0.9))
        loss = head_loss("label_assign", bag_from(self.R), 1, UNIT, k=2)
        assert_allclose(loss.data, expected, rtol=1e-12)
        oracle = label_assign_oracle(self.R, 1, 2, 0.25, 0.75)
        assert_allclose(loss.data, oracle, rtol=1e-12)

    def test_sparse_worked_example(self):
        # max-pool term -ln 0.8 plus 0.01 * (0.2+0.8+0.5+0.1)
        loss = head_loss("sparse", bag_from(self.R), 1, UNIT, mu=0.01)
        assert_allclose(loss.data, -math.log(0.8) + 0.01 * 1.6, rtol=1e-12)
        assert_allclose(loss.data, 0.239144, atol=1e-6)


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
            loss = head_loss("max_pool", bag_from(r), label, weights)
            assert_allclose(loss.data, max_pool_oracle(r.tolist(), label, w1, w0),
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
            loss = head_loss("label_assign", bag_from(r), label, weights, k=k)
            assert_allclose(loss.data,
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
            loss = head_loss("sparse", bag_from(r), label, weights, mu=mu)
            assert_allclose(loss.data, sparse_oracle(r.tolist(), label, mu, w1, w0),
                            rtol=1e-12)

    def test_batch_is_the_sum_of_its_bags(self):
        rng = np.random.default_rng(106)
        weights = BagWeights(w1=0.7, w0=0.3, w1_patch=0.2, w0_patch=0.8)
        for cfg in (MilConfig(head="max_pool"), MilConfig(head="label_assign", k=3),
                    MilConfig(head="sparse", mu=0.05)):
            z = rng.normal(0.0, 2.0, size=(6, 9))
            labels = np.array([0, 1, 1, 0, 1, 0])
            batch = Tensor(z, requires_grad=True)
            loss = bag_loss(cfg, batch, labels, weights)
            loss.backward()
            for i in range(6):
                row = Tensor(z[i:i + 1], requires_grad=True)
                one = bag_loss(cfg, row, labels[i:i + 1], weights)
                one.backward()
                assert_allclose(batch.grad[i], row.grad[0], rtol=1e-12, atol=0)
            total = sum(float(bag_loss(cfg, Tensor(z[i:i + 1]), labels[i:i + 1],
                                       weights).data) for i in range(6))
            assert_allclose(loss.data, total, rtol=1e-12)


class TestDegeneracies:
    def test_sparse_mu_zero_equals_max_pool(self):
        rng = np.random.default_rng(103)
        for _ in range(200):
            m = int(rng.integers(1, 17))
            r = rng.uniform(0.01, 0.99, size=m)
            label = int(rng.integers(0, 2))
            raw_a, raw_b = bag_from(r), bag_from(r)
            la = head_loss("sparse", raw_a, label, UNIT, mu=0.0)
            lb = head_loss("max_pool", raw_b, label, UNIT)
            assert la.data == lb.data
            la.backward()
            lb.backward()
            assert_array_equal(raw_a.grad, raw_b.grad)

    def test_label_assign_k_equals_m_is_per_instance_ce(self):
        rng = np.random.default_rng(104)
        for m in range(1, 7):
            for _ in range(50):
                r = rng.uniform(0.01, 0.99, size=m)
                w1p = float(rng.uniform(0.1, 1.0))
                weights = BagWeights(w1=1.0, w0=1.0, w1_patch=w1p, w0_patch=0.5)
                loss = head_loss("label_assign", bag_from(r), 1, weights, k=m)
                brute = -w1p * sum(math.log(v) for v in r)
                assert_allclose(loss.data, brute, rtol=1e-12)


class TestPermutationInvariance:
    def test_all_heads_and_inference(self):
        rng = np.random.default_rng(105)
        r = rng.uniform(0.05, 0.95, size=8)
        base = None
        for trial in range(6):
            perm = rng.permutation(8)
            z = bag_from(r[perm])
            vals = (
                head_loss("max_pool", z, 1, UNIT).data.item(),
                head_loss("label_assign", z, 1, UNIT, k=3).data.item(),
                head_loss("label_assign", z, 0, UNIT, k=3).data.item(),
                head_loss("sparse", z, 1, UNIT, mu=0.02).data.item(),
                float(ad.sigmoid(z).data.max()),  # inference: the top response
            )
            if base is None:
                base = vals
            else:
                assert vals == base


class TestGradientStructure:
    """Gradients with respect to the logits: d(-log sigmoid(z))/dz =
    -(1 - r) and d(-log(1 - sigmoid(z)))/dz = r for response r."""

    def test_max_pool_touches_only_argmax(self):
        raw = bag_from((0.2, 0.8, 0.5, 0.1))
        loss = head_loss("max_pool", raw, 1, UNIT)
        loss.backward()
        assert raw.grad[0, 1] != 0.0
        assert raw.grad[0, 0] == raw.grad[0, 2] == raw.grad[0, 3] == 0.0
        # -(1 - r) at the top response
        assert_allclose(raw.grad[0, 1], -(1.0 - 0.8), rtol=1e-12)

    def test_max_pool_ties_go_to_the_smaller_index(self):
        raw = Tensor(np.array([[0.5, 0.7, 0.5, 0.7]]), requires_grad=True)
        head_loss("max_pool", raw, 1, UNIT).backward()
        assert raw.grad[0, 1] != 0.0
        assert raw.grad[0, 0] == raw.grad[0, 2] == raw.grad[0, 3] == 0.0

    def test_label_assign_touches_all(self):
        raw = bag_from((0.2, 0.8, 0.5, 0.1))
        loss = head_loss("label_assign", raw, 1, UNIT, k=2)
        loss.backward()
        assert (raw.grad != 0.0).all()
        # top-2 pulled up (negative gradient), tail pushed down (positive)
        assert raw.grad[0, 1] < 0 and raw.grad[0, 2] < 0
        assert raw.grad[0, 0] > 0 and raw.grad[0, 3] > 0

    def test_sparse_touches_all(self):
        raw = bag_from((0.2, 0.8, 0.5, 0.1))
        loss = head_loss("sparse", raw, 1, UNIT, mu=0.05)
        loss.backward()
        assert (raw.grad != 0.0).all()
        # mu * r * (1 - r) from the response sum on every cell
        assert_allclose(raw.grad[0, 1], -(1.0 - 0.8) + 0.05 * 0.8 * 0.2, rtol=1e-12)
        assert_allclose(raw.grad[0, 0], 0.05 * 0.2 * 0.8, rtol=1e-12)

    def test_loss_decreases_as_top_response_rises(self):
        for top in (0.6, 0.7, 0.8, 0.9):
            lo = head_loss("max_pool", bag_from((top - 0.05, 0.1)), 1, UNIT)
            hi = head_loss("max_pool", bag_from((top, 0.1)), 1, UNIT)
            assert hi.data < lo.data


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
        z = Tensor(np.array([[20.0, 0.0, -1.0, 1.0]]), requires_grad=True)
        loss = bag_loss(cfg, z, [0], self.W)
        assert np.isfinite(loss.data)
        loss.backward()
        assert np.isfinite(z.grad).all()
        assert z.grad[0, 0] > 0.1

    def test_max_pool_value_and_gradient(self):
        z = Tensor(np.array([[20.0, 0.0, -1.0, 1.0]]), requires_grad=True)
        loss = head_loss("max_pool", z, 0, self.W)
        # -w0 log(1 - sigmoid(20)) = w0 * (20 + log(1 + e^-20))
        assert_allclose(loss.data, 0.2 * (20.0 + math.log1p(math.exp(-20.0))),
                        rtol=1e-12)
        loss.backward()
        assert_allclose(z.grad[0, 0], 0.2 / (1.0 + math.exp(-20.0)), rtol=1e-12)
        assert z.grad[0, 1] == z.grad[0, 2] == z.grad[0, 3] == 0.0


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
            vals[name] = bag_loss(cfg, bag_from(r), [1], w).data.item()
        assert_allclose(vals["max_pool"], -math.log(0.8), rtol=1e-12)
        assert_allclose(vals["label_assign"],
                        label_assign_oracle(r, 1, 2, 0.25, 0.75), rtol=1e-12)
        assert_allclose(vals["sparse"], -math.log(0.8) + 0.01 * 1.6, rtol=1e-12)

    def test_bag_loss_has_no_l2(self):
        cfg = MilConfig(head="max_pool", lam=10.0)
        loss = bag_loss(cfg, bag_from((0.4, 0.2)), [1], UNIT)
        assert_allclose(loss.data, -math.log(0.4), rtol=1e-12)



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
            bag_loss(MilConfig(), Tensor(np.zeros(4)), [1], UNIT)
