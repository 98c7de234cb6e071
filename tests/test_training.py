"""Adam updates, the training loop, k selection, and checkpoint bytes."""

import contextlib
import hashlib
import io
import math
import multiprocessing
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import milnet.training as training
from milnet import _forked, _kernels
from milnet import autodiff as ad
from milnet.autodiff import Tensor
from milnet.config import TrainConfig
from milnet.heads import MilConfig, bag_weights
from milnet.model import (
    BackboneSpec,
    ModelParams,
    backbone_preset,
    init_params,
    output_geometry,
    params_to_leaves,
)
from milnet.training import (
    CHECKPOINT_MAGIC,
    EpochMetrics,
    TrainResult,
    TrainState,
    adam_step,
    bag_scores,
    init_state,
    load_checkpoint,
    metrics_csv,
    prepare_inputs,
    save_checkpoint,
    score_images,
    select_k,
    train,
)

TINY = BackboneSpec(input_size=16, layers=(
    ("conv", 4, 3, 2, 1), ("relu",), ("pool", 2, 2)))


def tiny_config(**kw):
    defaults = dict(backbone=TINY, epochs=2, batch_size=4, seed=3,
                    augment_enabled=False)
    defaults.update(kw)
    return TrainConfig(**defaults)


def tiny_images(n=8, seed=0):
    rng = np.random.default_rng(seed)
    images = [rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
              for _ in range(n)]
    labels = np.array([i % 2 for i in range(n)])
    return images, labels


def tiny_inputs(n=8, seed=0):
    """tiny_images as the network inputs train takes, with their labels."""
    images, labels = tiny_images(n, seed)
    return prepare_inputs(images, tiny_config()), labels


def adam_oracle(arrays, grad_seq, lr, beta1, beta2, eps):
    """Straight transcription of bias-corrected Adam, kept separate from the
    implementation under test; returns the parameters and both moments."""
    params = {k: a.copy() for k, a in arrays.items()}
    m = {k: np.zeros_like(a) for k, a in arrays.items()}
    v = {k: np.zeros_like(a) for k, a in arrays.items()}
    for t, grads in enumerate(grad_seq, start=1):
        for k in params:
            g = grads[k]
            m[k] = beta1 * m[k] + (1 - beta1) * g
            v[k] = beta2 * v[k] + (1 - beta2) * g * g
            m_hat = m[k] / (1 - beta1**t)
            v_hat = v[k] / (1 - beta2**t)
            params[k] = params[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return params, m, v


def unblocked_adam_step(state, grads, lr, beta1, beta2, eps):
    """adam_step as it was before it went by blocks: each tensor at once,
    with two scratch arrays of its size."""
    t = state.step + 1
    for name, arr in state.params.arrays.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        s1, s2 = np.empty_like(arr), np.empty_like(arr)
        m *= beta1
        m += np.multiply(1.0 - beta1, g, out=s1)
        v *= beta2
        np.multiply(1.0 - beta2, g, out=s1)
        v += np.multiply(s1, g, out=s1)
        m_hat = np.divide(m, 1.0 - beta1**t, out=s1)
        v_hat = np.divide(v, 1.0 - beta2**t, out=s2)
        denom = np.add(np.sqrt(v_hat, out=s2), eps, out=s2)
        arr -= np.divide(np.multiply(lr, m_hat, out=s1), denom, out=s1)
    state.step = t


def state_from(arrays):
    params = ModelParams(TINY, {k: a.copy() for k, a in arrays.items()})
    return init_state(params)


class TestAdamStep:
    def test_first_step_unit_gradient(self):
        arrays = {"w": np.zeros(3)}
        state = state_from(arrays)
        adam_step(state, {"w": np.ones(3)}, lr=1e-3)
        # m_hat = 1, v_hat = 1 regardless of the betas, so the move is
        # exactly -lr / (1 + eps)
        assert_allclose(state.params.arrays["w"], -1e-3 / (1.0 + 1e-8),
                        rtol=1e-15)
        assert_allclose(state.params.arrays["w"], -0.000999999990, atol=1e-12)
        assert state.step == 1

    def test_matches_oracle_over_random_sequence(self):
        rng = np.random.default_rng(50)
        arrays = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=4)}
        lr, beta1, beta2, eps = 0.01, 0.85, 0.99, 1e-7
        grad_seq = [
            {k: rng.normal(size=a.shape) for k, a in arrays.items()}
            for _ in range(20)
        ]
        state = state_from(arrays)
        for grads in grad_seq:
            adam_step(state, grads, lr=lr, beta1=beta1, beta2=beta2, eps=eps)
        expected, _, _ = adam_oracle(arrays, grad_seq, lr, beta1, beta2, eps)
        for k in arrays:
            assert_allclose(state.params.arrays[k], expected[k], rtol=1e-12)
        assert state.step == 20

    @pytest.mark.parametrize("preset", ["desk", "paper"])
    def test_bitwise_equal_to_the_textbook_expression(self, preset):
        # every parameter of a preset, the 0-d response bias included, with
        # exact zeros and signed zeros among the gradients, over 3 steps
        arrays = init_params(backbone_preset(preset), seed=4).arrays
        rng = np.random.default_rng(51)
        grad_seq = []
        for _ in range(3):
            grads = {}
            for k, a in arrays.items():
                g = rng.normal(size=a.shape) * 1e-3
                g = np.where(rng.random(size=a.shape) < 0.1, 0.0, g)
                grads[k] = np.where(rng.random(size=a.shape) < 0.1, -0.0, g)
            grad_seq.append(grads)
        state = state_from(arrays)
        for grads in grad_seq:
            adam_step(state, grads, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8)
        want = adam_oracle(arrays, grad_seq, 1e-4, 0.9, 0.999, 1e-8)
        for got, expected in zip((state.params.arrays, state.m, state.v), want):
            for k in arrays:
                assert got[k].shape == expected[k].shape, k
                assert got[k].tobytes() == expected[k].tobytes(), k

    @pytest.mark.parametrize("split", [False, True])
    def test_blocked_bytes_match_the_unblocked_update(self, split, op_pool, monkeypatch):
        # sizes around the block and the paper conv kernels' sizes, with
        # exact and signed zeros among the gradients, after steps 1 and 3;
        # split, every tensor is shared by two threads
        op_pool(1)
        if split:
            monkeypatch.setattr(_kernels, "_SPLIT_MIN_ELEMENTS", 1)
        block = _kernels.ELEMENT_BLOCK
        sizes = [1, block - 1, block, block + 1, 2 * block + 3]
        paper = init_params(backbone_preset("paper"), seed=4).arrays
        rng = np.random.default_rng(52)
        arrays = {f"s{size}": rng.normal(size=size) for size in sizes}
        arrays.update(paper)
        state = state_from(arrays)
        want = state_from(arrays)
        for step in range(1, 4):
            grads = {}
            for k, a in arrays.items():
                g = rng.normal(size=a.shape) * 1e-3
                g = np.where(rng.random(size=a.shape) < 0.1, 0.0, g)
                grads[k] = np.where(rng.random(size=a.shape) < 0.1, -0.0, g)
            adam_step(state, grads, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8)
            unblocked_adam_step(want, grads, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8)
            if step in (1, 3):
                for got, expected in ((state.params.arrays, want.params.arrays),
                                      (state.m, want.m), (state.v, want.v)):
                    for k in arrays:
                        assert got[k].tobytes() == expected[k].tobytes(), (step, k)
        assert state.step == want.step == 3

    def test_non_contiguous_parameter_raises_before_any_update(self):
        # a transposed view cannot be updated through flat blocks: nothing
        # is updated, not even the parameter before it
        arrays = {"a": np.ones(3), "w": np.arange(6.0).reshape(2, 3).T}
        state = init_state(ModelParams(TINY, dict(arrays)))
        before = state.copy()
        grads = {k: np.ones(a.shape) for k, a in arrays.items()}
        with pytest.raises(ValueError, match="'w'.*C-contiguous"):
            adam_step(state, grads)
        assert state.step == 0
        for got, expected in ((state.params.arrays, before.params.arrays),
                              (state.m, before.m), (state.v, before.v)):
            for k in arrays:
                assert got[k].tobytes() == expected[k].tobytes(), k
        assert_array_equal(arrays["w"], np.arange(6.0).reshape(2, 3).T)

    def test_eps_sits_outside_the_sqrt(self):
        # with a tiny first gradient the denominator is |g| + eps, which is
        # very different from sqrt(g^2 + eps)
        g = 1e-12
        arrays = {"w": np.zeros(1)}
        state = state_from(arrays)
        adam_step(state, {"w": np.full(1, g)}, lr=1.0, eps=1e-8)
        expected = -g / (g + 1e-8)
        assert_allclose(state.params.arrays["w"], expected, rtol=1e-12)

    def test_zero_gradient_leaves_params(self):
        arrays = {"w": np.array([1.0, -2.0])}
        state = state_from(arrays)
        adam_step(state, {"w": np.zeros(2)})
        assert_array_equal(state.params.arrays["w"], [1.0, -2.0])

    def test_missing_gradient_errors(self):
        state = state_from({"w": np.zeros(2), "b": np.zeros(1)})
        with pytest.raises(ValueError, match="missing gradient"):
            adam_step(state, {"w": np.zeros(2)})

    def test_shape_mismatch_errors(self):
        state = state_from({"w": np.zeros(2)})
        with pytest.raises(ValueError, match="shape"):
            adam_step(state, {"w": np.zeros(3)})

    def test_init_state_zeros_moments(self):
        state = state_from({"w": np.ones(3)})
        assert not state.m["w"].any()
        assert not state.v["w"].any()
        assert state.step == 0

    def test_state_copy_is_independent(self):
        state = state_from({"w": np.ones(2)})
        clone = state.copy()
        adam_step(state, {"w": np.ones(2)})
        assert_array_equal(clone.params.arrays["w"], [1.0, 1.0])
        assert clone.step == 0


class TestTrainLoop:
    def test_runs_and_logs_every_epoch(self):
        inputs, labels = tiny_inputs()
        cfg = tiny_config(epochs=3)
        result = train(inputs, labels, inputs, labels, cfg)
        assert len(result.metrics) == 3
        assert [m.epoch for m in result.metrics] == [1, 2, 3]
        for m in result.metrics:
            assert np.isfinite(m.train_loss)
            assert 0.0 <= m.val_auc <= 1.0
            assert 0.0 <= m.val_acc <= 1.0
        assert result.best_val_auc == max(m.val_auc for m in result.metrics)
        assert result.best_epoch == min(
            m.epoch for m in result.metrics if m.val_auc == result.best_val_auc
        )

    @pytest.mark.parametrize("head", ["max_pool", "sparse"])
    def test_heads_without_k_train_on_a_one_cell_backbone(self, head):
        # k (4 by default) applies to label_assign alone, so it need not fit
        # a backbone whose response map has a single cell
        one_cell = BackboneSpec.parse("input:16,conv:4:3:2:1,relu,pool:8:8")
        assert output_geometry(one_cell)[1:] == (1, 1)
        inputs, labels = tiny_inputs()
        cfg = tiny_config(backbone=one_cell, mil=MilConfig(head=head))
        result = train(inputs, labels, inputs, labels, cfg)
        assert [m.epoch for m in result.metrics] == [1, 2]
        assert all(np.isfinite(m.train_loss) for m in result.metrics)

    def test_bitwise_deterministic(self):
        inputs, labels = tiny_inputs()
        cfg = tiny_config(epochs=2, augment_enabled=True)
        a = train(inputs, labels, inputs, labels, cfg)
        b = train(inputs, labels, inputs, labels, cfg)
        for name in a.state.params.names():
            assert_array_equal(a.state.params.arrays[name],
                               b.state.params.arrays[name])
        assert [m.train_loss for m in a.metrics] == [m.train_loss for m in b.metrics]

    def test_best_epoch_before_the_last_keeps_its_parameters(self, monkeypatch):
        # the last epoch's state is returned uncopied when it is the best;
        # an earlier best epoch must still come back as it was then
        inputs, labels = tiny_inputs()
        once = train(inputs, labels, inputs, labels, tiny_config(epochs=1))
        aucs = iter([0.75, 0.5])
        monkeypatch.setattr(training, "auc", lambda *args: next(aucs))
        twice = train(inputs, labels, inputs, labels, tiny_config(epochs=2))
        assert twice.best_epoch == 1 and twice.best_val_auc == 0.75
        assert twice.state.step == once.state.step
        for got, want in ((twice.state.params.arrays, once.state.params.arrays),
                          (twice.state.m, once.state.m), (twice.state.v, once.state.v)):
            for name in want:
                assert got[name].tobytes() == want[name].tobytes(), name

    def test_seed_changes_the_run(self):
        inputs, labels = tiny_inputs()
        a = train(inputs, labels, inputs, labels, tiny_config(seed=1))
        b = train(inputs, labels, inputs, labels, tiny_config(seed=2))
        assert any(
            not np.array_equal(a.state.params.arrays[n], b.state.params.arrays[n])
            for n in a.state.params.names()
        )

    def test_single_class_training_set_rejected(self):
        inputs, labels = tiny_inputs()
        with pytest.raises(ValueError, match="single class"):
            train(inputs, np.zeros(len(inputs), dtype=int),
                  inputs, labels, tiny_config())

    def test_single_class_validation_set_rejected_before_compute(self, monkeypatch):
        import milnet.model as model

        def no_forward(*args, **kwargs):
            raise AssertionError("forward pass ran before the label check")

        monkeypatch.setattr(training, "forward_backbone", no_forward)
        monkeypatch.setattr(model, "forward_backbone", no_forward)
        inputs, labels = tiny_inputs()
        with pytest.raises(ValueError, match="validation set has a single class"):
            train(inputs, labels, inputs, np.ones(len(inputs), dtype=int),
                  tiny_config())

    @pytest.mark.parametrize("which, bad, message", [
        ("training", [0, 1, 0, 1, 0, 1, 0, 0.5], r"training label 0\.5 at index 7 "),
        ("training", [0, 1, 0, 2, 0, 1, 0, 1], "training label 2 at index 3 "),
        ("validation", [0, 1, 0, 1, 0, 1, 0, 0.5], r"validation label 0\.5 at index 7 "),
    ])
    def test_labels_other_than_0_or_1_rejected_before_any_step(
        self, which, bad, message, monkeypatch
    ):
        # read as given, not cast first: a 0.5 is not taken as 0, and a 2 is
        # not left for the loss of the first batch that holds it
        def no_objective(*args, **kwargs):
            raise AssertionError("a training step ran before the label check")

        monkeypatch.setattr(training, "batch_objective", no_objective)
        inputs, labels = tiny_inputs()
        train_labels, val_labels = (bad, labels) if which == "training" else (labels, bad)
        with pytest.raises(ValueError, match=message + "is not 0 or 1"):
            train(inputs, train_labels, inputs, val_labels, tiny_config())

    def test_empty_sets_rejected(self):
        inputs, labels = tiny_inputs()
        with pytest.raises(ValueError):
            train([], np.array([]), inputs, labels, tiny_config())
        with pytest.raises(ValueError):
            train(inputs, labels, [], np.array([]), tiny_config())

    def test_misaligned_labels_rejected(self):
        inputs, labels = tiny_inputs()
        with pytest.raises(ValueError):
            train(inputs, labels[:-1], inputs, labels, tiny_config())

    def test_warm_start_override_is_used(self):
        inputs, labels = tiny_inputs()
        cfg = tiny_config(epochs=1, learning_rate=1e-30)
        params = init_params(TINY, seed=99)
        marker = params.copy()
        result = train(inputs, labels, inputs, labels, cfg,
                       init_state_override=init_state(params))
        # a vanishing lr pins the run to the warm-start parameters, which
        # are nowhere near what cfg.seed would have initialized
        cold = init_params(TINY, seed=cfg.seed)
        for name in marker.names():
            assert_allclose(result.state.params.arrays[name],
                            marker.arrays[name], atol=1e-20)
        assert any(
            not np.allclose(marker.arrays[n], cold.arrays[n], atol=1e-3)
            for n in marker.names()
        )

    def test_warm_start_for_another_backbone_rejected_before_compute(
        self, monkeypatch
    ):
        def no_objective(*args, **kwargs):
            raise AssertionError("a training step ran before the backbone check")

        monkeypatch.setattr(training, "batch_objective", no_objective)
        inputs, labels = tiny_inputs()
        wider = BackboneSpec(input_size=16, layers=(
            ("conv", 8, 3, 2, 1), ("relu",), ("pool", 2, 2)))
        warm = init_state(init_params(wider, seed=0))
        with pytest.raises(ValueError, match="warm-start parameters are for backbone "
                           "input:16,conv:8:3:2:1"):
            train(inputs, labels, inputs, labels, tiny_config(),
                  init_state_override=warm)

    def test_raw_images_rejected_naming_the_index(self, monkeypatch):
        def no_objective(*args, **kwargs):
            raise AssertionError("a training step ran before the input check")

        monkeypatch.setattr(training, "batch_objective", no_objective)
        images, labels = tiny_images()
        inputs = prepare_inputs(images, tiny_config())
        # raw uint8 images at the right size: a caller of the old signature
        with pytest.raises(ValueError, match=r"training input 0 is a uint8 array "
                           r"of shape \(16, 16\)"):
            train(images, labels, inputs, labels, tiny_config())
        mixed = list(inputs)
        mixed[3] = images[3]
        with pytest.raises(ValueError, match="validation input 3 is a uint8"):
            train(inputs, labels, mixed, labels, tiny_config())

    @pytest.mark.parametrize("bad", [
        np.zeros((16, 15)), np.zeros((8, 8)), np.zeros((1, 16, 16)),
        np.zeros((16, 16), dtype=np.int64),
    ], ids=["not_square", "wrong_side", "three_d", "integer"])
    def test_malformed_inputs_rejected_naming_the_index(self, bad, monkeypatch):
        def no_objective(*args, **kwargs):
            raise AssertionError("a training step ran before the input check")

        monkeypatch.setattr(training, "batch_objective", no_objective)
        inputs, labels = tiny_inputs()
        inputs[5] = bad
        with pytest.raises(ValueError, match="training input 5 .*side 16"):
            train(inputs, labels, inputs[:4], labels[:4], tiny_config())

    def test_prepared_inputs_are_read_only_and_left_unchanged(self):
        inputs, labels = tiny_inputs()
        assert not any(x.flags.writeable for x in inputs)
        before = [x.copy() for x in inputs]
        train(inputs, labels, inputs, labels,
              tiny_config(epochs=1, augment_enabled=True))
        for x, y in zip(inputs, before):
            assert x.tobytes() == y.tobytes()

    def test_loss_decreases_on_easy_data(self):
        rng = np.random.default_rng(7)
        images = []
        labels = []
        for i in range(8):
            img = rng.integers(0, 40, size=(16, 16)).astype(np.uint8)
            if i % 2:
                img[4:12, 4:12] = 220
            images.append(img)
            labels.append(i % 2)
        cfg = tiny_config(epochs=12, seed=5)
        inputs = prepare_inputs(images, cfg)
        result = train(inputs, np.array(labels), inputs, np.array(labels), cfg)
        assert result.metrics[-1].train_loss < result.metrics[0].train_loss


class TestSelectK:
    def test_requires_label_assign(self):
        inputs, labels = tiny_inputs()
        with pytest.raises(ValueError, match="label_assign"):
            select_k(inputs, labels, inputs, labels, tiny_config())

    def test_grid_k_must_fit_m(self):
        inputs, labels = tiny_inputs()
        cfg = tiny_config(mil=MilConfig(head="label_assign", k=2),
                          k_grid=(2, 64))
        with pytest.raises(ValueError, match="exceeds"):
            select_k(inputs, labels, inputs, labels, cfg)

    def test_best_val_auc_wins_ties_to_smaller_k(self, monkeypatch):
        cfg = tiny_config(mil=MilConfig(head="label_assign", k=2),
                          k_grid=(2, 4, 8))
        seen = []
        scripted = {2: 0.7, 4: 0.9, 8: 0.9}

        def fake_train(tr_i, tr_l, va_i, va_l, run_cfg, log=None,
                       init_state_override=None):
            seen.append(run_cfg.mil.k)
            return TrainResult(
                state=init_state(init_params(TINY, seed=run_cfg.mil.k)),
                config=run_cfg,
                metrics=[EpochMetrics(1, 1.0, scripted[run_cfg.mil.k], 0.5)],
                best_epoch=1,
                best_val_auc=scripted[run_cfg.mil.k],
            )

        monkeypatch.setattr(training, "train", fake_train)
        inputs, labels = tiny_inputs()
        best_k, result = select_k(inputs, labels, inputs, labels, cfg)
        assert seen == [2, 4, 8]
        assert best_k == 4  # 8 only matches, never beats
        assert result.best_val_auc == 0.9
        assert result.config.mil.k == 4

    def test_real_grid_run(self):
        inputs, labels = tiny_inputs()
        cfg = tiny_config(epochs=1, k_grid=(1, 4),
                          mil=MilConfig(head="label_assign", k=1))
        best_k, result = select_k(inputs, labels, inputs, labels, cfg)
        assert best_k in (1, 4)
        assert result.config.mil.k == best_k


def _graph_nodes(root) -> int:
    """Op nodes (tensors with a backward closure) reachable from root."""
    seen, stack, count = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += node._backward_fn is not None
        stack.extend(node._parents)
    return count


class TestGraphSize:
    """One training step builds one graph path for the whole batch: the node
    count does not grow with the batch.  A desk step builds 8 nodes for
    every head: 3 conv, each with its relu, 1 pool, the response layer and
    its reshape, the L2 norm and the objective; 7 without L2."""

    @pytest.mark.parametrize("lam, nodes", [(1e-5, 8), (0.0, 7)])
    @pytest.mark.parametrize("head", ["max_pool", "label_assign", "sparse"])
    def test_node_count_independent_of_batch_size(self, head, lam, nodes, monkeypatch):
        counts = []
        backward = training.Tensor.backward

        def counting_backward(self):
            counts.append(_graph_nodes(self))
            return backward(self)

        monkeypatch.setattr(training.Tensor, "backward", counting_backward)
        rng = np.random.default_rng(7)
        images = [rng.integers(0, 256, (64, 64)).astype(np.uint8) for _ in range(8)]
        inputs = prepare_inputs(images, TrainConfig())
        labels = np.array([1, 0] * 4)
        for batch in (2, 8):
            cfg = TrainConfig(epochs=1, batch_size=batch, seed=1,
                              augment_enabled=False,
                              mil=MilConfig(head=head, k=2, mu=1e-3, lam=lam))
            train(inputs, labels, inputs[:4], labels[:4], cfg)
        assert len(counts) == 4 + 1  # four steps at batch 2, one at batch 8
        assert counts == [nodes] * 5, counts

    def test_paper_step_node_count(self):
        # 5 conv, each with its relu, 3 pool, the response layer and its
        # reshape, the L2 norm and the objective
        _, objective = batch8_step("paper")
        assert _graph_nodes(objective()) == 12


def batch8_step(preset: str = "paper", head: str = "max_pool"):
    """(leaves, objective thunk) of one training step at batch 8."""
    cfg = TrainConfig(backbone=backbone_preset(preset), mil=MilConfig(head=head))
    leaves = params_to_leaves(init_params(cfg.backbone, seed=2))
    rng = np.random.default_rng(8)
    size = cfg.backbone.input_size
    x = Tensor(rng.uniform(size=(cfg.batch_size, 1, size, size)))
    labels = np.arange(cfg.batch_size) % 2
    _, gh, gw = output_geometry(cfg.backbone)
    weights = bag_weights(cfg.batch_size // 2, cfg.batch_size, cfg.mil.k,
                          gh * gw, mode=cfg.mil.weight_mode)
    return leaves, lambda: training.batch_objective(cfg, weights, leaves, x, labels)


class TestStepMemory:
    @staticmethod
    def forward_and_backward_memory() -> tuple[int, int]:
        """tracemalloc bytes a paper-preset step at batch 8 holds after its
        forward, and its peak during backward."""
        _, objective = batch8_step()
        tracemalloc.start()
        try:
            total = objective()
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            total.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return held, peak

    def test_paper_step_holds_only_leaf_gradients_after_backward(self):
        # backward releases the graph as it goes: of all a paper-preset step
        # allocates, only the parameter gradients outlive it
        leaves, objective = batch8_step()
        tracemalloc.start()
        try:
            objective().backward()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        grads = sum(leaf.grad.nbytes for leaf in leaves.values())
        assert held <= grads + 2**20, (held, grads)

    def test_paper_step_keeps_no_column_matrix(self):
        # the paper layers keep only their float32 padded inputs for the
        # kernel gradient, not their 85 MiB of im2col columns: 164.8 MiB
        # after forward and a 174.5 MiB backward peak when they were kept
        held, peak = self.forward_and_backward_memory()
        assert held <= 100 * 2**20, held / 2**20
        assert peak <= 125 * 2**20, peak / 2**20

    def test_paper_step_keeps_no_activation(self):
        # forward_backbone drops every paper activation once the next layer
        # is built, and relu keeps a one-byte mask: 88.6 MiB after forward
        # and a 113.5 MiB backward peak when the float64 conv, relu and pool
        # outputs were kept
        held, peak = self.forward_and_backward_memory()
        assert held <= 35 * 2**20, held / 2**20
        assert peak <= 70 * 2**20, peak / 2**20


class TestDroppedActivations:
    @pytest.mark.parametrize("preset", ["paper", "desk"])
    def test_loss_and_gradients_match_a_graph_that_keeps_them(self, preset, layer_rules):
        # one SHA-256 over the loss and every parameter gradient of the three
        # heads at batch 8, with every conv regathering its columns and every
        # interior activation dropped (at batch 8 the default rule does so on
        # every paper layer and no desk one) and with none doing either
        def digest() -> str:
            h = hashlib.sha256()
            for head in ("max_pool", "label_assign", "sparse"):
                leaves, objective = batch8_step(preset, head)
                total = objective()
                total.backward()
                h.update(total.data.tobytes())
                for name in sorted(leaves):
                    h.update(leaves[name].grad.tobytes())
            return h.hexdigest()

        layer_rules("_REGATHER_MIN_COLS", 0)
        dropped = digest()
        layer_rules("_REGATHER_MIN_COLS", math.inf)
        assert digest() == dropped


class TestBagScores:
    # 11 inputs: one full inference batch and a partial one; each score must
    # equal the top of the image's own response grid, forwarded on its own
    def test_max_of_response_grid(self):
        from milnet.model import response_grid
        params = init_params(TINY, seed=4)
        rng = np.random.default_rng(5)
        inputs = [rng.uniform(0, 1, size=(16, 16)) for _ in range(11)]
        scores = bag_scores(params, inputs)
        expected = [response_grid(params, x).max() for x in inputs]
        assert_allclose(scores, expected, rtol=0, atol=0)
        assert ((scores > 0) & (scores < 1)).all()

    def test_max_of_response_grid_paper_preset(self):
        from milnet.model import backbone_preset, response_grid
        params = init_params(backbone_preset("paper"), seed=4)
        rng = np.random.default_rng(6)
        inputs = [rng.uniform(0, 1, size=(224, 224)) for _ in range(11)]
        scores = bag_scores(params, inputs)
        expected = [response_grid(params, x).max() for x in inputs]
        assert_allclose(scores, expected, rtol=0, atol=0)


# 43 desk images with threshold and op budget forced low: the killed shard's
# process exits at once, without raising
_KILLED_SHARD = '''
import multiprocessing, os
import numpy as np
import milnet._kernels as kernels
import milnet.model as model
import milnet.training as training
from milnet.config import TrainConfig

params = model.init_params(model.PRESETS["desk"], seed=1)
rng = np.random.default_rng(2)
images = [rng.integers(0, 256, (64, 64)).astype(np.uint8) for _ in range(43)]
training._SHARD_MIN_IMAGES = 0
kernels._pool_workers = 1
real = training.response_grids

def dying(params, images):
    if len(images) == 19:
        os._exit(1)
    return real(params, images)

training.response_grids = dying
try:
    training.score_images([(params, TrainConfig())], images)
except RuntimeError as exc:
    print("raised:", exc)
print("children left:", len(multiprocessing.active_children()))
'''


class TestShardedScoring:
    """score_images shares its images between forked processes, each of
    which prepares and scores its own run: the scores are the serial ones
    bit for bit, failures name the image range, no process outlives the
    call, and each shard keeps its share of the CPUs for op threads."""

    def _record_shards(self, monkeypatch, tmp_path):
        """Make every inference run write its process, parent, image count,
        op-thread setting and input side to a file under tmp_path; returns a
        reader."""
        real = training.response_grids

        def recording(params, inputs):
            side = params.spec.input_size
            (tmp_path / f"run_{os.getpid()}_{len(inputs)}_{side}").write_text(
                f"{os.getpid()} {os.getppid()} {len(inputs)} {_kernels._pool_workers} {side}")
            return real(params, inputs)

        monkeypatch.setattr(training, "response_grids", recording)

        def runs():
            found = [p.read_text().split() for p in tmp_path.glob("run_*")]
            for p in tmp_path.glob("run_*"):
                p.unlink()
            return sorted([int(v) for v in r] for r in found)

        return runs

    @staticmethod
    def raw_images(n, size, seed=6):
        rng = np.random.default_rng(seed)
        return [rng.integers(0, 256, (size, size)).astype(np.uint8) for _ in range(n)]

    @pytest.mark.parametrize("preset,n_images", [("desk", 43), ("paper", 17)])
    def test_scores_match_serial(self, shard_inference, monkeypatch, tmp_path,
                                 preset, n_images):
        # the last batch is partial; at the paper preset 3 shares get one
        # batch each
        cfg = TrainConfig(backbone=backbone_preset(preset), preprocess="full")
        models = [(init_params(cfg.backbone, seed=5), cfg)]
        images = self.raw_images(n_images, cfg.backbone.input_size)
        runs = self._record_shards(monkeypatch, tmp_path)
        for scope in (contextlib.nullcontext, ad.float64_gemms):
            shard_inference(0)
            with scope():
                (want,) = score_images(models, images)
            assert [r[2] for r in runs()] == [n_images]
            for extra in (1, 2):
                shard_inference(extra)
                with scope():
                    (scores,) = score_images(models, images)
                assert scores.tobytes() == want.tobytes(), (preset, extra)
                shards = runs()
                assert len(shards) == extra + 1
                assert sum(r[2] for r in shards) == n_images
                assert all(r[0] != os.getpid() and r[1] == os.getpid() for r in shards)

    def test_failing_shard_raises_naming_its_images(self, shard_inference, monkeypatch):
        models = [(init_params(backbone_preset("desk"), seed=5), TrainConfig())]
        images = self.raw_images(43, 64)
        real = training.response_grids

        def failing(params, inputs):
            if len(inputs) == 11:
                raise ValueError("planted failure")
            return real(params, inputs)

        monkeypatch.setattr(training, "response_grids", failing)
        shard_inference(2)
        with pytest.raises(RuntimeError, match="images 32-42 failed: planted failure"):
            score_images(models, images)
        assert multiprocessing.active_children() == []
        assert _forked._job is None

    def test_killed_shard_raises_instead_of_hanging(self):
        import milnet

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(Path(milnet.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", _KILLED_SHARD],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        raised, left = proc.stdout.splitlines()
        # a broken pool fails every unfinished shard; the first is named
        assert re.fullmatch(r"raised: images (0-23|24-42) failed: .*terminated abruptly.*",
                            raised)
        assert left == "children left: 0"

    def test_shards_share_the_cpus_with_op_threads(self, shard_inference, monkeypatch,
                                                   tmp_path):
        models = [(init_params(backbone_preset("desk"), seed=5), TrainConfig())]
        images = self.raw_images(43, 64)
        runs = self._record_shards(monkeypatch, tmp_path)
        cpus = len(os.sched_getaffinity(0))
        for extra in (1, 2):
            shard_inference(extra)
            score_images(models, images)
            shards = runs()
            assert len(shards) == extra + 1
            for shard in shards:
                assert shard[3] == max(0, cpus // (extra + 1) - 1)
        assert _kernels._pool_workers == 2

    def test_cv_fold_processes_do_not_shard(self, shard_inference, monkeypatch, tmp_path):
        from milnet.cv import cross_validate

        images = self.raw_images(10, 16, seed=0)
        cfg = TrainConfig(backbone=BackboneSpec.parse("input:16,conv:2:3:2:1,relu"),
                          epochs=1, batch_size=4, seed=3, augment_enabled=False)
        (tmp_path / "runs").mkdir()
        runs = self._record_shards(monkeypatch, tmp_path / "runs")
        shard_inference(1)
        cross_validate(images, np.array([0, 1] * 5), cfg, str(tmp_path / "cv"), workers=2)
        # validation and test scoring ran in the fold processes themselves,
        # never in a process forked by one
        scored = runs()
        assert scored
        assert all(r[0] != os.getpid() and r[1] == os.getpid() for r in scored)

    @pytest.fixture
    def manifest(self, tmp_path):
        from milnet.data import SynthSpec, generate_synthetic

        # 20 images: 3 batches, shared out as 8 + 12 images over 2 shards
        return generate_synthetic(SynthSpec(n_pos=8, n_neg=12, seed=9),
                                  str(tmp_path / "data"))

    def test_bag_of_two_input_sizes_matches_serial(self, shard_inference, monkeypatch,
                                                   tmp_path, manifest):
        from milnet.cli import main

        ckpts = []
        for text, seed in (("input:64,conv:4:5:2:2,relu,pool:2:2", 11),
                           ("input:32,conv:4:3:2:1,relu,pool:2:2", 12)):
            cfg = TrainConfig(backbone=BackboneSpec.parse(text), seed=seed)
            ckpts.append(str(tmp_path / f"m{seed}.miln"))
            save_checkpoint(ckpts[-1], init_state(init_params(cfg.backbone, seed)), cfg)
        runs = self._record_shards(monkeypatch, tmp_path)
        scores = []
        for extra, counts in ((0, [20]), (1, [8, 12])):
            shard_inference(extra)
            out = tmp_path / f"bag_{extra}"
            assert main(["bag", "--ckpts", *ckpts, "--data", manifest,
                         "--out", str(out)]) == 0
            scores.append((out / "scores.csv").read_bytes())
            # each shard scored its run once with each model, at its size
            seen = runs()
            assert sorted((r[2], r[4]) for r in seen) == sorted(
                (n, side) for n in counts for side in (32, 64))
            assert all((r[0] != os.getpid()) == (extra > 0) for r in seen)
        assert scores[1] == scores[0]

    def test_failing_preparation_exits_2_naming_its_images(
            self, shard_inference, monkeypatch, tmp_path, manifest, capsys):
        from milnet.cli import main

        cfg = TrainConfig()
        ckpt = str(tmp_path / "m.miln")
        save_checkpoint(ckpt, init_state(init_params(cfg.backbone, seed=3)), cfg)
        real = training.prepare_inputs

        def failing(images, cfg):
            if len(images) == 12:
                raise ValueError("planted failure")
            return real(images, cfg)

        monkeypatch.setattr(training, "prepare_inputs", failing)
        shard_inference(1)
        out = tmp_path / "eval"
        assert main(["eval", "--ckpt", ckpt, "--data", manifest, "--out", str(out)]) == 2
        assert "error: images 8-19 failed: planted failure" in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        assert not out.exists()


class TestMetricsCsv:
    def test_format(self):
        rows = [EpochMetrics(1, 0.5, 0.75, 0.625),
                EpochMetrics(2, 0.25, 1.0, 1.0)]
        text = metrics_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "epoch,train_loss,val_auc,val_acc"
        assert lines[1] == "1,0.5000000000,0.7500000000,0.6250000000"
        assert lines[2] == "2,0.2500000000,1.0000000000,1.0000000000"
        assert text.endswith("\n")


class TestCheckpoints:
    def setup_method(self):
        rng = np.random.default_rng(60)
        self.cfg = tiny_config()
        params = init_params(TINY, seed=8)
        self.state = init_state(params)
        for _ in range(3):
            grads = {k: rng.normal(size=a.shape)
                     for k, a in params.arrays.items()}
            adam_step(self.state, grads)

    def test_round_trip_exact(self, tmp_path):
        path = str(tmp_path / "model.miln")
        save_checkpoint(path, self.state, self.cfg)
        loaded, cfg = load_checkpoint(path)
        assert loaded.step == self.state.step == 3
        assert cfg == self.cfg
        for name in self.state.params.names():
            # shape check is deliberate: assert_array_equal treats 0-d
            # arrays as scalars, which would hide a rank change of the
            # response bias
            assert loaded.params.arrays[name].shape == \
                self.state.params.arrays[name].shape
            assert_array_equal(loaded.params.arrays[name],
                               self.state.params.arrays[name])
            assert_array_equal(loaded.m[name], self.state.m[name])
            assert_array_equal(loaded.v[name], self.state.v[name])

    def test_save_load_save_bitwise_identical(self, tmp_path):
        p1 = str(tmp_path / "a.miln")
        p2 = str(tmp_path / "b.miln")
        save_checkpoint(p1, self.state, self.cfg)
        loaded, cfg = load_checkpoint(p1)
        save_checkpoint(p2, loaded, cfg)
        with open(p1, "rb") as f:
            raw1 = f.read()
        with open(p2, "rb") as f:
            raw2 = f.read()
        assert raw1 == raw2

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = str(tmp_path / "model.miln")
        save_checkpoint(path, self.state, self.cfg)
        before = (tmp_path / "model.miln").read_bytes()
        written = []
        real_write = training._write_tensor

        def write_then_fail(f, name, arr):
            if len(written) == 2:
                raise OSError("disk full")
            written.append(name)
            real_write(f, name, arr)

        monkeypatch.setattr(training, "_write_tensor", write_then_fail)
        newer = self.state.copy()
        newer.step += 1
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, newer, self.cfg)
        assert written  # the failure came midway through the tensors
        assert (tmp_path / "model.miln").read_bytes() == before
        assert os.listdir(tmp_path) == ["model.miln"]

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.miln")
        with open(path, "wb") as f:
            f.write(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match=r"not a checkpoint file \(bad magic\)"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = str(tmp_path / "v9.miln")
        with open(path, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", 9))
            f.write(struct.pack("<Q", 0))
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = str(tmp_path / "full.miln")
        save_checkpoint(path, self.state, self.cfg)
        with open(path, "rb") as f:
            raw = f.read()
        cut = str(tmp_path / "cut.miln")
        with open(cut, "wb") as f:
            f.write(raw[:-5])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(cut)

    def test_truncated_payload_names_file_and_tensor(self, tmp_path):
        path = str(tmp_path / "full.miln")
        save_checkpoint(path, self.state, self.cfg)
        with open(path, "rb") as f:
            raw = f.read()
        # the first tensor's record: name length, name, rank, dims, dtype tag,
        # then its float64 payload
        (blob_len,) = struct.unpack("<Q", raw[8:16])
        name = b"conv0.kernel"
        record = 16 + blob_len
        assert raw[record + 4:record + 4 + len(name)] == name
        rank = 4
        payload = record + 4 + len(name) + 4 + 8 * rank + 1
        cut = str(tmp_path / "cut.miln")
        with open(cut, "wb") as f:
            f.write(raw[:payload + 12])
        with pytest.raises(ValueError) as err:
            load_checkpoint(cut)
        assert str(err.value) == (
            f"{cut}: truncated checkpoint while reading conv0.kernel payload"
        )

    def test_missing_moments_detected(self, tmp_path):
        # a file holding only the parameter tensors, no adam.* entries
        from milnet.config import run_config_text
        blob = run_config_text(self.cfg, 0).encode("utf-8")
        path = str(tmp_path / "params_only.miln")
        with open(path, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", 1))
            f.write(struct.pack("<Q", len(blob)))
            f.write(blob)
            for name, arr in self.state.params.arrays.items():
                # asarray keeps the 0-d response bias 0-d
                data = np.asarray(arr, dtype="<f8", order="C")
                enc = name.encode()
                f.write(struct.pack("<I", len(enc)) + enc)
                f.write(struct.pack("<I", data.ndim))
                if data.ndim:
                    f.write(struct.pack(f"<{data.ndim}Q", *data.shape))
                f.write(struct.pack("<B", 0))
                f.write(data.tobytes())
        with pytest.raises(ValueError, match="missing Adam moments tensor 'adam.m."):
            load_checkpoint(path)

    def _write_raw(self, path, tensors):
        from milnet.config import run_config_text
        blob = run_config_text(self.cfg, 0).encode("utf-8")
        with open(path, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", 1))
            f.write(struct.pack("<Q", len(blob)))
            f.write(blob)
            for name, arr in tensors.items():
                training._write_tensor(f, name, arr)

    def _all_tensors(self):
        tensors = dict(self.state.params.arrays)
        for name in self.state.params.names():
            tensors["adam.m." + name] = self.state.m[name]
            tensors["adam.v." + name] = self.state.v[name]
        return tensors

    def test_wrong_kernel_shape_named(self, tmp_path):
        tensors = self._all_tensors()
        tensors["conv0.kernel"] = np.zeros((4, 1, 5, 5))  # TINY has 3x3
        path = str(tmp_path / "wrong_shape.miln")
        self._write_raw(path, tensors)
        with pytest.raises(ValueError, match=r"'conv0\.kernel' has shape \(4, 1, 5, 5\)"):
            load_checkpoint(path)

    def test_missing_tensor_named(self, tmp_path):
        tensors = self._all_tensors()
        for name in ("response.weight", "adam.m.response.weight",
                     "adam.v.response.weight"):
            del tensors[name]
        path = str(tmp_path / "missing.miln")
        self._write_raw(path, tensors)
        with pytest.raises(ValueError, match=r"missing parameter tensor 'response\.weight'"):
            load_checkpoint(path)

    def test_extra_tensor_named(self, tmp_path):
        tensors = self._all_tensors()
        tensors["conv1.kernel"] = np.zeros((4, 4, 3, 3))
        path = str(tmp_path / "extra.miln")
        self._write_raw(path, tensors)
        with pytest.raises(ValueError, match=r"'conv1\.kernel' is not a parameter"):
            load_checkpoint(path)

    def test_unknown_dtype_tag(self, tmp_path):
        from milnet.config import run_config_text
        blob = run_config_text(self.cfg, 0).encode("utf-8")
        path = str(tmp_path / "odd_dtype.miln")
        with open(path, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", 1))
            f.write(struct.pack("<Q", len(blob)))
            f.write(blob)
            enc = b"w"
            f.write(struct.pack("<I", len(enc)) + enc)
            f.write(struct.pack("<I", 1))
            f.write(struct.pack("<Q", 2))
            f.write(struct.pack("<B", 7))
            f.write(b"\x00" * 16)
        with pytest.raises(ValueError, match="unknown dtype tag"):
            load_checkpoint(path)


_DESK_CV_FAULTS = '''
import os, resource, sys
from milnet.cli import main

root = sys.argv[1]
spec, cfg = os.path.join(root, "synth.cfg"), os.path.join(root, "cv.cfg")
with open(spec, "w") as f:
    f.write("image_size = 64\\nn_pos = 40\\nn_neg = 160\\nseed = 3\\n")
with open(cfg, "w") as f:
    f.write("head = sparse\\nepochs = 2\\nbatch = 8\\nseed = 3\\n")
assert main(["synth", "--spec", spec, "--out", os.path.join(root, "data")]) == 0
faults = []
for run in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(["cv", "--config", cfg, "--workers", "1", "--out", os.path.join(root, str(run)),
                 "--data", os.path.join(root, "data", "manifest.csv")]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(" ".join(map(str, faults)))
'''


class TestDeskCvFaults:
    def test_warm_desk_cv_allocates_from_memory_it_has(self, tmp_path):
        # Once a process has run one desk cv, the next ones find every
        # buffer in memory the process already has: no fresh mapping per
        # step, and no heap that keeps growing.  glibc gives the freed top
        # of its heap back when it exceeds twice the largest buffer it has
        # mapped, and whether a cv's last step does so depends on the heap's
        # layout: without a top pad a warm cv took 5 to 44K minor faults,
        # before and after the in-place augmentation and staged columns
        # alike.  With 8 MiB kept at the top it takes 1 to 94.
        import milnet

        env = dict(os.environ, MALLOC_TOP_PAD_=str(8 << 20), PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(milnet.__file__).resolve().parents[1]),
                          os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", _DESK_CV_FAULTS, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        faults = [int(v) for v in proc.stdout.split()]
        assert len(faults) == 4 and max(faults[1:]) <= 300, faults
