"""Finite-difference and oracle checks for every autodiff op."""

import contextlib
import gc
import hashlib
import math
import multiprocessing
import os
import sys
import threading
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import milnet.cv as cv
import milnet.gradcheck as gradcheck
from milnet import autodiff as ad
from milnet.autodiff import Tensor
from milnet.config import TrainConfig
from milnet.cv import cross_validate
from milnet.model import PRESETS, BackboneSpec, init_params, response_grids


def central_diff(f, arr, idx, step=1e-6):
    orig = arr[idx]
    arr[idx] = orig + step
    hi = f()
    arr[idx] = orig - step
    lo = f()
    arr[idx] = orig
    return (hi - lo) / (2 * step)


def check_grad(build, arr, coords=None, step=1e-6, rtol=1e-6, atol=1e-9):
    """build() -> (scalar Tensor, leaf Tensor wrapping arr)."""
    loss, leaf = build()
    loss.backward()
    grad = leaf.grad.copy()
    if coords is None:
        coords = list(np.ndindex(arr.shape))
    for idx in coords:
        numeric = central_diff(lambda: float(build()[0].data), arr, idx, step)
        assert_allclose(
            grad[idx], numeric, rtol=rtol, atol=atol,
            err_msg=f"gradient mismatch at {idx}",
        )


class TestTensorBasics:
    def test_leaf_defaults(self):
        t = Tensor([1.0, 2.0])
        assert t.grad is None
        assert not t.requires_grad
        assert t.shape == (2,)

    def test_backward_requires_scalar(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            t.backward()

    def test_float64_coercion(self):
        t = Tensor(np.array([1, 2], dtype=np.int32))
        assert t.data.dtype == np.float64

    def test_grad_not_tracked_without_flag(self):
        a = Tensor([1.0, -2.0])
        out = ad.reduce_sum(ad.relu(a))
        out.backward()
        assert a.grad is None

    def test_diamond_graph_accumulates(self):
        # z = sum(x) + sum(x): gradient is 2 everywhere
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        s = ad.reduce_sum(x)
        z = ad.add(s, s)
        z.backward()
        assert_array_equal(x.grad, [2.0, 2.0, 2.0])


class TestPointwiseOps:
    def test_relu_values_and_grad(self):
        x = np.array([-2.0, 0.0, 3.0])
        t = Tensor(x, requires_grad=True)
        out = ad.relu(t)
        assert_array_equal(out.data, [0.0, 0.0, 3.0])
        ad.reduce_sum(out).backward()
        # subgradient at 0 is 0
        assert_array_equal(t.grad, [0.0, 0.0, 1.0])

    def test_sigmoid_matches_closed_form(self):
        rng = np.random.default_rng(42)
        x = rng.normal(0, 3, size=50)
        out = ad.sigmoid(Tensor(x))
        assert_allclose(out.data, 1.0 / (1.0 + np.exp(-x)), rtol=1e-14)

    def test_sigmoid_extreme_inputs_stable(self):
        out = ad.sigmoid(Tensor([-800.0, 800.0]))
        assert np.isfinite(out.data).all()
        assert out.data[0] >= 0.0 and out.data[1] <= 1.0

    def test_sigmoid_gradient_fd(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 2, size=8)

        def build():
            leaf = Tensor(x, requires_grad=True)
            return ad.reduce_sum(ad.sigmoid(leaf)), leaf

        check_grad(build, x)

    def test_log_gradient_and_domain(self):
        # log_sigmoid is the only log the graph takes; its domain is every
        # real number, so there is nothing to reject
        x = np.array([-30.0, -2.0, -0.5, 0.0, 0.5, 2.0, 30.0])

        def build():
            leaf = Tensor(x, requires_grad=True)
            return ad.reduce_sum(ad.log_sigmoid(leaf)), leaf

        check_grad(build, x)
        extreme = ad.log_sigmoid(Tensor([-1e300, -750.0, 750.0, 1e300])).data
        assert np.isfinite(extreme).all()

    def test_log_sigmoid_matches_closed_form_and_stays_finite(self):
        x = np.array([-800.0, -40.0, -1.0, 0.0, 1.0, 40.0, 800.0])
        t = Tensor(x, requires_grad=True)
        out = ad.log_sigmoid(t)
        expected = np.array([-800.0, -40.0 - math.exp(-40.0),
                             -math.log1p(math.e), -math.log(2.0),
                             -math.log1p(math.exp(-1.0)), -math.exp(-40.0), -0.0])
        assert_allclose(out.data, expected, rtol=1e-15, atol=0)
        ad.reduce_sum(out).backward()
        # d/dx log sigmoid(x) = sigmoid(-x) = exp(-log(1 + e^x))
        assert_allclose(t.grad, np.exp(-np.logaddexp(0.0, x)), rtol=1e-15, atol=0)
        assert t.grad[1] == 1.0 and t.grad[5] > 0.0


class TestReductions:
    def test_reduce_sum(self):
        x = np.arange(6.0).reshape(2, 3)
        t = Tensor(x, requires_grad=True)
        out = ad.reduce_sum(t)
        assert out.data == 15.0
        out.backward()
        assert_array_equal(t.grad, np.ones((2, 3)))

    def test_reduce_sum_is_order_independent(self):
        x = np.array([1e16, 1.0, -1e16, 3.0, 1e-3, 2.5])
        sums = {float(ad.reduce_sum(Tensor(x[p])).data)
                for p in ([0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0], [1, 0, 3, 2, 5, 4])}
        assert sums == {6.501}

    def test_weighted_sum_value_and_grad(self):
        x = np.array([[1.0, -2.0], [0.5, 4.0]])
        coeff = np.array([[3.0, 0.0], [-2.0, 0.25]])
        t = Tensor(x, requires_grad=True)
        out = ad.weighted_sum(t, coeff)
        assert out.data == 3.0 + 0.0 - 1.0 + 1.0
        out.backward()
        assert_array_equal(t.grad, coeff)
        with pytest.raises(ValueError):
            ad.weighted_sum(t, np.ones(4))

    def test_l2_norm_sq(self):
        x = np.array([1.0, -2.0, 2.0])
        t = Tensor(x, requires_grad=True)
        out = ad.l2_norm_sq(t)
        assert out.data == 9.0
        out.backward()
        assert_array_equal(t.grad, 2.0 * x)

    def test_scale_and_add(self):
        x = np.array([1.0, 2.0])
        t = Tensor(x, requires_grad=True)
        out = ad.reduce_sum(ad.add(ad.scale(t, 3.0), ad.scale(t, -1.0)))
        # sum(3x - x) = sum(2x)
        assert out.data == 2 * 3.0
        out.backward()
        assert_array_equal(t.grad, [2.0, 2.0])

    def test_add_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.add(Tensor([1.0]), Tensor([1.0, 2.0]))

    def test_add_n_matches_sum(self):
        rng = np.random.default_rng(3)
        parts = [Tensor(rng.normal(size=())) for _ in range(5)]
        out = ad.add_n(parts)
        assert_allclose(out.data, sum(float(p.data) for p in parts), rtol=1e-15)


class TestShapeOps:
    def test_reshape_round_trip_grad(self):
        x = np.arange(12.0)
        t = Tensor(x, requires_grad=True)
        out = ad.reshape(t, (3, 4))
        assert out.shape == (3, 4)
        ad.reduce_sum(out).backward()
        assert_array_equal(t.grad, np.ones(12))


def conv2d_oracle(x, w, stride, padding):
    """Direct nested-loop cross-correlation, the independent reference."""
    n, c_in, h, wd = x.shape
    c_out, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, c_out, oh, ow))
    for b in range(n):
        for co in range(c_out):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[b, :, i * stride:i * stride + kh,
                               j * stride:j * stride + kw]
                    out[b, co, i, j] = np.sum(patch * w[co])
    return out


class TestConv2d:
    @pytest.mark.usefixtures("float64_gemms")
    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(42)
        for stride, padding in [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)]:
            x = rng.normal(size=(2, 3, 9, 9))
            w = rng.normal(size=(4, 3, 3, 3))
            out = ad.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding)
            assert_allclose(
                out.data, conv2d_oracle(x, w, stride, padding),
                rtol=1e-12, atol=1e-12,
            )

    @pytest.mark.parametrize("k, stride, padding, shape", [
        (11, 4, 2, (2, 1, 31, 29)),
        (5, 2, 2, (3, 2, 12, 12)),
        (3, 1, 1, (1, 4, 6, 5)),
    ])
    def test_padded_forward_bitwise_matches_np_pad(self, k, stride, padding, shape):
        rng = np.random.default_rng(k)
        x = rng.normal(size=shape)
        w = rng.normal(size=(3, shape[1], k, k))
        out = ad.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding)
        pads = ((0, 0), (0, 0), (padding, padding), (padding, padding))
        ref = ad.conv2d(Tensor(np.pad(x, pads)), Tensor(w), stride=stride)
        assert np.array_equal(out.data, ref.data)

    @pytest.mark.usefixtures("float64_gemms")
    def test_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(1, 1, 5, 5))
        w = np.zeros((1, 1, 1, 1))
        w[0, 0, 0, 0] = 1.0
        out = ad.conv2d(Tensor(x), Tensor(w))
        assert_allclose(out.data, x, rtol=1e-15)

    @pytest.mark.usefixtures("float64_gemms")
    def test_kernel_gradient_fd(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))

        def build():
            leaf = Tensor(w, requires_grad=True)
            out = ad.conv2d(Tensor(x), leaf, stride=2, padding=1)
            return ad.reduce_sum(out), leaf

        coords = [tuple(c) for c in rng.integers(0, [3, 2, 3, 3], size=(8, 4))]
        check_grad(build, w, coords=coords)

    @pytest.mark.usefixtures("float64_gemms")
    def test_input_gradient_fd(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))

        def build():
            leaf = Tensor(x, requires_grad=True)
            out = ad.conv2d(leaf, Tensor(w), stride=1, padding=1)
            return ad.reduce_sum(out), leaf

        coords = [tuple(c) for c in rng.integers(0, [2, 2, 5, 5], size=(8, 4))]
        check_grad(build, x, coords=coords)

    @pytest.mark.usefixtures("float64_gemms")
    def test_kernel_gradient_fd_partial_last_chunk(self):
        # 3 images x 10 x 10 output positions = 300 rows: two full chunks of
        # the kernel-gradient reduction plus a partial one
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 2, 10, 10))
        w = rng.normal(size=(3, 2, 3, 3))
        rows = 3 * 10 * 10
        assert rows > ad.KERNEL_GRAD_CHUNK and rows % ad.KERNEL_GRAD_CHUNK

        def build():
            leaf = Tensor(w, requires_grad=True)
            out = ad.conv2d(Tensor(x), leaf, stride=1, padding=1)
            return ad.l2_norm_sq(out), leaf

        check_grad(build, w)

        # per-tap reference; the chunked sum adds the same 300 terms per
        # entry in another order, so allow a few ulps of the term magnitudes
        loss, leaf = build()
        loss.backward()
        g = 2.0 * ad.conv2d(Tensor(x), Tensor(w), padding=1).data
        xpad = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        ref = np.zeros_like(w)
        for i in range(3):
            for j in range(3):
                ref[:, :, i, j] = np.einsum(
                    "noyx,ncyx->oc", g, xpad[:, :, i:i + 10, j:j + 10])
        assert_allclose(leaf.grad, ref, rtol=1e-12, atol=1e-10)

    @pytest.mark.usefixtures("float64_gemms")
    @pytest.mark.parametrize("k, stride, padding, shape", [
        (11, 4, 2, (2, 3, 27, 30)),
        (5, 1, 2, (2, 4, 9, 8)),
        (2, 3, 0, (2, 3, 10, 11)),  # stride > kernel: some cells get nothing
    ])
    def test_input_gradient_bitwise_matches_add_at(self, k, stride, padding, shape):
        rng = np.random.default_rng(k)
        x = rng.normal(size=shape)
        w = rng.normal(size=(5, shape[1], k, k))
        leaf = Tensor(x, requires_grad=True)
        out = ad.conv2d(leaf, Tensor(w), stride=stride, padding=padding)
        ad.l2_norm_sq(out).backward()  # upstream gradient 2 * out

        # scatter-add reference: every (output position, tap) term added to
        # its padded input cell one at a time, in row-major term order
        n, c, h, wd = shape
        oh, ow = out.shape[2:]
        pw = wd + 2 * padding
        rows = np.arange(oh)[:, None, None, None] * stride + np.arange(k)[None, None, :, None]
        cols = np.arange(ow)[None, :, None, None] * stride + np.arange(k)[None, None, None, :]
        idx = (rows * pw + cols).reshape(oh * ow, k * k)
        g = (2.0 * out.data).reshape(n, 5, oh * ow).transpose(0, 2, 1)
        terms = (g @ w.reshape(5, -1)).reshape(n, oh * ow, c, k * k).transpose(0, 2, 1, 3)
        gpad = np.zeros((n, c, (h + 2 * padding) * pw))
        np.add.at(gpad, (slice(None), slice(None), idx), terms)
        ref = gpad.reshape(n, c, h + 2 * padding, pw)[
            :, :, padding:padding + h, padding:padding + wd]
        assert np.array_equal(leaf.grad, ref)

    def test_bias_value_and_grad(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, 3, 2, 2))
        w = rng.normal(size=(3, 3, 3, 3))
        b = rng.normal(size=3)
        xt = Tensor(x, requires_grad=True)
        bt = Tensor(b, requires_grad=True)
        out = ad.conv2d(xt, Tensor(w), padding=1, bias=bt)
        bare = Tensor(x, requires_grad=True)
        ref = ad.conv2d(bare, Tensor(w), padding=1)
        assert np.array_equal(out.data, ref.data + b[None, :, None, None])
        ad.reduce_sum(out).backward()
        ad.reduce_sum(ref).backward()
        assert_array_equal(xt.grad, bare.grad)
        assert_array_equal(bt.grad, np.full(3, 8.0))  # 2 images x 2x2 cells

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            ad.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))
        with pytest.raises(ValueError):
            ad.conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 2, 3, 3))))
        with pytest.raises(ValueError, match="bias"):
            ad.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((3, 2, 3, 3))),
                      bias=Tensor(np.zeros(2)))

    def test_kernel_larger_than_input_errors(self):
        with pytest.raises(ValueError):
            ad.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))


class TestMaxPool2d:
    def test_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = ad.maxpool2d(Tensor(x), window=2, stride=2)
        assert_array_equal(out.data.reshape(2, 2), [[5.0, 7.0], [13.0, 15.0]])

    def test_overlapping_window(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = ad.maxpool2d(Tensor(x), window=3, stride=1)
        assert_array_equal(out.data.reshape(2, 2), [[10.0, 11.0], [14.0, 15.0]])

    def test_gradient_scatters_to_argmax(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        t = Tensor(x, requires_grad=True)
        ad.reduce_sum(ad.maxpool2d(t, window=2, stride=2)).backward()
        expected = np.zeros((1, 1, 4, 4))
        for i, j in [(1, 1), (1, 3), (3, 1), (3, 3)]:
            expected[0, 0, i, j] = 1.0
        assert_array_equal(t.grad, expected)

    def test_tie_goes_to_first_occurrence(self):
        x = np.full((1, 1, 2, 2), 7.0)
        t = Tensor(x, requires_grad=True)
        ad.reduce_sum(ad.maxpool2d(t, window=2, stride=2)).backward()
        expected = np.zeros((1, 1, 2, 2))
        expected[0, 0, 0, 0] = 1.0  # row-major first among equals
        assert_array_equal(t.grad, expected)

    def test_overlap_accumulates_gradient(self):
        # one cell is the max of several overlapping windows
        x = np.zeros((1, 1, 3, 3))
        x[0, 0, 1, 1] = 9.0
        t = Tensor(x, requires_grad=True)
        ad.reduce_sum(ad.maxpool2d(t, window=2, stride=1)).backward()
        assert t.grad[0, 0, 1, 1] == 4.0

    def test_gradient_fd_random(self):
        rng = np.random.default_rng(8)
        # distinct values so the argmax is FD-stable
        x = rng.permutation(36).astype(np.float64).reshape(1, 1, 6, 6)

        def build():
            leaf = Tensor(x, requires_grad=True)
            return ad.reduce_sum(ad.maxpool2d(leaf, window=2, stride=2)), leaf

        check_grad(build, x, step=1e-3)

    def test_window_error(self):
        with pytest.raises(ValueError):
            ad.maxpool2d(Tensor(np.zeros((1, 1, 2, 2))), window=3, stride=2)


class TestAffineChannel:
    def test_value_matches_einsum(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 4, 3, 3))
        w = rng.normal(size=4)
        b = 0.37
        out = ad.affine_channel(Tensor(x), Tensor(w), Tensor(b))
        expected = np.einsum("nchw,c->nhw", x, w) + b
        assert_allclose(out.data, expected, rtol=1e-13)

    def test_gradients_fd(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(1, 3, 2, 2))
        w = rng.normal(size=3)
        b = np.asarray(0.1)

        def build_w():
            leaf = Tensor(w, requires_grad=True)
            out = ad.affine_channel(Tensor(x), leaf, Tensor(b))
            return ad.reduce_sum(out), leaf

        check_grad(build_w, w)

        def build_b():
            leaf = Tensor(b, requires_grad=True)
            out = ad.affine_channel(Tensor(x), Tensor(w), leaf)
            return ad.reduce_sum(out), leaf

        check_grad(build_b, b, coords=[()])

        def build_x():
            leaf = Tensor(x, requires_grad=True)
            out = ad.affine_channel(leaf, Tensor(w), Tensor(b))
            return ad.reduce_sum(out), leaf

        check_grad(build_x, x)


class TestDeterminism:
    def test_identical_graphs_bitwise(self):
        rng = np.random.default_rng(99)
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))

        def run():
            xt = Tensor(x.copy(), requires_grad=True)
            wt = Tensor(w.copy(), requires_grad=True)
            y = ad.maxpool2d(ad.relu(ad.conv2d(xt, wt, stride=1, padding=1)), 2, 2)
            loss = ad.reduce_sum(y)
            loss.backward()
            return float(loss.data), xt.grad.copy(), wt.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1 == l2
        assert_array_equal(gx1, gx2)
        assert_array_equal(gw1, gw2)


def conv_layers():
    """(input CHW, kernel OIKK, stride, padding) of every conv layer of
    every backbone preset, as test parameters."""
    for preset, spec in sorted(PRESETS.items()):
        c, size, i = 1, spec.input_size, 0
        for layer in spec.layers:
            if layer[0] == "conv":
                _, out_c, k, stride, padding = layer
                yield pytest.param((c, size, size), (out_c, c, k, k), stride, padding,
                                   id=f"{preset}-c{i}")
                c, size, i = out_c, (size + 2 * padding - k) // stride + 1, i + 1
            elif layer[0] == "pool":
                _, window, stride = layer
                size = (size - window) // stride + 1


def pool_layers():
    """(input CHW, window, stride) of every pool layer of every backbone
    preset, as test parameters."""
    for preset, spec in sorted(PRESETS.items()):
        c, size, i = 1, spec.input_size, 0
        for layer in spec.layers:
            if layer[0] == "conv":
                _, c, k, stride, padding = layer
                size = (size + 2 * padding - k) // stride + 1
            elif layer[0] == "pool":
                _, window, stride = layer
                yield pytest.param((c, size, size), window, stride, id=f"{preset}-p{i}")
                size, i = (size - window) // stride + 1, i + 1


def conv_runs_float32() -> bool:
    # 1 + 2**-30 rounds to 1 in float32 and is exact in float64
    probe = ad.conv2d(Tensor(np.full((1, 1, 1, 1), 1.0 + 2.0**-30)),
                      Tensor(np.ones((1, 1, 1, 1))))
    return probe.data.item() == 1.0


class TestGemmPrecision:
    @pytest.mark.parametrize("in_chw, k_shape, stride, padding", list(conv_layers()))
    def test_float32_operands_track_float64(self, in_chw, k_shape, stride, padding):
        # output, kernel gradient and input gradient of the default float32
        # operands stay within 1e-5 of each one's largest float64 magnitude
        rng = np.random.default_rng(31)
        x = rng.uniform(0.0, 1.0, size=(2, *in_chw))
        fan_in = k_shape[1] * k_shape[2] * k_shape[3]
        w = rng.uniform(-1.0, 1.0, size=k_shape) * math.sqrt(6.0 / fan_in)

        def run():
            xt = Tensor(x, requires_grad=True)
            wt = Tensor(w, requires_grad=True)
            out = ad.conv2d(xt, wt, stride=stride, padding=padding)
            coeff = np.random.default_rng(32).normal(size=out.shape)
            ad.weighted_sum(out, coeff).backward()
            return out.data, wt.grad, xt.grad

        fast = run()
        with ad.float64_gemms():
            exact = run()
        for what, got, want in zip(("output", "kernel grad", "input grad"), fast, exact):
            dev = np.abs(got - want).max() / np.abs(want).max()
            assert dev <= 1e-5, (what, dev)

    def test_scope_is_float64_inside_only(self):
        assert conv_runs_float32()
        with ad.float64_gemms():
            assert not conv_runs_float32()
            with ad.float64_gemms():
                assert not conv_runs_float32()
            assert not conv_runs_float32()
        assert conv_runs_float32()

    def test_gradcheck_is_float64_and_does_not_leak(self, monkeypatch):
        seen = []
        objective = gradcheck.batch_objective

        def recording(*args, **kwargs):
            seen.append(conv_runs_float32())
            return objective(*args, **kwargs)

        monkeypatch.setattr(gradcheck, "batch_objective", recording)
        assert gradcheck.check_full_gradients("sparse", n_draws=1).passed
        assert seen and not any(seen)
        assert conv_runs_float32()

    def test_cv_folds_follow_the_callers_scope(self, tmp_path, monkeypatch):
        # fold processes run in the caller's scope, so inside it a cv writes
        # the same bytes at 1 and 2 workers; each fold reports where it ran
        # and its precision through a file
        real_train = cv.train

        def reporting(*args, **kwargs):
            where = "child" if os.getpid() != parent else "caller"
            precision = "float32" if conv_runs_float32() else "float64"
            (tmp_path / f"{workers}_{args[4].seed}").write_text(f"{where} {precision}")
            return real_train(*args, **kwargs)

        monkeypatch.setattr(cv, "train", reporting)
        parent = os.getpid()
        rng = np.random.default_rng(0)
        images = [rng.integers(0, 256, (16, 16)).astype(np.uint8) for _ in range(10)]
        spec = BackboneSpec(input_size=16, layers=(("conv", 2, 3, 2, 1), ("relu",)))
        cfg = TrainConfig(backbone=spec, epochs=1, batch_size=4, seed=3,
                          augment_enabled=False)
        with ad.float64_gemms():
            for workers in (1, 2):
                cross_validate(images, np.array([0, 1] * 5), cfg,
                               str(tmp_path / f"cv{workers}"), workers=workers)
        for workers, where in ((1, "caller"), (2, "child")):
            reports = [p.read_text() for p in tmp_path.glob(f"{workers}_*")]
            assert reports == [f"{where} float64"] * 5, workers
        names = sorted(os.listdir(tmp_path / "cv1"))
        assert len(names) == 21 and names == sorted(os.listdir(tmp_path / "cv2"))
        for name in names:
            assert ((tmp_path / "cv1" / name).read_bytes()
                    == (tmp_path / "cv2" / name).read_bytes()), name


def conv_bytes(x, w, b, stride, padding) -> list[np.ndarray]:
    """Output and input, kernel and bias gradients of one conv2d."""
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = ad.conv2d(xt, wt, stride=stride, padding=padding, bias=bt)
    ad.l2_norm_sq(out).backward()
    return [out.data, xt.grad, wt.grad, bt.grad]


def conv_layer_inputs(in_chw, k_shape, n=3):
    rng = np.random.default_rng(41)
    x = rng.uniform(0.0, 1.0, size=(n, *in_chw))
    w = rng.normal(size=k_shape) / math.sqrt(k_shape[1] * k_shape[2] * k_shape[3])
    return x, w, rng.normal(size=k_shape[0])


class TestSplitOps:
    """conv2d and maxpool2d split by image over a thread pool give the bytes
    of the unsplit op, at any worker count.  Three images make uneven
    groups for two shares and one image per share for three."""

    @pytest.mark.parametrize("gemms", ["float32", "float64"])
    @pytest.mark.parametrize("in_chw, k_shape, stride, padding", list(conv_layers()))
    def test_conv_bytes_do_not_depend_on_workers(
        self, split_ops, in_chw, k_shape, stride, padding, gemms
    ):
        x, w, b = conv_layer_inputs(in_chw, k_shape)
        scope = ad.float64_gemms() if gemms == "float64" else contextlib.nullcontext()
        runs = {}
        with scope:
            for workers in (0, 1, 2):
                split_ops(workers)
                runs[workers] = conv_bytes(x, w, b, stride, padding)
        for workers in (1, 2):
            for what, got, want in zip(("output", "input grad", "kernel grad", "bias grad"),
                                       runs[workers], runs[0]):
                assert got.dtype == want.dtype and np.array_equal(got, want), (workers, what)

    @pytest.mark.parametrize("in_chw, window, stride", list(pool_layers()))
    def test_maxpool_bytes_do_not_depend_on_workers(
        self, split_ops, in_chw, window, stride
    ):
        # values on a coarse grid, so many windows hold ties
        x = np.round(np.random.default_rng(43).normal(size=(3, *in_chw)) * 2) / 2
        runs = {}
        for workers in (0, 1, 2):
            split_ops(workers)
            xt = Tensor(x, requires_grad=True)
            out = ad.maxpool2d(xt, window, stride)
            ad.l2_norm_sq(out).backward()
            runs[workers] = (out.data, xt.grad)
        for workers in (1, 2):
            assert np.array_equal(runs[workers][0], runs[0][0]), workers
            assert np.array_equal(runs[workers][1], runs[0][1]), workers

    @pytest.mark.usefixtures("float64_gemms")
    def test_split_shares_run_float64(self, split_ops):
        # the scope is read on the calling thread and handed to the pool
        # threads, so split outputs meet the float64 oracle's tolerance
        split_ops(2)
        rng = np.random.default_rng(45)
        for stride, padding in [(1, 1), (2, 0), (3, 2)]:
            x = rng.normal(size=(3, 3, 9, 9))
            w = rng.normal(size=(4, 3, 3, 3))
            out = ad.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding)
            assert_allclose(
                out.data, conv2d_oracle(x, w, stride, padding),
                rtol=1e-12, atol=1e-12,
            )
        assert ad._pool is not None

    def test_concurrent_callers_share_the_pool(self, split_ops):
        # more callers and pool threads than cores, switching often, as
        # concurrent training threads would at the paper preset
        x, w, b = conv_layer_inputs((8, 16, 16), (16, 8, 3, 3), n=4)
        split_ops(0)
        want = conv_bytes(x, w, b, 1, 1)
        split_ops(3)
        results = [None] * 4

        def caller(i: int) -> None:
            results[i] = conv_bytes(x, w, b, 1, 1)

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got in results:
            assert got is not None
            assert all(np.array_equal(g, e) for g, e in zip(got, want))

    def test_forked_child_starts_its_own_pool(self, split_ops):
        split_ops(1)
        x, w, b = conv_layer_inputs((8, 16, 16), (16, 8, 3, 3))

        def digest() -> str:
            return hashlib.sha256(
                b"".join(a.tobytes() for a in conv_bytes(x, w, b, 1, 1))
            ).hexdigest()

        want = digest()  # starts the pool in this process
        assert ad._pool is not None
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)

        def child() -> None:
            send.send((digest(), ad._pool is not None))

        proc = ctx.Process(target=child)
        proc.start()
        try:
            # without a fresh pool the child waits forever on the first split
            assert receive.poll(60), "forked child did not finish a conv2d in 60 s"
            got, child_pool = receive.recv()
        finally:
            proc.kill()
            proc.join(10)
            receive.close()
            send.close()
        assert got == want
        assert child_pool


class TestForwardOnly:
    """conv2d and maxpool2d without any operand that requires a gradient take
    a forward-only branch; it gives the bytes of the graph path, at any
    worker count, and inside response_grids reuses one buffer per role."""

    @pytest.mark.parametrize("gemms", ["float32", "float64"])
    @pytest.mark.parametrize("in_chw, k_shape, stride, padding", list(conv_layers()))
    def test_conv_bytes_match_graph(
        self, split_ops, in_chw, k_shape, stride, padding, gemms
    ):
        x, w, b = conv_layer_inputs(in_chw, k_shape)
        (o, c, k, _), (_, size, _) = k_shape, in_chw
        cells = ((size + 2 * padding - k) // stride + 1) ** 2
        # bytes of the largest temporary of this layer
        stale = 8 * len(x) * max(c * (size + 2 * padding) ** 2, c * k * k * cells, o * cells)
        scope = ad.float64_gemms() if gemms == "float64" else contextlib.nullcontext()
        with scope:
            want = conv_bytes(x, w, b, stride, padding)[0]
            for workers in (0, 1, 2):
                split_ops(workers)
                with ad._forward_buffers():
                    # stale values in every buffer, as an earlier layer leaves them
                    for role in ("padded", "cols", "prod"):
                        ad._scratch_array(role, (stale,), np.uint8).fill(0xFF)
                    got = ad.conv2d(Tensor(x), Tensor(w), stride, padding, Tensor(b))
                assert got._backward_fn is None and not got.requires_grad
                assert got.data.dtype == want.dtype, workers
                assert got.data.tobytes() == want.tobytes(), workers

    @pytest.mark.parametrize("in_chw, window, stride", list(pool_layers()))
    def test_maxpool_bytes_match_graph(self, split_ops, in_chw, window, stride):
        # mostly signed zeros, so many windows tie at 0 with -0.0 before +0.0
        # or after it; argmax keeps the first of a tie, and so must the
        # tap-wise max
        rng = np.random.default_rng(47)
        x = rng.choice(np.array([-0.0, 0.0, 0.0, -0.0, -1.0, 0.5]), size=(3, *in_chw))
        xt = Tensor(x, requires_grad=True)
        want = ad.maxpool2d(xt, window, stride).data
        zeros = want[want == 0.0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        for workers in (0, 1, 2):
            split_ops(workers)
            got = ad.maxpool2d(Tensor(x), window, stride)
            assert got._backward_fn is None and not got.requires_grad
            assert got.data.tobytes() == want.tobytes(), workers

    def test_response_grids_hold_no_buffer_after_return_or_raise(self, monkeypatch):
        params = init_params(PRESETS["desk"], seed=5)
        rng = np.random.default_rng(48)
        images = [rng.uniform(0, 1, size=(64, 64)) for _ in range(9)]
        held = []
        real_conv2d = ad.conv2d

        def recording(*args, **kwargs):
            out = real_conv2d(*args, **kwargs)
            held.extend(weakref.ref(buf) for buf in ad._scratch.buffers.values())
            return out

        monkeypatch.setattr(ad, "conv2d", recording)
        response_grids(params, images)
        assert len(held) == 3 * 2 * 3  # three roles, three layers, two batches
        assert getattr(ad._scratch, "buffers", None) is None
        gc.collect()
        assert all(ref() is None for ref in held)

        # the second batch fails in forward_backbone, after the first has
        # filled the buffers
        held.clear()
        with pytest.raises(ValueError, match="does not match backbone input size"):
            response_grids(params, images[:8] + [np.zeros((32, 32))])
        assert held
        assert getattr(ad._scratch, "buffers", None) is None
        gc.collect()
        assert all(ref() is None for ref in held)

    def test_concurrent_response_grids_give_serial_bytes(self, split_ops):
        # each caller's forward-only ops use that caller's buffers, also in
        # the shares pool threads run for them
        params = init_params(PRESETS["desk"], seed=6)
        rng = np.random.default_rng(49)
        images = [[rng.uniform(0, 1, size=(64, 64)) for _ in range(11)] for _ in range(2)]
        split_ops(0)
        want = [response_grids(params, batch).tobytes() for batch in images]
        split_ops(1)
        results = [None, None]

        def caller(i: int) -> None:
            for _ in range(3):
                got = response_grids(params, images[i]).tobytes()
                results[i] = got if results[i] in (None, got) else b"differs"

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == want
