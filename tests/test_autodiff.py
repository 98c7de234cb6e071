"""Finite-difference and oracle checks for every autodiff op."""

import contextlib
import hashlib
import inspect
import math
import multiprocessing
import os
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import milnet.cv as cv
import milnet.gradcheck as gradcheck
from milnet import _kernels
from milnet import autodiff as ad
from milnet.autodiff import Tensor
from milnet.config import TrainConfig
from milnet.cv import cross_validate
from milnet.model import PRESETS, BackboneSpec, init_params, layer_plan, response_grids


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


class TestAccumulate:
    """A node's first gradient is 0.0 + the first contribution, in a fresh
    array of the node's shape."""

    def test_first_contribution_of_negative_zero_gives_positive_zero(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        ad.reduce_sum(ad.scale(x, -0.0)).backward()  # contributions 1 * -0.0
        assert np.array_equal(x.grad, np.zeros(3))
        assert not np.signbit(x.grad).any()

    def test_add_gives_each_parent_its_own_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        c = Tensor([5.0, 6.0], requires_grad=True)
        ad.reduce_sum(ad.add(ad.add_n([a, b]), c)).backward()
        grads = [a.grad, b.grad, c.grad]
        for i, g in enumerate(grads):
            assert_array_equal(g, [1.0, 1.0])
            for other in grads[i + 1:]:
                assert not np.shares_memory(g, other)

    def test_scalar_and_broadcast_contributions(self):
        # a 0-d leaf gets a 0-d array, as a zero-filled start gives; a
        # contribution that broadcasts fills the node's shape
        s = Tensor(2.0, requires_grad=True)
        ad.l2_norm_sq(s).backward()
        assert isinstance(s.grad, np.ndarray) and s.grad.shape == () and s.grad == 4.0
        x = Tensor(np.zeros((1, 2, 2, 2)))
        weight = Tensor([1.0, 1.0])
        bias = Tensor([0.5], requires_grad=True)
        ad.reduce_sum(ad.affine_channel(x, weight, bias)).backward()
        assert bias.grad.shape == (1,) and bias.grad[0] == 4.0


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
        assert rows > _kernels.KERNEL_GRAD_CHUNK and rows % _kernels.KERNEL_GRAD_CHUNK

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


class TestRelease:
    """backward() frees each interior node's closure, parents and gradient
    once it has run the node; leaves keep their gradients."""

    @staticmethod
    def small_graph():
        """(leaves, interior tensors, root) of sum(pool(relu(conv(x))))."""
        rng = np.random.default_rng(17)
        x = Tensor(rng.normal(size=(2, 3, 9, 9)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        y = ad.conv2d(x, w, stride=1, padding=1, bias=b)
        r = ad.relu(y)
        p = ad.maxpool2d(r, 3, 2)
        return (x, w, b), [y, r, p], ad.reduce_sum(p)

    def test_interior_state_is_freed_and_leaf_grads_match(self):
        # reference: the same graph's closures called by hand, root first
        leaves, interior, root = self.small_graph()
        root.grad = np.asarray(1.0)
        for node in [root, *reversed(interior)]:
            node._backward_fn(node.grad)
        want = [leaf.grad for leaf in leaves]

        leaves, interior, root = self.small_graph()
        cols = inspect.getclosurevars(interior[0]._backward_fn).nonlocals["cols"]
        held = [weakref.ref(cols)] + [weakref.ref(t.data) for t in interior]
        del cols, interior
        root.backward()
        assert all(ref() is None for ref in held)
        assert root.grad is None
        for leaf, grad in zip(leaves, want):
            assert leaf.grad.dtype == grad.dtype and np.array_equal(leaf.grad, grad)

    def test_released_graph_cannot_run_backward_again(self):
        (x, w, b), interior, root = self.small_graph()
        root.backward()
        grads = [x.grad.copy(), w.grad.copy(), b.grad.copy()]
        with pytest.raises(RuntimeError, match="already released by a previous backward"):
            root.backward()
        # a new graph on a released interior tensor hits the same error
        with pytest.raises(RuntimeError, match="already released by a previous backward"):
            ad.reduce_sum(interior[1]).backward()
        for leaf, grad in zip((x, w, b), grads):
            assert_array_equal(leaf.grad, grad)
        # the leaves themselves start new graphs as before
        ad.reduce_sum(x).backward()
        assert_array_equal(x.grad, grads[0] + 1.0)

    def test_conv_backward_frees_columns_before_input_gradient(self):
        # paper layer c1 at batch 8, as in training: its float32 column
        # matrix would take 37 MB.  Besides its output, the forward keeps
        # the float32 padded input (2 MB) for backward, which gathers the
        # columns again an image at a time: 12.2 MB held after forward and a
        # 44.2 MB backward peak, against 47.5 and 65.9 MB when the columns
        # were kept
        n, c, size, o, k, padding = 8, 64, 27, 192, 5, 2
        gcols_bytes = n * size * size * c * k * k * np.dtype(np.float32).itemsize
        out_bytes = n * o * size * size * np.dtype(np.float64).itemsize
        rng = np.random.default_rng(5)
        x = Tensor(rng.uniform(size=(n, c, size, size)), requires_grad=True)
        w = Tensor(rng.normal(size=(o, c, k, k)) * 0.01, requires_grad=True)
        tracemalloc.start()
        try:
            root = ad.l2_norm_sq(ad.conv2d(x, w, stride=1, padding=padding))
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            root.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held < out_bytes + gcols_bytes / 4, (held, out_bytes, gcols_bytes)
        # the output and its gradient, and less than one column matrix
        assert peak < 2 * out_bytes + gcols_bytes, (peak, out_bytes, gcols_bytes)


# case -> (op over its tensor operands, operand shapes); a case is named by
# its op, and conv2d has a second case on the regather route
CLOSURE_CASES = {
    "add": (ad.add, [(2, 3), (2, 3)]),
    "add_n": (lambda *ts: ad.add_n(list(ts)), [(2, 3)] * 3),
    "affine_channel": (ad.affine_channel, [(2, 3, 4, 5), (3,), ()]),
    "conv2d": (lambda x, w, b: ad.conv2d(x, w, stride=2, padding=1, bias=b),
               [(2, 3, 7, 7), (4, 3, 3, 3), (4,)]),
    "conv2d/regather": (lambda x, w: ad.conv2d(x, w, stride=1, padding=1),
                        [(2, 3, 6, 6), (4, 3, 3, 3)]),
    "l2_norm_sq": (ad.l2_norm_sq, [(2, 3), (4,)]),
    "log_sigmoid": (ad.log_sigmoid, [(2, 3, 4)]),
    "maxpool2d": (lambda x: ad.maxpool2d(x, 3, 2), [(2, 3, 7, 7)]),
    "reduce_sum": (ad.reduce_sum, [(2, 3, 4)]),
    "relu": (ad.relu, [(2, 3, 4)]),
    "reshape": (lambda x: ad.reshape(x, (6, 4)), [(2, 3, 4)]),
    "scale": (lambda x: ad.scale(x, -1.5), [(2, 3, 4)]),
    "sigmoid": (ad.sigmoid, [(2, 3, 4)]),
    "weighted_sum": (lambda x: ad.weighted_sum(x, np.linspace(-1.0, 2.0, 24).reshape(x.shape)),
                     [(2, 3, 4)]),
}


class TestClosuresReadNoParentData:
    """A backward closure reads only arrays it captured in forward, never a
    parent's ``.data``: with every interior tensor's data replaced by NaN
    after forward, each op's backward gives the bytes of an untouched
    graph."""

    def test_every_op_has_a_case(self):
        ops = {case.split("/")[0] for case in CLOSURE_CASES}
        assert ops == set(ad.__all__) - {"Tensor", "float64_gemms"}

    @staticmethod
    def leaf_grads(case: str, drop: bool) -> list[bytes]:
        op, shapes = CLOSURE_CASES[case]
        rng = np.random.default_rng(41)
        leaves = [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]
        # interior operands; relu and maxpool2d meet zeros and ties too
        parents = [ad.scale(leaf, 1.0) for leaf in leaves]
        parents[0].data[..., ::3] = 0.0
        out = op(*parents)
        root = ad.weighted_sum(out, rng.normal(size=out.shape))
        if drop:
            for t in [*parents, out]:
                t.data = np.full(t.shape, np.nan)
        root.backward()
        return [leaf.grad.tobytes() for leaf in leaves]

    @pytest.mark.parametrize("case", sorted(CLOSURE_CASES))
    def test_backward_bytes_do_not_depend_on_parent_data(self, case, layer_rules):
        if case.endswith("/regather"):
            layer_rules("_REGATHER_MIN_COLS", 0)
        assert self.leaf_grads(case, drop=True) == self.leaf_grads(case, drop=False)


def conv_layers():
    """(input CHW, kernel OIKK, stride, padding) of every conv layer of
    every backbone preset, as test parameters."""
    for preset, spec in sorted(PRESETS.items()):
        convs = [row for row in layer_plan(spec, 1) if row.kind == "conv"]
        for i, row in enumerate(convs):
            kernel = (row.out_shape[1], row.in_shape[1], *row.kernel)
            yield pytest.param(row.in_shape[1:], kernel, row.stride, row.padding,
                               id=f"{preset}-c{i}")


def pool_layers():
    """(input CHW, window, stride) of every pool layer of every backbone
    preset, as test parameters."""
    for preset, spec in sorted(PRESETS.items()):
        pools = [row for row in layer_plan(spec, 1) if row.kind == "pool"]
        for i, row in enumerate(pools):
            yield pytest.param(row.in_shape[1:], row.kernel[0], row.stride,
                               id=f"{preset}-p{i}")


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
        assert _kernels._pool is not None

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
        assert _kernels._pool is not None
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)

        def child() -> None:
            send.send((digest(), _kernels._pool is not None))

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


def reference_conv_grads(x, w, stride, padding, upstream):
    """Input, kernel and bias gradients of a conv2d whose output received
    ``upstream``, at the GEMM precision of the current scope, by the
    full-column route: the input gradient's whole column matrix from one
    GEMM per image, its taps added into an NHWC buffer in reverse row-major
    order, and the kernel gradient's 128-row chunk products added one after
    another on one thread; each gradient starts from zeros."""
    dtype = np.float32 if conv_runs_float32() else np.float64
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    p, k = oh * ow, c * kh * kw
    padded = np.zeros((n, c, h + 2 * padding, wd + 2 * padding), dtype=dtype)
    padded[:, :, padding:padding + h, padding:padding + wd] = x
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride].transpose(0, 2, 3, 1, 4, 5)
    cols = np.empty((n, p, k), dtype=dtype)
    cols.reshape(windows.shape)[...] = windows
    wmat = w.reshape(o, k).astype(dtype)
    g = np.empty((n, p, o), dtype=dtype)
    g[...] = upstream.reshape(n, o, p).transpose(0, 2, 1)

    gw = np.zeros((o, k))
    rows, flat = g.reshape(n * p, o), cols.reshape(n * p, k)
    for r in range(0, n * p, 128):
        gw += rows[r:r + 128].T @ flat[r:r + 128]

    gcols = np.matmul(g, wmat)
    taps = gcols.reshape(n, oh, ow, c, kh, kw)
    gpad = np.zeros((n, h + 2 * padding, wd + 2 * padding, c))
    for i in range(kh - 1, -1, -1):
        for j in range(kw - 1, -1, -1):
            gpad[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += taps[..., i, j]
    crop = gpad[:, padding:padding + h, padding:padding + wd].transpose(0, 3, 1, 2)
    return [np.zeros(x.shape) + crop, np.zeros(w.shape) + gw.reshape(w.shape),
            np.zeros(o) + upstream.sum(axis=(0, 2, 3))]


@pytest.fixture
def serial_shares(split_ops, monkeypatch):
    """split_ops with the shares of each op run on the calling thread, one
    after another, so a test can ask for as many shares as a host with
    hundreds of CPUs would make without starting a thread for each."""
    def run_in_turn(tasks: list) -> None:
        for task in tasks:
            task()

    monkeypatch.setattr(_kernels, "_run_shares", run_in_turn)
    return split_ops


def conv_param_grads(x, w, b, stride, padding, coeff) -> list[np.ndarray]:
    """Input, kernel and bias gradients of sum(coeff * conv2d(x, w, b))."""
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    ad.weighted_sum(ad.conv2d(xt, wt, stride, padding, bt), coeff).backward()
    return [xt.grad, wt.grad, bt.grad]


class TestConvBackwardOracle:
    """conv2d's input, kernel and bias gradients equal, bit for bit, those of
    the full-column reference on every preset layer, at either GEMM
    precision and any worker count."""

    @staticmethod
    def assert_reference_bytes(set_workers, worker_counts, in_chw, k_shape, stride,
                               padding, gemms):
        x, w, b = conv_layer_inputs(in_chw, k_shape)
        scope = ad.float64_gemms() if gemms == "float64" else contextlib.nullcontext()
        with scope:
            shape = ad.conv2d(Tensor(x), Tensor(w), stride, padding).shape
            # upstream as a relu passes it on: signed zeros among the values
            rng = np.random.default_rng(53)
            coeff = rng.normal(size=shape) * (rng.random(size=shape) < 0.6)
            want = reference_conv_grads(x, w, stride, padding, np.zeros(shape) + coeff)
            for workers in worker_counts:
                set_workers(workers)
                got = conv_param_grads(x, w, b, stride, padding, coeff)
                for what, grad, ref in zip(("input", "kernel", "bias"), got, want):
                    assert grad.dtype == ref.dtype and grad.shape == ref.shape, what
                    assert grad.tobytes() == ref.tobytes(), (workers, what)

    @pytest.mark.parametrize("gemms", ["float32", "float64"])
    @pytest.mark.parametrize("in_chw, k_shape, stride, padding", list(conv_layers()))
    def test_gradients_match_full_column_reference(
        self, split_ops, in_chw, k_shape, stride, padding, gemms
    ):
        self.assert_reference_bytes(split_ops, (0, 1, 2), in_chw, k_shape, stride,
                                    padding, gemms)

    @pytest.mark.parametrize("gemms", ["float32", "float64"])
    @pytest.mark.parametrize("in_chw, k_shape, stride, padding", list(conv_layers()))
    def test_shares_of_few_channels_match_reference(
        self, serial_shares, in_chw, k_shape, stride, padding, gemms
    ):
        # the shares a host with one CPU per 1, 2 or 4 output channels asks
        # for; the kernel gradient makes none of fewer than two channels
        o = k_shape[0]
        self.assert_reference_bytes(serial_shares, (o - 1, o // 2 - 1, o // 4 - 1),
                                    in_chw, k_shape, stride, padding, gemms)

    @pytest.mark.parametrize("gemms", ["float32", "float64"])
    @pytest.mark.parametrize("in_chw, k_shape, stride, padding", [
        *conv_layers(),
        # 3 x 49 rows: the one 128-row chunk straddles all three images
        pytest.param((4, 9, 9), (8, 4, 3, 3), 1, 0, id="7x7-output"),
        # 3 x 100 rows: the second image's last 72 rows wait for the third's
        pytest.param((3, 12, 12), (8, 3, 3, 3), 1, 0, id="10x10-output"),
        # one row per image: numpy hands the products to gemv
        pytest.param((64, 3, 3), (128, 64, 3, 3), 1, 0, id="1x1-output"),
        pytest.param((1, 40, 40), (16, 1, 1, 1), 1, 0, id="1x1-kernel-1-channel"),
    ])
    def test_regathered_columns_match_reference(
        self, serial_shares, layer_rules, in_chw, k_shape, stride, padding, gemms
    ):
        # every layer keeps no columns and gathers them again in backward,
        # at shares of 1, 2 and 4 output channels and unsplit
        layer_rules("_REGATHER_MIN_COLS", 0)
        o = k_shape[0]
        self.assert_reference_bytes(serial_shares, (0, o - 1, o // 2 - 1, o // 4 - 1),
                                    in_chw, k_shape, stride, padding, gemms)

    @pytest.mark.parametrize("gemms", ["float32", "float64"])
    def test_gemv_products_do_not_depend_on_shares(self, serial_shares, gemms):
        # numpy hands a product with one row or one column to gemv, which
        # rounds by its row count: a 1x1 output gives one row per image, a
        # one-channel 1x1 kernel a kernel gradient of one column
        rng = np.random.default_rng(59)
        cases = [(rng.normal(size=(5, 64, 3, 3)), rng.normal(size=(128, 64, 3, 3)) / 24),
                 (rng.normal(size=(5, 1, 40, 40)), rng.normal(size=(16, 1, 1, 1)))]
        scope = ad.float64_gemms() if gemms == "float64" else contextlib.nullcontext()
        with scope:
            for case, (x, w) in enumerate(cases):
                b = np.zeros(len(w))
                shape = ad.conv2d(Tensor(x), Tensor(w)).shape
                coeff = rng.normal(size=shape)
                runs = {}
                for workers in (0, 1, 2, 4, len(w) - 1):
                    serial_shares(workers)
                    runs[workers] = conv_param_grads(x, w, b, 1, 0, coeff)
                for workers, got in runs.items():
                    for what, grad, ref in zip(("input", "kernel", "bias"), got, runs[0]):
                        assert grad.tobytes() == ref.tobytes(), (case, workers, what)


def stale_empty(monkeypatch) -> None:
    """Make every array np.empty returns start as 0xFF bytes, as memory an
    earlier layer freed would."""
    real = np.empty

    def stale(*args, **kwargs):
        out = real(*args, **kwargs)
        out.reshape(-1).view(np.uint8).fill(0xFF)
        return out

    monkeypatch.setattr(np, "empty", stale)


class TestForwardOnly:
    """conv2d and maxpool2d without any operand that requires a gradient take
    a forward-only branch; it gives the bytes of the graph path, at any
    worker count, whatever its temporaries held before."""

    @pytest.mark.parametrize("gemms", ["float32", "float64"])
    @pytest.mark.parametrize("in_chw, k_shape, stride, padding", list(conv_layers()))
    def test_conv_bytes_match_graph(
        self, split_ops, in_chw, k_shape, stride, padding, gemms, monkeypatch
    ):
        x, w, b = conv_layer_inputs(in_chw, k_shape)
        scope = ad.float64_gemms() if gemms == "float64" else contextlib.nullcontext()
        with scope:
            want = conv_bytes(x, w, b, stride, padding)[0]
            stale_empty(monkeypatch)
            for workers in (0, 1, 2):
                split_ops(workers)
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

    def test_concurrent_response_grids_give_serial_bytes(self, split_ops):
        # each caller's forward-only ops fill temporaries of their own, also
        # in the shares pool threads run for them
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
