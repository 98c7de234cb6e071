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

from conftest import graph_sum


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
        out = graph_sum(ad.relu(a))
        out.backward()
        assert a.grad is None

    def test_diamond_graph_accumulates(self):
        # z = sum(x) + sum(x): gradient is 2 everywhere
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        s = graph_sum(x)
        z = ad.node(s.data + s.data, (s, s),
                    lambda grad: [s._accumulate(grad) for _ in range(2)])
        z.backward()
        assert_array_equal(x.grad, [2.0, 2.0, 2.0])


class TestAccumulate:
    """A node's first gradient is 0.0 + the first contribution, in a fresh
    array of the node's shape."""

    def test_first_contribution_of_negative_zero_gives_positive_zero(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        graph_sum(x, np.full(3, -0.0)).backward()  # contributions 1 * -0.0
        assert np.array_equal(x.grad, np.zeros(3))
        assert not np.signbit(x.grad).any()

    def test_parents_handed_one_array_get_their_own_gradients(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        c = Tensor([5.0, 6.0], requires_grad=True)
        # a + b + c, whose closure hands the same array to every parent
        total = ad.node(a.data + b.data + c.data, (a, b, c),
                        lambda grad: [t._accumulate(grad) for t in (a, b, c)])
        graph_sum(total).backward()
        grads = [a.grad, b.grad, c.grad]
        for i, g in enumerate(grads):
            assert_array_equal(g, [1.0, 1.0])
            for other in grads[i + 1:]:
                assert not np.shares_memory(g, other)

    def test_fresh_contribution_is_kept_as_the_gradient(self):
        # a fresh first contribution becomes the gradient itself, -0.0 made
        # +0.0 in place; a later one is added into it
        x = Tensor(np.ones(3), requires_grad=True)
        first = np.array([-0.0, 2.0, -3.0])
        x._accumulate(first, fresh=True)
        assert x.grad is first
        assert_array_equal(x.grad, [0.0, 2.0, -3.0])
        assert not np.signbit(x.grad[0])
        x._accumulate(np.ones(3), fresh=True)
        assert x.grad is first
        assert_array_equal(x.grad, [1.0, 3.0, -2.0])

    def test_fresh_contribution_that_broadcasts_is_copied(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        row = np.array([-0.0, 1.0, 2.0])
        x._accumulate(row, fresh=True)
        assert x.grad.shape == (2, 3) and not np.shares_memory(x.grad, row)
        assert x.grad.tobytes() == np.tile([0.0, 1.0, 2.0], (2, 1)).tobytes()

    def test_scalar_and_broadcast_contributions(self):
        # a 0-d leaf gets a 0-d array, as a zero-filled start gives; a
        # contribution that broadcasts fills the node's shape
        s = Tensor(2.0, requires_grad=True)
        ad.l2_norm_sq(s).backward()
        assert isinstance(s.grad, np.ndarray) and s.grad.shape == () and s.grad == 4.0
        x = Tensor(np.zeros((1, 2, 2, 2)))
        weight = Tensor([1.0, 1.0])
        bias = Tensor([0.5], requires_grad=True)
        graph_sum(ad.affine_channel(x, weight, bias)).backward()
        assert bias.grad.shape == (1,) and bias.grad[0] == 4.0


class TestPointwiseOps:
    def test_relu_values_and_grad(self):
        x = np.array([-2.0, 0.0, 3.0])
        t = Tensor(x, requires_grad=True)
        out = ad.relu(t)
        assert_array_equal(out.data, [0.0, 0.0, 3.0])
        graph_sum(out).backward()
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
            return graph_sum(ad.sigmoid(leaf)), leaf

        check_grad(build, x)



class TestReductions:
    def test_l2_norm_sq(self):
        x = np.array([1.0, -2.0, 2.0])
        t = Tensor(x, requires_grad=True)
        out = ad.l2_norm_sq(t)
        assert out.data == 9.0
        out.backward()
        assert_array_equal(t.grad, 2.0 * x)

    @pytest.mark.parametrize("workers", [0, 1])
    @pytest.mark.parametrize("size", [1, _kernels.ELEMENT_BLOCK - 1,
                                      _kernels.ELEMENT_BLOCK,
                                      _kernels.ELEMENT_BLOCK + 1,
                                      2 * _kernels.ELEMENT_BLOCK + 3, 663_552])
    def test_blocked_gradient_bytes(self, size, workers, op_pool, monkeypatch):
        # the gradient is added block by block, split over the pool when
        # workers is 1 and the size reaches the split rule (here every
        # size), into an existing gradient and into none: the bytes of
        # grad + 2 * g * x and of 0.0 + 2 * g * x
        op_pool(workers)
        monkeypatch.setattr(_kernels, "_SPLIT_MIN_ELEMENTS", 1)
        rng = np.random.default_rng(size)
        data = rng.normal(size=size)
        data[::7] = -0.0
        upstream = 0.37
        for start in (None, rng.normal(size=size)):
            t = Tensor(data.copy(), requires_grad=True)
            if start is not None:
                t.grad = start.copy()
            out = ad.l2_norm_sq(t)
            graph_sum(out, upstream).backward()
            scaled = 2.0 * float(np.asarray(upstream)) * data
            want = (np.zeros(size) if start is None else start) + scaled
            assert t.grad.tobytes() == want.tobytes()

    def test_gradient_of_another_layout_is_added_in_place(self):
        # a transposed leaf's first gradient takes its layout, which has no
        # flat view: the L2 term is added into it whole
        data = np.random.default_rng(54).normal(size=(3, 4)).T
        t = Tensor(data, requires_grad=True)
        coeff = np.arange(12.0).reshape(4, 3)
        graph_sum(t, coeff).backward()
        grad = t.grad
        assert not grad.flags.c_contiguous
        ad.l2_norm_sq(t).backward()
        assert t.grad is grad
        assert t.grad.tobytes() == ((coeff + 0.0) + 2.0 * data).tobytes()



class TestShapeOps:
    def test_reshape_round_trip_grad(self):
        x = np.arange(12.0)
        t = Tensor(x, requires_grad=True)
        out = ad.reshape(t, (3, 4))
        assert out.shape == (3, 4)
        graph_sum(out).backward()
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
            return graph_sum(out), leaf

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
            return graph_sum(out), leaf

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
        graph_sum(out).backward()
        graph_sum(ref).backward()
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
        graph_sum(ad.maxpool2d(t, window=2, stride=2)).backward()
        expected = np.zeros((1, 1, 4, 4))
        for i, j in [(1, 1), (1, 3), (3, 1), (3, 3)]:
            expected[0, 0, i, j] = 1.0
        assert_array_equal(t.grad, expected)

    def test_tie_goes_to_first_occurrence(self):
        x = np.full((1, 1, 2, 2), 7.0)
        t = Tensor(x, requires_grad=True)
        graph_sum(ad.maxpool2d(t, window=2, stride=2)).backward()
        expected = np.zeros((1, 1, 2, 2))
        expected[0, 0, 0, 0] = 1.0  # row-major first among equals
        assert_array_equal(t.grad, expected)

    def test_overlap_accumulates_gradient(self):
        # one cell is the max of several overlapping windows
        x = np.zeros((1, 1, 3, 3))
        x[0, 0, 1, 1] = 9.0
        t = Tensor(x, requires_grad=True)
        graph_sum(ad.maxpool2d(t, window=2, stride=1)).backward()
        assert t.grad[0, 0, 1, 1] == 4.0

    def test_gradient_fd_random(self):
        rng = np.random.default_rng(8)
        # distinct values so the argmax is FD-stable
        x = rng.permutation(36).astype(np.float64).reshape(1, 1, 6, 6)

        def build():
            leaf = Tensor(x, requires_grad=True)
            return graph_sum(ad.maxpool2d(leaf, window=2, stride=2)), leaf

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
            return graph_sum(out), leaf

        check_grad(build_w, w)

        def build_b():
            leaf = Tensor(b, requires_grad=True)
            out = ad.affine_channel(Tensor(x), Tensor(w), leaf)
            return graph_sum(out), leaf

        check_grad(build_b, b, coords=[()])

        def build_x():
            leaf = Tensor(x, requires_grad=True)
            out = ad.affine_channel(leaf, Tensor(w), Tensor(b))
            return graph_sum(out), leaf

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
            loss = graph_sum(y)
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
        return (x, w, b), [y, r, p], graph_sum(p)

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
            graph_sum(interior[1]).backward()
        for leaf, grad in zip((x, w, b), grads):
            assert_array_equal(leaf.grad, grad)
        # the leaves themselves start new graphs as before
        graph_sum(x).backward()
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
    "affine_channel": (ad.affine_channel, [(2, 3, 4, 5), (3,), ()]),
    "conv2d": (lambda x, w, b: ad.conv2d(x, w, stride=2, padding=1, bias=b),
               [(2, 3, 7, 7), (4, 3, 3, 3), (4,)]),
    "conv2d/regather": (lambda x, w: ad.conv2d(x, w, stride=1, padding=1),
                        [(2, 3, 6, 6), (4, 3, 3, 3)]),
    "conv2d/relu": (lambda x, w, b: ad.conv2d(x, w, stride=2, padding=1, bias=b,
                                              relu=True),
                    [(2, 3, 7, 7), (4, 3, 3, 3), (4,)]),
    "conv2d/relu/regather": (lambda x, w: ad.conv2d(x, w, stride=1, padding=1,
                                                    relu=True),
                             [(2, 3, 6, 6), (4, 3, 3, 3)]),
    "l2_norm_sq": (ad.l2_norm_sq, [(2, 3), (4,)]),
    "maxpool2d": (lambda x: ad.maxpool2d(x, 3, 2), [(2, 3, 7, 7)]),
    "relu": (ad.relu, [(2, 3, 4)]),
    "reshape": (lambda x: ad.reshape(x, (6, 4)), [(2, 3, 4)]),
    "sigmoid": (ad.sigmoid, [(2, 3, 4)]),
}


class TestClosuresReadNoParentData:
    """A backward closure reads only arrays it captured in forward, never a
    parent's ``.data``: with every interior tensor's data replaced by NaN
    after forward, each op's backward gives the bytes of an untouched
    graph."""

    def test_every_op_has_a_case(self):
        # a node made with ad.node runs its caller's closure
        ops = {case.split("/")[0] for case in CLOSURE_CASES}
        assert ops == set(ad.__all__) - {"Tensor", "float64_gemms", "node"}

    @staticmethod
    def leaf_grads(case: str, drop: bool) -> list[bytes]:
        op, shapes = CLOSURE_CASES[case]
        rng = np.random.default_rng(41)
        leaves = [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]
        # interior operands, views of the leaves' data; relu and maxpool2d
        # meet zeros and ties too
        parents = [ad.reshape(leaf, leaf.shape) for leaf in leaves]
        parents[0].data[..., ::3] = 0.0
        out = op(*parents)
        root = graph_sum(out, rng.normal(size=out.shape))
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
            graph_sum(out, coeff).backward()
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


def relu_edge_inputs(in_chw, k_shape, gemms: str):
    """Input, kernel and bias of one conv layer whose pre-activations hold
    exact +0.0 and NaN besides positive and negative values: the second
    image's products underflow to signed zeros in the GEMM's precision and
    the third image is zero, so both give zeros where the bias is +-0.0, and
    the bias of channel 2 is NaN."""
    x, w, b = conv_layer_inputs(in_chw, k_shape)
    tiny = 1e-30 if gemms == "float32" else 1e-170
    w *= tiny
    x[1] = -tiny
    x[2] = 0.0
    b[:] = np.where(np.arange(len(b)) % 2, -0.0, 0.0)
    b[2] = np.nan
    return x, w, b


def relu_conv_bytes(x, w, b, stride, padding, fused: bool) -> list[bytes]:
    """Output and input, kernel and bias gradient bytes of conv2d + relu, as
    one fused node or as two."""
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    if fused:
        out = ad.conv2d(xt, wt, stride, padding, bt, relu=True)
    else:
        out = ad.relu(ad.conv2d(xt, wt, stride, padding, bt))
    coeff = np.random.default_rng(53).normal(size=out.shape)
    graph_sum(out, coeff).backward()
    return [a.tobytes() for a in (out.data, xt.grad, wt.grad, bt.grad)]


class TestFusedRelu:
    """conv2d with relu=True gives the bytes of conv2d followed by relu: its
    output and every gradient, at 1 and 2 shares, for both GEMM
    precisions."""

    @pytest.mark.parametrize("gemms", ["float32", "float64"])
    @pytest.mark.parametrize("in_chw, k_shape, stride, padding", list(conv_layers()))
    def test_bytes_match_conv_then_relu(
        self, split_ops, in_chw, k_shape, stride, padding, gemms
    ):
        x, w, b = relu_edge_inputs(in_chw, k_shape, gemms)
        scope = ad.float64_gemms() if gemms == "float64" else contextlib.nullcontext()
        with scope:
            pre = ad.conv2d(Tensor(x, requires_grad=True), Tensor(w), stride,
                            padding, Tensor(b)).data
            assert (pre > 0).any() and (pre < 0).any() and np.isnan(pre).any()
            assert (pre == 0).any()
            for workers in (0, 1):
                split_ops(workers)
                got = relu_conv_bytes(x, w, b, stride, padding, fused=True)
                want = relu_conv_bytes(x, w, b, stride, padding, fused=False)
                for what, g, e in zip(("output", "input grad", "kernel grad",
                                       "bias grad"), got, want):
                    assert g == e, (workers, what)

    @pytest.mark.parametrize("gemms", ["float32", "float64"])
    @pytest.mark.parametrize("in_chw, k_shape, stride, padding", list(conv_layers()))
    def test_forward_only_bytes_match_conv_then_relu(
        self, split_ops, in_chw, k_shape, stride, padding, gemms
    ):
        x, w, b = relu_edge_inputs(in_chw, k_shape, gemms)
        scope = ad.float64_gemms() if gemms == "float64" else contextlib.nullcontext()
        with scope:
            for workers in (0, 1):
                split_ops(workers)
                got = ad.conv2d(Tensor(x), Tensor(w), stride, padding, Tensor(b),
                                relu=True)
                pre = ad.conv2d(Tensor(x), Tensor(w), stride, padding, Tensor(b))
                assert got._backward_fn is None
                assert got.data.tobytes() == ad.relu(pre).data.tobytes(), workers

    def test_negative_zero_pre_activations(self):
        # where every product underflows, the graph GEMMs gave +0.0, but the
        # forward-only float32 route gives -0.0 for some outputs on desk c0:
        # relu maps both to the same bytes, fused or not
        in_chw, k_shape, stride, padding = next(iter(conv_layers())).values
        x, w, b = relu_edge_inputs(in_chw, k_shape, "float32")
        pre = ad.conv2d(Tensor(x), Tensor(w), stride, padding, Tensor(b)).data
        assert np.signbit(pre[pre == 0]).any()
        got = ad.conv2d(Tensor(x), Tensor(w), stride, padding, Tensor(b), relu=True)
        assert got.data.tobytes() == ad.relu(Tensor(pre)).data.tobytes()
        assert not np.signbit(got.data[got.data == 0]).any()


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
    graph_sum(ad.conv2d(xt, wt, stride, padding, bt), coeff).backward()
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


class TestWindows:
    """_windows is sliding_window_view plus the stride slice, as one
    read-only as_strided view."""

    @pytest.mark.parametrize("stride", [1, 2, 3, 4])
    @pytest.mark.parametrize("kh, kw", [(1, 1), (2, 2), (3, 3), (5, 5), (11, 11),
                                        (1, 3), (4, 2), (7, 11)])
    def test_matches_sliding_window_view(self, kh, kw, stride):
        rng = np.random.default_rng(kh * 100 + kw * 10 + stride)
        for shape in [(2, 3, 11, 11), (1, 1, 12, 17), (3, 2, 23, 14), (2, 11, 11)]:
            x = rng.normal(size=shape)
            inputs = [x, x[..., ::2, 1:], np.swapaxes(x, -1, -2)]
            for arr in inputs:
                if kh > arr.shape[-2] or kw > arr.shape[-1]:
                    continue
                want = np.lib.stride_tricks.sliding_window_view(
                    arr, (kh, kw), axis=(-2, -1))[..., ::stride, ::stride, :, :]
                got = ad._windows(arr, kh, kw, stride)
                assert got.shape == want.shape, (shape, arr.strides)
                assert got.tobytes() == want.tobytes(), (shape, arr.strides)
                assert not got.flags.writeable
                assert np.shares_memory(got, arr)


def window_view_columns(x, w, stride, padding, dtype):
    """The (n * oh * ow, c * kh * kw) columns by one copy of the row-major
    window view, as conv2d gathered its kept columns before staging them
    channel-major."""
    n, c, h, wd = x.shape
    _, _, kh, kw = w.shape
    padded = np.zeros((n, c, h + 2 * padding, wd + 2 * padding), dtype=dtype)
    padded[:, :, padding:padding + h, padding:padding + wd] = x
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride].transpose(0, 2, 3, 1, 4, 5)
    cols = np.empty(windows.shape, dtype=dtype)
    cols[...] = windows
    return cols.reshape(-1, c * kh * kw)


class TestKeptColumns:
    """A conv2d that keeps its columns stages them channel-major and then
    transposes them; the columns, the output and every gradient are the
    bytes of the one-copy window view."""

    @pytest.mark.parametrize("gemms", ["float32", "float64"])
    @pytest.mark.parametrize("in_chw, k_shape, stride, padding", [
        *(p for p in conv_layers() if p.id.startswith("desk")),
        pytest.param((1, 12, 12), (4, 1, 5, 5), 1, 2, id="5x5-stride-1-1-channel"),
        pytest.param((3, 13, 13), (6, 3, 1, 1), 3, 0, id="1x1-stride-3"),
        pytest.param((2, 17, 17), (5, 2, 5, 5), 3, 1, id="5x5-stride-3"),
        pytest.param((1, 9, 9), (4, 1, 1, 1), 1, 0, id="1x1-1-channel"),
    ])
    def test_columns_and_bytes_match_window_view(
        self, in_chw, k_shape, stride, padding, gemms, monkeypatch
    ):
        x, w, b = conv_layer_inputs(in_chw, k_shape, n=8)
        assert not _kernels.conv_row(x.shape, w.shape, stride, padding).regather
        kept = []
        real = ad._chunked_product_sum

        def recording(rows, blocks, width, shares):
            blocks = list(blocks)
            kept.extend(block.copy() for block in blocks)
            return real(rows, blocks, width, shares)

        monkeypatch.setattr(ad, "_chunked_product_sum", recording)
        scope = ad.float64_gemms() if gemms == "float64" else contextlib.nullcontext()
        with scope:
            dtype = np.float32 if conv_runs_float32() else np.float64
            xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
            out = ad.conv2d(xt, wt, stride, padding, bt)
            rng = np.random.default_rng(61)
            coeff = rng.normal(size=out.shape) * (rng.random(size=out.shape) < 0.6)
            graph_sum(out, coeff).backward()
            want_grads = reference_conv_grads(x, w, stride, padding,
                                              np.zeros(out.shape) + coeff)
        cols = window_view_columns(x, w, stride, padding, dtype)
        assert len(kept) == 1 and kept[0].dtype == dtype
        assert kept[0].tobytes() == cols.tobytes()
        n, o = x.shape[0], w.shape[0]
        prod = np.matmul(cols.reshape(n, -1, cols.shape[1]),
                         w.reshape(o, -1).astype(dtype).T)
        want = np.empty(out.shape)
        want.reshape(n, o, -1)[...] = prod.transpose(0, 2, 1)
        want += b[None, :, None, None]
        assert out.data.tobytes() == want.tobytes()
        for what, grad, ref in zip(("input", "kernel", "bias"),
                                   (xt.grad, wt.grad, bt.grad), want_grads):
            assert grad.tobytes() == ref.tobytes(), what


def loop_product_sum(rows, blocks, width):
    """rows.T @ flat as the parent summed it: one matmul per 128-row chunk,
    each product added in ascending order into a zero float64 matrix."""
    flat = np.concatenate(blocks)
    gw = np.zeros((rows.shape[1], width))
    for r in range(0, len(flat), _kernels.KERNEL_GRAD_CHUNK):
        chunk = slice(r, r + _kernels.KERNEL_GRAD_CHUNK)
        gw += np.matmul(rows[chunk].T, flat[chunk])
    return gw


class TestChunkedProductSum:
    """The kernel-gradient reduction gives the bytes of the per-chunk loop,
    whether its whole chunks come from one batched matmul or one matmul
    each, in one block or several, on one share or two."""

    @pytest.mark.parametrize("shares", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("o, width", [(8, 25), (16, 72)])  # desk c0 and c1
    @pytest.mark.parametrize("chunks", [1, 2, 64])
    @pytest.mark.parametrize("ragged", [0, 37])
    def test_matches_per_chunk_loop(self, serial_shares, chunks, ragged, o, width,
                                    dtype, shares):
        serial_shares(shares - 1)
        rng = np.random.default_rng(chunks * 10 + ragged)
        count = chunks * _kernels.KERNEL_GRAD_CHUNK + ragged
        rows = rng.normal(size=(count, o)).astype(dtype)
        flat = rng.normal(size=(count, width)).astype(dtype)
        split = (chunks // 2) * _kernels.KERNEL_GRAD_CHUNK
        for blocks in ([flat], [flat[:split], flat[split:]] if split else [flat]):
            want = loop_product_sum(rows, blocks, width)
            got = ad._chunked_product_sum(rows, iter(blocks), width, shares)
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes(), len(blocks)

    @pytest.mark.parametrize("chunks", [1, 2, 64])
    def test_first_negative_zero_product_gives_positive_zero(
        self, serial_shares, chunks, monkeypatch
    ):
        # gemm gives +0.0 for a sum of zero products, so every zero it
        # returns is made -0.0 here; the sum starts from 0.0 + product
        real = np.matmul

        def negative_zeros(*args, **kwargs):
            product = real(*args, **kwargs)
            product[product == 0.0] = -0.0
            return product

        monkeypatch.setattr(np, "matmul", negative_zeros)
        rng = np.random.default_rng(67)
        count = chunks * _kernels.KERNEL_GRAD_CHUNK
        rows = rng.normal(size=(count, 8)).astype(np.float32)
        rows[:, 0] = 0.0
        flat = rng.normal(size=(count, 25)).astype(np.float32)
        for shares in (1, 2):
            serial_shares(shares - 1)
            got = ad._chunked_product_sum(rows, [flat], 25, shares)
            assert np.all(got[0] == 0.0) and not np.signbit(got[0]).any()
            assert got.tobytes() == loop_product_sum(rows, [flat], 25).tobytes()
