"""Reverse-mode automatic differentiation over dense arrays.

The op set is what the backbone, the response layer and the L2 penalty
need: 2-D cross-correlation (with or without the relu that follows it, as
one node), max pooling, relu and sigmoid, a shared channel contraction, a
reshape, and the squared L2 norm.  The bag losses are not
built from ops: ``heads.bag_loss`` computes a head's value and its gradient
with respect to the instance logits in plain numpy, and
``training.batch_objective`` puts them under one node made by :func:`node`,
the constructor for nodes built outside this module.

A fresh graph is built for every batch.  Tensors are treated as immutable
once they enter a graph, with one exception: an interior tensor's ``.data``
may be swapped for a stand-in of the same shape and dtype once every node
that reads it in forward is built.  That is safe because of this module's
rule for backward closures: a closure reads only arrays it captured in
forward, never a parent's ``.data`` (``_accumulate`` takes the parent's
shape from its stand-in).

Memory: backward releases the graph as it runs it.  Each interior node
loses its closure, its parents and its gradient before its closure runs, so
every kept array and every interior gradient is freed once the last closure
that reads it has returned.  The backbone ops keep only what their backward
reads, never their input or their output: relu keeps its output's mask
(``out > 0``), maxpool2d its argmax, conv2d its columns or their source,
and the relu's mask when it rectifies its own output.  So
``model.forward_backbone`` can drop each large activation as soon as the
next layer is built (see there).  A conv2d whose row keeps its columns
(``_kernels.conv_row``: a small im2col matrix, as on every desk layer)
keeps that matrix for its kernel gradient; one whose row regathers (every
paper layer) keeps only its float32 padded input, gathers each image's
columns into one buffer per thread in forward, and gathers them again in
backward, an image at a time, into a buffer of one image's rows plus one
chunk.  At the paper preset, batch 8, regathering cut what a step holds
after forward from 164.8 to 88.6 MiB and its backward peak from 174.5 to
113.4 MiB (tracemalloc); dropping the activations then cut them to 28.2
and 60.4 MiB.  A conv2d that rectifies its output applies relu's backward
in the gradient it is handed, and ``Tensor._accumulate`` keeps a fresh
contribution (the pool's input gradient, the kernel gradient, the bias
sums) as the gradient instead of copying it, which cut the backward peak
to 54.6 MiB.  Backward frees the columns or their source as soon as the
kernel gradient is reduced, and builds the input gradient one kernel row
at a time, so the input gradient's column matrix never exists whole.
Leaves keep their ``.grad``.  A second backward through a released node
raises RuntimeError.

Precision: tensor values and gradients are float64, and so are the
parameters, optimizer moments and checkpoints built on them.  The only
float32 values are the operands of conv2d's three GEMMs (the im2col
columns and the padded input they are gathered from, the kernel matrix and
the upstream gradient); each GEMM product is upcast to float64 before the
bias is added or anything is accumulated.  Inside ``with float64_gemms():``
those operands are float64 too; the gradient check runs there, because
central differences need the objective to full float64 precision.  Against
that exact mode, the float32 operands moved conv outputs and gradients by
under 1e-6 of their largest magnitude on every preset layer with random
inputs; the tests allow 1e-5.

Determinism: the conv kernel gradient is reduced by BLAS over row chunks of
at most ``_kernels.KERNEL_GRAD_CHUNK`` rows, and the chunk products are
summed in ascending order into a float64 accumulator; the conv input
gradient adds the kernel taps in a fixed order, and each tap's product
rounds as it would in one GEMM over all taps.  This holds for sgemm as for
dgemm, so repeated runs on identical inputs produce bitwise-identical
values and gradients, at 1 and at 2 BLAS threads alike, with the kernel that
OpenBLAS 0.3.31 selects on an AVX-512 x86-64 CPU (SkylakeX).  Its AVX2
kernel (Haswell) rounds some chunk products differently at 2 threads, and
by the number of output channels a GEMM holds.  Gathered columns are
copies: the forward runs the same per-image GEMM on them, and the
regathered rows reach the kernel gradient in the same 128-row chunks, a
chunk that straddles two images included, so either route gives the same
bytes.

The same holds at any core count.  A large conv2d or maxpool2d is shared
by the calling thread and a process-wide pool with one thread per further
CPU the process may run on, as its row's shares say (``_kernels``).  The
work splits only at image boundaries, and every image goes through the
same BLAS calls and the same sums as it would unsplit.  The kernel gradient
splits by output channel instead: each thread sums the chunk products of
its channels in the same ascending order, and the split is made only into
shares of at least two channels whose products stay GEMMs, as gemv rounds
by its row count.  Its GEMMs are never split by input channel (their
result columns): split after a third of the channels, dgemm gave other
bytes on paper c1 and c4.  Only the copy that gathers an image's columns
again splits by input channel.

Forward-only branches: when no operand of conv2d or maxpool2d requires a
gradient, as in ``model.response_grids``, the op builds no graph state and
gives the same bytes by a cheaper route.  A conv2d that rectifies its
output does so in place in each share, as in a graph, and keeps no mask.
conv2d lays its float32 im2col columns out channel-major, (n, c*kh*kw,
oh*ow), so the kernel matrix times the columns lands in NCHW order with no
transpose; with OpenBLAS 0.3.31, sgemm rounds each output as it does from
the graph path's row-major columns, but for the sign of a zero: where every
product underflows, as on subnormal-scale inputs, the graph path gives
+0.0 and this route may give -0.0, which relu maps to the same bytes.
dgemm does not (paper layers c0 and c1), so float64 operands keep the
graph's layout.  Its padded input, columns and GEMM product are views of
one allocation.  maxpool2d takes np.maximum tap by tap in row-major
window order with the running max as the second argument, which numpy
returns on a tie (-0.0 against +0.0 too), so the earlier tap wins as in
argmax.

Subgradient conventions: relu'(0) = 0, and max pooling breaks ties toward
the smallest original index.
"""

from __future__ import annotations

import contextlib
import contextvars
from functools import partial

import numpy as np

from . import _kernels

__all__ = [
    "Tensor",
    "affine_channel",
    "conv2d",
    "float64_gemms",
    "l2_norm_sq",
    "maxpool2d",
    "node",
    "relu",
    "reshape",
    "sigmoid",
]


class Tensor:
    """A float64 array plus the bookkeeping for reverse-mode differentiation.

    ``grad`` is populated by :meth:`backward` and holds an array of the same
    shape as ``data``.  Leaf tensors are created directly; interior nodes are
    created by the op functions in this module and carry a closure that
    routes the upstream gradient to their parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"

    def _accumulate(self, contribution: np.ndarray, fresh: bool = False) -> None:
        """Add a contribution to this node's gradient.

        The first one becomes the gradient as 0.0 + the contribution, what a
        zero-filled start would hold: IEEE addition commutes, so -0.0
        becomes +0.0, and a contribution that broadcasts fills the node's
        shape.  It goes into a fresh array, never the caller's, unless the
        caller passes ``fresh``: a writable float64 array that nothing else
        holds, which is kept as the gradient, +0.0 added in place, when it
        has the node's shape.
        """
        if self.grad is None:
            if fresh and contribution.shape == self.data.shape:
                self.grad = np.add(contribution, 0.0, out=contribution)
            else:
                self.grad = np.add(contribution, 0.0, out=np.empty_like(self.data),
                                   dtype=np.float64)
        else:
            self.grad += contribution

    def backward(self) -> None:
        """Run reverse-mode accumulation from this scalar node.

        Visits every reachable node exactly once, in reverse topological
        order.  Gradients accumulate into ``.grad`` of every leaf on the
        path that has ``requires_grad`` set.  The graph is released as it
        goes: each interior node, this one included, drops its closure, its
        parents and its ``.grad`` (None afterwards) when it is visited, and
        leaves keep their ``.grad``.  Raises RuntimeError, before any
        gradient is touched, when the graph reaches a node that a previous
        backward() has released.
        """
        if self.data.shape != ():
            raise ValueError(
                f"backward() requires a scalar node, got shape {self.data.shape}"
            )
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward_fn is _released:
                raise RuntimeError(_RELEASED)
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.asarray(1.0)
        while topo:
            node = topo.pop()
            backward_fn, grad = node._backward_fn, node.grad
            if backward_fn is None:
                continue  # a leaf keeps its gradient
            node._backward_fn, node._parents, node.grad = _released, (), None
            if grad is not None:
                backward_fn(grad)


_RELEASED = (
    "this graph was already released by a previous backward(); build it "
    "again to differentiate it again"
)


def _released(grad: np.ndarray) -> None:
    """The closure of a node that backward() has released."""
    raise RuntimeError(_RELEASED)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    # the closure is kept only when a parent requires a gradient, so that of
    # a one-parent op need not check its parent
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    return out


def node(data, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """A graph node built outside this module, as ``training.batch_objective``
    builds its root: value ``data``, and ``backward_fn(grad)`` to route the
    node's gradient to ``parents``, calling ``_accumulate`` on each.

    The closure follows this module's rule: it reads only arrays it captured
    when the node was built, never a parent's ``.data``.  As with the ops
    here, it is kept, and run, only when some parent requires a gradient.
    The ops themselves call ``_node``, so that a wrapper of this function
    sees only the nodes built outside the module.
    """
    return _node(np.asarray(data, dtype=np.float64), tuple(parents), backward_fn)


# ---------------------------------------------------------------------------
# convolution and pooling

# dtype of the conv GEMM operands in the current context
_gemm_dtype: contextvars.ContextVar = contextvars.ContextVar(
    "gemm_dtype", default=np.float32
)


@contextlib.contextmanager
def float64_gemms():
    """Run conv2d with float64 GEMM operands until the block exits.

    The setting is a context variable: it covers this thread (and any
    context copied from it) only, and threads started without a copied
    context, such as thread-pool workers, keep the float32 default.
    """
    token = _gemm_dtype.set(np.float64)
    try:
        yield
    finally:
        _gemm_dtype.reset(token)


def conv2d(
    x: Tensor,
    kernel: Tensor,
    stride: int = 1,
    padding: int = 0,
    bias: Tensor | None = None,
    relu: bool = False,
) -> Tensor:
    """2-D cross-correlation of an NCHW batch with an OIKhKw kernel, plus an
    optional per-output-channel bias, and rectified when ``relu`` is set.

    No kernel flip is applied.  The GEMM operands are float32, or float64
    inside :func:`float64_gemms`; products are upcast and accumulated in
    float64.  Backward gives the gradients with respect to the input, the
    kernel and the bias, with the same GEMM operand precision.  The
    layer's row (``_kernels.conv_row``) says how the work is split over
    the calling thread and the thread pool, and whether the im2col matrix is
    kept for backward (see the module docstring).  When no operand requires
    a gradient, the forward-only branch gives the same bytes with
    channel-major columns.

    With ``relu``, one node gives the bytes of :func:`relu` applied to the
    conv's output: each share rectifies its images in place with relu's own
    ``np.maximum`` call and keeps relu's mask, and backward multiplies the
    upstream gradient by the mask and adds +0.0, as relu's backward and
    ``Tensor._accumulate`` do, in its shares, before the bias sum and the
    GEMM operand cast.
    """
    if x.ndim != 4 or kernel.ndim != 4:
        raise ValueError(
            f"conv2d expects 4-D input and kernel, got {x.shape} and {kernel.shape}"
        )
    n, c, h, w = x.shape
    o, ci, kh, kw = kernel.shape
    if ci != c:
        raise ValueError(
            f"conv2d channel mismatch: input {x.shape} has {c} channels, "
            f"kernel {kernel.shape} expects {ci}"
        )
    if bias is not None and (bias.ndim != 1 or bias.shape[0] != o):
        raise ValueError(
            f"conv2d bias {bias.shape} does not match the {o} output channels "
            f"of kernel {kernel.shape}"
        )
    row = _kernels.conv_row(x.shape, kernel.shape, stride, padding)
    _, _, oh, ow = row.out_shape
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"conv2d output would be empty: input {x.shape}, kernel {kernel.shape}, "
            f"stride {stride}, padding {padding}"
        )
    # read here: pool threads do not see the caller's float64_gemms() scope
    dtype = _gemm_dtype.get()
    p, k = oh * ow, c * kh * kw
    ph, pw = h + 2 * padding, w + 2 * padding
    parents = (x, kernel) if bias is None else (x, kernel, bias)
    graph = any(t.requires_grad for t in parents)
    # The columns of output position p are its receptive field, in (channel,
    # kernel row, kernel column) order: cols[n, p, c*kh*kw], the rows the
    # kernel gradient reduces over.  A small graph layer keeps them for
    # backward; a large one keeps only its float32 padded input and gathers
    # them again (row.regather).  Forward-only float32 columns are
    # channel-major, cols[n, c*kh*kw, p], so that wmat @ cols lands in NCHW;
    # float64 ones are not, as dgemm would round paper c0 and c1 differently
    # from the graph (module docstring).  Row-major columns are copied from
    # the window view channel-major first, into ``staged``, whose runs are
    # ow values long instead of kw, and then transposed: at batch 8 on one
    # core that took the desk layers c0/c1/c2 from 263/342/212 to
    # 218/190/117 us (min of 15).  Copying one kernel tap at a time, as
    # _gather_columns does on 3x3 kernels, took 377/226/121 us.
    regather = graph and row.regather
    channel_major = not graph and dtype == np.float32
    if channel_major:
        cols_shape, prod_shape = (n, k, p), (n, o, p)
    else:
        cols_shape, prod_shape = (n, p, k), (n, p, o)
    if graph:
        padded = (np.zeros if padding else np.empty)((n, c, ph, pw), dtype=dtype)
        cols, prod = (None, None) if regather else (
            np.empty(cols_shape, dtype=dtype), np.empty(prod_shape, dtype=dtype))
    else:
        # one allocation for the three temporaries: allocated apiece, they
        # took 100K minor page faults per 2000 desk images, as glibc gave the
        # freed top of its heap back to the kernel batch after batch
        a, b = n * c * ph * pw, n * p * k
        buf = np.empty(a + b + n * p * o, dtype=dtype)
        padded = buf[:a].reshape(n, c, ph, pw)
        cols, prod = buf[a:a + b].reshape(cols_shape), buf[a + b:].reshape(prod_shape)
        padded.fill(0)
    if regather:
        # one column buffer and one product buffer per share, taken by the
        # share that runs on them
        spare = [(np.empty((p, k), dtype=dtype), np.empty((p, o), dtype=dtype))
                 for _ in range(min(row.shares, n))]
    else:
        windows = _windows(padded, kh, kw, stride).transpose(0, 1, 4, 5, 2, 3)
        staged = cols if channel_major else np.empty((n, k, p), dtype=dtype)
    wmat = kernel.data.reshape(o, k).astype(dtype)
    out = np.empty((n, o, oh, ow))
    # relu's mask of out > 0: a -0.0 or NaN output gives False either way
    mask = np.empty(out.shape, dtype=bool) if graph and relu else None

    def forward(a: int, b: int) -> None:
        padded[a:b, :, padding:padding + h, padding:padding + w] = x.data[a:b]
        if regather:
            # image by image, the same GEMM the stacked product makes
            cols_i, prod_i = spare.pop()
            for i in range(a, b):
                _gather_columns(padded[i], cols_i.reshape(oh, ow, c, kh, kw), row)
                np.matmul(cols_i, wmat.T, out=prod_i)
                out[i].reshape(o, p)[...] = prod_i.T
        else:
            staged[a:b].reshape(windows[a:b].shape)[...] = windows[a:b]
            if channel_major:
                np.matmul(wmat, cols[a:b], out=prod[a:b])
                out[a:b].reshape(b - a, o, p)[...] = prod[a:b]
            else:
                cols[a:b] = staged[a:b].transpose(0, 2, 1)
                np.matmul(cols[a:b], wmat.T, out=prod[a:b])
                out[a:b].reshape(b - a, o, p)[...] = prod[a:b].transpose(0, 2, 1)
        if bias is not None:
            out[a:b] += bias.data[None, :, None, None]
        if relu:
            np.maximum(out[a:b], 0.0, out=out[a:b])
        if mask is not None:
            np.greater(out[a:b], 0.0, out=mask[a:b])

    _kernels.split_range(forward, n, row.shares)
    if not graph:
        return Tensor(out)
    # what backward gathers the columns from when it keeps none
    source = padded if regather else None

    def regathered_rows():
        """The column matrix's rows, gathered again image by image from the
        padded input (each image split over threads by input channel), in
        blocks of whole KERNEL_GRAD_CHUNK-row chunks; the rows of a chunk
        that straddles two images wait at the buffer's front."""
        def gather(i: int, fields: np.ndarray, a: int, b: int) -> None:
            _gather_columns(source[i, a:b], fields[:, :, a:b], row)

        chunk = _kernels.KERNEL_GRAD_CHUNK
        buf = np.empty((p + chunk, k), dtype=dtype)
        fill = 0
        for i in range(n):
            fields = buf[fill:fill + p].reshape(oh, ow, c, kh, kw)
            _kernels.split_range(partial(gather, i, fields), c, row.shares)
            fill += p
            ready = fill if i == n - 1 else fill - fill % chunk
            if ready:
                yield buf[:ready]
                buf[:fill - ready] = buf[ready:fill]
                fill -= ready

    def backward(grad: np.ndarray) -> None:
        nonlocal cols, source
        g = (np.empty((n, p, o), dtype=dtype)
             if kernel.requires_grad or x.requires_grad else None)

        def upstream(a: int, b: int) -> None:
            if mask is not None:
                # relu's backward and _accumulate's +0.0, in the node's own
                # gradient: nothing else holds it once backward() hands it
                # here.  The +0.0 turns -0.0 into what conv's backward got
                # from a relu node; no leaf gradient in the tests shows the
                # difference, as the sums below give +0.0 for -0.0 terms
                np.multiply(grad[a:b], mask[a:b], out=grad[a:b])
                grad[a:b] += 0.0
            if g is not None:
                g[a:b] = grad[a:b].reshape(b - a, o, p).transpose(0, 2, 1)

        if mask is not None or g is not None:
            _kernels.split_range(upstream, n, row.shares)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)), fresh=True)
        if g is None:
            return
        if kernel.requires_grad:
            # no local name holds the blocks, so that the kept columns are
            # freed below
            gw = _chunked_product_sum(
                g.reshape(n * p, o),
                regathered_rows() if regather else (cols.reshape(n * p, k),), k,
                row.grad_shares)
            kernel._accumulate(gw.reshape(o, c, kh, kw), fresh=True)
        # the columns and their source are not read again: free them before
        # the input gradient's buffers are allocated
        cols = source = None
        if not x.requires_grad:
            return
        # kernel row i as an (o, kw*c) matrix, its columns in (tap, channel)
        # order, so each tap's product is a contiguous run of c values
        wrows = wmat.reshape(o, c, kh, kw).transpose(2, 0, 3, 1).reshape(kh, o, kw * c)
        row_prod = np.empty((n, p, kw * c), dtype=dtype)
        gpad = np.zeros((n, ph, pw, c))

        def input_grad(a: int, b: int) -> None:
            # col2im in NHWC layout: one GEMM per image and kernel row, then
            # one strided add per tap.  With OpenBLAS 0.3.31 each product
            # rounds as in one GEMM over all taps, in float32 and float64,
            # at 1 and 2 threads.  Taps go in reverse row-major order, so
            # each input cell receives its terms in ascending output-position
            # order, one at a time.
            taps = row_prod[a:b].reshape(b - a, oh, ow, kw, c)
            for i in range(kh - 1, -1, -1):
                np.matmul(g[a:b], wrows[i], out=row_prod[a:b])
                ys = slice(i, i + stride * oh, stride)
                for j in range(kw - 1, -1, -1):
                    xs = slice(j, j + stride * ow, stride)
                    gpad[a:b, ys, xs] += taps[..., j, :]

        _kernels.split_range(input_grad, n, row.shares)
        crop = gpad[:, padding:padding + h, padding:padding + w]
        x._accumulate(crop.transpose(0, 3, 1, 2))

    return _node(out, parents, backward)


def _windows(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """The read-only view of every ``stride``-th kh x kw window over the last
    two axes of x, (..., oh, ow, kh, kw): what
    ``sliding_window_view(x, (kh, kw), axis=(-2, -1))[..., ::stride, ::stride]``
    gives, as one ``as_strided`` call (9 against 20 us per call).  The
    caller checks that a window fits."""
    h, w = x.shape[-2:]
    sh, sw = x.strides[-2:]
    shape = (*x.shape[:-2], (h - kh) // stride + 1, (w - kw) // stride + 1, kh, kw)
    strides = (*x.strides[:-2], sh * stride, sw * stride, sh, sw)
    return np.lib.stride_tricks.as_strided(x, shape, strides, writeable=False)


def _gather_columns(padded: np.ndarray, fields: np.ndarray, row) -> None:
    """Copy the receptive fields of one padded image, padded[c, ph, pw], into
    fields[oh, ow, c, kh, kw]: one kernel tap at a time when the conv's row
    says ``tapwise``, one copy from the window view otherwise."""
    oh, ow, _, kh, kw = fields.shape
    stride = row.stride
    if row.tapwise:
        for i in range(kh):
            for j in range(kw):
                tap = padded[:, i:i + stride * oh:stride, j:j + stride * ow:stride]
                fields[..., i, j] = tap.transpose(1, 2, 0)
    else:
        fields[...] = _windows(padded, kh, kw, stride).transpose(1, 2, 0, 3, 4)


# Entries (chunks x output channels x columns) up to which the whole-chunk
# products of one kernel-gradient block come from one batched matmul.  At
# batch 8 on one core that took desk c0 (64 chunks, 12,800 entries) from
# 258-296 to 148-151 us.  Desk c1 and c2 hold 18,432 entries each and stay
# on the loop: a bound of 65,536 took c1 169 -> 127 us and left c2 flat,
# and is not measured end to end.  Every paper block holds 178K or more.
_BATCHED_PRODUCT_ENTRIES = 16_384


def _chunked_product_sum(rows: np.ndarray, blocks, width: int, shares: int) -> np.ndarray:
    """rows.T @ flat in float64, as the ascending sum of the products of
    ``KERNEL_GRAD_CHUNK``-row chunks, where ``flat`` has ``width`` columns
    and ``blocks`` yields its rows in order, in blocks of whole chunks but
    for the last.  The result's rows are split over ``shares`` threads
    block by block; each adds the chunk products of its rows in the same
    ascending order, so neither the blocks nor the split change a byte.

    numpy hands a product with one row or one column to gemv, whose
    rounding depends on the row count, so the split is made only into
    products that gemm computes: at least two rows each, and never when
    ``flat`` has one column.

    When the products of a block's whole chunks hold at most
    ``_BATCHED_PRODUCT_ENTRIES`` entries together, one batched matmul
    computes them: numpy makes the same gemm call per chunk as a loop of
    matmuls would, and the products are added in the same order."""
    gw = np.zeros((rows.shape[1], width))
    prod = np.empty(gw.shape, dtype=rows.dtype)
    chunk = _kernels.KERNEL_GRAD_CHUNK

    def reduce(rows: np.ndarray, block: np.ndarray, a: int, b: int) -> None:
        rows_ab, prod_ab, gw_ab = rows[:, a:b], prod[a:b], gw[a:b]
        start = 0
        whole = len(block) // chunk
        if whole > 1 and whole * gw.size <= _BATCHED_PRODUCT_ENTRIES:
            start = whole * chunk
            products = np.matmul(
                rows_ab[:start].reshape(whole, chunk, b - a).transpose(0, 2, 1),
                block[:start].reshape(whole, chunk, width))
            for product in products:
                gw_ab += product
        for r in range(start, len(block), chunk):
            np.matmul(rows_ab[r:r + chunk].T, block[r:r + chunk], out=prod_ab)
            gw_ab += prod_ab

    shares = shares if width > 1 else 1
    start = 0
    for block in blocks:
        stop = start + len(block)
        _kernels.split_range(partial(reduce, rows[start:stop], block), gw.shape[0],
                             shares, min_size=2)
        start = stop
    return gw


def maxpool2d(x: Tensor, window: int, stride: int) -> Tensor:
    """Per-window max over an NCHW batch.

    Gradient is routed only to the argmax element of each window; ties go to
    the first element in row-major window order (the smallest original
    index).  The layer's row (``_kernels.pool_row``) says how the batch is
    split by image, as for :func:`conv2d`.  When ``x`` requires no
    gradient, the forward-only branch takes the max tap by tap, with the
    same ties, and keeps no argmax.
    """
    if x.ndim != 4:
        raise ValueError(f"maxpool2d expects 4-D input, got {x.shape}")
    n, c, h, w = x.shape
    if window > h or window > w:
        raise ValueError(
            f"maxpool2d window {window} exceeds spatial dims of input {x.shape}"
        )
    row = _kernels.pool_row(x.shape, window, stride)
    _, _, oh, ow = row.out_shape
    view = _windows(x.data, window, window, stride)
    out = np.empty((n, c, oh, ow))
    if not x.requires_grad:
        def forward_only(a: int, b: int) -> None:
            # np.maximum returns its second argument on a tie, -0.0 against
            # +0.0 included, so the earlier tap wins, as in argmax
            out[a:b] = view[a:b, ..., 0, 0]
            for tap in range(1, window * window):
                np.maximum(view[a:b, ..., tap // window, tap % window], out[a:b],
                           out=out[a:b])

        _kernels.split_range(forward_only, n, row.shares)
        return Tensor(out)
    flat = np.empty((n, c, oh, ow, window * window))
    arg = np.empty((n, c, oh, ow), dtype=np.intp)

    def forward(a: int, b: int) -> None:
        flat[a:b].reshape(b - a, c, oh, ow, window, window)[...] = view[a:b]
        np.argmax(flat[a:b], axis=-1, out=arg[a:b])
        out[a:b] = np.take_along_axis(flat[a:b], arg[a:b, ..., None], axis=-1)[..., 0]

    _kernels.split_range(forward, n, row.shares)

    def backward(grad: np.ndarray) -> None:
        gx = np.zeros((n, c, h * w))
        # flat input index of each window's argmax: with arg = ky * window
        # + kx, it is (oy * stride + ky) * w + ox * stride + kx
        # = corner[oy, ox] + ky * (w - window) + arg
        corner = (np.arange(oh)[:, None] * w + np.arange(ow)) * stride
        src = np.empty((n, c, oh, ow), dtype=np.intp)
        cc = np.arange(c)[:, None, None]

        def scatter(a: int, b: int) -> None:
            np.floor_divide(arg[a:b], window, out=src[a:b])
            src[a:b] *= w - window
            src[a:b] += arg[a:b]
            src[a:b] += corner
            nn = np.arange(b - a)[:, None, None, None]
            np.add.at(gx[a:b], (nn, cc, src[a:b]), grad[a:b])

        _kernels.split_range(scatter, n, row.shares)
        x._accumulate(gx.reshape(n, c, h, w), fresh=True)

    return _node(out, (x,), backward)


# ---------------------------------------------------------------------------
# pointwise ops

def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)
    # the mask of x > 0: a -0.0 or NaN input gives False either way
    mask = out > 0.0

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return _node(out, (x,), backward)


def _logistic(d: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-d)) without overflow for any finite d."""
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ez = np.exp(d[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic function."""
    out = _logistic(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * out * (1.0 - out))

    return _node(out, (x,), backward)


def affine_channel(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Contract the channel axis of an NCHW tensor with a shared weight vector.

    out[n, h, w] = sum_c weight[c] * x[n, c, h, w] + bias, with the same
    weight and bias at every spatial position.
    """
    if x.ndim != 4:
        raise ValueError(f"affine_channel expects NCHW input, got {x.shape}")
    if weight.ndim != 1 or weight.shape[0] != x.shape[1]:
        raise ValueError(
            f"affine_channel weight length {weight.shape} does not match "
            f"channel count of input {x.shape}"
        )
    xd, wd = x.data, weight.data
    out = np.einsum("nchw,c->nhw", xd, wd) + bias.data

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad[:, None, :, :] * wd[None, :, None, None])
        if weight.requires_grad:
            weight._accumulate(np.einsum("nchw,nhw->c", xd, grad))
        if bias.requires_grad:
            bias._accumulate(np.asarray(grad.sum()))

    return _node(out, (x, weight, bias), backward)


# ---------------------------------------------------------------------------
# shape ops

def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = x.data.reshape(shape)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad.reshape(x.shape))

    return _node(out, (x,), backward)


# ---------------------------------------------------------------------------
# reductions

def l2_norm_sq(*tensors: Tensor) -> Tensor:
    """Sum of squares over every element of one or more tensors, as one
    node: each tensor's sum of squares, added left to right.

    Backward adds 2 * grad * x into each gradient block by block
    (``_kernels.split_blocks``), with no temporary of the tensor's size."""
    if not tensors:
        raise ValueError("l2_norm_sq requires at least one tensor")
    datas = [x.data for x in tensors]
    out = np.asarray((datas[0] * datas[0]).sum())
    for d in datas[1:]:
        out = out + (d * d).sum()

    def backward(grad: np.ndarray) -> None:
        scale = 2.0 * float(grad)
        for x, d in zip(tensors, datas):
            if not x.requires_grad:
                continue
            if x.grad is None:
                # a zero-filled start, as _accumulate's first contribution
                x.grad = np.zeros(x.shape)
            if not x.grad.flags.c_contiguous:
                x._accumulate(scale * d)
                continue
            flat_grad, flat_d = x.grad.reshape(-1), d.reshape(-1)

            def add(a: int, b: int, scratch: np.ndarray) -> None:
                flat_grad[a:b] += np.multiply(scale, flat_d[a:b], out=scratch)

            _kernels.split_blocks(add, flat_grad.size, scratch=1)

    return _node(out, tensors, backward)
