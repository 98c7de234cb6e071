"""Reverse-mode automatic differentiation over dense arrays.

The op set is exactly what the whole-image MIL pipeline needs: 2-D
cross-correlation, max pooling, pointwise nonlinearities (relu, sigmoid and
log_sigmoid, the stable log sigmoid(x) = -softplus(-x) the bag losses are
built from), a shared channel contraction, and scalar reductions (sum,
weighted sum with constant coefficients, squared L2 norm).  The sum and the
weighted sum are correctly rounded (math.fsum), so a bag loss does not
change by one bit when the patches or the bags are reordered.  A fresh
graph is built for every batch.  Tensors are treated as immutable once they
enter a graph.

Memory: backward releases the graph as it runs it.  Each interior node
loses its closure, its parents and its gradient before its closure runs, so
every activation, every kept array and every interior gradient is freed
once the last closure that reads it has returned.  A conv2d whose im2col
matrix is small (below ``_REGATHER_MIN_COLS`` entries, as on every desk
layer) keeps that matrix for its kernel gradient; a larger one (every paper
layer) keeps only its float32 padded input, gathers each image's columns
into one buffer per thread in forward, and gathers them again in backward,
an image at a time, into a buffer of one image's rows plus one chunk.  At
the paper preset, batch 8, that cuts what a step holds after forward from
164.8 to 88.6 MiB and its backward peak from 174.5 to 113.4 MiB
(tracemalloc).  Backward frees the columns or their source as soon as the
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
at most ``KERNEL_GRAD_CHUNK`` rows, and the chunk products are summed in
ascending order into a float64 accumulator; the conv input gradient adds
the kernel taps in a fixed order, and each tap's product rounds as it
would in one GEMM over all taps.  This holds for sgemm as for dgemm, so
repeated runs on identical inputs produce bitwise-identical values and
gradients, at 1 and at 2 BLAS threads alike.  Gathered columns are copies:
the forward runs the same per-image GEMM on them, and the regathered rows
reach the kernel gradient in the same 128-row chunks, a chunk that
straddles two images included, so either route gives the same bytes.

The same holds at any core count.  A large conv2d or maxpool2d is shared
by the calling thread and a process-wide pool with one thread per further
CPU the process may run on.  The work splits only at image boundaries, and
every image goes through the same BLAS calls and the same sums as it would
unsplit.  The kernel gradient splits by output channel instead: each
thread sums the chunk products of its channels in the same ascending
order, and the split is made only into shares of at least two channels
whose products stay GEMMs, as gemv rounds by its row count.  Its GEMMs are
never split by input channel (their result columns): split after a third
of the channels, dgemm gave other bytes on paper c1 and c4.  Only the copy
that gathers an image's columns again splits by input channel.

Forward-only branches: when no operand of conv2d or maxpool2d requires a
gradient, as in ``model.response_grids``, the op builds no graph state and
gives the same bytes by a cheaper route.  conv2d lays its float32 im2col
columns out channel-major, (n, c*kh*kw, oh*ow), so the kernel matrix times
the columns lands in NCHW order with no transpose; with OpenBLAS 0.3.31,
sgemm rounds each output as it does from the graph path's row-major
columns.  dgemm does not (paper layers c0 and c1), so float64 operands keep
the graph's layout.  maxpool2d takes np.maximum tap by tap in row-major
window order with the running max as the second argument, which numpy
returns on a tie (-0.0 against +0.0 too), so the earlier tap wins as in
argmax.  Inside ``_forward_buffers()``, which response_grids opens around
each serial run of batches, conv2d takes its padded input, columns and GEMM
product from one buffer per role on the calling thread, grown when too
small and dropped when the block exits or raises; output arrays are always
fresh.

Subgradient conventions: relu'(0) = 0, and max pooling breaks ties toward
the smallest original index.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial

import numpy as np

__all__ = [
    "Tensor",
    "add",
    "add_n",
    "affine_channel",
    "conv2d",
    "float64_gemms",
    "l2_norm_sq",
    "log_sigmoid",
    "maxpool2d",
    "reduce_sum",
    "relu",
    "reshape",
    "scale",
    "sigmoid",
    "weighted_sum",
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

    def _accumulate(self, contribution: np.ndarray) -> None:
        if self.grad is None:
            # a fresh array, never the caller's, holding what a zero-filled
            # start plus the contribution would: IEEE addition commutes, so
            # -0.0 becomes +0.0 here too, and a contribution that broadcasts
            # fills the node's shape
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
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    return out


# ---------------------------------------------------------------------------
# convolution and pooling

# Rows (batch x output positions) reduced per BLAS call in the conv kernel
# gradient.  With OpenBLAS 0.3.31, one GEMM over all rows, or one per image,
# gives different bytes at 1 and 2 threads on the paper layers; 128-row
# chunks give the same bytes, in float32 and in float64 alike, and their
# products are summed here in ascending order, so the gradient does not
# depend on the thread count.
KERNEL_GRAD_CHUNK = 128

# dtype of the conv GEMM operands in the current context
_gemm_dtype: contextvars.ContextVar = contextvars.ContextVar(
    "gemm_dtype", default=np.float32
)


# Multiply-adds below which conv2d runs on the calling thread alone.  Handing
# a share to the pool and waiting for it takes about 50 us, so splitting
# pays only on large GEMMs.  Forced at batch 8, it slowed the three desk
# layers (1.6M to 2.4M each) from 2.4-2.8 to 2.7-3.5 ms forward and from
# 2.6-2.7 to 8.6-13.5 ms backward; every paper layer (187M and more) got
# faster.  The kernel gradient compares one chunk product instead: split by
# output channel, paper c0's (1M) ran its backward slower (19.1 against
# 16.6 ms at batch 8), c1-c4's (39M to 113M) faster.
_SPLIT_MIN_MACS = 20_000_000

# Column-matrix entries (batch x output cells x channels x window area) from
# which a graph conv2d keeps no im2col matrix for backward: forward gathers
# each image's columns into one buffer per share, and backward gathers them
# again from the kept float32 padded input.  Every paper layer holds 2.3M
# entries or more at batch 8, and gathering again cut a paper step's
# forward-held memory from 164.8 to 88.6 MiB.  The desk layers hold at most
# 205K; gathering again on them too slowed desk_cv (wall_ref 11.93 against
# 13.55 in 5 of 5 pairs) and saved no resident memory.
_REGATHER_MIN_COLS = 1_000_000

# Kernel widths up to which one image's columns are gathered one kernel tap
# at a time instead of by one copy from the window view, whose innermost run
# is kw values.  One image at 1 thread, window view against per tap: the
# paper 3x3 layers c2-c4 0.68/1.31/0.87 against 0.35/1.06/0.49 ms, the
# 11x11 c0 and 5x5 c1 0.31/1.65 against 0.90/5.71 ms.
_TAPWISE_MAX_KW = 3

# Window elements (batch x channels x output cells x window area) below which
# maxpool2d runs on the calling thread alone.  An element costs about 15 ns
# (strided copy and argmax), far more than a multiply-add in a GEMM; the
# desk pool (16K at batch 8) got slower split, the paper pools (0.66M to
# 3.4M) faster.
_SPLIT_MIN_POOL_READS = 200_000

# Threads besides the calling one that share the image groups of a large
# conv2d or maxpool2d: one fewer than the CPUs this process may run on, read
# at the first large op, or this process's share of them in a process forked
# by ``_forked.run_forked``.  response_grids shards a large image set over as
# many processes as this budget counts CPUs.  The pool is started at the
# first large op, and forgotten in a forked child, which has none of its
# threads.
_pool_workers: int | None = None
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _shares(work: int, minimum: int) -> int:
    """How many threads, the calling one included, share ``work``."""
    global _pool_workers
    if work < minimum:
        return 1
    if _pool_workers is None:
        _pool_workers = len(os.sched_getaffinity(0)) - 1
    return _pool_workers + 1


def _run_shares(tasks: list) -> None:
    """Call tasks[0] on this thread and the rest on the pool; return when all
    are done, raising the first error.  The tasks only fill slices of
    buffers the caller allocated, so worker threads allocate no large
    arrays of their own."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_pool_workers, thread_name_prefix="milnet-op")
        pool = _pool
    futures = [pool.submit(task) for task in tasks[1:]]
    try:
        tasks[0]()
    finally:
        wait(futures)
    for future in futures:
        future.result()


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


def _split_range(fn, n: int, shares: int, min_size: int = 1) -> None:
    """Call fn(a, b) on contiguous, nonempty ranges [a, b) that cover
    range(n), at most ``shares`` of them, one per thread, each of at least
    ``min_size`` items unless range(n) is one range."""
    shares = max(1, min(shares, n // min_size))
    if shares == 1:
        fn(0, n)
        return
    bounds = [n * i // shares for i in range(shares + 1)]
    _run_shares([partial(fn, a, b) for a, b in zip(bounds[:-1], bounds[1:])])


# This thread's forward-only buffers by role, while _forward_buffers() is open
_scratch = threading.local()


@contextlib.contextmanager
def _forward_buffers():
    """Let forward-only ops on this thread take their scratch arrays from
    one buffer per role, kept until the block exits or raises."""
    outer = getattr(_scratch, "buffers", None)
    _scratch.buffers = {}
    try:
        yield
    finally:
        _scratch.buffers = outer


def _scratch_array(role: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised array for a forward-only temporary: a view of this
    thread's ``role`` buffer inside :func:`_forward_buffers`, grown when too
    small, and a fresh array outside it."""
    buffers = getattr(_scratch, "buffers", None)
    if buffers is None:
        return np.empty(shape, dtype=dtype)
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    buf = buffers.get(role)
    if buf is None or buf.size < nbytes:
        buf = buffers[role] = np.empty(nbytes, dtype=np.uint8)
    return buf[:nbytes].view(dtype).reshape(shape)


def conv2d(
    x: Tensor,
    kernel: Tensor,
    stride: int = 1,
    padding: int = 0,
    bias: Tensor | None = None,
) -> Tensor:
    """2-D cross-correlation of an NCHW batch with an OIKhKw kernel, plus an
    optional per-output-channel bias.

    No kernel flip is applied.  The GEMM operands are float32, or float64
    inside :func:`float64_gemms`; products are upcast and accumulated in
    float64.  Backward gives the gradients with respect to the input, the
    kernel and the bias, with the same GEMM operand precision.  Large
    batches are split by image over the calling thread and the thread pool,
    and a large layer keeps no im2col matrix for backward (see the module
    docstring).  When no operand requires a gradient, the forward-only
    branch gives the same bytes with channel-major columns.
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
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"conv2d output would be empty: input {x.shape}, kernel {kernel.shape}, "
            f"stride {stride}, padding {padding}"
        )
    # read here: pool threads do not see the caller's float64_gemms() scope
    dtype = _gemm_dtype.get()
    p, k = oh * ow, c * kh * kw
    shares = _shares(n * p * o * k, _SPLIT_MIN_MACS)
    ph, pw = h + 2 * padding, w + 2 * padding
    parents = (x, kernel) if bias is None else (x, kernel, bias)
    graph = any(t.requires_grad for t in parents)
    # The columns of output position p are its receptive field, in (channel,
    # kernel row, kernel column) order: cols[n, p, c*kh*kw], the rows the
    # kernel gradient reduces over.  A small graph layer keeps them for
    # backward; a large one keeps only its float32 padded input and gathers
    # them again (_REGATHER_MIN_COLS).  Forward-only float32 columns are
    # channel-major, cols[n, c*kh*kw, p], so that wmat @ cols lands in NCHW;
    # float64 ones are not, as dgemm would round paper c0 and c1 differently
    # from the graph (module docstring).
    regather = graph and n * p * k >= _REGATHER_MIN_COLS
    channel_major = not graph and dtype == np.float32
    if channel_major:
        cols_shape, prod_shape, axes = (n, k, p), (n, o, p), (0, 1, 4, 5, 2, 3)
    else:
        cols_shape, prod_shape, axes = (n, p, k), (n, p, o), (0, 2, 3, 1, 4, 5)
    if regather:
        padded = (np.zeros if padding else np.empty)((n, c, ph, pw), dtype=dtype)
        # one column buffer and one product buffer per share, taken by the
        # share that runs on them
        spare = [(np.empty((p, k), dtype=dtype), np.empty((p, o), dtype=dtype))
                 for _ in range(min(shares, n))]
        cols = None
    elif graph:
        padded = (np.zeros if padding else np.empty)((n, c, ph, pw), dtype=dtype)
        cols = np.empty(cols_shape, dtype=dtype)
        prod = np.empty(prod_shape, dtype=dtype)
    else:
        padded = _scratch_array("padded", (n, c, ph, pw), dtype)
        if padding:
            padded.fill(0)
        cols = _scratch_array("cols", cols_shape, dtype)
        prod = _scratch_array("prod", prod_shape, dtype)
    if not regather:
        windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(2, 3))
        windows = windows[:, :, ::stride, ::stride].transpose(axes)
    wmat = kernel.data.reshape(o, k).astype(dtype)
    out = np.empty((n, o, oh, ow))

    def forward(a: int, b: int) -> None:
        padded[a:b, :, padding:padding + h, padding:padding + w] = x.data[a:b]
        if regather:
            # image by image, the same GEMM the stacked product makes
            cols_i, prod_i = spare.pop()
            for i in range(a, b):
                _gather_columns(padded[i], cols_i.reshape(oh, ow, c, kh, kw), stride)
                np.matmul(cols_i, wmat.T, out=prod_i)
                out[i].reshape(o, p)[...] = prod_i.T
        else:
            cols[a:b].reshape(windows[a:b].shape)[...] = windows[a:b]
            if channel_major:
                np.matmul(wmat, cols[a:b], out=prod[a:b])
                out[a:b].reshape(b - a, o, p)[...] = prod[a:b]
            else:
                np.matmul(cols[a:b], wmat.T, out=prod[a:b])
                out[a:b].reshape(b - a, o, p)[...] = prod[a:b].transpose(0, 2, 1)
        if bias is not None:
            out[a:b] += bias.data[None, :, None, None]

    _split_range(forward, n, shares)
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
            _gather_columns(source[i, a:b], fields[:, :, a:b], stride)

        buf = np.empty((p + KERNEL_GRAD_CHUNK, k), dtype=dtype)
        fill = 0
        for i in range(n):
            fields = buf[fill:fill + p].reshape(oh, ow, c, kh, kw)
            _split_range(partial(gather, i, fields), c, shares)
            fill += p
            ready = fill if i == n - 1 else fill - fill % KERNEL_GRAD_CHUNK
            if ready:
                yield buf[:ready]
                buf[:fill - ready] = buf[ready:fill]
                fill -= ready

    def backward(grad: np.ndarray) -> None:
        nonlocal cols, source
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if not (kernel.requires_grad or x.requires_grad):
            return
        g = np.empty((n, p, o), dtype=dtype)

        def upstream(a: int, b: int) -> None:
            g[a:b] = grad[a:b].reshape(b - a, o, p).transpose(0, 2, 1)

        _split_range(upstream, n, shares)
        if kernel.requires_grad:
            # no local name holds the blocks, so that the kept columns are
            # freed below
            gw = _chunked_product_sum(
                g.reshape(n * p, o),
                regathered_rows() if regather else (cols.reshape(n * p, k),), k)
            kernel._accumulate(gw.reshape(o, c, kh, kw))
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

        _split_range(input_grad, n, shares)
        crop = gpad[:, padding:padding + h, padding:padding + w]
        x._accumulate(crop.transpose(0, 3, 1, 2))

    return _node(out, parents, backward)


def _gather_columns(padded: np.ndarray, fields: np.ndarray, stride: int) -> None:
    """Copy the receptive fields of one padded image, padded[c, ph, pw], into
    fields[oh, ow, c, kh, kw]: one kernel tap at a time for kernels up to
    ``_TAPWISE_MAX_KW`` wide, one copy from the window view otherwise."""
    oh, ow, _, kh, kw = fields.shape
    if kw <= _TAPWISE_MAX_KW:
        for i in range(kh):
            for j in range(kw):
                tap = padded[:, i:i + stride * oh:stride, j:j + stride * ow:stride]
                fields[..., i, j] = tap.transpose(1, 2, 0)
    else:
        windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(1, 2))
        fields[...] = windows[:, ::stride, ::stride].transpose(1, 2, 0, 3, 4)


def _chunked_product_sum(rows: np.ndarray, blocks, width: int) -> np.ndarray:
    """rows.T @ flat in float64, as the ascending sum of the products of
    ``KERNEL_GRAD_CHUNK``-row chunks, where ``flat`` has ``width`` columns
    and ``blocks`` yields its rows in order, in blocks of whole chunks but
    for the last.  When a chunk product is large, the result's rows are
    split over threads block by block; each adds the chunk products of its
    rows in the same ascending order, so neither the blocks nor the split
    change a byte.

    numpy hands a product with one row or one column to gemv, whose
    rounding depends on the row count, so the split is made only into
    products that gemm computes: at least two rows each, and never when
    ``flat`` has one column."""
    gw = np.zeros((rows.shape[1], width))
    prod = np.empty(gw.shape, dtype=rows.dtype)

    def reduce(rows: np.ndarray, block: np.ndarray, a: int, b: int) -> None:
        rows_ab, prod_ab, gw_ab = rows[:, a:b], prod[a:b], gw[a:b]
        for r in range(0, len(block), KERNEL_GRAD_CHUNK):
            chunk = slice(r, r + KERNEL_GRAD_CHUNK)
            np.matmul(rows_ab[chunk].T, block[chunk], out=prod_ab)
            gw_ab += prod_ab

    shares = _shares(KERNEL_GRAD_CHUNK * gw.size, _SPLIT_MIN_MACS) if width > 1 else 1
    start = 0
    for block in blocks:
        stop = start + len(block)
        _split_range(partial(reduce, rows[start:stop], block), gw.shape[0], shares,
                     min_size=2)
        start = stop
    return gw


def maxpool2d(x: Tensor, window: int, stride: int) -> Tensor:
    """Per-window max over an NCHW batch.

    Gradient is routed only to the argmax element of each window; ties go to
    the first element in row-major window order (the smallest original
    index).  Large batches are split by image like :func:`conv2d`.  When
    ``x`` requires no gradient, the forward-only branch takes the max tap by
    tap, with the same ties, and keeps no argmax.
    """
    if x.ndim != 4:
        raise ValueError(f"maxpool2d expects 4-D input, got {x.shape}")
    n, c, h, w = x.shape
    if window > h or window > w:
        raise ValueError(
            f"maxpool2d window {window} exceeds spatial dims of input {x.shape}"
        )
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    shares = _shares(n * c * oh * ow * window * window, _SPLIT_MIN_POOL_READS)
    view = np.lib.stride_tricks.sliding_window_view(x.data, (window, window), axis=(2, 3))
    view = view[:, :, ::stride, ::stride]
    out = np.empty((n, c, oh, ow))
    if not x.requires_grad:
        def forward_only(a: int, b: int) -> None:
            # np.maximum returns its second argument on a tie, -0.0 against
            # +0.0 included, so the earlier tap wins, as in argmax
            out[a:b] = view[a:b, ..., 0, 0]
            for tap in range(1, window * window):
                np.maximum(view[a:b, ..., tap // window, tap % window], out[a:b],
                           out=out[a:b])

        _split_range(forward_only, n, shares)
        return Tensor(out)
    flat = np.empty((n, c, oh, ow, window * window))
    arg = np.empty((n, c, oh, ow), dtype=np.intp)

    def forward(a: int, b: int) -> None:
        flat[a:b].reshape(b - a, c, oh, ow, window, window)[...] = view[a:b]
        np.argmax(flat[a:b], axis=-1, out=arg[a:b])
        out[a:b] = np.take_along_axis(flat[a:b], arg[a:b, ..., None], axis=-1)[..., 0]

    _split_range(forward, n, shares)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
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

        _split_range(scatter, n, shares)
        x._accumulate(gx.reshape(n, c, h, w))

    return _node(out, (x,), backward)


# ---------------------------------------------------------------------------
# pointwise ops

def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (x.data > 0.0))

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
        if x.requires_grad:
            x._accumulate(grad * out * (1.0 - out))

    return _node(out, (x,), backward)


def log_sigmoid(x: Tensor) -> Tensor:
    """log sigmoid(x) = -softplus(-x), finite for every finite x.

    The gradient is sigmoid(-x), computed directly rather than as
    1 - sigmoid(x), so it stays exact to rounding where sigmoid(x) rounds
    to 1.
    """
    d = x.data
    out = np.minimum(d, 0.0) - np.log1p(np.exp(-np.abs(d)))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * _logistic(-d))

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
    out = np.einsum("nchw,c->nhw", x.data, weight.data) + bias.data

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad[:, None, :, :] * weight.data[None, :, None, None])
        if weight.requires_grad:
            weight._accumulate(np.einsum("nchw,nhw->c", x.data, grad))
        if bias.requires_grad:
            bias._accumulate(np.asarray(grad.sum()))

    return _node(out, (x, weight, bias), backward)


# ---------------------------------------------------------------------------
# shape ops

def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = x.data.reshape(shape)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad.reshape(x.data.shape))

    return _node(out, (x,), backward)


# ---------------------------------------------------------------------------
# reductions and scalar algebra

def reduce_sum(x: Tensor) -> Tensor:
    """Sum of all entries, correctly rounded, so independent of their order."""
    out = np.asarray(math.fsum(x.data.ravel().tolist()))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.full_like(x.data, float(grad)))

    return _node(out, (x,), backward)


def weighted_sum(x: Tensor, coeff: np.ndarray) -> Tensor:
    """sum(coeff * x) for a constant coefficient array of x's shape; the sum
    of the products is correctly rounded, so independent of their order."""
    coeff = np.asarray(coeff, dtype=np.float64)
    if coeff.shape != x.shape:
        raise ValueError(
            f"weighted_sum coefficients {coeff.shape} do not match input {x.shape}"
        )
    out = np.asarray(math.fsum((coeff * x.data).ravel().tolist()))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(float(grad) * coeff)

    return _node(out, (x,), backward)


def l2_norm_sq(*tensors: Tensor) -> Tensor:
    """Sum of squares over every element of one or more tensors, as one
    node: each tensor's sum of squares, added left to right."""
    if not tensors:
        raise ValueError("l2_norm_sq requires at least one tensor")
    out = np.asarray((tensors[0].data * tensors[0].data).sum())
    for x in tensors[1:]:
        out = out + (x.data * x.data).sum()

    def backward(grad: np.ndarray) -> None:
        for x in tensors:
            if x.requires_grad:
                x._accumulate(2.0 * float(grad) * x.data)

    return _node(out, tensors, backward)


def scale(x: Tensor, c: float) -> Tensor:
    out = x.data * c

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * c)

    return _node(out, (x,), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = a.data + b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad)
        if b.requires_grad:
            b._accumulate(grad)

    return _node(out, (a, b), backward)


def add_n(tensors: list[Tensor]) -> Tensor:
    """Sum a nonempty list of same-shape tensors, left to right."""
    if not tensors:
        raise ValueError("add_n requires at least one tensor")
    out = tensors[0].data.copy()
    for t in tensors[1:]:
        out = out + t.data

    def backward(grad: np.ndarray) -> None:
        for t in tensors:
            if t.requires_grad:
                t._accumulate(grad)

    return _node(out, tuple(tensors), backward)
