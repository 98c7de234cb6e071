"""How each conv and pool layer runs: the size rules, the row they give a
layer, and the thread pool a layer's work is split over; and
:func:`split_blocks`, which runs an elementwise pass over a parameter
(Adam's update, the L2 gradient) in cache-sized blocks on the same pool.

``model.layer_plan`` applies the rules to every layer of a backbone, and
``autodiff.conv2d`` and ``autodiff.maxpool2d`` apply the same functions,
:func:`conv_row` and :func:`pool_row`, to their operands, so an op runs as
its plan row says.  Why a split changes no byte is in the ``autodiff``
docstring.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial
from typing import NamedTuple

import numpy as np

# Rows (batch x output positions) reduced per BLAS call in the conv kernel
# gradient.  With OpenBLAS 0.3.31, one GEMM over all rows, or one per image,
# gives different bytes at 1 and 2 threads on the paper layers; 128-row
# chunks give the same bytes, in float32 and in float64 alike, and their
# products are summed in ascending order, so the gradient does not depend
# on the thread count.
KERNEL_GRAD_CHUNK = 128

# Multiply-adds below which a conv layer runs on the calling thread alone.
# Handing a share to the pool and waiting for it takes about 50 us, so
# splitting pays only on large GEMMs.  Forced at batch 8, it slowed the three
# desk layers (1.6M to 2.4M each) from 2.4-2.8 to 2.7-3.5 ms forward and from
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
# 13.55 in 5 of 5 pairs) and saved no resident memory.  ``model.layer_plan``
# also drops the activations of a regathering layer's stage.
_REGATHER_MIN_COLS = 1_000_000

# Kernel widths up to which one image's columns are gathered one kernel tap
# at a time instead of by one copy from the window view, whose innermost run
# is kw values.  One image at 1 thread, window view against per tap: the
# paper 3x3 layers c2-c4 0.68/1.31/0.87 against 0.35/1.06/0.49 ms, the
# 11x11 c0 and 5x5 c1 0.31/1.65 against 0.90/5.71 ms.
_TAPWISE_MAX_KW = 3

# Window elements (batch x channels x output cells x window area) below which
# a pool layer runs on the calling thread alone.  An element costs about
# 15 ns (strided copy and argmax), far more than a multiply-add in a GEMM;
# the desk pool (16K at batch 8) got slower split, the paper pools (0.66M to
# 3.4M) faster.
_SPLIT_MIN_POOL_READS = 200_000

# Elements of one block of an elementwise pass over a parameter tensor
# (``split_blocks``): Adam's update and the L2 gradient.  Adam's six float64
# arrays of a block take 1.5 MiB, inside a 2 MiB L2 cache.  One paper-preset
# Adam step, split over 2 threads, took 12.4-12.8 ms at this size, 14.8-17.6
# at 16,384 and 14.6-15.4 at 65,536 (min of 15), against 31-32 ms unblocked
# on one thread.  Smaller blocks hand the interpreter lock between the
# threads at every ufunc call: 50 ms at 4,096.
ELEMENT_BLOCK = 32_768

# Elements from which such a pass splits over the op pool by element range:
# every paper conv kernel but c0's (7,744), and no desk parameter.
_SPLIT_MIN_ELEMENTS = 65_536


class LayerRow(NamedTuple):
    """One layer's shapes and how it runs."""

    kind: str                              # "conv", "relu" or "pool"
    in_shape: tuple[int, int, int, int]    # NCHW
    out_shape: tuple[int, int, int, int]
    kernel: tuple[int, int] = (1, 1)       # conv kernel or pool window (h, w)
    stride: int = 1
    padding: int = 0
    shares: int = 1        # threads that split forward and input gradient by image
    grad_shares: int = 1   # threads that split the kernel gradient by output channel
    regather: bool = False  # keep no columns for backward; gather them again
    tapwise: bool = False   # gather an image's columns one kernel tap at a time
    drop: bool = False      # free the output once the next layer is built


def conv_row(in_shape, kernel_shape, stride: int, padding: int) -> LayerRow:
    """The row of a conv layer of an NCHW input and an OIKhKw kernel."""
    n, c, h, w = in_shape
    o, _, kh, kw = kernel_shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    cols = n * oh * ow * c * kh * kw
    return LayerRow(
        "conv", tuple(in_shape), (n, o, oh, ow), (kh, kw), stride, padding,
        shares=cpu_budget() if cols * o >= _SPLIT_MIN_MACS else 1,
        grad_shares=(cpu_budget() if KERNEL_GRAD_CHUNK * o * c * kh * kw
                     >= _SPLIT_MIN_MACS else 1),
        regather=cols >= _REGATHER_MIN_COLS,
        tapwise=kw <= _TAPWISE_MAX_KW,
    )


def pool_row(in_shape, window: int, stride: int) -> LayerRow:
    """The row of a max-pool layer of an NCHW input."""
    n, c, h, w = in_shape
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    reads = n * c * oh * ow * window * window
    return LayerRow(
        "pool", tuple(in_shape), (n, c, oh, ow), (window, window), stride,
        shares=cpu_budget() if reads >= _SPLIT_MIN_POOL_READS else 1,
    )


# Threads besides the calling one that share the work of a large layer: one
# fewer than the CPUs this process may run on, read at the first row, or
# this process's share of them in a process forked by
# ``_forked.run_forked``.  score_images shares a large image set out over as
# many processes as this budget counts CPUs.  The pool is started at the
# first split, and forgotten in a forked child, which has none of its
# threads.
_pool_workers: int | None = None
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def cpu_budget() -> int:
    """CPUs this process runs a layer on: the calling thread plus the pool."""
    global _pool_workers
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


def split_range(fn, n: int, shares: int, min_size: int = 1) -> None:
    """Call fn(a, b) on contiguous, nonempty ranges [a, b) that cover
    range(n), at most ``shares`` of them, one per thread, each of at least
    ``min_size`` items unless range(n) is one range."""
    shares = max(1, min(shares, n // min_size))
    if shares == 1:
        fn(0, n)
        return
    bounds = [n * i // shares for i in range(shares + 1)]
    _run_shares([partial(fn, a, b) for a, b in zip(bounds[:-1], bounds[1:])])


def split_blocks(fn, n: int, scratch: int) -> None:
    """Call fn(a, b, *bufs) on consecutive blocks [a, b) of at most
    ELEMENT_BLOCK items that cover range(n), where bufs are ``scratch``
    float64 arrays of b - a items that fn may overwrite.  From
    _SPLIT_MIN_ELEMENTS items on, the blocks are split by range over the
    calling thread and the pool; the scratch arrays are allocated here, one
    set per share, as _run_shares asks."""
    if n <= ELEMENT_BLOCK:
        fn(0, n, *(np.empty(n) for _ in range(scratch)))
        return
    shares = cpu_budget() if n >= _SPLIT_MIN_ELEMENTS else 1
    spare = [[np.empty(ELEMENT_BLOCK) for _ in range(scratch)]
             for _ in range(shares)]

    def share(a: int, b: int) -> None:
        bufs = spare.pop()
        for start in range(a, b, ELEMENT_BLOCK):
            stop = min(start + ELEMENT_BLOCK, b)
            fn(start, stop, *(buf[:stop - start] for buf in bufs))

    split_range(share, n, shares)
