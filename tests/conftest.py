import multiprocessing

import pytest

from milnet import autodiff as ad
from milnet import model


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a live child process behind, such as a cv
    fold or response_grids shard process; the leftovers are ended first, so
    they do not fail the tests after it."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join()
    assert left == [], f"child processes left running: {left}"


@pytest.fixture
def float64_gemms():
    """Run the test with float64 conv GEMM operands, for checks against
    float64 oracles at 1e-12 or bit for bit."""
    with ad.float64_gemms():
        yield


@pytest.fixture
def split_ops(monkeypatch):
    """Split every conv2d and maxpool2d by image, whatever its size.

    Returns ``set_workers(k)``: from then on each op is shared by the
    calling thread and a pool of ``k`` threads (0 runs it on the calling
    thread alone).  Pools started here are shut down afterwards, and the
    module's own pool and settings are restored.
    """
    monkeypatch.setattr(ad, "_SPLIT_MIN_MACS", 0)
    monkeypatch.setattr(ad, "_SPLIT_MIN_POOL_READS", 0)
    monkeypatch.setattr(ad, "_pool", None)
    pools = []

    def set_workers(workers: int) -> None:
        if ad._pool is not None:
            pools.append(ad._pool)
        monkeypatch.setattr(ad, "_pool_workers", workers)
        ad._pool = None

    yield set_workers
    if ad._pool is not None:
        pools.append(ad._pool)
    for pool in pools:
        pool.shutdown()


@pytest.fixture
def shard_inference(monkeypatch):
    """Shard every response_grids call of more than one batch, whatever its
    size.

    Returns ``set_extra(k)``: from then on response_grids shares its batches
    between k + 1 forked processes (0 runs it in the calling process).  The
    op-thread setting this borrows is restored afterwards, and any op pool
    started meanwhile is shut down.
    """
    monkeypatch.setattr(model, "_SHARD_MIN_IMAGES", 0)
    monkeypatch.setattr(ad, "_pool", None)

    def set_extra(extra: int) -> None:
        monkeypatch.setattr(ad, "_pool_workers", extra)

    yield set_extra
    if ad._pool is not None:
        ad._pool.shutdown()
