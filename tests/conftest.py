import multiprocessing

import pytest

from milnet import _kernels, model, training
from milnet import autodiff as ad


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a live child process behind, such as a cv
    fold or score_images shard process; the leftovers are ended first, so
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
def op_pool(monkeypatch):
    """Set the size of the pool that layers split their work with.

    Returns ``set_workers(k)``: from then on the pool has ``k`` threads
    besides the calling one, so the CPU budget that layer rows and plans
    are made for is k + 1.  Pools started here are shut down afterwards,
    and the module's own pool and budget are restored.
    """
    monkeypatch.setattr(_kernels, "_pool", None)
    pools = []

    def set_workers(workers: int) -> None:
        if _kernels._pool is not None:
            pools.append(_kernels._pool)
        monkeypatch.setattr(_kernels, "_pool_workers", workers)
        _kernels._pool = None

    yield set_workers
    if _kernels._pool is not None:
        pools.append(_kernels._pool)
    for pool in pools:
        pool.shutdown()


@pytest.fixture
def layer_rules(monkeypatch):
    """Returns ``set_rule(name, value)``, which sets one of the layer rules'
    constants in ``_kernels`` (such as ``_REGATHER_MIN_COLS``) for the test
    and forgets every cached layer plan; the constants are restored and the
    plans built meanwhile forgotten afterwards."""
    def set_rule(name: str, value) -> None:
        monkeypatch.setattr(_kernels, name, value)
        model._layer_plan.cache_clear()

    yield set_rule
    model._layer_plan.cache_clear()


@pytest.fixture
def split_ops(op_pool, layer_rules):
    """Split every conv and pool layer by image, whatever its size.

    Returns ``set_workers(k)``: from then on each layer is shared by the
    calling thread and a pool of ``k`` threads (0 runs it on the calling
    thread alone).
    """
    layer_rules("_SPLIT_MIN_MACS", 0)
    layer_rules("_SPLIT_MIN_POOL_READS", 0)
    return op_pool


@pytest.fixture
def shard_inference(op_pool, monkeypatch):
    """Shard every score_images call of more than one batch, whatever its
    size.

    Returns ``set_extra(k)``: from then on score_images shares its images
    between k + 1 forked processes (0 runs it in the calling process).  The
    CPU budget this borrows is restored afterwards, and any op pool started
    meanwhile is shut down.
    """
    monkeypatch.setattr(training, "_SHARD_MIN_IMAGES", 0)
    return op_pool
