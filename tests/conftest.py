import pytest

from milnet import autodiff as ad


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
