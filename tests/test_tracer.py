"""The benchmark's span tracer (perfbench/tracing.py) still fits the milnet
API it wraps.  The tracer is loaded from its file and used as it is, around
a one-epoch desk training in this process."""

import importlib.util
from pathlib import Path

import numpy as np

from milnet.config import TrainConfig
from milnet.heads import MilConfig
from milnet.training import prepare_inputs, train

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_desk_training_counts_heads_conv_backward_and_nodes():
    tracing = load_tracing()
    rng = np.random.default_rng(11)
    images = [rng.integers(0, 256, (64, 64)).astype(np.uint8) for _ in range(8)]
    inputs = prepare_inputs(images, TrainConfig())
    labels = np.array([1, 0] * 4)
    cfg = TrainConfig(epochs=1, batch_size=4, seed=2, mil=MilConfig(head="sparse", mu=1e-3))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        train(inputs, labels, inputs[:4], labels[:4], cfg)
    metrics = tracing.layer_metrics(tracer.spans, fold_workers=1)
    # one head call per optimizer step
    assert metrics["training.adam_step_calls"] == 2
    assert metrics["heads.bag_loss_calls"] == metrics["training.adam_step_calls"]
    # conv backward is charged to conv2d, not to a node builder around it
    assert metrics["autodiff.conv2d.bwd_s"] > 0
    # 3 conv, each with its relu, 1 pool, the response layer, its reshape,
    # L2 and the objective, each counted once
    assert metrics["autodiff.ops_per_step"] == 8
