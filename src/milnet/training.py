"""Adam training loop with deterministic seeding, checkpoints, k selection.

Every source of randomness is a derived stream of the root seed: "init" for
parameters, ("shuffle", epoch) for batch order, ("aug", epoch, sample index)
for augmentation.  Two runs with the same config and data are therefore
bitwise identical, including checkpoint bytes.
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import _forked, _kernels
from . import autodiff as ad
from .autodiff import Tensor
from .config import TrainConfig, parse_run_config, run_config_text
from .evaluation import accuracy, auc, binary_labels
from .heads import BagWeights, bag_loss, bag_weights
from .model import (
    INFER_BATCH,
    ModelParams,
    _check_network_inputs,
    forward_backbone,
    init_params,
    instance_responses,
    output_geometry,
    param_shapes,
    params_to_leaves,
    response_grids,
)
from .preprocessing import augment, to_network_input
from .rng import derive_rng

__all__ = [
    "TrainState",
    "EpochMetrics",
    "TrainResult",
    "init_state",
    "adam_step",
    "bag_scores",
    "score_images",
    "batch_objective",
    "train",
    "check_select_k",
    "select_k",
    "save_checkpoint",
    "load_checkpoint",
    "metrics_csv",
    "prepare_inputs",
]


@dataclass
class TrainState:
    """Parameters plus Adam moments and the step counter."""

    params: ModelParams
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    def copy(self) -> "TrainState":
        return TrainState(
            params=self.params.copy(),
            m={k: a.copy() for k, a in self.m.items()},
            v={k: a.copy() for k, a in self.v.items()},
            step=self.step,
        )


def init_state(params: ModelParams) -> TrainState:
    zeros = lambda: {k: np.zeros_like(a) for k, a in params.arrays.items()}
    return TrainState(params=params, m=zeros(), v=zeros())


def adam_step(
    state: TrainState,
    grads: dict[str, np.ndarray],
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> TrainState:
    """One bias-corrected Adam update, in place; returns the state.

    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps).  Each intermediate
    goes into one of two scratch arrays per parameter, in the order of the
    plain expressions ((1 - beta2) * g, then times g; lr * m_hat, then the
    division), so the update rounds exactly as they do.
    """
    t = state.step + 1
    for name, arr in state.params.arrays.items():
        if name not in grads or grads[name] is None:
            raise ValueError(f"missing gradient for parameter {name!r}")
        g = grads[name]
        if g.shape != arr.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter "
                f"{name!r} shape {arr.shape}"
            )
        m = state.m[name]
        v = state.v[name]
        s1, s2 = np.empty_like(arr), np.empty_like(arr)
        m *= beta1
        m += np.multiply(1.0 - beta1, g, out=s1)
        v *= beta2
        np.multiply(1.0 - beta2, g, out=s1)
        v += np.multiply(s1, g, out=s1)
        m_hat = np.divide(m, 1.0 - beta1**t, out=s1)
        v_hat = np.divide(v, 1.0 - beta2**t, out=s2)
        denom = np.add(np.sqrt(v_hat, out=s2), eps, out=s2)
        arr -= np.divide(np.multiply(lr, m_hat, out=s1), denom, out=s1)
    state.step = t
    return state


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    train_loss: float
    val_auc: float
    val_acc: float


@dataclass
class TrainResult:
    """Best-validation-AUC snapshot plus the full per-epoch log."""

    state: TrainState
    config: TrainConfig
    metrics: list[EpochMetrics]
    best_epoch: int
    best_val_auc: float


def metrics_csv(metrics: list[EpochMetrics]) -> str:
    lines = ["epoch,train_loss,val_auc,val_acc"]
    for row in metrics:
        lines.append(
            f"{row.epoch},{row.train_loss:.10f},{row.val_auc:.10f},{row.val_acc:.10f}"
        )
    return "\n".join(lines) + "\n"


def prepare_inputs(images: list[np.ndarray], cfg: TrainConfig) -> list[np.ndarray]:
    """Each raw image as the network input the config's preprocessing makes.

    The arrays are read-only: one prepared set is shared by every training
    pass, validation and test scoring that uses it, fold processes included.
    """
    size = cfg.backbone.input_size
    inputs = [to_network_input(img, size, mode=cfg.preprocess) for img in images]
    for x in inputs:
        x.flags.writeable = False
    return inputs


def bag_scores(params: ModelParams, inputs: list[np.ndarray]) -> np.ndarray:
    """Predicted positive probability per bag: the top patch response."""
    return response_grids(params, inputs).max(axis=(1, 2))


# Images from which score_images shares them out over forked processes, one
# per CPU of the op budget.  Forking and joining two shards that do nothing
# takes about 7-8 ms.  Desk preset, decoded 64 px images, preparation
# included, 2 cores, 1 BLAS thread, medians of 15 interleaved calls, one
# process against two shards: 128 images 25.6 against 29.0 ms, 256 images
# 34.3 against 29.9 ms, 320 images 43.8 against 33.8 ms, 2000 images 258
# against 155 ms.  Paper-preset layers already split over the op pool, so
# sharding them gains less (64 images: 708 against 614 ms).
_SHARD_MIN_IMAGES = 320


def score_images(
    models: list[tuple[ModelParams, TrainConfig]], images: list[np.ndarray]
) -> list[np.ndarray]:
    """Bag scores of raw images under each (params, cfg) model: one array
    per model, in image order.

    Each model scores the inputs its config's preprocessing makes, prepared
    once for every group of models that share an input size and
    ``preprocess``.  From _SHARD_MIN_IMAGES images on, the images are shared
    out in contiguous runs of whole INFER_BATCH batches over forked
    processes, one per CPU this process may use for ops; each prepares its
    run once per group, scores it with every model of the group and sends
    back only the scores.  So every image meets the same batches and BLAS
    calls as in one process, and the bytes do not change.  A shard that
    raises makes this raise RuntimeError naming its image range; a shard
    process that dies, naming the first unfinished range.  No process
    outlives the call.
    """
    groups: dict[tuple[int, str], list[int]] = {}
    for i, (_, cfg) in enumerate(models):
        groups.setdefault((cfg.backbone.input_size, cfg.preprocess), []).append(i)

    def score(start: int, stop: int) -> list[np.ndarray]:
        scores = [None] * len(models)
        # a group's inputs are dropped before the next group's are made
        for members in groups.values():
            inputs = prepare_inputs(images[start:stop], models[members[0]][1])
            for i in members:
                scores[i] = bag_scores(models[i][0], inputs)
        return scores

    batches = -(-len(images) // INFER_BATCH)
    shares = min(_kernels.cpu_budget() if len(images) >= _SHARD_MIN_IMAGES else 1, batches)
    if shares <= 1:
        return score(0, len(images))
    bounds = [INFER_BATCH * (batches * i // shares) for i in range(shares)] + [len(images)]
    ranges = list(zip(bounds, bounds[1:]))
    parts = _forked.run_forked(
        lambda i: score(*ranges[i]), [f"images {a}-{b - 1}" for a, b in ranges], shares)
    return [np.concatenate(per_shard) for per_shard in zip(*parts)]


def batch_objective(
    cfg: TrainConfig,
    weights: BagWeights,
    leaves: dict[str, Tensor],
    x: Tensor,
    labels: np.ndarray,
) -> Tensor:
    """The training objective of one (N, 1, H, W) batch, as the graph root:
    the head's bag terms summed over the batch plus one L2 term."""
    fmap = forward_backbone(x, cfg.backbone, leaves)
    logits = instance_responses(fmap, leaves["response.weight"], leaves["response.bias"])
    total = bag_loss(cfg.mil, logits, labels, weights)
    if cfg.mil.lam > 0.0:
        total = ad.add(total, ad.scale(ad.l2_norm_sq(*leaves.values()), cfg.mil.lam / 2.0))
    return total


def train(
    train_inputs: list[np.ndarray],
    train_labels: np.ndarray,
    val_inputs: list[np.ndarray],
    val_labels: np.ndarray,
    cfg: TrainConfig,
    log: Callable[[str], None] | None = None,
    init_state_override: TrainState | None = None,
) -> TrainResult:
    """Full training run; returns the best-validation-AUC snapshot.

    Inputs are network inputs, as ``prepare_inputs`` makes them from raw
    images with cfg's preprocessing; they are only read, and per-epoch
    augmentation works on copies.  Ties on validation AUC keep the earlier
    epoch.  When the last epoch is the best, ``result.state`` is the live
    training state itself (``init_state_override`` when one is given), not
    a copy.  A non-finite loss aborts with the offending epoch and step
    named.
    """
    train_labels = binary_labels(train_labels, "training label")
    val_labels = binary_labels(val_labels, "validation label")
    n = len(train_inputs)
    if n == 0 or len(val_inputs) == 0:
        raise ValueError("train and validation sets must be non-empty")
    if n != len(train_labels) or len(val_inputs) != len(val_labels):
        raise ValueError("inputs and labels must align")
    n_pos = int(train_labels.sum())
    if n_pos == 0 or n_pos == n:
        raise ValueError(
            f"training fold has a single class ({n_pos} positives of {n}); "
            "both classes are required"
        )
    n_val_pos = int(val_labels.sum())
    if n_val_pos == 0 or n_val_pos == len(val_labels):
        raise ValueError(
            f"validation set has a single class ({n_val_pos} positives of "
            f"{len(val_labels)}); both classes are required for its AUC"
        )
    size = cfg.backbone.input_size
    _check_network_inputs(train_inputs, size, "training")
    _check_network_inputs(val_inputs, size, "validation")
    _, gh, gw = output_geometry(cfg.backbone)
    # the patch weights serve label_assign alone; the other heads have no k
    k = cfg.mil.k if cfg.mil.head == "label_assign" else 1
    weights = bag_weights(n_pos, n, k, gh * gw, mode=cfg.mil.weight_mode)

    if init_state_override is not None:
        warm = init_state_override.params.spec.describe()
        if warm != cfg.backbone.describe():
            raise ValueError(
                f"warm-start parameters are for backbone {warm}, but the config "
                f"trains {cfg.backbone.describe()}"
            )
        state = init_state_override
    else:
        state = init_state(init_params(cfg.backbone, cfg.seed))
    best: TrainState | None = None
    best_auc = -1.0
    best_epoch = -1
    metrics: list[EpochMetrics] = []

    for epoch in range(1, cfg.epochs + 1):
        order = derive_rng(cfg.seed, "shuffle", epoch).permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            chunk = order[start : start + cfg.batch_size]
            xs = np.empty((len(chunk), 1, size, size))
            for row, idx in enumerate(chunk):
                img = train_inputs[idx]
                if cfg.augment_enabled:
                    rng = derive_rng(cfg.seed, "aug", epoch, int(idx))
                    img = augment(img, cfg.aug, rng)
                xs[row, 0] = img
            leaves = params_to_leaves(state.params)
            total = batch_objective(cfg, weights, leaves, Tensor(xs), train_labels[chunk])
            if not np.isfinite(total.data):
                raise RuntimeError(
                    f"non-finite loss {total.data!r} at epoch {epoch}, "
                    f"step {state.step + 1}; aborting"
                )
            loss_sum += float(total.data)
            total.backward()
            grads = {name: leaf.grad for name, leaf in leaves.items()}
            adam_step(state, grads, cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps)
        scores = bag_scores(state.params, val_inputs)
        val_auc = auc(scores, val_labels)
        val_acc = accuracy(scores, val_labels)
        row = EpochMetrics(
            epoch=epoch,
            train_loss=loss_sum / n,
            val_auc=val_auc,
            val_acc=val_acc,
        )
        metrics.append(row)
        if log is not None:
            log(
                f"epoch {epoch}/{cfg.epochs}  train_loss {row.train_loss:.6f}  "
                f"val_auc {val_auc:.4f}  val_acc {val_acc:.4f}"
            )
        if val_auc > best_auc:
            best_auc = val_auc
            best_epoch = epoch
            # nothing trains the last epoch's state further
            best = state if epoch == cfg.epochs else state.copy()
    assert best is not None
    return TrainResult(
        state=best,
        config=cfg,
        metrics=metrics,
        best_epoch=best_epoch,
        best_val_auc=best_auc,
    )


def check_select_k(cfg: TrainConfig) -> None:
    """Raise unless k selection applies to cfg's head (label_assign only)
    and every k in the grid fits the backbone's cell count."""
    if cfg.mil.head != "label_assign":
        raise ValueError(
            f"k selection applies to the label_assign head, not {cfg.mil.head!r}"
        )
    _, gh, gw = output_geometry(cfg.backbone)
    if cfg.k_grid[-1] > gh * gw:
        raise ValueError(
            f"k={cfg.k_grid[-1]} in k_grid exceeds instances per bag m={gh * gw}"
        )


def select_k(
    train_inputs: list[np.ndarray],
    train_labels: np.ndarray,
    val_inputs: list[np.ndarray],
    val_labels: np.ndarray,
    cfg: TrainConfig,
    log: Callable[[str], None] | None = None,
) -> tuple[int, TrainResult]:
    """Train one label_assign model per k in the grid, all on the same
    network inputs; best validation AUC wins, ties going to the smaller k
    (the grid is kept sorted)."""
    check_select_k(cfg)
    best_k = None
    best_result: TrainResult | None = None
    for k in cfg.k_grid:
        run_cfg = replace(cfg, mil=replace(cfg.mil, k=k))
        if log is not None:
            log(f"k = {k}")
        result = train(train_inputs, train_labels, val_inputs, val_labels,
                       run_cfg, log=log)
        if best_result is None or result.best_val_auc > best_result.best_val_auc:
            best_k = k
            best_result = result
    assert best_k is not None and best_result is not None
    return best_k, best_result


# Checkpoint format: magic "MILN", u32 version, u64 config-blob length,
# UTF-8 config text (includes the step counter), then per tensor: u32 name
# length, name bytes, u32 rank, rank x u64 dims, u8 dtype tag (0 = little-
# endian float64), raw payload.  Parameters come first in their natural
# order, then adam.m.* and adam.v.* moments.

CHECKPOINT_MAGIC = b"MILN"
CHECKPOINT_VERSION = 1
_DTYPE_F64_LE = 0


def _write_tensor(f, name: str, arr: np.ndarray) -> None:
    # asarray keeps 0-d arrays 0-d (ascontiguousarray would promote the
    # scalar response bias to shape (1,) and the round trip would not be
    # shape-exact)
    data = np.asarray(arr, dtype="<f8", order="C")
    encoded = name.encode("utf-8")
    f.write(struct.pack("<I", len(encoded)))
    f.write(encoded)
    f.write(struct.pack("<I", data.ndim))
    if data.ndim:
        f.write(struct.pack(f"<{data.ndim}Q", *data.shape))
    f.write(struct.pack("<B", _DTYPE_F64_LE))
    # the contiguous array's own buffer, so no copy of the tensor is made
    f.write(data.data)


def save_checkpoint(path: str, state: TrainState, cfg: TrainConfig) -> None:
    """Write a checkpoint atomically.

    The bytes go to a temporary file in the target's directory, which then
    replaces the target in one rename, so a write that fails midway leaves
    any previous checkpoint at ``path`` untouched and no partial file.
    """
    blob = run_config_text(cfg, state.step).encode("utf-8")
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", CHECKPOINT_VERSION))
            f.write(struct.pack("<Q", len(blob)))
            f.write(blob)
            for name, arr in state.params.arrays.items():
                _write_tensor(f, name, arr)
            for name in state.params.arrays:
                _write_tensor(f, "adam.m." + name, state.m[name])
            for name in state.params.arrays:
                _write_tensor(f, "adam.v." + name, state.v[name])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read_exact(f, count: int, what: str) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise ValueError(f"{f.name}: truncated checkpoint while reading {what}")
    return data


def _check_layout(
    path: str,
    cfg: TrainConfig,
    arrays: dict[str, np.ndarray],
    moments_m: dict[str, np.ndarray],
    moments_v: dict[str, np.ndarray],
) -> None:
    """Raise naming the first tensor that differs from the parameter layout
    of the backbone the checkpoint's config names."""
    expected = param_shapes(cfg.backbone)
    backbone = cfg.backbone.describe()
    groups = (
        ("parameter", "", arrays),
        ("Adam moments", "adam.m.", moments_m),
        ("Adam moments", "adam.v.", moments_v),
    )
    for kind, prefix, group in groups:
        for name, shape in expected.items():
            if name not in group:
                raise ValueError(
                    f"{path}: missing {kind} tensor {prefix + name!r} of "
                    f"backbone {backbone}"
                )
            if group[name].shape != shape:
                raise ValueError(
                    f"{path}: tensor {prefix + name!r} has shape "
                    f"{group[name].shape}, backbone {backbone} needs {shape}"
                )
        for name in group:
            if name not in expected:
                raise ValueError(
                    f"{path}: tensor {prefix + name!r} is not a parameter of "
                    f"backbone {backbone}"
                )


def load_checkpoint(path: str) -> tuple[TrainState, TrainConfig]:
    with open(path, "rb") as f:
        if _read_exact(f, 4, "magic") != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(f, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        (blob_len,) = struct.unpack("<Q", _read_exact(f, 8, "config length"))
        cfg, step = parse_run_config(_read_exact(f, blob_len, "config").decode("utf-8"))
        tensors: dict[str, np.ndarray] = {}
        while True:
            head = f.read(4)
            if not head:
                break
            if len(head) != 4:
                raise ValueError(f"{path}: truncated checkpoint while reading name length")
            (name_len,) = struct.unpack("<I", head)
            name = _read_exact(f, name_len, "tensor name").decode("utf-8")
            (rank,) = struct.unpack("<I", _read_exact(f, 4, f"{name} rank"))
            shape = struct.unpack(
                f"<{rank}Q", _read_exact(f, 8 * rank, f"{name} dims")
            )
            (tag,) = struct.unpack("<B", _read_exact(f, 1, f"{name} dtype"))
            if tag != _DTYPE_F64_LE:
                raise ValueError(f"{path}: unknown dtype tag {tag} for {name!r}")
            count = int(np.prod(shape, dtype=np.int64)) if rank else 1
            # read straight into the tensor's array, with no bytes object between
            flat = np.empty(count, dtype="<f8")
            if f.readinto(flat) != flat.nbytes:
                raise ValueError(f"{path}: truncated checkpoint while reading "
                                 f"{name} payload")
            tensors[name] = flat.reshape(shape)
    arrays = {}
    moments_m = {}
    moments_v = {}
    for name, arr in tensors.items():
        if name.startswith("adam.m."):
            moments_m[name[len("adam.m."):]] = arr
        elif name.startswith("adam.v."):
            moments_v[name[len("adam.v."):]] = arr
        else:
            arrays[name] = arr
    _check_layout(path, cfg, arrays, moments_m, moments_v)
    params = ModelParams(cfg.backbone, arrays)
    return TrainState(params=params, m=moments_m, v=moments_v, step=step), cfg
