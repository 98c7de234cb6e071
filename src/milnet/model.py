"""Backbone CNN and the shared logistic instance-response layer.

The backbone maps a grayscale image batch to a multi-channel feature map
whose every spatial cell stands for one patch of the input.  A logistic
layer with weights shared across positions turns each cell into a logit z;
the cell's response, its malignancy probability, is sigmoid(z).  Training
hands the (N, m) logits straight to the MIL loss heads, and inference applies
the sigmoid to the same logits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _kernels
from . import autodiff as ad
from .autodiff import Tensor
from .rng import derive_rng

__all__ = [
    "BackboneSpec",
    "ModelParams",
    "PRESETS",
    "backbone_preset",
    "layer_plan",
    "output_geometry",
    "param_shapes",
    "init_params",
    "params_to_leaves",
    "forward_backbone",
    "instance_responses",
    "response_grid",
    "response_grids",
]

Layer = tuple  # (kind, *integer fields), e.g. ("conv", 8, 5, 2, 2) or ("relu",)

# the integer fields of each layer kind, in layer-string order
_LAYER_FIELDS: dict[str, tuple[str, ...]] = {
    "conv": ("channels", "kernel", "stride", "padding"),
    "relu": (),
    "pool": ("window", "stride"),
}


@dataclass(frozen=True)
class BackboneSpec:
    """Input size plus the ordered conv/relu/pool layer list."""

    input_size: int
    layers: tuple[Layer, ...]

    def __post_init__(self):
        if self.input_size < 1:
            raise ValueError(
                f"backbone layer 'input:{self.input_size}': size must be >= 1, "
                f"got {self.input_size}"
            )
        for layer in self.layers:
            text = ":".join(str(v) for v in layer)
            names = _LAYER_FIELDS.get(layer[0])
            if names is None:
                raise ValueError(f"unknown backbone layer {text!r}")
            if len(layer) != 1 + len(names):
                form = ":".join([layer[0]] + [f"<{name}>" for name in names])
                raise ValueError(f"backbone layer {text!r}: expected {form}")
            for name, value in zip(names, layer[1:]):
                low = 0 if name == "padding" else 1
                if value < low:
                    raise ValueError(
                        f"backbone layer {text!r}: {name} must be >= {low}, got {value}"
                    )

    def describe(self) -> str:
        parts = [f"input:{self.input_size}"]
        for layer in self.layers:
            parts.append(":".join(str(v) for v in layer))
        return ",".join(parts)

    @staticmethod
    def parse(text: str) -> "BackboneSpec":
        fields = [f.strip() for f in text.split(",") if f.strip()]
        parsed = []
        for field in fields:
            kind, *parts = field.split(":")
            try:
                parsed.append((kind, *(int(part) for part in parts)))
            except ValueError:
                raise ValueError(f"backbone layer {field!r}: expected integers") from None
        if not parsed or parsed[0][0] != "input" or len(parsed[0]) != 2:
            raise ValueError(f"backbone spec must start with 'input:<size>': {text!r}")
        (_, input_size), *layers = parsed
        return BackboneSpec(input_size=input_size, layers=tuple(layers))


# The full-scale preset follows the standard five-conv stack adapted to one
# input channel; it maps 224x224 to a 256-channel 6x6 map.  The desk preset
# is sized for fast end-to-end verification: 64x64 in, 32-channel 4x4 out.
# It reaches stride 16 through stride-2 convolutions plus one trailing pool
# rather than repeated pooling, which keeps each output cell's receptive
# field to 25 px; wider fields blur neighboring cells together and the
# response map stops pointing at the right patch.
PRESETS: dict[str, BackboneSpec] = {
    "paper": BackboneSpec(
        input_size=224,
        layers=(
            ("conv", 64, 11, 4, 2), ("relu",), ("pool", 3, 2),
            ("conv", 192, 5, 1, 2), ("relu",), ("pool", 3, 2),
            ("conv", 384, 3, 1, 1), ("relu",),
            ("conv", 256, 3, 1, 1), ("relu",),
            ("conv", 256, 3, 1, 1), ("relu",), ("pool", 3, 2),
        ),
    ),
    "desk": BackboneSpec(
        input_size=64,
        layers=(
            ("conv", 8, 5, 2, 2), ("relu",),
            ("conv", 16, 3, 2, 1), ("relu",),
            ("conv", 32, 3, 2, 1), ("relu",),
            ("pool", 2, 2),
        ),
    ),
}


def backbone_preset(name: str) -> BackboneSpec:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return PRESETS[name]


def layer_plan(spec: BackboneSpec, batch: int) -> tuple[_kernels.LayerRow, ...]:
    """One row per layer of ``spec`` for a batch of ``batch`` images on the
    CPUs this process runs ops on: the layer's input and output shapes and
    how it runs, by the rules in ``_kernels``.

    The activations of a conv layer whose columns are gathered again, and
    of the relu and pool layers after it up to the next conv, are dropped
    once the next layer is built (``forward_backbone``): regathering and
    dropping pay off on the same large layers, at batch 8 every paper layer
    and no desk layer.  The returned feature map is never dropped.  Raises
    ValueError when a layer leaves no spatial cell.
    """
    return _layer_plan(spec, batch, _kernels.cpu_budget())


@functools.lru_cache(maxsize=64)
def _layer_plan(spec: BackboneSpec, batch: int, cpus: int) -> tuple[_kernels.LayerRow, ...]:
    rows = []
    shape = (batch, 1, spec.input_size, spec.input_size)
    drop = False
    for layer in spec.layers:
        if layer[0] == "conv":
            _, out_c, k, s, p = layer
            row = _kernels.conv_row(shape, (out_c, shape[1], k, k), s, p)
            drop = row.regather
        elif layer[0] == "pool":
            row = _kernels.pool_row(shape, *layer[1:])
        else:
            row = _kernels.LayerRow("relu", shape, shape)
        if min(row.out_shape[2:]) < 1:
            raise ValueError(f"backbone collapses spatial dims at layer {layer}")
        rows.append(row._replace(drop=drop))
        shape = row.out_shape
    if rows:
        rows[-1] = rows[-1]._replace(drop=False)
    return tuple(rows)


def output_geometry(spec: BackboneSpec) -> tuple[int, int, int]:
    """(channels, height, width) of the feature map the spec produces."""
    plan = layer_plan(spec, 1)
    return plan[-1].out_shape[1:] if plan else (1, spec.input_size, spec.input_size)


def _check_network_inputs(inputs: list[np.ndarray], size: int, which: str) -> None:
    """Raise naming the first input that is not a 2-D float array of side
    size, such as a raw image that was never prepared."""
    for i, x in enumerate(inputs):
        x = np.asarray(x)
        if x.shape != (size, size) or x.dtype.kind != "f":
            raise ValueError(
                f"{which} input {i} is a {x.dtype} array of shape {x.shape}, not "
                f"a network input (2-D float, side {size}); prepare raw images "
                "with prepare_inputs"
            )


class ModelParams:
    """Named parameter arrays: conv kernels/biases plus the response layer.

    Kernels are named conv{i}.kernel / conv{i}.bias in layer order; the
    shared logistic layer is response.weight (length = output channels) and
    response.bias (scalar).
    """

    def __init__(self, spec: BackboneSpec, arrays: dict[str, np.ndarray]):
        self.spec = spec
        self.arrays = arrays

    def names(self) -> list[str]:
        return list(self.arrays)

    def copy(self) -> "ModelParams":
        return ModelParams(self.spec, {k: v.copy() for k, v in self.arrays.items()})


def param_shapes(spec: BackboneSpec) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter the spec needs, in the order
    init_params draws and checkpoints store them."""
    shapes: dict[str, tuple[int, ...]] = {}
    convs = [row for row in layer_plan(spec, 1) if row.kind == "conv"]
    for i, row in enumerate(convs):
        out_c = row.out_shape[1]
        shapes[f"conv{i}.kernel"] = (out_c, row.in_shape[1], *row.kernel)
        shapes[f"conv{i}.bias"] = (out_c,)
    n_c, _, _ = output_geometry(spec)
    shapes["response.weight"] = (n_c,)
    shapes["response.bias"] = ()
    return shapes


def init_params(spec: BackboneSpec, seed: int) -> ModelParams:
    """Seed-controlled init: kernels uniform in +-sqrt(6/(fan_in+fan_out)),
    biases zero.  Keeps initial responses near 0.5."""
    rng = derive_rng(seed, "init")
    arrays: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(spec).items():
        if name.endswith(".bias"):
            arrays[name] = np.zeros(shape)
            continue
        if len(shape) == 4:
            out_c, in_c, k, _ = shape
            fan_in = in_c * k * k
            fan_out = out_c * k * k
        else:  # response.weight: one logistic unit over the output channels
            fan_in = shape[0]
            fan_out = 1
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        arrays[name] = rng.uniform(-limit, limit, size=shape)
    return ModelParams(spec, arrays)


def params_to_leaves(params: ModelParams, requires_grad: bool = True) -> dict[str, Tensor]:
    return {
        name: Tensor(arr, requires_grad=requires_grad, name=name)
        for name, arr in params.arrays.items()
    }


def forward_backbone(x: Tensor, spec: BackboneSpec, leaves: dict[str, Tensor]) -> Tensor:
    """Run the conv stack on an (N, 1, H, W) batch; returns the feature map.

    Each layer runs as its ``layer_plan`` row says, and a conv layer that a
    relu follows is one ``conv2d`` node that rectifies its own output, in
    a graph and in inference alike.  In a graph, an interior activation
    whose row is marked ``drop`` has its ``.data`` replaced, once the next
    layer is built, by a read-only zero-strided NaN array of the same shape,
    so that its memory is freed: no backward closure reads a parent's data
    (``autodiff`` docstring).  The input and the returned feature map are
    never dropped.
    """
    if x.ndim != 4 or x.shape[1] != 1:
        raise ValueError(f"expected (N, 1, H, W) input, got {x.shape}")
    if x.shape[2] != spec.input_size or x.shape[3] != spec.input_size:
        raise ValueError(
            f"input spatial size {x.shape[2]}x{x.shape[3]} does not match "
            f"backbone input size {spec.input_size}"
        )
    plan = layer_plan(spec, x.shape[0])
    out = x
    conv_i = 0
    drop = False
    for i, row in enumerate(plan):
        if row.kind == "relu" and i and plan[i - 1].kind == "conv":
            # the conv before it rectified its output; the fused node is
            # dropped as this row says
            drop = row.drop
            continue
        prev = out
        if row.kind == "conv":
            relu = i + 1 < len(plan) and plan[i + 1].kind == "relu"
            out = ad.conv2d(out, leaves[f"conv{conv_i}.kernel"], stride=row.stride,
                            padding=row.padding, bias=leaves[f"conv{conv_i}.bias"],
                            relu=relu)
            conv_i += 1
        elif row.kind == "relu":
            out = ad.relu(out)
        else:
            out = ad.maxpool2d(out, window=row.kernel[0], stride=row.stride)
        if drop and out.requires_grad:
            prev.data = np.broadcast_to(np.nan, prev.shape)
        drop = row.drop
    return out


def instance_responses(feature_map: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Shared logistic layer over every feature-map cell, as logits.

    z[n, i * w + j] = weight . F[n, :, i, j] + bias: one row of
    m = h * w logits per image, flattened row-major.  The cell's response is
    sigmoid(z).
    """
    n, _, h, w = feature_map.shape
    return ad.reshape(ad.affine_channel(feature_map, weight, bias), (n, h * w))


# Images per forward pass in inference.  Every op of the forward pass treats
# the images of a batch independently, so grids do not depend on the batch
# size; 8 is the fastest size measured on desk inputs (4 and 16 are slower,
# 64 much slower as the im2col buffers outgrow the cache), and at the paper
# preset it is the footprint a training batch of 8 already has.
INFER_BATCH = 8


def response_grids(params: ModelParams, images: list[np.ndarray]) -> np.ndarray:
    """Inference-only response maps of [0, 1] float images, as an
    (N, grid_h, grid_w) array, forwarded INFER_BATCH images at a time in
    this process.

    Every image is checked first: one that is not a 2-D float array of the
    backbone's input size raises ValueError naming its index, before any
    batch is run.
    """
    _check_network_inputs(images, params.spec.input_size, "inference")
    leaves = params_to_leaves(params, requires_grad=False)
    _, grid_h, grid_w = output_geometry(params.spec)
    grids = np.empty((len(images), grid_h, grid_w))
    # no leaf requires a gradient, so conv2d and maxpool2d take their
    # forward-only branches
    for start in range(0, len(images), INFER_BATCH):
        batch = np.stack(images[start:start + INFER_BATCH])[:, None, :, :]
        fmap = forward_backbone(Tensor(batch), params.spec, leaves)
        logits = instance_responses(fmap, leaves["response.weight"],
                                    leaves["response.bias"])
        grids[start:start + len(batch)] = ad.sigmoid(logits).data.reshape(
            -1, grid_h, grid_w)
    return grids


def response_grid(params: ModelParams, image: np.ndarray) -> np.ndarray:
    """Inference-only response map of a single [0, 1] float image, as a
    (grid_h, grid_w) array."""
    return response_grids(params, [image])[0]
