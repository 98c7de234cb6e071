"""Deep multi-instance learning for whole-image classification.

A self-contained numpy implementation: a small reverse-mode autodiff engine,
a convolutional backbone emitting a grid of patch logits through a shared
logistic layer, and three bag-level loss heads computed from those logits
in one batched pass (max pooling, top-k label assignment, and an L1-sparse
variant), plus the full
training and 5-fold evaluation harness and a synthetic planted-mass dataset
generator for end-to-end verification.
"""

from .autodiff import Tensor
from .config import TrainConfig, parse_config_file
from .cv import cross_validate
from .data import Manifest, SynthSpec, generate_synthetic, load_dataset, load_manifest
from .evaluation import (
    accuracy,
    auc,
    bagging,
    make_folds,
    roc_curve,
)
from .heads import (
    HEADS,
    BagWeights,
    MilConfig,
    bag_loss,
    bag_weights,
)
from .model import (
    BackboneSpec,
    ModelParams,
    backbone_preset,
    init_params,
    instance_responses,
    response_grid,
    response_grids,
)
from .preprocessing import (
    AugmentConfig,
    augment,
    crop_foreground,
    otsu_threshold,
    resize_bilinear,
    to_network_input,
)
from .training import (
    TrainState,
    adam_step,
    bag_scores,
    batch_objective,
    init_state,
    load_checkpoint,
    prepare_inputs,
    save_checkpoint,
    score_images,
    select_k,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "TrainConfig",
    "parse_config_file",
    "Manifest",
    "SynthSpec",
    "generate_synthetic",
    "load_dataset",
    "load_manifest",
    "accuracy",
    "auc",
    "bagging",
    "cross_validate",
    "make_folds",
    "roc_curve",
    "HEADS",
    "BagWeights",
    "MilConfig",
    "bag_loss",
    "bag_weights",
    "BackboneSpec",
    "ModelParams",
    "backbone_preset",
    "init_params",
    "instance_responses",
    "response_grid",
    "response_grids",
    "AugmentConfig",
    "augment",
    "crop_foreground",
    "otsu_threshold",
    "resize_bilinear",
    "to_network_input",
    "TrainState",
    "adam_step",
    "bag_scores",
    "batch_objective",
    "init_state",
    "load_checkpoint",
    "prepare_inputs",
    "save_checkpoint",
    "score_images",
    "select_k",
    "train",
    "__version__",
]
