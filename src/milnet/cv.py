"""The 5-fold cross-validation run: option checks, the fold rotation, the
per-fold output files and the summary.

With ``workers > 1`` the folds run in forked processes
(``_forked.run_forked``).  A fork child sees the parent's memory as it was
at the fork, so the prepared inputs, the fold plan and the fold function
reach every child without being pickled; only each fold's
:class:`FoldOutcome` is sent back.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace as dc_replace
from typing import Callable

import numpy as np

from ._forked import run_forked
from .config import TrainConfig
from .evaluation import (
    accuracy,
    auc,
    binary_labels,
    make_folds,
    roc_csv,
    roc_curve,
    scores_csv,
)
from .rng import derive_seed
from .training import (
    bag_scores,
    check_select_k,
    init_state,
    metrics_csv,
    prepare_inputs,
    save_checkpoint,
    select_k,
    train,
)

__all__ = [
    "FoldOutcome",
    "CvSummary",
    "check_cv_options",
    "cross_validate",
]


@dataclass
class FoldOutcome:
    """One fold's test scores and metrics; its trained parameters are in
    the fold's checkpoint, fold{f}_ckpt.miln."""

    fold: int
    accuracy: float
    auc: float
    best_epoch: int
    chosen_k: int | None
    test_indices: np.ndarray
    test_scores: np.ndarray


@dataclass
class CvSummary:
    outcomes: list[FoldOutcome]
    accuracy_mean: float
    accuracy_std: float
    auc_mean: float
    auc_std: float


def _summary_csv(summary: CvSummary) -> str:
    lines = ["fold,accuracy,auc"]
    for o in summary.outcomes:
        lines.append(f"{o.fold},{o.accuracy:.10f},{o.auc:.10f}")
    lines.append(
        f"mean±std,{summary.accuracy_mean:.10f}±{summary.accuracy_std:.10f},"
        f"{summary.auc_mean:.10f}±{summary.auc_std:.10f}"
    )
    return "\n".join(lines) + "\n"


def check_cv_options(
    cfg: TrainConfig,
    workers: int,
    use_select_k: bool,
    pretrain: TrainConfig | None,
) -> None:
    """Raise on a cross_validate option set that cannot run, before any
    data or compute is spent on it.

    A pretrain config must name cfg's backbone, since its parameters start
    the main pass, and cfg's preprocessing, since both passes read the
    same prepared inputs.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if use_select_k:
        check_select_k(cfg)
        if pretrain is not None:
            raise ValueError("use_select_k and pretrain cannot be combined")
    if pretrain is not None:
        if pretrain.backbone.describe() != cfg.backbone.describe():
            raise ValueError(
                f"pretrain backbone {pretrain.backbone.describe()} differs from "
                f"the configured backbone {cfg.backbone.describe()}"
            )
        if pretrain.preprocess != cfg.preprocess:
            raise ValueError(
                f"pretrain preprocess {pretrain.preprocess!r} differs from the "
                f"configured preprocess {cfg.preprocess!r}"
            )


def cross_validate(
    images: list[np.ndarray],
    labels,
    cfg: TrainConfig,
    out_dir: str,
    workers: int = 1,
    use_select_k: bool = False,
    pretrain: TrainConfig | None = None,
    names: list[str] | None = None,
    log: Callable[[str], None] | None = None,
) -> CvSummary:
    """Run the full rotation: for each test fold, train on three folds with
    the next fold as validation, then score the held-out test fold.

    When pretrain is given, each fold first runs a full training pass with
    that config (on the same fold's training data, so nothing leaks across
    folds), then the main config starts from the best pretrained parameters
    with fresh optimizer moments.  This is how the label-assignment head is
    meant to be trained: warmed up by the max-pooling head rather than from
    random weights, where its heavy negative patch weighting erases the
    feature map before the top-k pull can find the target.

    Writes, per fold f: fold{f}_metrics.csv, fold{f}_ckpt.miln,
    fold{f}_roc.csv, fold{f}_scores.csv; plus summary.csv with one row per
    fold and a trailing mean±std row (sample standard deviation).
    Labels, names and the fold plan are checked before any image is
    prepared or any file written.  Every image is prepared once, before the
    first fold; fold runs share those inputs read-only and are independent.
    With workers > 1 they run in min(workers, 5) forked processes, which
    call ``log`` for their own fold's lines, in the caller's float64_gemms()
    scope, and split the CPUs with their autodiff op threads; a fold that
    fails or whose process dies raises RuntimeError naming the fold, after
    every fold process has ended.  The outputs are byte-identical at any
    worker count.
    """
    check_cv_options(cfg, workers, use_select_k, pretrain)
    labels = binary_labels(labels)
    if names is None:
        names = [str(i) for i in range(len(images))]
    for what, values in (("labels", labels), ("names", names)):
        if len(values) != len(images):
            raise ValueError(f"{len(values)} {what} for {len(images)} images")
    plan = make_folds(labels, seed=cfg.seed)
    inputs = prepare_inputs(images, cfg)
    os.makedirs(out_dir, exist_ok=True)

    def run_fold(f: int) -> FoldOutcome:
        train_idx, val_idx, test_idx = plan.split(f)
        fold_seed = derive_seed(cfg.seed, "fold", f)
        fold_cfg = dc_replace(cfg, seed=fold_seed)
        fold_log = (lambda msg: log(f"[fold {f}] {msg}")) if log else None
        tr_inputs = [inputs[i] for i in train_idx]
        va_inputs = [inputs[i] for i in val_idx]
        warm_state = None
        if pretrain is not None:
            pre_cfg = dc_replace(pretrain, seed=fold_seed)
            pre_log = (lambda msg: log(f"[fold {f}] pretrain {msg}")) if log else None
            pre = train(
                tr_inputs, labels[train_idx], va_inputs, labels[val_idx],
                pre_cfg, log=pre_log,
            )
            warm_state = init_state(pre.state.params.copy())
        chosen_k = None
        if use_select_k:
            chosen_k, result = select_k(
                tr_inputs, labels[train_idx], va_inputs, labels[val_idx],
                fold_cfg, log=fold_log,
            )
        else:
            result = train(
                tr_inputs, labels[train_idx], va_inputs, labels[val_idx],
                fold_cfg, log=fold_log, init_state_override=warm_state,
            )
        scores = bag_scores(result.state.params, [inputs[i] for i in test_idx])
        fold_acc = accuracy(scores, labels[test_idx])
        fold_auc = auc(scores, labels[test_idx])
        with open(os.path.join(out_dir, f"fold{f}_metrics.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write(metrics_csv(result.metrics))
        save_checkpoint(
            os.path.join(out_dir, f"fold{f}_ckpt.miln"), result.state, result.config
        )
        with open(os.path.join(out_dir, f"fold{f}_roc.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write(roc_csv(roc_curve(scores, labels[test_idx])))
        with open(os.path.join(out_dir, f"fold{f}_scores.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write(scores_csv([names[i] for i in test_idx],
                                labels[test_idx], scores))
        return FoldOutcome(
            fold=f,
            accuracy=fold_acc,
            auc=fold_auc,
            best_epoch=result.best_epoch,
            chosen_k=chosen_k,
            test_indices=test_idx,
            test_scores=scores,
        )

    if workers > 1:
        outcomes = run_forked(
            run_fold, [f"fold {f}" for f in range(plan.n_folds)], workers)
    else:
        outcomes = [run_fold(f) for f in range(plan.n_folds)]
    accs = np.array([o.accuracy for o in outcomes])
    aucs = np.array([o.auc for o in outcomes])
    summary = CvSummary(
        outcomes=outcomes,
        accuracy_mean=float(accs.mean()),
        accuracy_std=float(accs.std(ddof=1)) if accs.size > 1 else 0.0,
        auc_mean=float(aucs.mean()),
        auc_std=float(aucs.std(ddof=1)) if aucs.size > 1 else 0.0,
    )
    with open(os.path.join(out_dir, "summary.csv"), "w", encoding="utf-8") as fh:
        fh.write(_summary_csv(summary))
    if log is not None:
        log(
            f"cv done: accuracy {summary.accuracy_mean:.4f}±{summary.accuracy_std:.4f}, "
            f"auc {summary.auc_mean:.4f}±{summary.auc_std:.4f}"
        )
    return summary
