"""Metrics, fold plans, bagging, dataset statistics, map export.

Scores are bag-level positive probabilities throughout.  AUC uses the
rank-based Mann-Whitney statistic with half credit for ties, which equals
the trapezoidal area under the ROC curve produced here.
"""

from __future__ import annotations

import os
# only reader: perfbench/tracing.py, which patches this name on traced runs
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass

import numpy as np

from .data import Manifest
from .model import ModelParams, response_grid
from .pgm import read_image_size, write_pgm
from .preprocessing import to_network_input
from .rng import derive_rng

__all__ = [
    "accuracy",
    "auc",
    "RocCurve",
    "roc_curve",
    "roc_csv",
    "FoldPlan",
    "binary_labels",
    "make_folds",
    "bagging",
    "BAGGING_MODES",
    "DatasetStats",
    "dataset_stats",
    "write_dataset_stats",
    "export_response_map",
    "scores_csv",
]


def _check_scores_labels(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.ndim != 1 or scores.shape != labels.shape:
        raise ValueError(
            f"scores and labels must be equal-length 1-D, got "
            f"{scores.shape} and {labels.shape}"
        )
    if scores.size == 0:
        raise ValueError("empty score list")
    return scores, binary_labels(labels)


def accuracy(scores, labels, threshold: float = 0.5) -> float:
    """Fraction of correct calls; a score exactly at the threshold counts
    as a positive call."""
    scores, labels = _check_scores_labels(scores, labels)
    predicted = (scores >= threshold).astype(np.int64)
    return float((predicted == labels).mean())


def _require_both_classes(labels: np.ndarray) -> tuple[int, int]:
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError(
            f"need both classes for ranking metrics, got {n_pos} positives "
            f"and {n_neg} negatives"
        )
    return n_pos, n_neg


def _tie_starts(sorted_values: np.ndarray) -> np.ndarray:
    """Index of the first entry of each run of equal values in a sorted
    array (NaNs are never equal, so each is a run of its own)."""
    return np.flatnonzero(np.concatenate(([True], sorted_values[1:] != sorted_values[:-1])))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    order = np.argsort(values, kind="stable")
    starts = _tie_starts(values[order])
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size, dtype=np.float64)
    # the average of 1-based ranks i + 1 .. j of a run [i, j)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def auc(scores, labels) -> float:
    """Mann-Whitney AUC: P(random positive outscores random negative),
    ties counting half."""
    scores, labels = _check_scores_labels(scores, labels)
    n_pos, n_neg = _require_both_classes(labels)
    ranks = _average_ranks(scores)
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass(frozen=True)
class RocCurve:
    """Operating points swept over descending score thresholds.

    fpr and tpr are nondecreasing with endpoints (0, 0) and (1, 1); the
    first threshold is +inf (call nothing positive).
    """

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray

    def area(self) -> float:
        df = np.diff(self.fpr)
        return float(np.sum(df * (self.tpr[1:] + self.tpr[:-1]) / 2.0))


def roc_curve(scores, labels) -> RocCurve:
    scores, labels = _check_scores_labels(scores, labels)
    n_pos, n_neg = _require_both_classes(labels)
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    # one operating point per run of equal scores, taking the whole run
    starts = _tie_starts(sorted_scores)
    ends = np.append(starts[1:], scores.size)
    tp = np.cumsum(np.add.reduceat(labels[order], starts))
    fp = ends - tp
    return RocCurve(
        fpr=np.concatenate(([0.0], fp / n_neg)),
        tpr=np.concatenate(([0.0], tp / n_pos)),
        thresholds=np.concatenate(([np.inf], sorted_scores[starts])),
    )


def roc_csv(curve: RocCurve) -> str:
    lines = ["fpr,tpr,threshold"]
    for f, t, thr in zip(curve.fpr, curve.tpr, curve.thresholds):
        thr_s = "inf" if np.isinf(thr) else f"{thr:.10f}"
        lines.append(f"{f:.10f},{t:.10f},{thr_s}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FoldPlan:
    """Per-sample fold ids in {0..n_folds-1}, stratified by class.

    For test fold f the validation fold is (f + 1) % n_folds and the
    remaining folds train.
    """

    assignments: np.ndarray
    n_folds: int

    def split(self, test_fold: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(train indices, val indices, test indices) for one rotation."""
        if not 0 <= test_fold < self.n_folds:
            raise ValueError(f"test fold {test_fold} out of range")
        val_fold = (test_fold + 1) % self.n_folds
        test = np.flatnonzero(self.assignments == test_fold)
        val = np.flatnonzero(self.assignments == val_fold)
        train = np.flatnonzero(
            (self.assignments != test_fold) & (self.assignments != val_fold)
        )
        return train, val, test


def binary_labels(labels, what: str = "label") -> np.ndarray:
    """``labels`` as an int64 array, once every one of them is 0 or 1.

    The values are checked as given, before any cast, so a 0.5 is not
    truncated to 0.  Otherwise raises ValueError naming the first other
    value and its index after ``what``, as in "training label 0.5 at index
    7 is not 0 or 1"."""
    labels = np.asarray(labels)
    bad = np.flatnonzero(~np.isin(labels, (0, 1)))
    if bad.size:
        raise ValueError(
            f"{what} {labels.flat[bad[0]].item()!r} at index {bad[0]} is not 0 or 1"
        )
    return labels.astype(np.int64)


def make_folds(labels, n_folds: int = 5, seed: int = 0) -> FoldPlan:
    """Stratified shuffle-split: within each class, a seeded shuffle then
    round-robin assignment, so per-fold class counts differ by at most 1.
    The default fold count is the one `cv` runs and whose first fold is the
    validation set `train` holds out.  Every label must be 0 or 1."""
    if n_folds < 2:
        raise ValueError(f"need at least 2 folds, got {n_folds}")
    labels = binary_labels(labels)
    assignments = np.full(labels.size, -1, dtype=np.int64)
    rng = derive_rng(seed, "folds")
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls)
        if idx.size < n_folds:
            raise ValueError(
                f"class {cls} has {idx.size} samples, fewer than "
                f"{n_folds} folds"
            )
        shuffled = idx[rng.permutation(idx.size)]
        assignments[shuffled] = np.arange(shuffled.size) % n_folds
    return FoldPlan(assignments=assignments, n_folds=n_folds)


BAGGING_MODES = ("average", "vote")


def bagging(score_lists, mode: str = "average") -> np.ndarray:
    """Combine several models' scores: elementwise mean of probabilities,
    or the fraction of models calling positive (score >= 0.5)."""
    if len(score_lists) == 0:
        raise ValueError("bagging needs at least one model's scores")
    arrays = [np.asarray(s, dtype=np.float64) for s in score_lists]
    length = arrays[0].size
    for a in arrays:
        if a.ndim != 1 or a.size != length:
            raise ValueError("score lists must be 1-D and equal length")
    stacked = np.stack(arrays)
    if mode == "average":
        return stacked.mean(axis=0)
    if mode == "vote":
        return (stacked >= 0.5).mean(axis=0)
    raise ValueError(
        f"unknown bagging mode {mode!r}; use {' or '.join(map(repr, BAGGING_MODES))}"
    )


@dataclass(frozen=True)
class DatasetStats:
    image_widths: np.ndarray
    image_heights: np.ndarray
    mass_widths: np.ndarray
    mass_heights: np.ndarray
    mass_area_fraction: float | None


def dataset_stats(manifest: Manifest) -> DatasetStats:
    """Size statistics from manifest headers alone (images are not decoded)."""
    img_w, img_h, mass_w, mass_h, fractions = [], [], [], [], []
    for rec in manifest.records:
        w, h = read_image_size(rec.path)
        img_w.append(w)
        img_h.append(h)
        if rec.box is not None:
            _, _, bw, bh = rec.box
            mass_w.append(bw)
            mass_h.append(bh)
            fractions.append((bw * bh) / (w * h))
    return DatasetStats(
        image_widths=np.array(img_w, dtype=np.int64),
        image_heights=np.array(img_h, dtype=np.int64),
        mass_widths=np.array(mass_w, dtype=np.int64),
        mass_heights=np.array(mass_h, dtype=np.int64),
        mass_area_fraction=float(np.mean(fractions)) if fractions else None,
    )


def _hist_csv(values: np.ndarray) -> str:
    lines = ["value,count"]
    uniq, counts = np.unique(values, return_counts=True)
    for v, c in zip(uniq, counts):
        lines.append(f"{v},{c}")
    return "\n".join(lines) + "\n"


def write_dataset_stats(stats: DatasetStats, out_dir: str) -> None:
    """Histogram CSVs per dimension plus a summary CSV of means and the
    mass-area fraction."""
    os.makedirs(out_dir, exist_ok=True)
    histograms = {
        "image_width_hist.csv": stats.image_widths,
        "image_height_hist.csv": stats.image_heights,
        "mass_width_hist.csv": stats.mass_widths,
        "mass_height_hist.csv": stats.mass_heights,
    }
    for name, values in histograms.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as f:
            f.write(_hist_csv(values))
    lines = ["metric,value"]
    lines.append(f"n_images,{stats.image_widths.size}")
    lines.append(f"n_masses,{stats.mass_widths.size}")
    lines.append(f"mean_image_width,{stats.image_widths.mean():.4f}")
    lines.append(f"mean_image_height,{stats.image_heights.mean():.4f}")
    if stats.mass_widths.size:
        lines.append(f"mean_mass_width,{stats.mass_widths.mean():.4f}")
        lines.append(f"mean_mass_height,{stats.mass_heights.mean():.4f}")
        lines.append(f"mass_area_fraction,{stats.mass_area_fraction:.6f}")
    with open(os.path.join(out_dir, "summary.csv"), "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _nearest_upsample(grid: np.ndarray, size: int) -> np.ndarray:
    gh, gw = grid.shape
    rows = (np.arange(size) * gh) // size
    cols = (np.arange(size) * gw) // size
    return grid[rows[:, None], cols[None, :]]


def export_response_map(
    params: ModelParams,
    image: np.ndarray,
    out_prefix: str,
    preprocess: str = "resize",
) -> np.ndarray:
    """Write one image's response grid as CSV, a small PGM, and a PGM
    upsampled (nearest neighbor) to the network input size; returns the grid."""
    x = to_network_input(image, params.spec.input_size, mode=preprocess)
    grid = response_grid(params, x)
    lines = [",".join(f"{v:.10f}" for v in row) for row in grid]
    with open(out_prefix + ".csv", "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    as_bytes = np.clip(np.rint(grid * 255.0), 0, 255).astype(np.uint8)
    write_pgm(out_prefix + ".pgm", as_bytes)
    up = _nearest_upsample(as_bytes, params.spec.input_size)
    write_pgm(out_prefix + "_up.pgm", up)
    return grid


def scores_csv(names, labels, scores) -> str:
    lines = ["path,label,score"]
    for name, label, score in zip(names, labels, scores):
        lines.append(f"{name},{int(label)},{score:.10f}")
    return "\n".join(lines) + "\n"
