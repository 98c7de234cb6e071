"""
Training, scoring, and the fold rotation
========================================

A short end-to-end pass on a small synthetic set: fit the max-pooling head
for a few epochs, score held-out images, save and reload the checkpoint,
then run the five-fold rotation twice to show it is fully reproducible.
Numbers here are modest on purpose, the run budget is a minute or so; the
acceptance-grade settings live in tests/test_acceptance.py.
"""

import os
import tempfile
from pathlib import Path

import numpy as np

from milnet import (
    SynthSpec,
    TrainConfig,
    cross_validate,
    generate_synthetic,
    load_dataset,
    load_manifest,
)
from milnet.evaluation import accuracy, auc, roc_curve
from milnet.heads import MilConfig
from milnet.training import (
    bag_scores,
    load_checkpoint,
    prepare_inputs,
    save_checkpoint,
    train,
)

work_dir = tempfile.TemporaryDirectory(prefix="milnet_demo_train_")
work = work_dir.name
manifest = load_manifest(
    generate_synthetic(SynthSpec(n_pos=10, n_neg=30, seed=5), os.path.join(work, "data"))
)
ds = load_dataset(manifest)
print("dataset:", len(ds), "images,", int(ds.labels.sum()), "positive")

# a simple stratified split; the set is positives-first by construction
pos = [i for i, y in enumerate(ds.labels) if y == 1]
neg = [i for i, y in enumerate(ds.labels) if y == 0]
train_idx = pos[:7] + neg[:21]
val_idx = pos[7:] + neg[21:]

cfg = TrainConfig(epochs=15, batch_size=8, seed=1, mil=MilConfig(head="max_pool"))
# train takes network inputs: each raw image resized to 64x64 and scaled to
# [0, 1] by the config's preprocessing, once, however many passes read it
inputs = prepare_inputs(ds.images, cfg)
result = train(
    [inputs[i] for i in train_idx], ds.labels[train_idx],
    [inputs[i] for i in val_idx], ds.labels[val_idx],
    cfg, log=print,
)
print("best epoch:", result.best_epoch, " best val auc:", f"{result.best_val_auc:.4f}")

# ---------------------------------------------------------------------------
# scoring: a bag's prediction is its largest patch response
scores = bag_scores(result.state.params, [inputs[i] for i in val_idx])
y = ds.labels[val_idx]
print("\nval scores  :", np.array2string(scores, precision=3))
print("val labels  :", y)
print(f"accuracy {accuracy(scores, y):.4f}  auc {auc(scores, y):.4f}")
curve = roc_curve(scores, y)
print("roc points  :", len(curve.fpr), "(one per distinct threshold)")

# ---------------------------------------------------------------------------
# checkpoints persist the parameters, optimizer moments, and the config text
ckpt = os.path.join(work, "model.miln")
save_checkpoint(ckpt, result.state, cfg)
state2, cfg2 = load_checkpoint(ckpt)
same = all(
    np.array_equal(result.state.params.arrays[n], state2.params.arrays[n])
    for n in result.state.params.names()
)
print("\ncheckpoint round trip exact:", same, " step:", state2.step)

# ---------------------------------------------------------------------------
# the fold rotation: each fold is tested once, trained on three folds with
# the next as validation.  Run it twice with the same seed and compare.
cv_cfg = TrainConfig(epochs=2, batch_size=4, seed=9, mil=MilConfig(head="max_pool"))
out_a = os.path.join(work, "cv_a")
out_b = os.path.join(work, "cv_b")
summary = cross_validate(ds.images, ds.labels, cv_cfg, out_a, workers=5)
cross_validate(ds.images, ds.labels, cv_cfg, out_b, workers=5)
print("\nper-fold accuracy:", [f"{o.accuracy:.3f}" for o in summary.outcomes])
print(f"mean auc {summary.auc_mean:.4f} +- {summary.auc_std:.4f}")

identical = all(
    Path(out_a, f).read_bytes() == Path(out_b, f).read_bytes()
    for f in sorted(os.listdir(out_a))
)
print("two runs, every output file byte-identical:", identical)
print("files per run:", sorted(os.listdir(out_a)))

work_dir.cleanup()
