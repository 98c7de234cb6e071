"""
Reading the response map as a detector
======================================

Nothing in training ever says where the mass is, only that some patch in a
positive image is positive.  If the bag loss does its job, the per-patch
responses still end up pointing at the planted square.  This script trains
the sparse head briefly, checks the argmax cell against the recorded boxes,
and then shows why the label-assignment head needs a warm start.
"""

import tempfile

import numpy as np

from milnet import SynthSpec, TrainConfig, generate_synthetic, load_dataset, load_manifest
from milnet.heads import MilConfig
from milnet.model import response_grid
from milnet.training import init_state, prepare_inputs, train

work = tempfile.TemporaryDirectory(prefix="milnet_demo_loc_")
spec = SynthSpec(n_pos=16, n_neg=64, intensity_lift=0.12, seed=11)
ds = load_dataset(load_manifest(generate_synthetic(spec, work.name)))
work.cleanup()  # the images are in memory now
pos = [i for i, y in enumerate(ds.labels) if y == 1]
neg = [i for i, y in enumerate(ds.labels) if y == 0]
train_idx = pos[:12] + neg[:48]
val_idx = pos[12:] + neg[48:]

cfg = TrainConfig(epochs=15, batch_size=8, seed=11, mil=MilConfig(head="sparse", mu=1e-5))
# every run below reads the same network inputs, prepared once
inputs = prepare_inputs(ds.images, cfg)
tr_inputs = [inputs[i] for i in train_idx]
va_inputs = [inputs[i] for i in val_idx]
result = train(tr_inputs, ds.labels[train_idx], va_inputs, ds.labels[val_idx], cfg)
print(f"sparse head: best epoch {result.best_epoch}, "
      f"val auc {result.best_val_auc:.4f}")


def shade(v):
    return " .:-=+*#%@"[min(9, int(v * 10))]


# ---------------------------------------------------------------------------
# the argmax cell of each positive's 4x4 grid versus its recorded box.
# each cell covers a 16x16 tile of the 64x64 input
hits = 0
positives = [i for i in val_idx if ds.labels[i] == 1]
for i in positives:
    grid = response_grid(result.state.params, inputs[i])
    ci, cj = np.unravel_index(int(np.argmax(grid)), grid.shape)
    bx, by, bw, bh = ds.boxes[i]
    hit = (cj * 16 < bx + bw and bx < (cj + 1) * 16
           and ci * 16 < by + bh and by < (ci + 1) * 16)
    hits += hit
    print(f"  box at ({bx:2d},{by:2d})  argmax cell ({ci},{cj})  "
          f"{'hit' if hit else 'miss'}")
print(f"localization: {hits}/{len(positives)} held-out positives")

# one map drawn out; shading is min-max normalized because the absolute
# levels sit in a narrow band, it is the relative bump that localizes.
# dark to bright = ' .:-=+*#%@', the brightest cell marked with its value
i = positives[0]
x = inputs[i]
grid = response_grid(result.state.params, x)
bx, by, bw, bh = ds.boxes[i]
lo, hi = grid.min(), grid.max()
norm = (grid - lo) / (hi - lo)
print(f"\nresponse map of one positive (box at x={bx}, y={by}, {bw}x{bh} px):")
for ri, row in enumerate(norm):
    cells = "".join(shade(v) * 2 for v in row)
    print(f"    |{cells}|   " + "  ".join(f"{v:.3f}" for v in grid[ri]))

# ---------------------------------------------------------------------------
# the label-assignment head from a cold start: its negative patch weighting
# dominates early and drags every response toward zero, so the map goes
# dark before the top-k assignment finds the mass
la_cfg = TrainConfig(epochs=12, batch_size=8, seed=11,
                     mil=MilConfig(head="label_assign", k=4))
scratch = train(tr_inputs, ds.labels[train_idx], va_inputs, ds.labels[val_idx], la_cfg)
g = response_grid(scratch.state.params, x)
print(f"\nlabel_assign from scratch: best val auc {scratch.best_val_auc:.4f}, "
      f"grid max {g.max():.4f} (collapsed)")

# the cure is a warm start: pretrain with max_pool, then fine-tune the
# label-assignment head from those parameters at a small learning rate with
# fresh optimizer moments.  cross_validate(..., pretrain=cfg) and the cv
# command's --pretrain-epochs flag run exactly this recipe per fold.
pre_cfg = TrainConfig(epochs=10, batch_size=8, seed=11, mil=MilConfig(head="max_pool"))
pre = train(tr_inputs, ds.labels[train_idx], va_inputs, ds.labels[val_idx], pre_cfg)
ft_cfg = TrainConfig(epochs=5, batch_size=8, seed=11,
                     learning_rate=TrainConfig().finetune_learning_rate,
                     mil=MilConfig(head="label_assign", k=4))
warm = train(tr_inputs, ds.labels[train_idx], va_inputs, ds.labels[val_idx], ft_cfg,
             init_state_override=init_state(pre.state.params.copy()))
g = response_grid(warm.state.params, x)
print(f"pretrained max_pool:       best val auc {pre.best_val_auc:.4f}")
print(f"label_assign fine-tuned:   best val auc {warm.best_val_auc:.4f}, "
      f"grid max {g.max():.4f} (map intact)")
