"""
The planted-mass generator
==========================

Real screening data is large and private, so the test bed is a synthetic
stand-in: textured grayscale squares, a fifth of which carry one soft bright
square whose position is recorded in the manifest.  The one guarantee the
generator makes is an intensity lift: the mean inside a planted box exceeds
the mean of the background outside it by at least the configured amount.
This script generates a small set and checks that claim directly.
"""

import os
import tempfile
from pathlib import Path

import numpy as np

from milnet import SynthSpec, generate_synthetic, load_dataset, load_manifest
from milnet.evaluation import dataset_stats

work = tempfile.TemporaryDirectory(prefix="milnet_demo_synth_")
out_dir = os.path.join(work.name, "set")
spec = SynthSpec(image_size=64, n_pos=10, n_neg=40, intensity_lift=0.2, seed=3)
manifest_path = generate_synthetic(spec, out_dir)
print("wrote", manifest_path)

manifest = load_manifest(manifest_path)
print("records:", len(manifest), " positives:", int(manifest.labels.sum()))

# the first few manifest rows; negatives leave the box columns empty
for rec in manifest.records[:3] + manifest.records[-2:]:
    print("  ", rec.path.split("/")[-1], rec.label, rec.box)

# ---------------------------------------------------------------------------
# verify the intensity-lift guarantee on every positive
ds = load_dataset(manifest)
worst = np.inf
for img, label, box in zip(ds.images, ds.labels, ds.boxes):
    if label == 0:
        continue
    x, y, w, h = box
    scaled = img.astype(np.float64) / 255.0
    inside = np.zeros(img.shape, dtype=bool)
    inside[y:y + h, x:x + w] = True
    gap = scaled[inside].mean() - scaled[~inside].mean()
    worst = min(worst, gap)
print(f"\nsmallest in-box minus background mean gap: {worst:.4f} "
      f"(configured floor {spec.intensity_lift})")
assert worst >= spec.intensity_lift

# ---------------------------------------------------------------------------
# the same generation twice is byte-for-byte identical (seeded per image)
again = os.path.join(work.name, "again")
generate_synthetic(spec, again)
a = Path(manifest_path).read_bytes()
b = Path(again, "manifest.csv").read_bytes()
print("regenerated manifest identical:", a == b)

# ---------------------------------------------------------------------------
# header-level statistics, the same numbers the stats command writes as CSVs
stats = dataset_stats(manifest)
print("\nimage sizes :", sorted(set(stats.image_widths.tolist())),
      "x", sorted(set(stats.image_heights.tolist())))
print("mass sizes  :", sorted(set(stats.mass_widths.tolist())),
      "x", sorted(set(stats.mass_heights.tolist())))
print(f"mass area   : {stats.mass_area_fraction:.4f} of the image")

work.cleanup()
