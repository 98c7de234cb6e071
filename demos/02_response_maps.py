"""
From image to response map
==========================

The model is a conv trunk followed by one logistic unit applied to every
cell of the final feature map.  Each cell gets its own logit z and its own
probability ("response") sigmoid(z); the bag heads rank the logits, which is
the same order as ranking the responses.  This script runs the pieces one at
a time on a toy image.
"""

import numpy as np

from milnet import autodiff as ad
from milnet.autodiff import Tensor
from milnet.model import (
    backbone_preset,
    forward_backbone,
    init_params,
    instance_responses,
    output_geometry,
    params_to_leaves,
    response_grid,
)

spec = backbone_preset("desk")
print("backbone :", spec.describe())
c, h, w = output_geometry(spec)
print("feature map geometry:", (c, h, w), "->", h * w, "patches per image")

# every output cell summarizes one 16x16 tile of the 64x64 input (stride 16),
# reading a 25 px neighbourhood around it

# ---------------------------------------------------------------------------
# a toy image: flat mid-gray with a bright soft square in the lower-left
rng = np.random.default_rng(4)
img = np.full((64, 64), 0.45) + rng.normal(0.0, 0.02, size=(64, 64))
yy, xx = np.mgrid[40:56, 8:24]
img[yy, xx] += 0.35
img = np.clip(img, 0.0, 1.0)

params = init_params(spec, seed=0)
leaves = params_to_leaves(params, requires_grad=False)
fmap = forward_backbone(Tensor(img[None, None, :, :]), spec, leaves)
print("\nfeature map tensor  :", fmap.shape)

logits = instance_responses(fmap, leaves["response.weight"], leaves["response.bias"])
print("logits tensor       :", logits.shape, "(images, patches)")
responses = ad.sigmoid(logits).data[0]
print("response values     :", np.array2string(responses, precision=3))

order = np.argsort(-logits.data[0], kind="stable")
print("ranked (descending) :", np.array2string(responses[order], precision=3))
print("source cells        :", order)

# ---------------------------------------------------------------------------
# the same thing as a grid, via the inference-only helper
grid = response_grid(params, img)
print("\nresponse grid at a fresh init (no training yet):")
for row in grid:
    print("   " + "  ".join(f"{v:5.3f}" for v in row))

# with an untrained net the grid is roughly flat near 0.5; training is what
# separates the mass cell from the rest (see 06_localization.py)

# ---------------------------------------------------------------------------
# zero weights give exactly 0.5 everywhere: sigmoid(0) with zero kernels
zeroed = init_params(spec, seed=0)
for name in zeroed.names():
    zeroed.arrays[name][...] = 0.0
flat_grid = response_grid(zeroed, img)
print("\nall-zero parameters -> constant grid:",
      float(flat_grid.min()), "to", float(flat_grid.max()))
