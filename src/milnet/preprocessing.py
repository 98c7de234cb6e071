"""Image preprocessing and training-time augmentation.

The pipeline turns a raw 8-bit grayscale image into the fixed-size float
network input: Otsu thresholding to find the foreground, a tight crop, and a
bilinear resize.  Augmentation applies, in this fixed order: horizontal flip,
integer shift, rotation about the center, and one zeroed square (cutout).
Vacated regions are zero-filled, matching the dark background the images
carry naturally.

Two shortcuts skip work without changing a byte of output:

- Rotation reads its four bilinear taps from a copy of the image with a
  2-pixel zero border, by ``take`` on flat indices, instead of masking out
  the taps that leave the frame.  A tap reads row y0 or y0 + 1 and column
  x0 or x0 + 1 of the floors (y0, x0), which are clipped to [-2, h] and
  [-2, w].  A floor inside that range is left alone, so its taps land on
  the same pixels, with a tap outside the frame on the border; a floor
  outside it has both of its taps outside the frame, and after clipping
  both still land on the border.  Every border pixel is zero, which is
  what a masked read gives a tap outside the frame.  The weights come from
  the unclipped floors and the blend is unchanged.
- ``resize_bilinear`` returns an integer image already at the target size
  as a float64 copy.  The corner-aligned grid then lands on every pixel
  with weight 0, so each output is ``v*1 + u*0`` for finite integers v and
  u, which is v: the products are exact, and v is never -0.0, so adding a
  signed zero leaves it as it is.  Float inputs keep the interpolating
  path, since for them a -0.0, inf or nan could make the two differ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "OtsuResult",
    "AugmentConfig",
    "otsu_threshold",
    "crop_foreground",
    "resize_bilinear",
    "augment",
    "to_network_input",
]

CUTOUT_REFERENCE_FRACTION = 50.0 / 224.0
_ROTATE_BORDER = 2  # zero pixels around the image that rotation reads from


@dataclass(frozen=True)
class OtsuResult:
    """Threshold maximizing between-class variance; degenerate marks a
    single-valued histogram, where no split exists."""

    threshold: int
    degenerate: bool


def otsu_threshold(image: np.ndarray) -> OtsuResult:
    """Otsu's threshold over the 256-bin histogram of an 8-bit image.

    Class 0 is pixels <= t; the returned t maximizes w0*w1*(mu0-mu1)^2 with
    ties broken toward the smallest t.  Foreground is pixels > t.
    """
    img = np.asarray(image)
    if img.size == 0:
        raise ValueError("otsu_threshold requires a nonempty image")
    hist = np.bincount(img.astype(np.uint8).ravel(), minlength=256).astype(np.float64)
    if np.count_nonzero(hist) <= 1:
        value = int(np.flatnonzero(hist)[0])
        return OtsuResult(threshold=value, degenerate=True)
    total = hist.sum()
    levels = np.arange(256, dtype=np.float64)
    # cumulative counts/sums for class 0 at each candidate t in [0, 254]
    c0 = np.cumsum(hist)[:-1]
    s0 = np.cumsum(hist * levels)[:-1]
    c1 = total - c0
    s_total = (hist * levels).sum()
    w0 = c0 / total
    w1 = c1 / total
    with np.errstate(invalid="ignore", divide="ignore"):
        mu0 = np.where(c0 > 0, s0 / c0, 0.0)
        mu1 = np.where(c1 > 0, (s_total - s0) / c1, 0.0)
    variance = np.where((c0 > 0) & (c1 > 0), w0 * w1 * (mu0 - mu1) ** 2, -1.0)
    return OtsuResult(threshold=int(np.argmax(variance)), degenerate=False)


def crop_foreground(image: np.ndarray, threshold: int) -> np.ndarray:
    """Tight bounding box of pixels strictly above the threshold.

    Background pixels inside the box are retained as-is.
    """
    img = np.asarray(image)
    mask = img > threshold
    if not mask.any():
        raise ValueError(f"no pixel above threshold {threshold}; nothing to crop")
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    return img[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]


def resize_bilinear(image: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Corner-aligned bilinear resize; returns float64.

    When an output axis has a single pixel it samples the first source pixel.
    Output values never leave the input range.
    """
    if out_w < 1 or out_h < 1:
        raise ValueError(f"output dims must be positive, got {out_w}x{out_h}")
    img = np.asarray(image)
    if img.shape == (out_h, out_w) and np.issubdtype(img.dtype, np.integer):
        return img.astype(np.float64)  # exact, see the module docstring
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    ys = np.zeros(out_h) if out_h == 1 else np.arange(out_h) * ((h - 1) / (out_h - 1))
    xs = np.zeros(out_w) if out_w == 1 else np.arange(out_w) * ((w - 1) / (out_w - 1))
    # The grid is separable: taps and weights are per row and per column.
    # Only the second tap of the last row or column can leave the frame; it
    # reads the appended zero row or column, as rotation reads zero outside
    # the frame.  The blend is rotation's, term for term, so the bytes match
    # a dense-grid bilinear sampler, which the tests check.
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    wy = (ys - y0)[:, None]
    wx = xs - x0
    padded = np.zeros((h + 1, w + 1))
    padded[:h, :w] = img
    r0 = padded[y0]
    r1 = padded[y0 + 1]
    top = r0[:, x0] * (1 - wx) + r0[:, x0 + 1] * wx
    bot = r1[:, x0] * (1 - wx) + r1[:, x0 + 1] * wx
    return top * (1 - wy) + bot * wy


@dataclass(frozen=True)
class AugmentConfig:
    """Training-time augmentation magnitudes.

    cutout_frac is the zeroed square's side as a fraction of the image side;
    the default keeps the 50-pixel-on-224 reference square's relative area at
    any resolution.
    """

    flip_prob: float = 0.5
    shift_frac: float = 0.1
    rotate_deg_max: float = 45.0
    cutout_frac: float = CUTOUT_REFERENCE_FRACTION

    def __post_init__(self):
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ValueError(f"flip_prob must be in [0, 1], got {self.flip_prob}")
        if not 0.0 <= self.shift_frac < 1.0:
            raise ValueError(f"shift_frac must be in [0, 1), got {self.shift_frac}")
        if not 0.0 <= self.rotate_deg_max <= 180.0:
            raise ValueError(
                f"rotate_deg_max must be in [0, 180], got {self.rotate_deg_max}"
            )
        if not 0.0 <= self.cutout_frac < 1.0:
            raise ValueError(f"cutout_frac must be in [0, 1), got {self.cutout_frac}")


def _rotate_bilinear(image: np.ndarray, degrees: float) -> np.ndarray:
    """Rotate about the image center, bilinear resampling, zero fill.

    Always returns a new array.
    """
    if degrees == 0.0:
        return image.copy()
    h, w = image.shape
    theta = np.deg2rad(degrees)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    # inverse mapping: source coordinates that land on each output pixel.
    # A pixel's offset from the center is its row's dy and its column's dx;
    # broadcasting the two vectors gives every pixel the products and sums
    # a full (h, w) offset grid would.
    dy = (np.arange(h, dtype=np.float64) - cy)[:, None]
    dx = np.arange(w, dtype=np.float64) - cx
    src_y = cos_t * dy + sin_t * dx + cy
    src_x = -sin_t * dy + cos_t * dx + cx
    y0 = np.floor(src_y).astype(np.int64)
    x0 = np.floor(src_x).astype(np.int64)
    wy = src_y - y0
    wx = src_x - x0
    # bordered gather, exact as the module docstring explains
    b = _ROTATE_BORDER
    stride = w + 2 * b
    bordered = np.zeros((h + 2 * b, stride))
    bordered[b:b + h, b:b + w] = image
    flat = bordered.ravel()
    tap = (np.clip(y0, -b, h) + b) * stride + (np.clip(x0, -b, w) + b)
    v00 = flat.take(tap)
    v01 = flat.take(tap + 1)
    v10 = flat.take(tap + stride)
    v11 = flat.take(tap + stride + 1)
    top = v00 * (1 - wx) + v01 * wx
    bot = v10 * (1 - wx) + v11 * wx
    return top * (1 - wy) + bot * wy


def augment(image: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    """Apply flip, shift, rotate, cutout, in that order.

    The input is the already-resized float network input.  The draw sequence
    is fixed (flip, shift x, shift y, angle, cutout x, cutout y) regardless of
    which steps end up active, so a stream always yields the same decisions.
    """
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape

    do_flip = rng.random() < cfg.flip_prob
    max_dx = int(cfg.shift_frac * w)
    max_dy = int(cfg.shift_frac * h)
    dx = int(rng.integers(-max_dx, max_dx + 1))
    dy = int(rng.integers(-max_dy, max_dy + 1))
    angle = float(rng.uniform(-cfg.rotate_deg_max, cfg.rotate_deg_max))
    side = int(round(cfg.cutout_frac * min(h, w)))
    cut_x = int(rng.integers(0, w - side + 1))
    cut_y = int(rng.integers(0, h - side + 1))

    if do_flip:
        img = img[:, ::-1]
    if dx or dy:
        shifted = np.zeros_like(img)
        src_y = slice(max(0, -dy), min(h, h - dy))
        src_x = slice(max(0, -dx), min(w, w - dx))
        dst_y = slice(max(0, dy), min(h, h + dy))
        dst_x = slice(max(0, dx), min(w, w + dx))
        shifted[dst_y, dst_x] = img[src_y, src_x]
        img = shifted
    img = _rotate_bilinear(img, angle)  # a new array, never the input
    if side > 0:
        img[cut_y:cut_y + side, cut_x:cut_x + side] = 0.0
    return img


def to_network_input(image: np.ndarray, input_size: int, mode: str = "full") -> np.ndarray:
    """Turn a raw 8-bit image into the [0, 1] float network input.

    mode "full" runs Otsu segmentation, crops the foreground box, and
    resizes; mode "resize" only resizes (for data generated at or near the
    network resolution, where segmentation would be meaningless).
    """
    if mode not in ("full", "resize"):
        raise ValueError(f"unknown preprocess mode {mode!r}")
    img = np.asarray(image)
    if mode == "full":
        result = otsu_threshold(img)
        if not result.degenerate:
            img = crop_foreground(img, result.threshold)
    resized = resize_bilinear(img, input_size, input_size)
    return resized / 255.0
