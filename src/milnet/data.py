"""Dataset manifests and the synthetic planted-mass generator.

A manifest is a CSV with header ``path,label`` or ``path,label,x,y,w,h``;
paths are resolved relative to the manifest's directory.  The generator
produces textured negative images and positives with one bright soft-edged
square, at roughly the 2% area fraction real masses occupy, so end-to-end
behavior can be verified at desk scale with known ground truth.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .pgm import load_gray_image, read_image_size, write_pgm
from .preprocessing import resize_bilinear
from .rng import derive_rng

__all__ = [
    "ManifestRecord",
    "Manifest",
    "SynthSpec",
    "load_manifest",
    "generate_synthetic",
    "load_dataset",
    "Dataset",
]


@dataclass(frozen=True)
class ManifestRecord:
    path: str
    label: int
    box: tuple[int, int, int, int] | None = None  # x, y, w, h


@dataclass
class Manifest:
    records: list[ManifestRecord]

    def __len__(self) -> int:
        return len(self.records)

    @property
    def labels(self) -> np.ndarray:
        return np.array([r.label for r in self.records], dtype=np.int64)


def load_manifest(path: str) -> Manifest:
    """Load and validate a manifest CSV.

    Every record's image must exist, labels must be 0 or 1, and any mass box
    must lie fully inside its image.  Errors name the offending line.
    """
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "r", newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty manifest") from None
        header = [h.strip() for h in header]
        if header == ["path", "label"]:
            has_box = False
        elif header == ["path", "label", "x", "y", "w", "h"]:
            has_box = True
        else:
            raise ValueError(
                f"{path}:1: header must be 'path,label' or 'path,label,x,y,w,h', "
                f"got {','.join(header)!r}"
            )
        records: list[ManifestRecord] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            where = f"{path}:{lineno}"
            expected = 6 if has_box else 2
            if len(row) != expected:
                raise ValueError(f"{where}: expected {expected} fields, got {len(row)}")
            img_path = row[0].strip()
            if not os.path.isabs(img_path):
                img_path = os.path.join(base, img_path)
            if not os.path.exists(img_path):
                raise ValueError(f"{where}: image file not found: {row[0].strip()}")
            if row[1].strip() not in ("0", "1"):
                raise ValueError(f"{where}: label must be 0 or 1, got {row[1].strip()!r}")
            label = int(row[1])
            box = None
            if has_box and any(cell.strip() for cell in row[2:]):
                if not all(cell.strip() for cell in row[2:]):
                    raise ValueError(f"{where}: box needs all four of x,y,w,h")
                coords = []
                for name, cell in zip("xywh", row[2:]):
                    try:
                        coords.append(int(cell))
                    except ValueError:
                        raise ValueError(
                            f"{where}: box {name} must be an integer, got {cell.strip()!r}"
                        ) from None
                x, y, w, h = coords
                img_w, img_h = read_image_size(img_path)
                if x < 0 or y < 0 or w <= 0 or h <= 0 or x + w > img_w or y + h > img_h:
                    raise ValueError(
                        f"{where}: box ({x},{y},{w},{h}) not inside "
                        f"{img_w}x{img_h} image"
                    )
                box = (x, y, w, h)
            records.append(ManifestRecord(path=img_path, label=label, box=box))
    return Manifest(records=records)


@dataclass(frozen=True)
class SynthSpec:
    """Synthetic dataset parameters.

    mass_frac is the planted square's side as a fraction of the image side;
    the default 0.14 gives about 2% area.  The default class mix is 20%
    positive.  intensity_lift is the guaranteed gap, in [0, 1] units,
    between the mean inside a planted box and the mean background outside.
    """

    image_size: int = 64
    n_pos: int = 40
    n_neg: int = 160
    mass_frac: float = 0.14
    intensity_lift: float = 0.2
    noise_level: float = 0.02
    seed: int = 7

    def __post_init__(self):
        if self.image_size < 4:
            raise ValueError(f"image_size too small: {self.image_size}")
        if self.n_pos <= 0 or self.n_neg <= 0:
            raise ValueError("n_pos and n_neg must be positive")
        if not 0.0 < self.mass_frac < 1.0:
            raise ValueError(f"mass_frac must be in (0, 1), got {self.mass_frac}")
        if int(round(self.mass_frac * self.image_size)) < 1:
            raise ValueError("mass would be smaller than one pixel")
        # "not" so that NaN fails too
        if not 0.0 < self.intensity_lift < math.inf:
            raise ValueError(f"intensity_lift must be a finite positive number, "
                             f"got {self.intensity_lift}")
        if not 0.0 <= self.noise_level < math.inf:
            raise ValueError(f"noise_level must be a finite nonnegative number, "
                             f"got {self.noise_level}")


# Background texture range; the planted plateau amplitude is scaled above the
# configured lift so the 2-pixel soft edge and texture variation cannot drag
# the measured in-box mean below the guarantee.
_BG_LO, _BG_HI = 0.25, 0.40
_PLATEAU_OVER_LIFT = 2.6
_EDGE_FALLOFF = 2


def _soft_square(side: int) -> np.ndarray:
    """Unit-height plateau with a linear falloff over the outer 2 pixels."""
    u = np.arange(side)
    d = np.minimum(np.minimum(u, side - 1 - u)[:, None],
                   np.minimum(u, side - 1 - u)[None, :])
    return np.minimum(1.0, (d + 1) / (_EDGE_FALLOFF + 1))


def _texture(rng: np.random.Generator, size: int, noise: float) -> np.ndarray:
    coarse = rng.uniform(_BG_LO, _BG_HI, size=(4, 4))
    img = resize_bilinear(coarse, size, size)
    if noise > 0:
        img = img + rng.normal(0.0, noise, size=(size, size))
    return img


def generate_synthetic(spec: SynthSpec, out_dir: str) -> str:
    """Write the synthetic dataset under out_dir; returns the manifest path.

    Images are 8-bit PGM; positives carry one planted box recorded in the
    manifest.  Fully deterministic in spec.seed, image by image.
    """
    os.makedirs(out_dir, exist_ok=True)
    size = spec.image_size
    side = int(round(spec.mass_frac * size))
    amp = spec.intensity_lift * _PLATEAU_OVER_LIFT
    bump = _soft_square(side) * amp
    rows: list[tuple[str, int, tuple[int, int, int, int] | None]] = []
    n_total = spec.n_pos + spec.n_neg
    for i in range(n_total):
        rng = derive_rng(spec.seed, "img", i)
        img = _texture(rng, size, spec.noise_level)
        label = 1 if i < spec.n_pos else 0
        box = None
        if label == 1:
            x = int(rng.integers(0, size - side + 1))
            y = int(rng.integers(0, size - side + 1))
            img[y:y + side, x:x + side] += bump
            box = (x, y, side, side)
        pixels = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
        name = f"img_{i:04d}.pgm"
        write_pgm(os.path.join(out_dir, name), pixels)
        rows.append((name, label, box))
    manifest_path = os.path.join(out_dir, "manifest.csv")
    with open(manifest_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["path", "label", "x", "y", "w", "h"])
        for name, label, box in rows:
            if box is None:
                writer.writerow([name, label, "", "", "", ""])
            else:
                writer.writerow([name, label, *box])
    return manifest_path


@dataclass
class Dataset:
    """Loaded images plus labels and optional boxes, aligned by index."""

    images: list[np.ndarray]  # raw uint8 arrays
    labels: np.ndarray
    boxes: list[tuple[int, int, int, int] | None]
    paths: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.images)


def load_dataset(manifest: Manifest) -> Dataset:
    images = [load_gray_image(r.path) for r in manifest.records]
    return Dataset(
        images=images,
        labels=manifest.labels,
        boxes=[r.box for r in manifest.records],
        paths=[r.path for r in manifest.records],
    )
