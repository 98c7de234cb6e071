"""Run configuration: flat ``key = value`` text files, defaults, validation.

One config format serves both the user-facing CLI files and the text blob
embedded in checkpoints, so a checkpoint alone is enough to reproduce a run.
One table per config object, ``USER_KEYS`` for :class:`TrainConfig` and
``SYNTH_KEYS`` for :class:`SynthSpec`, maps each key to its row: the dotted
field path it sets, parser, formatter, doc and the one head it applies to.
Files, checkpoint blobs (in table order) and help text (with defaults taken
from ``TrainConfig()``/``SynthSpec()``) all go through the table.  Floats
are written with repr() and therefore round-trip exactly.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any

from .data import SynthSpec
from .heads import HEADS, WEIGHT_MODES, MilConfig
from .model import PRESETS, BackboneSpec, backbone_preset, output_geometry
from .preprocessing import PREPROCESS_MODES, AugmentConfig

__all__ = [
    "TrainConfig",
    "Key",
    "USER_KEYS",
    "SYNTH_KEYS",
    "parse_flat",
    "train_config_from_items",
    "parse_config_file",
    "run_config_text",
    "parse_run_config",
    "parse_synth_file",
    "config_help",
    "synth_help",
]


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run needs besides the data itself."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    epochs: int = 50
    batch_size: int = 8
    seed: int = 0
    k_grid: tuple[int, ...] = (4, 8, 12, 16)
    backbone: BackboneSpec = field(default_factory=lambda: backbone_preset("desk"))
    mil: MilConfig = field(default_factory=MilConfig)
    preprocess: str = "resize"
    augment_enabled: bool = True
    aug: AugmentConfig = field(default_factory=AugmentConfig)
    finetune_learning_rate: float = 5e-5

    def __post_init__(self):
        # "not" so that NaN fails too: a NaN or infinite rate would fail
        # only at the second step, as a non-finite loss
        for nm, v in (("lr", self.learning_rate), ("eps", self.eps),
                      ("finetune_lr", self.finetune_learning_rate)):
            if not 0.0 < v < math.inf:
                raise ValueError(f"{nm} must be a finite positive number, got {v}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch_size}")
        for nm, b in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0.0 < b < 1.0:
                raise ValueError(f"{nm} must be in (0, 1), got {b}")
        if not self.k_grid or any(k < 1 for k in self.k_grid):
            raise ValueError(f"k_grid needs positive entries, got {self.k_grid}")
        object.__setattr__(self, "k_grid", tuple(sorted(set(self.k_grid))))
        if self.preprocess not in PREPROCESS_MODES:
            raise ValueError(
                f"preprocess must be {' or '.join(map(repr, PREPROCESS_MODES))}, "
                f"got {self.preprocess!r}"
            )
        _, gh, gw = output_geometry(self.backbone)
        if self.mil.head == "label_assign" and self.mil.k > gh * gw:
            raise ValueError(f"k={self.mil.k} exceeds instances per bag m={gh * gw}")


@dataclass(frozen=True)
class Key:
    """One row of a key table; the table maps each key name to its row."""

    path: str  # dotted field path in the config object
    parse: Callable[[str], Any]
    fmt: Callable[[Any], str] | None  # None: an input-only alias, never written
    doc: str
    head: str | None = None  # the only head the key applies to


def _converter(convert: Callable[[str], Any], expected: str) -> Callable[[str], Any]:
    def parse(text: str):
        try:
            return convert(text)
        except (KeyError, ValueError):
            raise ValueError(f"expected {expected}, got {text!r}") from None

    return parse


# (parser, formatter) pairs for the table rows
_INT = (_converter(int, "an integer"), str)
_FLOAT = (_converter(float, "a number"), repr)
_TEXT = (str, str)
_SWITCH = (
    _converter({"on": True, "off": False}.__getitem__, "'on' or 'off'"),
    lambda on: "on" if on else "off",
)
_INTS = (
    _converter(lambda s: tuple(int(p) for p in s.split(",")), "comma-separated integers"),
    lambda ints: ",".join(str(v) for v in ints),
)
_BACKBONE = (BackboneSpec.parse, BackboneSpec.describe)
_PRESET = (backbone_preset, None)


USER_KEYS: dict[str, Key] = {
    "preset": Key("backbone", *_PRESET, "backbone preset: " + " | ".join(PRESETS)),
    "backbone": Key("backbone", *_BACKBONE, "backbone layer string; excludes preset"),
    "head": Key("mil.head", *_TEXT, "loss head: " + " | ".join(HEADS)),
    "k": Key("mil.k", *_INT, "patches assigned the bag label", "label_assign"),
    "mu": Key("mil.mu", *_FLOAT, "L1 response-sparsity weight", "sparse"),
    "lambda": Key("mil.lam", *_FLOAT, "L2 weight-decay coefficient"),
    "weight_mode": Key("mil.weight_mode", *_TEXT,
                       "class weighting: " + " | ".join(WEIGHT_MODES)),
    "lr": Key("learning_rate", *_FLOAT, "Adam learning rate"),
    "beta1": Key("beta1", *_FLOAT, "Adam first-moment decay"),
    "beta2": Key("beta2", *_FLOAT, "Adam second-moment decay"),
    "eps": Key("eps", *_FLOAT, "Adam denominator stabilizer"),
    "epochs": Key("epochs", *_INT, "training epochs"),
    "batch": Key("batch_size", *_INT, "minibatch size in bags"),
    "seed": Key("seed", *_INT, "root seed for init/shuffle/augment streams"),
    "k_grid": Key("k_grid", *_INTS, "comma-separated k candidates for --select-k",
                  "label_assign"),
    "preprocess": Key("preprocess", *_TEXT,
                      " | ".join(PREPROCESS_MODES) + " = Otsu crop then resize"),
    "augment": Key("augment_enabled", *_SWITCH, "training-time augmentation: on | off"),
    "flip_prob": Key("aug.flip_prob", *_FLOAT, "horizontal flip probability"),
    "shift_frac": Key("aug.shift_frac", *_FLOAT, "max translation / image side"),
    "rotate_deg_max": Key("aug.rotate_deg_max", *_FLOAT, "max rotation in degrees"),
    "cutout_frac": Key("aug.cutout_frac", *_FLOAT, "cutout square side / image side"),
    "finetune_lr": Key("finetune_learning_rate", *_FLOAT,
                       "lr for train --resume and cv --pretrain-epochs unless lr is set"),
}

SYNTH_KEYS: dict[str, Key] = {
    "image_size": Key("image_size", *_INT, "square image side in pixels"),
    "n_pos": Key("n_pos", *_INT, "number of positive images"),
    "n_neg": Key("n_neg", *_INT, "number of negative images"),
    "mass_frac": Key("mass_frac", *_FLOAT, "planted square side / image side"),
    "intensity_lift": Key("intensity_lift", *_FLOAT, "in-box vs background mean gap"),
    "noise_level": Key("noise_level", *_FLOAT, "background noise sigma"),
    "seed": Key("seed", *_INT, "generator seed"),
}


def parse_flat(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks ignored."""
    items: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ValueError(f"{source}:{lineno}: empty key or value")
        if key in items:
            raise ValueError(f"{source}:{lineno}: duplicate key {key!r}")
        items[key] = value
    return items


def _parse(name: str, parse: Callable[[str], Any], text: str, source: str):
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{source}: key {name!r}: {exc}") from None


def _construct(default, values: dict[str, Any]):
    """A new object of default's class with each dotted path set; a nested
    config object is built afresh from its class."""
    kwargs: dict[str, Any] = {}
    nested: dict[str, dict[str, Any]] = {}
    for path, value in values.items():
        outer, _, inner = path.partition(".")
        if inner:
            nested.setdefault(outer, {})[inner] = value
        else:
            kwargs[outer] = value
    for outer, sub in nested.items():
        kwargs[outer] = type(getattr(default, outer))(**sub)
    return type(default)(**kwargs)


def _builds(default, values: dict[str, Any]) -> bool:
    try:
        _construct(default, values)
    except ValueError:
        return False
    return True


def _check_known(table: dict[str, Key], items: dict[str, str], source: str, what: str):
    for name in items:
        if name not in table:
            raise ValueError(
                f"{source}: unknown {what} key {name!r}; "
                f"documented keys: {', '.join(table)}"
            )


def _from_items(table: dict[str, Key], items: dict[str, str], default, source: str):
    """Build default's class from the table keys present in items; every
    error names the source and, where one key is at fault, the key."""
    keys = [(name, key) for name, key in table.items() if name in items]
    values: dict[str, Any] = {}
    for name, key in keys:
        if key.path in values:
            both = " or ".join(repr(n) for n, k in keys if k.path == key.path)
            raise ValueError(f"{source}: set {both}, not both")
        values[key.path] = _parse(name, key.parse, items[name], source)
    try:
        return _construct(default, values)
    except ValueError as exc:
        # name the key that is wrong on its own and the only thing wrong; a
        # conflict between keys (k above the backbone's patch count) or two
        # wrong values name no single key, and the message names the fields
        for name, key in keys:
            alone = {key.path: values[key.path]}
            rest = {path: value for path, value in values.items() if path != key.path}
            if not _builds(default, alone) and _builds(default, rest):
                raise ValueError(f"{source}: key {name!r}: {exc}") from None
        raise ValueError(f"{source}: {exc}") from None


def train_config_from_items(
    items: dict[str, str], source: str = "<config>", strict: bool = True
) -> TrainConfig:
    """Build a validated TrainConfig from parsed key/value strings.

    strict mode (user files) rejects unknown keys and keys of another head;
    non-strict mode is for checkpoint blobs, which store every field
    regardless of head.
    """
    if strict:
        _check_known(USER_KEYS, items, source, "config")
    cfg = _from_items(USER_KEYS, items, TrainConfig(), source)
    if strict:
        for name in items:
            head = USER_KEYS[name].head
            if head is not None and head != cfg.mil.head:
                raise ValueError(
                    f"{source}: {name!r} applies to the {head} head only "
                    f"(head = {cfg.mil.head})"
                )
    return cfg


def parse_config_file(path: str) -> tuple[TrainConfig, dict[str, str]]:
    """Read a user config file; returns the config plus the raw keys that
    were explicitly set (so callers can tell defaults from choices)."""
    with open(path, "r", encoding="utf-8") as f:
        items = parse_flat(f.read(), source=path)
    return train_config_from_items(items, source=path), items


def run_config_text(cfg: TrainConfig, step: int) -> str:
    """Canonical config blob stored in checkpoints: every written key in
    table order, then the step counter."""
    lines = [
        f"{name} = {key.fmt(attrgetter(key.path)(cfg))}\n"
        for name, key in USER_KEYS.items()
        if key.fmt is not None
    ]
    return "".join(lines) + f"step = {step}\n"


def parse_run_config(text: str) -> tuple[TrainConfig, int]:
    """Inverse of run_config_text; returns (config, step)."""
    items = parse_flat(text, source="<checkpoint>")
    step = _parse("step", _INT[0], items.pop("step", "0"), "<checkpoint>")
    if step < 0:
        raise ValueError(f"checkpoint step must be nonnegative, got {step}")
    return train_config_from_items(items, source="<checkpoint>", strict=False), step


def parse_synth_file(path: str) -> SynthSpec:
    with open(path, "r", encoding="utf-8") as f:
        items = parse_flat(f.read(), source=path)
    _check_known(SYNTH_KEYS, items, path, "synth")
    return _from_items(SYNTH_KEYS, items, SynthSpec(), path)


def _render_keys(title: str, table: dict[str, Key], default) -> str:
    width = max(len(name) for name in table)
    lines = [f"{title} keys (flat 'key = value' lines):"]
    for name, key in table.items():
        doc = key.doc
        if key.head is not None:
            doc += f"; {key.head} head only"
        if key.fmt is not None:
            doc += f" (default {key.fmt(attrgetter(key.path)(default))})"
        lines.append(f"  {name.ljust(width)}  {doc}")
    return "\n".join(lines)


def config_help() -> str:
    return _render_keys("config file", USER_KEYS, TrainConfig())


def synth_help() -> str:
    return _render_keys("synth spec", SYNTH_KEYS, SynthSpec())
