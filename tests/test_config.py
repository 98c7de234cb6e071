"""Flat-config parsing: user files, checkpoint blobs, synth specs."""

import re
from dataclasses import fields
from operator import attrgetter

import numpy as np
import pytest

from milnet.config import (
    SYNTH_KEYS,
    USER_KEYS,
    TrainConfig,
    config_help,
    parse_config_file,
    parse_flat,
    parse_run_config,
    parse_synth_file,
    run_config_text,
    synth_help,
    train_config_from_items,
)
from milnet.data import SynthSpec
from milnet.heads import HEADS, MilConfig
from milnet.model import backbone_preset, output_geometry
from milnet.preprocessing import AugmentConfig


class TestParseFlat:
    def test_basic_pairs(self):
        items = parse_flat("lr = 0.01\nepochs=3\n  seed =  9  \n")
        assert items == {"lr": "0.01", "epochs": "3", "seed": "9"}

    def test_comments_and_blanks_ignored(self):
        text = "# full-line comment\n\nlr = 0.5  # trailing\n   \n"
        assert parse_flat(text) == {"lr": "0.5"}

    def test_value_may_contain_equals(self):
        # only the first '=' splits, so backbone strings survive intact
        items = parse_flat("note = a=b=c\n")
        assert items["note"] == "a=b=c"

    def test_missing_equals(self):
        with pytest.raises(ValueError, match=r"myfile:2: expected 'key = value'"):
            parse_flat("lr = 1\njust words\n", source="myfile")

    def test_empty_key_or_value(self):
        with pytest.raises(ValueError, match="empty key or value"):
            parse_flat("= 3\n")
        with pytest.raises(ValueError, match="empty key or value"):
            parse_flat("lr =   # comment ate the value\n")

    def test_duplicate_key(self):
        with pytest.raises(ValueError, match=r":3: duplicate key 'lr'"):
            parse_flat("lr = 1\nseed = 0\nlr = 2\n")


class TestUserConfig:
    def test_empty_items_give_defaults(self):
        cfg = train_config_from_items({})
        assert cfg == TrainConfig()
        assert cfg.learning_rate == 1e-3
        assert cfg.epochs == 50
        assert cfg.batch_size == 8
        assert cfg.mil.head == "max_pool"
        _, gh, gw = output_geometry(cfg.backbone)
        assert gh * gw == 16  # desk preset: 4x4 grid
        assert cfg.preprocess == "resize"
        assert cfg.augment_enabled is True

    def test_parse_config_file_returns_raw_items(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("epochs = 7\nseed = 3\n")
        cfg, raw = parse_config_file(str(p))
        assert cfg.epochs == 7
        assert cfg.seed == 3
        assert raw == {"epochs": "7", "seed": "3"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key 'momentum'"):
            train_config_from_items({"momentum": "0.9"})

    def test_unknown_head(self):
        with pytest.raises(ValueError, match="unknown head 'mean_pool'"):
            train_config_from_items({"head": "mean_pool"})

    def test_k_requires_label_assign(self):
        with pytest.raises(ValueError, match="'k' applies to the label_assign head"):
            train_config_from_items({"k": "4"})
        with pytest.raises(ValueError, match="'k_grid' applies to the label_assign"):
            train_config_from_items({"head": "sparse", "k_grid": "2,4"})

    def test_mu_requires_sparse(self):
        with pytest.raises(ValueError, match="'mu' applies to the sparse head"):
            train_config_from_items({"head": "label_assign", "mu": "0.1"})

    def test_head_keys_accepted_on_their_head(self):
        cfg = train_config_from_items({"head": "label_assign", "k": "8", "k_grid": "2,8"})
        assert cfg.mil.k == 8
        assert cfg.k_grid == (2, 8)
        cfg = train_config_from_items({"head": "sparse", "mu": "0.003"})
        assert cfg.mil.mu == 0.003

    def test_lambda_applies_everywhere(self):
        cfg = train_config_from_items({"lambda": "1e-4"})
        assert cfg.mil.lam == 1e-4

    def test_preset_and_backbone_conflict(self):
        items = {"preset": "desk", "backbone": backbone_preset("desk").describe()}
        with pytest.raises(ValueError, match="'preset' or 'backbone', not both"):
            train_config_from_items(items)

    def test_paper_preset_geometry(self):
        cfg = train_config_from_items({"preset": "paper"})
        assert output_geometry(cfg.backbone) == (256, 6, 6)

    def test_explicit_backbone_string(self):
        desc = backbone_preset("desk").describe()
        cfg = train_config_from_items({"backbone": desc})
        assert cfg.backbone == backbone_preset("desk")

    def test_k_grid_parse_errors(self):
        with pytest.raises(ValueError, match="comma-separated integers"):
            train_config_from_items({"head": "label_assign", "k_grid": "2,four"})

    def test_numeric_errors_name_the_key(self):
        with pytest.raises(ValueError, match="'epochs': expected an integer"):
            train_config_from_items({"epochs": "ten"})
        with pytest.raises(ValueError, match="'lr': expected a number"):
            train_config_from_items({"lr": "fast"})

    @pytest.mark.parametrize("text, message", [
        ("lr = fast", "key 'lr': expected a number, got 'fast'"),
        ("weight_mode = foo", "key 'weight_mode': weight_mode must be 'balanced' or 'literal'"),
        ("flip_prob = 2", r"key 'flip_prob': flip_prob must be in \[0, 1\], got 2.0"),
        ("epochs = 0", "key 'epochs': epochs must be >= 1, got 0"),
        ("backbone = input:64,conv:8:3:0:0",
         "key 'backbone': backbone layer 'conv:8:3:0:0': stride must be >= 1"),
        ("head = label_assign\nk = 17", "k=17 exceeds instances per bag m=16"),
    ])
    def test_value_errors_name_the_file_and_the_key(self, tmp_path, text, message):
        p = tmp_path / "run.cfg"
        p.write_text(f"seed = 3\n{text}\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}: ") + message):
            parse_config_file(str(p))

    def test_augment_switch(self):
        assert train_config_from_items({"augment": "off"}).augment_enabled is False
        assert train_config_from_items({"augment": "on"}).augment_enabled is True
        with pytest.raises(ValueError, match="expected 'on' or 'off'"):
            train_config_from_items({"augment": "true"})

    def test_aug_fields(self):
        items = {"flip_prob": "0.25", "shift_frac": "0.05",
                 "rotate_deg_max": "10", "cutout_frac": "0.1"}
        cfg = train_config_from_items(items)
        assert cfg.aug.flip_prob == 0.25
        assert cfg.aug.shift_frac == 0.05
        assert cfg.aug.rotate_deg_max == 10.0
        assert cfg.aug.cutout_frac == 0.1

    def test_finetune_lr_key(self):
        cfg = train_config_from_items({"finetune_lr": "2e-4"})
        assert cfg.finetune_learning_rate == 2e-4

    def test_nonstrict_allows_inert_head_keys(self):
        # checkpoint blobs store every field no matter which head ran
        items = {"head": "max_pool", "k": "4", "mu": "1e-05", "k_grid": "4,8"}
        cfg = train_config_from_items(items, strict=False)
        assert cfg.mil.head == "max_pool"
        assert cfg.mil.k == 4

    def test_k_grid_sorted_deduped(self):
        cfg = train_config_from_items({"head": "label_assign", "k_grid": "8,2,8,4"})
        assert cfg.k_grid == (2, 4, 8)

    def test_bad_preprocess(self):
        with pytest.raises(ValueError, match="preprocess must be"):
            TrainConfig(preprocess="center_crop")

    def test_k_vs_m_checked_once_m_known(self):
        with pytest.raises(ValueError, match="exceeds instances per bag"):
            train_config_from_items({"head": "label_assign", "k": "17"})


class TestRunConfigBlob:
    def test_round_trip_defaults(self):
        cfg = TrainConfig()
        text = run_config_text(cfg, step=0)
        back, step = parse_run_config(text)
        assert back == cfg
        assert step == 0

    def test_round_trip_awkward_floats(self):
        # repr() floats must survive the text round trip bit for bit
        cfg = TrainConfig(
            learning_rate=1.0 / 3.0,
            beta1=0.8999999999999999,
            beta2=1.0 - 1e-12,
            eps=3e-17,
            mil=MilConfig(head="sparse", mu=0.1 + 0.2, lam=7e-7),
        )
        back, step = parse_run_config(run_config_text(cfg, step=12345))
        assert step == 12345
        assert back.learning_rate == cfg.learning_rate
        assert back.beta1 == cfg.beta1
        assert back.beta2 == cfg.beta2
        assert back.eps == cfg.eps
        assert back.mil.mu == cfg.mil.mu
        assert back.mil.lam == cfg.mil.lam
        assert back == cfg

    def test_round_trip_random_configs(self):
        rng = np.random.default_rng(41)
        seen: dict[str, set[str]] = {}
        for _ in range(40):
            head = ["max_pool", "label_assign", "sparse"][rng.integers(0, 3)]
            cfg = TrainConfig(
                learning_rate=float(10.0 ** rng.uniform(-5, -1)),
                beta1=float(rng.uniform(0.5, 0.99)),
                beta2=float(rng.uniform(0.9, 0.9999)),
                eps=float(10.0 ** rng.uniform(-12, -6)),
                epochs=int(rng.integers(1, 100)),
                batch_size=int(rng.integers(1, 16)),
                seed=int(rng.integers(0, 2**31)),
                k_grid=tuple(int(v) for v in rng.integers(1, 16, size=3)),
                backbone=backbone_preset(("desk", "paper")[rng.integers(0, 2)]),
                mil=MilConfig(head=head, k=int(rng.integers(1, 16)),
                              mu=float(rng.uniform(0, 0.1)),
                              lam=float(rng.uniform(0, 0.01)),
                              weight_mode=("balanced", "literal")[rng.integers(0, 2)]),
                preprocess=("resize", "full")[rng.integers(0, 2)],
                augment_enabled=bool(rng.integers(0, 2)),
                aug=AugmentConfig(flip_prob=float(rng.uniform(0, 1)),
                                  shift_frac=float(rng.uniform(0, 0.9)),
                                  rotate_deg_max=float(rng.uniform(0, 180)),
                                  cutout_frac=float(rng.uniform(0, 0.9))),
                finetune_learning_rate=float(10.0 ** rng.uniform(-6, -2)),
            )
            text = run_config_text(cfg, step=7)
            back, step = parse_run_config(text)
            assert back == cfg and step == 7
            for key, value in parse_flat(text).items():
                seen.setdefault(key, set()).add(value)
        # the samples vary every key the blob holds
        assert {key for key, values in seen.items() if len(values) < 2} == {"step"}

    def test_blob_lists_every_user_key(self):
        # one line per documented key plus the step counter
        text = run_config_text(TrainConfig(), step=4)
        keys = {line.split("=")[0].strip() for line in text.strip().splitlines()}
        assert keys == (set(USER_KEYS) | {"step"}) - {"preset"}

    def test_missing_step_defaults_to_zero(self):
        _, step = parse_run_config("epochs = 2\n")
        assert step == 0

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError, match="step must be nonnegative"):
            parse_run_config("step = -3\n")

    def test_corrupt_backbone_rejected(self):
        with pytest.raises(ValueError, match=r"<checkpoint>: key 'backbone': .*'conv:8:3'"):
            parse_run_config("backbone = input:64,conv:8:3,relu\nstep = 2\n")


class TestSynthSpecFile:
    def test_defaults_from_empty_file(self, tmp_path):
        p = tmp_path / "synth.cfg"
        p.write_text("# all defaults\n")
        spec = parse_synth_file(str(p))
        assert spec.image_size == 64
        assert spec.n_pos == 40
        assert spec.n_neg == 160
        assert spec.seed == 7

    def test_overrides(self, tmp_path):
        p = tmp_path / "synth.cfg"
        p.write_text(
            "image_size = 32\nn_pos = 5\nn_neg = 10\nmass_frac = 0.2\n"
            "intensity_lift = 0.35\nnoise_level = 0.01\nseed = 99\n"
        )
        spec = parse_synth_file(str(p))
        assert spec.image_size == 32
        assert spec.n_pos == 5
        assert spec.n_neg == 10
        assert spec.mass_frac == 0.2
        assert spec.intensity_lift == 0.35
        assert spec.noise_level == 0.01
        assert spec.seed == 99

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "synth.cfg"
        p.write_text("n_images = 10\n")
        with pytest.raises(ValueError, match="unknown synth key 'n_images'"):
            parse_synth_file(str(p))

    def test_bad_value_types(self, tmp_path):
        p = tmp_path / "synth.cfg"
        p.write_text("n_pos = many\n")
        with pytest.raises(ValueError, match="'n_pos': expected an integer"):
            parse_synth_file(str(p))

    @pytest.mark.parametrize("text, message", [
        ("n_pos = many", "key 'n_pos': expected an integer, got 'many'"),
        ("n_neg = 0", "key 'n_neg': n_pos and n_neg must be positive"),
        ("mass_frac = 1.5", r"key 'mass_frac': mass_frac must be in \(0, 1\)"),
    ])
    def test_value_errors_name_the_file_and_the_key(self, tmp_path, text, message):
        p = tmp_path / "synth.cfg"
        p.write_text(f"seed = 3\n{text}\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}: ") + message):
            parse_synth_file(str(p))


class TestKeyTables:
    def test_every_train_config_field_has_one_written_key(self):
        leaves = [f.name for f in fields(TrainConfig) if f.name not in ("mil", "aug")]
        leaves += [f"mil.{f.name}" for f in fields(MilConfig)]
        leaves += [f"aug.{f.name}" for f in fields(AugmentConfig)]
        written = [key.path for key in USER_KEYS.values() if key.fmt is not None]
        assert sorted(written) == sorted(leaves)
        # preset is the one user-only alias
        assert {n: k.path for n, k in USER_KEYS.items() if k.fmt is None} == {
            "preset": "backbone"}
        assert {k.head for k in USER_KEYS.values()} <= set(HEADS) | {None}

    def test_every_synth_spec_field_has_one_key(self):
        paths = [key.path for key in SYNTH_KEYS.values()]
        assert sorted(paths) == sorted(f.name for f in fields(SynthSpec))
        assert all(key.fmt is not None and key.head is None for key in SYNTH_KEYS.values())


class TestHelpText:
    def test_config_help_lists_every_key(self):
        text = config_help()
        for key in USER_KEYS:
            assert key in text

    def test_synth_help_lists_every_key(self):
        text = synth_help()
        for key in SYNTH_KEYS:
            assert key in text

    @pytest.mark.parametrize("render, table, default, spot", [
        (config_help, USER_KEYS, TrainConfig(),
         ("k_grid", "; label_assign head only (default 4,8,12,16)")),
        (synth_help, SYNTH_KEYS, SynthSpec(), ("n_neg", " (default 160)")),
    ])
    def test_help_shows_each_default_of_the_dataclass(self, render, table, default, spot):
        lines = {line.split()[0]: line for line in render().splitlines()[1:]}
        assert list(lines) == list(table)
        for name, key in table.items():
            if key.fmt is not None:
                shown = key.fmt(attrgetter(key.path)(default))
                assert lines[name].endswith(f"(default {shown})")
        name, ending = spot
        assert lines[name].endswith(ending)
