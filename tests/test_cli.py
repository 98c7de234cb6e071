"""End-to-end runs of the command line, in process via main(argv)."""

import os

import numpy as np
import pytest

from milnet.cli import main
from milnet.pgm import read_pgm
from milnet.training import load_checkpoint


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    spec = root / "synth.cfg"
    spec.write_text("image_size = 64\nn_pos = 6\nn_neg = 14\nseed = 3\n")
    out = root / "set"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def ckpt_path(data_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_train")
    cfg = root / "run.cfg"
    cfg.write_text("epochs = 2\nbatch = 4\nseed = 1\n")
    out = root / "model.miln"
    rc = main([
        "train", "--config", str(cfg),
        "--data", str(data_dir / "manifest.csv"), "--out", str(out),
    ])
    assert rc == 0
    return out


class TestSynth:
    def test_outputs(self, data_dir):
        manifest = data_dir / "manifest.csv"
        assert manifest.exists()
        lines = manifest.read_text().strip().splitlines()
        assert len(lines) == 21  # header + 20 rows
        pgms = sorted(p.name for p in data_dir.glob("*.pgm"))
        assert len(pgms) == 20
        assert pgms[0] == "img_0000.pgm"

    def test_regeneration_matches(self, data_dir, tmp_path):
        spec = tmp_path / "synth.cfg"
        spec.write_text("image_size = 64\nn_pos = 6\nn_neg = 14\nseed = 3\n")
        again = tmp_path / "set2"
        assert main(["synth", "--spec", str(spec), "--out", str(again)]) == 0
        a = (data_dir / "img_0003.pgm").read_bytes()
        b = (again / "img_0003.pgm").read_bytes()
        assert a == b

    def test_bad_spec_key_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "synth.cfg"
        spec.write_text("count = 10\n")
        rc = main(["synth", "--spec", str(spec), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_defaults_without_spec(self, tmp_path):
        # the default spec writes 200 images; just check the wiring on a
        # custom tiny spec elsewhere and make sure --out is required here
        with pytest.raises(SystemExit):
            main(["synth"])


class TestTrain:
    def test_checkpoint_and_metrics(self, ckpt_path):
        assert ckpt_path.exists()
        state, cfg = load_checkpoint(str(ckpt_path))
        assert cfg.epochs == 2
        assert cfg.seed == 1
        assert state.step > 0
        metrics = ckpt_path.parent / "model_metrics.csv"
        rows = metrics.read_text().strip().splitlines()
        assert rows[0].startswith("epoch,")
        assert len(rows) == 3  # header + one row per epoch

    def test_stderr_progress(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 1\nbatch = 4\nseed = 1\n")
        rc = main([
            "train", "--config", str(cfg),
            "--data", str(data_dir / "manifest.csv"),
            "--out", str(tmp_path / "m.miln"),
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "holding out" in err
        assert "best epoch" in err

    def test_explicit_val_data(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 1\nbatch = 4\nseed = 1\n")
        rc = main([
            "train", "--config", str(cfg),
            "--data", str(data_dir / "manifest.csv"),
            "--val-data", str(data_dir / "manifest.csv"),
            "--out", str(tmp_path / "m.miln"),
        ])
        assert rc == 0
        assert "holding out" not in capsys.readouterr().err

    def test_out_parent_dir_is_created(self, data_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 1\nbatch = 4\nseed = 1\n")
        out = tmp_path / "runs" / "nested" / "m.miln"
        rc = main([
            "train", "--config", str(cfg),
            "--data", str(data_dir / "manifest.csv"),
            "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()

    def test_resume_continues_step_counter(self, data_dir, ckpt_path, tmp_path, capsys):
        start_step = load_checkpoint(str(ckpt_path))[0].step
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 1\nbatch = 4\nseed = 1\n")
        out = tmp_path / "resumed.miln"
        rc = main([
            "train", "--config", str(cfg),
            "--data", str(data_dir / "manifest.csv"),
            "--resume", str(ckpt_path), "--out", str(out),
        ])
        assert rc == 0
        assert f"resuming from {ckpt_path} at step {start_step}" in capsys.readouterr().err
        assert load_checkpoint(str(out))[0].step > start_step

    def test_resume_backbone_mismatch(
        self, data_dir, ckpt_path, tmp_path, capsys, monkeypatch
    ):
        import milnet.cli as cli

        def no_load(*args, **kwargs):
            raise AssertionError("data loaded before the checkpoint check")

        monkeypatch.setattr(cli, "load_dataset", no_load)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = paper\nepochs = 1\n")
        out = tmp_path / "m.miln"
        rc = main([
            "train", "--config", str(cfg),
            "--data", str(data_dir / "manifest.csv"),
            "--resume", str(ckpt_path), "--out", str(out),
        ])
        assert rc == 2
        assert "backbone does not match" in capsys.readouterr().err
        assert not out.exists()

    def test_select_k(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "head = label_assign\nk_grid = 2,4\nepochs = 1\nbatch = 4\nseed = 1\n"
        )
        out = tmp_path / "m.miln"
        rc = main([
            "train", "--config", str(cfg), "--select-k",
            "--data", str(data_dir / "manifest.csv"), "--out", str(out),
        ])
        assert rc == 0
        assert "selected k =" in capsys.readouterr().err
        _, saved_cfg = load_checkpoint(str(out))
        assert saved_cfg.mil.k in (2, 4)

    def test_select_k_with_resume_exits_2_before_loading(
        self, data_dir, ckpt_path, tmp_path, capsys, monkeypatch
    ):
        import milnet.cli as cli

        def no_load(*args, **kwargs):
            raise AssertionError("data loaded before the option check")

        monkeypatch.setattr(cli, "load_manifest", no_load)
        out = tmp_path / "m.miln"
        rc = main([
            "train", "--select-k", "--resume", str(ckpt_path),
            "--data", str(data_dir / "manifest.csv"), "--out", str(out),
        ])
        assert rc == 2
        assert "--select-k" in capsys.readouterr().err
        assert not out.exists()

    def test_select_k_with_other_head_exits_2_before_loading(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        import milnet.cli as cli

        def no_load(*args, **kwargs):
            raise AssertionError("data loaded before the option check")

        monkeypatch.setattr(cli, "load_manifest", no_load)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("head = sparse\nepochs = 1\n")
        out = tmp_path / "m.miln"
        rc = main([
            "train", "--config", str(cfg), "--select-k",
            "--data", str(data_dir / "manifest.csv"), "--out", str(out),
        ])
        assert rc == 2
        assert "label_assign head, not 'sparse'" in capsys.readouterr().err
        assert not out.exists()

    def test_select_k_grid_above_cell_count_exits_2_before_loading(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        import milnet.cli as cli

        def no_load(*args, **kwargs):
            raise AssertionError("data loaded before the option check")

        monkeypatch.setattr(cli, "load_dataset", no_load)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("head = label_assign\nk_grid = 4,20\nepochs = 1\n")
        out_dir = tmp_path / "runs"
        rc = main([
            "train", "--config", str(cfg), "--select-k",
            "--data", str(data_dir / "manifest.csv"),
            "--out", str(out_dir / "m.miln"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "k=20 in k_grid exceeds instances per bag m=16" in err
        assert not out_dir.exists()

    def test_malformed_backbone_exits_2_before_loading(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        import milnet.cli as cli

        def no_load(*args, **kwargs):
            raise AssertionError("data loaded before the config check")

        monkeypatch.setattr(cli, "load_manifest", no_load)
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "m.miln"
        for backbone, message in (
            ("input:64,conv:8,relu", "'conv:8': expected conv:<channels>"),
            ("input:64,conv:8:3:0:0,relu", "stride must be >= 1, got 0"),
            ("input:64,conv:8:0:1:0,relu", "kernel must be >= 1, got 0"),
        ):
            cfg.write_text(f"backbone = {backbone}\nepochs = 1\n")
            rc = main([
                "train", "--config", str(cfg),
                "--data", str(data_dir / "manifest.csv"), "--out", str(out),
            ])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {cfg}: key 'backbone': ")
            assert message in err
        assert not out.exists()

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        rc = main([
            "train", "--data", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "m.miln"),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config_exits_2(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("head = max_pool\nk = 3\n")
        rc = main([
            "train", "--config", str(cfg),
            "--data", str(data_dir / "manifest.csv"),
            "--out", str(tmp_path / "m.miln"),
        ])
        assert rc == 2
        assert "label_assign" in capsys.readouterr().err


class TestEval:
    def test_outputs(self, data_dir, ckpt_path, tmp_path):
        out = tmp_path / "eval"
        rc = main([
            "eval", "--ckpt", str(ckpt_path),
            "--data", str(data_dir / "manifest.csv"), "--out", str(out),
        ])
        assert rc == 0
        scores = (out / "scores.csv").read_text().strip().splitlines()
        assert scores[0] == "path,label,score"
        assert len(scores) == 21
        summary = dict(
            line.split(",", 1)
            for line in (out / "summary.csv").read_text().strip().splitlines()[1:]
        )
        assert summary["n"] == "20"
        assert summary["n_pos"] == "6"
        assert 0.0 <= float(summary["accuracy"]) <= 1.0
        assert 0.0 <= float(summary["auc"]) <= 1.0
        roc = (out / "roc.csv").read_text().strip().splitlines()
        assert roc[0] == "fpr,tpr,threshold"
        assert roc[1].endswith(",inf")

    def test_single_class_skips_roc(self, data_dir, ckpt_path, tmp_path):
        # manifest with only negative rows: accuracy still reported, no AUC
        src = (data_dir / "manifest.csv").read_text().splitlines()
        neg_rows = []
        for r in src[1:]:
            fields = r.split(",")
            if fields[1] == "0":
                fields[0] = str(data_dir / os.path.basename(fields[0]))
                neg_rows.append(",".join(fields))
        manifest = tmp_path / "neg.csv"
        manifest.write_text("\n".join([src[0]] + neg_rows[:3]) + "\n")
        out = tmp_path / "eval"
        rc = main([
            "eval", "--ckpt", str(ckpt_path),
            "--data", str(manifest), "--out", str(out),
        ])
        assert rc == 0
        assert not (out / "roc.csv").exists()
        assert "auc" not in (out / "summary.csv").read_text()


class TestBag:
    def test_single_model_average_matches_eval(self, data_dir, ckpt_path, tmp_path):
        out_e = tmp_path / "eval"
        out_b = tmp_path / "bag"
        main(["eval", "--ckpt", str(ckpt_path),
              "--data", str(data_dir / "manifest.csv"), "--out", str(out_e)])
        rc = main([
            "bag", "--ckpts", str(ckpt_path),
            "--data", str(data_dir / "manifest.csv"), "--out", str(out_b),
        ])
        assert rc == 0
        assert (out_b / "scores.csv").read_text() == (out_e / "scores.csv").read_text()

    def test_corrupt_second_checkpoint_exits_2_before_loading(
        self, data_dir, ckpt_path, tmp_path, capsys, monkeypatch
    ):
        import milnet.cli as cli

        def no_load(*args, **kwargs):
            raise AssertionError("data loaded before every checkpoint was read")

        monkeypatch.setattr(cli, "load_dataset", no_load)
        corrupt = tmp_path / "corrupt.miln"
        corrupt.write_bytes(ckpt_path.read_bytes()[:200])
        out = tmp_path / "bag"
        rc = main([
            "bag", "--ckpts", str(ckpt_path), str(corrupt),
            "--data", str(data_dir / "manifest.csv"), "--out", str(out),
        ])
        assert rc == 2
        assert f"{corrupt}: truncated checkpoint" in capsys.readouterr().err
        assert not out.exists()

    def test_inputs_prepared_once_per_preprocessing(
        self, data_dir, ckpt_path, tmp_path, monkeypatch
    ):
        import milnet.training as training
        from milnet.data import load_dataset, load_manifest
        from milnet.evaluation import bagging, scores_csv
        from milnet.model import init_params
        from milnet.preprocessing import to_network_input
        from milnet.training import bag_scores, init_state, save_checkpoint

        state, cfg = load_checkpoint(str(ckpt_path))
        other = tmp_path / "other.miln"
        save_checkpoint(str(other), init_state(init_params(cfg.backbone, seed=8)), cfg)
        dataset = load_dataset(load_manifest(str(data_dir / "manifest.csv")))
        # the reference: each model scores its own preparation of the images
        expected = []
        for path in (ckpt_path, other):
            st, c = load_checkpoint(str(path))
            x = [to_network_input(img, c.backbone.input_size, mode=c.preprocess)
                 for img in dataset.images]
            expected.append(bag_scores(st.params, x))
        names = [os.path.basename(p) for p in dataset.paths]
        want = scores_csv(names, dataset.labels, bagging(expected))

        calls = []

        def counting(image, *args, **kwargs):
            calls.append(1)
            return to_network_input(image, *args, **kwargs)

        monkeypatch.setattr(training, "to_network_input", counting)
        out = tmp_path / "bag"
        rc = main([
            "bag", "--ckpts", str(ckpt_path), str(other),
            "--data", str(data_dir / "manifest.csv"), "--out", str(out),
        ])
        assert rc == 0
        assert len(calls) == len(dataset)  # two desk models, one preparation
        assert (out / "scores.csv").read_text() == want

    def test_vote_mode(self, data_dir, ckpt_path, tmp_path):
        out = tmp_path / "bag"
        rc = main([
            "bag", "--ckpts", str(ckpt_path), str(ckpt_path), "--mode", "vote",
            "--data", str(data_dir / "manifest.csv"), "--out", str(out),
        ])
        assert rc == 0
        rows = (out / "scores.csv").read_text().strip().splitlines()[1:]
        votes = {row.split(",")[2] for row in rows}
        # two identical models agree everywhere: vote fractions are 0 or 1
        assert votes <= {"0.0000000000", "1.0000000000"}


class TestViz:
    def test_response_map_files(self, data_dir, ckpt_path, tmp_path):
        out = tmp_path / "viz"
        image = str(data_dir / "img_0000.pgm")
        rc = main(["viz", "--ckpt", str(ckpt_path), "--image", image,
                   "--out", str(out)])
        assert rc == 0
        grid_rows = (out / "img_0000_response.csv").read_text().strip().splitlines()
        grid = np.array([[float(v) for v in r.split(",")] for r in grid_rows])
        assert grid.shape == (4, 4)
        assert np.all((grid >= 0.0) & (grid <= 1.0))
        small = read_pgm(str(out / "img_0000_response.pgm"))
        assert small.shape == (4, 4)
        up = read_pgm(str(out / "img_0000_response_up.pgm"))
        assert up.shape == (64, 64)

    def test_missing_checkpoint_exits_2(self, data_dir, tmp_path, capsys):
        rc = main(["viz", "--ckpt", str(tmp_path / "nope.miln"),
                   "--image", str(data_dir / "img_0000.pgm"),
                   "--out", str(tmp_path / "viz")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestStats:
    def test_histograms_and_summary(self, data_dir, tmp_path):
        out = tmp_path / "stats"
        rc = main(["stats", "--data", str(data_dir / "manifest.csv"),
                   "--out", str(out)])
        assert rc == 0
        for name in ("image_width_hist.csv", "image_height_hist.csv",
                     "mass_width_hist.csv", "mass_height_hist.csv"):
            rows = (out / name).read_text().strip().splitlines()
            assert rows[0] == "value,count"
        text = (out / "summary.csv").read_text()
        assert "n_images,20" in text
        assert "n_masses,6" in text


class TestCv:
    def test_fold_outputs(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 1\nbatch = 4\nseed = 1\n")
        out = tmp_path / "cv"
        rc = main([
            "cv", "--config", str(cfg), "--data", str(data_dir / "manifest.csv"),
            "--out", str(out), "--workers", "2",
        ])
        assert rc == 0
        for f in range(5):
            assert (out / f"fold{f}_ckpt.miln").exists()
            assert (out / f"fold{f}_metrics.csv").exists()
            assert (out / f"fold{f}_roc.csv").exists()
            assert (out / f"fold{f}_scores.csv").exists()
        rows = (out / "summary.csv").read_text().strip().splitlines()
        assert rows[0] == "fold,accuracy,auc"
        assert len(rows) == 7  # five folds, then the mean±std row
        assert rows[-1].startswith("mean±std,")
        assert "cv done:" in capsys.readouterr().err

    def test_scores_cover_every_image_once(self, data_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 1\nbatch = 4\nseed = 1\n")
        out = tmp_path / "cv"
        main(["cv", "--config", str(cfg), "--data", str(data_dir / "manifest.csv"),
              "--out", str(out), "--workers", "2"])
        seen = []
        for f in range(5):
            rows = (out / f"fold{f}_scores.csv").read_text().strip().splitlines()[1:]
            seen += [row.split(",")[0] for row in rows]
        assert sorted(seen) == sorted(f"img_{i:04d}.pgm" for i in range(20))

    def test_pretrain_stage(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("head = label_assign\nk = 4\nepochs = 1\nbatch = 4\nseed = 1\n")
        out = tmp_path / "cv"
        rc = main([
            "cv", "--config", str(cfg), "--data", str(data_dir / "manifest.csv"),
            "--out", str(out), "--workers", "2", "--pretrain-epochs", "1",
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "pretraining max_pool for 1 epochs per fold" in err
        # the fine-tune stage runs at the finetune rate when lr is not set
        assert "lr 5e-05" in err
        _, saved = load_checkpoint(str(out / "fold0_ckpt.miln"))
        assert saved.mil.head == "label_assign"
        assert saved.learning_rate == 5e-5


    @pytest.mark.parametrize("config,flags,message", [
        ("epochs = 1\n", ["--select-k"], "label_assign head, not 'max_pool'"),
        ("head = label_assign\nepochs = 1\n", ["--select-k", "--pretrain-epochs", "1"],
         "cannot be combined"),
        ("head = label_assign\nk_grid = 4,20\nepochs = 1\n", ["--select-k"],
         "k=20 in k_grid exceeds instances per bag m=16"),
    ], ids=["select_k_other_head", "select_k_with_pretrain", "select_k_grid_above_cells"])
    def test_incompatible_options_exit_2_before_loading(
        self, config, flags, message, data_dir, tmp_path, capsys, monkeypatch
    ):
        import milnet.cli as cli

        def no_load(*args, **kwargs):
            raise AssertionError("data loaded before the option check")

        monkeypatch.setattr(cli, "load_manifest", no_load)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out = tmp_path / "cv"
        rc = main(["cv", "--config", str(cfg), "--data", str(data_dir / "manifest.csv"),
                   "--out", str(out)] + flags)
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--workers", "0"), ("--workers", "-1"), ("--pretrain-epochs", "-3"),
    ])
    def test_out_of_range_counts_exit_2_at_parse_time(
        self, flag, value, data_dir, tmp_path, capsys, monkeypatch
    ):
        import milnet.cli as cli

        def no_load(*args, **kwargs):
            raise AssertionError("data loaded before the option check")

        monkeypatch.setattr(cli, "load_manifest", no_load)
        with pytest.raises(SystemExit) as exc:
            main(["cv", "--data", str(data_dir / "manifest.csv"),
                  "--out", str(tmp_path / "cv"), flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: must be at least" in capsys.readouterr().err


class TestGradcheck:
    def test_all_suites_pass(self, capsys):
        rc = main(["gradcheck", "--draws", "2", "--seed", "5"])
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 6  # two suites x three heads
        assert all(": ok " in l for l in lines)

    def test_single_module(self, capsys):
        rc = main(["gradcheck", "--module", "heads", "--draws", "2", "--seed", "5"])
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert all("backbone" not in l for l in lines)


class TestArgparse:
    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
