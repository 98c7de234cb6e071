"""Metrics against pair-counting oracles, fold plans, bagging, stats, maps,
and the cross-validation run."""

import itertools
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from milnet.data import SynthSpec, generate_synthetic, load_manifest
from milnet.evaluation import (
    FoldPlan,
    accuracy,
    auc,
    bagging,
    dataset_stats,
    export_response_map,
    make_folds,
    roc_csv,
    roc_curve,
    scores_csv,
    write_dataset_stats,
)
from milnet.model import PRESETS, init_params
from milnet.pgm import read_pgm


def auc_pair_oracle(scores, labels):
    """Exhaustive pair counting, ties worth half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (pos.size * neg.size)


class TestAccuracy:
    def test_basic(self):
        assert accuracy([0.9, 0.2, 0.7, 0.4], [1, 0, 1, 0]) == 1.0
        assert accuracy([0.9, 0.2, 0.3, 0.4], [1, 0, 1, 0]) == 0.75

    def test_threshold_boundary_is_positive(self):
        assert accuracy([0.5], [1]) == 1.0
        assert accuracy([0.5], [0]) == 0.0

    def test_custom_threshold(self):
        assert accuracy([0.4, 0.2], [1, 0], threshold=0.3) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            accuracy([], [])
        with pytest.raises(ValueError):
            accuracy([0.5, 0.5], [1])
        with pytest.raises(ValueError):
            accuracy([0.5], [2])


class TestAuc:
    def test_worked_examples(self):
        # positives {0.9, 0.3} vs negatives {0.4, 0.5}: 2 winning pairs of 4
        assert auc([0.9, 0.4, 0.3, 0.5], [1, 0, 1, 0]) == 0.5
        # positives {0.9, 0.45} vs negatives {0.4, 0.5}: 3 of 4
        assert auc([0.9, 0.4, 0.45, 0.5], [1, 0, 1, 0]) == 0.75
        # one tied pair counts half: 2.5 of 4
        assert auc([0.9, 0.4, 0.4, 0.5], [1, 0, 1, 0]) == 0.625

    def test_perfect_and_inverted(self):
        assert auc([0.8, 0.7, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
        assert auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_all_tied_is_half(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_matches_pair_counting_small_exhaustive(self):
        # every label pattern on tie-rich score grids, sizes up to 5
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        rng = np.random.default_rng(30)
        for n in range(2, 6):
            for labels in itertools.product((0, 1), repeat=n):
                labels = np.array(labels)
                if labels.sum() in (0, n):
                    continue
                for _ in range(6):
                    scores = rng.choice(grid, size=n)
                    assert_allclose(auc(scores, labels),
                                    auc_pair_oracle(scores, labels),
                                    rtol=0, atol=1e-15)

    def test_matches_pair_counting_random_larger(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(10, 60))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            # quantized scores keep ties frequent
            scores = np.round(rng.uniform(0, 1, size=n), 1)
            assert_allclose(auc(scores, labels),
                            auc_pair_oracle(scores, labels), atol=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc([0.1, 0.9], [1, 1])


class TestRocCurve:
    def test_endpoints_and_monotone(self):
        rng = np.random.default_rng(32)
        scores = rng.uniform(0, 1, size=50)
        labels = rng.integers(0, 2, size=50)
        labels[0] = 1
        labels[1] = 0
        curve = roc_curve(scores, labels)
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
        assert np.isinf(curve.thresholds[0])
        assert (np.diff(curve.fpr) >= 0).all()
        assert (np.diff(curve.tpr) >= 0).all()
        # thresholds strictly decreasing after the inf sentinel
        assert (np.diff(curve.thresholds[1:]) < 0).all()

    def test_area_equals_rank_auc(self):
        rng = np.random.default_rng(33)
        for _ in range(1000):
            n = int(rng.integers(4, 40))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            scores = np.round(rng.uniform(0, 1, size=n), 2)
            curve = roc_curve(scores, labels)
            assert_allclose(curve.area(), auc(scores, labels), atol=1e-12)

    def test_tie_groups_collapse_to_one_point(self):
        curve = roc_curve([0.7, 0.7, 0.2], [1, 0, 0])
        # one step for the tied pair, one for 0.2, plus the origin
        assert curve.fpr.size == 3
        assert_allclose(curve.fpr, [0.0, 0.5, 1.0])
        assert_allclose(curve.tpr, [0.0, 1.0, 1.0])

    def test_csv_format(self):
        curve = roc_curve([0.7, 0.2], [1, 0])
        text = roc_csv(curve)
        lines = text.splitlines()
        assert lines[0] == "fpr,tpr,threshold"
        assert lines[1] == "0.0000000000,0.0000000000,inf"
        assert lines[2] == "0.0000000000,1.0000000000,0.7000000000"
        assert lines[3] == "1.0000000000,1.0000000000,0.2000000000"


def loop_ranks(values):
    """The tie-group loop _average_ranks ran before it used array
    operations: the reference for equal results."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    sorted_vals = values[order]
    while i < values.size:
        j = i + 1
        while j < values.size and sorted_vals[j] == sorted_vals[i]:
            j += 1
        ranks[order[i:j]] = (i + j + 1) / 2.0
        i = j
    return ranks


def loop_roc(scores, labels):
    """(fpr, tpr, thresholds) by the loop roc_curve ran before it used array
    operations: the reference for equal results."""
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    fpr, tpr, thresholds = [0.0], [0.0], [np.inf]
    tp = fp = i = 0
    while i < scores.size:
        j = i + 1
        while j < scores.size and sorted_scores[j] == sorted_scores[i]:
            j += 1
        tp += int(sorted_labels[i:j].sum())
        fp += (j - i) - int(sorted_labels[i:j].sum())
        fpr.append(fp / n_neg)
        tpr.append(tp / n_pos)
        thresholds.append(float(sorted_scores[i]))
        i = j
    return np.array(fpr), np.array(tpr), np.array(thresholds)


class TestRankLoopsAsArrays:
    """roc_curve and auc give exactly what their former loops gave."""

    @pytest.mark.parametrize("kind", [
        "continuous", "rounded", "integer", "all-equal", "one-each", "signed-zeros"])
    @pytest.mark.parametrize("seed", range(3))
    def test_equal_to_the_loops(self, kind, seed):
        rng = np.random.default_rng(seed)
        n = 2 if kind == "one-each" else 2000
        labels = rng.permutation(np.arange(n) < max(1, n // 5)).astype(np.int64)
        scores = {
            "continuous": rng.uniform(0, 1, n),
            "rounded": np.round(rng.uniform(0, 1, n), 2),
            "integer": rng.integers(0, 6, n).astype(np.float64),
            "all-equal": np.full(n, 0.25),
            "one-each": rng.integers(0, 2, n).astype(np.float64),
            "signed-zeros": rng.choice([-0.0, 0.0, 0.5], n),
        }[kind]
        curve = roc_curve(scores, labels)
        fpr, tpr, thresholds = loop_roc(scores, labels)
        assert np.array_equal(curve.fpr, fpr)
        assert np.array_equal(curve.tpr, tpr)
        assert np.array_equal(curve.thresholds, thresholds)
        assert roc_csv(curve) == roc_csv(type(curve)(fpr, tpr, thresholds))
        n_pos = int(labels.sum())
        n_neg = n - n_pos
        rank_sum = float(loop_ranks(scores)[labels == 1].sum())
        assert auc(scores, labels) == (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


class TestFolds:
    def test_stratified_counts(self):
        labels = np.array([1] * 94 + [0] * 316)
        plan = make_folds(labels, n_folds=5, seed=0)
        pos_counts = sorted(
            int((labels[plan.assignments == f] == 1).sum()) for f in range(5)
        )
        neg_counts = sorted(
            int((labels[plan.assignments == f] == 0).sum()) for f in range(5)
        )
        assert pos_counts == [18, 19, 19, 19, 19]
        assert neg_counts == [63, 63, 63, 63, 64]

    def test_rotation_covers_everything_once(self):
        labels = np.array([0, 1] * 20)
        plan = make_folds(labels, n_folds=5, seed=4)
        seen_test = np.zeros(labels.size, dtype=int)
        for f in range(5):
            train, val, test = plan.split(f)
            seen_test[test] += 1
            combined = np.sort(np.concatenate([train, val, test]))
            assert_array_equal(combined, np.arange(labels.size))
            assert len(set(train) & set(val)) == 0
            assert len(set(train) & set(test)) == 0
            assert len(set(val) & set(test)) == 0
        assert (seen_test == 1).all()

    def test_val_is_next_fold(self):
        labels = np.array([0, 1] * 15)
        plan = make_folds(labels, n_folds=5, seed=1)
        for f in range(5):
            _, val, _ = plan.split(f)
            assert set(plan.assignments[val]) == {(f + 1) % 5}

    def test_deterministic_and_seed_sensitive(self):
        labels = np.array([0, 1] * 25)
        a = make_folds(labels, n_folds=5, seed=7)
        b = make_folds(labels, n_folds=5, seed=7)
        c = make_folds(labels, n_folds=5, seed=8)
        assert_array_equal(a.assignments, b.assignments)
        assert not np.array_equal(a.assignments, c.assignments)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="fewer than"):
            make_folds(np.array([1, 1, 1, 0, 0, 0, 0, 0]), n_folds=5)

    def test_split_range_checked(self):
        plan = FoldPlan(assignments=np.array([0, 1, 0, 1]), n_folds=2)
        with pytest.raises(ValueError):
            plan.split(2)

    def test_min_two_folds(self):
        with pytest.raises(ValueError):
            make_folds(np.array([0, 1]), n_folds=1)

    @pytest.mark.parametrize("labels, message", [
        ([0, 1] * 5 + [2], "label 2 at index 10 is not 0 or 1"),
        ([0, 1, -1, 1] * 3, "label -1 at index 2 is not 0 or 1"),
        ([0.0, 1.0, 0.5] * 5, "label 0.5 at index 2 is not 0 or 1"),
    ])
    def test_labels_other_than_0_or_1_rejected_before_drawing(
        self, labels, message, monkeypatch
    ):
        import milnet.evaluation as evaluation

        def no_draw(*args, **kwargs):
            raise AssertionError("the fold RNG was drawn")

        monkeypatch.setattr(evaluation, "derive_rng", no_draw)
        with pytest.raises(ValueError, match=message):
            make_folds(np.array(labels))


class TestBagging:
    def test_average(self):
        out = bagging([[0.2, 0.8], [0.4, 0.6]])
        assert_allclose(out, [0.3, 0.7])

    def test_vote(self):
        out = bagging([[0.9, 0.1], [0.6, 0.4], [0.2, 0.8]], mode="vote")
        assert_allclose(out, [2 / 3, 1 / 3])

    def test_vote_counts_half_threshold_as_positive(self):
        assert_allclose(bagging([[0.5]], mode="vote"), [1.0])

    def test_single_model_average_is_identity(self):
        assert_allclose(bagging([[0.3, 0.9]]), [0.3, 0.9])

    def test_validation(self):
        with pytest.raises(ValueError):
            bagging([])
        with pytest.raises(ValueError):
            bagging([[0.5, 0.5], [0.5]])
        with pytest.raises(ValueError):
            bagging([[0.5]], mode="median")


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth_eval")
    spec = SynthSpec(n_pos=12, n_neg=28, seed=5)
    manifest_path = generate_synthetic(spec, str(out))
    return str(out), manifest_path, spec


class TestDatasetStats:
    def test_counts_and_fraction(self, synth_dir):
        out, manifest_path, spec = synth_dir
        stats = dataset_stats(load_manifest(manifest_path))
        assert stats.image_widths.size == 40
        assert (stats.image_widths == 64).all()
        assert (stats.image_heights == 64).all()
        assert stats.mass_widths.size == 12
        # planted boxes are square and sized by the area fraction target
        assert_array_equal(stats.mass_widths, stats.mass_heights)
        assert abs(stats.mass_area_fraction - 0.0196) < 0.002

    def test_no_boxes_gives_none(self, tmp_path):
        out = str(tmp_path / "neg_only")
        spec = SynthSpec(n_pos=1, n_neg=6, seed=9)
        manifest_path = generate_synthetic(spec, out)
        manifest = load_manifest(manifest_path)
        manifest.records[:] = [r for r in manifest.records if r.box is None]
        stats = dataset_stats(manifest)
        assert stats.mass_area_fraction is None
        assert stats.mass_widths.size == 0

    def test_write_files(self, synth_dir, tmp_path):
        _, manifest_path, _ = synth_dir
        stats = dataset_stats(load_manifest(manifest_path))
        out = str(tmp_path / "stats")
        write_dataset_stats(stats, out)
        for name in ("image_width_hist.csv", "image_height_hist.csv",
                     "mass_width_hist.csv", "mass_height_hist.csv",
                     "summary.csv"):
            assert os.path.exists(os.path.join(out, name))
        with open(os.path.join(out, "image_width_hist.csv")) as f:
            lines = f.read().splitlines()
        assert lines[0] == "value,count"
        assert lines[1] == "64,40"
        with open(os.path.join(out, "summary.csv")) as f:
            text = f.read()
        assert "n_images,40" in text
        assert "n_masses,12" in text
        assert "mass_area_fraction," in text


class TestExportResponseMap:
    def test_files_and_grid(self, tmp_path):
        params = init_params(PRESETS["desk"], seed=2)
        rng = np.random.default_rng(3)
        image = rng.integers(0, 256, size=(64, 64)).astype(np.uint8)
        prefix = str(tmp_path / "map")
        grid = export_response_map(params, image, prefix)
        assert grid.shape == (4, 4)
        with open(prefix + ".csv") as f:
            rows = [line.split(",") for line in f.read().splitlines()]
        assert len(rows) == 4 and all(len(r) == 4 for r in rows)
        parsed = np.array([[float(v) for v in row] for row in rows])
        assert_allclose(parsed, grid, atol=1e-10)
        small = read_pgm(prefix + ".pgm")
        assert small.shape == (4, 4)
        assert_array_equal(small, np.clip(np.rint(grid * 255), 0, 255))
        up = read_pgm(prefix + "_up.pgm")
        assert up.shape == (64, 64)
        # nearest-neighbor upsample: each 16x16 block is constant
        assert (up[0:16, 0:16] == small[0, 0]).all()
        assert (up[48:64, 48:64] == small[3, 3]).all()

    def test_zero_params_give_uniform_half(self, tmp_path):
        params = init_params(PRESETS["desk"], seed=0)
        for name in params.names():
            params.arrays[name][...] = 0.0
        image = np.random.default_rng(1).integers(0, 256, (64, 64)).astype(np.uint8)
        grid = export_response_map(params, image, str(tmp_path / "flat"))
        assert_allclose(grid, 0.5)
        small = read_pgm(str(tmp_path / "flat") + ".pgm")
        assert (small == 128).all()


class TestScoresCsv:
    def test_format(self):
        text = scores_csv(["a.pgm", "b.pgm"], np.array([1, 0]),
                          np.array([0.25, 0.75]))
        lines = text.splitlines()
        assert lines[0] == "path,label,score"
        assert lines[1] == "a.pgm,1,0.2500000000"
        assert lines[2] == "b.pgm,0,0.7500000000"


class TestCrossValidateOptions:
    def test_select_k_with_pretrain_rejected_before_any_fold(self, tmp_path, monkeypatch):
        import milnet.cv as cv
        from milnet.config import TrainConfig
        from milnet.cv import cross_validate
        from milnet.heads import MilConfig

        def no_train(*args, **kwargs):
            raise AssertionError("a fold started training")

        monkeypatch.setattr(cv, "train", no_train)
        monkeypatch.setattr(cv, "select_k", no_train)
        cfg = TrainConfig(mil=MilConfig(head="label_assign"))
        rng = np.random.default_rng(0)
        images = [rng.integers(0, 256, (64, 64)).astype(np.uint8) for _ in range(10)]
        out = tmp_path / "cv"
        with pytest.raises(ValueError, match="cannot be combined"):
            cross_validate(images, np.array([0, 1] * 5), cfg, str(out),
                           use_select_k=True, pretrain=cfg)
        assert not out.exists()

    def _no_training(self, monkeypatch):
        import milnet.cv as cv

        def no_train(*args, **kwargs):
            raise AssertionError("a fold started training")

        monkeypatch.setattr(cv, "train", no_train)
        monkeypatch.setattr(cv, "select_k", no_train)
        rng = np.random.default_rng(0)
        return [rng.integers(0, 256, (64, 64)).astype(np.uint8) for _ in range(10)]

    @pytest.mark.parametrize("head", ["max_pool", "sparse"])
    def test_select_k_with_other_head_rejected_before_out_dir(
        self, head, tmp_path, monkeypatch
    ):
        from milnet.config import TrainConfig
        from milnet.cv import cross_validate
        from milnet.heads import MilConfig

        images = self._no_training(monkeypatch)
        out = tmp_path / "cv"
        with pytest.raises(ValueError, match="label_assign"):
            cross_validate(images, np.array([0, 1] * 5),
                           TrainConfig(mil=MilConfig(head=head)), str(out),
                           use_select_k=True)
        assert not out.exists()

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected_before_out_dir(
        self, workers, tmp_path, monkeypatch
    ):
        from milnet.config import TrainConfig
        from milnet.cv import cross_validate

        images = self._no_training(monkeypatch)
        out = tmp_path / "cv"
        with pytest.raises(ValueError, match="workers"):
            cross_validate(images, np.array([0, 1] * 5), TrainConfig(), str(out),
                           workers=workers)
        assert not out.exists()

    @pytest.mark.parametrize("pretrain_change, message", [
        (dict(backbone="input:64,conv:4:5:2:2,relu,pool:2:2"),
         "pretrain backbone input:64,conv:4:5:2:2,relu,pool:2:2 differs"),
        (dict(preprocess="full"), "pretrain preprocess 'full' differs"),
    ], ids=["backbone", "preprocess"])
    def test_pretrain_that_cannot_warm_start_rejected_before_any_fold(
        self, pretrain_change, message, tmp_path, monkeypatch
    ):
        from milnet.config import TrainConfig
        from milnet.cv import cross_validate
        from milnet.model import BackboneSpec

        images = self._no_training(monkeypatch)
        cfg = TrainConfig()
        if "backbone" in pretrain_change:
            pretrain_change = dict(
                backbone=BackboneSpec.parse(pretrain_change["backbone"]))
        pretrain = TrainConfig(**pretrain_change)
        out = tmp_path / "cv"
        with pytest.raises(ValueError, match=message):
            cross_validate(images, np.array([0, 1] * 5), cfg, str(out),
                           pretrain=pretrain)
        assert not out.exists()

    @pytest.mark.parametrize("labels, names, message", [
        ([0, 1] * 4 + [0], None, "9 labels for 10 images"),
        ([0, 1] * 5, [str(i) for i in range(9)], "9 names for 10 images"),
        ([0] * 6 + [1] * 4, None, "class 1 has 4 samples, fewer than 5 folds"),
        ([0, 1] * 4 + [2, 1], None, "label 2 at index 8 is not 0 or 1"),
        ([0, 1] * 4 + [0.5, 1], None, r"label 0\.5 at index 8 is not 0 or 1"),
    ], ids=["labels_short", "names_short", "class_below_fold_count", "label_not_0_or_1",
            "label_fraction"])
    def test_bad_data_rejected_before_any_image_is_prepared(
        self, labels, names, message, tmp_path, monkeypatch
    ):
        import milnet.training as training
        from milnet.config import TrainConfig
        from milnet.cv import cross_validate

        def no_prepare(*args, **kwargs):
            raise AssertionError("an image was prepared")

        images = self._no_training(monkeypatch)
        monkeypatch.setattr(training, "to_network_input", no_prepare)
        out = tmp_path / "cv"
        with pytest.raises(ValueError, match=message):
            cross_validate(images, np.array(labels), TrainConfig(), str(out),
                           names=names)
        assert not out.exists()


class TestCrossValidateInputs:
    """Every image is prepared once per run, whatever the fold options."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("mode", ["plain", "pretrain", "select_k"])
    def test_one_preparation_per_image(self, mode, workers, tmp_path, monkeypatch):
        import dataclasses

        import milnet.training as training
        from milnet.config import TrainConfig
        from milnet.cv import cross_validate
        from milnet.heads import MilConfig
        from milnet.model import BackboneSpec

        calls = []
        real = training.to_network_input

        def counting(image, *args, **kwargs):
            calls.append(id(image))
            return real(image, *args, **kwargs)

        monkeypatch.setattr(training, "to_network_input", counting)
        rng = np.random.default_rng(0)
        images = [rng.integers(0, 256, (16, 16)).astype(np.uint8) for _ in range(10)]
        spec = BackboneSpec.parse("input:16,conv:2:3:2:1,relu")
        cfg = TrainConfig(backbone=spec, epochs=1, batch_size=4, seed=3,
                          augment_enabled=False)
        pretrain = None
        if mode == "select_k":
            cfg = dataclasses.replace(cfg, k_grid=(1, 2),
                                      mil=MilConfig(head="label_assign", k=1))
        if mode == "pretrain":
            pretrain = cfg
            cfg = dataclasses.replace(cfg, mil=MilConfig(head="label_assign", k=2))
        cross_validate(images, np.array([0, 1] * 5), cfg, str(tmp_path / "cv"),
                       workers=workers, use_select_k=mode == "select_k",
                       pretrain=pretrain)
        assert sorted(calls) == sorted(id(img) for img in images)


# a 10-image cv small enough to run in a second: 16 px inputs, one conv layer
_TINY_CV = '''
import numpy as np
from milnet.config import TrainConfig
from milnet.model import BackboneSpec

rng = np.random.default_rng(0)
images = [rng.integers(0, 256, (16, 16)).astype(np.uint8) for _ in range(10)]
labels = np.array([0, 1] * 5)
cfg = TrainConfig(backbone=BackboneSpec.parse("input:16,conv:2:3:2:1,relu"),
                  epochs=1, batch_size=4, seed=3, augment_enabled=False)
'''

# fold 3's process exits at once, without raising
_KILLED_FOLD_CV = _TINY_CV + '''
import multiprocessing, os, sys
import milnet.cv as cv
from milnet.rng import derive_seed

real_train = cv.train

def dying(*args, **kwargs):
    if args[4].seed == derive_seed(cfg.seed, "fold", 3):
        os._exit(1)
    return real_train(*args, **kwargs)

cv.train = dying
try:
    cv.cross_validate(images, labels, cfg, sys.argv[1], workers=2)
except RuntimeError as exc:
    print("raised:", exc)
print("children left:", len(multiprocessing.active_children()))
'''


class TestCrossValidateProcesses:
    """Folds at workers > 1 run in forked processes: failures surface in the
    caller naming the fold, no process outlives the call, and each process
    leaves the op pool its share of the CPUs."""

    def _tiny_cv(self):
        scope = {}
        exec(_TINY_CV, scope)
        return scope["images"], scope["labels"], scope["cfg"]

    def test_failing_fold_raises_naming_it(self, tmp_path, monkeypatch):
        import multiprocessing

        import milnet.cv as cv
        from milnet import _forked
        from milnet.rng import derive_seed

        images, labels, cfg = self._tiny_cv()
        real_train = cv.train

        def failing(*args, **kwargs):
            if args[4].seed == derive_seed(cfg.seed, "fold", 3):
                raise ValueError("planted failure")
            return real_train(*args, **kwargs)

        monkeypatch.setattr(cv, "train", failing)
        with pytest.raises(RuntimeError, match="fold 3 failed: planted failure"):
            cv.cross_validate(images, labels, cfg, str(tmp_path / "cv"), workers=2)
        assert multiprocessing.active_children() == []
        assert _forked._job is None

    def test_killed_fold_process_raises_instead_of_hanging(self, tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        import milnet

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(Path(milnet.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", _KILLED_FOLD_CV, str(tmp_path / "cv")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        raised, left = proc.stdout.splitlines()
        assert raised.startswith("raised: fold ") and "terminated abruptly" in raised
        assert left == "children left: 0"

    def test_fold_processes_share_the_cpus_with_op_threads(self, tmp_path, monkeypatch):
        import milnet._kernels as kernels
        import milnet.cv as cv

        images, labels, cfg = self._tiny_cv()
        real_train = cv.train

        def reporting(*args, **kwargs):
            (tmp_path / f"pool_workers_{args[4].seed}").write_text(
                f"{os.getpid()} {kernels._pool_workers}")
            return real_train(*args, **kwargs)

        monkeypatch.setattr(cv, "train", reporting)
        parent_setting = kernels._pool_workers
        cv.cross_validate(images, labels, cfg, str(tmp_path / "cv"), workers=2)
        reports = [p.read_text().split() for p in tmp_path.glob("pool_workers_*")]
        assert len(reports) == 5
        assert all(int(pid) != os.getpid() for pid, _ in reports)
        cpus = len(os.sched_getaffinity(0))
        for _, threads in reports:
            assert int(threads) == max(0, cpus // 2 - 1)
            # two fold processes, each with its calling thread and pool threads
            assert 2 * (1 + int(threads)) <= max(cpus, 2)
        assert kernels._pool_workers == parent_setting
