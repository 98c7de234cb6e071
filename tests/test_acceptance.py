"""Top-level acceptance checks, one verdict per shipped guarantee.

Every test here re-derives its expected values from scratch (exhaustive
scans, pair counting, hand arithmetic) rather than trusting the library,
then prints one PASS/FAIL line straight to the terminal so a full run ends
with visible verdicts for all eight guarantees (determinism prints five:
across reruns, across fold-worker counts, across BLAS thread counts for
fold processes and for train and eval, and across CPU counts).
Tests run in file order; the expensive cross-validation runs happen once in
a shared fixture.
"""

import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import milnet
from milnet.cli import main
from milnet.config import TrainConfig
from milnet.data import SynthSpec, generate_synthetic, load_dataset, load_manifest
from milnet.cv import cross_validate
from milnet.evaluation import auc
from milnet.gradcheck import check_full_gradients
from milnet.heads import BagWeights, MilConfig, bag_loss, bag_weights
from milnet.model import response_grid
from milnet.preprocessing import otsu_threshold, to_network_input
from milnet.training import _SHARD_MIN_IMAGES, load_checkpoint, prepare_inputs, train


def _verdict(capsys, tag: str, ok: bool, detail: str) -> bool:
    with capsys.disabled():
        print(f"\n[{tag}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    return ok


def _logits(values) -> np.ndarray:
    """One bag of responses v as the (1, m) logits logit(v) the heads take."""
    v = np.asarray(values, dtype=np.float64)
    return (np.log(v) - np.log1p(-v))[None, :]


def _loss(head_cfg: MilConfig, values, label: int, weights: BagWeights) -> float:
    return bag_loss(head_cfg, _logits(values), [label], weights)[0]


class TestGradientSuite:
    def test_analytic_matches_finite_differences(self, capsys):
        start = time.monotonic()
        reports = [
            check_full_gradients(head, n_draws=20, seed=2024)
            for head in ("max_pool", "label_assign", "sparse")
        ]
        elapsed = time.monotonic() - start
        worst = max(r.max_err for r in reports)
        coords = sum(r.n_coords for r in reports)
        skipped = sum(r.n_skipped for r in reports)
        # skipped = both finite-difference step sizes disagreed, i.e. the
        # probe straddled a relu/pool/rank kink where no derivative exists
        ok = all(r.passed for r in reports) and elapsed < 120.0 and coords >= 300
        _verdict(
            capsys, "1 gradient suite", ok,
            f"3 heads through the desk backbone, 20 draws each: "
            f"{coords} coordinates match central differences within "
            f"1e-7 + 1e-5*scale (worst scaled gap {worst:.1e}, necessarily "
            f"on near-zero gradients), {skipped} kink coordinates excluded, "
            f"{elapsed:.0f}s",
        )
        for r in reports:
            assert r.passed, r.failures[:3]
        assert coords >= 300  # the kink filter must not hollow out the check
        assert elapsed < 120.0


class TestHeadDegeneracies:
    def test_sparse_mu0_and_label_assign_km(self, capsys):
        rng = np.random.default_rng(77)
        m = 16
        worst_sparse = 0.0
        for _ in range(1000):
            values = rng.uniform(0.02, 0.98, size=m)
            label = int(rng.integers(0, 2))
            n_pos = int(rng.integers(1, 20))
            w = bag_weights(n_pos, 20, k=int(rng.integers(1, m + 1)), m=m)
            a = _loss(MilConfig(head="sparse", mu=0.0), values, label, w)
            b = _loss(MilConfig(head="max_pool"), values, label, w)
            worst_sparse = max(worst_sparse, abs(a - b))

        # k = m with a positive bag: every patch inherits the label, so the
        # loss must equal a plain per-instance cross entropy
        worst_la = 0.0
        for m_small in range(1, 7):
            for _ in range(200):
                values = rng.uniform(0.02, 0.98, size=m_small)
                n_pos = int(rng.integers(1, 10))
                w = bag_weights(n_pos, 10, k=m_small, m=m_small)
                got = _loss(
                    MilConfig(head="label_assign", k=m_small),
                    values, 1, w,
                )
                oracle = w.w1_patch * sum(-math.log(v) for v in values)
                worst_la = max(worst_la, abs(got - oracle))

        ok = worst_sparse <= 1e-12 and worst_la <= 1e-12
        _verdict(
            capsys, "2 head degeneracies", ok,
            f"sparse(mu=0) vs max_pool on 1000 bags: max diff {worst_sparse:.1e}; "
            f"label_assign(k=m, y=1) vs cross-entropy oracle, m<=6: "
            f"max diff {worst_la:.1e}",
        )
        assert ok


class TestHandValues:
    def test_worked_examples(self, capsys):
        r = (0.2, 0.8, 0.5, 0.1)
        unit = BagWeights(1.0, 1.0, 0.25, 0.75)

        got_max = _loss(MilConfig(head="max_pool"), r, 1, unit)
        want_max = -math.log(0.8)  # 0.22314355...

        got_la = _loss(MilConfig(head="label_assign", k=2), r, 1, unit)
        want_la = 0.25 * (-math.log(0.8) - math.log(0.5)) \
            + 0.75 * (-math.log(0.8) - math.log(0.9))  # 0.47545073...

        got_sp = _loss(MilConfig(head="sparse", mu=0.01), r, 1, unit)
        want_sp = -math.log(0.8) + 0.01 * 1.6  # 0.23914355...

        ok = (
            abs(got_max - 0.223144) < 1e-6
            and abs(got_la - want_la) < 1e-9
            and abs(got_sp - 0.239144) < 1e-6
        )
        _verdict(
            capsys, "3 hand values", ok,
            f"max_pool {got_max:.6f} (want 0.223144), "
            f"label_assign {got_la:.6f} (defining expression "
            f"0.25*(-ln.8-ln.5)+0.75*(-ln.8-ln.9) = {want_la:.6f}; a hand "
            f"total of 0.475550 comes from miscopying the second term as "
            f"0.246477 where 0.75*(-ln.8-ln.9) = 0.246378), "
            f"sparse {got_sp:.6f} (want 0.239144)",
        )
        assert abs(got_max - 0.223144) < 1e-6
        assert abs(got_la - want_la) < 1e-9
        assert abs(got_sp - 0.239144) < 1e-6
        # the two printed components of the worked label_assign total
        assert abs(0.25 * (-math.log(0.8) - math.log(0.5)) - 0.229073) < 1e-6
        assert abs(got_la - 0.4754507331975657) < 1e-12


def _otsu_scan(image) -> int:
    """Exhaustive 255-threshold between-class-variance search."""
    pixels = np.asarray(image).reshape(-1).astype(np.int64)
    n = pixels.size
    best_t, best_score = 0, -1.0
    for t in range(255):
        low = pixels[pixels <= t]
        high = pixels[pixels > t]
        if low.size == 0 or high.size == 0:
            score = 0.0
        else:
            score = (low.size / n) * (high.size / n) * (low.mean() - high.mean()) ** 2
        if score > best_score:
            best_t, best_score = t, score
    return best_t


def _pair_count_auc(scores, labels) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    wins = ties = total = 0
    for i in np.flatnonzero(labels == 1):
        for j in np.flatnonzero(labels == 0):
            total += 1
            if scores[i] > scores[j]:
                wins += 1
            elif scores[i] == scores[j]:
                ties += 1
    return (wins + 0.5 * ties) / total


class TestOracleEquivalence:
    def test_otsu_and_auc(self, capsys):
        rng = np.random.default_rng(2024)
        otsu_bad = 0
        for i in range(1000):
            h, w = rng.integers(3, 24, size=2)
            if i % 3 == 0:
                img = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
            elif i % 3 == 1:
                # bimodal: dark background plus a bright blob
                img = rng.normal(60, 12, size=(h, w))
                img[: h // 2, : w // 2] += rng.normal(120, 15)
                img = np.clip(img, 0, 255).astype(np.uint8)
            else:
                img = rng.integers(0, 5, size=(h, w)).astype(np.uint8) * 60
            if otsu_threshold(img).threshold != _otsu_scan(img):
                otsu_bad += 1

        grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        auc_worst = 0.0
        n_auc = 0
        for size in range(2, 9):
            for pattern in product((0, 1), repeat=size):
                if 0 < sum(pattern) < size:
                    for _ in range(8):
                        scores = rng.choice(grid, size=size)
                        got = auc(scores, np.array(pattern))
                        auc_worst = max(
                            auc_worst, abs(got - _pair_count_auc(scores, pattern))
                        )
                        n_auc += 1
        for _ in range(1000):
            size = int(rng.integers(10, 120))
            labels = rng.integers(0, 2, size=size)
            if not 0 < labels.sum() < size:
                continue
            scores = np.round(rng.random(size), 1)  # heavy ties
            got = auc(scores, labels)
            auc_worst = max(auc_worst, abs(got - _pair_count_auc(scores, labels)))
            n_auc += 1

        ok = otsu_bad == 0 and auc_worst <= 1e-12
        _verdict(
            capsys, "4 oracle equivalence", ok,
            f"otsu exact on 1000 images ({otsu_bad} mismatches); auc vs pair "
            f"counting on {n_auc} score sets, max diff {auc_worst:.1e}",
        )
        assert ok


def _locate_hits(summary, out_dir, images, boxes, cfg) -> tuple[int, int]:
    """Count positive test bags whose argmax response cell overlaps the box,
    scoring each fold with the parameters of its checkpoint."""
    size = cfg.backbone.input_size
    hits = total = 0
    for outcome in summary.outcomes:
        ckpt = os.path.join(out_dir, f"fold{outcome.fold}_ckpt.miln")
        state, _ = load_checkpoint(ckpt)
        for i in outcome.test_indices:
            box = boxes[i]
            if box is None:
                continue
            x = to_network_input(images[i], size, mode=cfg.preprocess)
            grid = response_grid(state.params, x)
            gh, gw = grid.shape
            ci, cj = np.unravel_index(int(np.argmax(grid)), grid.shape)
            ch, cw = size // gh, size // gw
            bx, by, bw, bh = box
            ox = min(cj * cw + cw, bx + bw) - max(cj * cw, bx)
            oy = min(ci * ch + ch, by + bh) - max(ci * ch, by)
            hits += 1 if (ox > 0 and oy > 0) else 0
            total += 1
    return hits, total


@pytest.fixture(scope="module")
def synth_runs(tmp_path_factory):
    """The default synthetic set plus one 5-fold run per head, each written
    to root / f"cv_{head}".

    label_assign cannot train from random weights here (its weighting of
    negative patches flattens the feature map before the top-k pull finds
    the mass), so each of its folds warms up with max_pool epochs first,
    then fine-tunes; see cross_validate(pretrain=...).
    """
    root = tmp_path_factory.mktemp("acceptance_e2e")
    manifest = generate_synthetic(SynthSpec(), str(root / "data"))
    ds = load_dataset(load_manifest(manifest))
    base = TrainConfig(epochs=25, batch_size=8, seed=11)
    start = time.monotonic()
    runs = {}
    cfg = dataclasses.replace(base, mil=MilConfig(head="max_pool"))
    runs["max_pool"] = (
        cfg,
        cross_validate(ds.images, ds.labels, cfg, str(root / "cv_max_pool"), workers=5),
    )
    cfg = dataclasses.replace(base, mil=MilConfig(head="sparse", mu=1e-5))
    runs["sparse"] = (
        cfg,
        cross_validate(ds.images, ds.labels, cfg, str(root / "cv_sparse"), workers=5),
    )
    cfg = dataclasses.replace(
        base, epochs=10, learning_rate=base.finetune_learning_rate,
        mil=MilConfig(head="label_assign", k=4),
    )
    warmup = dataclasses.replace(
        base, epochs=20, mil=MilConfig(head="max_pool"),
    )
    runs["label_assign"] = (
        cfg,
        cross_validate(
            ds.images, ds.labels, cfg, str(root / "cv_label_assign"),
            workers=5, pretrain=warmup,
        ),
    )
    return ds, runs, time.monotonic() - start, root


class TestSyntheticEndToEnd:
    def test_auc_per_head(self, synth_runs, capsys):
        _, runs, elapsed, _ = synth_runs
        means = {head: summary.auc_mean for head, (_, summary) in runs.items()}
        ordering_holds = (
            means["sparse"] >= means["label_assign"] >= means["max_pool"]
        )
        ok = all(v >= 0.90 for v in means.values()) and elapsed < 1800.0
        _verdict(
            capsys, "5 synthetic end-to-end", ok,
            f"5-fold mean auc: sparse {means['sparse']:.4f}, "
            f"label_assign {means['label_assign']:.4f}, "
            f"max_pool {means['max_pool']:.4f} (all >= 0.90 required; "
            f"sparse >= label_assign >= max_pool "
            f"{'holds' if ordering_holds else 'does not hold'}, informative "
            f"only); {elapsed:.0f}s total",
        )
        for head, mean in means.items():
            assert mean >= 0.90, (head, mean)
        assert elapsed < 1800.0


class TestLocalization:
    def test_argmax_cell_overlaps_mass(self, synth_runs, capsys):
        ds, runs, _, root = synth_runs
        cfg, summary = runs["sparse"]
        hits, total = _locate_hits(summary, str(root / "cv_sparse"), ds.images,
                                   ds.boxes, cfg)
        ok = hits >= 0.90 * total
        _verdict(
            capsys, "6 localization", ok,
            f"argmax response cell overlaps the planted box on {hits}/{total} "
            f"positive test bags (sparse head; >= 90% required)",
        )
        assert ok


def _cv_runs(tmp_path, workers: dict[str, str]) -> tuple[list[str], list[str]]:
    """Run the same small cv once per (output dir, fold workers) entry;
    returns the file names of the first output and those that differ
    between the outputs."""
    spec = tmp_path / "synth.cfg"
    spec.write_text("image_size = 64\nn_pos = 6\nn_neg = 14\nseed = 3\n")
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 2\nbatch = 4\nseed = 9\n")
    for out, n in workers.items():
        rc = main([
            "cv", "--config", str(cfg),
            "--data", str(tmp_path / "d" / "manifest.csv"),
            "--out", str(tmp_path / out), "--workers", n,
        ])
        assert rc == 0
    first, *rest = workers
    names = sorted(os.listdir(tmp_path / first))
    diffs = [
        name for name in names for other in rest
        if (tmp_path / first / name).read_bytes()
        != (tmp_path / other / name).read_bytes()
    ]
    return names, diffs


class TestDeterminism:
    def test_cv_is_bitwise_reproducible(self, tmp_path, capsys):
        names, diffs = _cv_runs(tmp_path, {"cv_a": "2", "cv_b": "2"})
        ok = not diffs and len(names) == 21  # 5 folds x 4 files + summary
        _verdict(
            capsys, "7 determinism", ok,
            f"two cv runs, same seed: {len(names)} output files "
            f"(checkpoints, metrics, roc, scores, summary) all bitwise "
            f"identical" if not diffs else f"two cv runs differ in {diffs}",
        )
        assert ok

    def test_cv_matches_across_fold_workers(self, tmp_path, capsys):
        names, diffs = _cv_runs(tmp_path, {"cv_1": "1", "cv_2": "2"})
        ok = not diffs and len(names) == 21
        _verdict(
            capsys, "7 determinism", ok,
            f"cv at 1 and 2 fold workers: {len(names)} output files all "
            f"bitwise identical" if not diffs
            else f"cv at 1 and 2 fold workers differs in {diffs}",
        )
        assert ok

    def test_cv_fold_processes_match_across_blas_threads(self, tmp_path, capsys):
        # fold processes are forked after numpy has loaded BLAS and started
        # its threads; each run is a fresh process, as in _train_eval_digests
        spec = tmp_path / "synth.cfg"
        spec.write_text("image_size = 64\nn_pos = 6\nn_neg = 14\nseed = 3\n")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 2\nbatch = 4\nseed = 9\n")
        src = str(Path(milnet.__file__).resolve().parents[1])
        cpus = ",".join(map(str, sorted(os.sched_getaffinity(0))))
        logs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-c", _PINNED_CLI, cpus, "cv", "--config", str(cfg),
                 "--data", str(tmp_path / "d" / "manifest.csv"),
                 "--out", str(tmp_path / f"cv_{threads}"), "--workers", "2"],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            logs[threads] = [line for line in proc.stderr.splitlines() if "[fold " in line]
        names = sorted(os.listdir(tmp_path / "cv_1"))
        diffs = [name for name in names
                 if (tmp_path / "cv_1" / name).read_bytes()
                 != (tmp_path / "cv_2" / name).read_bytes()]
        ok = not diffs and names == sorted(os.listdir(tmp_path / "cv_2")) and len(names) == 21
        _verdict(
            capsys, "7 determinism", ok,
            f"cv in 2 fold processes at 1 and 2 BLAS threads: {len(names)} output "
            f"files all bitwise identical" if not diffs
            else f"cv fold processes at 1 and 2 BLAS threads differ in {diffs}",
        )
        assert ok
        # every fold's epoch lines reach stderr whole and once, whichever
        # process wrote them
        line = re.compile(r"\[fold (\d)\] epoch (\d)/2  train_loss \S+  val_auc \S+  val_acc \S+")
        want = sorted((str(f), str(e)) for f in range(5) for e in (1, 2))
        for threads, lines in logs.items():
            matches = [line.fullmatch(text) for text in lines]
            assert all(matches), (threads, lines)
            assert sorted(m.groups() for m in matches) == want, threads

    def test_checkpoints_match_across_blas_threads(self, tmp_path, capsys):
        all_cpus = sorted(os.sched_getaffinity(0))
        digests = _train_eval_digests(tmp_path, {"1": ("1", all_cpus), "2": ("2", all_cpus)})
        same = [name for name in _PRESET_RUNS if digests[name, "1"] == digests[name, "2"]]
        ok = len(same) == len(_PRESET_RUNS)
        _verdict(
            capsys, "7 determinism", ok,
            f"train checkpoints and eval scores (desk also over "
            f"{_SHARD_MIN_IMAGES} images, sharded) at 1 and 2 BLAS threads "
            f"bitwise identical for presets {same} of {list(_PRESET_RUNS)}",
        )
        assert ok

    def test_checkpoints_match_across_cpu_counts(self, tmp_path, capsys):
        # conv2d and maxpool2d share large batches with one pool thread per
        # CPU beyond the first, and score_images shares a large image set
        # with one forked process per CPU; pinned to one CPU, they run unsplit
        all_cpus = sorted(os.sched_getaffinity(0))
        if len(all_cpus) < 2:
            pytest.skip("needs at least 2 usable CPUs")
        digests = _train_eval_digests(
            tmp_path, {"one": ("1", all_cpus[:1]), "all": ("1", all_cpus)})
        same = [name for name in _PRESET_RUNS if digests[name, "one"] == digests[name, "all"]]
        ok = len(same) == len(_PRESET_RUNS)
        _verdict(
            capsys, "7 determinism", ok,
            f"train checkpoints and eval scores (desk also over "
            f"{_SHARD_MIN_IMAGES} images, sharded on more than 1 CPU) on 1 and "
            f"{len(all_cpus)} CPUs bitwise identical for presets {same} of "
            f"{list(_PRESET_RUNS)}",
        )
        assert ok


# the runs of _train_eval_digests: the paper preset at its own batch size,
# so its conv and pool layers are large enough to be split, and the desk one
_PRESET_RUNS = {
    "paper": "preset = paper\nhead = sparse\nepochs = 1\nbatch = 8\nseed = 6\n",
    "desk": "epochs = 2\nbatch = 4\nseed = 6\n",
}

# runs the command line on the CPUs listed in argv[1]
_PINNED_CLI = (
    "import os, sys\n"
    "os.sched_setaffinity(0, [int(cpu) for cpu in sys.argv[1].split(',')])\n"
    "from milnet.cli import main\n"
    "sys.exit(main(sys.argv[2:]))\n"
)


def _train_eval_digests(tmp_path, variants: dict[str, tuple[str, list[int]]]) -> dict:
    """Train and evaluate each of _PRESET_RUNS once per variant, a
    (BLAS threads, CPUs) pair; returns the SHA-256 of the checkpoint and of
    the eval scores per (preset, variant), and for the desk checkpoint also
    that of an eval over _SHARD_MIN_IMAGES images, which score_images
    shards over forked processes when it has more than one CPU.  Each run is
    a fresh process, because BLAS reads its thread count from the
    environment once, when numpy is loaded."""
    spec = tmp_path / "synth.cfg"
    spec.write_text("image_size = 224\nn_pos = 5\nn_neg = 5\nseed = 4\n")
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 0
    half = -(-_SHARD_MIN_IMAGES // 2)
    spec.write_text(f"image_size = 64\nn_pos = {half}\nn_neg = {half}\nseed = 5\n")
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "big")]) == 0
    big_manifest = str(tmp_path / "big" / "manifest.csv")
    assert len(load_manifest(big_manifest).records) >= _SHARD_MIN_IMAGES
    src = str(Path(milnet.__file__).resolve().parents[1])
    manifest = str(tmp_path / "d" / "manifest.csv")
    digests = {}
    for name, text in _PRESET_RUNS.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        for variant, (threads, cpus) in variants.items():
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))
            out = tmp_path / f"{name}_{variant}.miln"
            scored = tmp_path / f"{name}_{variant}_eval"
            scored_big = tmp_path / f"{name}_{variant}_eval_big"
            runs = [
                ["train", "--config", str(cfg), "--data", manifest, "--out", str(out)],
                # inference forwards batches of images through stacked
                # GEMMs, so its scores are checked too
                ["eval", "--ckpt", str(out), "--data", manifest, "--out", str(scored)],
            ]
            outputs = [out, scored / "scores.csv"]
            if name == "desk":
                runs.append(["eval", "--ckpt", str(out), "--data", big_manifest,
                             "--out", str(scored_big)])
                outputs.append(scored_big / "scores.csv")
            for argv in runs:
                proc = subprocess.run(
                    [sys.executable, "-c", _PINNED_CLI, ",".join(map(str, cpus)), *argv],
                    env=env, capture_output=True, text=True, timeout=600,
                )
                assert proc.returncode == 0, proc.stderr
            digests[name, variant] = tuple(
                hashlib.sha256(path.read_bytes()).hexdigest() for path in outputs)
    return digests


class TestOverfitSanity:
    def test_each_head_memorizes_four_images(self, capsys):
        # positives carry a bright band over 48 rows = 12 of the 16 grid
        # cells, and k matches that count, so the top-k pull and the
        # background push ask for consistent per-cell targets; with small k
        # the much heavier background weighting flattens the response map
        # before the pull can latch on (the same reason full training warms
        # label_assign up from max_pool weights)
        rng = np.random.default_rng(5)
        images = []
        for kind in ("top", "bottom", None, None):
            img = rng.integers(25, 35, size=(64, 64)).astype(np.uint8)
            if kind == "top":
                img[:48] = rng.integers(220, 240, size=(48, 64)).astype(np.uint8)
            elif kind == "bottom":
                img[-48:] = rng.integers(220, 240, size=(48, 64)).astype(np.uint8)
            images.append(img)
        labels = np.array([1, 1, 0, 0])

        base = TrainConfig(epochs=500, batch_size=4, seed=1, augment_enabled=False)
        inputs = prepare_inputs(images, base)
        results = {}
        for mil in (
            MilConfig(head="max_pool", lam=0.0),
            MilConfig(head="label_assign", k=12, lam=0.0),
            MilConfig(head="sparse", mu=1e-5, lam=0.0),
        ):
            cfg = dataclasses.replace(base, mil=mil)
            res = train(inputs, labels, inputs, labels, cfg)
            # batch 4 on 4 images: one optimizer step per epoch
            below = [m.epoch for m in res.metrics if m.train_loss < 0.01]
            results[mil.head] = below[0] if below else None

        ok = all(v is not None and v <= 500 for v in results.values())
        detail = ", ".join(
            f"{head} step {step}" if step is not None else f"{head} never"
            for head, step in results.items()
        )
        _verdict(
            capsys, "8 overfit sanity", ok,
            f"train loss < 0.01 on a 4-image separable set: {detail} "
            f"(500-step budget)",
        )
        assert ok
