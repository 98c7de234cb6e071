"""Workloads, output checks and measurement for the milnet benchmark.

Every workload is a closed loop with one client: the benchmark calls
``milnet.cli.main`` with one command line, waits for it, checks the files
it wrote, and calls it again until the measuring time is used up.  Inputs
are synthetic datasets written by ``milnet synth`` from spec files derived
from the workload seed.  The first repetition is a warm-up that fills the
program's caches and gives the reference digest; every later repetition
must write byte-identical outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from milnet import cli
from milnet.data import load_manifest
from milnet.evaluation import make_folds
from milnet.training import load_checkpoint, save_checkpoint

import tracing

N_FOLDS = 5  # cross_validate's default, and the held-out fifth of `train`
FOLD_WORKERS = 2  # fold threads x BLAS threads stays within 2 cores
# Set-up is repeated SETUP_MIN to SETUP_MAX times, as many as fit in about
# SETUP_BUDGET_S, so that a fast set-up still gets a steady median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 10, 2.0
# Typical CPU time of reference_kernel_s on the reference host; setup_s is
# reported at this speed.
REF_CPU_NOMINAL_S = 0.065


@dataclass(frozen=True)
class Sizes:
    """Input sizes as (positives, negatives) plus epochs."""

    cv: tuple[int, int]
    cv_epochs: int
    paper: tuple[int, int]
    paper_epochs: int
    eval_train: tuple[int, int]
    eval_train_epochs: int
    eval: tuple[int, int]


SIZES = {
    "full": Sizes(cv=(40, 160), cv_epochs=2, paper=(5, 5), paper_epochs=1,
                  eval_train=(12, 48), eval_train_epochs=3, eval=(400, 1600)),
    "tiny": Sizes(cv=(5, 10), cv_epochs=1, paper=(5, 5), paper_epochs=1,
                  eval_train=(5, 10), eval_train_epochs=1, eval=(10, 20)),
}


def _write_flat(path: Path, items: dict) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in items.items()), encoding="utf-8")
    return path


def _cli(argv: list[str]) -> None:
    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"milnet {' '.join(argv)} exited with {rc}")


def _synth(root: Path, name: str, image_size: int, counts: tuple[int, int],
           seed: int) -> Path:
    spec = _write_flat(root / f"{name}_spec.txt", {
        "image_size": image_size, "n_pos": counts[0], "n_neg": counts[1], "seed": seed,
    })
    _cli(["synth", "--spec", str(spec), "--out", str(root / name)])
    return root / name / "manifest.csv"


def _dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode("utf-8") + b"\0")
        h.update(hashlib.sha256((path / name).read_bytes()).digest())
    return h.hexdigest()


def _read_csv(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def _in_unit_interval(x: float) -> bool:
    return math.isfinite(x) and 0.0 <= x <= 1.0


@dataclass
class Inputs:
    """What set-up leaves for the measured command."""

    argv: list[str]  # without --out
    images: int  # image passes per repetition, for img_per_ref
    manifest: Path
    workers: int = 1
    record: dict = field(default_factory=dict)  # set-up facts for the record line


class DeskCv:
    """`milnet cv` on the default-sized 64 px set, sparse head, 5 folds."""

    def setup(self, root: Path, seed: int, sizes: Sizes) -> Inputs:
        manifest = _synth(root, "data", 64, sizes.cv, seed)
        labels = load_manifest(str(manifest)).labels
        config = _write_flat(root / "cv.cfg", {
            "head": "sparse", "epochs": sizes.cv_epochs, "batch": 8, "seed": seed,
        })
        plan = make_folds(labels, n_folds=N_FOLDS, seed=seed)
        passes = sizes.cv_epochs * sum(len(plan.split(f)[0]) for f in range(N_FOLDS))
        workers = min(FOLD_WORKERS, len(os.sched_getaffinity(0)))
        return Inputs(
            argv=["cv", "--config", str(config), "--data", str(manifest),
                  "--workers", str(workers)],
            images=passes, manifest=manifest, workers=workers,
        )

    def check(self, inputs: Inputs, out: Path) -> tuple[dict, list[str]]:
        expected = {"summary.csv"} | {
            f"fold{f}_{kind}" for f in range(N_FOLDS)
            for kind in ("metrics.csv", "ckpt.miln", "roc.csv", "scores.csv")
        }
        found = set(os.listdir(out))
        if found != expected:
            return {}, [f"cv outputs differ from the {len(expected)} expected files: "
                        f"missing {sorted(expected - found)}, extra {sorted(found - expected)}"]
        mean_row = _read_csv(out / "summary.csv")[-1]
        cv_auc = float(mean_row[2].split("±")[0])
        problems = [] if _in_unit_interval(cv_auc) else [f"cv mean auc {cv_auc}"]
        return {"cv_auc_mean": cv_auc}, problems


class PaperTrain:
    """`milnet train` with the paper preset (224 px, batch 8)."""

    def setup(self, root: Path, seed: int, sizes: Sizes) -> Inputs:
        manifest = _synth(root, "data", 224, sizes.paper, seed)
        labels = load_manifest(str(manifest)).labels
        config = _write_flat(root / "paper.cfg", {
            "preset": "paper", "head": "sparse", "epochs": sizes.paper_epochs,
            "batch": 8, "seed": seed,
        })
        held_out = make_folds(labels, n_folds=N_FOLDS, seed=seed).assignments == 0
        passes = sizes.paper_epochs * int((~held_out).sum())
        return Inputs(
            argv=["train", "--config", str(config), "--data", str(manifest)],
            images=passes, manifest=manifest,
        )

    def check(self, inputs: Inputs, out: Path) -> tuple[dict, list[str]]:
        ckpt = out / "model.miln"
        rows = _read_csv(out / "model_metrics.csv")
        losses = [float(row[1]) for row in rows]
        problems = [] if losses and all(map(math.isfinite, losses)) else [
            f"train_loss not finite: {losses}"]
        state, cfg = load_checkpoint(str(ckpt))
        copy = out / "roundtrip.miln"
        save_checkpoint(str(copy), state, cfg)
        if copy.read_bytes() != ckpt.read_bytes():
            problems.append("checkpoint does not round-trip through load_checkpoint")
        info = {
            "train_loss": losses[-1] if losses else None,
            "val_auc": float(rows[-1][2]) if rows else None,
            "checkpoint_sha256": hashlib.sha256(ckpt.read_bytes()).hexdigest(),
        }
        return info, problems


class DeskEval:
    """`milnet eval` of a desk checkpoint over a large 64 px manifest."""

    def setup(self, root: Path, seed: int, sizes: Sizes) -> Inputs:
        train_manifest = _synth(root, "train", 64, sizes.eval_train, seed + 1)
        config = _write_flat(root / "desk.cfg", {
            "head": "sparse", "epochs": sizes.eval_train_epochs, "batch": 8, "seed": seed,
        })
        ckpt = root / "desk.miln"
        _cli(["train", "--config", str(config), "--data", str(train_manifest),
              "--out", str(ckpt)])
        manifest = _synth(root, "eval", 64, sizes.eval, seed)
        n_images = len(load_manifest(str(manifest)))
        return Inputs(
            argv=["eval", "--ckpt", str(ckpt), "--data", str(manifest)],
            images=n_images, manifest=manifest,
            record={"checkpoint_sha256": hashlib.sha256(ckpt.read_bytes()).hexdigest()},
        )

    def check(self, inputs: Inputs, out: Path) -> tuple[dict, list[str]]:
        rows = _read_csv(out / "scores.csv")
        expected = sorted(
            os.path.basename(r.path) for r in load_manifest(str(inputs.manifest)).records
        )
        problems = []
        if sorted(row[0] for row in rows) != expected:
            problems.append(f"scores.csv has {len(rows)} rows for {len(expected)} images")
        bad = [row for row in rows if not _in_unit_interval(float(row[2]))]
        if bad:
            problems.append(f"{len(bad)} scores outside [0, 1], first {bad[0]}")
        summary = dict(_read_csv(out / "summary.csv"))
        return {"auc": float(summary["auc"])}, problems


WORKLOADS = {"desk_cv": DeskCv(), "paper_train": PaperTrain(), "desk_eval": DeskEval()}


def reference_kernel_s() -> tuple[float, float]:
    """Time a fixed kernel shaped like the workloads' two kinds of cost.

    On a shared host the machine's speed drifts by tens of percent over tens
    of seconds.  Timing this kernel next to every repetition and dividing
    the repetition's wall time by it cancels most of that drift, which is
    what makes the ``*_ref`` metrics steady across runs.  The first half is
    a conv2d forward in miniature (im2col gather, small GEMM, ReLU, a Python
    pass over the result); the second is pure interpreter work, like the
    per-node overhead of the autodiff graph.  Returns the wall time and the
    calling thread's CPU time, which leaves out time the host gave to other
    tenants.
    """
    rng = np.random.default_rng(0)
    image = rng.random((8, 4, 34 * 34))
    taps = rng.integers(0, 34 * 34, size=(256, 9))
    weights = rng.random((16, 36))
    start, start_cpu = time.perf_counter(), time.thread_time()
    for _ in range(60):
        cols = image[:, :, taps].transpose(0, 2, 1, 3).reshape(8, 256, 36)
        out = np.maximum(cols @ weights.T, 0.0)
        total = 0.0
        for v in out.transpose(0, 2, 1).reshape(8 * 16, 256)[:, :40].ravel().tolist():
            total += v
    table = {}
    count = 0
    for i in range(150000):
        table[i & 1023] = i
        count += table[i & 511]
    return time.perf_counter() - start, time.thread_time() - start_cpu


@dataclass
class Rep:
    traced: bool
    wall: float
    ref: float  # reference kernel time around the repetition
    ref_cpu: float  # the same kernel's CPU time
    digest: str | None = None
    info: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    layers: dict = field(default_factory=dict)


def _run_rep(workload, inputs: Inputs, out: Path, traced: bool) -> Rep:
    """One command, timed, then checked.  Its outputs are deleted before the
    next repetition, while they are likely still unwritten page cache, so
    that no file-system clean-up lands in a timed region."""
    # `train` takes a checkpoint path, `cv` and `eval` a directory
    target = out / "model.miln" if inputs.argv[0] == "train" else out
    argv = inputs.argv + ["--out", str(target)]
    tracer = tracing.Tracer() if traced else None
    rc = None
    ref_before, ref_cpu_before = reference_kernel_s()
    start = time.perf_counter()
    try:
        with tracing.installed(tracer) if traced else contextlib.nullcontext():
            start = time.perf_counter()
            if traced:
                rc = tracer.call(tracing.ROOT_SPAN, cli.main, (argv,), {})
            else:
                rc = cli.main(argv)
            wall = time.perf_counter() - start
    except Exception:  # a crashing repetition is a failed operation, not a lost run
        wall = time.perf_counter() - start
        traceback.print_exc()
    ref_after, ref_cpu_after = reference_kernel_s()
    rep = Rep(traced=traced, wall=wall, ref=(ref_before + ref_after) / 2,
              ref_cpu=(ref_cpu_before + ref_cpu_after) / 2)
    if traced:
        rep.layers = tracing.layer_metrics(tracer.spans, inputs.workers)
        self_sum = sum(rep.layers[m] for m in tracing.SELF_METRICS)
        if self_sum > wall * (1 + 1e-9):
            rep.problems.append(f"self times sum to {self_sum:.6f} s > traced wall {wall:.6f} s")
    try:
        if rc != 0:
            rep.problems.append(f"milnet exited with {rc}")
        else:
            rep.digest = _dir_digest(out)
            rep.info, problems = workload.check(inputs, out)
            rep.problems += problems
    except (OSError, ValueError, IndexError, KeyError) as exc:
        rep.problems.append(f"output check failed: {exc!r}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return rep


def environment(workers: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except TypeError:  # numpy < 1.26 has no mode argument
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "fold_workers": workers,
        "machine": platform.machine(),
    }


def run(name: str, seed: int, seconds: float, trace: bool, size: str,
        work_root: Path, spec: dict) -> int:
    """Set up, measure and print the result; ``spec`` is BENCHMARK.json."""
    workload = WORKLOADS[name]
    sizes = SIZES[size]
    work = work_root / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times: list[float] = []  # wall seconds
        setup_usage: list[tuple[float, float]] = []  # user and system CPU seconds

        def set_up(root: Path) -> Inputs:
            root.mkdir(parents=True)
            before = resource.getrusage(resource.RUSAGE_THREAD)
            start = time.perf_counter()
            inputs = workload.setup(root, seed, sizes)
            setup_times.append(time.perf_counter() - start)
            after = resource.getrusage(resource.RUSAGE_THREAD)
            setup_usage.append((after.ru_utime - before.ru_utime,
                                after.ru_stime - before.ru_stime))
            return inputs

        def set_up_again() -> None:
            set_up(work / "spare")
            shutil.rmtree(work / "spare")

        inputs = set_up(work / "setup")
        planned = min(SETUP_MAX, max(SETUP_MIN, int(SETUP_BUDGET_S / setup_times[0])))
        out = work / "out"

        reps = [_run_rep(workload, inputs, out, False)]  # warm-up
        # The remaining set-ups are spread over the measuring time, so that
        # their median samples the same drift in machine speed as the
        # repetitions; the time they take does not count against it.  The
        # loop stops before a repetition that would overrun the measuring
        # time, once there is one of each kind to report.
        window_start = time.perf_counter()
        while True:
            traced = trace and len(reps) % 2 == 0
            reps.append(_run_rep(workload, inputs, out, traced))
            spent = time.perf_counter() - window_start - sum(setup_times[1:])
            progress = spent / seconds if seconds > 0 else 1.0
            while len(setup_times) < min(planned, 1 + int((planned - 1) * progress)):
                set_up_again()
            enough = len(reps) >= (3 if trace else 2)
            if enough and spent + statistics.median(r.wall for r in reps) > seconds:
                break
        while len(setup_times) < planned:
            set_up_again()

        reference = reps[0].digest
        for rep in reps[1:]:
            if rep.digest is not None and rep.digest != reference:
                rep.problems.append(f"output digest {rep.digest} != reference {reference}")
        failed = sum(1 for rep in reps if rep.problems)

        measured = [r for r in reps[1:] if not r.traced]
        if trace:
            traced_reps = [r for r in reps if r.traced]
            values = {key: statistics.fmean(r.layers[key] for r in traced_reps)
                      for key in traced_reps[0].layers}
            values["trace.wall_s"] = statistics.median(r.wall for r in traced_reps)
            values["trace.untraced_wall_s"] = statistics.median(r.wall for r in measured)
            values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        else:
            values = {
                # see "Why setup_s is CPU time" in README.md
                "setup_s": statistics.median(user for user, _ in setup_usage)
                * REF_CPU_NOMINAL_S / statistics.median(r.ref_cpu for r in reps),
                "wall_ref": statistics.median(r.wall / r.ref for r in measured),
                "img_per_ref": statistics.median(inputs.images * r.ref / r.wall
                                                 for r in measured),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        declared = spec["per_layer" if trace else "end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in declared}
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "size": size, "environment": environment(inputs.workers),
            "images_per_rep": inputs.images,
            "setup_wall_s": setup_times,
            "setup_user_s": [user for user, _ in setup_usage],
            "setup_system_s": [system for _, system in setup_usage],
            "reference_digest": reference,
            "reference_info": inputs.record | reps[0].info,
            "rep_wall_s": [r.wall for r in reps],
            "rep_ref_s": [r.ref for r in reps],
            "rep_ref_cpu_s": [r.ref_cpu for r in reps],
            "rep_traced": [r.traced for r in reps],
            "rep_digest": [r.digest for r in reps],
            "rep_problems": {i: r.problems for i, r in enumerate(reps) if r.problems},
        }
        print(json.dumps(record))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(reps),
            "failed": failed,
            "metrics": metrics,
        }))
        sys.stdout.flush()
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()  # only when no other run is using it
