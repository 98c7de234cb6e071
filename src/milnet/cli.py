"""Command-line entry point: one subcommand per pipeline stage.

All real outputs are files (CSV, PGM, checkpoints); progress goes to stderr
one line per epoch.  Config files are flat ``key = value`` text; `milnet
train --help` lists every documented key.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .config import (
    config_help,
    parse_config_file,
    parse_synth_file,
    synth_help,
    TrainConfig,
)
from .cv import check_cv_options, cross_validate
from .data import SynthSpec, generate_synthetic, load_dataset, load_manifest
from .evaluation import (
    BAGGING_MODES,
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
from .gradcheck import SUITES, run_suite
from .pgm import load_gray_image
from .training import (
    check_select_k,
    load_checkpoint,
    metrics_csv,
    prepare_inputs,
    save_checkpoint,
    score_images,
    select_k,
    train,
)

__all__ = ["main"]


def _log(msg: str) -> None:
    # one write per line: stderr flushes at each newline, so lines from
    # concurrent fold processes never interleave mid-line
    sys.stderr.write(msg + "\n")


def _load_config(path: str | None) -> tuple[TrainConfig, dict[str, str]]:
    if path is None:
        return TrainConfig(), {}
    return parse_config_file(path)


def _check_out(path: str, directory: bool = True) -> None:
    """Raise ValueError naming ``path`` when the command could not write its
    output there: a directory output over an existing non-directory, a file
    output over an existing directory, or a nearest existing ancestor that
    is not a directory.  Every command calls this first, so a bad --out
    fails before any data is loaded or compute spent, and creates nothing."""
    if directory and os.path.exists(path) and not os.path.isdir(path):
        raise ValueError(f"--out {path}: exists and is not a directory")
    if not directory and os.path.isdir(path):
        raise ValueError(f"--out {path}: is a directory")
    ancestor = os.path.dirname(os.path.abspath(path))
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        raise ValueError(f"--out {path}: {ancestor} is not a directory")


def _metrics_path(ckpt_path: str) -> str:
    return os.path.splitext(ckpt_path)[0] + "_metrics.csv"


def _finetune(cfg: TrainConfig, raw: dict[str, str]) -> TrainConfig:
    """cfg at its finetune_lr, unless the config file set lr."""
    if "lr" in raw:
        return cfg
    return dataclasses.replace(cfg, learning_rate=cfg.finetune_learning_rate)


def _cmd_synth(args) -> int:
    _check_out(args.out)
    spec = parse_synth_file(args.spec) if args.spec else SynthSpec()
    manifest_path = generate_synthetic(spec, args.out)
    _log(
        f"wrote {spec.n_pos + spec.n_neg} images "
        f"({spec.n_pos} positive) and {manifest_path}"
    )
    return 0


def _cmd_train(args) -> int:
    for path in (args.out, _metrics_path(args.out)):
        _check_out(path, directory=False)
    if args.select_k and args.resume:
        raise ValueError(
            "--select-k trains a fresh model per k and cannot --resume a checkpoint"
        )
    cfg, raw = _load_config(args.config)
    if args.select_k:
        check_select_k(cfg)
    resume_state = None
    if args.resume:
        resume_state, ckpt_cfg = load_checkpoint(args.resume)
        if ckpt_cfg.backbone.describe() != cfg.backbone.describe():
            raise ValueError(
                "checkpoint backbone does not match the configured backbone"
            )
        cfg = _finetune(cfg, raw)
        _log(f"resuming from {args.resume} at step {resume_state.step}")
    dataset = load_dataset(load_manifest(args.data))
    inputs = prepare_inputs(dataset.images, cfg)
    if args.val_data:
        val_set = load_dataset(load_manifest(args.val_data))
        tr_inputs, tr_labels = inputs, dataset.labels
        va_inputs, va_labels = prepare_inputs(val_set.images, cfg), val_set.labels
    else:
        # hold out one stratified fifth for best-epoch selection
        plan = make_folds(dataset.labels, seed=cfg.seed)
        val_idx = np.flatnonzero(plan.assignments == 0)
        tr_idx = np.flatnonzero(plan.assignments != 0)
        tr_inputs = [inputs[i] for i in tr_idx]
        tr_labels = dataset.labels[tr_idx]
        va_inputs = [inputs[i] for i in val_idx]
        va_labels = dataset.labels[val_idx]
        _log(f"holding out {len(va_inputs)} of {len(dataset)} images for validation")
    if args.select_k:
        chosen_k, result = select_k(
            tr_inputs, tr_labels, va_inputs, va_labels, cfg, log=_log
        )
        _log(f"selected k = {chosen_k}")
    else:
        result = train(
            tr_inputs, tr_labels, va_inputs, va_labels, cfg,
            log=_log, init_state_override=resume_state,
        )
    parent = os.path.dirname(args.out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    save_checkpoint(args.out, result.state, result.config)
    metrics_path = _metrics_path(args.out)
    with open(metrics_path, "w", encoding="utf-8") as f:
        f.write(metrics_csv(result.metrics))
    _log(
        f"best epoch {result.best_epoch} (val auc {result.best_val_auc:.4f}); "
        f"wrote {args.out} and {metrics_path}"
    )
    return 0


def _cmd_cv(args) -> int:
    _check_out(args.out)
    cfg, raw = _load_config(args.config)
    pretrain_cfg = None
    if args.pretrain_epochs:
        pretrain_cfg = dataclasses.replace(
            cfg,
            epochs=args.pretrain_epochs,
            mil=dataclasses.replace(cfg.mil, head="max_pool"),
        )
        cfg = _finetune(cfg, raw)
    check_cv_options(cfg, args.workers, args.select_k, pretrain_cfg)
    dataset = load_dataset(load_manifest(args.data))
    names = [os.path.basename(p) for p in dataset.paths]
    if pretrain_cfg is not None:
        _log(
            f"pretraining max_pool for {args.pretrain_epochs} epochs per fold, "
            f"then {cfg.mil.head} at lr {cfg.learning_rate:g}"
        )
    cross_validate(
        dataset.images,
        dataset.labels,
        cfg,
        args.out,
        workers=args.workers,
        use_select_k=args.select_k,
        pretrain=pretrain_cfg,
        names=names,
        log=_log,
    )
    return 0


def _eval_outputs(out_dir, names, labels, scores) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "scores.csv"), "w", encoding="utf-8") as f:
        f.write(scores_csv(names, labels, scores))
    lines = ["metric,value"]
    lines.append(f"n,{labels.size}")
    lines.append(f"n_pos,{int(labels.sum())}")
    lines.append(f"n_neg,{int(labels.size - labels.sum())}")
    lines.append(f"accuracy,{accuracy(scores, labels):.10f}")
    both_classes = 0 < labels.sum() < labels.size
    if both_classes:
        lines.append(f"auc,{auc(scores, labels):.10f}")
        with open(os.path.join(out_dir, "roc.csv"), "w", encoding="utf-8") as f:
            f.write(roc_csv(roc_curve(scores, labels)))
    with open(os.path.join(out_dir, "summary.csv"), "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _score_manifest(ckpt_paths, data, mode, out_dir) -> int:
    """Score a manifest with the checkpoints' models combined by mode and
    write the outputs; returns the number of images scored."""
    # the Adam moments are dropped: scoring reads only parameters and config
    models = [(state.params, cfg) for state, cfg in map(load_checkpoint, ckpt_paths)]
    dataset = load_dataset(load_manifest(data))
    combined = bagging(score_images(models, dataset.images), mode=mode)
    names = [os.path.basename(p) for p in dataset.paths]
    _eval_outputs(out_dir, names, dataset.labels, combined)
    return len(dataset)


def _cmd_eval(args) -> int:
    _check_out(args.out)
    n_images = _score_manifest([args.ckpt], args.data, "average", args.out)
    _log(f"evaluated {n_images} images; wrote {args.out}/scores.csv")
    return 0


def _cmd_bag(args) -> int:
    _check_out(args.out)
    _score_manifest(args.ckpts, args.data, args.mode, args.out)
    _log(f"bagged {len(args.ckpts)} models ({args.mode}); wrote {args.out}/scores.csv")
    return 0


def _cmd_viz(args) -> int:
    _check_out(args.out)
    state, cfg = load_checkpoint(args.ckpt)
    image = load_gray_image(args.image)
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.image))[0]
    prefix = os.path.join(args.out, stem + "_response")
    export_response_map(state.params, image, prefix, preprocess=cfg.preprocess)
    _log(f"wrote {prefix}.csv, {prefix}.pgm, {prefix}_up.pgm")
    return 0


def _cmd_stats(args) -> int:
    _check_out(args.out)
    manifest = load_manifest(args.data)
    write_dataset_stats(dataset_stats(manifest), args.out)
    _log(f"wrote histograms and summary under {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    reports = run_suite(module=args.module, n_draws=args.draws, seed=args.seed)
    failed = False
    for report in reports:
        print(report.line())
        for failure in report.failures:
            print("  " + failure)
        failed = failed or not report.passed
    return 1 if failed else 0


def _int_at_least(low: int):
    """argparse type: an int no smaller than low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid" message
    return parse


def build_parser() -> argparse.ArgumentParser:
    config_keys = config_help()
    parser = argparse.ArgumentParser(
        prog="milnet",
        description="whole-image classification by deep multi-instance learning",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=config_keys,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "synth", help="generate the synthetic planted-mass dataset",
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=synth_help(),
    )
    p.add_argument("--spec", help="synth spec file (defaults when omitted)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser(
        "train", help="train one model",
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=config_keys,
    )
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--data", required=True, help="training manifest CSV")
    p.add_argument("--val-data", help="validation manifest (default: held-out fifth)")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument(
        "--select-k", action="store_true",
        help="train one model per k in k_grid, keep the best (label_assign)",
    )
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "cv", help="stratified 5-fold cross-validation",
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=config_keys,
    )
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--data", required=True, help="manifest CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--workers", type=_int_at_least(1), default=1, help="parallel fold processes",
    )
    p.add_argument(
        "--select-k", action="store_true", help="per-fold k selection (label_assign)",
    )
    p.add_argument(
        "--pretrain-epochs", type=_int_at_least(0), default=0, metavar="N",
        help="warm up each fold with N max_pool epochs, then fine-tune the "
             "configured head (lr drops to finetune_lr unless lr is set)",
    )
    p.set_defaults(func=_cmd_cv)

    p = sub.add_parser("eval", help="score a manifest with a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("bag", help="combine several checkpoints' predictions")
    p.add_argument("--ckpts", nargs="+", required=True)
    p.add_argument("--mode", choices=BAGGING_MODES, default="average")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_bag)

    p = sub.add_parser("viz", help="export a response map for one image")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_viz)

    p = sub.add_parser("stats", help="dataset size histograms and summary")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    p.add_argument("--module", choices=("all", *SUITES), default="all")
    p.add_argument("--draws", type=_int_at_least(1), default=20)
    p.add_argument("--seed", type=int, default=2024)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
