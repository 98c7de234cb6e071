"""Central finite-difference verification of every analytic gradient.

Two suites: "heads" differentiates each loss head against a bare row of
instance logits; "backbone" differentiates the training objective itself
(conv stack, logistic layer, ranking, head and L2 term) against every
parameter tensor and the input image.
Comparisons use |analytic - numeric| <= atol + rtol * max(|analytic|,
|numeric|); the absolute floor keeps finite-difference noise on true-zero
gradients from registering as failures.

The network is piecewise smooth: relu corners, pooling argmax flips and
ranking swaps all put kinks within reach of a finite step.  Each coordinate
is therefore estimated twice, at the full step and a tenth of it.  When the
two estimates disagree the interval straddles a kink and there is no
derivative to compare against, so the coordinate is skipped and counted.
A wrong analytic gradient cannot hide there: its numeric estimates agree
with each other while disagreeing with the analytic value, which still
fails the check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, float64_gemms
from .config import TrainConfig
from .heads import MilConfig, bag_loss, bag_weights
from .model import backbone_preset, init_params, output_geometry, params_to_leaves
from .rng import derive_rng
from .training import batch_objective

__all__ = ["GradReport", "check_head_gradients", "check_full_gradients", "run_suite"]

FD_STEP = 1e-5
RTOL = 1e-5
ATOL = 1e-7


@dataclass
class GradReport:
    """Outcome of one finite-difference suite."""

    suite: str
    head: str
    n_draws: int
    n_coords: int = 0
    n_skipped: int = 0
    max_err: float = 0.0
    seconds: float = 0.0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "ok" if self.passed else f"FAIL ({len(self.failures)} coords)"
        return (
            f"{self.suite}/{self.head}: {status}  draws={self.n_draws} "
            f"coords={self.n_coords} kinks={self.n_skipped} "
            f"max_err={self.max_err:.3e} time={self.seconds:.1f}s"
        )


def _central_diff(f, arr: np.ndarray, idx, step: float = FD_STEP) -> float:
    orig = arr[idx]
    arr[idx] = orig + step
    hi = f()
    arr[idx] = orig - step
    lo = f()
    arr[idx] = orig
    return (hi - lo) / (2.0 * step)


def _compare(report: GradReport, where: str, analytic: float, numeric: float) -> None:
    err = abs(analytic - numeric)
    bound = ATOL + RTOL * max(abs(analytic), abs(numeric))
    scale = max(abs(analytic), abs(numeric), ATOL)
    report.n_coords += 1
    report.max_err = max(report.max_err, err / scale)
    if err > bound:
        report.failures.append(
            f"{where}: analytic {analytic:.12e} vs numeric {numeric:.12e} "
            f"(err {err:.3e} > bound {bound:.3e})"
        )


def _fd_compare(report: GradReport, where: str, f, arr, idx, analytic: float) -> None:
    full = _central_diff(f, arr, idx, step=FD_STEP)
    tenth = _central_diff(f, arr, idx, step=FD_STEP / 10.0)
    if abs(full - tenth) > ATOL + RTOL * max(abs(full), abs(tenth)):
        report.n_skipped += 1
        return
    _compare(report, where, analytic, full)


def _pick_coords(grad: np.ndarray, rng: np.random.Generator, extra: int = 3):
    """The largest-magnitude coordinate plus a few random ones."""
    flat = grad.reshape(-1)
    if flat.size == 0:
        return []
    picks = {int(np.argmax(np.abs(flat)))}
    picks.update(int(i) for i in rng.integers(0, flat.size, size=extra))
    return [np.unravel_index(i, grad.shape) for i in sorted(picks)]


def _draw_mil(rng: np.random.Generator, head: str, m: int) -> MilConfig:
    k = int(rng.integers(1, m + 1))
    mu = float(10.0 ** rng.uniform(-5.0, -1.0))
    return MilConfig(head=head, k=k, mu=mu, lam=1e-5)


def check_head_gradients(head: str, n_draws: int = 20, seed: int = 2024) -> GradReport:
    """Differentiate one head with respect to a raw logit row of 16
    instances, the desk preset's cell count."""
    m = 16
    report = GradReport(suite="heads", head=head, n_draws=n_draws)
    start = time.monotonic()
    for draw in range(n_draws):
        rng = derive_rng(seed, "gradcheck-head", head, draw)
        cfg = _draw_mil(rng, head, m)
        labels = np.array([draw % 2])
        n_pos = int(rng.integers(1, 20))
        weights = bag_weights(n_pos, 20, cfg.k, m, mode="balanced")
        logits = rng.uniform(-3.0, 3.0, size=(1, m))

        def loss_value() -> float:
            return float(bag_loss(cfg, Tensor(logits), labels, weights).data)

        z = Tensor(logits, requires_grad=True, name="logits")
        bag_loss(cfg, z, labels, weights).backward()
        for idx in _pick_coords(z.grad, rng):
            _fd_compare(
                report, f"draw {draw} logits[{idx}]",
                loss_value, logits, idx, float(z.grad[idx]),
            )
    report.seconds = time.monotonic() - start
    return report


@float64_gemms()
def check_full_gradients(head: str, n_draws: int = 20, seed: int = 2024) -> GradReport:
    """Differentiate the desk preset's training objective end to end against
    every parameter tensor and the input image.

    The conv GEMMs run on float64 operands here: central differences at
    FD_STEP need the objective to full float64 precision.
    """
    spec = backbone_preset("desk")
    _, gh, gw = output_geometry(spec)
    m = gh * gw
    report = GradReport(suite="backbone", head=head, n_draws=n_draws)
    start = time.monotonic()
    for draw in range(n_draws):
        rng = derive_rng(seed, "gradcheck-full", head, draw)
        cfg = TrainConfig(backbone=spec, mil=_draw_mil(rng, head, m))
        labels = np.array([draw % 2])
        n_pos = int(rng.integers(1, 20))
        weights = bag_weights(n_pos, 20, cfg.mil.k, m, mode="balanced")
        params = init_params(spec, int(rng.integers(0, 2**32)))
        for arr in params.arrays.values():
            arr += rng.normal(0.0, 0.02, size=arr.shape)
        x = rng.uniform(0.0, 1.0, size=(1, 1, spec.input_size, spec.input_size))

        def objective(want_grads: bool = False):
            leaves = params_to_leaves(params, requires_grad=want_grads)
            xt = Tensor(x, requires_grad=want_grads, name="input")
            return batch_objective(cfg, weights, leaves, xt, labels), leaves, xt

        loss, leaves, xt = objective(want_grads=True)
        loss.backward()

        def loss_value() -> float:
            return float(objective(want_grads=False)[0].data)

        for name, leaf in leaves.items():
            for idx in _pick_coords(leaf.grad, rng, extra=1):
                _fd_compare(
                    report, f"draw {draw} {name}[{idx}]",
                    loss_value, params.arrays[name], idx, float(leaf.grad[idx]),
                )
        for idx in _pick_coords(xt.grad, rng, extra=1):
            _fd_compare(
                report, f"draw {draw} input[{idx}]",
                loss_value, x, idx, float(xt.grad[idx]),
            )
    report.seconds = time.monotonic() - start
    return report


def run_suite(module: str = "all", n_draws: int = 20, seed: int = 2024) -> list[GradReport]:
    """The suites behind the gradcheck command; 'all' runs both."""
    if module not in ("all", "heads", "backbone"):
        raise ValueError(f"unknown gradcheck module {module!r}")
    reports = []
    heads = ("max_pool", "label_assign", "sparse")
    if module in ("all", "heads"):
        for head in heads:
            reports.append(check_head_gradients(head, n_draws=n_draws, seed=seed))
    if module in ("all", "backbone"):
        for head in heads:
            reports.append(check_full_gradients(head, n_draws=n_draws, seed=seed))
    return reports
