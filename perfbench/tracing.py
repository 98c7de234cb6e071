"""Span tracer for the benchmark's traced runs.

While a :class:`Tracer` is installed, every public function of the layer
modules (``milnet.data``, ``preprocessing``, ``autodiff``, ``model``,
``heads``, ``training``, ``evaluation``) is replaced by a wrapper at every
``milnet`` module attribute that names it, which is where callers look it
up.  Each call records a span: name, start, end and the span that caused it.
Autodiff ops additionally wrap the backward closure they attach to their
output node, so forward and backward time are recorded separately, and
``Tensor.backward`` gets a span of its own.  Fold workers started by
``cross_validate``'s thread pool inherit the submitting span as their
parent.  Nothing is written while tracing; spans stay in memory until
:func:`layer_metrics` reduces them.

Self time of a span is its duration minus the part of it that its child
spans cover.  Fold threads run concurrently, so where several spans are
self-active at the same instant, that instant is split evenly between them.
The self times of one run therefore add up to at most its wall time, and
each one is the share of wall time a layer holds.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

LAYER_MODULES = (
    "data", "preprocessing", "autodiff", "model", "heads", "training", "evaluation",
)
ROOT_SPAN = "cli.main"
CONV_LAYERS = 5  # the paper preset has five conv layers, the desk preset three

# Spans that own a metric.  A span not listed here takes the metric of its
# parent when the parent is in the same module (so resize_bilinear under
# to_network_input counts as to_network_input), and otherwise
# "<module>.other_s".  Autodiff ops not listed go to autodiff.other_ops.
_SPAN_METRIC = {
    ROOT_SPAN: "cli.self_s",
    "autodiff.conv2d": "autodiff.conv2d.fwd_s",
    "autodiff.conv2d.bwd": "autodiff.conv2d.bwd_s",
    "autodiff.maxpool2d": "autodiff.maxpool2d.fwd_s",
    "autodiff.maxpool2d.bwd": "autodiff.maxpool2d.bwd_s",
    "autodiff.backward": "autodiff.backward.self_s",
    "model.forward_backbone": "model.forward_backbone_s",
    "model.instance_responses": "model.response_s",
    "model.rank_responses": "model.response_s",
    "heads.bag_loss": "heads.bag_loss_s",
    "heads.loss_max_pool": "heads.bag_loss_s",
    "heads.loss_label_assign": "heads.bag_loss_s",
    "heads.loss_sparse": "heads.bag_loss_s",
    "preprocessing.augment": "preprocessing.augment_s",
    "preprocessing.to_network_input": "preprocessing.to_network_input_s",
    "data.load_manifest": "data.load_manifest_s",
    "data.load_dataset": "data.load_dataset_s",
    "training.adam_step": "training.adam_step_s",
    "training.bag_scores": "training.bag_scores_s",
    "training.save_checkpoint": "training.save_checkpoint_s",
    "training.load_checkpoint": "training.load_checkpoint_s",
}

# Self-time metrics that partition a run's traced wall time.
SELF_METRICS = tuple(sorted(
    set(_SPAN_METRIC.values())
    | {"autodiff.other_ops.fwd_s", "autodiff.other_ops.bwd_s"}
    | {f"{m}.other_s" for m in LAYER_MODULES if m != "autodiff"}
))
CONV_LAYER_METRICS = tuple(
    f"autodiff.conv2d.c{i}.{phase}_s" for i in range(CONV_LAYERS) for phase in ("fwd", "bwd")
)
COUNT_METRICS = (
    "autodiff.ops_per_step",
    "model.forward_backbone_calls",
    "heads.bag_loss_calls",
    "training.adam_step_calls",
)
FOLD_METRICS = (
    "evaluation.fold_busy_s",
    "evaluation.fold_max_s",
    "evaluation.fold_overlap",
    "evaluation.fold_cpu_s",
    "evaluation.fold_parallelism",
)
FOLD_SPAN = "training.train"


class Span:
    __slots__ = ("name", "parent", "tag", "start", "end", "graph_node", "cpu")

    def __init__(self, name: str, parent: "Span | None", tag: str | None):
        self.name = name
        self.parent = parent
        self.tag = tag
        self.start = 0.0
        self.end = 0.0
        self.graph_node = False
        self.cpu = 0.0  # thread CPU seconds, measured for FOLD_SPAN only


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, tag: str | None = None) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, tag)
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def call(self, name: str, fn, args, kwargs, tag: str | None = None):
        span = self.open(name, tag)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def run_under(self, parent: Span | None, fn, *args, **kwargs):
        """Run fn in this thread as if called from inside ``parent``."""
        stack = self._stack()
        if parent is not None:
            stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            if parent is not None:
                stack.pop()


def _wrap_function(tracer: Tracer, name: str, fn):
    if name == FOLD_SPAN:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cpu = time.thread_time()
            span = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)
                span.cpu = time.thread_time() - cpu
    else:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

    return traced


def _wrap_op(tracer: Tracer, op: str, fn):
    """Autodiff op: one span for the forward call and one per backward call."""
    fwd_name = f"autodiff.{op}"
    bwd_name = f"autodiff.{op}.bwd"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tag = None
        if op == "conv2d":
            kernel = args[1] if len(args) > 1 else kwargs["kernel"]
            if kernel.name:
                tag = "c" + kernel.name.split(".")[0].removeprefix("conv")
        span = tracer.open(fwd_name, tag)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        node = out[0] if isinstance(out, tuple) else out
        backward_fn = node._backward_fn
        if backward_fn is not None:
            span.graph_node = True
            node._backward_fn = lambda grad: tracer.call(
                bwd_name, backward_fn, (grad,), {}, tag
            )
        return out

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Route every layer-module public function through ``tracer``."""
    wrappers = {}
    for short in LAYER_MODULES:
        module = importlib.import_module(f"milnet.{short}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            if short == "autodiff":
                wrappers[fn] = _wrap_op(tracer, attr, fn)
            else:
                wrappers[fn] = _wrap_function(tracer, f"{short}.{attr}", fn)

    from milnet import autodiff, evaluation

    class TracedPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.run_under, tracer.current(), fn, *args, **kwargs)

    tensor_backward = autodiff.Tensor.backward

    def traced_backward(self):
        return tracer.call("autodiff.backward", tensor_backward, (self,), {})

    # (owner, attribute, original, replacement)
    patches = [
        (autodiff.Tensor, "backward", tensor_backward, traced_backward),
        (evaluation, "ThreadPoolExecutor", evaluation.ThreadPoolExecutor, TracedPool),
    ]
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "milnet" or name.startswith("milnet.")):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                patches.append((module, attr, value, wrappers[value]))
    try:
        for owner, attr, _, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original, _ in reversed(patches):
            setattr(owner, attr, original)


def _metric_of(span: Span) -> str:
    metric = _SPAN_METRIC.get(span.name)
    if metric is not None:
        return metric
    module = span.name.split(".")[0]
    if module == "autodiff":
        phase = "bwd" if span.name.endswith(".bwd") else "fwd"
        return f"autodiff.other_ops.{phase}_s"
    parent = span.parent
    if parent is not None and parent.name.split(".")[0] == module:
        return _metric_of(parent)
    return f"{module}.other_s"


def _self_shares(spans: list[Span]) -> list[float]:
    """Wall-clock self time of each span, concurrent instants split evenly."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    segments: list[tuple[float, float, int]] = []
    for i, span in enumerate(spans):
        t = span.start
        for child in sorted(children[id(span)], key=lambda c: c.start):
            if child.start > t:
                segments.append((t, child.start, i))
            t = max(t, child.end)
        if span.end > t:
            segments.append((t, span.end, i))
    events = []
    for k, (start, end, _) in enumerate(segments):
        events.append((start, 1, k))
        events.append((end, 0, k))
    events.sort()
    shares = [0.0] * len(spans)
    active: set[int] = set()
    last = 0.0
    for t, is_start, k in events:
        if active and t > last:
            dt = (t - last) / len(active)
            for j in active:
                shares[segments[j][2]] += dt
        last = t
        if is_start:
            active.add(k)
        else:
            active.discard(k)
    return shares


def layer_metrics(spans: list[Span], fold_workers: int) -> dict[str, float]:
    """Per-layer self times, counts and fold overlap of one traced run."""
    out = dict.fromkeys(SELF_METRICS + CONV_LAYER_METRICS + COUNT_METRICS + FOLD_METRICS, 0.0)
    graph_nodes = 0
    for span, share in zip(spans, _self_shares(spans)):
        out[_metric_of(span)] += share
        if span.tag is not None:
            phase = "bwd" if span.name.endswith(".bwd") else "fwd"
            layer_metric = f"autodiff.conv2d.{span.tag}.{phase}_s"
            if layer_metric in out:  # backbones deeper than the paper preset
                out[layer_metric] += share
        graph_nodes += span.graph_node
    counts = defaultdict(int)
    for span in spans:
        counts[span.name] += 1
    out["model.forward_backbone_calls"] = counts["model.forward_backbone"]
    out["heads.bag_loss_calls"] = counts["heads.bag_loss"]
    steps = counts["training.adam_step"]
    out["training.adam_step_calls"] = steps
    out["autodiff.ops_per_step"] = graph_nodes / steps if steps else 0.0

    cv_spans = {id(s): s for s in spans if s.name == "evaluation.cross_validate"}
    fold_spans = [s for s in spans if s.name == FOLD_SPAN
                  and s.parent is not None and id(s.parent) in cv_spans]
    if fold_spans:
        busy = sum(s.end - s.start for s in fold_spans)
        cpu = sum(s.cpu for s in fold_spans)
        cv_wall = sum(s.end - s.start for s in cv_spans.values())
        out["evaluation.fold_busy_s"] = busy
        out["evaluation.fold_max_s"] = max(s.end - s.start for s in fold_spans)
        out["evaluation.fold_overlap"] = busy / (cv_wall * fold_workers)
        out["evaluation.fold_cpu_s"] = cpu
        out["evaluation.fold_parallelism"] = cpu / cv_wall
    return out
