"""Backbone geometry, parameter init, and response-layer checks."""

import contextlib
import os
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from milnet import _forked, _kernels, model
from milnet import autodiff as ad
from milnet.autodiff import Tensor
from milnet.model import (
    INFER_BATCH,
    BackboneSpec,
    ModelParams,
    PRESETS,
    backbone_preset,
    forward_backbone,
    init_params,
    instance_responses,
    layer_plan,
    output_geometry,
    params_to_leaves,
    response_grid,
    response_grids,
)


def conv_forward_oracle(x, kernel, bias, stride, padding):
    """Plain nested-loop conv + bias, no autodiff machinery."""
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = kernel.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, c_out, oh, ow))
    for b in range(n):
        for co in range(c_out):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[b, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[b, co, i, j] = (patch * kernel[co]).sum() + bias[co]
    return out


def pool_forward_oracle(x, window, stride):
    n, c, h, w = x.shape
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    out = np.zeros((n, c, oh, ow))
    for i in range(oh):
        for j in range(ow):
            out[:, :, i, j] = x[:, :, i * stride:i * stride + window,
                                j * stride:j * stride + window].max(axis=(2, 3))
    return out


def backbone_oracle(x, spec, params):
    """Numpy-only replay of the layer list."""
    out = x
    conv_i = 0
    for layer in spec.layers:
        if layer[0] == "conv":
            _, _, _, s, p = layer
            out = conv_forward_oracle(
                out, params.arrays[f"conv{conv_i}.kernel"],
                params.arrays[f"conv{conv_i}.bias"], s, p)
            conv_i += 1
        elif layer[0] == "relu":
            out = np.maximum(out, 0.0)
        elif layer[0] == "pool":
            out = pool_forward_oracle(out, layer[1], layer[2])
    return out


class TestBackboneSpec:
    def test_desk_geometry(self):
        assert output_geometry(PRESETS["desk"]) == (32, 4, 4)

    def test_paper_geometry(self):
        assert output_geometry(PRESETS["paper"]) == (256, 6, 6)

    def test_describe_parse_round_trip(self):
        for name in PRESETS:
            spec = PRESETS[name]
            assert BackboneSpec.parse(spec.describe()) == spec

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            BackboneSpec.parse("conv:8:7:2:3")
        with pytest.raises(ValueError):
            BackboneSpec.parse("input:64,dense:10")

    @pytest.mark.parametrize("text, message", [
        ("input:64,conv:8,relu",
         "'conv:8': expected conv:<channels>:<kernel>:<stride>:<padding>"),
        ("input:64,pool:2", "'pool:2': expected pool:<window>:<stride>"),
        ("input:64,relu:2", "'relu:2': expected relu"),
        ("input:64:2,relu", "must start with 'input:<size>'"),
        ("conv:8:3:1:0", "must start with 'input:<size>'"),
        ("", "must start with 'input:<size>'"),
        ("input:64,conv:8:x:1:0", "'conv:8:x:1:0': expected integers"),
        ("input:0,relu", "'input:0': size must be >= 1, got 0"),
        ("input:64,conv:0:3:1:0", "'conv:0:3:1:0': channels must be >= 1, got 0"),
        ("input:64,conv:8:0:1:0", "'conv:8:0:1:0': kernel must be >= 1, got 0"),
        ("input:64,conv:8:3:0:0", "'conv:8:3:0:0': stride must be >= 1, got 0"),
        ("input:64,conv:8:3:1:-1", "'conv:8:3:1:-1': padding must be >= 0, got -1"),
        ("input:64,pool:0:2", "'pool:0:2': window must be >= 1, got 0"),
        ("input:64,pool:2:0", "'pool:2:0': stride must be >= 1, got 0"),
        ("input:64,relu,input:32", "unknown backbone layer 'input:32'"),
    ])
    def test_parse_rejects_malformed_layer(self, text, message):
        with pytest.raises(ValueError, match=message):
            BackboneSpec.parse(text)

    def test_zero_padding_is_valid(self):
        spec = BackboneSpec.parse("input:8,conv:4:3:1:0,relu,pool:2:2")
        assert output_geometry(spec) == (4, 3, 3)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            backbone_preset("tiny")

    def test_collapsing_spec_errors(self):
        spec = BackboneSpec(input_size=8, layers=(
            ("pool", 2, 2), ("pool", 2, 2), ("pool", 2, 2), ("pool", 2, 2)))
        with pytest.raises(ValueError):
            output_geometry(spec)


class TestInitParams:
    def test_shapes_and_names(self):
        params = init_params(PRESETS["desk"], seed=0)
        shapes = {name: params.arrays[name].shape for name in params.names()}
        assert shapes == {
            "conv0.kernel": (8, 1, 5, 5), "conv0.bias": (8,),
            "conv1.kernel": (16, 8, 3, 3), "conv1.bias": (16,),
            "conv2.kernel": (32, 16, 3, 3), "conv2.bias": (32,),
            "response.weight": (32,), "response.bias": (),
        }

    def test_biases_zero(self):
        params = init_params(PRESETS["desk"], seed=3)
        for name in params.names():
            if name.endswith("bias"):
                assert not params.arrays[name].any()

    def test_kernel_bounds(self):
        params = init_params(PRESETS["desk"], seed=5)
        k0 = params.arrays["conv0.kernel"]
        limit = np.sqrt(6.0 / (1 * 25 + 8 * 25))
        assert np.abs(k0).max() <= limit
        # the draw should actually use most of the interval
        assert np.abs(k0).max() > 0.8 * limit

    def test_deterministic(self):
        a = init_params(PRESETS["desk"], seed=9)
        b = init_params(PRESETS["desk"], seed=9)
        for name in a.names():
            assert_array_equal(a.arrays[name], b.arrays[name])

    def test_seed_changes_values(self):
        a = init_params(PRESETS["desk"], seed=1)
        b = init_params(PRESETS["desk"], seed=2)
        assert not np.array_equal(a.arrays["conv0.kernel"], b.arrays["conv0.kernel"])

    def test_copy_is_deep(self):
        a = init_params(PRESETS["desk"], seed=0)
        b = a.copy()
        b.arrays["conv0.kernel"][0, 0, 0, 0] += 1.0
        assert a.arrays["conv0.kernel"][0, 0, 0, 0] != b.arrays["conv0.kernel"][0, 0, 0, 0]


class TestForwardBackbone:
    def setup_method(self):
        self.spec = BackboneSpec(input_size=12, layers=(
            ("conv", 3, 3, 1, 1), ("relu",), ("pool", 2, 2),
            ("conv", 4, 3, 1, 1), ("relu",), ("pool", 2, 2)))
        self.params = init_params(self.spec, seed=21)

    @pytest.mark.usefixtures("float64_gemms")
    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(2, 1, 12, 12))
        leaves = params_to_leaves(self.params)
        out = forward_backbone(Tensor(x), self.spec, leaves)
        expected = backbone_oracle(x, self.spec, self.params)
        assert_allclose(out.data, expected, rtol=1e-12)

    def test_output_matches_geometry(self):
        c, h, w = output_geometry(self.spec)
        x = Tensor(np.zeros((3, 1, 12, 12)))
        out = forward_backbone(x, self.spec, params_to_leaves(self.params))
        assert out.shape == (3, c, h, w)

    def test_desk_preset_runs(self):
        params = init_params(PRESETS["desk"], seed=1)
        x = Tensor(np.random.default_rng(2).uniform(0, 1, size=(1, 1, 64, 64)))
        out = forward_backbone(x, PRESETS["desk"], params_to_leaves(params))
        assert out.shape == (1, 32, 4, 4)

    @pytest.mark.parametrize("preset, dropped", [("paper", True), ("desk", False)])
    def test_drops_large_graph_activations(self, preset, dropped):
        # batch 8: every paper conv regathers its columns, so every paper
        # intermediate is dropped once the next layer is built; no desk conv
        # does, and every desk one is kept.  The input and the feature map
        # always are.
        spec = PRESETS[preset]
        params = init_params(spec, seed=1)
        rng = np.random.default_rng(3)
        x = Tensor(rng.uniform(size=(8, 1, spec.input_size, spec.input_size)))
        fmap = forward_backbone(x, spec, params_to_leaves(params))
        interior, node = [], fmap._parents[0]
        while node is not x:  # each layer's first parent is its input
            interior.append(node)
            node = node._parents[0]
        assert len(interior) == len(spec.layers) - 1
        for t in interior:
            assert (t.data.strides == (0, 0, 0, 0)) == dropped, t
            assert bool(np.isnan(t.data).all()) == dropped, t
        kept = forward_backbone(x, spec, params_to_leaves(params, requires_grad=False))
        assert fmap.data.tobytes() == kept.data.tobytes()
        assert x.data.strides != (0, 0, 0, 0) and np.isfinite(x.data).all()

    def test_inference_relu_leaves_the_input_alone(self):
        # with no graph, a relu rectifies the output of the layer before it
        # in place; a leading relu reads the caller's input, which it must
        # not change
        spec = BackboneSpec.parse("input:6,relu,conv:2:3:1:1,relu")
        params = init_params(spec, seed=4)
        x = np.random.default_rng(5).normal(size=(2, 1, 6, 6))
        xt = Tensor(x.copy())
        got = forward_backbone(xt, spec, params_to_leaves(params, requires_grad=False))
        assert_array_equal(xt.data, x)
        want = forward_backbone(Tensor(x, requires_grad=True), spec,
                                params_to_leaves(params))
        assert got.data.tobytes() == want.data.tobytes()

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            forward_backbone(Tensor(np.zeros((12, 12))), self.spec,
                             params_to_leaves(self.params))

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            forward_backbone(Tensor(np.zeros((1, 1, 10, 10))), self.spec,
                             params_to_leaves(self.params))


class TestInstanceResponses:
    def test_sigmoid_of_affine(self):
        rng = np.random.default_rng(4)
        fmap = rng.normal(size=(2, 5, 3, 4))
        w = rng.normal(size=5)
        b = 0.3
        logits = instance_responses(Tensor(fmap), Tensor(w), Tensor(np.asarray(b)))
        assert logits.shape == (2, 12)
        responses = ad.sigmoid(logits).data
        for n in range(2):
            z = np.einsum("chw,c->hw", fmap[n], w) + b
            assert_allclose(logits.data[n], z.reshape(-1), rtol=1e-12)
            expected = 1.0 / (1.0 + np.exp(-z))
            assert_allclose(responses[n], expected.reshape(-1), rtol=1e-12)

    def test_extreme_logits_pass_through_unclipped(self):
        fmap = np.full((1, 1, 2, 2), 1000.0)
        logits = instance_responses(Tensor(fmap), Tensor(np.ones(1)),
                                    Tensor(np.asarray(0.0)))
        assert_array_equal(logits.data, np.full((1, 4), 1000.0))
        # the responses saturate to exactly 1 and 0; nothing clips them inside
        assert_array_equal(ad.sigmoid(logits).data, 1.0)
        fmap = np.full((1, 1, 2, 2), -1000.0)
        logits = instance_responses(Tensor(fmap), Tensor(np.ones(1)),
                                    Tensor(np.asarray(0.0)))
        assert_array_equal(ad.sigmoid(logits).data, 0.0)

    def test_row_major_flattening(self):
        fmap = np.zeros((1, 1, 2, 3))
        fmap[0, 0] = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        logits = instance_responses(Tensor(fmap), Tensor(np.ones(1)),
                                    Tensor(np.asarray(0.0)))
        z = np.array([1, 2, 3, 4, 5, 6], dtype=np.float64)
        assert_array_equal(logits.data[0], z)


class TestResponseGrid:
    def test_matches_graph_pipeline(self):
        # response_grids' forward-only ops against the training forward:
        # leaves that require a gradient make conv2d and maxpool2d build the
        # graph.  Nine images make one full inference batch and one partial.
        for preset in ("desk", "paper"):
            params = init_params(PRESETS[preset], seed=13)
            size = params.spec.input_size
            rng = np.random.default_rng(14)
            images = [rng.uniform(0, 1, size=(size, size)) for _ in range(9)]
            leaves = params_to_leaves(params, requires_grad=True)
            for scope in (contextlib.nullcontext(), ad.float64_gemms()):
                with scope:
                    grids = response_grids(params, images)
                    fmap = forward_backbone(Tensor(np.stack(images)[:, None]),
                                            params.spec, leaves)
                    logits = instance_responses(fmap, leaves["response.weight"],
                                                leaves["response.bias"])
                assert grids.shape == (9, *output_geometry(params.spec)[1:])
                want = ad.sigmoid(logits).data.reshape(grids.shape)
                assert_allclose(grids, want, rtol=0, atol=0, err_msg=preset)
                assert grids.tobytes() == want.tobytes(), preset

    def test_zeroed_params_give_half(self):
        params = init_params(PRESETS["desk"], seed=0)
        for name in params.names():
            params.arrays[name][...] = 0.0
        grid = response_grid(params, np.random.default_rng(1).uniform(0, 1, (64, 64)))
        assert_allclose(grid, 0.5, rtol=0, atol=0)


class TestInferenceInputs:
    """response_grids checks every image before it runs a batch or forks a
    shard: a bad one raises ValueError naming its index."""

    @pytest.fixture
    def no_fork(self, op_pool, monkeypatch):
        # two CPUs, so that 320 images and more would shard
        op_pool(1)
        calls = []
        monkeypatch.setattr(_forked, "run_forked", lambda *args: calls.append(args))
        return calls

    @pytest.mark.parametrize("images, index, what", [
        # a wrong size last, in a set large enough to shard
        ([np.full((64, 64), 0.5)] * 399 + [np.zeros((32, 32))], 399, r"shape \(32, 32\)"),
        # a wrong size among fewer images than the shard threshold
        ([np.full((64, 64), 0.5)] * 5 + [np.zeros((64, 63))] * 2, 5, r"shape \(64, 63\)"),
        # a raw image that was never prepared
        ([np.full((64, 64), 0.5)] * 3 + [np.zeros((64, 64), dtype=np.uint8)], 3, "uint8"),
    ], ids=["sharded", "serial", "raw-uint8"])
    def test_bad_input_raises_before_compute(self, no_fork, monkeypatch, images, index,
                                             what):
        def no_batches(*args):
            raise AssertionError("a batch ran")

        monkeypatch.setattr(model, "_serial_grids", no_batches)
        params = init_params(PRESETS["desk"], seed=5)
        with pytest.raises(ValueError, match=rf"inference input {index} is a .*{what}"):
            response_grids(params, images)
        assert no_fork == []


class TestLayerPlan:
    # (kind, in_shape, out_shape, shares, grad_shares, regather, drop) of
    # every layer at batch 8 with 2 CPUs
    PAPER = [
        ("conv", (8, 1, 224, 224), (8, 64, 55, 55), 2, 1, True, True),
        ("relu", (8, 64, 55, 55), (8, 64, 55, 55), 1, 1, False, True),
        ("pool", (8, 64, 55, 55), (8, 64, 27, 27), 2, 1, False, True),
        ("conv", (8, 64, 27, 27), (8, 192, 27, 27), 2, 2, True, True),
        ("relu", (8, 192, 27, 27), (8, 192, 27, 27), 1, 1, False, True),
        ("pool", (8, 192, 27, 27), (8, 192, 13, 13), 2, 1, False, True),
        ("conv", (8, 192, 13, 13), (8, 384, 13, 13), 2, 2, True, True),
        ("relu", (8, 384, 13, 13), (8, 384, 13, 13), 1, 1, False, True),
        ("conv", (8, 384, 13, 13), (8, 256, 13, 13), 2, 2, True, True),
        ("relu", (8, 256, 13, 13), (8, 256, 13, 13), 1, 1, False, True),
        ("conv", (8, 256, 13, 13), (8, 256, 13, 13), 2, 2, True, True),
        ("relu", (8, 256, 13, 13), (8, 256, 13, 13), 1, 1, False, True),
        ("pool", (8, 256, 13, 13), (8, 256, 6, 6), 2, 1, False, False),
    ]
    DESK = [
        ("conv", (8, 1, 64, 64), (8, 8, 32, 32), 1, 1, False, False),
        ("relu", (8, 8, 32, 32), (8, 8, 32, 32), 1, 1, False, False),
        ("conv", (8, 8, 32, 32), (8, 16, 16, 16), 1, 1, False, False),
        ("relu", (8, 16, 16, 16), (8, 16, 16, 16), 1, 1, False, False),
        ("conv", (8, 16, 16, 16), (8, 32, 8, 8), 1, 1, False, False),
        ("relu", (8, 32, 8, 8), (8, 32, 8, 8), 1, 1, False, False),
        ("pool", (8, 32, 8, 8), (8, 32, 4, 4), 1, 1, False, False),
    ]

    @staticmethod
    def summary(plan):
        return [(r.kind, r.in_shape, r.out_shape, r.shares, r.grad_shares, r.regather,
                 r.drop) for r in plan]

    def test_preset_rows_at_batch_8(self, op_pool):
        # every paper conv regathers and every paper intermediate is
        # dropped; no desk layer does either, or splits
        op_pool(1)  # 2 CPUs
        assert self.summary(layer_plan(PRESETS["paper"], 8)) == self.PAPER
        assert self.summary(layer_plan(PRESETS["desk"], 8)) == self.DESK
        # the paper 3x3 layers gather their columns tap by tap, c0 and c1 not
        paper = [r.tapwise for r in layer_plan(PRESETS["paper"], 8) if r.kind == "conv"]
        assert paper == [False, False, True, True, True]

    def test_desk_rows_at_infer_batch(self, op_pool):
        op_pool(1)
        assert self.summary(layer_plan(PRESETS["desk"], INFER_BATCH)) == self.DESK

    def test_plan_gives_geometry_and_parameter_shapes(self):
        spec = BackboneSpec.parse("input:20,conv:3:5:2:1,relu,pool:2:2,conv:4:3:1:0")
        plan = layer_plan(spec, 3)
        assert [r.out_shape for r in plan] == [
            (3, 3, 9, 9), (3, 3, 9, 9), (3, 3, 4, 4), (3, 4, 2, 2)]
        assert output_geometry(spec) == (4, 2, 2)
        assert model.param_shapes(spec)["conv1.kernel"] == (4, 3, 3, 3)

    @pytest.mark.parametrize("preset", ["paper", "desk"])
    def test_ops_run_as_the_plan_says(self, preset, monkeypatch):
        # the rows conv2d and maxpool2d make for themselves in
        # forward_backbone are the plan's rows, but for drop, which only
        # forward_backbone reads
        spec = PRESETS[preset]
        want = [row._replace(drop=False) for row in layer_plan(spec, 2)
                if row.kind != "relu"]
        seen = []

        def recording(real):
            def record(*args):
                seen.append(real(*args))
                return seen[-1]
            return record

        for name in ("conv_row", "pool_row"):
            monkeypatch.setattr(_kernels, name, recording(getattr(_kernels, name)))
        leaves = params_to_leaves(init_params(spec, seed=1))
        forward_backbone(Tensor(np.zeros((2, 1, spec.input_size, spec.input_size))),
                         spec, leaves)
        assert seen == want


# 43 desk images with threshold and op budget forced low: the killed shard's
# process exits at once, without raising
_KILLED_SHARD = '''
import multiprocessing, os
import numpy as np
import milnet._kernels as kernels
import milnet.model as model

params = model.init_params(model.PRESETS["desk"], seed=1)
rng = np.random.default_rng(2)
images = [rng.uniform(0, 1, (64, 64)) for _ in range(43)]
model._SHARD_MIN_IMAGES = 0
kernels._pool_workers = 1
real = model._serial_grids

def dying(params, images):
    if len(images) == 19:
        os._exit(1)
    return real(params, images)

model._serial_grids = dying
try:
    model.response_grids(params, images)
except RuntimeError as exc:
    print("raised:", exc)
print("children left:", len(multiprocessing.active_children()))
'''


class TestShardedInference:
    """response_grids shares its batches between forked processes: the
    grids are the serial ones bit for bit, failures name the image range,
    no process outlives the call, and each shard keeps its share of the CPUs
    for op threads."""

    def _record_shards(self, monkeypatch, tmp_path):
        """Make every serial run write its process, parent, image count and
        op-thread setting to a file under tmp_path; returns a reader."""
        real = model._serial_grids

        def recording(params, images):
            (tmp_path / f"run_{os.getpid()}_{len(images)}").write_text(
                f"{os.getpid()} {os.getppid()} {len(images)} {_kernels._pool_workers}")
            return real(params, images)

        monkeypatch.setattr(model, "_serial_grids", recording)

        def runs():
            found = [p.read_text().split() for p in tmp_path.glob("run_*")]
            for p in tmp_path.glob("run_*"):
                p.unlink()
            return sorted([int(v) for v in r] for r in found)

        return runs

    @pytest.mark.parametrize("preset,n_images", [("desk", 43), ("paper", 17)])
    def test_grids_match_serial(self, shard_inference, monkeypatch, tmp_path,
                                preset, n_images):
        # the last batch is partial; at the paper preset 3 shares get one
        # batch each
        params = init_params(PRESETS[preset], seed=5)
        size = params.spec.input_size
        rng = np.random.default_rng(6)
        images = [rng.uniform(0, 1, size=(size, size)) for _ in range(n_images)]
        runs = self._record_shards(monkeypatch, tmp_path)
        for scope in (contextlib.nullcontext, ad.float64_gemms):
            shard_inference(0)
            with scope():
                want = response_grids(params, images)
            assert [r[2] for r in runs()] == [n_images]
            for extra in (1, 2):
                shard_inference(extra)
                with scope():
                    grids = response_grids(params, images)
                assert grids.tobytes() == want.tobytes(), (preset, extra)
                shards = runs()
                assert len(shards) == extra + 1
                assert sum(r[2] for r in shards) == n_images
                assert all(r[0] != os.getpid() and r[1] == os.getpid() for r in shards)

    def test_failing_shard_raises_naming_its_images(self, shard_inference, monkeypatch):
        import multiprocessing

        params = init_params(PRESETS["desk"], seed=5)
        images = [np.full((64, 64), 0.5)] * 43
        real = model._serial_grids

        def failing(params, images):
            if len(images) == 11:
                raise ValueError("planted failure")
            return real(params, images)

        monkeypatch.setattr(model, "_serial_grids", failing)
        shard_inference(2)
        with pytest.raises(RuntimeError, match="images 32-42 failed: planted failure"):
            response_grids(params, images)
        assert multiprocessing.active_children() == []
        assert _forked._job is None

    def test_killed_shard_raises_instead_of_hanging(self):
        import subprocess
        import sys
        from pathlib import Path

        import milnet

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(Path(milnet.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", _KILLED_SHARD],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        raised, left = proc.stdout.splitlines()
        # a broken pool fails every unfinished shard; the first is named
        assert re.fullmatch(r"raised: images (0-23|24-42) failed: .*terminated abruptly.*",
                            raised)
        assert left == "children left: 0"

    def test_shards_share_the_cpus_with_op_threads(self, shard_inference, monkeypatch,
                                                   tmp_path):
        params = init_params(PRESETS["desk"], seed=5)
        images = [np.full((64, 64), 0.5)] * 43
        runs = self._record_shards(monkeypatch, tmp_path)
        cpus = len(os.sched_getaffinity(0))
        for extra in (1, 2):
            shard_inference(extra)
            response_grids(params, images)
            shards = runs()
            assert len(shards) == extra + 1
            for _, _, _, threads in shards:
                assert threads == max(0, cpus // (extra + 1) - 1)
        assert _kernels._pool_workers == 2

    def test_cv_fold_processes_do_not_shard(self, shard_inference, monkeypatch, tmp_path):
        from milnet.config import TrainConfig
        from milnet.cv import cross_validate

        rng = np.random.default_rng(0)
        images = [rng.integers(0, 256, (16, 16)).astype(np.uint8) for _ in range(10)]
        cfg = TrainConfig(backbone=BackboneSpec.parse("input:16,conv:2:3:2:1,relu"),
                          epochs=1, batch_size=4, seed=3, augment_enabled=False)
        (tmp_path / "runs").mkdir()
        runs = self._record_shards(monkeypatch, tmp_path / "runs")
        shard_inference(1)
        cross_validate(images, np.array([0, 1] * 5), cfg, str(tmp_path / "cv"), workers=2)
        # validation and test scoring ran in the fold processes themselves,
        # never in a process forked by one
        scored = runs()
        assert scored
        assert all(pid != os.getpid() and ppid == os.getpid() for pid, ppid, _, _ in scored)
