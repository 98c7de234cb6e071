"""Otsu, cropping, resizing, and augmentation checks against plain oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from milnet.preprocessing import (
    AugmentConfig,
    _rotate_bilinear,
    augment,
    crop_foreground,
    otsu_threshold,
    resize_bilinear,
    to_network_input,
)
from milnet.rng import derive_rng


def masked_bilinear_sample(image, ys, xs):
    """Sample a float image at fractional (ys, xs), reading each of the four
    taps through a boolean mask so that coordinates outside the frame read
    as zero: the plain bilinear sampler that rotation and resize must match
    byte for byte."""
    h, w = image.shape
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    wy = ys - y0
    wx = xs - x0

    def read(yy, xx):
        inside = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
        vals = np.zeros(yy.shape, dtype=np.float64)
        vals[inside] = image[yy[inside], xx[inside]]
        return vals

    v00 = read(y0, x0)
    v01 = read(y0, x0 + 1)
    v10 = read(y0 + 1, x0)
    v11 = read(y0 + 1, x0 + 1)
    top = v00 * (1 - wx) + v01 * wx
    bot = v10 * (1 - wx) + v11 * wx
    return top * (1 - wy) + bot * wy


def masked_rotation(image, degrees):
    """Rotation about the center through the masked sampler."""
    if degrees == 0.0:
        return image.copy()
    h, w = image.shape
    theta = np.deg2rad(degrees)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yg, xg = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    dy, dx = yg - cy, xg - cx
    src_y = cos_t * dy + sin_t * dx + cy
    src_x = -sin_t * dy + cos_t * dx + cx
    return masked_bilinear_sample(image, src_y, src_x)


def otsu_oracle(image):
    """Exhaustive threshold scan maximizing between-class variance.

    Completely independent of the implementation: recomputes both class
    statistics from scratch at every candidate threshold.
    """
    pixels = np.asarray(image).reshape(-1).astype(np.int64)
    n = pixels.size
    best_t, best_score = 0, -1.0
    for t in range(255):
        low = pixels[pixels <= t]
        high = pixels[pixels > t]
        if low.size == 0 or high.size == 0:
            score = 0.0
        else:
            w0 = low.size / n
            w1 = high.size / n
            score = w0 * w1 * (low.mean() - high.mean()) ** 2
        if score > best_score:
            best_t, best_score = t, score
    return best_t


class TestOtsu:
    def test_bimodal_split(self):
        rng = np.random.default_rng(42)
        img = np.concatenate([
            rng.integers(10, 50, size=500),
            rng.integers(180, 240, size=500),
        ]).astype(np.uint8).reshape(20, 50)
        result = otsu_threshold(img)
        assert not result.degenerate
        assert 49 <= result.threshold < 180

    def test_matches_exhaustive_oracle_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            img = rng.integers(0, 256, size=(8, 8)).astype(np.uint8)
            assert otsu_threshold(img).threshold == otsu_oracle(img)

    def test_matches_oracle_sparse_histograms(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            levels = rng.choice(256, size=rng.integers(2, 5), replace=False)
            img = rng.choice(levels, size=(10, 10)).astype(np.uint8)
            if np.unique(img).size < 2:
                continue
            assert otsu_threshold(img).threshold == otsu_oracle(img)

    def test_two_level_image(self):
        img = np.array([[0, 0], [255, 255]], dtype=np.uint8)
        result = otsu_threshold(img)
        assert not result.degenerate
        # any threshold in [0, 254] separates; the smallest maximizer is 0
        assert result.threshold == otsu_oracle(img) == 0

    def test_degenerate_single_value(self):
        img = np.full((4, 4), 77, dtype=np.uint8)
        result = otsu_threshold(img)
        assert result.degenerate

    def test_tie_breaks_to_smallest_threshold(self):
        # symmetric histogram: plateau of equal scores, want the smallest t
        img = np.array([[0, 255]], dtype=np.uint8)
        result = otsu_threshold(img)
        assert result.threshold == otsu_oracle(img)


class TestCropForeground:
    def test_tight_box(self):
        img = np.zeros((10, 12), dtype=np.uint8)
        img[3:7, 4:9] = 200
        out = crop_foreground(img, 100)
        assert out.shape == (4, 5)
        assert (out == 200).all()

    def test_keeps_interior_background(self):
        img = np.zeros((6, 6), dtype=np.uint8)
        img[1, 1] = 200
        img[4, 4] = 210
        out = crop_foreground(img, 100)
        assert out.shape == (4, 4)
        assert out[0, 0] == 200 and out[3, 3] == 210
        assert out[1, 1] == 0

    def test_no_foreground_errors(self):
        img = np.full((5, 5), 10, dtype=np.uint8)
        with pytest.raises(ValueError):
            crop_foreground(img, 50)


class TestResizeBilinear:
    def test_identity_when_same_size(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 255, size=(9, 7))
        assert_allclose(resize_bilinear(img, 7, 9), img, rtol=0, atol=1e-12)

    def test_corners_are_exact(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(0, 255, size=(5, 8))
        out = resize_bilinear(img, 16, 10)
        assert_allclose(
            [out[0, 0], out[0, -1], out[-1, 0], out[-1, -1]],
            [img[0, 0], img[0, -1], img[-1, 0], img[-1, -1]],
            rtol=1e-13,
        )

    def test_linear_ramp_stays_linear(self):
        # bilinear interpolation reproduces an affine image exactly
        y, x = np.mgrid[0:6, 0:6].astype(np.float64)
        img = 3.0 * x + 2.0 * y + 1.0
        out = resize_bilinear(img, 11, 11)
        yo, xo = np.mgrid[0:11, 0:11] * (5 / 10)
        assert_allclose(out, 3.0 * xo + 2.0 * yo + 1.0, rtol=1e-12)

    def test_upscale_midpoint(self):
        img = np.array([[0.0, 10.0]])
        out = resize_bilinear(img, 3, 1)
        assert_allclose(out, [[0.0, 5.0, 10.0]], atol=1e-14)

    def test_single_pixel_output(self):
        img = np.array([[4.0, 8.0], [2.0, 6.0]])
        out = resize_bilinear(img, 1, 1)
        assert out.shape == (1, 1)
        assert out[0, 0] == 4.0

    def test_range_preserved(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(10, 20, size=(13, 17))
        out = resize_bilinear(img, 40, 29)
        assert out.min() >= 10.0 - 1e-12
        assert out.max() <= 20.0 + 1e-12

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            resize_bilinear(np.zeros((4, 4)), 0, 4)

    @pytest.mark.parametrize("h, w, out_h, out_w", [
        (37, 53, 64, 64),
        (300, 200, 224, 224),
        (5, 9, 3, 1),
        (64, 64, 1, 1),
        (2, 2, 5, 7),   # upsampling
        (1, 1, 4, 4),
        (1, 7, 3, 3),
        (64, 64, 64, 64),
    ])
    def test_bitwise_matches_dense_grid_sampling(self, h, w, out_h, out_w):
        # reference: the full (out_h, out_w) coordinate grid through the
        # general sampler that rotation uses
        rng = np.random.default_rng(h * 1000 + w)
        img = rng.integers(0, 256, size=(h, w)).astype(np.float64)
        ys = np.zeros(out_h) if out_h == 1 else np.arange(out_h) * ((h - 1) / (out_h - 1))
        xs = np.zeros(out_w) if out_w == 1 else np.arange(out_w) * ((w - 1) / (out_w - 1))
        yg, xg = np.meshgrid(ys, xs, indexing="ij")
        ref = masked_bilinear_sample(img, yg, xg)
        out = resize_bilinear(img.astype(np.uint8), out_w, out_h)
        assert out.shape == (out_h, out_w)
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("dtype, low", [(np.uint8, 0), (np.int16, -300)])
    @pytest.mark.parametrize("h, w", [(64, 64), (17, 31), (1, 1), (1, 5)])
    def test_same_size_integer_copy_matches_interpolation(self, dtype, low, h, w):
        rng = np.random.default_rng(h * 100 + w)
        img = rng.integers(low, 256, size=(h, w)).astype(dtype)
        img.flat[::3] = 0
        out = resize_bilinear(img, w, h)
        ref = resize_bilinear(img.astype(np.float64), w, h)  # interpolating path
        assert out.dtype == np.float64
        assert out.tobytes() == ref.tobytes()
        assert not np.shares_memory(out, img)


def _rotation_image(rng, h, w):
    """Random values with runs of exact zeros and of -0.0."""
    img = rng.uniform(-1.0, 1.0, size=(h, w))
    img[rng.random((h, w)) < 0.3] = 0.0
    img[rng.random((h, w)) < 0.2] = -0.0
    return img


class TestRotateBilinear:
    SHAPES = [(64, 64), (224, 224), (17, 31), (2, 2), (1, 1)]
    ANGLES = [0.0, 45.0, -45.0, 90.0, 180.0, -180.0, 1e-9]

    @pytest.mark.parametrize("h, w", SHAPES)
    def test_bytes_match_masked_oracle(self, h, w):
        rng = np.random.default_rng(h * 1000 + w)
        angles = self.ANGLES + list(rng.uniform(-180.0, 180.0, size=6))
        for degrees in angles:
            img = _rotation_image(rng, h, w)
            out = _rotate_bilinear(img, degrees)
            ref = masked_rotation(img, degrees)
            assert out.tobytes() == ref.tobytes(), (h, w, degrees)

    def test_returns_a_new_array(self):
        img = np.ones((8, 8))
        img.flags.writeable = False
        for degrees in (0.0, 30.0):
            out = _rotate_bilinear(img, degrees)
            assert out.flags.writeable and not np.shares_memory(out, img)


class TestAugmentConfig:
    def test_defaults_valid(self):
        cfg = AugmentConfig()
        assert cfg.flip_prob == 0.5
        assert cfg.shift_frac == 0.1
        assert cfg.rotate_deg_max == 45.0
        assert abs(cfg.cutout_frac - 50.0 / 224.0) < 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            AugmentConfig(flip_prob=1.5)
        with pytest.raises(ValueError):
            AugmentConfig(shift_frac=-0.1)
        with pytest.raises(ValueError):
            AugmentConfig(rotate_deg_max=300.0)
        with pytest.raises(ValueError):
            AugmentConfig(cutout_frac=1.0)


class TestAugment:
    def setup_method(self):
        rng = np.random.default_rng(10)
        self.img = rng.uniform(0.2, 0.9, size=(32, 32))

    def test_same_stream_same_output(self):
        cfg = AugmentConfig()
        a = augment(self.img, cfg, derive_rng(5, "aug", 1, 0))
        b = augment(self.img, cfg, derive_rng(5, "aug", 1, 0))
        assert_array_equal(a, b)

    def test_different_streams_differ(self):
        cfg = AugmentConfig()
        a = augment(self.img, cfg, derive_rng(5, "aug", 1, 0))
        b = augment(self.img, cfg, derive_rng(5, "aug", 1, 1))
        assert not np.array_equal(a, b)

    def test_all_off_is_identity(self):
        cfg = AugmentConfig(flip_prob=0.0, shift_frac=0.0,
                            rotate_deg_max=0.0, cutout_frac=0.0)
        out = augment(self.img, cfg, np.random.default_rng(0))
        assert_allclose(out, self.img, rtol=0, atol=0)

    def test_flip_only(self):
        cfg = AugmentConfig(flip_prob=1.0, shift_frac=0.0,
                            rotate_deg_max=0.0, cutout_frac=0.0)
        out = augment(self.img, cfg, np.random.default_rng(0))
        assert_array_equal(out, self.img[:, ::-1])

    def test_shift_zero_fills(self):
        cfg = AugmentConfig(flip_prob=0.0, shift_frac=0.25,
                            rotate_deg_max=0.0, cutout_frac=0.0)
        # find a stream that actually shifts right and down
        for trial in range(50):
            rng = np.random.default_rng(trial)
            rng.random()  # flip draw
            dx = int(rng.integers(-8, 9))
            dy = int(rng.integers(-8, 9))
            if dx > 0 and dy > 0:
                out = augment(self.img, cfg, np.random.default_rng(trial))
                assert (out[:dy, :] == 0).all()
                assert (out[:, :dx] == 0).all()
                assert_allclose(out[dy:, dx:], self.img[:-dy, :-dx], rtol=0)
                return
        pytest.fail("no trial produced a positive shift")

    def test_cutout_zeroes_square(self):
        cfg = AugmentConfig(flip_prob=0.0, shift_frac=0.0,
                            rotate_deg_max=0.0, cutout_frac=0.25)
        side = round(0.25 * 32)
        rng = np.random.default_rng(4)
        probe = np.random.default_rng(4)
        probe.random()
        probe.integers(0, 1)  # dx draw (max shift 0)
        probe.integers(0, 1)  # dy draw
        probe.uniform(-0.0, 0.0)  # angle draw
        cut_x = int(probe.integers(0, 32 - side + 1))
        cut_y = int(probe.integers(0, 32 - side + 1))
        base = np.full((32, 32), 0.7)
        out = augment(base, cfg, rng)
        assert (out[cut_y:cut_y + side, cut_x:cut_x + side] == 0).all()
        zeroed = (out == 0).sum()
        assert zeroed == side * side

    def test_rotation_preserves_center_value(self):
        cfg = AugmentConfig(flip_prob=0.0, shift_frac=0.0,
                            rotate_deg_max=45.0, cutout_frac=0.0)
        img = np.zeros((33, 33))
        img[16, 16] = 1.0
        out = augment(img, cfg, np.random.default_rng(0))
        # rotating about the center leaves the exact center untouched
        assert_allclose(out[16, 16], 1.0, atol=1e-9)

    def test_output_shape_unchanged(self):
        cfg = AugmentConfig()
        out = augment(self.img, cfg, np.random.default_rng(1))
        assert out.shape == self.img.shape


class TestToNetworkInput:
    def test_resize_mode_range_and_shape(self):
        rng = np.random.default_rng(20)
        img = rng.integers(0, 256, size=(100, 80)).astype(np.uint8)
        out = to_network_input(img, 64, mode="resize")
        assert out.shape == (64, 64)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_resize_mode_identity_scale(self):
        img = np.arange(64 * 64, dtype=np.float64).reshape(64, 64) % 256
        out = to_network_input(img.astype(np.uint8), 64, mode="resize")
        assert_allclose(out, img.astype(np.uint8) / 255.0, atol=1e-12)

    def test_full_mode_crops_dark_border(self):
        img = np.zeros((80, 80), dtype=np.uint8)
        img[20:60, 30:70] = 200  # bright block in a dark frame
        full = to_network_input(img, 32, mode="full")
        # after cropping, the resized input is the bright block everywhere
        assert full.min() > 0.5

    def test_full_mode_degenerate_falls_back_to_resize(self):
        img = np.full((50, 50), 90, dtype=np.uint8)
        out = to_network_input(img, 16, mode="full")
        assert_allclose(out, np.full((16, 16), 90 / 255.0), atol=1e-12)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            to_network_input(np.zeros((8, 8), dtype=np.uint8), 8, mode="crop")
