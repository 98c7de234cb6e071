"""Manifest validation, the synthetic generator's guarantees, image files."""

import io
import os
import re

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from milnet import pgm
from milnet.data import (
    Manifest,
    ManifestRecord,
    SynthSpec,
    generate_synthetic,
    load_dataset,
    load_manifest,
)
from milnet.pgm import load_gray_image, read_image_size, read_pgm, write_pgm


def write_image(dirpath, name, size=10, value=100):
    arr = np.full((size, size), value, dtype=np.uint8)
    path = os.path.join(dirpath, name)
    write_pgm(path, arr)
    return path


def write_manifest(dirpath, lines):
    path = os.path.join(dirpath, "manifest.csv")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    return path


class TestPgm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        arr = rng.integers(0, 256, size=(7, 11)).astype(np.uint8)
        path = str(tmp_path / "img.pgm")
        write_pgm(path, arr)
        assert_array_equal(read_pgm(path), arr)
        assert read_image_size(path) == (11, 7)

    def test_header_with_comment(self, tmp_path):
        path = str(tmp_path / "c.pgm")
        with open(path, "wb") as f:
            f.write(b"P5\n# a comment line\n3 2\n255\n" + bytes(range(6)))
        arr = read_pgm(path)
        assert arr.shape == (2, 3)
        assert_array_equal(arr.reshape(-1), np.arange(6))

    def test_comment_longer_than_a_read_chunk(self, tmp_path):
        path = str(tmp_path / "long.pgm")
        comment = b"# " + b"x" * (3 * pgm._HEADER_CHUNK) + b"\n"
        with open(path, "wb") as f:
            f.write(b"P5\n" + comment + b"3 2\n255\n" + bytes(range(6)))
        assert read_image_size(path) == (3, 2)
        assert_array_equal(read_pgm(path).reshape(-1), np.arange(6))

    def test_size_of_truncated_file(self, tmp_path):
        path = str(tmp_path / "cut.pgm")
        with open(path, "wb") as f:
            f.write(b"P5\n400 300\n255\n" + b"\x00" * 7)
        assert read_image_size(path) == (400, 300)
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(path)

    def test_header_parse_stops_short_of_the_pixels(self):
        header = b"P5\n500 400\n255\n"
        f = io.BytesIO(header + bytes(500 * 400))
        assert pgm._read_pgm_header(f) == (500, 400, 255, len(header))
        assert f.tell() <= pgm._HEADER_CHUNK

    def test_rejects_wrong_magic(self, tmp_path):
        path = str(tmp_path / "p2.pgm")
        with open(path, "wb") as f:
            f.write(b"P2\n3 2\n255\n0 1 2 3 4 5\n")
        with pytest.raises(ValueError, match="P5"):
            read_pgm(path)

    def test_rejects_truncated(self, tmp_path):
        path = str(tmp_path / "cut.pgm")
        with open(path, "wb") as f:
            f.write(b"P5\n4 4\n255\n" + b"\x00" * 7)
        with pytest.raises(ValueError, match="truncated"):
            read_pgm(path)

    def test_rejects_wrong_dtype_or_rank(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(str(tmp_path / "f.pgm"), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            write_pgm(str(tmp_path / "r.pgm"), np.zeros(9, dtype=np.uint8))

    def test_raw_sidecar_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        arr = rng.integers(0, 256, size=(5, 8)).astype(np.uint8)
        path = str(tmp_path / "img.raw")
        with open(path, "wb") as f:
            f.write(arr.tobytes())
        with open(path + ".dims", "w") as f:
            f.write("8 5\n")
        assert_array_equal(load_gray_image(path), arr)
        assert read_image_size(path) == (8, 5)

    def test_raw_missing_sidecar(self, tmp_path):
        path = str(tmp_path / "naked.raw")
        with open(path, "wb") as f:
            f.write(b"\x00" * 10)
        with pytest.raises(ValueError, match="sidecar"):
            load_gray_image(path)

    def test_one_token_sidecar_names_the_file(self, tmp_path):
        path = str(tmp_path / "one.raw")
        with open(path, "wb") as f:
            f.write(b"\x00" * 16)
        with open(path + ".dims", "w") as f:
            f.write("16\n")
        for read in (read_image_size, load_gray_image):
            with pytest.raises(ValueError, match=re.escape(path + ".dims")):
                read(path)

    @pytest.mark.parametrize("header, problem", [
        (b"P5\n400", "truncated"),
        (b"P5\n4 x4\n255\n" + bytes(16), "not an integer"),
    ], ids=["truncated", "non-integer"])
    def test_bad_header_names_the_file(self, tmp_path, header, problem):
        path = str(tmp_path / "bad.pgm")
        with open(path, "wb") as f:
            f.write(header)
        for read in (read_image_size, read_pgm, load_gray_image):
            with pytest.raises(ValueError, match=re.escape(path) + ".*" + problem):
                read(path)

    # (file bytes, whether the plain-header fast path parses its header)
    HEADERS = {
        "newlines": (b"P5\n3 2\n255\n" + bytes(range(6)), True),
        "spaces": (b"P5 3  2 255 " + bytes(range(6)), True),
        "crlf": (b"P5\r\n3 2\r\n255\r\n" + bytes(range(6)), True),
        "tab": (b"P5\t3\t2\t255\t" + bytes(range(6)), True),
        "vtab": (b"P5\x0b3\x0b2\x0b255\x0b" + bytes(range(6)), True),
        "formfeed": (b"P5\x0c3\x0c\x0c2 255\x0c" + bytes(range(6)), True),
        "leading-zeros": (b"P5\n003 0002\n0255\n" + bytes(range(6)), True),
        "maxval-254": (b"P5\n3 2\n254\n" + bytes(range(6)), True),
        "truncated-pixels": (b"P5\n3 2\n255\n" + bytes(5), True),
        "comment": (b"P5\n# a comment\n3 2\n255\n" + bytes(range(6)), False),
        "comment-after-field": (b"P5 3 2# c\n255\n" + bytes(range(6)), False),
        "no-space-after-magic": (b"P564 64\n255\n" + bytes(64 * 64), False),
        "non-digit": (b"P5\n3x 2\n255\n" + bytes(6), False),
        "signed": (b"P5\n3 2\n+255\n" + bytes(6), False),
        "non-ascii-digit": (b"P5\n\xb2 2\n255\n" + bytes(6), False),
        "not-bytes-whitespace": (b"P5\x1c3 2\x85255\n" + bytes(6), False),
        "magic-only": (b"P5", False),
        "truncated-header": (b"P5\n3 2", False),
        "no-byte-after-maxval": (b"P5\n3 2\n255", False),
    }

    @pytest.mark.parametrize("name", list(HEADERS))
    def test_plain_header_path_agrees_with_scanner(self, tmp_path, monkeypatch, name):
        data, plain = self.HEADERS[name]

        def outcome(fn, *args):
            try:
                result = fn(*args)
            except ValueError as exc:
                return "error", str(exc)
            if isinstance(result, np.ndarray):
                return result.shape, result.tobytes()
            return result

        fast = pgm._plain_header(data)
        assert (fast is not None) == plain
        if plain:
            assert fast == pgm._read_pgm_header(io.BytesIO(data), "x")
        path = str(tmp_path / "h.pgm")
        with open(path, "wb") as f:
            f.write(data)
        readers = (read_image_size, read_pgm)
        got = [outcome(read, path) for read in readers]
        monkeypatch.setattr(pgm, "_plain_header", lambda data: None)
        assert got == [outcome(read, path) for read in readers]

    def test_raw_size_mismatch(self, tmp_path):
        path = str(tmp_path / "short.raw")
        with open(path, "wb") as f:
            f.write(b"\x00" * 10)
        with open(path + ".dims", "w") as f:
            f.write("4 4\n")
        with pytest.raises(ValueError, match="bytes"):
            load_gray_image(path)


class TestLoadManifest:
    def test_two_column_form(self, tmp_path):
        d = str(tmp_path)
        write_image(d, "a.pgm")
        write_image(d, "b.pgm")
        path = write_manifest(d, ["path,label", "a.pgm,1", "b.pgm,0"])
        manifest = load_manifest(path)
        assert len(manifest) == 2
        assert manifest.records[0].label == 1
        assert manifest.records[0].box is None
        assert_array_equal(manifest.labels, [1, 0])
        assert os.path.isabs(manifest.records[0].path)

    def test_box_form_and_empty_cells(self, tmp_path):
        d = str(tmp_path)
        write_image(d, "a.pgm")
        write_image(d, "b.pgm")
        path = write_manifest(d, ["path,label,x,y,w,h",
                                  "a.pgm,1,2,3,4,5",
                                  "b.pgm,0,,,,"])
        manifest = load_manifest(path)
        assert manifest.records[0].box == (2, 3, 4, 5)
        assert manifest.records[1].box is None

    def test_blank_rows_skipped(self, tmp_path):
        d = str(tmp_path)
        write_image(d, "a.pgm")
        path = write_manifest(d, ["path,label", "", "a.pgm,1", " , "])
        assert len(load_manifest(path)) == 1

    def test_bad_header(self, tmp_path):
        path = write_manifest(str(tmp_path), ["file,cls", "a.pgm,1"])
        with pytest.raises(ValueError, match=":1: header"):
            load_manifest(path)

    def test_empty_file(self, tmp_path):
        path = os.path.join(str(tmp_path), "manifest.csv")
        open(path, "w").close()
        with pytest.raises(ValueError, match="empty"):
            load_manifest(path)

    def test_bad_label_names_line(self, tmp_path):
        d = str(tmp_path)
        write_image(d, "a.pgm")
        write_image(d, "b.pgm")
        path = write_manifest(d, ["path,label", "a.pgm,1", "b.pgm,2"])
        with pytest.raises(ValueError, match=":3: label"):
            load_manifest(path)

    def test_missing_image_names_line(self, tmp_path):
        d = str(tmp_path)
        write_image(d, "a.pgm")
        path = write_manifest(d, ["path,label", "gone.pgm,0", "a.pgm,1"])
        with pytest.raises(ValueError, match=":2: image file not found"):
            load_manifest(path)

    def test_wrong_field_count(self, tmp_path):
        d = str(tmp_path)
        write_image(d, "a.pgm")
        path = write_manifest(d, ["path,label", "a.pgm,1,9"])
        with pytest.raises(ValueError, match="expected 2 fields, got 3"):
            load_manifest(path)

    def test_box_out_of_bounds(self, tmp_path):
        d = str(tmp_path)
        write_image(d, "a.pgm", size=10)
        path = write_manifest(d, ["path,label,x,y,w,h", "a.pgm,1,8,8,4,4"])
        with pytest.raises(ValueError, match="not inside"):
            load_manifest(path)

    def test_box_zero_size_rejected(self, tmp_path):
        d = str(tmp_path)
        write_image(d, "a.pgm", size=10)
        path = write_manifest(d, ["path,label,x,y,w,h", "a.pgm,1,2,2,0,3"])
        with pytest.raises(ValueError, match="not inside"):
            load_manifest(path)

    def test_partial_box_rejected(self, tmp_path):
        d = str(tmp_path)
        write_image(d, "a.pgm", size=10)
        path = write_manifest(d, ["path,label,x,y,w,h", "a.pgm,1,2,,3,3"])
        with pytest.raises(ValueError, match="all four"):
            load_manifest(path)


class TestSynthSpec:
    def test_defaults(self):
        spec = SynthSpec()
        assert spec.image_size == 64
        assert spec.n_pos == 40 and spec.n_neg == 160
        assert abs(spec.n_pos / (spec.n_pos + spec.n_neg) - 0.2) < 1e-12
        side = round(spec.mass_frac * spec.image_size)
        area = side * side / (spec.image_size ** 2)
        assert abs(area - 0.02) < 0.002

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(image_size=2)
        with pytest.raises(ValueError):
            SynthSpec(n_pos=0)
        with pytest.raises(ValueError):
            SynthSpec(mass_frac=1.5)
        with pytest.raises(ValueError):
            SynthSpec(mass_frac=0.001)  # below one pixel
        with pytest.raises(ValueError):
            SynthSpec(intensity_lift=0.0)
        with pytest.raises(ValueError):
            SynthSpec(noise_level=-0.1)


@pytest.fixture(scope="module")
def small_set(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("synth"))
    spec = SynthSpec(n_pos=10, n_neg=20, seed=13)
    manifest_path = generate_synthetic(spec, out)
    return spec, out, manifest_path


class TestGenerateSynthetic:
    def test_counts_and_file_names(self, small_set):
        spec, out, manifest_path = small_set
        manifest = load_manifest(manifest_path)
        assert len(manifest) == 30
        labels = manifest.labels
        assert labels.sum() == 10
        # positives come first, named img_0000.pgm onward
        assert (labels[:10] == 1).all()
        assert manifest.records[0].path.endswith("img_0000.pgm")
        assert manifest.records[29].path.endswith("img_0029.pgm")

    def test_boxes_only_on_positives_and_inside(self, small_set):
        spec, out, manifest_path = small_set
        manifest = load_manifest(manifest_path)
        side = round(spec.mass_frac * spec.image_size)
        for rec in manifest.records:
            if rec.label == 1:
                x, y, w, h = rec.box
                assert w == h == side
                assert 0 <= x and x + w <= spec.image_size
                assert 0 <= y and y + h <= spec.image_size
            else:
                assert rec.box is None

    def test_lift_guarantee_on_every_positive(self, small_set):
        spec, out, manifest_path = small_set
        ds = load_dataset(load_manifest(manifest_path))
        for img, label, box in zip(ds.images, ds.labels, ds.boxes):
            if label == 0:
                continue
            x, y, w, h = box
            pixels = img.astype(np.float64) / 255.0
            inside = np.zeros(pixels.shape, dtype=bool)
            inside[y:y + h, x:x + w] = True
            gap = pixels[inside].mean() - pixels[~inside].mean()
            assert gap >= spec.intensity_lift

    def test_regeneration_is_byte_identical(self, small_set, tmp_path):
        spec, out, manifest_path = small_set
        again = str(tmp_path / "again")
        generate_synthetic(spec, again)
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as f:
                first = f.read()
            with open(os.path.join(again, name), "rb") as f:
                second = f.read()
            assert first == second, name

    def test_images_use_full_byte_range_sanely(self, small_set):
        spec, out, manifest_path = small_set
        ds = load_dataset(load_manifest(manifest_path))
        for img in ds.images:
            assert img.dtype == np.uint8
            assert img.shape == (64, 64)
            assert img.max() < 255  # nothing saturates
            assert img.min() > 0

    def test_per_image_streams_are_order_independent(self, small_set, tmp_path):
        # the same seed with more images reproduces the shared prefix
        spec, out, manifest_path = small_set
        bigger = str(tmp_path / "bigger")
        generate_synthetic(
            SynthSpec(n_pos=10, n_neg=25, seed=13), bigger)
        for i in range(30):
            name = f"img_{i:04d}.pgm"
            assert_array_equal(
                read_pgm(os.path.join(out, name)),
                read_pgm(os.path.join(bigger, name)),
            )


class TestLoadDataset:
    def test_aligned_fields(self, tmp_path):
        d = str(tmp_path)
        write_image(d, "a.pgm", value=10)
        write_image(d, "b.pgm", value=200)
        path = write_manifest(d, ["path,label,x,y,w,h",
                                  "a.pgm,1,1,1,3,3", "b.pgm,0,,,,"])
        ds = load_dataset(load_manifest(path))
        assert len(ds) == 2
        assert ds.images[0][0, 0] == 10
        assert ds.images[1][0, 0] == 200
        assert ds.boxes[0] == (1, 1, 3, 3)
        assert ds.boxes[1] is None
        assert ds.paths[0].endswith("a.pgm")
