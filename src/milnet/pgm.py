"""8-bit grayscale image files.

Two formats are supported: binary PGM (magic ``P5``, maxval 255) and raw
row-major byte files accompanied by a sidecar ``<path>.dims`` text file whose
single line is ``W H``.
"""

from __future__ import annotations

import io
import os
import re

import numpy as np

__all__ = ["read_pgm", "write_pgm", "load_gray_image", "read_image_size"]


def write_pgm(path: str, pixels: np.ndarray) -> None:
    """Write a 2-D uint8 array as a binary (P5) PGM with maxval 255."""
    arr = np.asarray(pixels)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        raise ValueError(f"expected uint8 pixels, got {arr.dtype}")
    h, w = arr.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(arr.tobytes())


# bytes per read while parsing a header; a plain header fits in one read
_HEADER_CHUNK = 64

# runs scanned in a header: whitespace, the rest of a '#' comment line, and
# one token (bytes.isspace and regex \s agree on the whitespace bytes)
_SPACES = re.compile(rb"\s*")
_COMMENT = re.compile(rb"[^\n]*")
_TOKEN = re.compile(rb"\S*")


def _read_pgm_header(f, path: str = "<stream>") -> tuple[int, int, int, int]:
    """Parse a P5 header; returns (width, height, maxval, data offset).

    Reads ``f`` in chunks of ``_HEADER_CHUNK`` bytes only as far as the
    header goes, so no more than one chunk of pixel data is read.  Errors
    are ValueErrors that name ``path``.
    """
    data = bytearray()

    def scan(run: re.Pattern, pos: int) -> int:
        # end of the run starting at pos, reading on while it reaches the
        # end of what has been read
        while True:
            pos = run.match(data, pos).end()
            if pos < len(data):
                return pos
            more = f.read(_HEADER_CHUNK)
            if not more:
                return pos
            data.extend(more)

    while len(data) < 2:
        more = f.read(_HEADER_CHUNK)
        if not more:
            break
        data.extend(more)
    if data[:2] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (missing P5 magic)")
    # header tokens may be separated by any whitespace and '#' comments
    tokens: list[int] = []
    pos = 2
    while len(tokens) < 3:
        pos = scan(_SPACES, pos)
        if data[pos:pos + 1] == b"#":
            pos = scan(_COMMENT, pos)
            continue
        end = scan(_TOKEN, pos)
        token = bytes(data[pos:end])
        if not token:
            raise ValueError(f"{path}: truncated PGM header")
        if not token.isdigit():
            raise ValueError(f"{path}: PGM header field {token!r} is not an integer")
        tokens.append(int(token))
        pos = end
    pos += 1  # single whitespace byte after maxval
    w, h, maxval = tokens
    return w, h, maxval, pos


def _decode_pgm(raw: bytes, path: str) -> np.ndarray:
    w, h, maxval, offset = _read_pgm_header(io.BytesIO(raw), path)
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 is supported, got {maxval}")
    if len(raw) - offset < w * h:
        raise ValueError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=w * h, offset=offset)
    return pixels.reshape(h, w).copy()


def read_pgm(path: str) -> np.ndarray:
    """Read a binary (P5) PGM into a 2-D uint8 array."""
    with open(path, "rb") as f:
        return _decode_pgm(f.read(), path)


def _read_dims(path: str) -> tuple[int, int]:
    """(width, height) from the sidecar ``<path>.dims`` of a raw image."""
    dims_path = path + ".dims"
    if not os.path.exists(dims_path):
        raise ValueError(
            f"{path}: not a PGM and no sidecar dimensions file {dims_path}"
        )
    with open(dims_path, "rb") as f:
        parts = f.read().split()
    if len(parts) != 2 or not all(part.isdigit() for part in parts):
        raise ValueError(f"{dims_path}: expected a single 'W H' line of integers")
    return int(parts[0]), int(parts[1])


def load_gray_image(path: str) -> np.ndarray:
    """Load a grayscale image (PGM or raw+sidecar) as a 2-D uint8 array."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:2] == b"P5":
        return _decode_pgm(raw, path)
    w, h = _read_dims(path)
    if len(raw) != w * h:
        raise ValueError(
            f"{path}: raw file holds {len(raw)} bytes, dimensions say {w * h}"
        )
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w).copy()


def read_image_size(path: str) -> tuple[int, int]:
    """Return (width, height), reading the PGM header or the sidecar only."""
    with open(path, "rb") as f:
        magic = f.read(2)
        if magic == b"P5":
            f.seek(0)
            w, h, _, _ = _read_pgm_header(f, path)
            return w, h
    return _read_dims(path)
