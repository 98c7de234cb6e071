"""8-bit grayscale image files.

Two formats are supported: binary PGM (magic ``P5``, maxval 255) and raw
row-major byte files accompanied by a sidecar ``<path>.dims`` text file whose
single line is ``W H``.  A file whose header parses as a PGM header is a PGM;
any other file is raw, and its sidecar is looked for only then.
"""

from __future__ import annotations

import re

import numpy as np

__all__ = ["write_pgm", "load_gray_image", "read_image_size"]


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


# bytes first read for a header; a plain header fits in one read
_HEADER_CHUNK = 64

# P5, then width, height and maxval.  Each field is the whole run of
# non-space bytes after any whitespace and '#' comments, so a '#' within a
# field is part of it; a field is empty only where the bytes ran out first.
_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*)*(\S*)" * 3)


def _header_error(m: re.Match | None) -> str | None:
    """Why a match of _HEADER is not a PGM header, or None when it is."""
    if m is None:
        return "not a binary PGM (missing P5 magic)"
    for field in m.groups():
        if not field:
            return "truncated PGM header"
        if not field.isdigit():
            return f"PGM header field {field!r} is not an integer"
    return None


def _layout(head: bytes, path: str) -> tuple[int, int, int, int]:
    """(width, height, maxval, pixel offset) of the file ``path`` that
    starts with ``head``: from its PGM header, which one whitespace byte
    ends, or else from its sidecar as a raw file (maxval 255, offset 0).
    Errors are ValueErrors that name the file."""
    m = _HEADER.match(head)
    error = _header_error(m)
    if error is None:
        w, h, maxval = map(int, m.groups())
        return w, h, maxval, m.end() + 1
    dims_path = path + ".dims"
    try:
        with open(dims_path, "rb") as f:
            parts = f.read().split()
    except FileNotFoundError:
        raise ValueError(
            f"{path}: {error}, and no sidecar dimensions file {dims_path}"
        ) from None
    if len(parts) != 2 or not all(part.isdigit() for part in parts):
        raise ValueError(f"{dims_path}: expected a single 'W H' line of integers")
    return int(parts[0]), int(parts[1]), 255, 0


def load_gray_image(path: str) -> np.ndarray:
    """Load a grayscale image (PGM or raw+sidecar) as a 2-D uint8 array."""
    with open(path, "rb") as f:
        raw = f.read()
    w, h, maxval, offset = _layout(raw, path)
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 is supported, got {maxval}")
    # offset 0 is a raw file, which holds its pixels and nothing else
    if offset == 0 and len(raw) != w * h:
        raise ValueError(
            f"{path}: raw file holds {len(raw)} bytes, dimensions say {w * h}"
        )
    if len(raw) - offset < w * h:
        raise ValueError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=w * h, offset=offset)
    return pixels.reshape(h, w).copy()


def read_image_size(path: str) -> tuple[int, int]:
    """Return (width, height), reading only the header or the sidecar.

    The header is matched on a prefix of the file that starts at
    ``_HEADER_CHUNK`` bytes and doubles until the match ends before the
    prefix does (so more bytes could not change it) or the file ends."""
    with open(path, "rb") as f:
        head = f.read(_HEADER_CHUNK)
        while (m := _HEADER.match(head)) and m.end() == len(head):
            more = f.read(len(head))
            if not more:
                break
            head += more
    w, h, _, _ = _layout(head, path)
    return w, h
