"""Word-image preprocessing.

Decode scanned grayscale word images (binary PGM), binarize (Otsu), dilate
with a 3x3 square to merge strokes, locate the word with a bounding box, crop
the original grayscale, and resize to the canonical 64-row x 128-column
raster with bicubic interpolation.

Images are plain numpy arrays: grayscale rasters are 2-D uint8, binary masks
are 2-D bool with True = ink.
"""

from __future__ import annotations

import os
from typing import NamedTuple

import numpy as np

CANONICAL_HEIGHT = 64
CANONICAL_WIDTH = 128


class PgmError(ValueError):
    """Malformed binary PGM data."""


class NoInkError(ValueError):
    """Raised when an operation needs ink pixels and the image has none."""


class Rect(NamedTuple):
    top: int
    left: int
    height: int
    width: int


class Preprocessed(NamedTuple):
    """Output of the standard preprocessing chain."""

    image: np.ndarray  # canonical grayscale raster (64x128)
    ink: np.ndarray    # pre-dilation ink mask cropped to the word box
    box: Rect          # word bounding box in source coordinates


def _as_gray(img: np.ndarray) -> np.ndarray:
    arr = np.asarray(img)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"expected a nonempty 2-D grayscale array, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"grayscale pixels must be integers, got dtype {arr.dtype}")
        if arr.min() < 0 or arr.max() > 255:
            raise ValueError("grayscale intensities must lie in [0, 255]")
        arr = arr.astype(np.uint8)
    return arr


def _as_mask(img: np.ndarray) -> np.ndarray:
    arr = np.asarray(img)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"expected a nonempty 2-D binary mask, got shape {arr.shape}")
    return arr.astype(bool, copy=False)


# ---------------------------------------------------------------------------
# PGM codec (binary P5, maxval 255)

_WHITESPACE = b" \t\r\n\x0b\x0c"


def _next_token(data: bytes, pos: int, field: str) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c == b"#":  # comment runs to end of line
            while pos < n and data[pos:pos + 1] not in b"\r\n":
                pos += 1
        elif c in _WHITESPACE:
            pos += 1
        else:
            break
    if pos >= n:
        raise PgmError(f"truncated header: missing {field}")
    start = pos
    while pos < n and data[pos:pos + 1] not in _WHITESPACE and data[pos:pos + 1] != b"#":
        pos += 1
    return data[start:pos], pos


def _header_int(data: bytes, pos: int, field: str) -> tuple[int, int]:
    token, pos = _next_token(data, pos, field)
    try:
        value = int(token)
    except ValueError:
        raise PgmError(f"invalid {field}: {token!r}") from None
    return value, pos


def decode_pgm(data: bytes) -> np.ndarray:
    """Decode a binary PGM (magic P5, maxval 255) into a grayscale raster."""
    if not data.startswith(b"P5"):
        raise PgmError(f"bad magic {data[:2]!r}: expected b'P5'")
    width, pos = _header_int(data, 2, "width")
    height, pos = _header_int(data, pos, "height")
    maxval, pos = _header_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise PgmError(f"invalid dimensions {width}x{height}")
    if maxval != 255:
        raise PgmError(f"unsupported maxval {maxval}: must be 255")
    if pos >= len(data) or data[pos:pos + 1] not in _WHITESPACE:
        raise PgmError("missing whitespace after maxval")
    raster = data[pos + 1:]
    expected = width * height
    if len(raster) < expected:
        raise PgmError(f"truncated pixel data: expected {expected} bytes, got {len(raster)}")
    if len(raster) > expected:
        raise PgmError(f"trailing data: expected {expected} pixel bytes, got {len(raster)}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()


def encode_pgm(img: np.ndarray) -> bytes:
    """Encode a grayscale raster as binary PGM. decode_pgm(encode_pgm(x)) == x."""
    arr = _as_gray(img)
    h, w = arr.shape
    return b"P5\n%d %d\n255\n" % (w, h) + arr.tobytes()


def read_pgm(path: str | os.PathLike) -> np.ndarray:
    with open(path, "rb") as fh:
        return decode_pgm(fh.read())


def write_pgm(path: str | os.PathLike, img: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_pgm(img))


# ---------------------------------------------------------------------------
# Binarization and morphology

def otsu_threshold(img: np.ndarray) -> int:
    """Threshold maximizing between-class variance over the 256-bin histogram.

    A pixel is ink iff intensity < threshold, so classes at threshold t are
    {v < t} and {v >= t}.  Ties go to the lower threshold, which makes a
    constant image come out all-background (t = 0).
    """
    arr = _as_gray(img)
    hist = np.bincount(arr.ravel(), minlength=256).astype(np.float64)
    total = hist.sum()
    csum = np.cumsum(hist)
    msum = np.cumsum(hist * np.arange(256))
    w0 = np.concatenate(([0.0], csum[:-1]))  # w0[t] = #pixels < t
    m0 = np.concatenate(([0.0], msum[:-1]))
    w1 = total - w0
    mu0 = np.divide(m0, w0, out=np.zeros(256), where=w0 > 0)
    mu1 = np.divide(msum[-1] - m0, w1, out=np.zeros(256), where=w1 > 0)
    between = w0 * w1 * (mu0 - mu1) ** 2
    return int(np.argmax(between))


def binarize_otsu(img: np.ndarray) -> np.ndarray:
    """Binary mask with True (ink) where intensity < the Otsu threshold."""
    arr = _as_gray(img)
    return arr < otsu_threshold(arr)


def dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    """Binary dilation with a (2*radius+1)^2 square structuring element."""
    arr = _as_mask(mask)
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if radius == 0:
        return arr.copy()
    h, w = arr.shape
    padded = np.zeros((h + 2 * radius, w + 2 * radius), dtype=bool)
    padded[radius:radius + h, radius:radius + w] = arr
    out = np.zeros((h, w), dtype=bool)
    for dy in range(2 * radius + 1):
        for dx in range(2 * radius + 1):
            out |= padded[dy:dy + h, dx:dx + w]
    return out


def bounding_box(mask: np.ndarray) -> Rect:
    """Tightest rectangle covering all ink pixels."""
    arr = _as_mask(mask)
    ys, xs = np.nonzero(arr)
    if ys.size == 0:
        raise NoInkError("image contains no ink pixels")
    top, left = int(ys.min()), int(xs.min())
    return Rect(top, left, int(ys.max()) - top + 1, int(xs.max()) - left + 1)


def crop(img: np.ndarray, r: Rect) -> np.ndarray:
    arr = _as_gray(img)
    h, w = arr.shape
    if r.height < 1 or r.width < 1:
        raise ValueError(f"rect must have positive extent, got {r}")
    if r.top < 0 or r.left < 0 or r.top + r.height > h or r.left + r.width > w:
        raise ValueError(f"rect {r} out of bounds for {h}x{w} image")
    return arr[r.top:r.top + r.height, r.left:r.left + r.width].copy()


# ---------------------------------------------------------------------------
# Bicubic resize

def _cubic_kernel(x: np.ndarray, a: float = -0.5) -> np.ndarray:
    """Cubic convolution kernel (Catmull-Rom family, a = -0.5)."""
    x = np.abs(x)
    near = ((a + 2.0) * x - (a + 3.0)) * x * x + 1.0
    far = a * (((x - 5.0) * x + 8.0) * x - 4.0)
    return np.where(x <= 1.0, near, np.where(x < 2.0, far, 0.0))


def _resample_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Row-stochastic weights mapping n_in samples to n_out along one axis.

    Output center i samples source coordinate (i + 0.5) * n_in/n_out - 0.5;
    the four nearest taps get kernel weights, with out-of-range taps clamped
    to the border sample (weights accumulate there).
    """
    weights = np.zeros((n_out, n_in))
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    base = np.floor(src).astype(int)
    rows = np.arange(n_out)
    for tap in range(-1, 3):
        idx = base + tap
        w = _cubic_kernel(src - idx)
        np.add.at(weights, (rows, np.clip(idx, 0, n_in - 1)), w)
    return weights


def resize_bicubic(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Separable bicubic resampling; output clamped to [0, 255], rounded half-up."""
    arr = _as_gray(img)
    if out_h < 1 or out_w < 1:
        raise ValueError(f"output dimensions must be >= 1, got {out_h}x{out_w}")
    wy = _resample_matrix(arr.shape[0], out_h)
    wx = _resample_matrix(arr.shape[1], out_w)
    values = wy @ arr.astype(np.float64) @ wx.T
    return np.clip(np.floor(values + 0.5), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# Standard chain

def preprocess(img: np.ndarray) -> Preprocessed:
    """Grayscale -> binarize -> dilate -> bounding box -> crop -> resize.

    Dilation (radius 1, a 3x3 square) only merges strokes so the box spans
    the whole word; the crop is taken from the original grayscale, and the
    ink mask returned for scalar features is the pre-dilation one.
    """
    gray = _as_gray(img)
    ink = binarize_otsu(gray)
    box = bounding_box(dilate(ink, 1))
    word = crop(gray, box)
    resized = resize_bicubic(word, CANONICAL_HEIGHT, CANONICAL_WIDTH)
    ink_crop = ink[box.top:box.top + box.height, box.left:box.left + box.width].copy()
    return Preprocessed(resized, ink_crop, box)
