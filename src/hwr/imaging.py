"""Word-image preprocessing.

Decode scanned grayscale word images (binary PGM), binarize (Otsu), cut the
word box from the grayscale on a one-pixel white (255) border, and resize it
to the canonical 64-row x 128-column raster with bicubic interpolation.  The
word box is the bounding box of the ink dilated with a 3x3 square.  Dilation
by a square is a Minkowski sum, so that box is the ink's own box grown by one
pixel on each side, and it is computed so, with no dilation pass.  The
border holds that growth where ink touches the image's edge, so the cut is
the same wherever the word sits and however much white paper surrounds it.

Images are plain numpy arrays: grayscale rasters are 2-D uint8, binary masks
are 2-D bool with True = ink.
"""

from __future__ import annotations

import functools
import os
import re
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
    ink: np.ndarray    # undilated ink mask cut to the word box (a view)


def _as_gray(img: np.ndarray) -> np.ndarray:
    arr = np.asarray(img)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"expected a nonempty 2-D grayscale array, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        raise ValueError(f"grayscale pixels must be uint8, got dtype {arr.dtype}")
    return arr


def _as_mask(img: np.ndarray) -> np.ndarray:
    arr = np.asarray(img)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"expected a nonempty 2-D binary mask, got shape {arr.shape}")
    return arr.astype(bool, copy=False)


# ---------------------------------------------------------------------------
# PGM codec (binary P5, maxval 255)

# a header field: whitespace and comments (to the end of the line), then a token
_FIELD = re.compile(rb"(?:\s|#[^\r\n]*)*([^\s#]*)")


def decode_pgm(data: bytes) -> np.ndarray:
    """Decode a binary PGM (magic P5, maxval 255) into a grayscale raster.

    Header fields are ASCII decimal digits only (no sign, no underscores).
    """
    if not data.startswith(b"P5"):
        raise PgmError(f"bad magic {data[:2]!r}: expected b'P5'")
    fields, pos = [], 2
    for field in ("width", "height", "maxval"):
        match = _FIELD.match(data, pos)
        token, pos = match[1], match.end()
        if not token:
            raise PgmError(f"truncated header: missing {field}")
        if not token.isdigit():  # bytes.isdigit accepts only b"0".."9"
            raise PgmError(f"invalid {field}: {token!r}")
        try:
            fields.append(int(token))
        except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
            raise PgmError(f"invalid {field}: {token[:16]!r}... ({len(token)} digits)") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PgmError(f"invalid dimensions {width}x{height}")
    if maxval != 255:
        raise PgmError(f"unsupported maxval {maxval}: must be 255")
    if not data[pos:pos + 1].isspace():  # the six ASCII whitespace bytes
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
    """The raster of a PGM file; a malformed one raises PgmError naming the path."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return decode_pgm(data)
    except PgmError as exc:
        raise PgmError(f"{path}: {exc}") from None


def write_pgm(path: str | os.PathLike, img: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_pgm(img))


# ---------------------------------------------------------------------------
# Binarization and word box

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


def bounding_box(mask: np.ndarray) -> Rect:
    """Tightest rectangle covering all ink pixels."""
    arr = _as_mask(mask)
    ys = np.flatnonzero(arr.any(axis=1))
    if ys.size == 0:
        raise NoInkError("image contains no ink pixels")
    xs = np.flatnonzero(arr.any(axis=0))
    return Rect(int(ys[0]), int(xs[0]), int(ys[-1] - ys[0]) + 1, int(xs[-1] - xs[0]) + 1)


# ---------------------------------------------------------------------------
# Bicubic resize

def _cubic_kernel(x: np.ndarray) -> np.ndarray:
    """Cubic convolution kernel (Catmull-Rom family, a = -0.5)."""
    a = -0.5
    x = np.abs(x)
    near = ((a + 2.0) * x - (a + 3.0)) * x * x + 1.0
    far = a * (((x - 5.0) * x + 8.0) * x - 4.0)
    return np.where(x <= 1.0, near, np.where(x < 2.0, far, 0.0))


@functools.lru_cache(maxsize=256)
def _resample_taps(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (tap, output) cells of the n_out x n_in matrix and their weights, flat."""
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    idx = np.floor(src).astype(int) + np.arange(-1, 3)[:, None]  # (tap, output)
    cells = (np.arange(n_out) * n_in + np.clip(idx, 0, n_in - 1)).ravel()
    weights = _cubic_kernel(src - idx).ravel()
    for taps in (cells, weights):
        taps.flags.writeable = False
    return cells, weights


def _resample_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Row-stochastic weights mapping n_in samples to n_out along one axis.

    Output center i samples source coordinate (i + 0.5) * n_in/n_out - 0.5;
    the four nearest taps get kernel weights, with out-of-range taps clamped
    to the border sample (weights accumulate there).  One bincount over the
    tap-major (tap, output) cells sums each cell from 0.0 in tap order -1,
    0, 1, 2, the order of one scatter per tap.  Only the taps are cached:
    they take 8 * n_out values, the matrix n_out * n_in.
    """
    cells, weights = _resample_taps(n_in, n_out)
    return np.bincount(cells, weights=weights, minlength=n_out * n_in).reshape(n_out, n_in)


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
    """Grayscale -> binarize -> word box -> cut -> resize.

    The image is put on a page with a one-pixel border of 255, which is never
    ink, and binarized at the image's own Otsu threshold.  The word box is
    the box of the 3x3-dilated ink, computed as the ink box grown by one
    pixel; on that page it needs no clipping.  One pair of slices cuts it
    from the page and from the undilated ink mask returned for scalar
    features.
    """
    gray = _as_gray(img)
    page = np.full((gray.shape[0] + 2, gray.shape[1] + 2), 255, dtype=np.uint8)
    page[1:-1, 1:-1] = gray
    ink = page < otsu_threshold(gray)
    box = bounding_box(ink)
    rows = slice(box.top - 1, box.top + box.height + 1)
    cols = slice(box.left - 1, box.left + box.width + 1)
    image = resize_bicubic(page[rows, cols], CANONICAL_HEIGHT, CANONICAL_WIDTH)
    return Preprocessed(image, ink[rows, cols])
