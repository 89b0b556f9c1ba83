"""HOG descriptor and scalar word features.

Default geometry on the canonical 64x128 raster: 16x16 blocks, 8x8 stride,
8x8 cells, 9 unsigned orientation bins -> 7 * 15 * 4 * 9 = 3780 values.

Design follows the Dalal-Triggs reference descriptor: centered [-1, 0, 1]
derivative masks with replicated edges, unsigned orientations (the only kind
offered) over 9 bins of 20 degrees with bin centers at 0, 20, ..., 160,
magnitude-weighted bilinear voting into the two nearest bins, per-block
L2-Hys normalization (epsilon 1e-5, clip 0.2).  There is no spatial Gaussian
weighting inside blocks and no gamma pre-normalization.

Emission order is fixed because model files depend on it: blocks row-major
(top-to-bottom, then left-to-right), cells within a block row-major, bins in
ascending angle.

The angle fold and the block normalization are vectorized and bit-exact
against the per-block reference kept in tests/oracles.py:
- The unsigned angle folds [-180, 180] into [0, 180] by adding 180 to a
  negative angle and mapping exactly 180 to 0.  This is numpy's float
  remainder `angle % 180` bit for bit: -0.0 and -180 give +0.0, and a
  negative angle whose sum with 180 rounds to 180.0 stays 180.0.
- Only pixels with a nonzero gradient vote, in pixel order.  A pixel whose
  gx and gy are both zero (of either sign) would vote magnitude +0.0 into
  both bins; every weight is >= +0.0 and every bin starts at +0.0, so no
  partial sum is ever -0.0 and adding +0.0 to it changes no bit.  Each
  bin's `bincount` sum then takes the remaining votes in the same order.
- L2-Hys normalizes the (blocks, cells * bins) matrix in one pass.  Each
  row's squared norm comes from a stacked (1, k) @ (k, 1) matmul, which
  calls the same dot product as a single block's `block @ block`; an
  elementwise sum of squares would round differently.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import imaging

L2HYS_EPS = 1e-5
L2HYS_CLIP = 0.2


@dataclass(frozen=True)
class HogParams:
    cell: tuple[int, int] = (8, 8)
    block: tuple[int, int] = (16, 16)
    stride: tuple[int, int] = (8, 8)
    bins: int = 9

    def __post_init__(self) -> None:
        for name in ("cell", "block", "stride"):
            pair = getattr(self, name)
            if len(pair) != 2 or pair[0] < 1 or pair[1] < 1:
                raise ValueError(f"{name} must be a pair of positive pixel counts, got {pair}")
        if self.block[0] % self.cell[0] or self.block[1] % self.cell[1]:
            raise ValueError(f"block {self.block} must be divisible by cell {self.cell}")
        if self.stride[0] % self.cell[0] or self.stride[1] % self.cell[1]:
            raise ValueError(f"stride {self.stride} must align with the cell grid {self.cell}")
        if self.bins < 2:
            raise ValueError(f"bins must be >= 2, got {self.bins}")


DEFAULT_HOG = HogParams()


class ScalarFeatures(NamedTuple):
    upper_black: int
    lower_black: int
    length: int


def _grid_shape(height: int, width: int, params: HogParams) -> tuple[int, int, int, int]:
    bh, bw = params.block
    sh, sw = params.stride
    if height < bh or width < bw:
        raise ValueError(f"image {height}x{width} smaller than block {bh}x{bw}")
    if (height - bh) % sh or (width - bw) % sw:
        raise ValueError(
            f"block stride {params.stride} does not tile a {height}x{width} image"
        )
    n_by = (height - bh) // sh + 1
    n_bx = (width - bw) // sw + 1
    return n_by, n_bx, height // params.cell[0], width // params.cell[1]


def hog_length(height: int, width: int, params: HogParams = DEFAULT_HOG) -> int:
    """Descriptor length: n_blocks_y * n_blocks_x * cells_per_block * bins."""
    n_by, n_bx, _, _ = _grid_shape(height, width, params)
    cells_per_block = (params.block[0] // params.cell[0]) * (params.block[1] // params.cell[1])
    return n_by * n_bx * cells_per_block * params.bins


@functools.lru_cache(maxsize=16)
def _layout(height: int, width: int, params: HogParams) -> tuple[np.ndarray, np.ndarray]:
    """Read-only gather indices into the flat histogram of one image geometry.

    The first holds each pixel's cell * bins, in pixel order; the second
    holds one row per block, in emission order, of the block's entries.
    """
    _, _, n_cy, n_cx = _grid_shape(height, width, params)
    ch, cw = params.cell
    cell = (np.arange(height)[:, None] // ch) * n_cx + (np.arange(width)[None, :] // cw)
    pixel = (cell * params.bins).ravel()
    entries = np.arange(n_cy * n_cx * params.bins).reshape(n_cy, n_cx, params.bins)
    bh_c, bw_c = params.block[0] // ch, params.block[1] // cw
    # windows[by, bx, bin, cy, cx] -> rows (by, bx) of (cy, cx, bin) entries
    windows = sliding_window_view(entries, (bh_c, bw_c), axis=(0, 1))
    windows = windows[::params.stride[0] // ch, ::params.stride[1] // cw]
    block = windows.transpose(0, 1, 3, 4, 2).reshape(-1, bh_c * bw_c * params.bins)
    for index in (pixel, block):
        index.flags.writeable = False
    return pixel, block


def cell_histograms(img: np.ndarray, params: HogParams = DEFAULT_HOG) -> np.ndarray:
    """Per-cell orientation histograms, shape (cells_y, cells_x, bins).

    Gradients use centered differences with replicated edges; each pixel
    votes its magnitude into the two orientation bins nearest its unsigned
    angle, split linearly.
    """
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {arr.shape}")
    h, w = arr.shape
    _, _, n_cy, n_cx = _grid_shape(h, w, params)
    pixel_entry, _ = _layout(h, w, params)

    gx = np.empty_like(arr)
    gx[:, 1:-1] = arr[:, 2:] - arr[:, :-2]
    gx[:, 0] = arr[:, 1] - arr[:, 0]
    gx[:, -1] = arr[:, -1] - arr[:, -2]
    gy = np.empty_like(arr)
    gy[1:-1, :] = arr[2:, :] - arr[:-2, :]
    gy[0, :] = arr[1, :] - arr[0, :]
    gy[-1, :] = arr[-1, :] - arr[-2, :]

    voting = ((gx != 0.0) | (gy != 0.0)).ravel()  # the others vote +0.0
    gx = gx.ravel()[voting]
    gy = gy.ravel()[voting]
    magnitude = np.hypot(gx, gy)
    angle = np.degrees(np.arctan2(gy, gx))
    angle += np.where(angle < 0.0, 180.0, np.where(angle == 180.0, -180.0, 0.0))
    position = angle / (180.0 / params.bins)
    lower = np.floor(position)
    frac = position - lower
    lo_bin = lower.astype(np.intp) % params.bins
    hi_bin = (lo_bin + 1) % params.bins

    entry = pixel_entry[voting]
    size = n_cy * n_cx * params.bins
    hist = np.zeros(size)  # a bincount of no votes is integer
    hist += np.bincount(entry + lo_bin, weights=magnitude * (1.0 - frac), minlength=size)
    hist += np.bincount(entry + hi_bin, weights=magnitude * frac, minlength=size)
    return hist.reshape(n_cy, n_cx, params.bins)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """sqrt(row @ row + eps^2) of each row, as a column."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0] + L2HYS_EPS**2)


def hog(img: np.ndarray, params: HogParams = DEFAULT_HOG) -> np.ndarray:
    """HOG descriptor of a grayscale image compatible with `params`."""
    hist = cell_histograms(img, params)
    _, block_entries = _layout(*np.shape(img), params)
    blocks = hist.ravel()[block_entries]
    v = np.minimum(blocks / _row_norms(blocks), L2HYS_CLIP)
    return (v / _row_norms(v)).ravel()


def scalar_features(mask: np.ndarray) -> ScalarFeatures:
    """Ink counts in the upper/lower halves plus the word's width.

    `mask` is the ink cut to the word box, so `length` (its width) is the
    pre-resize word-box width.  For odd heights the middle row belongs to
    the lower half.
    """
    arr = np.asarray(mask)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"expected a nonempty 2-D mask, got shape {arr.shape}")
    arr = arr.astype(bool, copy=False)
    half = arr.shape[0] // 2
    return ScalarFeatures(int(arr[:half].sum()), int(arr[half:].sum()), arr.shape[1])


def word_feature_length(include_scalars: bool = False) -> int:
    """Length of an `extract_word_features` row."""
    length = hog_length(imaging.CANONICAL_HEIGHT, imaging.CANONICAL_WIDTH)
    return length + len(ScalarFeatures._fields) if include_scalars else length


def extract_word_features(img: np.ndarray, include_scalars: bool = False) -> np.ndarray:
    """Run the preprocessing chain on a raw word image and return features.

    HOG at DEFAULT_HOG alone by default; the scalar features supplement it
    only on request (they are dominated by HOG for classification).  When
    appended, the ink counts are normalized by the cropped word area and the
    length by the canonical width, so all features stay O(1).
    """
    pre = imaging.preprocess(img)
    descriptor = hog(pre.image)
    if not include_scalars:
        return descriptor
    upper, lower, length = scalar_features(pre.ink)
    area = pre.ink.size
    extra = np.array([upper / area, lower / area, length / imaging.CANONICAL_WIDTH])
    return np.concatenate([descriptor, extra])
