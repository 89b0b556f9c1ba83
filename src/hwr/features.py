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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
    if height % params.cell[0] or width % params.cell[1]:
        raise ValueError(f"image {height}x{width} not divisible into {params.cell} cells")
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

    gx = np.empty_like(arr)
    gx[:, 1:-1] = arr[:, 2:] - arr[:, :-2]
    gx[:, 0] = arr[:, 1] - arr[:, 0]
    gx[:, -1] = arr[:, -1] - arr[:, -2]
    gy = np.empty_like(arr)
    gy[1:-1, :] = arr[2:, :] - arr[:-2, :]
    gy[0, :] = arr[1, :] - arr[0, :]
    gy[-1, :] = arr[-1, :] - arr[-2, :]

    magnitude = np.hypot(gx, gy)
    angle = np.degrees(np.arctan2(gy, gx)) % 180.0
    position = angle / (180.0 / params.bins)
    lower = np.floor(position)
    frac = position - lower
    lo_bin = lower.astype(np.intp) % params.bins
    hi_bin = (lo_bin + 1) % params.bins

    ch, cw = params.cell
    cell_idx = (np.arange(h)[:, None] // ch) * n_cx + (np.arange(w)[None, :] // cw)
    size = n_cy * n_cx * params.bins
    hist = np.bincount((cell_idx * params.bins + lo_bin).ravel(),
                       weights=(magnitude * (1.0 - frac)).ravel(), minlength=size)
    hist += np.bincount((cell_idx * params.bins + hi_bin).ravel(),
                        weights=(magnitude * frac).ravel(), minlength=size)
    return hist.reshape(n_cy, n_cx, params.bins)


def _l2hys(block: np.ndarray) -> np.ndarray:
    v = block / np.sqrt(block @ block + L2HYS_EPS**2)
    v = np.minimum(v, L2HYS_CLIP)
    return v / np.sqrt(v @ v + L2HYS_EPS**2)


def hog(img: np.ndarray, params: HogParams = DEFAULT_HOG) -> np.ndarray:
    """HOG descriptor of a grayscale image compatible with `params`."""
    arr = np.asarray(img)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {arr.shape}")
    h, w = arr.shape
    n_by, n_bx, _, _ = _grid_shape(h, w, params)
    hist = cell_histograms(arr, params)
    bh_c = params.block[0] // params.cell[0]
    bw_c = params.block[1] // params.cell[1]
    sh_c = params.stride[0] // params.cell[0]
    sw_c = params.stride[1] // params.cell[1]
    blocks = []
    for by in range(n_by):
        for bx in range(n_bx):
            y0, x0 = by * sh_c, bx * sw_c
            block = hist[y0:y0 + bh_c, x0:x0 + bw_c, :].ravel()
            blocks.append(_l2hys(block))
    return np.concatenate(blocks)


def scalar_features(mask: np.ndarray, original_width: int) -> ScalarFeatures:
    """Ink counts in the upper/lower halves plus the original word width.

    For odd heights the middle row belongs to the lower half.  `length` is the
    pre-resize bounding-box width.
    """
    arr = np.asarray(mask)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"expected a nonempty 2-D mask, got shape {arr.shape}")
    if original_width < 0:
        raise ValueError(f"original_width must be >= 0, got {original_width}")
    arr = arr.astype(bool, copy=False)
    half = arr.shape[0] // 2
    return ScalarFeatures(int(arr[:half].sum()), int(arr[half:].sum()), int(original_width))


def extract_word_features(
    img: np.ndarray,
    params: HogParams = DEFAULT_HOG,
    include_scalars: bool = False,
) -> np.ndarray:
    """Run the preprocessing chain on a raw word image and return features.

    HOG alone by default; the scalar features supplement it only on request
    (they are dominated by HOG for classification).  When appended, the ink
    counts are normalized by the cropped word area and the length by the
    canonical width, so all features stay O(1).
    """
    pre = imaging.preprocess(img)
    descriptor = hog(pre.image, params)
    if not include_scalars:
        return descriptor
    upper, lower, length = scalar_features(pre.ink, pre.box.width)
    area = pre.ink.size
    extra = np.array([upper / area, lower / area, length / imaging.CANONICAL_WIDTH])
    return np.concatenate([descriptor, extra])
