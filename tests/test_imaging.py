from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hwr import imaging
from hwr.imaging import (
    NoInkError,
    PgmError,
    Rect,
    binarize_otsu,
    bounding_box,
    crop,
    decode_pgm,
    dilate,
    encode_pgm,
    otsu_threshold,
    preprocess,
    resize_bicubic,
)

gray_images = arrays(
    np.uint8,
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
    elements=st.integers(0, 255),
)

masks = arrays(
    np.bool_,
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
    elements=st.booleans(),
)


class TestPgm:
    def test_decode_direct_encoding(self):
        data = b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64])
        img = decode_pgm(data)
        assert img.shape == (2, 2)
        assert img.tolist() == [[0, 255], [128, 64]]

    def test_decode_minimal_image(self):
        img = decode_pgm(b"P5\n1 1\n255\n" + bytes([7]))
        assert img.shape == (1, 1)
        assert img[0, 0] == 7

    def test_truncated_pixel_data(self):
        data = b"P5\n4 4\n255\n" + bytes(8)
        with pytest.raises(PgmError, match="truncated"):
            decode_pgm(data)

    def test_bad_magic(self):
        with pytest.raises(PgmError, match="magic"):
            decode_pgm(b"P6\n1 1\n255\n\x00")

    def test_bad_maxval(self):
        with pytest.raises(PgmError, match="maxval"):
            decode_pgm(b"P5\n1 1\n65535\n\x00\x00")

    def test_header_comments_allowed(self):
        img = decode_pgm(b"P5\n# a comment\n2 1\n255\n\x01\x02")
        assert img.tolist() == [[1, 2]]

    def test_trailing_bytes_rejected(self):
        with pytest.raises(PgmError, match="trailing"):
            decode_pgm(b"P5\n1 1\n255\n\x00\x00")

    @settings(max_examples=50, deadline=None)
    @given(gray_images)
    def test_round_trip(self, img):
        assert np.array_equal(decode_pgm(encode_pgm(img)), img)


class TestOtsu:
    def test_bimodal_perfectly_separated(self):
        img = np.array([[10] * 8, [240] * 8], dtype=np.uint8)
        ink = binarize_otsu(img)
        assert ink[0].all() and not ink[1].any()

    def test_constant_image_all_background(self):
        img = np.full((4, 5), 200, dtype=np.uint8)
        assert not binarize_otsu(img).any()

    def test_six_pixel_example(self):
        img = np.array([[0, 0, 0, 255, 255, 255]], dtype=np.uint8)
        assert binarize_otsu(img).sum() == 3

    @staticmethod
    def _exhaustive_otsu(img: np.ndarray) -> int:
        """Independent oracle: scan all 256 thresholds by definition."""
        values = img.ravel().astype(float)
        best_t, best_var = 0, -1.0
        for t in range(256):
            lo = values[values < t]
            hi = values[values >= t]
            if lo.size == 0 or hi.size == 0:
                var = 0.0
            else:
                w0, w1 = lo.size, hi.size
                var = w0 * w1 * (lo.mean() - hi.mean()) ** 2
            if var > best_var:
                best_t, best_var = t, var
        return best_t

    @settings(max_examples=30, deadline=None)
    @given(gray_images)
    def test_matches_exhaustive_scan(self, img):
        assert otsu_threshold(img) == self._exhaustive_otsu(img)


class TestDilate:
    def test_radius_zero_identity(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 2] = True
        assert np.array_equal(dilate(mask, 0), mask)

    def test_single_pixel_becomes_square(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 2] = True
        out = dilate(mask, 1)
        expected = np.zeros((5, 5), dtype=bool)
        expected[1:4, 1:4] = True
        assert np.array_equal(out, expected)

    def test_two_pixels_merge(self):
        mask = np.zeros((5, 8), dtype=bool)
        mask[2, 2] = mask[2, 5] = True
        out = dilate(mask, 1)
        # independent oracle: direct evaluation of the neighborhood rule
        expected = np.zeros_like(mask)
        for r in range(5):
            for c in range(8):
                window = mask[max(0, r - 1):r + 2, max(0, c - 1):c + 2]
                expected[r, c] = window.any()
        assert np.array_equal(out, expected)
        assert out[1:4, 1:7].all()  # merged 3x5 region

    @settings(max_examples=40, deadline=None)
    @given(masks, st.integers(0, 3))
    def test_monotone(self, mask, radius):
        out = dilate(mask, radius)
        assert (out | mask == out).all()

    @settings(max_examples=30, deadline=None)
    @given(masks, st.integers(0, 2), st.integers(0, 2))
    def test_composition_bounded_by_sum(self, mask, r1, r2):
        twice = dilate(dilate(mask, r1), r2)
        once = dilate(mask, r1 + r2)
        assert (twice & ~once).sum() == 0

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            dilate(np.ones((2, 2), dtype=bool), -1)


class TestBoundingBox:
    def test_single_pixel(self):
        mask = np.zeros((5, 6), dtype=bool)
        mask[2, 3] = True
        assert bounding_box(mask) == Rect(2, 3, 1, 1)

    def test_corner_extremes(self):
        mask = np.zeros((5, 8), dtype=bool)
        mask[0, 0] = mask[4, 7] = True
        assert bounding_box(mask) == Rect(0, 0, 5, 8)

    def test_empty_raises(self):
        with pytest.raises(NoInkError):
            bounding_box(np.zeros((3, 3), dtype=bool))

    @settings(max_examples=40, deadline=None)
    @given(masks, st.integers(0, 2))
    def test_dilated_box_contains_original(self, mask, radius):
        if not mask.any():
            return
        inner = bounding_box(mask)
        outer = bounding_box(dilate(mask, radius))
        assert outer.top <= inner.top and outer.left <= inner.left
        assert outer.top + outer.height >= inner.top + inner.height
        assert outer.left + outer.width >= inner.left + inner.width


class TestCrop:
    def test_full_image(self):
        img = np.arange(12, dtype=np.uint8).reshape(3, 4)
        assert np.array_equal(crop(img, Rect(0, 0, 3, 4)), img)

    def test_single_pixel(self):
        img = np.arange(12, dtype=np.uint8).reshape(3, 4)
        assert crop(img, Rect(0, 0, 1, 1)).tolist() == [[0]]

    def test_out_of_bounds(self):
        img = np.zeros((3, 4), dtype=np.uint8)
        with pytest.raises(ValueError, match="bounds"):
            crop(img, Rect(0, 2, 2, 3))


def _cubic(x: float, a: float = -0.5) -> float:
    x = abs(x)
    if x <= 1:
        return (a + 2) * x**3 - (a + 3) * x**2 + 1
    if x < 2:
        return a * (x**3 - 5 * x**2 + 8 * x - 4)
    return 0.0


def _bicubic_point(img: np.ndarray, sy: float, sx: float) -> float:
    """Scalar reference evaluation with clamped taps."""
    h, w = img.shape
    total = 0.0
    for ty in range(int(np.floor(sy)) - 1, int(np.floor(sy)) + 3):
        wy = _cubic(sy - ty)
        for tx in range(int(np.floor(sx)) - 1, int(np.floor(sx)) + 3):
            wx = _cubic(sx - tx)
            total += wy * wx * float(img[min(max(ty, 0), h - 1), min(max(tx, 0), w - 1)])
    return total


class TestResizeBicubic:
    def test_constant_stays_constant(self):
        img = np.full((5, 7), 77, dtype=np.uint8)
        out = resize_bicubic(img, 9, 13)
        assert out.shape == (9, 13)
        assert (out == 77).all()

    def test_identity_size_reproduces_input(self):
        gen = np.random.default_rng(0)
        img = gen.integers(0, 256, size=(6, 9), dtype=np.uint8)
        assert np.array_equal(resize_bicubic(img, 6, 9), img)

    def test_ramp_upscale_matches_hand_evaluation(self):
        img = (np.arange(4, dtype=np.uint8) * 60)[None, :].repeat(4, axis=0)
        out = resize_bicubic(img, 8, 8)
        # monotone along the ramp axis
        assert (np.diff(out.astype(int), axis=1) >= 0).all()
        # hand-evaluated kernel at 3 sample points
        for j in (1, 4, 6):
            sx = (j + 0.5) * 4 / 8 - 0.5
            expected = np.floor(min(max(_bicubic_point(img, 0.0, sx), 0.0), 255.0) + 0.5)
            assert out[0, j] == expected

    @settings(max_examples=30, deadline=None)
    @given(gray_images, st.integers(1, 10), st.integers(1, 10))
    def test_output_shape_and_range(self, img, out_h, out_w):
        out = resize_bicubic(img, out_h, out_w)
        assert out.shape == (out_h, out_w)
        assert out.dtype == np.uint8

    def test_rejects_empty_target(self):
        with pytest.raises(ValueError):
            resize_bicubic(np.zeros((2, 2), dtype=np.uint8), 0, 4)


class TestPreprocess:
    def test_chain_yields_canonical_raster(self):
        img = np.full((50, 90), 250, dtype=np.uint8)
        img[20:30, 10:70] = 15
        pre = preprocess(img)
        assert pre.image.shape == (64, 128)
        assert pre.box.height >= 10 and pre.box.width >= 60

    @settings(max_examples=25, deadline=None)
    @given(arrays(np.uint8, st.tuples(st.integers(8, 20), st.integers(8, 20)),
                  elements=st.integers(0, 255)))
    def test_chain_total_on_inked_images(self, img):
        if not binarize_otsu(img).any():
            return
        assert preprocess(img).image.shape == (64, 128)

    def test_no_ink_raises(self):
        with pytest.raises(NoInkError):
            preprocess(np.full((10, 10), 99, dtype=np.uint8))
