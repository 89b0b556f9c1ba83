from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hwr.features import (
    DEFAULT_HOG,
    HogParams,
    cell_histograms,
    extract_word_features,
    hog,
    hog_length,
    scalar_features,
)


def _random_canonical(seed=0):
    return np.random.default_rng(seed).integers(0, 256, size=(64, 128), dtype=np.uint8)


class TestHogGeometry:
    def test_canonical_length_is_3780(self):
        assert hog_length(64, 128) == 7 * 15 * 4 * 9 == 3780
        assert hog(_random_canonical()).shape == (3780,)

    @pytest.mark.parametrize("h, w, params", [
        (32, 64, HogParams()),
        (64, 64, HogParams()),
        (48, 96, HogParams(stride=(16, 16))),
        (64, 128, HogParams(cell=(4, 4), block=(8, 8), stride=(4, 4))),
        (40, 72, HogParams(block=(8, 8), stride=(8, 8))),
    ])
    def test_length_law_other_geometries(self, h, w, params):
        n_by = (h - params.block[0]) // params.stride[0] + 1
        n_bx = (w - params.block[1]) // params.stride[1] + 1
        cells = (params.block[0] // params.cell[0]) * (params.block[1] // params.cell[1])
        expected = n_by * n_bx * cells * params.bins
        assert hog_length(h, w, params) == expected
        img = np.random.default_rng(1).integers(0, 256, size=(h, w), dtype=np.uint8)
        assert hog(img, params).shape == (expected,)

    def test_incompatible_dimensions_rejected(self):
        with pytest.raises(ValueError):
            hog(np.zeros((60, 100), dtype=np.uint8))

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            HogParams(block=(12, 12))  # not divisible by cell
        with pytest.raises(ValueError):
            HogParams(bins=1)
        with pytest.raises(ValueError):
            HogParams(stride=(4, 4))  # does not align with 8x8 cells


class TestHogValues:
    def test_constant_image_all_zero(self):
        img = np.full((64, 128), 93, dtype=np.uint8)
        assert (hog(img) == 0.0).all()

    def test_step_edge_votes_only_horizontal_bin(self):
        img = np.zeros((64, 128), dtype=np.uint8)
        img[:, 64:] = 255
        hist = cell_histograms(img)
        assert hist[..., 0].sum() > 0
        assert hist[..., 1:].sum() == 0
        descriptor = hog(img)
        assert descriptor.max() > 0

    def test_values_in_unit_interval(self):
        d = hog(_random_canonical(3))
        assert d.min() >= 0.0
        assert d.max() <= 1.0

    def test_block_norms_at_most_one(self):
        d = hog(_random_canonical(4)).reshape(-1, 36)
        norms = np.linalg.norm(d, axis=1)
        assert (norms <= 1.0 + 1e-9).all()

    def test_deterministic_bitwise(self):
        img = _random_canonical(5)
        assert np.array_equal(hog(img), hog(img))

    def test_rotation_180_preserves_cell_histogram_multiset(self):
        img = _random_canonical(6)
        h1 = cell_histograms(img).reshape(-1, 9)
        h2 = cell_histograms(np.rot90(img, 2).copy()).reshape(-1, 9)
        order1 = np.lexsort(h1.T)
        order2 = np.lexsort(h2.T)
        assert np.allclose(h1[order1], h2[order2], atol=1e-9)


class TestScalarFeatures:
    def test_all_background(self):
        got = scalar_features(np.zeros((6, 4), dtype=bool), 200)
        assert got == (0, 0, 200)

    def test_ink_only_in_upper_half(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = mask[0, 3] = mask[1, 2] = True
        assert scalar_features(mask, 17) == (3, 0, 17)

    def test_middle_row_belongs_to_lower_half(self):
        mask = np.zeros((5, 3), dtype=bool)
        mask[1, 0] = mask[2, 1] = mask[4, 2] = True
        assert scalar_features(mask, 9) == (1, 2, 9)

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.bool_, st.tuples(st.integers(1, 9), st.integers(1, 9)),
                  elements=st.booleans()))
    def test_halves_sum_to_total(self, mask):
        upper, lower, _ = scalar_features(mask, 1)
        assert upper + lower == int(mask.sum())


class TestExtractWordFeatures:
    def test_hog_only_by_default(self):
        img = np.full((40, 80), 255, dtype=np.uint8)
        img[10:30, 10:70] = 20
        assert extract_word_features(img).shape == (3780,)

    def test_scalars_appended(self):
        img = np.full((40, 80), 255, dtype=np.uint8)
        img[10:30, 10:70] = 20
        vec = extract_word_features(img, include_scalars=True)
        assert vec.shape == (3783,)
        assert (vec[-3:] >= 0.0).all()

    def test_matches_manual_chain(self):
        from hwr import imaging
        img = np.full((40, 80), 255, dtype=np.uint8)
        img[10:30, 10:70] = 20
        pre = imaging.preprocess(img)
        assert np.array_equal(extract_word_features(img), hog(pre.image, DEFAULT_HOG))
