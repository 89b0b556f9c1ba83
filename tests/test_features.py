from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import scalar_cell_histograms, scalar_hog

from hwr import features, imaging
from hwr.features import (
    DEFAULT_HOG,
    HogParams,
    cell_histograms,
    extract_word_features,
    hog,
    hog_length,
    scalar_features,
    word_feature_length,
)
from hwr.labels import N_CLASSES
from hwr.synth import SynthSpec, render_word


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

    @pytest.mark.parametrize("h, w, params", [
        (64, 128, DEFAULT_HOG),
        (32, 64, HogParams()),
        (64, 64, HogParams()),
        (48, 96, HogParams(stride=(16, 16))),
        (64, 128, HogParams(cell=(4, 4), block=(8, 8), stride=(4, 4))),
        (40, 72, HogParams(block=(8, 8), stride=(8, 8))),
    ])
    def test_size_off_the_cell_grid_does_not_tile(self, h, w, params):
        """Block and stride are whole cells, so a size the stride tiles is whole cells too:
        each size off the cell grid, but not below a block, fails the stride check."""
        (ch, cw), (bh, bw) = params.cell, params.block
        heights = [y for y in range(bh, h + 2 * ch) if y % ch]
        widths = [x for x in range(bw, w + 2 * cw) if x % cw]
        sizes = [(y, w) for y in heights] + [(h, x) for x in widths] + list(zip(heights, widths))
        assert heights and widths
        for y, x in sizes:
            message = f"block stride {params.stride} does not tile a {y}x{x} image"
            with pytest.raises(ValueError) as info:
                hog_length(y, x, params)
            assert str(info.value) == message
            with pytest.raises(ValueError) as info:
                hog(np.zeros((y, x), dtype=np.uint8), params)
            assert str(info.value) == message

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
        got = scalar_features(np.zeros((6, 200), dtype=bool))
        assert got == (0, 0, 200)

    def test_ink_only_in_upper_half(self):
        mask = np.zeros((4, 17), dtype=bool)
        mask[0, 0] = mask[0, 3] = mask[1, 2] = True
        assert scalar_features(mask) == (3, 0, 17)

    def test_middle_row_belongs_to_lower_half(self):
        mask = np.zeros((5, 9), dtype=bool)
        mask[1, 0] = mask[2, 1] = mask[4, 2] = True
        assert scalar_features(mask) == (1, 2, 9)

    # Empty 2-D masks kill the ``or`` -> ``and`` mutant of the check, nonempty masks
    # of another rank the ``raise`` -> ``pass`` one, and all of them both.
    @pytest.mark.parametrize("shape", [(0, 5), (3, 0), (0, 0), (5,), (2, 2, 2), ()])
    def test_empty_or_not_2d_mask_refused(self, shape):
        with pytest.raises(ValueError, match=r"^expected a nonempty 2-D mask, got shape "):
            scalar_features(np.ones(shape, dtype=bool))

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.bool_, st.tuples(st.integers(1, 9), st.integers(1, 9)),
                  elements=st.booleans()))
    def test_halves_sum_to_total(self, mask):
        upper, lower, _ = scalar_features(mask)
        assert upper + lower == int(mask.sum())


class TestExtractWordFeatures:
    def test_hog_only_by_default(self):
        img = np.full((40, 80), 255, dtype=np.uint8)
        img[10:30, 10:70] = 20
        assert extract_word_features(img).shape == (3780,) == (word_feature_length(),)

    def test_scalars_appended(self):
        img = np.full((40, 80), 255, dtype=np.uint8)
        img[10:30, 10:70] = 20
        vec = extract_word_features(img, include_scalars=True)
        assert vec.shape == (3783,) == (word_feature_length(include_scalars=True),)
        assert (vec[-3:] >= 0.0).all()

    def test_matches_manual_chain(self):
        img = np.full((40, 80), 255, dtype=np.uint8)
        img[10:30, 10:70] = 20
        pre = imaging.preprocess(img)
        assert np.array_equal(extract_word_features(img), hog(pre.image, DEFAULT_HOG))


def _on_paper(img: np.ndarray, margins: tuple[int, int, int, int],
              shift: tuple[int, int]) -> np.ndarray:
    """A synthetic word on white paper grown by (top, bottom, left, right) margins,
    its ink box moved by shift (dy, dx); outside that box the word is all 255."""
    ys, xs = np.nonzero(img < 255)
    top, left = ys.min(), xs.min()
    word = img[top:ys.max() + 1, left:xs.max() + 1]
    page = np.full((img.shape[0] + margins[0] + margins[1],
                    img.shape[1] + margins[2] + margins[3]), 255, dtype=np.uint8)
    top += margins[0] + shift[0]
    left += margins[2] + shift[1]
    page[top:top + word.shape[0], left:left + word.shape[1]] = word
    return page


def _shift_keeping_ink(img: np.ndarray, dy: float, dx: float) -> tuple[int, int]:
    """The shift that moves the ink box the fractions dy, dx in [0, 1] of the way
    from the canvas's top left corner to its bottom right one."""
    ys, xs = np.nonzero(img < 255)
    h, w = img.shape
    return (round(-ys.min() + dy * (h - 1 - ys.max() + ys.min())),
            round(-xs.min() + dx * (w - 1 - xs.max() + xs.min())))


def _assert_margin_and_shift_free(img, margins, shift):
    moved = _on_paper(img, margins, shift)
    for include_scalars in (False, True):
        got = extract_word_features(moved, include_scalars)
        want = extract_word_features(img, include_scalars)
        assert got.tobytes() == want.tobytes(), (margins, shift, include_scalars)


class TestWordFeaturesIgnoreThePaper:
    """Features of a synthetic word do not depend on the white paper around it:
    neither on a margin of 0-20 px per side nor on a shift that keeps all ink."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 14), st.integers(0, 2**32 - 1), st.integers(0, 999),
           st.tuples(*[st.integers(0, 20)] * 4), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_any_word_margin_and_shift(self, class_id, seed, index, margins, dy, dx):
        img = render_word(class_id, SynthSpec(per_class=1, seed=seed), index)
        _assert_margin_and_shift_free(img, margins, _shift_keeping_ink(img, dy, dx))

    @pytest.mark.parametrize("seed", [42, 7])
    def test_corpus(self, seed):
        spec = SynthSpec(per_class=56, seed=seed)
        draws = np.random.default_rng(seed)
        for class_id in range(1, N_CLASSES + 1):
            for index in range(spec.per_class):
                img = render_word(class_id, spec, index)
                margins = tuple(draws.integers(0, 21, size=4))
                shift = _shift_keeping_ink(img, *draws.random(2))
                _assert_margin_and_shift_free(img, margins, shift)


# Geometries other than the default, with bin counts that do and do not divide 180.
OTHER_GEOMETRIES = [
    (48, 96, HogParams(stride=(16, 16))),
    (64, 128, HogParams(cell=(4, 4), block=(8, 8), stride=(4, 4))),
    (40, 72, HogParams(block=(8, 8), stride=(8, 8), bins=12)),
    (36, 60, HogParams(cell=(6, 6), block=(18, 12), stride=(6, 6), bins=7)),
]


def _same_bytes(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _image(kind: str, h: int, w: int, seed: int) -> np.ndarray:
    gen = np.random.default_rng(seed)
    if kind == "uint8":
        return gen.integers(0, 256, size=(h, w), dtype=np.uint8)
    if kind == "normal":
        return gen.normal(size=(h, w))
    if kind == "signed-zero":  # every pixel +0.0 or -0.0, a few set to +-1
        img = np.where(gen.random((h, w)) < 0.5, -0.0, 0.0)
        img[gen.random((h, w)) < 0.05] = gen.choice([-1.0, 1.0])
        return img
    return np.add.outer(np.arange(h) * 0.25, np.arange(w) * -1.5)  # ramp


def _angle_hazards(h: int, w: int, seed: int) -> np.ndarray:
    """Even rows ramp along x; odd rows are signed zeros and signed subnormals.

    An even row's pixels then see a vertical difference of +0.0, -0.0 or
    +-tiny, so their angles are exactly 0, 180 or -180, or -tiny (whose sum
    with 180 rounds to 180.0).
    """
    gen = np.random.default_rng(seed)
    img = np.empty((h, w))
    img[0::2] = np.arange(w) * gen.choice([-1.0, 1.0], size=(h + 1) // 2)[:, None]
    img[1::2] = gen.choice([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300], size=(h // 2, w))
    return img


def _interior_angles(img: np.ndarray) -> np.ndarray:
    gx = img[1:-1, 2:] - img[1:-1, :-2]
    gy = img[2:, 1:-1] - img[:-2, 1:-1]
    return np.degrees(np.arctan2(gy, gx))


def _voting(img: np.ndarray) -> np.ndarray:
    """Where the gradient is nonzero; np.gradient has the same zeros for normal values."""
    gy, gx = np.gradient(np.asarray(img, dtype=np.float64))
    return (gx != 0.0) | (gy != 0.0)


def _sparse_votes(n: int, values: np.ndarray) -> np.ndarray:
    """A 64x128 zero raster in which exactly n pixels vote, n = 0 or n >= 3.

    Bumps cast the votes: two at a corner (5 pixels), one at a corner (3),
    one inside (4), and two diagonal neighbours inside (6, two of them at
    angles off the axes); their heights are taken from `values` in turn.
    No raster has exactly 1 or 2 voting pixels: a row whose centered
    differences with replicated edges vanish except at one or two pixels
    is constant, and so would be the columns across it.
    """
    if n in (1, 2):
        raise ValueError(f"no raster has {n} voting pixels")
    img = np.zeros((64, 128))
    heights = iter(values)
    sizes = [6] * (n // 6) + [[], [3, 4], [4, 4], [3], [4], [5]][n % 6]
    if n % 6 in (1, 2):
        sizes.remove(6)
    inside = ((4 + 6 * (k // 18), 4 + 6 * (k % 18)) for k in range(len(sizes)))
    for size in sizes:
        if size == 5:
            img[0, 0] = img[0, 1] = next(heights)
        elif size == 3:
            img[63, 127] = next(heights)
        else:
            r, c = next(inside)
            img[r, c] = next(heights)
            if size == 6:
                img[r + 1, c + 1] = next(heights)
    return img


class TestHogMatchesScalarReference:
    """hog and cell_histograms give the per-block reference's bytes."""

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_canonical_images(self, seed):
        img = _random_canonical(100 + seed)
        assert _same_bytes(cell_histograms(img), scalar_cell_histograms(img))
        assert _same_bytes(hog(img), scalar_hog(img))
        floats = np.random.default_rng(seed).normal(scale=40.0, size=(64, 128))
        assert _same_bytes(hog(floats), scalar_hog(floats))

    def test_word_images(self, small_synth):
        for path in small_synth.paths()[:20]:
            canonical = imaging.preprocess(imaging.read_pgm(path)).image
            assert _same_bytes(hog(canonical), scalar_hog(canonical))

    @pytest.mark.parametrize("kind", ["uint8", "normal", "signed-zero", "ramp"])
    @pytest.mark.parametrize("h, w, params", [(64, 128, DEFAULT_HOG)] + OTHER_GEOMETRIES)
    def test_geometries(self, h, w, params, kind):
        for seed in range(4):
            img = _image(kind, h, w, seed)
            assert _same_bytes(cell_histograms(img, params), scalar_cell_histograms(img, params))
            assert _same_bytes(hog(img, params), scalar_hog(img, params))

    # With 161 bins, 180 / (180 / bins) is not 161: an angle of 180.0 votes
    # differently from 0.0, so the fold must keep numpy's choice between them.
    @pytest.mark.parametrize("h, w, params", [(64, 128, DEFAULT_HOG)] + OTHER_GEOMETRIES
                             + [(16, 32, HogParams(bins=161))])
    def test_angles_on_the_fold(self, h, w, params):
        for seed in range(4):
            img = _angle_hazards(h, w, seed)
            angles = _interior_angles(img)
            assert (angles == 180.0).any() and (angles == -180.0).any()
            assert (angles == 0.0).any()
            assert ((angles < 0.0) & (angles + 180.0 == 180.0)).any()
            assert _same_bytes(cell_histograms(img, params), scalar_cell_histograms(img, params))
            assert _same_bytes(hog(img, params), scalar_hog(img, params))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(16, 16), (16, 24), (24, 40)]).flatmap(
        lambda shape: arrays(np.uint8, shape, elements=st.integers(0, 255))))
    def test_hypothesis_uint8(self, img):
        assert _same_bytes(hog(img), scalar_hog(img))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(16, 16), (24, 16), (24, 32)]).flatmap(
        lambda shape: arrays(np.float64, shape, elements=st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)))))
    def test_hypothesis_float(self, img):
        assert _same_bytes(cell_histograms(img), scalar_cell_histograms(img))
        assert _same_bytes(hog(img), scalar_hog(img))

    # The votes of the pixels with a nonzero gradient are computed as short
    # arrays; lengths 0 and 3 to 34 take every remainder modulo 32.
    @pytest.mark.parametrize("n", [0] + list(range(3, 35)))
    def test_rasters_with_few_votes(self, n):
        for seed in range(3):
            img = _sparse_votes(n, np.random.default_rng(seed).normal(scale=40.0, size=n))
            assert _voting(img).sum() == n
            assert _same_bytes(cell_histograms(img), scalar_cell_histograms(img))
            assert _same_bytes(hog(img), scalar_hog(img))

    def test_only_denormal_gradients(self):
        gen = np.random.default_rng(7)
        img = _sparse_votes(34, gen.choice([5e-324, -5e-324, 3e-320, -2e-310], size=34))
        assert 0 < np.abs(img).max() < np.finfo(np.float64).tiny
        assert _same_bytes(cell_histograms(img), scalar_cell_histograms(img))
        assert _same_bytes(hog(img), scalar_hog(img))

    def test_signed_zero_beside_a_nonzero_component(self):
        gen = np.random.default_rng(8)
        img = np.where(gen.random((64, 128)) < 0.5, -0.0, 0.0)
        img[4:60:6, 4:124:6] = gen.choice([-3.0, 2.5, 1e-300], size=(10, 20))
        gy, gx = np.gradient(img)
        votes = _voting(img)
        for zero, other in ((gx, gy), (gy, gx)):
            assert (votes & (zero == 0.0) & np.signbit(zero) & (other != 0.0)).any()
            assert (votes & (zero == 0.0) & ~np.signbit(zero) & (other != 0.0)).any()
        assert _same_bytes(cell_histograms(img), scalar_cell_histograms(img))
        assert _same_bytes(hog(img), scalar_hog(img))

    def test_every_pixel_votes(self):
        img = np.random.default_rng(9).normal(scale=40.0, size=(64, 128))
        assert _voting(img).all()
        assert _same_bytes(cell_histograms(img), scalar_cell_histograms(img))
        assert _same_bytes(hog(img), scalar_hog(img))


class TestLayoutCache:
    def test_indices_are_read_only_and_the_cache_bounded(self):
        assert features._layout.cache_info().maxsize is not None
        for index in features._layout(64, 128, DEFAULT_HOG):
            assert not index.flags.writeable
            with pytest.raises(ValueError):
                index[0] = 1
