from __future__ import annotations

import itertools

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import per_tree_predict_proba, scalar_render_mask

from hwr import forest, imaging, synth
from hwr.synth import SynthSpec, render_word, synth_generate

# the un-jittered archetype
UPRIGHT = {"thickness": 3.0, "rotation_deg": 0.0, "scale": 1.0, "shift": (0.0, 0.0)}
CLASSES = range(1, 15)
# the jitter's extremes, with shifts of up to 20 px that run strokes off every edge and corner
EXTREMES = [(rotation, scale, shift) for rotation in (-5.0, 5.0) for scale in (0.9, 1.1)
            for shift in itertools.product((-20.0, -4.0, 4.0, 20.0), repeat=2)]


def _ulps(x: float) -> list[float]:
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


# the pen disc's shape changes at r = 1, sqrt(2), 2 and sqrt(5) (below r = 1 it is one pixel)
DISC_EDGES = [t for edge in (2.0, 2 * math.sqrt(2), 4.0, 2 * math.sqrt(5)) for t in _ulps(edge)]
THICKNESSES = [1.5, *DISC_EDGES, np.nextafter(5.0, -math.inf)]


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(per_class=0, seed=0)

    def test_defaults(self):
        assert synth.CANVAS == (64, 192)
        assert synth.SALT == 0.002
        assert synth.ROTATION_DEG == 5.0
        assert synth.SCALE_RANGE == (0.9, 1.1)
        assert synth.TRANSLATE_PX == 4.0
        assert synth.THICKNESS_RANGE == (2.0, 5.0)


class TestGeneration:
    def test_784_images_for_per_class_56(self, tmp_path):
        spec = SynthSpec(per_class=56, seed=42)
        manifest = synth_generate(spec, tmp_path / "imgs")
        assert len(manifest) == 784
        assert (tmp_path / "imgs" / "manifest.csv").exists()
        labels = manifest.labels()
        assert (np.bincount(labels, minlength=15)[1:] == 56).all()

    def test_byte_identical_per_seed(self, tmp_path):
        spec = SynthSpec(per_class=2, seed=7)
        a = synth_generate(spec, tmp_path / "a")
        b = synth_generate(spec, tmp_path / "b")
        for (rel_a, _), (rel_b, _) in zip(a.records, b.records):
            assert (tmp_path / "a" / rel_a).read_bytes() == (tmp_path / "b" / rel_b).read_bytes()

    def test_different_seed_differs(self):
        spec7 = SynthSpec(per_class=1, seed=7)
        spec8 = SynthSpec(per_class=1, seed=8)
        assert not np.array_equal(render_word(1, spec7, 0), render_word(1, spec8, 0))

    def test_images_decode_and_preprocess(self, tmp_path):
        spec = SynthSpec(per_class=1, seed=3)
        manifest = synth_generate(spec, tmp_path / "imgs")
        for path in manifest.paths():
            img = imaging.read_pgm(path)
            assert img.shape == synth.CANVAS
            assert imaging.preprocess(img).image.shape == (64, 128)


class TestArchetypes:
    def test_pairwise_distinct_at_least_5_percent(self):
        masks = {c: synth._render_mask(c, **UPRIGHT) for c in range(1, 15)}
        n_pixels = masks[1].size
        for a, b in itertools.combinations(range(1, 15), 2):
            diff = (masks[a] != masks[b]).sum() / n_pixels
            assert diff >= 0.05, f"archetypes {a} and {b} differ in only {diff:.1%}"

    def test_every_class_has_ink(self):
        for c in range(1, 15):
            assert synth._render_mask(c, **UPRIGHT).sum() > 200

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            synth._render_mask(15, **UPRIGHT)


class TestRenderMatchesScalarReference:
    """The one dilation draws, byte for byte, what stamping the pen disc once per
    offset and dropping the pixels off the canvas draws."""

    @staticmethod
    def assert_same(class_id, thickness, rotation_deg, scale, shift):
        args = (class_id, thickness, rotation_deg, scale, shift)
        got, want = synth._render_mask(*args), scalar_render_mask(*args)
        assert got.dtype == want.dtype and got.shape == want.shape, args
        assert got.tobytes() == want.tobytes(), args

    @pytest.mark.parametrize("class_id", CLASSES)
    def test_every_class_at_the_extremes_of_the_jitter(self, class_id):
        for thickness in (DISC_EDGES[0], DISC_EDGES[-1]):
            for rotation, scale, shift in EXTREMES:
                self.assert_same(class_id, thickness, rotation, scale, shift)

    @pytest.mark.parametrize("thickness", THICKNESSES)
    def test_every_class_on_each_edge_of_the_disc(self, thickness):
        for class_id in CLASSES:
            self.assert_same(class_id, thickness, 0.0, 1.0, (0.0, 0.0))
            for shift in itertools.product((-20.0, 20.0), repeat=2):
                self.assert_same(class_id, thickness, 5.0, 1.1, shift)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(CLASSES), st.floats(1.0, 5.0), st.floats(-5.0, 5.0),
           st.floats(0.9, 1.1), st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)))
    def test_any_jitter(self, class_id, thickness, rotation_deg, scale, shift):
        self.assert_same(class_id, thickness, rotation_deg, scale, shift)

    def test_seeded_draws(self):
        spec = SynthSpec(per_class=3, seed=42)
        for class_id in CLASSES:
            for index in range(spec.per_class):
                gen = np.random.default_rng([spec.seed, class_id, index])
                rotation = gen.uniform(-synth.ROTATION_DEG, synth.ROTATION_DEG)
                scale = gen.uniform(*synth.SCALE_RANGE)
                shift = tuple(gen.uniform(-synth.TRANSLATE_PX, synth.TRANSLATE_PX, size=2))
                thickness = gen.uniform(*synth.THICKNESS_RANGE)
                self.assert_same(class_id, thickness, rotation, scale, shift)


class TestNoInkPastTheCanvas:
    @pytest.mark.parametrize("class_id", CLASSES)
    def test_no_border_ink_that_the_stamp_leaves_blank(self, class_id):
        border = np.ones(synth.CANVAS, dtype=bool)
        border[1:-1, 1:-1] = False
        for thickness in (DISC_EDGES[0], THICKNESSES[-1]):
            for rotation, scale, shift in EXTREMES:
                args = (class_id, thickness, rotation, scale, shift)
                extra = synth._render_mask(*args) & ~scalar_render_mask(*args) & border
                assert not extra.any(), (args, np.argwhere(extra)[:5].tolist())

    def test_a_word_carried_off_the_canvas_leaves_no_ink(self):
        for dx, dy in [(-200.0, 0.0), (200.0, 0.0), (0.0, -80.0), (0.0, 80.0)]:
            assert not synth._render_mask(5, 4.0, 0.0, 1.0, (dx, dy)).any()


class TestClassPoints:
    @pytest.mark.parametrize("class_id", CLASSES)
    def test_cached_and_read_only(self, class_id):
        points = synth._class_points(class_id)
        assert synth._class_points(class_id) is points
        assert points.ndim == 2 and points.shape[1] == 2 and not points.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            points[0, 0] = 0.0
        assert synth._class_points.cache_info().currsize <= len(CLASSES)

    def test_a_render_leaves_them_unchanged(self):
        before = synth._class_points(3).copy()
        synth._render_mask(3, 4.0, 5.0, 1.1, (20.0, -20.0))
        assert synth._class_points(3).tobytes() == before.tobytes()


class TestLearnability:
    def test_tree_beats_chance_on_raw_pixels(self, small_synth):
        # raw 64x128 pixels, one unpruned tree: must beat 1/14 chance
        X = np.array([
            imaging.preprocess(imaging.read_pgm(p)).image.ravel()
            for p in small_synth.paths()
        ], dtype=np.float64)
        labels = small_synth.labels()
        train_mask = np.arange(len(labels)) % 2 == 0
        tree = forest.grow_tree(X[train_mask], labels[train_mask], tree_seed=0)
        model = forest.ForestModel.from_preorder(*tree, d=X.shape[1], seed=0)
        predictions = np.argmax(per_tree_predict_proba(model, X[~train_mask]), axis=1) + 1
        accuracy = (predictions == labels[~train_mask]).mean()
        assert accuracy > 1 / 14
