from __future__ import annotations

import itertools

import numpy as np
import pytest
from oracles import per_tree_predict_proba

from hwr import forest, imaging, synth
from hwr.synth import SynthSpec, render_word, synth_generate

# the un-jittered archetype
UPRIGHT = {"thickness": 3.0, "rotation_deg": 0.0, "scale": 1.0, "shift": (0.0, 0.0)}


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
