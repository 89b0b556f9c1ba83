from __future__ import annotations

import difflib

import numpy as np
import pytest

from hwr import forest, labels, mlp, svm
from hwr.labels import (
    N_CLASSES,
    class_ids,
    district_codepoints,
    label_to_unicode,
    unicode_to_label,
)

# Independently transcribed codepoint table (id -> hex sequence).
EXPECTED_CODEPOINTS = {
    1: "0D15 0D3E 0D38 0D7C 0D15 0D4B 0D1F 0D4D",
    2: "0D15 0D23 0D4D 0D23 0D42 0D7C",
    3: "0D35 0D2F 0D28 0D3E 0D1F 0D4D",
    4: "0D15 0D4B 0D34 0D3F 0D15 0D4D 0D15 0D4B 0D1F 0D4D",
    5: "0D2E 0D32 0D2A 0D4D 0D2A 0D41 0D31 0D02",
    6: "0D0E 0D31 0D23 0D3E 0D15 0D41 0D33 0D02",
    7: "0D07 0D1F 0D41 0D15 0D4D 0D15 0D3F",
    8: "0D15 0D4B 0D1F 0D4D 0D1F 0D2F 0D02",
    9: "0D2A 0D24 0D4D 0D24 0D28 0D02 0D24 0D3F 0D1F 0D4D 0D1F",
    10: "0D24 0D3F 0D30 0D41 0D35 0D28 0D28 0D4D 0D24 0D2A 0D41 0D30 0D02",
    11: "0D06 0D32 0D2A 0D4D 0D2A 0D42 0D34",
    12: "0D2A 0D3E 0D32 0D15 0D4D 0D15 0D3E 0D1F 0D4D",
    13: "0D24 0D43 0D36 0D42 0D7C",
    14: "0D15 0D4A 0D32 0D4D 0D32 0D02",
}


def _hex_to_str(hexes: str) -> str:
    return "".join(chr(int(h, 16)) for h in hexes.split())


class TestLabelToUnicode:
    def test_class_14_kollam(self):
        assert label_to_unicode(14) == "കൊല്ലം"
        assert label_to_unicode(14) == "കൊല്ലം"

    def test_class_13_listed_codepoints(self):
        # the table lists 5 codepoints for this row; reproduced verbatim
        assert district_codepoints(13) == (0x0D24, 0x0D43, 0x0D36, 0x0D42, 0x0D7C)

    def test_class_1(self):
        assert district_codepoints(1) == (
            0x0D15, 0x0D3E, 0x0D38, 0x0D7C, 0x0D15, 0x0D4B, 0x0D1F, 0x0D4D,
        )

    @pytest.mark.parametrize("label", sorted(EXPECTED_CODEPOINTS))
    def test_every_row_matches_table(self, label):
        assert label_to_unicode(label) == _hex_to_str(EXPECTED_CODEPOINTS[label])

    def test_out_of_range(self):
        for bad in (0, 15, -1):
            with pytest.raises(ValueError):
                label_to_unicode(bad)


class TestUnicodeToLabel:
    def test_kollam_is_14(self):
        assert unicode_to_label("കൊല്ലം") == 14

    def test_round_trip_every_class(self):
        for cid in range(1, N_CLASSES + 1):
            assert unicode_to_label(label_to_unicode(cid)) == cid

    def test_empty_string_lookup_error(self):
        with pytest.raises(LookupError, match="candidates"):
            unicode_to_label("")

    def test_unknown_string_lists_candidates(self):
        with pytest.raises(LookupError, match="nearest"):
            unicode_to_label("കൊല്ല")  # truncated name

    @pytest.mark.parametrize("query", ["കൊല്ല", "", "x"])
    def test_exactly_three_nearest_candidates(self, query):
        """Kills the mutant that suggests 4 names (``n=3`` -> ``n=4``): the three
        names difflib ranks nearest, in its order."""
        names = [label_to_unicode(cid) for cid in range(1, N_CLASSES + 1)]
        with pytest.raises(LookupError) as info:
            unicode_to_label(query)
        near = difflib.get_close_matches(query, names, n=N_CLASSES, cutoff=0.0)[:3]
        assert len(near) == 3 and str(info.value).endswith(f"; nearest candidates: {near}")


class TestTable:
    def test_exactly_14_distinct_entries(self):
        table = [(cid, label_to_unicode(cid)) for cid in range(1, 15)]
        assert len(table) == 14
        assert len({name for _, name in table}) == 14

    def test_all_codepoints_in_malayalam_block(self):
        for cid in range(1, 15):
            name = label_to_unicode(cid)
            for ch in name:
                assert 0x0D00 <= ord(ch) <= 0x0D7F, (cid, hex(ord(ch)))

    def test_data_file_diffs_bit_exactly(self):
        from importlib import resources
        text = resources.files("hwr.data").joinpath("districts.tsv").read_text("utf-8")
        expected = "".join(
            f"{cid}\t{EXPECTED_CODEPOINTS[cid]}\t{_hex_to_str(EXPECTED_CODEPOINTS[cid])}\n"
            for cid in range(1, 15)
        )
        assert text == expected

    def test_module_constant(self):
        assert labels.N_CLASSES == 14


class TestClassIds:
    def test_one_intp_id_per_row(self):
        ids = class_ids([1, 14, 7], 3)
        assert ids.dtype == np.intp and ids.tolist() == [1, 14, 7]
        assert class_ids(np.array([], dtype=np.int64), 0).shape == (0,)

    @pytest.mark.parametrize("values, rows", [([1, 2], 3), ([[1, 2]], 2), ([[1], [2]], 2),
                                              (3, 1)])
    def test_not_one_per_row(self, values, rows):
        with pytest.raises(ValueError, match="labels have shape"):
            class_ids(values, rows)

    @pytest.mark.parametrize("bad", [0, 15, -1])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError, match=r"^labels must lie in \[1, 14\]$"):
            class_ids([1, bad, 14], 3)

    @pytest.mark.parametrize("values", [[2.9, 1.2], [1.0, 2.5], [1.0, np.nan], [np.inf, 2.0],
                                        [1.0, -np.inf], np.array([3.0, 14.000001], np.float32),
                                        ["3", "14"], [True, True], [1 + 0j, 2], [None, 1]])
    def test_not_whole_numbers_refused_not_floored(self, values):
        with pytest.raises(ValueError, match=r"^labels must be whole numbers$"):
            class_ids(values, 2)

    @pytest.mark.parametrize("values", [[3.0, 14.0], np.array([3.0, 14.0], np.float32),
                                        np.array([3, 14], np.uint8), np.array([3, 14], np.int32)])
    def test_integers_and_whole_floats_pass(self, values):
        ids = class_ids(values, 2)
        assert ids.dtype == np.intp and ids.tolist() == [3, 14]

    def test_integer_labels_are_not_copied(self):
        labels = np.array([1, 14, 7], dtype=np.intp)
        assert class_ids(labels, 3) is labels


def test_ovo_train_refuses_labels_that_are_not_whole_numbers():
    X = np.random.default_rng(3).normal(size=(6, 2))
    with pytest.raises(ValueError, match=r"^labels must be whole numbers$"):
        svm.ovo_train(X, [1.9, 1.5, 1.1, 2.9, 2.2, 2.7], c=1.0, gamma=0.5)


def _two_blobs():
    gen = np.random.default_rng(5)
    return np.vstack([gen.normal(c, 0.3, (6, 3)) for c in (0.0, 3.0)]), np.repeat([1, 2], 6)


# every trainer; each must refuse a class id that its model files cannot hold
TRAINERS = {
    "mlp": lambda X, y: mlp.train(mlp.mlp_init(3, 4, N_CLASSES, seed=0), X, y,
                                  mlp.TrainConfig(epochs=1, seed=0)),
    "svm-ovo": lambda X, y: svm.ovo_train(X, y, c=1.0, gamma=0.5),
    "svm-grid": lambda X, y: svm.grid_search(X, y, seed=0),
    "rf": lambda X, y: forest.rf_train(X, y, m=2, seed=0),
}


@pytest.mark.parametrize("bad", [0, 15])
@pytest.mark.parametrize("trainer", sorted(TRAINERS))
def test_trainers_refuse_ids_outside_the_classes(trainer, bad):
    X, y = _two_blobs()
    with pytest.raises(ValueError, match=r"^labels must lie in \[1, 14\]$"):
        TRAINERS[trainer](X, np.where(y == 2, bad, y))
