"""Class-id interpretation: ids 1-14 map to Malayalam district names, and
`class_ids` is the one check that labels are such ids, one per row.

The table ships as data/districts.tsv (one row per class, in id order: id,
hex codepoints, rendered string) so it can be diffed bit-exactly.  Codepoint
sequences are reproduced verbatim from the source table, including rows
whose spelling diverges from canonical orthography.  The file is read as
shipped, without checks at run time: the tests pin it byte for byte against
an independent transcription of the codepoints.
"""

from __future__ import annotations

import difflib
from functools import lru_cache
from importlib import resources

import numpy as np

N_CLASSES = 14


@lru_cache(maxsize=1)
def _names() -> tuple[str, ...]:
    """The rendered district names, the table's third column, in class-id order."""
    text = resources.files("hwr.data").joinpath("districts.tsv").read_text("utf-8")
    return tuple(line.split("\t")[2] for line in text.splitlines())


def class_ids(values, rows: int) -> np.ndarray:
    """One class id in [1, N_CLASSES] per row, as 1-D intp: the only check of labels.

    Integer labels pass as they are.  Float labels must be finite whole
    numbers, such as 3.0, and are refused, not rounded, otherwise; labels of
    any other type are refused.
    """
    ids = np.asarray(values)
    if ids.shape != (rows,):
        raise ValueError(f"labels have shape {ids.shape}, expected ({rows},)")
    if ids.dtype.kind not in "iu" and (
            ids.dtype.kind != "f" or not np.all(np.isfinite(ids) & (ids == np.floor(ids)))):
        raise ValueError("labels must be whole numbers")
    if rows and (ids.min() < 1 or ids.max() > N_CLASSES):
        raise ValueError(f"labels must lie in [1, {N_CLASSES}]")
    return ids.astype(np.intp, copy=False)


def label_to_unicode(label: int) -> str:
    """District name for a class id in [1, 14]."""
    if not 1 <= label <= N_CLASSES:
        raise ValueError(f"class id {label} out of range [1, {N_CLASSES}]")
    return _names()[label - 1]


def unicode_to_label(s: str) -> int:
    """Class id of an exact district-name string."""
    names = _names()
    if s in names:
        return names.index(s) + 1
    near = difflib.get_close_matches(s, names, n=3, cutoff=0.0)
    raise LookupError(f"unknown district string {s!r}; nearest candidates: {near}")


def district_codepoints(label: int) -> tuple[int, ...]:
    """The Unicode codepoint sequence behind a class id."""
    return tuple(ord(ch) for ch in label_to_unicode(label))
