"""Class-id interpretation: ids 1-14 map to Malayalam district names.

The table ships as data/districts.tsv (one row per class: id, hex
codepoints, rendered string) so it can be diffed bit-exactly.  Codepoint
sequences are reproduced verbatim from the source table, including rows
whose spelling diverges from canonical orthography.
"""

from __future__ import annotations

import difflib
from functools import lru_cache
from importlib import resources

N_CLASSES = 14

_MALAYALAM_LO = 0x0D00
_MALAYALAM_HI = 0x0D7F


@lru_cache(maxsize=1)
def _table() -> tuple[tuple[int, str], ...]:
    text = resources.files("hwr.data").joinpath("districts.tsv").read_text("utf-8")
    entries = []
    for line in text.splitlines():
        cid_s, hexes, rendered = line.split("\t")
        cid = int(cid_s)
        cps = [int(h, 16) for h in hexes.split()]
        if any(not _MALAYALAM_LO <= c <= _MALAYALAM_HI for c in cps):
            raise ValueError(f"district {cid}: codepoint outside the Malayalam block")
        if "".join(chr(c) for c in cps) != rendered:
            raise ValueError(f"district {cid}: rendered string does not match codepoints")
        entries.append((cid, rendered))
    if [cid for cid, _ in entries] != list(range(1, N_CLASSES + 1)):
        raise ValueError("district table must list ids 1..14 in order")
    if len({name for _, name in entries}) != N_CLASSES:
        raise ValueError("district names must be pairwise distinct")
    return tuple(entries)


def label_to_unicode(label: int) -> str:
    """District name for a class id in [1, 14]."""
    if not 1 <= label <= N_CLASSES:
        raise ValueError(f"class id {label} out of range [1, {N_CLASSES}]")
    return _table()[label - 1][1]


def unicode_to_label(s: str) -> int:
    """Class id of an exact district-name string."""
    for cid, name in _table():
        if name == s:
            return cid
    near = difflib.get_close_matches(s, [name for _, name in _table()], n=3, cutoff=0.0)
    raise LookupError(f"unknown district string {s!r}; nearest candidates: {near}")


def district_codepoints(label: int) -> tuple[int, ...]:
    """The Unicode codepoint sequence behind a class id."""
    return tuple(ord(ch) for ch in label_to_unicode(label))
