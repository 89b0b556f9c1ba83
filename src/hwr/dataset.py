"""Dataset plumbing: manifests, train/test split, feature-matrix container,
model files.

The FMX1 container is binary and bit-exact: magic "FMX1", row and column
counts as little-endian uint32, then row-major float64 little-endian values.
Manifests are UTF-8 CSV files with header "path,label" and LF line endings;
paths resolve relative to the manifest's directory.  Model files are UTF-8
JSON objects whose "format" tag names the model kind; `read_model` is the
only reader and parses each file once.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import labels as labels_mod

FMX_MAGIC = b"FMX1"


class ManifestError(ValueError):
    """Malformed manifest file."""


class FmxError(ValueError):
    """Malformed FMX1 container."""


class ModelFileError(ValueError):
    """Malformed model file, or one of another kind than expected."""


@dataclass
class Manifest:
    records: list[tuple[str, int]]  # (relative path, class id)
    root: Path

    def __len__(self) -> int:
        return len(self.records)

    def paths(self) -> list[Path]:
        return [self.root / rel for rel, _ in self.records]

    def labels(self) -> np.ndarray:
        return np.array([cid for _, cid in self.records], dtype=np.intp)


def load_manifest(path: str | os.PathLike) -> Manifest:
    path = Path(path)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ManifestError(f"{path}: empty manifest") from None
        if header != ["path", "label"]:
            raise ManifestError(f"{path}: expected header 'path,label', got {header}")
        records = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2 or not row[0]:
                raise ManifestError(f"{path}: line {lineno}: expected 'path,label', got {row}")
            try:
                cid = int(row[1])
            except ValueError:
                raise ManifestError(f"{path}: line {lineno}: label {row[1]!r} is not an integer") from None
            try:
                labels_mod.label_to_unicode(cid)
            except ValueError as exc:
                raise ManifestError(f"{path}: line {lineno}: {exc}") from None
            records.append((row[0], cid))
    return Manifest(records=records, root=path.parent)


def write_manifest(manifest: Manifest, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["path", "label"])
        writer.writerows(manifest.records)


@dataclass
class SplitResult:
    train_indices: np.ndarray
    test_indices: np.ndarray
    seed: int
    ratio: float


def split(n: int, ratio: float, seed: int) -> SplitResult:
    """Seeded uniform shuffle; first floor(ratio*n) indices train, rest test."""
    if n < 2:
        raise ValueError(f"need at least 2 samples to split, got {n}")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = math.floor(ratio * n)
    return SplitResult(
        train_indices=np.sort(perm[:n_train]),
        test_indices=np.sort(perm[n_train:]),
        seed=seed,
        ratio=ratio,
    )


def stratified_split(labels: np.ndarray, ratio: float, seed: int) -> SplitResult:
    """Per-class seeded shuffle keeping the train fraction within each class."""
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape[0] < 2:
        raise ValueError(f"need at least 2 samples to split, got {labels.shape[0]}")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
    gen = np.random.default_rng(seed)
    train, test = [], []
    for cls in np.unique(labels):
        idx = np.nonzero(labels == cls)[0]
        gen.shuffle(idx)
        cut = math.floor(ratio * idx.shape[0])
        train.extend(idx[:cut])
        test.extend(idx[cut:])
    return SplitResult(
        train_indices=np.sort(np.array(train, dtype=np.intp)),
        test_indices=np.sort(np.array(test, dtype=np.intp)),
        seed=seed,
        ratio=ratio,
    )


def write_fmx(matrix: np.ndarray, path: str | os.PathLike) -> None:
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise FmxError(f"matrix must be 2-D and nonempty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise FmxError("matrix contains non-finite values")
    with open(path, "wb") as fh:
        fh.write(FMX_MAGIC)
        fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_fmx(path: str | os.PathLike) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != FMX_MAGIC:
        raise FmxError(f"{path}: bad magic {data[:4]!r}")
    if len(data) < 12:
        raise FmxError(f"{path}: truncated header")
    rows, cols = struct.unpack("<II", data[4:12])
    expected = 12 + rows * cols * 8
    if len(data) != expected:
        raise FmxError(f"{path}: expected {expected} bytes for {rows}x{cols}, got {len(data)}")
    if rows < 1 or cols < 1:
        raise FmxError(f"{path}: empty shape {rows}x{cols}")
    matrix = np.frombuffer(data[12:], dtype="<f8").reshape(rows, cols).astype(np.float64)
    if not np.all(np.isfinite(matrix)):
        raise FmxError(f"{path}: payload contains non-finite values")
    return matrix


def write_label_file(label_ids, path: str | os.PathLike) -> None:
    """Aligned label file: one class id per feature-matrix row."""
    arr = np.asarray(label_ids, dtype=np.intp)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"{int(v)}\n" for v in arr)


def read_label_file(path: str | os.PathLike) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        values = [int(line) for line in fh if line.strip()]
    if not values:
        raise ValueError(f"{path}: no labels")
    return np.array(values, dtype=np.intp)


def write_model(path: str | os.PathLike, doc: dict) -> None:
    """Write a model document, its "format" tag first, as one line of JSON.

    The bytes are those of ``json.dumps(doc)``.  ``json.dump`` would run
    CPython's pure-Python encoder, several times slower on the large float
    lists of a model.  The C encoder that ``json.dumps`` uses builds its whole
    output before returning, tens of MB beside the document for a large model,
    so it is given one small piece at a time: each dict item, each element of
    a list of containers, and flat lists in slices of about 10 KB of text.
    Pieces of a few MB left the heap fragmented after a save often enough to
    raise the process's peak RSS by ~15 MB later on.
    """
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(fh, doc)


_LIST_SLICE = 512  # list elements encoded per call


def _write_json(fh, value) -> None:
    """Write ``json.dumps(value)`` in pieces; dict keys must be strings."""
    if isinstance(value, dict):
        fh.write("{")
        for i, (key, item) in enumerate(value.items()):
            fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            _write_json(fh, item)
        fh.write("}")
    elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
        fh.write("[")
        for i, item in enumerate(value):
            if i:
                fh.write(", ")
            _write_json(fh, item)
        fh.write("]")
    elif isinstance(value, list):
        fh.write("[")
        for start in range(0, len(value), _LIST_SLICE):
            if start:
                fh.write(", ")
            fh.write(json.dumps(value[start:start + _LIST_SLICE])[1:-1])
        fh.write("]")
    else:
        fh.write(json.dumps(value))


def read_model(path: str | os.PathLike, *kinds):
    """Parse a model file once and build the kind whose FORMAT matches its tag.

    Each kind is a class with a FORMAT tag and a ``from_doc`` constructor.
    Every decode failure raises ModelFileError naming the path: bad JSON or
    UTF-8, a non-object document, an unexpected tag, a missing field, or a
    field of the wrong type or one that cannot take its stated shape.  A
    file that cannot be opened raises OSError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFileError(f"{path}: not a JSON model file ({exc})") from None
    if not isinstance(doc, dict):
        raise ModelFileError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    fmt = doc.get("format")
    for kind in kinds:
        if fmt == kind.FORMAT:
            try:
                return kind.from_doc(doc)
            except (LookupError, TypeError, ValueError) as exc:
                raise ModelFileError(
                    f"{path}: malformed {fmt} model ({type(exc).__name__}: {exc})") from None
    expected = " or ".join(kind.FORMAT for kind in kinds)
    raise ModelFileError(f"{path}: format {fmt!r} is not {expected}")
