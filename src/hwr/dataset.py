"""Dataset plumbing: manifests, held-out rows, feature-matrix container,
model files.

Held-out rows come from one seeded per-class shuffle, which `split` cuts
into train and test rows and `stratified_folds` deals into CV folds.

The FMX1 container is binary and bit-exact: magic "FMX1", row and column
counts as little-endian uint32, then row-major float64 little-endian values.
Manifests are UTF-8 CSV files with header "path,label" and LF line endings;
paths resolve relative to the manifest's directory.  Model files are UTF-8
JSON objects whose "format" tag names the model kind; `read_model` is the
only reader and parses each file once.  A model's float arrays are single
strings, written by `pack` and read by `unpack`: base64 of the row-major
values as little-endian float64, bit-exact.
"""

from __future__ import annotations

import base64
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


def parse_class_id(text: str) -> int:
    """The class id in `text`: ASCII decimal digits, whitespace around them.

    Signs, underscores and non-ASCII digits, all of which `int()` takes, are
    refused, as is an id outside [1, N_CLASSES].
    """
    token = text.strip()
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"label {token!r} is not an integer")
    cid = int(token)
    labels_mod.label_to_unicode(cid)  # raises for an id outside the table
    return cid


def load_manifest(path: str | os.PathLike) -> Manifest:
    """A manifest's records; an error names the physical line its record ends on."""
    path = Path(path)
    records = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header == ["path", "label"]:
                for row in filter(None, reader):
                    if len(row) != 2 or not row[0]:
                        raise ValueError(f"expected 'path,label', got {row}")
                    records.append((row[0], parse_class_id(row[1])))
        except UnicodeDecodeError as exc:
            raise ManifestError(f"{path}: not UTF-8 ({exc})") from None
        except (ValueError, csv.Error) as exc:
            raise ManifestError(f"{path}: line {reader.line_num}: {exc}") from None
    if header is None:
        raise ManifestError(f"{path}: empty manifest")
    if header != ["path", "label"]:
        raise ManifestError(f"{path}: expected header 'path,label', got {header}")
    if not records:
        raise ManifestError(f"{path}: no records")
    return Manifest(records=records, root=path.parent)


def write_manifest(manifest: Manifest, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        quote_all = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(["path", "label"])
        for record in manifest.records:  # minimal quoting would leave a lone CR bare
            (quote_all if "\r" in record[0] else writer).writerow(record)


@dataclass
class SplitResult:
    train_indices: np.ndarray
    test_indices: np.ndarray


def _class_shuffles(strata: np.ndarray, seed: int) -> list[np.ndarray]:
    """Each stratum's row indices, strata ascending, shuffled in turn by one stream."""
    gen = np.random.default_rng(seed)
    return [gen.permutation(np.flatnonzero(strata == cls)) for cls in np.unique(strata)]


def split(strata: np.ndarray, ratio: float, seed: int) -> SplitResult:
    """Seeded per-stratum shuffle (one stratum id per row); the first floor(ratio*size)
    rows of each stratum train, the rest test.  One stratum is the uniform split."""
    strata = np.asarray(strata, dtype=np.intp)
    if strata.shape[0] < 2:
        raise ValueError(f"need at least 2 samples to split, got {strata.shape[0]}")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
    shuffles = _class_shuffles(strata, seed)
    cuts = [math.floor(ratio * idx.shape[0]) for idx in shuffles]
    return SplitResult(
        train_indices=np.sort(np.concatenate([idx[:cut] for idx, cut in zip(shuffles, cuts)])),
        test_indices=np.sort(np.concatenate([idx[cut:] for idx, cut in zip(shuffles, cuts)])),
    )


def stratified_folds(labels: np.ndarray, count: int, seed: int) -> list[np.ndarray]:
    """``count`` cross-validation folds: fold f holds rows f, f + count, ... of
    each class's shuffle, so every class spreads evenly over the folds."""
    labels = np.asarray(labels, dtype=np.intp)
    present, sizes = np.unique(labels, return_counts=True)
    if not present.size:
        raise ValueError("stratification infeasible: no samples")
    if sizes.min() < count:
        thin = present[sizes < count].tolist()
        raise ValueError(
            f"stratification infeasible: classes {thin} have fewer than {count} samples")
    shuffles = _class_shuffles(labels, seed)
    return [np.sort(np.concatenate([idx[f::count] for idx in shuffles])) for f in range(count)]


def write_fmx(matrix: np.ndarray, path: str | os.PathLike) -> None:
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise FmxError(f"matrix must be 2-D and nonempty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise FmxError("matrix contains non-finite values")
    with open(path, "wb") as fh:
        fh.write(FMX_MAGIC + struct.pack("<II", arr.shape[0], arr.shape[1]))
        np.ascontiguousarray(arr, dtype="<f8").tofile(fh)


def read_fmx(path: str | os.PathLike) -> np.ndarray:
    """The matrix of an FMX1 file.  The header is checked against the file's size before the
    payload is read straight into the array, so a header that claims more allocates nothing."""
    with open(path, "rb") as fh:
        header = fh.read(12)
        if header[:4] != FMX_MAGIC:
            raise FmxError(f"{path}: bad magic {header[:4]!r}")
        if len(header) < 12:
            raise FmxError(f"{path}: truncated header")
        rows, cols = struct.unpack("<II", header[4:])
        expected, size = 12 + rows * cols * 8, os.fstat(fh.fileno()).st_size
        if size != expected:
            raise FmxError(f"{path}: expected {expected} bytes for {rows}x{cols}, got {size}")
        if rows < 1 or cols < 1:
            raise FmxError(f"{path}: empty shape {rows}x{cols}")
        matrix = np.fromfile(fh, dtype="<f8", count=rows * cols)
    matrix = matrix.reshape(rows, cols).astype(np.float64, copy=False)
    if not np.all(np.isfinite(matrix)):
        raise FmxError(f"{path}: payload contains non-finite values")
    return matrix


def write_label_file(label_ids, path: str | os.PathLike) -> None:
    """Aligned label file: one class id per feature-matrix row."""
    arr = np.asarray(label_ids, dtype=np.intp)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"{int(v)}\n" for v in arr)


def read_label_file(path: str | os.PathLike) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 ({exc})") from None
    values = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            values.append(parse_class_id(line))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    if not values:
        raise ValueError(f"{path}: no labels")
    return np.array(values, dtype=np.intp)


def pack(a) -> str:
    """An array's values, row-major, as base64 text of little-endian float64."""
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii")


def unpack(text: str, *shape: int) -> np.ndarray:
    """The writable float64 array of the given shape that `pack` encoded.

    Raises TypeError for a non-string and ValueError for text that is not
    base64 or whose byte count is not 8 times the product of the shape.
    """
    if not isinstance(text, str):
        raise TypeError(f"expected a base64 string, got {type(text).__name__}")
    raw = base64.b64decode(text, validate=True)
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"{len(raw)} payload bytes cannot take shape {shape}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def number(value, kind: type = int):
    """A model file's header number as ``kind``: an int field takes a Python or
    numpy integer (not a bool), a float field any integer or float (not a bool)."""
    if kind is int and np.issubdtype(type(value), np.integer):
        return int(value)
    if kind is float and np.issubdtype(type(value), np.number):
        return float(value)
    raise ValueError(f"{value!r} is not {'an integer' if kind is int else 'a number'}")


def size(doc: dict, key: str) -> int:
    """A model file's width or count, ``doc[key]``: an integer of at least 1."""
    value = number(doc[key])
    if value < 1:
        raise ValueError(f"{key} is {value}, not at least 1")
    return value


def positive(name: str, value: float) -> float:
    """``value`` if finite and > 0: the one check of a C, gamma or learning rate, given or read."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be {'finite' if value > 0 else '> 0'}, got {value}")
    return value


def rows(X, d: int | None = None) -> np.ndarray:
    """X as float64 rows for every model and trainer: a vector is one row, zero rows pass,
    values are not read; another shape, or a width other than a given ``d``, is refused."""
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim not in (1, 2) or (d is not None and arr.shape[-1] != d):
        columns = "" if d is None else f" of {d} columns"
        raise ValueError(f"expected a row or rows{columns}, got shape {arr.shape}")
    return np.atleast_2d(arr)


def write_model(path: str | os.PathLike, doc: dict) -> None:
    """Write a model document, its "format" tag first, as one line of JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))


def read_model(path: str | os.PathLike, *kinds):
    """Parse a model file once and build the kind whose FORMAT matches its tag.

    Each kind is a class with a FORMAT tag and a ``from_doc`` constructor.
    Every decode failure raises ModelFileError naming the path: bad JSON or
    UTF-8, nesting too deep to parse, a non-object document, an unexpected
    tag (an older version of a kind included), a missing field, a field of
    the wrong type or one that cannot take its stated shape, a number too
    large to convert, or a stated shape too large to allocate.  A file that
    cannot be opened raises OSError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ModelFileError(f"{path}: not a JSON model file ({exc})") from None
    if not isinstance(doc, dict):
        raise ModelFileError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    fmt = doc.get("format")
    for kind in kinds:
        if fmt == kind.FORMAT:
            try:
                return kind.from_doc(doc)
            except (LookupError, TypeError, ValueError, OverflowError, RecursionError,
                    MemoryError) as exc:
                raise ModelFileError(
                    f"{path}: malformed {fmt} model ({type(exc).__name__}: {exc})") from None
    expected = " or ".join(kind.FORMAT for kind in kinds)
    raise ModelFileError(f"{path}: format {fmt!r} is not {expected}; a file written by an "
                         "older hwr must be made again with `hwr reduce` or `hwr train`")
