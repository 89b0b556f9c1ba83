from __future__ import annotations

import base64
import contextlib
import csv
import hashlib
import io
import os
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hwr import cli, svm
from hwr.dataset import (
    FmxError,
    Manifest,
    ManifestError,
    load_manifest,
    pack,
    read_fmx,
    read_label_file,
    split,
    stratified_folds,
    unpack,
    write_fmx,
    write_label_file,
    write_manifest,
)


class TestManifest:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("path,label\na.pgm,1\nb.pgm,14\n", encoding="utf-8")
        m = load_manifest(path)
        assert m.records == [("a.pgm", 1), ("b.pgm", 14)]
        assert m.root == tmp_path

    def test_unknown_label_reports_line(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("path,label\na.pgm,1\nb.pgm,15\n", encoding="utf-8")
        with pytest.raises(ManifestError, match="line 3"):
            load_manifest(path)

    def test_duplicates_preserved_in_order(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("path,label\nx.pgm,2\nx.pgm,2\ny.pgm,3\n", encoding="utf-8")
        m = load_manifest(path)
        assert m.records == [("x.pgm", 2), ("x.pgm", 2), ("y.pgm", 3)]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path / "absent.csv")

    @pytest.mark.parametrize("text", ["path,label\n", "path,label\n\n\n"])
    def test_header_without_records(self, tmp_path, text):
        path = tmp_path / "manifest.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        assert str(info.value) == f"{path}: no records"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("file,class\na.pgm,1\n", encoding="utf-8")
        with pytest.raises(ManifestError, match="expected header 'path,label'"):
            load_manifest(path)

    @pytest.mark.parametrize("cid", ["1_4", "\u0661\u0664", "+3", "-3", "2.0", ""])
    def test_non_decimal_label_names_path_and_line(self, tmp_path, cid):
        path = tmp_path / "manifest.csv"
        path.write_text(f"path,label\na.pgm,1\nb.pgm,{cid}\n", encoding="utf-8")
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        assert str(info.value) == f"{path}: line 3: label {cid!r} is not an integer"

    def test_label_whitespace_and_leading_zeros_accepted(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("path,label\na.pgm, 7 \nb.pgm,014\n", encoding="utf-8")
        assert load_manifest(path).records == [("a.pgm", 7), ("b.pgm", 14)]

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("path,label\na.pgm,1,extra\n", encoding="utf-8")
        with pytest.raises(ManifestError, match="line 2"):
            load_manifest(path)

    def test_error_names_the_physical_line(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text('path,label\n"a\nb.pgm",1\nc.pgm,x\n', encoding="utf-8")
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        assert str(info.value) == f"{path}: line 4: label 'x' is not an integer"

    def test_field_over_the_csv_limit_exits_2(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("path,label\n" + "a" * 200_000 + ",1\n", encoding="utf-8")
        message = f"{path}: line 2: field larger than field limit (131072)"
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        assert str(info.value) == message
        _refused_in_cli(["features", "--manifest", str(path), "--out", f"{tmp_path}/x.fmx"],
                        message, tmp_path, ["manifest.csv"])

    def test_write_round_trip(self, tmp_path):
        m = Manifest(records=[("a.pgm", 1), ("b.pgm", 7)], root=tmp_path)
        write_manifest(m, tmp_path / "out.csv")
        again = load_manifest(tmp_path / "out.csv")
        assert again.records == m.records
        raw = (tmp_path / "out.csv").read_bytes()
        assert raw == b"path,label\na.pgm,1\nb.pgm,7\n"  # LF endings, nothing quoted

    @pytest.mark.parametrize("rel", ["a\rb.pgm", "\r", "a\rb\r", "a\nb.pgm", "a\r\nb.pgm",
                                     "a,b.pgm", 'a"b.pgm'])
    def test_write_round_trip_of_a_path_csv_must_quote(self, tmp_path, rel):
        m = Manifest(records=[("a.pgm", 1), (rel, 14), ("b.pgm", 7)], root=tmp_path)
        write_manifest(m, tmp_path / "out.csv")
        assert load_manifest(tmp_path / "out.csv").records == m.records

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.text(st.characters(blacklist_categories=("Cs",)), min_size=1,
                                      max_size=8), st.integers(1, 14)), min_size=1, max_size=4))
    def test_write_then_load_gives_the_records(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            write_manifest(Manifest(records=records, root=Path(tmp)), Path(tmp) / "m.csv")
            assert load_manifest(Path(tmp) / "m.csv").records == records


def _right_or(draw, value, wrong):
    """value three times in four, else a draw from wrong, and whether value was kept."""
    if draw(st.sampled_from([True, True, True, False])):
        return value, True
    return draw(wrong), False


_ids = st.integers(1, 14).map(str)
_odd_ids = st.one_of(st.sampled_from(["0", "15", "+3", "1_4", "\u0661", "2.0", ""]), st.text())


@st.composite
def _manifest_files(draw) -> tuple[bytes, list | None]:
    """Any bytes, or a nearly well-formed manifest and, where every part is right, its
    records: every field is quoted, so paths may hold commas, quotes and line breaks, and
    blank lines may come between records."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=60)), None
    rows, records = [], []
    header, ok = _right_or(draw, ["path", "label"], st.lists(st.text(max_size=6), max_size=3))
    rows.append(header)
    paths = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8)
    for rel in draw(st.lists(paths, max_size=4)):
        cid, right = _right_or(draw, draw(_ids), _odd_ids)
        ok &= right
        rows += [[]] * draw(st.integers(0, 1)) + [[rel, cid]]
        records.append((rel, int(cid) if right else None))
    text = io.StringIO()
    csv.writer(text, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows(rows)
    return text.getvalue().encode("utf-8"), records if ok and records else None


def _refused_in_cli(argv: list[str], message: str, tmp, files: list[str]) -> None:
    """`hwr` exits 2 with exactly the refusal's error line and writes nothing."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {message}\n")
    assert sorted(os.listdir(tmp)) == sorted(files)


class TestManifestFuzz:
    """Whatever its bytes, a manifest loads as its records or raises ManifestError naming its
    path, and `hwr features` then exits 2 with that one line."""

    @settings(max_examples=300, deadline=None)
    @given(_manifest_files())
    def test_records_or_error_naming_the_path(self, case):
        data, expected = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "manifest.csv"
            path.write_bytes(data)
            try:
                records = load_manifest(path).records
            except ManifestError as exc:
                assert expected is None
                assert str(exc).startswith(f"{path}: ")
                _refused_in_cli(["features", "--manifest", str(path), "--out", f"{tmp}/x.fmx"],
                                str(exc), tmp, ["manifest.csv"])
                return
        assert records and all(rel and 1 <= cid <= 14 for rel, cid in records)
        assert expected is None or records == expected


def _uniform(n: int) -> np.ndarray:
    """One stratum for n rows: the strata of the uniform split."""
    return np.zeros(n, dtype=np.intp)


class TestSplit:
    def test_paper_cardinalities(self):
        result = split(_uniform(736), 0.8, seed=0)
        assert len(result.train_indices) == 588
        assert len(result.test_indices) == 148

    def test_small_case(self):
        result = split(_uniform(10), 0.8, seed=1)
        assert len(result.train_indices) == 8
        assert len(result.test_indices) == 2

    def test_seed_determinism(self):
        a, b = split(_uniform(50), 0.8, seed=3), split(_uniform(50), 0.8, seed=3)
        c = split(_uniform(50), 0.8, seed=4)
        assert np.array_equal(a.train_indices, b.train_indices)
        assert not np.array_equal(a.train_indices, c.train_indices)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 300), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
    def test_partition_property(self, n, ratio, seed):
        result = split(_uniform(n), ratio, seed)
        merged = np.sort(np.concatenate([result.train_indices, result.test_indices]))
        assert np.array_equal(merged, np.arange(n))
        assert len(result.train_indices) == int(np.floor(ratio * n))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            split(_uniform(1), 0.8, 0)
        with pytest.raises(ValueError):
            split(_uniform(10), 0.0, 0)
        with pytest.raises(ValueError):
            split(_uniform(10), 1.0, 0)

    def test_stratified_keeps_class_ratio(self):
        labels = np.repeat([1, 2, 3, 4], 20)
        result = split(labels, 0.8, seed=5)
        for cls in (1, 2, 3, 4):
            assert (labels[result.train_indices] == cls).sum() == 16
            assert (labels[result.test_indices] == cls).sum() == 4


# Seeds on both sides of 2**63, where a seed stops fitting a signed 64-bit integer.
SEEDS = st.integers(0, 2**64 - 1) | st.sampled_from([0, 2**63 - 1, 2**63, 2**64 - 1])
RATIOS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def class_layouts(draw, min_size: int = 0) -> np.ndarray:
    """Labels of 1 to 14 classes of ``min_size`` to ``min_size + 6`` rows each, in a
    drawn order; the sizes favour ``min_size`` itself."""
    classes = draw(st.lists(st.integers(1, 14), min_size=1, max_size=14, unique=True))
    sizes = [draw(st.just(min_size) | st.integers(min_size, min_size + 6)) for _ in classes]
    labels = np.repeat(np.array(classes, dtype=np.intp), sizes)
    return labels[draw(st.permutations(range(labels.shape[0])))]


def _assert_same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


class TestHeldOutOracles:
    """The one per-class shuffle draws the rows of the three functions it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 1000), RATIOS, SEEDS)
    def test_one_stratum_is_the_uniform_split(self, n, ratio, seed):
        got, want = split(_uniform(n), ratio, seed), oracles.uniform_split(n, ratio, seed)
        _assert_same(got.train_indices, want.train_indices)
        _assert_same(got.test_indices, want.test_indices)

    @settings(max_examples=150, deadline=None)
    @given(class_layouts(), RATIOS, SEEDS)
    def test_per_class_split(self, labels, ratio, seed):
        if labels.shape[0] < 2:
            with pytest.raises(ValueError, match="at least 2 samples"):
                split(labels, ratio, seed)
            return
        got, want = split(labels, ratio, seed), oracles.stratified_split(labels, ratio, seed)
        _assert_same(got.train_indices, want.train_indices)
        _assert_same(got.test_indices, want.test_indices)

    @settings(max_examples=150, deadline=None)
    @given(class_layouts(min_size=svm.FOLDS), SEEDS)
    def test_folds(self, labels, seed):
        got = stratified_folds(labels, svm.FOLDS, seed)
        want = oracles.stratified_folds(labels, seed)
        assert len(got) == len(want) == svm.FOLDS
        for fold, expected in zip(got, want):
            _assert_same(fold, expected)

    @settings(max_examples=50, deadline=None)
    @given(class_layouts(min_size=1), SEEDS)
    def test_folds_refuse_the_same_thin_classes(self, labels, seed):
        try:
            want = oracles.stratified_folds(labels, seed)
        except ValueError as exc:
            with pytest.raises(ValueError) as refused:
                stratified_folds(labels, svm.FOLDS, seed)
            assert str(refused.value) == str(exc)
        else:
            for fold, expected in zip(stratified_folds(labels, svm.FOLDS, seed), want):
                _assert_same(fold, expected)


class TestFmx:
    def test_scalar_round_trip(self, tmp_path):
        path = tmp_path / "one.fmx"
        write_fmx(np.array([[3.5]]), path)
        out = read_fmx(path)
        assert out.shape == (1, 1)
        assert out[0, 0] == 3.5

    def test_empty_rejected_on_write(self, tmp_path):
        with pytest.raises(FmxError):
            write_fmx(np.zeros((0, 5)), tmp_path / "bad.fmx")

    def test_nonfinite_rejected(self, tmp_path):
        with pytest.raises(FmxError, match="non-finite"):
            write_fmx(np.array([[np.nan]]), tmp_path / "bad.fmx")

    def test_large_matrix_checksum_round_trip(self, tmp_path):
        gen = np.random.default_rng(6)
        matrix = gen.normal(size=(148, 3780))
        path = tmp_path / "big.fmx"
        write_fmx(matrix, path)
        first = hashlib.sha256(path.read_bytes()).hexdigest()
        out = read_fmx(path)
        assert np.array_equal(out, matrix)
        write_fmx(out, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == first

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fmx"
        path.write_bytes(b"XXXX" + bytes(16))
        with pytest.raises(FmxError, match="bad magic"):
            read_fmx(path)

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "bad.fmx"
        write_fmx(np.ones((2, 3)), path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FmxError, match="expected"):
            read_fmx(path)

    def test_header_claiming_more_rows_refused_without_allocating(self, tmp_path):
        path = tmp_path / "bad.fmx"
        write_fmx(np.ones((2, 3)), path)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 2**32 - 1)
        path.write_bytes(bytes(data))
        tracemalloc.start()
        try:
            with pytest.raises(FmxError, match=f"expected {12 + (2**32 - 1) * 24} bytes .* got 60"):
                read_fmx(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_nonfinite_payload_rejected_on_read(self, tmp_path):
        path = tmp_path / "bad.fmx"
        payload = struct.pack("<d", float("nan"))
        path.write_bytes(b"FMX1" + struct.pack("<II", 1, 1) + payload)
        with pytest.raises(FmxError, match="non-finite"):
            read_fmx(path)


def _fmx_files():
    """Any bytes, or nearly well-formed FMX1 files of up to 4 x 4 entries, finite or not:
    each of magic, shape and payload is right three times in four."""
    doubles = st.floats().map(lambda v: struct.pack("<d", v))
    shapes = st.tuples(st.integers(0, 4), st.integers(0, 4))
    odd_headers = st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)).map(
        lambda shape: struct.pack("<II", *shape))

    @st.composite
    def files(draw) -> bytes:
        def right(value, wrong):
            return value if draw(st.sampled_from([True, True, True, False])) else draw(wrong)

        rows, cols = draw(shapes)
        header = right(struct.pack("<II", rows, cols),
                       st.one_of(st.binary(max_size=9), odd_headers))
        payload = b"".join(draw(st.lists(doubles, min_size=rows * cols, max_size=rows * cols)))
        payload = right(payload, st.binary(max_size=8 * rows * cols + 9))
        return right(b"FMX1", st.binary(max_size=5)) + header + payload

    return st.one_of(st.binary(max_size=40), files())


class TestFmxFuzz:
    """Whatever its bytes, an FMX file reads as the matrix it holds or raises FmxError naming
    its path, and `hwr reduce` then exits 2 with that one line."""

    @settings(max_examples=400, deadline=None)
    @given(_fmx_files())
    def test_matrix_or_error_naming_the_path(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.fmx"
            path.write_bytes(data)
            try:
                matrix = read_fmx(path)
            except FmxError as exc:
                message = str(exc)
                assert message.startswith(f"{path}: ")
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(["reduce", "--in", str(path), "--method", "pca", "--dim", "1",
                                     "--model", f"{tmp}/m.json", "--out", f"{tmp}/r.fmx"])
                assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {message}\n")
                assert os.listdir(tmp) == ["x.fmx"]
                return
        rows, cols = struct.unpack("<II", data[4:12])
        assert data[:4] == b"FMX1" and matrix.shape == (rows, cols)
        assert matrix.dtype == np.float64 and np.isfinite(matrix).all()
        assert matrix.tobytes() == np.frombuffer(data[12:], "<f8").tobytes()


class TestLabelFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "y.labels"
        write_label_file([1, 14, 7, 7], path)
        assert read_label_file(path).tolist() == [1, 14, 7, 7]

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "y.labels"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError):
            read_label_file(path)

    def test_non_integer_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "y.labels"
        path.write_text("1\n\n2.5\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_label_file(path)
        assert str(info.value) == f"{path}: line 3: label '2.5' is not an integer"

    @pytest.mark.parametrize("cid", ["1_4", "\u0661\u0664", "+3", "-3"])
    def test_non_decimal_id_names_path_and_line(self, tmp_path, cid):
        path = tmp_path / "y.labels"
        path.write_text(f"1\n14\n{cid}\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_label_file(path)
        assert str(info.value) == f"{path}: line 3: label {cid!r} is not an integer"

    @pytest.mark.parametrize("cid", ["0", "15"])
    def test_out_of_range_id_names_path_and_line(self, tmp_path, cid):
        path = tmp_path / "y.labels"
        path.write_text(f"1\n14\n{cid}\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_label_file(path)
        assert str(info.value) == f"{path}: line 3: class id {cid} out of range [1, 14]"


@st.composite
def _label_files(draw) -> tuple[bytes, list | None]:
    """Any bytes, or a nearly well-formed label file and, where every line is right, its
    ids: ids may carry spaces, lines may be blank, and lines end in LF or CRLF."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=60)), None
    lines, ids, ok = [], [], True
    for cid in draw(st.lists(_ids, max_size=6)):
        token, right = _right_or(draw, cid, _odd_ids)
        ok &= right
        pad = draw(st.sampled_from(["", " ", "\t"]))
        lines += [""] * draw(st.integers(0, 1)) + [pad + token + pad]
        ids.append(int(cid))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines + [""])
    return text.encode("utf-8"), ids if ok and ids else None


class TestLabelFileFuzz:
    """Whatever its bytes, a label file reads as its ids or raises ValueError naming its path,
    and `hwr train` then exits 2 with that one line."""

    @settings(max_examples=300, deadline=None)
    @given(_label_files())
    def test_ids_or_error_naming_the_path(self, case):
        data, expected = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "y.labels"
            path.write_bytes(data)
            try:
                ids = read_label_file(path)
            except ValueError as exc:
                assert expected is None
                assert str(exc).startswith(f"{path}: ")
                write_fmx(np.zeros((2, 1)), f"{tmp}/x.fmx")
                _refused_in_cli(["train", "--in", f"{tmp}/x.fmx", "--labels", str(path),
                                 "--classifier", "rf", "--out", f"{tmp}/m.json"],
                                str(exc), tmp, ["x.fmx", "y.labels"])
                return
        assert ids.dtype == np.intp and ids.size and ((ids >= 1) & (ids <= 14)).all()
        assert expected is None or ids.tolist() == expected


class TestPayload:
    def test_special_values_round_trip_bit_exact(self):
        a = np.array([[0.0, -0.0, 5e-324, -1e300], [np.inf, -np.inf, np.nan, 1 / 3]])
        text = pack(a)
        assert text == base64.b64encode(a.astype("<f8").tobytes()).decode()
        back = unpack(text, 2, 4)
        assert back.dtype == np.float64 and back.shape == (2, 4)
        assert back.tobytes() == a.tobytes()
        back[0, 0] = 1.0  # writable

    def test_empty(self):
        assert pack(np.zeros((0, 3))) == ""
        assert unpack("", 0, 3).shape == (0, 3)

    @pytest.mark.parametrize("text, error", [
        ([0.5], TypeError),
        (b"AAAAAAAA4D8=", TypeError),
        ("AAAAAAAA4D8", ValueError),      # padding missing
        ("AAAAAAAA 4D8=", ValueError),    # not in the base64 alphabet
        ("\u00e9AAAAAAA4D8=", ValueError),
        ("AAAAAAAA4D8=AAAA", ValueError),  # data after the padding
        (pack([0.5, 1.0]), ValueError),    # two floats for shape (1,)
        (pack([0.5])[:-4], ValueError),    # 6 bytes
    ])
    def test_bad_payload_rejected(self, text, error):
        with pytest.raises(error):
            unpack(text, 1)
        assert unpack(pack([0.5]), 1).tolist() == [0.5]
