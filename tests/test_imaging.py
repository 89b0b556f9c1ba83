from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import add_at_resample_matrix, reference_preprocess, tokenizer_decode_pgm

from hwr import imaging
from hwr.imaging import (
    NoInkError,
    PgmError,
    Rect,
    bounding_box,
    decode_pgm,
    encode_pgm,
    otsu_threshold,
    preprocess,
    resize_bicubic,
)

gray_images = arrays(
    np.uint8,
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
    elements=st.integers(0, 255),
)

masks = arrays(
    np.bool_,
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
    elements=st.booleans(),
)


class TestPgm:
    def test_decode_direct_encoding(self):
        data = b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64])
        img = decode_pgm(data)
        assert img.shape == (2, 2)
        assert img.tolist() == [[0, 255], [128, 64]]

    def test_decode_minimal_image(self):
        img = decode_pgm(b"P5\n1 1\n255\n" + bytes([7]))
        assert img.shape == (1, 1)
        assert img[0, 0] == 7

    def test_truncated_pixel_data(self):
        data = b"P5\n4 4\n255\n" + bytes(8)
        with pytest.raises(PgmError, match="truncated"):
            decode_pgm(data)

    def test_bad_magic(self):
        with pytest.raises(PgmError, match="magic"):
            decode_pgm(b"P6\n1 1\n255\n\x00")

    def test_bad_maxval(self):
        with pytest.raises(PgmError, match="maxval"):
            decode_pgm(b"P5\n1 1\n65535\n\x00\x00")

    def test_header_comments_allowed(self):
        img = decode_pgm(b"P5\n# a comment\n2 1\n255\n\x01\x02")
        assert img.tolist() == [[1, 2]]

    @pytest.mark.parametrize("header", [b"P5\n1_0 2\n255\n", b"P5\n+4 2\n255\n",
                                        b"P5\n-4 2\n255\n", b"P5\n4 \xd9\xa2\n255\n",
                                        b"P5\n4 2\n2_55\n"])
    def test_non_decimal_header_field_rejected(self, header):
        with pytest.raises(PgmError, match="invalid"):
            decode_pgm(header + bytes(8))

    def test_trailing_bytes_rejected(self):
        with pytest.raises(PgmError, match="trailing"):
            decode_pgm(b"P5\n1 1\n255\n\x00\x00")

    # 4,300 digits is the most that int() converts by default (sys.get_int_max_str_digits)
    @pytest.mark.parametrize("digits", [4301, 5000])
    @pytest.mark.parametrize("field", ["width", "height", "maxval"])
    def test_overlong_header_field_rejected(self, field, digits):
        fields = {"width": b"1", "height": b"1", "maxval": b"255", field: b"1" * digits}
        data = b"P5 %s %s %s\n\x00" % (fields["width"], fields["height"], fields["maxval"])
        with pytest.raises(PgmError) as refused:
            decode_pgm(data)
        assert str(refused.value) == f"invalid {field}: {b'1' * 16!r}... ({digits} digits)"

    def test_read_pgm_names_the_path(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00")
        with pytest.raises(PgmError, match=f"^{path}: truncated pixel data"):
            imaging.read_pgm(path)

    @settings(max_examples=50, deadline=None)
    @given(gray_images)
    def test_round_trip(self, img):
        assert np.array_equal(decode_pgm(encode_pgm(img)), img)


# PGM header pieces: the six whitespace bytes, comments ended by a newline, a
# carriage return or the data, and tokens decimal or not
_SPACES = st.sampled_from([b" ", b"\t", b"\r", b"\n", b"\x0b", b"\x0c"])
_COMMENTS = st.builds(lambda text, end: b"#" + text + end,
                      st.binary(max_size=6), st.sampled_from([b"", b"\n", b"\r", b"\r\n"]))
_ODD_TOKENS = st.sampled_from([b"1_0", b"+4", b"-4", b"2_55", b"00", b"0", b"4#",
                               "\u0662".encode(), "\uff13".encode(), b"\xb2", b"\x00"])
_TOKENS = st.one_of(st.integers(0, 300).map(b"%d".__mod__), _ODD_TOKENS, st.binary(max_size=4))
_GAPS = st.lists(st.one_of(_SPACES, _COMMENTS), max_size=3).map(b"".join)


@st.composite
def pgm_files(draw) -> bytes:
    """Nearly well-formed PGM files: each part is right three times in four."""
    def right(value, wrong):
        return value if draw(st.sampled_from([True, True, True, False])) else draw(wrong)

    width, height = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    fields = [right(b"%d" % width, _TOKENS), right(b"%d" % height, _TOKENS),
              right(b"255", _TOKENS)]
    header = b"".join(draw(_GAPS) + right(b" ", _SPACES) + field for field in fields)
    # a wrong byte after maxval: none, a comment, a digit, or Latin-1 whitespace
    after = right(b"\n", st.one_of(_SPACES, st.sampled_from([b"", b"#", b"7", b"\x85", b"\xa0"])))
    raster = draw(st.binary(min_size=width * height, max_size=width * height))
    raster = right(raster, st.binary(max_size=width * height + 1))
    return right(b"P5", st.sampled_from([b"P6", b"P", b"", b"p5"])) + header + after + raster


headers = st.lists(st.one_of(_SPACES, _COMMENTS, _TOKENS), max_size=12).map(b"".join)


def _decoded(decode, data: bytes):
    try:
        arr = decode(data)
    except PgmError as exc:
        return "error", str(exc)
    return "image", arr.shape, arr.dtype, arr.tobytes()


class TestPgmMatchesTokenizer:
    """The one-expression header reader against the byte-at-a-time tokenizer."""

    @settings(max_examples=600, deadline=None)
    @given(pgm_files())
    def test_nearly_well_formed_files(self, data):
        assert _decoded(decode_pgm, data) == _decoded(tokenizer_decode_pgm, data)

    @settings(max_examples=600, deadline=None)
    @given(headers, st.binary(max_size=12))
    def test_any_header(self, header, tail):
        data = b"P5" + header + tail
        assert _decoded(decode_pgm, data) == _decoded(tokenizer_decode_pgm, data)

    @pytest.mark.parametrize("data", [b"P5", b"P5 ", b"P5 1", b"P5 1 1", b"P5 1 1 255",
                                      b"P5 1 1 255#\n\x00", b"P5 1 1 255\x00\x00",
                                      b"P5#1 1 255\n\x00", b"P51 1 255\n\x00",
                                      b"P5 0 1 255\n", b"P5 1 1 254\n\x00",
                                      b"P5\x0b1\x0c1\r255\t\x07"])
    def test_edge_headers(self, data):
        assert _decoded(decode_pgm, data) == _decoded(tokenizer_decode_pgm, data)


class TestOtsu:
    def test_bimodal_perfectly_separated(self):
        img = np.array([[10] * 8, [240] * 8], dtype=np.uint8)
        ink = img < otsu_threshold(img)
        assert ink[0].all() and not ink[1].any()

    def test_constant_image_all_background(self):
        img = np.full((4, 5), 200, dtype=np.uint8)
        assert not (img < otsu_threshold(img)).any()

    def test_six_pixel_example(self):
        img = np.array([[0, 0, 0, 255, 255, 255]], dtype=np.uint8)
        assert (img < otsu_threshold(img)).sum() == 3

    @staticmethod
    def _exhaustive_otsu(img: np.ndarray) -> int:
        """Independent oracle: scan all 256 thresholds by definition."""
        values = img.ravel().astype(float)
        best_t, best_var = 0, -1.0
        for t in range(256):
            lo = values[values < t]
            hi = values[values >= t]
            if lo.size == 0 or hi.size == 0:
                var = 0.0
            else:
                w0, w1 = lo.size, hi.size
                var = w0 * w1 * (lo.mean() - hi.mean()) ** 2
            if var > best_var:
                best_t, best_var = t, var
        return best_t

    @settings(max_examples=30, deadline=None)
    @given(gray_images)
    def test_matches_exhaustive_scan(self, img):
        assert otsu_threshold(img) == self._exhaustive_otsu(img)


class TestBoundingBox:
    def test_single_pixel(self):
        mask = np.zeros((5, 6), dtype=bool)
        mask[2, 3] = True
        assert bounding_box(mask) == Rect(2, 3, 1, 1)

    def test_corner_extremes(self):
        mask = np.zeros((5, 8), dtype=bool)
        mask[0, 0] = mask[4, 7] = True
        assert bounding_box(mask) == Rect(0, 0, 5, 8)

    def test_empty_raises(self):
        with pytest.raises(NoInkError):
            bounding_box(np.zeros((3, 3), dtype=bool))

    @settings(max_examples=100, deadline=None)
    @given(masks)
    def test_matches_nonzero_extremes(self, mask):
        ys, xs = np.nonzero(mask)
        if ys.size == 0:
            with pytest.raises(NoInkError):
                bounding_box(mask)
            return
        assert bounding_box(mask) == Rect(int(ys.min()), int(xs.min()),
                                          int(ys.max() - ys.min()) + 1,
                                          int(xs.max() - xs.min()) + 1)


def _cubic(x: float, a: float = -0.5) -> float:
    x = abs(x)
    if x <= 1:
        return (a + 2) * x**3 - (a + 3) * x**2 + 1
    if x < 2:
        return a * (x**3 - 5 * x**2 + 8 * x - 4)
    return 0.0


def _bicubic_point(img: np.ndarray, sy: float, sx: float) -> float:
    """Scalar reference evaluation with clamped taps."""
    h, w = img.shape
    total = 0.0
    for ty in range(int(np.floor(sy)) - 1, int(np.floor(sy)) + 3):
        wy = _cubic(sy - ty)
        for tx in range(int(np.floor(sx)) - 1, int(np.floor(sx)) + 3):
            wx = _cubic(sx - tx)
            total += wy * wx * float(img[min(max(ty, 0), h - 1), min(max(tx, 0), w - 1)])
    return total


class TestResizeBicubic:
    def test_constant_stays_constant(self):
        img = np.full((5, 7), 77, dtype=np.uint8)
        out = resize_bicubic(img, 9, 13)
        assert out.shape == (9, 13)
        assert (out == 77).all()

    def test_identity_size_reproduces_input(self):
        gen = np.random.default_rng(0)
        img = gen.integers(0, 256, size=(6, 9), dtype=np.uint8)
        assert np.array_equal(resize_bicubic(img, 6, 9), img)

    def test_ramp_upscale_matches_hand_evaluation(self):
        img = (np.arange(4, dtype=np.uint8) * 60)[None, :].repeat(4, axis=0)
        out = resize_bicubic(img, 8, 8)
        # monotone along the ramp axis
        assert (np.diff(out.astype(int), axis=1) >= 0).all()
        # hand-evaluated kernel at 3 sample points
        for j in (1, 4, 6):
            sx = (j + 0.5) * 4 / 8 - 0.5
            expected = np.floor(min(max(_bicubic_point(img, 0.0, sx), 0.0), 255.0) + 0.5)
            assert out[0, j] == expected

    @settings(max_examples=30, deadline=None)
    @given(gray_images, st.integers(1, 10), st.integers(1, 10))
    def test_output_shape_and_range(self, img, out_h, out_w):
        out = resize_bicubic(img, out_h, out_w)
        assert out.shape == (out_h, out_w)
        assert out.dtype == np.uint8

    def test_rejects_empty_target(self):
        with pytest.raises(ValueError):
            resize_bicubic(np.zeros((2, 2), dtype=np.uint8), 0, 4)


class TestResampleMatrix:
    @pytest.mark.parametrize("n_out", [1, 2, 3, 7, 64, 128, 200])
    def test_matches_add_at_reference(self, n_out):
        for n_in in range(1, 400):
            got = imaging._resample_matrix(n_in, n_out)
            want = add_at_resample_matrix(n_in, n_out)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (n_in, n_out)

    @pytest.mark.parametrize("n_out", [64, 128])
    def test_cached_taps_give_the_reference(self, n_out):
        imaging._resample_taps.cache_clear()
        for _ in range(2):  # the first call fills the cache, the second reads it
            for n_in in range(1, 201):
                got = imaging._resample_matrix(n_in, n_out)
                assert got.tobytes() == add_at_resample_matrix(n_in, n_out).tobytes(), n_in

    def test_taps_are_read_only_and_the_cache_bounded(self):
        assert imaging._resample_taps.cache_info().maxsize is not None
        for taps in imaging._resample_taps(37, 128):
            assert not taps.flags.writeable
            with pytest.raises(ValueError):
                taps[0] = 0


class TestPreprocess:
    def test_chain_yields_canonical_raster(self):
        img = np.full((50, 90), 250, dtype=np.uint8)
        img[20:30, 10:70] = 15
        pre = preprocess(img)
        assert pre.image.shape == (64, 128)
        assert pre.ink.shape[0] >= 10 and pre.ink.shape[1] >= 60

    @settings(max_examples=25, deadline=None)
    @given(arrays(np.uint8, st.tuples(st.integers(8, 20), st.integers(8, 20)),
                  elements=st.integers(0, 255)))
    def test_chain_total_on_inked_images(self, img):
        if not (img < otsu_threshold(img)).any():
            return
        assert preprocess(img).image.shape == (64, 128)

    def test_no_ink_raises(self):
        with pytest.raises(NoInkError):
            preprocess(np.full((10, 10), 99, dtype=np.uint8))

    @pytest.mark.parametrize("dtype", [np.int64, np.bool_])
    @pytest.mark.parametrize("stage", [preprocess, otsu_threshold])
    def test_refuses_rasters_that_are_not_uint8(self, stage, dtype):
        img = np.zeros((10, 10), dtype=dtype)
        img[3:6, 2:8] = 1
        with pytest.raises(ValueError, match=f"got dtype {np.dtype(dtype).name}$"):
            stage(img)


def _word(mask: np.ndarray, ink: int = 20, paper: int = 235) -> np.ndarray:
    return np.where(mask, ink, paper).astype(np.uint8)


def _ink_at(shape: tuple[int, int], *cells: tuple[int, int]) -> np.ndarray:
    mask = np.zeros(shape, dtype=bool)
    for cell in cells:
        mask[cell] = True
    return mask


_REFERENCE_CASES = {
    "top-border": _word(_ink_at((7, 9), (0, 3), (2, 5))),
    "bottom-border": _word(_ink_at((7, 9), (6, 3), (4, 5))),
    "left-border": _word(_ink_at((7, 9), (3, 0), (5, 2))),
    "right-border": _word(_ink_at((7, 9), (3, 8), (1, 6))),
    "all-corners": _word(_ink_at((6, 11), (0, 0), (0, 10), (5, 0), (5, 10))),
    "one-pixel": _word(_ink_at((9, 13), (4, 6))),
    "one-pixel-corner": _word(_ink_at((5, 5), (4, 4))),
    "one-pixel-image-row": _word(_ink_at((1, 7), (0, 3))),
    "one-pixel-image-column": _word(_ink_at((7, 1), (3, 0))),
    "solid-word": _word(np.pad(np.ones((3, 8), dtype=bool), ((2, 3), (4, 1)))),
    "all-ink-but-one": _word(~_ink_at((5, 7), (2, 3))),
    "odd-sizes": np.random.default_rng(42).integers(0, 256, size=(13, 27), dtype=np.uint8),
}


class TestPreprocessMatchesReference:
    """`preprocess` against binarize -> 3x3 dilation -> box -> cut -> resize."""

    @staticmethod
    def _check(img: np.ndarray) -> None:
        want_image, want_ink = reference_preprocess(img)  # want_ink spans the dilated box
        pre = preprocess(img)
        assert pre.ink.shape == want_ink.shape and pre.ink.dtype == want_ink.dtype
        assert pre.ink.tobytes() == want_ink.tobytes()
        assert pre.image.shape == want_image.shape
        assert pre.image.tobytes() == want_image.tobytes()

    @pytest.mark.parametrize("name", sorted(_REFERENCE_CASES))
    def test_constructed_words(self, name):
        self._check(_REFERENCE_CASES[name])

    @settings(max_examples=150, deadline=None)
    @given(arrays(np.bool_, st.tuples(st.integers(1, 17), st.integers(1, 17)),
                  elements=st.booleans()))
    def test_two_tone_words(self, mask):
        img = _word(mask)
        assume((img < otsu_threshold(img)).any())
        self._check(img)

    @settings(max_examples=100, deadline=None)
    @given(gray_images)
    def test_gray_images(self, img):
        assume((img < otsu_threshold(img)).any())
        self._check(img)

    def test_ink_is_a_view(self):
        pre = preprocess(_REFERENCE_CASES["solid-word"])
        assert pre.ink.base is not None
