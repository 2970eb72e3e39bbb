import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchmask import pnm
from patchmask.cluster_masker import Mask, random_mask
from patchmask.errors import DataError
from patchmask.patch_grid import Image, patchify, pixel_normalize
from patchmask.pnm import (
    encode_pnm, load_image, load_patches, load_samples, parse_pnm, read_size, save_image,
)
from patchmask.render import render_mask
from patchmask.stats import stats_report


def full_mask(length, anchors=()):
    return Mask(masked=np.ones(length, dtype=bool), anchors=np.array(anchors, dtype=np.int64))


def empty_mask(length):
    return Mask(masked=np.zeros(length, dtype=bool))


class TestPnm:
    def test_p6_all_white(self):
        data = b"P6\n2 2\n255\n" + b"\xff" * 12
        image = parse_pnm(data)
        assert image.channels == 3
        np.testing.assert_array_equal(image.data, np.ones((2, 2, 3)))

    def test_p5_grayscale_single_channel(self):
        data = b"P5\n3 2\n255\n" + bytes([0, 51, 102, 153, 204, 255])
        image = parse_pnm(data)
        assert image.channels == 1
        assert image.data[0, 1, 0] == pytest.approx(51 / 255)

    def test_header_comments_are_skipped(self):
        data = b"P6\n# made by hand\n2 1 # trailing\n255\n" + b"\x00" * 6
        image = parse_pnm(data)
        assert (image.height, image.width) == (1, 2)

    def test_sixteen_bit_samples(self):
        data = b"P5\n1 1\n65535\n" + (32768).to_bytes(2, "big")
        image = parse_pnm(data)
        assert image.data[0, 0, 0] == pytest.approx(32768 / 65535)

    def test_truncated_file_names_offset(self):
        data = b"P6\n2 2\n255\n" + b"\xff" * 5
        with pytest.raises(DataError, match="byte"):
            parse_pnm(data)

    def test_unsupported_magic(self):
        with pytest.raises(DataError, match="unsupported"):
            parse_pnm(b"P3\n1 1\n255\n0 0 0")

    def test_bad_header_reports_offset(self):
        with pytest.raises(DataError, match="at byte"):
            parse_pnm(b"P6\nxx 2\n255\n")

    def test_round_trip_bytes(self, rng, tmp_path):
        # canonical bytes -> Image -> bytes is the identity
        quantized = np.round(rng.random((8, 6, 3)) * 255) / 255
        original = encode_pnm(Image(data=quantized))
        assert encode_pnm(parse_pnm(original)) == original

        path = tmp_path / "img.ppm"
        save_image(Image(data=quantized), path)
        np.testing.assert_array_equal(load_image(path).data, quantized)

    def test_gray_round_trip(self, rng, tmp_path):
        quantized = np.round(rng.random((5, 7, 1)) * 255) / 255
        path = tmp_path / "img.pgm"
        save_image(Image(data=quantized), path)
        np.testing.assert_array_equal(load_image(path).data, quantized)


def pnm_bytes(samples, maxval):
    """Binary P5/P6 bytes of (H, W, C) integer samples under maxval."""
    height, width, channels = samples.shape
    magic = b"P6" if channels == 3 else b"P5"
    dtype = np.uint8 if maxval < 256 else np.dtype(">u2")
    header = magic + f"\n{width} {height}\n{maxval}\n".encode("ascii")
    return header + samples.astype(dtype).tobytes()


class TestLoadPatches:
    @pytest.mark.parametrize("patch_size", [4, 16])
    @pytest.mark.parametrize("maxval", [255, 100, 1000, 65535])
    @pytest.mark.parametrize("channels", [1, 3], ids=["P5", "P6"])
    def test_equals_the_float_path_bit_for_bit(self, tmp_path, rng, channels, maxval, patch_size):
        samples = rng.integers(0, maxval + 1, size=(32, 48, channels))
        samples[:16, :16] = maxval // 3  # flat patches, which normalize to zeros
        samples[-1, -1] = maxval
        path = tmp_path / "a.pnm"
        path.write_bytes(pnm_bytes(samples, maxval))
        grid = load_patches(path, patch_size)
        expected = patchify(load_image(path), patch_size)
        fields = ("rows", "cols", "patch_size", "channels", "normalized")
        assert [getattr(grid, f) for f in fields] == [getattr(expected, f) for f in fields]
        assert grid.patches.tobytes() == expected.patches.tobytes()
        normalized = pixel_normalize(grid).patches
        assert normalized.tobytes() == pixel_normalize(expected).patches.tobytes()
        # the copy leaves the loaded bits alone; in place, as mask and
        # calibrate normalize, they become the copy's
        assert grid.patches.tobytes() == expected.patches.tobytes()
        assert pixel_normalize(grid, in_place=True).patches.tobytes() == normalized.tobytes()
        # the undivided samples, in the same layout, divide to the same bits
        integers, file_maxval = load_samples(path, patch_size)
        assert file_maxval == maxval
        assert [getattr(integers, f) for f in fields] == [getattr(expected, f) for f in fields]
        assert (integers.patches == np.round(integers.patches)).all()
        assert (integers.patches / maxval).tobytes() == expected.patches.tobytes()

    @pytest.mark.parametrize("data, patch_size", [
        (b"P5\n2 2\n255\n" + bytes(3), 2),  # truncated
        (b"P3\n2 2\n255\n", 2),
        (b"P5\n5 5\n100\n" + bytes(24) + bytes([101]), 2),  # out of range, size indivisible
        (b"P5\n2 1\n1000\n" + (1000).to_bytes(2, "big") + (1001).to_bytes(2, "big"), 1),
        (b"P6\n1 1\n65535\n" + bytes(6), 2),  # in range, size indivisible
    ])
    def test_fails_as_the_float_path_fails(self, tmp_path, data, patch_size):
        # the image's own errors come before patch_size's, as when the
        # image is loaded before it is patchified
        path = tmp_path / "a.pnm"
        path.write_bytes(data)
        with pytest.raises(DataError) as expected:
            patchify(load_image(path), patch_size)
        for load in (load_patches, load_samples):
            with pytest.raises(DataError) as raised:
                load(path, patch_size)
            assert str(raised.value) == str(expected.value)

    def test_range_error_wins_over_patch_size(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P5\n5 5\n100\n" + bytes(24) + bytes([101]))
        with pytest.raises(DataError, match=r"^image intensities must lie in \[0, 1\]$"):
            load_patches(path, 2)


_MAGICS = [b"P5", b"P6", b"P3", b"P", b""]
_FIELDS = [b"2", b"16", b"255", b"256", b"65535", b"65536", b"0", b"-1", b"x", b""]
# the long comment runs past read_size's first read, _HEADER_CHUNK bytes
_SEPARATORS = [b" ", b"\n", b"\t\r", b"\n# note\n", b"# note\n", b"#", b"", b"\r", b"\x0b",
               b"\x0c", b"#c\r", b"#" + b"c" * 300 + b"\n"]


def _piece(choices, valid):
    """One of choices, drawn from the first valid ones half the time."""
    return st.one_of(st.sampled_from(choices[:valid]), st.sampled_from(choices))


@st.composite
def _headers(draw):
    """A magic and three fields, each followed by a separator, then bytes."""
    parts = [draw(_piece(_MAGICS, 2))]
    for _ in range(3):
        parts += [draw(_piece(_SEPARATORS, 4)), draw(_piece(_FIELDS, 6))]
    parts.append(draw(_piece(_SEPARATORS, 4)))
    return b"".join(parts) + draw(st.binary(max_size=8))


# A frozen copy of the byte-by-byte header scanner that pnm's compiled
# pattern replaced. It pins _parse_header's values, error texts and offsets
# to those of before.

_FROZEN_WHITESPACE = b" \t\n\r\x0b\x0c"


class _FrozenHeaderScanner:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def fail(self, message):
        raise DataError(f"{message} at byte {self.pos}")

    def skip_separators(self):
        while self.pos < len(self.data):
            byte = self.data[self.pos : self.pos + 1]
            if byte in (b"#",):
                while self.pos < len(self.data) and self.data[self.pos : self.pos + 1] not in (b"\n", b"\r"):
                    self.pos += 1
            elif byte in _FROZEN_WHITESPACE and byte:
                self.pos += 1
            else:
                return

    def read_int(self, name):
        self.skip_separators()
        start = self.pos
        while self.pos < len(self.data) and self.data[self.pos : self.pos + 1] not in _FROZEN_WHITESPACE:
            self.pos += 1
        token = self.data[start : self.pos]
        if not token or not token.isdigit():
            self.pos = start
            self.fail(f"expected integer {name}")
        try:
            return int(token)
        except ValueError:  # more digits than CPython converts
            self.pos = start
            self.fail(f"integer {name} has {len(token)} digits")


def frozen_parse_header(data):
    scanner = _FrozenHeaderScanner(data)
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise DataError(f"unsupported format {magic!r}: only binary P5/P6 are handled")
    scanner.pos = 2
    channels = 3 if magic == b"P6" else 1
    width = scanner.read_int("width")
    height = scanner.read_int("height")
    maxval = scanner.read_int("maxval")
    if width < 1 or height < 1:
        scanner.fail(f"dimensions must be positive, got {width}x{height}")
    if not 1 <= maxval <= 65535:
        scanner.fail(f"maxval must lie in [1, 65535], got {maxval}")
    if scanner.pos >= len(data) or data[scanner.pos : scanner.pos + 1] not in _FROZEN_WHITESPACE:
        scanner.fail("expected single whitespace before pixel data")
    return width, height, channels, maxval, scanner.pos + 1


def _outcome(parse, data):
    """parse(data), or the text of the DataError it raises."""
    try:
        return parse(data)
    except DataError as exc:
        return str(exc)


class TestParseHeader:
    @settings(max_examples=500)
    @given(data=_headers())
    def test_matches_the_frozen_scanner(self, data):
        assert _outcome(pnm._parse_header, data) == _outcome(frozen_parse_header, data)

    def test_each_byte_separates_as_before(self):
        # \s of a bytes pattern and bytes.isspace() match exactly the six
        # ASCII whitespace bytes, whatever the byte's place in the header
        for sep in map(bytes, zip(range(256))):
            for data in (b"P5" + sep + b"2 2 255" + sep, b"P5 2" + sep + b"2 255 x",
                         b"P6 2 2#" + sep + b"9 255 " + sep):
                assert _outcome(pnm._parse_header, data) == _outcome(frozen_parse_header, data)

    def test_an_integer_past_the_digit_limit_names_its_offset(self):
        data = b"P5 2 " + b"1" * 5000 + b" 255 "
        assert _outcome(pnm._parse_header, data) == "integer height has 5000 digits at byte 5"
        assert _outcome(frozen_parse_header, data) == _outcome(pnm._parse_header, data)


class TestReadSize:
    def test_reads_the_header_alone(self, tmp_path):
        path = tmp_path / "a.ppm"
        path.write_bytes(b"P6\n# made by hand\n300 2\n255\n" + bytes(1800))
        with mock.patch.object(pnm, "_parse_header", wraps=pnm._parse_header) as parse:
            assert read_size(path) == (2, 300)
        # the first read holds the whole header, so no more is read
        assert [len(call.args[0]) for call in parse.call_args_list] == [pnm._HEADER_CHUNK]

    @pytest.mark.parametrize("side", [1600000, 160000, 2])
    def test_a_file_shorter_than_its_pixels_fails_as_its_load(self, tmp_path, side):
        # the header's claim alone is checked against the file's length
        path = tmp_path / "a.ppm"
        path.write_bytes(b"P6\n%d %d\n255\n" % (side, side) + bytes(min(100, side * side * 3 - 1)))
        with pytest.raises(DataError) as loaded:
            load_image(path)
        assert str(loaded.value).startswith("truncated pixel data: ")
        with pytest.raises(DataError) as raised:
            read_size(path)
        assert str(raised.value) == str(loaded.value)

    @settings(max_examples=300)
    @given(data=_headers(), pixels=st.integers(0, 1600),
           chunk=st.one_of(st.integers(1, 16), st.just(pnm._HEADER_CHUNK)))
    def test_agrees_with_the_full_parse(self, data, pixels, chunk):
        # whatever the header, wherever a read ends in it, and however many
        # pixel bytes follow, read_size gives the full parse's size or
        # raises its header or length error
        data += bytes(pixels)
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(pnm, "_HEADER_CHUNK", chunk):
            path = Path(tmp) / "a.pnm"
            path.write_bytes(data)
            try:
                header = pnm._parse_header(data)
                pnm._sample_dtype(header, len(data))
            except DataError as exc:
                with pytest.raises(DataError) as raised:
                    read_size(path)
                assert str(raised.value) == str(exc)
            else:
                assert read_size(path) == (header[1], header[0])


class TestRenderMask:
    def test_all_masked_gives_uniform_gray_except_outlines(self, rng):
        grid = patchify(Image(data=rng.random((8, 8, 3))), 4)
        out = render_mask(grid, full_mask(4, anchors=[0]))
        # non-anchor masked blocks are pure gray
        np.testing.assert_array_equal(out.data[0:4, 4:8], 0.5)
        # anchor block: red one-pixel border, gray interior
        np.testing.assert_array_equal(out.data[0, 0], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(out.data[1:3, 1:3], 0.5)

    def test_empty_mask_is_identity(self, rng):
        image = Image(data=rng.random((8, 8, 3)))
        out = render_mask(patchify(image, 4), empty_mask(4))
        np.testing.assert_array_equal(out.data, image.data)

    def test_the_grid_is_left_untouched(self, rng):
        grid = patchify(Image(data=rng.random((8, 8, 3))), 4)
        before = grid.patches.copy()
        render_mask(grid, full_mask(4, anchors=[1, 2]))
        np.testing.assert_array_equal(grid.patches, before)

    def test_checkerboard_grays_exactly_flagged_blocks(self, rng):
        image = Image(data=rng.random((8, 8, 1)))
        out = render_mask(patchify(image, 4), Mask(masked=np.array([True, False, False, True])))
        np.testing.assert_array_equal(out.data[0:4, 0:4], 0.5)
        np.testing.assert_array_equal(out.data[4:8, 4:8], 0.5)
        np.testing.assert_array_equal(out.data[0:4, 4:8], image.data[0:4, 4:8])
        np.testing.assert_array_equal(out.data[4:8, 0:4], image.data[4:8, 0:4])

    def test_unmasked_pixels_untouched_under_random_masks(self, rng):
        image = Image(data=rng.random((16, 16, 3)))
        mask = random_mask(16, 0.5, rng)
        out = render_mask(patchify(image, 4), mask)
        for idx in np.flatnonzero(~mask.masked):
            i, j = divmod(int(idx), 4)
            np.testing.assert_array_equal(
                out.data[i * 4 : (i + 1) * 4, j * 4 : (j + 1) * 4],
                image.data[i * 4 : (i + 1) * 4, j * 4 : (j + 1) * 4],
            )

    def test_length_mismatch(self, rng):
        grid = patchify(Image(data=rng.random((8, 8, 3))), 4)
        with pytest.raises(DataError):
            render_mask(grid, empty_mask(9))

    def test_a_normalized_grid_is_a_data_error(self, rng):
        grid = pixel_normalize(patchify(Image(data=rng.random((8, 8, 3))), 4))
        with pytest.raises(DataError, match="normalized"):
            render_mask(grid, empty_mask(4))

    @pytest.mark.parametrize("masked, anchors, message", [
        # -1 once outlined patch 3 and 4 raised a bare IndexError
        ([False, False, False, True], [-1], "distinct patches in"),
        ([False, False, False, True], [4], "distinct patches in"),
        ([True, False, False, True], [3, 3], "distinct patches in"),
        # an unmasked anchor once had its pixels outlined
        ([False, False, False, False], [0], "must be masked patches"),
    ])
    def test_anchors_must_be_distinct_masked_patches(self, masked, anchors, message):
        # render_mask reads Mask's invariants: a mask that breaks them, and
        # that render_mask once outlined or failed on, cannot be built
        grid = patchify(Image(data=np.zeros((8, 8, 3))), 4)
        with pytest.raises(DataError, match=message):
            render_mask(grid, Mask(masked=np.array(masked), anchors=np.array(anchors)))


class TestStatsReport:
    def test_single_all_masked(self):
        stats = stats_report([full_mask(10)])
        assert stats.mean_ratio == stats.min_ratio == stats.max_ratio == 1.0

    def test_two_mask_mean(self):
        a = Mask(masked=np.arange(10) < 4)
        b = Mask(masked=np.arange(10) < 6)
        stats = stats_report([a, b])
        assert stats.mean_ratio == pytest.approx(0.5)
        assert stats.min_ratio == pytest.approx(0.4)
        assert stats.max_ratio == pytest.approx(0.6)

    def test_histogram_and_cluster_count(self):
        stats = stats_report([full_mask(4, anchors=[0, 1]), empty_mask(4)])
        assert sum(stats.histogram) == 2
        assert len(stats.histogram) == 20
        assert stats.histogram[0] == 1 and stats.histogram[19] == 1
        assert stats.mean_cluster_count == pytest.approx(1.0)

    def test_empty_list_rejected(self):
        with pytest.raises(DataError):
            stats_report([])
