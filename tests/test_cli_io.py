import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchmask import pnm
from patchmask.cluster_masker import Mask, random_mask
from patchmask.errors import ConfigError, DataError
from patchmask.patch_grid import Image
from patchmask.pnm import encode_pnm, load_image, parse_pnm, read_size, save_image
from patchmask.render import render_mask
from patchmask.stats import stats_report


def full_mask(length, anchors=()):
    return Mask(masked=np.ones(length, dtype=bool), anchors=np.array(anchors, dtype=np.int64))


def empty_mask(length):
    return Mask(masked=np.zeros(length, dtype=bool), anchors=np.empty(0, dtype=np.int64))


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


_MAGICS = [b"P5", b"P6", b"P3", b"P", b""]
_FIELDS = [b"2", b"16", b"255", b"256", b"65535", b"65536", b"0", b"-1", b"x", b""]
_SEPARATORS = [b" ", b"\n", b"\t\r", b"\n# note\n", b"# note\n", b"#", b""]


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


class TestReadSize:
    def test_reads_the_header_alone(self, tmp_path):
        path = tmp_path / "a.ppm"
        path.write_bytes(b"P6\n# made by hand\n3 2\n255\n")  # no pixel data
        assert read_size(path) == (2, 3)

    @settings(max_examples=300)
    @given(data=_headers(), chunk=st.integers(1, 16))
    def test_agrees_with_the_full_parse(self, data, chunk):
        # whatever the header, and wherever a read ends in it, read_size
        # gives the full parse's size or raises its error
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(pnm, "_HEADER_CHUNK", chunk):
            path = Path(tmp) / "a.pnm"
            path.write_bytes(data)
            try:
                width, height = pnm._parse_header(data)[:2]
            except DataError as exc:
                with pytest.raises(DataError) as raised:
                    read_size(path)
                assert str(raised.value) == str(exc)
            else:
                assert read_size(path) == (height, width)


class TestRenderMask:
    def test_all_masked_gives_uniform_gray_except_outlines(self, rng):
        image = Image(data=rng.random((8, 8, 3)))
        out = render_mask(image, full_mask(4, anchors=[0]), 4)
        # non-anchor masked blocks are pure gray
        np.testing.assert_array_equal(out.data[0:4, 4:8], 0.5)
        # anchor block: red one-pixel border, gray interior
        np.testing.assert_array_equal(out.data[0, 0], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(out.data[1:3, 1:3], 0.5)

    def test_empty_mask_is_identity(self, rng):
        image = Image(data=rng.random((8, 8, 3)))
        out = render_mask(image, empty_mask(4), 4)
        np.testing.assert_array_equal(out.data, image.data)

    def test_checkerboard_grays_exactly_flagged_blocks(self, rng):
        image = Image(data=rng.random((8, 8, 1)))
        mask = Mask(masked=np.array([True, False, False, True]),
                    anchors=np.empty(0, dtype=np.int64))
        out = render_mask(image, mask, 4)
        np.testing.assert_array_equal(out.data[0:4, 0:4], 0.5)
        np.testing.assert_array_equal(out.data[4:8, 4:8], 0.5)
        np.testing.assert_array_equal(out.data[0:4, 4:8], image.data[0:4, 4:8])
        np.testing.assert_array_equal(out.data[4:8, 0:4], image.data[4:8, 0:4])

    def test_unmasked_pixels_untouched_under_random_masks(self, rng):
        image = Image(data=rng.random((16, 16, 3)))
        mask = random_mask(16, 0.5, rng)
        out = render_mask(image, mask, 4)
        for idx in np.flatnonzero(~mask.masked):
            i, j = divmod(int(idx), 4)
            np.testing.assert_array_equal(
                out.data[i * 4 : (i + 1) * 4, j * 4 : (j + 1) * 4],
                image.data[i * 4 : (i + 1) * 4, j * 4 : (j + 1) * 4],
            )

    def test_length_mismatch(self, rng):
        image = Image(data=rng.random((8, 8, 3)))
        with pytest.raises(DataError):
            render_mask(image, empty_mask(9), 4)

    @pytest.mark.parametrize("patch_size, error",
                             [(0, ConfigError), (-4, ConfigError), (3, DataError)])
    def test_bad_patch_size(self, rng, patch_size, error):
        # -4 once read as a -2 x -2 grid, which matched the mask's 4 patches
        image = Image(data=rng.random((8, 8, 3)))
        with pytest.raises(error):
            render_mask(image, empty_mask(4), patch_size)


class TestStatsReport:
    def test_single_all_masked(self):
        stats = stats_report([full_mask(10)])
        assert stats.mean_ratio == stats.min_ratio == stats.max_ratio == 1.0

    def test_two_mask_mean(self):
        a = Mask(masked=np.arange(10) < 4, anchors=np.empty(0, dtype=np.int64))
        b = Mask(masked=np.arange(10) < 6, anchors=np.empty(0, dtype=np.int64))
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
