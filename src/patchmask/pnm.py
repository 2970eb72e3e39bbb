"""Binary portable pixmap (P6) and graymap (P5) reading and writing.

Only the binary variants are supported; intensities are scaled to [0, 1]
on load (each sample divides by the file's maxval) and written back as
8-bit with maxval 255. A header is P5 or P6, then width, height and
maxval, each a run of ASCII digits that follows any whitespace and #
comments (to the end of their line) and ends at whitespace, then one
whitespace byte; parse failures report the byte offset. load_patches
range-checks and patchifies the integer samples, and converts and
divides each once, straight into the grid: no float64 raster is made,
and the grid is patchify(load_image(path)) bit for bit. load_samples
gathers the same samples into the same layout without the division, for
a reader that decides from the integers first.
"""

import os
import re

import numpy as np

from .errors import DataError
from .patch_grid import Image, raster_patches

_FIELD = re.compile(rb"(?:\s|#[^\n\r]*)*(\S*)")  # separators, then one field
_HEADER_CHUNK = 256  # bytes read_size reads first; a usual header takes ~15


def _parse_header(data):
    """(width, height, channels, maxval, offset of the pixel data) of P5/P6
    bytes; data may end anywhere after the header."""
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise DataError(f"unsupported format {magic!r}: only binary P5/P6 are handled")
    values, pos = [], 2
    for name in ("width", "height", "maxval"):
        field = _FIELD.match(data, pos)
        token, pos = field[1], field.end()
        if not token.isdigit():
            raise DataError(f"expected integer {name} at byte {field.start(1)}")
        try:
            values.append(int(token))
        except ValueError:  # more digits than CPython converts
            raise DataError(f"integer {name} has {len(token)} digits at byte {field.start(1)}")
    width, height, maxval = values
    if width < 1 or height < 1:
        raise DataError(f"dimensions must be positive, got {width}x{height} at byte {pos}")
    if not 1 <= maxval <= 65535:
        raise DataError(f"maxval must lie in [1, 65535], got {maxval} at byte {pos}")
    if not data[pos : pos + 1].isspace():
        raise DataError(f"expected single whitespace before pixel data at byte {pos}")
    return width, height, 3 if magic == b"P6" else 1, maxval, pos + 1


def _sample_dtype(header, size):
    """The samples' dtype of a parsed header, checked to fit in size bytes."""
    width, height, channels, maxval, start = header
    dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
    expected = width * height * channels * dtype.itemsize
    if size - start < expected:
        raise DataError(f"truncated pixel data: expected {expected} bytes from byte "
                        f"{start}, file ends at byte {size}")
    return dtype


def _decode(data):
    """(samples, maxval) of P5/P6 bytes: the (H, W, C) uint8 or >u2
    samples, a view of data, each checked to be at most maxval."""
    header = _parse_header(data)
    width, height, channels, maxval, start = header
    dtype = _sample_dtype(header, len(data))
    samples = np.frombuffer(data, dtype, count=width * height * channels, offset=start)
    if samples.max() > maxval:
        raise DataError("image intensities must lie in [0, 1]")
    return samples.reshape(height, width, channels), maxval


def parse_pnm(data):
    """Decode P5/P6 bytes into an Image."""
    samples, maxval = _decode(data)
    return Image(data=samples / float(maxval))


def encode_pnm(image):
    """Encode an Image as binary P6 (3 channels) or P5 (1 channel) bytes."""
    if image.channels == 3:
        magic = b"P6"
    elif image.channels == 1:
        magic = b"P5"
    else:
        raise DataError(f"can only encode 1- or 3-channel images, got {image.channels}")
    header = magic + b"\n" + f"{image.width} {image.height}\n255\n".encode("ascii")
    samples = np.round(image.data * 255.0).astype(np.uint8)
    return header + samples.tobytes()


def load_image(path):
    """Read a binary P5/P6 file into an Image with intensities in [0, 1]."""
    with open(path, "rb") as fh:
        return parse_pnm(fh.read())


def load_patches(path, patch_size):
    """The unnormalized PatchGrid of a binary P5/P6 file, made as
    patchify(load_image(path), patch_size) makes it, bit for bit, and
    failing as it does: with the file's own errors before patch_size's."""
    with open(path, "rb") as fh:
        samples, maxval = _decode(fh.read())
    return raster_patches(samples, patch_size, float(maxval))


def load_samples(path, patch_size):
    """(grid, maxval) of a binary P5/P6 file: grid holds the file's integer
    samples, as float64, in load_patches' layout, and failing as it does,
    so dividing its patches by maxval gives load_patches' grid bit for bit."""
    with open(path, "rb") as fh:
        samples, maxval = _decode(fh.read())
    return raster_patches(samples, patch_size), maxval


def read_size(path):
    """(height, width) of a binary P5/P6 file from its header and length
    alone, failing as its load fails on a bad header or a short file.

    The first _HEADER_CHUNK bytes are parsed, and the whole file once only
    if they fail: a header that parses within the chunk parses the same in
    the whole file, because each of its fields ends in whitespace inside it.
    """
    with open(path, "rb") as fh:
        data = fh.read(_HEADER_CHUNK)
        try:
            header = _parse_header(data)
        except DataError:
            header = _parse_header(data + fh.read())
        _sample_dtype(header, os.fstat(fh.fileno()).st_size)
    return header[1], header[0]


def save_image(image, path):
    """Write an Image as an 8-bit binary P5/P6 file."""
    with open(path, "wb") as fh:
        fh.write(encode_pnm(image))
