"""Binary portable pixmap (P6) and graymap (P5) reading and writing.

Only the binary variants are supported; intensities are scaled to [0, 1]
on load (each sample divides by the file's maxval) and written back as
8-bit with maxval 255. Parse failures report the byte offset.
load_patches range-checks and patchifies the integer samples, and
converts and divides each once, straight into the grid: no float64
raster is made, and the grid is patchify(load_image(path)) bit for bit.
"""

import numpy as np

from .errors import DataError
from .patch_grid import Image, raster_patches

_WHITESPACE = b" \t\n\r\x0b\x0c"
_HEADER_CHUNK = 256  # bytes read_size reads first; a usual header takes ~15


class _HeaderScanner:
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
            elif byte in _WHITESPACE and byte:
                self.pos += 1
            else:
                return

    def read_int(self, name):
        self.skip_separators()
        start = self.pos
        while self.pos < len(self.data) and self.data[self.pos : self.pos + 1] not in _WHITESPACE:
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


def _parse_header(data):
    """(width, height, channels, maxval, offset of the pixel data) of P5/P6
    bytes; data may end anywhere after the header."""
    scanner = _HeaderScanner(data)
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
    if scanner.pos >= len(data) or data[scanner.pos : scanner.pos + 1] not in _WHITESPACE:
        scanner.fail("expected single whitespace before pixel data")
    return width, height, channels, maxval, scanner.pos + 1


def _decode(data):
    """(samples, maxval) of P5/P6 bytes: the (H, W, C) uint8 or >u2
    samples, a view of data, each checked to be at most maxval."""
    width, height, channels, maxval, start = _parse_header(data)
    dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
    expected = width * height * channels * dtype.itemsize
    if len(data) - start < expected:
        raise DataError(
            f"truncated pixel data: expected {expected} bytes from byte "
            f"{start}, file ends at byte {len(data)}"
        )
    samples = np.frombuffer(data, dtype=dtype, count=expected // dtype.itemsize, offset=start)
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


def read_size(path):
    """(height, width) of a binary P5/P6 file, read from its header alone.

    The file is read in growing chunks until the header parses. A header
    that parses within a chunk parses the same in the whole file, because
    each of its fields must end in whitespace inside the chunk. A header
    that fails raises the DataError of the whole file's header.
    """
    with open(path, "rb") as fh:
        data = fh.read(_HEADER_CHUNK)
        while True:
            try:
                width, height = _parse_header(data)[:2]
                return height, width
            except DataError:
                more = fh.read(len(data))
                if not more:
                    raise
                data += more


def save_image(image, path):
    """Write an Image as an 8-bit binary P5/P6 file."""
    with open(path, "wb") as fh:
        fh.write(encode_pnm(image))
