"""Binary PPM (P6) codec and grayscale conversion.

Images are thin wrappers around read-only uint8 numpy arrays: RGB rasters are
shaped (height, width, 3), grayscale rasters (height, width). Everything
downstream consumes these two types.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._files import write_new_file

# ITU-R BT.601 luma weights.
LUMA_WEIGHTS = (0.299, 0.587, 0.114)

_WHITESPACE = b" \t\n\r\x0b\x0c"
_COMMENT = 0x23  # '#'


class PpmDecodeError(ValueError):
    """Raised when a byte stream is not a well-formed binary PPM."""


def _as_readonly_u8(pixels, expected_ndim: int) -> np.ndarray:
    arr = np.asarray(pixels)
    if arr.dtype != np.uint8:
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"pixel values must be integers, got dtype {arr.dtype}")
        if arr.size and (arr.min() < 0 or arr.max() > 255):
            raise ValueError("pixel values must lie in [0, 255]")
        arr = arr.astype(np.uint8)
    if arr.ndim != expected_ndim:
        raise ValueError(f"expected a {expected_ndim}-d pixel grid, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"image dimensions must be positive, got shape {arr.shape}")
    arr = np.ascontiguousarray(arr)
    if arr.flags.writeable:
        arr = arr.copy()  # never freeze a buffer the caller still owns
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class RgbImage:
    """Row-major RGB raster, 8 bits per channel."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = _as_readonly_u8(self.pixels, 3)
        if arr.shape[2] != 3:
            raise ValueError(f"expected 3 channels, got {arr.shape[2]}")
        object.__setattr__(self, "pixels", arr)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other):
        if not isinstance(other, RgbImage):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and np.array_equal(
            self.pixels, other.pixels
        )


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Row-major single-channel raster, 8-bit intensities."""

    pixels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pixels", _as_readonly_u8(self.pixels, 2))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other):
        if not isinstance(other, GrayImage):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and np.array_equal(
            self.pixels, other.pixels
        )


def _next_token(data: bytes, pos: int, field: str) -> tuple[bytes, int]:
    """Read the next header token, skipping whitespace and '#' comments."""
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == _COMMENT:
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise PpmDecodeError(f"unexpected end of header while reading {field}")
    start = pos
    while pos < n and data[pos] not in _WHITESPACE and data[pos] != _COMMENT:
        pos += 1
    return data[start:pos], pos


def decode_ppm(data) -> RgbImage:
    """Decode a binary PPM ("P6", maxval 255) byte stream.

    Header comments ('#' to end of line) are permitted between tokens.
    Raises PpmDecodeError naming the offending header field or byte offset.
    """
    data = bytes(data)
    magic, pos = _next_token(data, 0, "magic")
    if magic != b"P6":
        raise PpmDecodeError(f"bad magic {magic!r}, expected b'P6'")
    header: dict[str, int] = {}
    for field in ("width", "height", "maxval"):
        token, pos = _next_token(data, pos, field)
        # ASCII digits only: int() would also take signs and underscores.
        if not token.isdigit():
            raise PpmDecodeError(f"non-numeric {field} token {token!r}")
        try:
            header[field] = int(token)
        except ValueError:  # more digits than int() converts
            raise PpmDecodeError(f"{field} token has too many digits ({len(token)})") from None
    width, height, maxval = header["width"], header["height"], header["maxval"]
    if width < 1 or height < 1:
        raise PpmDecodeError(f"non-positive dimensions {width}x{height}")
    if maxval != 255:
        raise PpmDecodeError(f"unsupported maxval {maxval}, only 255 is handled")
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise PpmDecodeError(f"missing whitespace separator after maxval at byte {pos}")
    pos += 1
    expected = width * height * 3
    payload = data[pos : pos + expected]
    if len(payload) != expected:
        raise PpmDecodeError(
            f"truncated pixel payload at byte {pos + len(payload)}: "
            f"expected {expected} bytes, got {len(payload)}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return RgbImage(pixels)


def encode_ppm(img: RgbImage) -> bytes:
    """Encode to binary PPM; decode_ppm(encode_ppm(img)) == img exactly."""
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def luma(pixels: np.ndarray) -> np.ndarray:
    """BT.601 luma of (..., 3) uint8 pixels as a (...) uint8 array, rounded half away from zero."""
    # Each uint8 channel converts to float64 exactly inside its multiply, and
    # the products are summed left to right. Every term is non-negative and
    # the weights sum to 1, so luma + 0.5 < 256 and the floor fits uint8.
    wr, wg, wb = LUMA_WEIGHTS
    y = np.multiply(pixels[..., 0], wr, dtype=np.float64)
    y += np.multiply(pixels[..., 1], wg, dtype=np.float64)
    y += np.multiply(pixels[..., 2], wb, dtype=np.float64)
    y += 0.5
    return np.floor(y, out=y).astype(np.uint8)


def to_grayscale(img: RgbImage) -> GrayImage:
    """BT.601 luma, rounded half away from zero."""
    gray = luma(img.pixels)
    gray.flags.writeable = False  # nothing else holds it, so GrayImage need not copy
    return GrayImage(gray)


def edge_padded(pixels: np.ndarray, dtype=None) -> np.ndarray:
    """pixels with a one-pixel border on its last two axes that repeats the nearest
    edge pixel, as ``np.pad(..., mode="edge")`` pads a plane, in ``dtype``.

    One allocation and five slice copies: the interior, the top and bottom
    rows, then the left and right columns, corners included.
    """
    *lead, h, w = pixels.shape
    out = np.empty((*lead, h + 2, w + 2), dtype=pixels.dtype if dtype is None else dtype)
    out[..., 1:-1, 1:-1] = pixels
    out[..., 0, 1:-1] = pixels[..., 0, :]
    out[..., -1, 1:-1] = pixels[..., -1, :]
    out[..., 0] = out[..., 1]
    out[..., -1] = out[..., -2]
    return out


def read_ppm(path) -> RgbImage:
    return decode_ppm(Path(path).read_bytes())


def write_ppm(path, img: RgbImage) -> None:
    """Write img to path as a new file; a file or symlink there is replaced."""
    write_new_file(path, encode_ppm(img))
