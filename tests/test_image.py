import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shadesearch import image
from shadesearch.image import (
    LUMA_WEIGHTS,
    GrayImage,
    PpmDecodeError,
    RgbImage,
    decode_ppm,
    encode_ppm,
    to_grayscale,
)
from shadesearch.shading import PhongParams, shade_image, shade_image_tiled

from conftest import random_rgb, rgb_images


def reference_ppm_read(data: bytes) -> tuple[int, int, bytes]:
    """Independent P6 reader: strip comments from the header with a regex."""
    # Header = magic, width, height, maxval separated by whitespace/comments,
    # then exactly one whitespace byte before the payload.
    pos = 0
    tokens = []
    while len(tokens) < 4:
        m = re.match(rb"(?:\s|#[^\n\r]*)*([^\s#]+)", data[pos:])
        assert m, "reference reader: ran out of header"
        tokens.append(m.group(1))
        pos += m.end()
    assert tokens[0] == b"P6"
    w, h, maxval = (int(t) for t in tokens[1:])
    assert maxval == 255
    payload = data[pos + 1 : pos + 1 + 3 * w * h]
    return w, h, payload


def float_cast_grayscale(pixels: np.ndarray) -> np.ndarray:
    """The luma to_grayscale computed before it multiplied the uint8 channels
    directly: cast the whole raster to float64, then weight, sum and round."""
    rgb = pixels.astype(np.float64)
    wr, wg, wb = LUMA_WEIGHTS
    luma = rgb[..., 0] * wr + rgb[..., 1] * wg + rgb[..., 2] * wb
    return np.clip(np.floor(luma + 0.5), 0.0, 255.0).astype(np.uint8)


class TestDecode:
    def test_smallest_well_formed_stream(self):
        payload = bytes(range(18))
        img = decode_ppm(b"P6 3 2 255 " + payload)
        assert (img.width, img.height) == (3, 2)
        assert img.pixels.tobytes() == payload

    def test_header_comment_matches_reference_reader(self):
        payload = bytes(range(18, 36))
        data = b"P6\n# a comment line\n3 2\n# another\n255\n" + payload
        img = decode_ppm(data)
        w, h, ref_payload = reference_ppm_read(data)
        assert (img.width, img.height) == (w, h)
        assert img.pixels.tobytes() == ref_payload

    def test_truncated_payload(self):
        with pytest.raises(PpmDecodeError, match="truncated"):
            decode_ppm(b"P6 3 2 255 " + bytes(17))

    def test_bad_magic(self):
        with pytest.raises(PpmDecodeError, match="magic"):
            decode_ppm(b"P5 3 2 255 " + bytes(18))

    def test_bad_maxval(self):
        with pytest.raises(PpmDecodeError, match="maxval"):
            decode_ppm(b"P6 3 2 65535 " + bytes(18))

    def test_non_positive_dimensions(self):
        with pytest.raises(PpmDecodeError, match="dimensions"):
            decode_ppm(b"P6 0 2 255 ")

    def test_non_numeric_header_token(self):
        with pytest.raises(PpmDecodeError, match="width"):
            decode_ppm(b"P6 x 2 255 " + bytes(18))

    @pytest.mark.parametrize("header, field", [
        (b"P6 1_0 +1 2_55\n", "width"),
        (b"P6 10 +1 255\n", "height"),
        (b"P6 10 1 2_55\n", "maxval"),
        (b"P6 -3 1 255\n", "width"),
        (b"P6 \xd9\xa3 1 255\n", "width"),  # ARABIC-INDIC DIGIT THREE in UTF-8
    ])
    def test_header_numbers_are_ascii_digits_only(self, header, field):
        with pytest.raises(PpmDecodeError, match=field):
            decode_ppm(header + bytes(30))

    def test_overlong_header_number(self):
        with pytest.raises(PpmDecodeError, match="width"):
            decode_ppm(b"P6 " + b"9" * 5000 + b" 1 255\n")

    @given(st.binary(max_size=64))
    def test_arbitrary_bytes_raise_only_decode_errors(self, data):
        try:
            decode_ppm(data)
        except PpmDecodeError:
            pass

    @given(st.lists(st.sampled_from([b"3", b"2", b"255", b"0", b"+1", b"1_0",
                                     b"-2", b"x", b"\xff", b"#c\n", b"#", b" ", b"\n",
                                     b"\t"]), max_size=12),
           st.binary(max_size=40))
    def test_header_shaped_bytes_raise_only_decode_errors(self, tokens, payload):
        try:
            decode_ppm(b"P6 " + b"".join(tokens) + payload)
        except PpmDecodeError:
            pass


class TestEncode:
    def test_single_white_pixel(self):
        img = RgbImage(np.full((1, 1, 3), 255, dtype=np.uint8))
        assert encode_ppm(img) == b"P6\n1 1\n255\n\xff\xff\xff"

    def test_encode_inverts_decode_payload(self):
        payload = bytes(range(18))
        img = decode_ppm(b"P6 3 2 255 " + payload)
        assert encode_ppm(img) == b"P6\n3 2\n255\n" + payload

    @given(rgb_images(max_side=16))
    def test_round_trip_is_identity(self, img):
        assert decode_ppm(encode_ppm(img)) == img


class TestGrayscale:
    def test_white_maps_to_255(self):
        img = RgbImage(np.full((1, 1, 3), 255, dtype=np.uint8))
        assert to_grayscale(img).pixels[0, 0] == 255

    def test_black_maps_to_0(self):
        img = RgbImage(np.zeros((1, 1, 3), dtype=np.uint8))
        assert to_grayscale(img).pixels[0, 0] == 0

    def test_pure_red(self):
        # round(0.299 * 255) = round(76.245)
        img = RgbImage(np.full((1, 1, 3), (255, 0, 0), dtype=np.uint8))
        assert to_grayscale(img).pixels[0, 0] == 76

    def test_already_gray_pixels_are_fixed_points(self):
        values = np.arange(256, dtype=np.uint8)
        img = RgbImage(np.stack([values] * 3, axis=1).reshape(1, 256, 3))
        assert np.array_equal(to_grayscale(img).pixels[0], values)

    @given(st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)),
           st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)))
    def test_monotone_in_every_channel(self, a, b):
        lo = tuple(min(x, y) for x, y in zip(a, b))
        img = RgbImage(np.array([[a, lo]], dtype=np.uint8))
        gray = to_grayscale(img).pixels
        assert gray[0, 0] >= gray[0, 1]

    @settings(deadline=None)
    @given(rgb_images(max_side=40))
    @example(random_rgb(np.random.default_rng(5), 64, 48))
    @example(RgbImage(np.full((1, 1, 3), 255, dtype=np.uint8)))
    def test_equals_float_cast_formula(self, img):
        gray = to_grayscale(img).pixels
        assert gray.dtype == np.uint8 and gray.shape == img.pixels.shape[:2]
        assert gray.tobytes() == float_cast_grayscale(img.pixels).tobytes()
        assert not gray.flags.writeable

    def test_equals_float_cast_formula_on_every_colour(self):
        # All 2**24 colours, one 256 x 256 (g, b) plane per red value. About
        # 5,500 of them round differently if the three products are summed in
        # another order, too few for random draws to find reliably.
        g, b = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
        for r in range(256):
            pixels = np.stack((np.full_like(g, r), g, b), axis=2).astype(np.uint8)
            got = to_grayscale(RgbImage(pixels)).pixels
            assert got.tobytes() == float_cast_grayscale(pixels).tobytes(), f"red {r}"


class TestImageTypes:
    def test_pixel_grids_are_read_only(self, rng):
        img = random_rgb(rng, 4, 3)
        with pytest.raises(ValueError):
            img.pixels[0, 0, 0] = 7

    def test_read_only_grid_is_kept_and_writable_one_copied(self, rng):
        frozen = rng.integers(0, 256, size=(3, 4, 3), dtype=np.uint8)
        frozen.flags.writeable = False
        assert RgbImage(frozen).pixels is frozen
        owned = frozen.copy()
        assert RgbImage(owned).pixels is not owned and owned.flags.writeable

    def test_fresh_rasters_are_wrapped_without_a_copy(self, rng):
        # to_grayscale and the shading composition freeze the arrays they
        # build, so wrapping them does not copy them again.
        wrapped = []

        def recording(pixels, expected_ndim):
            wrapped.append(pixels.flags.writeable)
            return as_readonly(pixels, expected_ndim)

        img = random_rgb(rng, 5, 4)
        as_readonly = image._as_readonly_u8
        with mock.patch.object(image, "_as_readonly_u8", recording):
            to_grayscale(img)
            shade_image(img, PhongParams())
            shade_image_tiled(img, PhongParams(), 2)
        assert wrapped and not any(wrapped)

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            RgbImage(np.full((1, 1, 3), 300, dtype=np.int32))
        with pytest.raises(ValueError):
            GrayImage(np.full((1, 1), -1, dtype=np.int32))

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            RgbImage(np.zeros((0, 1, 3), dtype=np.uint8))
