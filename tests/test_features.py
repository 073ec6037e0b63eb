import math
import re
import statistics
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shadesearch.features import (
    EmptyPairsError,
    ExtractionOptions,
    FeatureVector,
    Glcm,
    channel_histogram,
    channel_stats,
    edge_densities,
    extract_features,
    glcm,
    quantize_gray,
    sobel_gradients,
    texture_features,
)
from shadesearch.image import GrayImage, RgbImage, to_grayscale
from shadesearch.shading import PhongParams, shade_image

from conftest import gray_images, random_rgb, rgb_images

SOBEL_X_ROWS = ((-1, 0, 1), (-2, 0, 2), (-1, 0, 1))
SOBEL_Y_ROWS = ((1, 2, 1), (0, 0, 0), (-1, -2, -1))


def naive_sobel(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nested-loop correlation with replicate padding."""
    h, w = pixels.shape
    gx = np.zeros((h, w), dtype=np.int64)
    gy = np.zeros((h, w), dtype=np.int64)
    for y in range(h):
        for x in range(w):
            sx = sy = 0
            for ky in range(3):
                for kx in range(3):
                    yy = min(max(y + ky - 1, 0), h - 1)
                    xx = min(max(x + kx - 1, 0), w - 1)
                    sx += SOBEL_X_ROWS[ky][kx] * int(pixels[yy, xx])
                    sy += SOBEL_Y_ROWS[ky][kx] * int(pixels[yy, xx])
            gx[y, x] = sx
            gy[y, x] = sy
    return gx, gy


def nine_window_sobel(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The whole-array form sobel_gradients had before it became separable:
    one int64 multiply-add per kernel weight over shifted windows."""
    h, w = pixels.shape
    padded = np.pad(pixels.astype(np.int64), 1, mode="edge")
    gx = np.zeros((h, w), dtype=np.int64)
    gy = np.zeros((h, w), dtype=np.int64)
    for ky in range(3):
        for kx in range(3):
            window = padded[ky : ky + h, kx : kx + w]
            if SOBEL_X_ROWS[ky][kx]:
                gx += SOBEL_X_ROWS[ky][kx] * window
            if SOBEL_Y_ROWS[ky][kx]:
                gy += SOBEL_Y_ROWS[ky][kx] * window
    return gx, gy


def naive_glcm(pixels: np.ndarray, levels: int, offset: tuple[int, int]) -> np.ndarray:
    """Brute-force pair enumeration."""
    h, w = pixels.shape
    dx, dy = offset
    counts = np.zeros((levels, levels), dtype=np.int64)
    for y in range(h):
        for x in range(w):
            nx, ny = x + dx, y + dy
            if 0 <= nx < w and 0 <= ny < h:
                i = int(pixels[y, x]) * levels // 256
                j = int(pixels[ny, nx]) * levels // 256
                counts[i, j] += 1
    return counts / counts.sum()


def glcm_stats_oracle(p: np.ndarray) -> tuple[float, float, float, float]:
    """Direct double-sum evaluation of the four texture statistics."""
    entropy = contrast = energy = homogeneity = 0.0
    levels = p.shape[0]
    for i in range(levels):
        for j in range(levels):
            if p[i, j] > 0:
                entropy -= p[i, j] * math.log2(p[i, j])
            contrast += (i - j) ** 2 * p[i, j]
            energy += p[i, j] ** 2
            homogeneity += p[i, j] / (1 + abs(i - j))
    return entropy, contrast, energy, homogeneity


class TestChannelHistogram:
    def test_all_red_image(self):
        img = RgbImage(np.full((2, 2, 3), (255, 0, 0), dtype=np.uint8))
        h = channel_histogram(img, "r")
        assert h.counts[255] == 4 and h.counts[:255].sum() == 0

    def test_green_channel_of_red_image(self):
        img = RgbImage(np.full((2, 2, 3), (255, 0, 0), dtype=np.uint8))
        assert channel_histogram(img, "g").counts[0] == 4

    def test_matches_per_pixel_tally(self, rng):
        img = random_rgb(rng, 8, 8)
        for name, ci in (("r", 0), ("g", 1), ("b", 2)):
            tally = [0] * 256
            for y in range(8):
                for x in range(8):
                    tally[img.pixels[y, x, ci]] += 1
            assert channel_histogram(img, name).counts.tolist() == tally

    def test_counts_sum_to_pixel_count(self, rng):
        img = random_rgb(rng, 5, 3)
        h = channel_histogram(img, "b")
        assert h.counts.sum() == h.total == 15

    def test_unknown_channel(self, rng):
        with pytest.raises(ValueError, match="channel"):
            channel_histogram(random_rgb(rng, 2, 2), "x")


def hist_of(values: list[int]):
    img = RgbImage(np.array([[(v, v, v) for v in values]], dtype=np.uint8))
    return channel_histogram(img, "r")


class TestChannelStats:
    def test_constant_values(self):
        assert channel_stats(hist_of([128] * 4)) == (128.0, 128.0, 0.0)

    def test_two_point_distribution(self):
        # Lower-median convention: with counts {0: 1, 255: 1} the median is 0.
        mean, median, std = channel_stats(hist_of([0, 255]))
        assert mean == statistics.mean([0, 255])
        assert median == 0.0
        assert std == pytest.approx(statistics.pstdev([0, 255]), abs=1e-12)

    def test_four_values(self):
        mean, median, std = channel_stats(hist_of([10, 20, 30, 40]))
        assert mean == 25.0
        assert median == 20.0
        assert std == pytest.approx(statistics.pstdev([10, 20, 30, 40]), abs=1e-12)
        assert std == pytest.approx(11.18034, abs=1e-5)

    def test_matches_statistics_module(self, rng):
        values = rng.integers(0, 256, size=17).tolist()
        mean, median, std = channel_stats(hist_of(values))
        assert mean == pytest.approx(statistics.mean(values), abs=1e-12)
        assert median == sorted(values)[(len(values) - 1) // 2]
        assert std == pytest.approx(statistics.pstdev(values), abs=1e-12)

    def test_zero_std_iff_single_bin(self, rng):
        values = rng.integers(0, 256, size=9).tolist()
        _, _, std = channel_stats(hist_of(values))
        assert (std == 0.0) == (len(set(values)) == 1)

    def test_empty_histogram_rejected(self):
        h = hist_of([0])
        empty = type(h)(counts=np.zeros(256, dtype=np.int64), total=0)
        with pytest.raises(ValueError, match="empty"):
            channel_stats(empty)


class TestQuantize:
    @pytest.mark.parametrize("value,levels,expected", [(0, 8, 0), (255, 8, 7), (128, 8, 4)])
    def test_examples(self, value, levels, expected):
        gray = GrayImage(np.array([[value]], dtype=np.uint8))
        assert quantize_gray(gray, levels)[0, 0] == expected

    def test_indices_always_in_range(self):
        gray = GrayImage(np.arange(256, dtype=np.uint8).reshape(16, 16))
        for levels in (2, 3, 8, 255, 256):
            q = quantize_gray(gray, levels)
            assert q.min() >= 0 and q.max() <= levels - 1

    def test_rejects_bad_levels(self):
        gray = GrayImage(np.zeros((1, 1), dtype=np.uint8))
        with pytest.raises(ValueError):
            quantize_gray(gray, 1)


class TestGlcm:
    def test_uniform_pair(self):
        gray = GrayImage(np.array([[0, 0]], dtype=np.uint8))
        g = glcm(gray, 8, (1, 0))
        assert g.p[0, 0] == 1.0 and g.p.sum() == 1.0

    def test_contrasting_pair(self):
        gray = GrayImage(np.array([[0, 255]], dtype=np.uint8))
        g = glcm(gray, 8, (1, 0))
        assert g.p[0, 7] == 1.0

    def test_matches_brute_force(self, rng):
        pixels = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
        for offset in ((1, 0), (0, 1), (2, -1), (-1, 3)):
            g = glcm(GrayImage(pixels), 8, offset)
            assert np.array_equal(g.p, naive_glcm(pixels, 8, offset))

    def test_entries_sum_to_one(self, rng):
        pixels = rng.integers(0, 256, size=(6, 9), dtype=np.uint8)
        g = glcm(GrayImage(pixels), 8, (1, 0))
        assert g.p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(g.p >= 0)

    def test_empty_pairs_rejected(self):
        gray = GrayImage(np.array([[3]], dtype=np.uint8))
        with pytest.raises(EmptyPairsError):
            glcm(gray, 8, (1, 0))


class TestTextureFeatures:
    def test_single_diagonal_cell(self):
        p = np.zeros((4, 4))
        p[2, 2] = 1.0
        assert texture_features(Glcm(4, p)) == (0.0, 0.0, 1.0, 1.0)

    def test_uniform_diagonal(self):
        p = np.zeros((4, 4))
        np.fill_diagonal(p, 0.25)
        entropy, contrast, energy, homogeneity = texture_features(Glcm(4, p))
        assert entropy == pytest.approx(2.0, abs=1e-12)
        assert contrast == 0.0
        assert energy == pytest.approx(0.25, abs=1e-12)
        assert homogeneity == pytest.approx(1.0, abs=1e-12)

    def test_single_off_diagonal_cell(self):
        p = np.zeros((4, 4))
        p[0, 1] = 1.0
        assert texture_features(Glcm(4, p)) == (0.0, 1.0, 1.0, 0.5)

    def test_matches_direct_evaluation(self, rng):
        raw = rng.random((8, 8))
        p = raw / raw.sum()
        got = texture_features(Glcm(8, p))
        expected = glcm_stats_oracle(p)
        for g, e in zip(got, expected):
            assert g == pytest.approx(e, abs=1e-12)

    def test_bounds_on_random_images(self, rng):
        for _ in range(20):
            pixels = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
            g = glcm(GrayImage(pixels), 8, (1, 0))
            entropy, contrast, energy, homogeneity = texture_features(g)
            assert 0.0 <= entropy <= 2 * math.log2(8) + 1e-9
            assert 1 / 64 - 1e-12 <= energy <= 1.0 + 1e-12
            assert 0.0 < homogeneity <= 1.0 + 1e-12
            assert -1e-12 <= contrast <= 49.0 + 1e-9


class TestSobel:
    def test_constant_image(self):
        g = sobel_gradients(GrayImage(np.full((4, 5), 77, dtype=np.uint8)))
        assert not g.gx.any() and not g.gy.any()

    def test_vertical_step(self):
        pixels = np.zeros((4, 6), dtype=np.uint8)
        pixels[:, 3:] = 255
        g = sobel_gradients(GrayImage(pixels))
        assert not g.gy.any()
        assert np.array_equal(np.abs(g.gx[0]), [0, 0, 1020, 1020, 0, 0])

    def test_matches_naive_convolution(self, rng):
        pixels = rng.integers(0, 256, size=(5, 5), dtype=np.uint8)
        g = sobel_gradients(GrayImage(pixels))
        gx, gy = naive_sobel(pixels)
        assert np.array_equal(g.gx, gx) and np.array_equal(g.gy, gy)

    @settings(deadline=None)
    @given(gray_images(max_side=40))
    @example(GrayImage(np.array([[200]], dtype=np.uint8)))
    @example(GrayImage(np.array([[0, 255, 3, 255, 7]], dtype=np.uint8)))
    @example(GrayImage(np.array([[0], [255], [3], [255], [7]], dtype=np.uint8)))
    @example(GrayImage(np.full((3, 4), 255, dtype=np.uint8)))
    def test_equals_nine_window_form(self, gray):
        g = sobel_gradients(gray)
        gx, gy = nine_window_sobel(gray.pixels)
        assert g.gx.dtype == np.int64 and g.gy.dtype == np.int64
        assert g.gx.shape == g.gy.shape == gray.pixels.shape
        assert np.array_equal(g.gx, gx) and np.array_equal(g.gy, gy)
        if gray.pixels.size <= 64:  # the scalar loop is slow
            sx, sy = naive_sobel(gray.pixels)
            assert np.array_equal(g.gx, sx) and np.array_equal(g.gy, sy)

    def test_response_bounds(self, rng):
        pixels = rng.integers(0, 256, size=(7, 9), dtype=np.uint8)
        g = sobel_gradients(GrayImage(pixels))
        assert np.abs(g.gx).max() <= 1020 and np.abs(g.gy).max() <= 1020

    def test_transpose_relation_up_to_sign(self, rng):
        # Kernel symmetry swaps gx/gy under transposition up to a sign;
        # verify the relation numerically rather than asserting which sign.
        pixels = rng.integers(0, 256, size=(6, 8), dtype=np.uint8)
        g = sobel_gradients(GrayImage(pixels))
        gt = sobel_gradients(GrayImage(pixels.T))
        assert np.array_equal(gt.gx, g.gy.T) or np.array_equal(gt.gx, -g.gy.T)
        assert np.array_equal(gt.gy, g.gx.T) or np.array_equal(gt.gy, -g.gx.T)


class TestEdgeDensities:
    def test_zero_gradients(self):
        g = sobel_gradients(GrayImage(np.full((3, 3), 10, dtype=np.uint8)))
        assert edge_densities(g, 255.0) == (0.0, 0.0)

    def test_saturated_vertical_edges(self):
        pixels = np.zeros((4, 2), dtype=np.uint8)
        pixels[:, 1] = 255
        g = sobel_gradients(GrayImage(pixels))
        assert np.all(np.abs(g.gx) == 1020)
        assert edge_densities(g, 255.0) == (1.0, 0.0)

    def test_matches_counting_oracle(self, rng):
        pixels = rng.integers(0, 256, size=(9, 9), dtype=np.uint8)
        g = sobel_gradients(GrayImage(pixels))
        threshold = 300.0
        v = sum(1 for row in g.gx for value in row if abs(value) > threshold) / 81
        h = sum(1 for row in g.gy for value in row if abs(value) > threshold) / 81
        assert edge_densities(g, threshold) == (v, h)

    def test_rejects_non_positive_threshold(self, rng):
        g = sobel_gradients(GrayImage(rng.integers(0, 256, (3, 3), dtype=np.uint8)))
        with pytest.raises(ValueError):
            edge_densities(g, 0.0)


class TestExtractFeatures:
    def test_uniform_gray_image(self):
        img = RgbImage(np.full((6, 6, 3), 128, dtype=np.uint8))
        assert extract_features(img).values == (
            128, 128, 0, 128, 128, 0, 128, 128, 0, 0, 0, 1, 1, 0, 0
        )

    def test_identity_shading_changes_nothing(self, rng):
        img = random_rgb(rng, 9, 7)
        identity = PhongParams(ka=1.0, ia=1.0, kd=0.0, ks=0.0)
        assert extract_features(img, phong=identity) == extract_features(img)

    def test_matches_component_composition(self, rng):
        img = random_rgb(rng, 16, 16)
        opts = ExtractionOptions(levels=8, offset=(1, 0), edge_threshold=255.0)
        phong = PhongParams()
        got = extract_features(img, phong=phong, opts=opts)

        shaded = shade_image(img, phong)
        expected = []
        for channel in ("r", "g", "b"):
            expected.extend(channel_stats(channel_histogram(shaded, channel)))
        gray = to_grayscale(shaded)
        expected.extend(texture_features(glcm(gray, opts.levels, opts.offset)))
        expected.extend(edge_densities(sobel_gradients(gray), opts.edge_threshold))
        assert got.values == tuple(expected)

    def test_color_slots_invariant_under_pixel_permutation(self, rng):
        img = random_rgb(rng, 8, 8)
        flat = img.pixels.reshape(-1, 3)
        shuffled = RgbImage(flat[rng.permutation(len(flat))].reshape(8, 8, 3))
        assert extract_features(img).values[:9] == extract_features(shuffled).values[:9]

    def test_deterministic(self, rng):
        img = random_rgb(rng, 12, 10)
        assert extract_features(img, phong=PhongParams()) == extract_features(
            RgbImage(img.pixels.copy()), phong=PhongParams()
        )

    def test_feature_vector_validation(self):
        with pytest.raises(ValueError):
            FeatureVector(tuple(range(14)))
        with pytest.raises(ValueError):
            FeatureVector(tuple([float("nan")] + [0.0] * 14))


_FLOAT_OPTIONS = ("ka", "kd", "ks", "ia", "il", "ns", "height_scale", "light_dir", "view_dir",
                  "edge_threshold")
# Besides any float: values at and just past each overflow bound with the
# other options at their defaults (a lit white pixel's sum at ka ~ 7.05e305,
# the squared slopes at height_scale ~ 1.34e154).
_ANY_FLOAT = st.floats() | st.sampled_from([
    0.0, -0.0, 5e-324, 1.0, 7.05e305, 7.06e305, 1.34e154, 1.35e154, 1e308,
    sys.float_info.max, math.inf, -math.inf, math.nan,
])


class TestOptionValues:
    # Two columns at least, for the default co-occurrence offset (1, 0); a
    # white image meets the composition's largest channel value everywhere.
    @given(image=rgb_images().filter(lambda img: img.width > 1)
           | st.just(RgbImage(np.full((3, 3, 3), 255, dtype=np.uint8))),
           field=st.sampled_from(_FLOAT_OPTIONS),
           component=st.integers(0, 2), value=_ANY_FLOAT)
    def test_any_float_gives_finite_features_or_names_the_field(self, image, field,
                                                                 component, value):
        phong, opts = {}, {}
        if field.endswith("_dir"):
            vec = list(getattr(PhongParams(), field))
            vec[component] = value
            phong[field] = tuple(vec)
        elif field == "edge_threshold":
            opts[field] = value
        else:
            phong[field] = value
        try:
            p, o = PhongParams(**phong), ExtractionOptions(**opts)
        except ValueError as exc:
            assert re.search(rf"\b{field}\b", str(exc)), str(exc)
            return
        # Shading and extraction form no NaN and overflow nowhere.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            fv = extract_features(image, phong=p, opts=o)
        assert all(math.isfinite(v) for v in fv.values)


class TestIntegerOptions:
    @pytest.mark.parametrize("kwargs, field", [
        ({"levels": 2.5}, "levels"),
        ({"levels": 8.0}, "levels"),
        ({"levels": "8"}, "levels"),
        ({"levels": math.nan}, "levels"),
        ({"offset": (1.5, 0)}, "offset"),
        ({"offset": (1.0, 0)}, "offset"),
        ({"offset": (math.nan, 0)}, "offset"),
        ({"offset": (0, math.inf)}, "offset"),
        ({"offset": 1}, "offset"),
    ])
    def test_rejects_non_integer_naming_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=rf"^{field} must be a"):
            ExtractionOptions(**kwargs)

    def test_integer_types_are_stored_as_int(self):
        opts = ExtractionOptions(levels=np.int64(4), offset=(np.int32(2), np.uint8(1)))
        assert (opts.levels, opts.offset) == (4, (2, 1))
        assert all(type(v) is int for v in (opts.levels, *opts.offset))
