import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from shadesearch import shading
from shadesearch.image import GrayImage, RgbImage, to_grayscale
from shadesearch.shading import (
    DEFAULT_VIEW_DIR,
    DegenerateInterpolantError,
    NormalField,
    PhongParams,
    TileInterpolant,
    height_field_normals,
    phong_intensity,
    shade_image,
    shade_image_tiled,
    tile_ndoth,
    unit,
)

from conftest import gray_images, random_rgb, rgb_images

finite = st.floats(allow_nan=False, allow_infinity=False)


def exact_cosines_oracle(img: RgbImage, p: PhongParams) -> tuple[np.ndarray, np.ndarray]:
    """Clamped N.L and N.H planes, max(n0*v0 + n1*v1 + n2*v2, 0.0) per pixel."""
    normals = height_field_normals(to_grayscale(img), p.height_scale).normals
    planes = np.empty((2, img.height, img.width))
    for y in range(img.height):
        for x in range(img.width):
            n = normals[y, x]
            for plane, v in zip(planes, (p.light_dir, p.halfway)):
                plane[y, x] = max(n[0] * v[0] + n[1] * v[1] + n[2] * v[2], 0.0)
    return planes[0], planes[1]


def shaded_pixel_oracle(img: RgbImage, p: PhongParams) -> np.ndarray:
    """Scalar per-pixel composition of the illumination formula."""
    n_dot_l, n_dot_h = exact_cosines_oracle(img, p)
    out = np.zeros_like(img.pixels)
    for y in range(img.height):
        for x in range(img.width):
            ndl, ndh = n_dot_l[y, x], n_dot_h[y, x]
            for c in range(3):
                value = (
                    p.ia * p.ka * img.pixels[y, x, c]
                    + p.il * p.kd * ndl * img.pixels[y, x, c]
                    + 255.0 * p.il * p.ks * ndh**p.ns
                )
                out[y, x, c] = min(255, max(0, math.floor(value + 0.5)))
    return out


def reference_compose(pixels: np.ndarray, n_dot_l: np.ndarray, n_dot_h: np.ndarray,
                      p: PhongParams) -> np.ndarray:
    """The whole-array composition as it was before it worked in bands:
    floor(x + 0.5), clipped to [0, 255] at both ends, then cast."""
    rgb = pixels.astype(np.float64)
    shaded = p.ia * p.ka * rgb
    rgb *= (p.il * p.kd * n_dot_l)[..., None]
    shaded += rgb
    shaded += (255.0 * p.il * p.ks * n_dot_h**p.ns)[..., None]
    shaded += 0.5
    np.floor(shaded, out=shaded)
    np.clip(shaded, 0.0, 255.0, out=shaded)
    return shaded.astype(np.uint8)


# Pixels per band: one row per band, a few rows or a ragged last band, and the
# default (one band for every image the properties draw).
BAND_SIZES = [1, 7, shading._BAND_PIXELS]


def unit_vectors(min_z: float = -1.0):
    return (st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(min_z, 1.0))
            .filter(lambda v: math.sqrt(sum(c * c for c in v)) > 0.1).map(unit))


@st.composite
def phong_params(draw, max_ks: float = 2.0) -> PhongParams:
    light, view = draw(unit_vectors()), draw(st.just(DEFAULT_VIEW_DIR) | unit_vectors(0.1))
    assume(math.dist(light, tuple(-c for c in view)) > 1e-3)  # a halfway vector exists
    return PhongParams(ka=draw(st.floats(0.0, 2.0)), kd=draw(st.floats(0.0, 2.0)),
                       ks=draw(st.floats(0.0, max_ks)), ia=draw(st.floats(0.0, 2.0)),
                       il=draw(st.floats(0.0, 2.0)), ns=draw(st.floats(1.0, 64.0)),
                       light_dir=light, view_dir=view,
                       height_scale=draw(st.floats(0.01, 1000.0)))


def recorded_compose(seen: list):
    """_compose_shaded that also records the cosine planes it is given."""
    compose = shading._compose_shaded

    def recording(pixels, n_dot_l, n_dot_h, params):
        seen.append((n_dot_l, n_dot_h))
        return compose(pixels, n_dot_l, n_dot_h, params)
    return recording


def stacked_normals(dhdx: np.ndarray, dhdy: np.ndarray) -> np.ndarray:
    """Unit normals as they were built before the plane-wise rewrite: stack
    (-dhdx, -dhdy, 1) and divide by np.linalg.norm over the last axis."""
    n = np.stack((-dhdx, -dhdy, np.ones_like(dhdx)), axis=2)
    n /= np.linalg.norm(n, axis=2, keepdims=True)
    return n


def reference_unit_normals(gray: GrayImage, height_scale: float) -> np.ndarray:
    """Central differences with edge replication, normalized by stacked_normals."""
    h = gray.pixels.astype(np.float64) * (height_scale / 255.0)
    padded = np.pad(h, 1, mode="edge")
    return stacked_normals((padded[1:-1, 2:] - padded[1:-1, :-2]) / 2.0,
                           (padded[2:, 1:-1] - padded[:-2, 1:-1]) / 2.0)


def tiled_loop_cosines(img: RgbImage, p: PhongParams,
                       tile: int) -> tuple[np.ndarray, np.ndarray]:
    """Clamped N.L and N.H planes from the per-pixel tile_ndoth loop that
    shade_image_tiled replaced."""
    field = height_field_normals(to_grayscale(img), p.height_scale)
    normals = field.normals
    h, w = field.height, field.width

    def lattice(extent):
        marks = list(range(0, extent, tile))
        if marks[-1] != extent - 1:
            marks.append(extent - 1)
        return marks

    def delta(hi, lo, span):
        return (0.0, 0.0, 0.0) if span == 0 else tuple((hi - lo) / span)

    zero = (0.0, 0.0, 0.0)
    xs, ys = lattice(w), lattice(h)
    n_dot_l = np.empty((h, w))
    n_dot_h = np.empty((h, w))
    nx_cells = max(1, len(xs) - 1)
    ny_cells = max(1, len(ys) - 1)
    for j in range(ny_cells):
        y0 = ys[j]
        y1 = ys[j + 1] if len(ys) > 1 else y0
        y_stop = (y1 + 1) if j == ny_cells - 1 else y1
        for i in range(nx_cells):
            x0 = xs[i]
            x1 = xs[i + 1] if len(xs) > 1 else x0
            x_stop = (x1 + 1) if i == nx_cells - 1 else x1
            dx, dy = x1 - x0, y1 - y0
            n00, n10 = normals[y0, x0], normals[y0, x1]
            n01, n11 = normals[y1, x0], normals[y1, x1]
            upper = (delta(n10, n00, dx), delta(n01, n00, dy), tuple(n00))
            lower = (delta(n11, n01, dx), delta(n11, n10, dy), tuple(n10 + n01 - n11))
            interps = {
                on_upper: (TileInterpolant(*coeffs, zero, zero, p.halfway),
                           TileInterpolant(*coeffs, zero, zero, p.light_dir))
                for on_upper, coeffs in ((True, upper), (False, lower))
            }
            for y in range(y0, y_stop):
                ly = y - y0
                for x in range(x0, x_stop):
                    lx = x - x0
                    on_upper = dx == 0 or dy == 0 or lx * dy + ly * dx <= dx * dy
                    t_h, t_l = interps[on_upper]
                    n_dot_h[y, x] = max(tile_ndoth(t_h, lx, ly), 0.0)
                    n_dot_l[y, x] = max(tile_ndoth(t_l, lx, ly), 0.0)
    return n_dot_l, n_dot_h


def check_tiled_equals_loop(img: RgbImage, tile: int, ns: float, light, height_scale: float):
    """shade_image_tiled's cosines equal tiled_loop_cosines to the bit, and it
    never calls the scalar tile_ndoth."""
    assume(math.sqrt(sum(c * c for c in light)) > 0.1)
    assume(unit(light)[2] > -0.99)  # a light facing the view has no halfway vector
    p = PhongParams(ns=ns, light_dir=unit(light), height_scale=height_scale)
    expected = tiled_loop_cosines(img, p, tile)
    seen = []
    oracle_called = AssertionError("shade_image_tiled called tile_ndoth")
    with mock.patch.object(shading, "tile_ndoth", side_effect=oracle_called), \
            mock.patch.object(shading, "_compose_shaded", recorded_compose(seen)):
        out = shade_image_tiled(img, p, tile)
    assert out == shading._compose_shaded(img.pixels, *expected, p)
    # The cosines themselves match to the bit, signed zeros included.
    assert [c.tobytes() for c in seen[0]] == [c.tobytes() for c in expected]


class TestPhongParams:
    def test_defaults_are_valid(self):
        p = PhongParams()
        assert math.isclose(sum(c * c for c in p.light_dir), 1.0, abs_tol=1e-12)
        assert math.isclose(sum(c * c for c in p.halfway), 1.0, abs_tol=1e-12)

    def test_rejects_glossiness_below_one(self):
        with pytest.raises(ValueError, match="ns"):
            PhongParams(ns=0.5)

    def test_rejects_non_unit_light(self):
        with pytest.raises(ValueError, match="light_dir"):
            PhongParams(light_dir=(1.0, 1.0, 1.0))

    def test_rejects_opposed_light_and_view(self):
        with pytest.raises(ValueError, match="halfway"):
            PhongParams(light_dir=(0.0, 0.0, -1.0), view_dir=(0.0, 0.0, 1.0))

    def test_rejects_negative_reflectance(self):
        with pytest.raises(ValueError, match="kd"):
            PhongParams(kd=-0.1)

    @pytest.mark.parametrize("kwargs, match", [
        ({"ka": math.nan}, "ka must be finite"),
        ({"ks": math.inf}, "ks must be finite"),
        ({"ns": math.nan}, "ns must be finite"),
        ({"height_scale": math.nan}, "height_scale must be finite"),
        ({"height_scale": math.inf}, "height_scale must be finite"),
        ({"height_scale": 1e200}, r"height_scale 1e\+200 is too large"),
        ({"light_dir": (math.nan, 0.0, 1.0)}, "light_dir components must be finite"),
        ({"view_dir": (0.0, 0.0, math.inf)}, "view_dir components must be finite"),
        ({"ia": 1e200, "ka": 1e200}, r"ia\*ka must be finite"),
        ({"il": 1e200, "kd": 1e200}, r"il\*kd must be finite"),
        ({"ks": 1e308}, r"255\*il\*ks must be finite"),
        ({"ka": 1e306}, "overflows"),
    ])
    def test_rejects_non_finite_values_and_products(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            PhongParams(**kwargs)


class TestHeightFieldNormals:
    @pytest.mark.parametrize("height_scale", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_height_scale_that_is_not_finite_and_positive(self, height_scale):
        gray = GrayImage(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError, match="height_scale must be finite and > 0"):
            height_field_normals(gray, height_scale)

    def test_constant_image_is_flat(self):
        gray = GrayImage(np.full((5, 7), 99, dtype=np.uint8))
        field = height_field_normals(gray, 25.0)
        assert np.array_equal(field.normals, np.broadcast_to((0.0, 0.0, 1.0), (5, 7, 3)))

    def test_single_pixel_is_flat(self):
        field = height_field_normals(GrayImage(np.array([[7]], dtype=np.uint8)), 3.0)
        assert np.array_equal(field.normals[0, 0], (0.0, 0.0, 1.0))

    def test_horizontal_ramp_interior(self):
        # h(x) = 10 * x / 255, so dh/dx = 10/255 by central differences.
        gray = GrayImage(np.arange(32, dtype=np.uint8).reshape(1, 32))
        field = height_field_normals(gray, 10.0)
        slope = 10.0 / 255.0
        norm = math.sqrt(slope * slope + 1.0)
        expected = (-slope / norm, 0.0, 1.0 / norm)
        for x in range(1, 31):
            assert field.normals[0, x] == pytest.approx(expected, abs=1e-15)

    def test_normals_are_unit_and_forward(self, rng):
        field = height_field_normals(to_grayscale(random_rgb(rng, 9, 6)), 10.0)
        lengths = np.linalg.norm(field.normals, axis=2)
        assert np.all(np.abs(lengths - 1.0) <= 1e-9)
        assert np.all(field.normals[..., 2] > 0)

    @settings(deadline=None)
    @given(gray=gray_images(max_side=40), height_scale=st.floats(0.01, 1e6),
           rows=st.lists(st.integers(0, 39), min_size=1, max_size=8),
           cols=st.lists(st.integers(0, 39), min_size=1, max_size=8))
    @example(gray=GrayImage(np.array([[9]], dtype=np.uint8)), height_scale=10.0,
             rows=[0, 0], cols=[0, 0])
    @example(gray=GrayImage(np.array([[0, 255, 0, 7, 7]], dtype=np.uint8)),
             height_scale=1e6, rows=[0], cols=[0, 2, 4, 4])
    @example(gray=GrayImage(np.array([[0], [255], [0], [7], [7]], dtype=np.uint8)),
             height_scale=0.01, rows=[4, 1, 0], cols=[0])
    def test_plane_wise_normals_equal_stacked_norm(self, gray, height_scale, rows, cols):
        expected = reference_unit_normals(gray, height_scale)
        got = shading._unit_normals(gray, height_scale)
        assert got.shape == expected.shape and got.dtype == np.float64
        # Byte for byte, so signed zeros count too.
        assert got.tobytes() == expected.tobytes()
        assert height_field_normals(gray, height_scale).normals.tobytes() == expected.tobytes()
        # Lattice normals at any rows and columns, repeats and any order included.
        ys, xs = np.array(rows) % gray.height, np.array(cols) % gray.width
        lattice = shading._lattice_normals(gray, height_scale, ys, xs)
        assert lattice.tobytes() == np.ascontiguousarray(expected[np.ix_(ys, xs)]).tobytes()

    def test_rejects_non_positive_scale(self):
        gray = GrayImage(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            height_field_normals(gray, 0.0)


class TestPhongIntensity:
    def test_ambient_only(self):
        p = PhongParams(ka=0.7, ia=0.9, kd=0.0, ks=0.0)
        assert phong_intensity(-0.3, 0.8, p) == pytest.approx(0.63, abs=1e-15)

    def test_head_on_light(self):
        p = PhongParams(ka=0.0, kd=0.6, ks=0.3, il=1.0)
        assert phong_intensity(1.0, 1.0, p) == pytest.approx(0.9, abs=1e-15)

    def test_worked_example(self):
        p = PhongParams(ka=0.2, ia=1.0, kd=0.6, il=1.0, ks=0.3, ns=10.0)
        assert phong_intensity(0.5, 0.9, p) == pytest.approx(0.60460, abs=1e-5)

    def test_negative_dots_clamp_to_ambient_floor(self):
        p = PhongParams()
        assert phong_intensity(-1.0, -1.0, p) == pytest.approx(p.ka * p.ia, abs=1e-15)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.1, 2.0))
    def test_monotone_in_each_coefficient(self, ndl, ndh, base, bump, il):
        lo = PhongParams(ka=base, kd=base, ks=base, ia=1.0, il=il)
        for name in ("ka", "kd", "ks", "ia", "il"):
            kwargs = {"ka": base, "kd": base, "ks": base, "ia": 1.0, "il": il}
            kwargs[name] = kwargs[name] + bump
            hi = PhongParams(**kwargs)
            assert phong_intensity(ndl, ndh, hi) >= phong_intensity(ndl, ndh, lo)

    @given(st.floats(0.05, 0.95), st.floats(1.0, 32.0), st.floats(0.5, 32.0))
    def test_glossiness_tightens_highlight(self, ndh, ns, extra):
        # ka=0 isolates the specular term; a tiny highlight added to a large
        # ambient term would otherwise vanish in float addition.
        lo = PhongParams(ka=0.0, ns=ns)
        hi = PhongParams(ka=0.0, ns=ns + extra)
        assert phong_intensity(0.0, ndh, hi) < phong_intensity(0.0, ndh, lo)


class TestShadeImage:
    def test_ambient_identity_configuration(self, rng):
        img = random_rgb(rng, 7, 5)
        p = PhongParams(ka=1.0, ia=1.0, kd=0.0, ks=0.0)
        assert shade_image(img, p) == img

    def test_constant_image_stays_constant(self):
        img = RgbImage(np.full((6, 9, 3), (10, 200, 40), dtype=np.uint8))
        shaded = shade_image(img, PhongParams())
        assert len(np.unique(shaded.pixels.reshape(-1, 3), axis=0)) == 1

    def test_matches_scalar_oracle(self, rng):
        img = random_rgb(rng, 8, 8)
        p = PhongParams()
        assert np.array_equal(shade_image(img, p).pixels, shaded_pixel_oracle(img, p))

    def test_matches_scalar_oracle_custom_params(self, rng):
        img = random_rgb(rng, 8, 8)
        p = PhongParams(ka=0.1, kd=0.8, ks=0.5, ia=0.7, il=1.2, ns=3.0, height_scale=40.0)
        assert np.array_equal(shade_image(img, p).pixels, shaded_pixel_oracle(img, p))

    def test_diffuse_only_bounded_by_scaled_input(self, rng):
        # With ks=0 the output cannot exceed the input scaled by ka*ia + kd*il
        # (compared after the same rounding).
        img = random_rgb(rng, 8, 8)
        p = PhongParams(ka=0.2, ia=1.0, kd=0.6, il=1.0, ks=0.0)
        bound = np.floor((p.ka * p.ia + p.kd * p.il) * img.pixels.astype(np.float64) + 0.5)
        assert np.all(shade_image(img, p).pixels <= bound)

    @pytest.mark.parametrize("band", BAND_SIZES)
    @settings(deadline=None, max_examples=40)
    @given(img=rgb_images(max_side=40), p=phong_params())
    # Flat normals under a light with z = -0.0: every product is -0.0, so the
    # clamped N.L is -0.0 and must stay so.
    @example(img=RgbImage(np.full((3, 9, 3), 77, dtype=np.uint8)),
             p=PhongParams(light_dir=(1.0, 0.0, -0.0)))
    def test_cosines_and_pixels_equal_scalar_oracle(self, band, img, p):
        seen = []
        no_normals = AssertionError("shade_image built a normal array")
        with mock.patch.object(shading, "_BAND_PIXELS", band), \
                mock.patch.object(shading, "_normalized", side_effect=no_normals), \
                mock.patch.object(shading, "_compose_shaded", recorded_compose(seen)):
            out = shade_image(img, p)
        expected = exact_cosines_oracle(img, p)
        # Byte for byte, so signed zeros count too.
        assert [c.tobytes() for c in seen[0]] == [c.tobytes() for c in expected]
        assert np.array_equal(out.pixels, shaded_pixel_oracle(img, p))


class TestComposeShaded:
    @pytest.mark.parametrize("band", BAND_SIZES)
    @settings(deadline=None)
    @given(img=rgb_images(max_side=40), p=phong_params(max_ks=50.0),
           seed=st.integers(0, 2**32 - 1))
    # Highlights far past white: most pixels saturate at 255.
    @example(img=RgbImage(np.full((5, 4, 3), 200, dtype=np.uint8)),
             p=PhongParams(ks=40.0, ns=1.0), seed=3)
    def test_equals_floor_and_clip(self, band, img, p, seed):
        rng = np.random.default_rng(seed)
        planes = rng.random((2, img.height, img.width))
        # The edge values of a clamped cosine: zeros of both signs, one, and
        # the ULP above one that an exact cosine can round to.
        special = np.array([0.0, -0.0, 1.0, math.nextafter(1.0, 2.0)])
        mask = rng.random(planes.shape) < 0.25
        planes[mask] = rng.choice(special, int(mask.sum()))
        with mock.patch.object(shading, "_BAND_PIXELS", band):
            out = shading._compose_shaded(img.pixels, planes[0], planes[1], p)
        assert out.pixels.tobytes() == reference_compose(img.pixels, *planes, p).tobytes()


class TestBands:
    @pytest.mark.parametrize("height, width, band", [
        (1, 1, 1), (5, 3, 1), (5, 3, 7), (64, 512, 1 << 15), (65, 512, 1 << 15),
        (3, 70000, 1 << 15), (40, 40, 1 << 15),
    ])
    def test_bands_cover_the_image_in_order(self, height, width, band):
        with mock.patch.object(shading, "_BAND_PIXELS", band):
            bands = shading._bands(height, width)
        assert [y for y0, y1 in bands for y in range(y0, y1)] == list(range(height))
        rows = max(1, band // width)
        assert all(y1 - y0 == rows for y0, y1 in bands[:-1])
        assert 1 <= bands[-1][1] - bands[-1][0] <= rows


class TestTileNdoth:
    def test_parallel_constants(self):
        zero = (0.0, 0.0, 0.0)
        t = TileInterpolant(zero, zero, (0, 0, 1), zero, zero, (0, 0, 1))
        for x, y in ((0, 0), (3.5, -2.0), (100, 7)):
            assert tile_ndoth(t, x, y) == 1.0

    def test_orthogonal_constants(self):
        zero = (0.0, 0.0, 0.0)
        t = TileInterpolant(zero, zero, (1, 0, 0), zero, zero, (0, 1, 0))
        assert tile_ndoth(t, 2.0, 5.0) == 0.0

    def test_degenerate_interpolant(self):
        zero = (0.0, 0.0, 0.0)
        t = TileInterpolant((1, 0, 0), zero, (-4, 0, 0), zero, zero, (0, 0, 1))
        with pytest.raises(DegenerateInterpolantError):
            tile_ndoth(t, 4.0, 0.0)

    def test_matches_normalize_then_dot_oracle(self, rng):
        # Corner-anchored interpolants over a 4x4 tile with linear variation.
        span = 4.0
        n00, n10, n01 = unit((0, 0, 1)), unit((0.3, 0, 1)), unit((0, -0.2, 1))
        a = tuple((b - c) / span for b, c in zip(n10, n00))
        b = tuple((q - c) / span for q, c in zip(n01, n00))
        half = unit((1, 1, 2))
        t = TileInterpolant(a, b, n00, (0, 0, 0), (0, 0, 0), half)
        for _ in range(50):
            x = rng.uniform(0, span)
            y = rng.uniform(0, span)
            nvec = np.array(a) * x + np.array(b) * y + np.array(n00)
            expected = float(np.dot(nvec / np.linalg.norm(nvec), half))
            assert tile_ndoth(t, x, y) == pytest.approx(expected, abs=1e-12)

    @given(st.floats(0.01, 100.0), st.floats(0.01, 100.0),
           st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    def test_invariant_under_positive_scaling(self, s, u, x, y):
        t = TileInterpolant((0.1, 0, 0.02), (0, -0.05, 0), (0.2, 0.3, 1.0),
                            (0.01, 0, 0), (0, 0.02, 0), (0.5, 0.5, 1.0))
        scaled = TileInterpolant(
            tuple(s * v for v in t.a), tuple(s * v for v in t.b), tuple(s * v for v in t.c),
            tuple(u * v for v in t.d), tuple(u * v for v in t.e), tuple(u * v for v in t.f),
        )
        assert tile_ndoth(scaled, x, y) == pytest.approx(tile_ndoth(t, x, y), abs=1e-9)


class TestShadeImageTiled:
    def test_rejects_tile_below_two(self, rng):
        with pytest.raises(ValueError, match="tile"):
            shade_image_tiled(random_rgb(rng, 4, 4), PhongParams(), 1)

    @pytest.mark.parametrize("tile", [2, 3, 5, 16])
    def test_constant_image_matches_exact_mode(self, tile):
        img = RgbImage(np.full((10, 12, 3), (90, 30, 120), dtype=np.uint8))
        p = PhongParams()
        assert shade_image_tiled(img, p, tile) == shade_image(img, p)

    def test_agrees_with_exact_mode_at_lattice_points(self, rng):
        img = random_rgb(rng, 17, 13)
        p = PhongParams()
        plain = shade_image(img, p).pixels
        tiled = shade_image_tiled(img, p, 2).pixels
        xs = [0, 2, 4, 6, 8, 10, 12, 14, 16]
        ys = [0, 2, 4, 6, 8, 10, 12]
        for y in ys:
            for x in xs:
                assert np.array_equal(plain[y, x], tiled[y, x])

    def test_linear_ramp_deviation(self):
        # Interior tiles of a linear ramp see identical corner normals, so
        # interpolation is exact there. Edge replication halves the gradient
        # on the first/last columns, so border tiles blend two different
        # normals; with default parameters the worst rounding gap is 2.
        ramp = np.broadcast_to(np.arange(64, dtype=np.uint8)[None, :, None], (64, 64, 3))
        img = RgbImage(ramp.copy())
        p = PhongParams()
        deviation = np.abs(
            shade_image_tiled(img, p, 8).pixels.astype(int)
            - shade_image(img, p).pixels.astype(int)
        )
        assert deviation[:, 8:56].max() == 0
        assert deviation.max() <= 2

    def test_one_pixel_wide_image(self):
        img = RgbImage(np.arange(30, dtype=np.uint8).reshape(10, 1, 3))
        p = PhongParams()
        out = shade_image_tiled(img, p, 4)
        assert (out.width, out.height) == (1, 10)

    @settings(deadline=None)
    @given(
        img=rgb_images(max_side=40),
        tile=st.integers(2, 48),
        ns=st.floats(1.0, 40.0),
        light=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-0.9, 1.0)),
        height_scale=st.floats(0.01, 1000.0),
    )
    @example(img=random_rgb(np.random.default_rng(1), 1, 17), tile=4, ns=2.5,
             light=(0.3, -0.2, 0.9), height_scale=10.0)
    @example(img=random_rgb(np.random.default_rng(2), 23, 1), tile=8, ns=7.25,
             light=(-0.5, 0.1, 0.4), height_scale=100.0)
    @example(img=random_rgb(np.random.default_rng(3), 21, 19), tile=8, ns=10.5,
             light=(1.0, 1.0, 1.0), height_scale=0.5)
    # A ramp lit so that its interior normal is the halfway vector: there the
    # cosine rounds to just above 1, and only the clamp brings it back.
    @example(img=RgbImage(np.broadcast_to(np.arange(6, dtype=np.uint8)[None, :, None],
                                          (6, 6, 3))),
             tile=4, ns=10.0, light=(-0.007843016639498048, -0.0, 0.999969243072002),
             height_scale=1.0)
    def test_equals_per_pixel_loop(self, img, tile, ns, light, height_scale):
        check_tiled_equals_loop(img, tile, ns, light, height_scale)

    @pytest.mark.parametrize("band", [1, 7])
    @settings(deadline=None, max_examples=50)
    @given(
        img=rgb_images(max_side=40),
        tile=st.integers(2, 48),
        ns=st.floats(1.0, 40.0),
        light=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-0.9, 1.0)),
        height_scale=st.floats(0.01, 1000.0),
    )
    def test_equals_per_pixel_loop_in_bands(self, band, img, tile, ns, light, height_scale):
        with mock.patch.object(shading, "_BAND_PIXELS", band):
            check_tiled_equals_loop(img, tile, ns, light, height_scale)

    def test_vanishing_interpolated_normal_is_reported(self):
        # Opposed corner normals cancel halfway along a tile edge. Height-field
        # normals always face the viewer, so this needs hand-made corners.
        def opposed(gray, height_scale, ys, xs):
            corners = np.zeros((len(ys), len(xs), 3))
            corners[:, 0::2, 0], corners[:, 1::2, 0] = 1.0, -1.0
            return corners

        img = RgbImage(np.zeros((3, 3, 3), dtype=np.uint8))
        with mock.patch.object(shading, "_lattice_normals", opposed):
            with pytest.raises(DegenerateInterpolantError, match=r"\(1, 0\)"):
                shade_image_tiled(img, PhongParams(), 2)

    @pytest.mark.parametrize("band", [6, 7, shading._BAND_PIXELS])
    def test_vanishing_normal_in_a_later_band_names_its_row(self, band):
        # Lattice rows y = 0, 2 face the viewer; rows y = 4, 5 have opposed
        # corners, so the first zero normal is at (1, 4). At 3 pixels wide, a
        # band of 6 or 7 pixels is 2 rows, which puts it in the third band.
        def opposed_below(gray, height_scale, ys, xs):
            corners = np.zeros((len(ys), len(xs), 3))
            corners[ys < 4, :, 2] = 1.0
            corners[ys >= 4, 0::2, 0], corners[ys >= 4, 1::2, 0] = 1.0, -1.0
            return corners

        img = RgbImage(np.zeros((6, 3, 3), dtype=np.uint8))
        with mock.patch.object(shading, "_lattice_normals", opposed_below), \
                mock.patch.object(shading, "_BAND_PIXELS", band):
            with pytest.raises(DegenerateInterpolantError, match=r"at \(1, 4\)$"):
                shade_image_tiled(img, PhongParams(), 2)


class TestNormalField:
    def test_rejects_non_unit_normals(self):
        bad = np.broadcast_to((0.0, 0.0, 2.0), (2, 2, 3)).copy()
        with pytest.raises(ValueError, match="unit"):
            NormalField(bad)

    def test_rejects_backward_normals(self):
        bad = np.broadcast_to((0.0, 0.0, -1.0), (2, 2, 3)).copy()
        with pytest.raises(ValueError, match="viewer"):
            NormalField(bad)
