"""Phong illumination applied to photographs via an intensity height field.

A grayscale copy of the input is treated as a surface z = height_scale *
gray / 255; per-pixel unit normals come from central differences of that
surface (edge rows and columns are replicated). The normals are built plane
by plane: one length sqrt(dz/dx^2 + dz/dy^2 + 1) per pixel, and the three
components (-dz/dx, -dz/dy, 1) divided by it straight into one
(height, width, 3) array. Each pixel is then lit as

    I = ka*ia + kd*il*max(N.L, 0) + ks*il*max(N.H, 0)**ns

where the ambient and diffuse terms modulate the original channel value
(treating it as albedo) and the specular term adds a white highlight.
Negative dot products clamp to zero: one-sided lighting keeps fractional
glossiness exponents well defined.

``shade_image_tiled`` is the interpolated variant: exact normals are taken
only on a tile-corner lattice and blended affinely inside each tile. Tiles
are split along the diagonal into two triangles so that an affine
interpolant (N = A*x + B*y + C) reproduces every corner exactly; because the
light and view directions are global constants, the interpolated halfway
vector is constant per image (D = E = 0).

Both modes work on whole arrays. The tiled mode builds small per-cell
coefficient tables and evaluates every pixel from them in one pass, so it is
the cheaper of the two. ``tile_ndoth`` and ``TileInterpolant`` are the scalar
definition of a tiled pixel, which the whole-array code reproduces to the
bit; they serve as the oracle for tests and are not called when shading.
"""

import math
from dataclasses import dataclass

import numpy as np

from .image import GrayImage, RgbImage, to_grayscale

Vec3 = tuple[float, float, float]


class DegenerateInterpolantError(ValueError):
    """An interpolated normal or halfway vector vanished at an evaluation point."""


def unit(v) -> Vec3:
    """Normalize a 3-vector to unit length."""
    x, y, z = (float(c) for c in v)
    n = math.sqrt(x * x + y * y + z * z)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return (x / n, y / n, z / n)


DEFAULT_LIGHT_DIR = unit((1.0, 1.0, 1.0))
DEFAULT_VIEW_DIR = (0.0, 0.0, 1.0)

_UNIT_TOL = 1e-9


@dataclass(frozen=True)
class PhongParams:
    """Illumination coefficients plus the height-field scale.

    ka/kd/ks are the ambient, diffuse, and specular reflectances; ia and il
    the ambient and source light intensities; ns the glossiness exponent
    (>= 1, larger means tighter highlights).
    """

    ka: float = 0.2
    kd: float = 0.6
    ks: float = 0.3
    ia: float = 1.0
    il: float = 1.0
    ns: float = 10.0
    light_dir: Vec3 = DEFAULT_LIGHT_DIR
    view_dir: Vec3 = DEFAULT_VIEW_DIR
    height_scale: float = 10.0

    def __post_init__(self):
        for name in ("ka", "kd", "ks", "ia", "il", "ns", "height_scale"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("ka", "kd", "ks", "ia", "il"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.ns < 1:
            raise ValueError("ns must be >= 1")
        if self.height_scale <= 0:
            raise ValueError("height_scale must be > 0")
        # A slope of the normal field is at most height_scale / 2, and its
        # square is summed into each normal's length.
        if not math.isfinite(self.height_scale * self.height_scale):
            raise ValueError(f"height_scale {self.height_scale!r} is too large: "
                             "the normal field's squared slopes overflow")
        # The composition scales a channel value c <= 255 by ia*ka and by
        # il*kd, and adds 255*il*ks: a white, fully lit pixel sums all three.
        ambient, diffuse = self.ia * self.ka, self.il * self.kd
        specular = 255.0 * self.il * self.ks
        for name, value in (("ia*ka", ambient), ("il*kd", diffuse), ("255*il*ks", specular)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not math.isfinite(255.0 * ambient + 255.0 * diffuse + specular):
            raise ValueError("ia*ka, il*kd and il*ks are too large: a lit pixel's "
                             "intensity, 255*ia*ka + 255*il*kd + 255*il*ks, overflows")
        for name in ("light_dir", "view_dir"):
            vec = tuple(float(c) for c in getattr(self, name))
            if len(vec) != 3:
                raise ValueError(f"{name} must be a 3-vector")
            if not all(math.isfinite(c) for c in vec):
                raise ValueError(f"{name} components must be finite, got {vec!r}")
            if abs(math.sqrt(sum(c * c for c in vec)) - 1.0) > _UNIT_TOL:
                raise ValueError(f"{name} must have unit length")
            object.__setattr__(self, name, vec)
        s = [l + v for l, v in zip(self.light_dir, self.view_dir)]
        if math.sqrt(sum(c * c for c in s)) < 1e-12:
            raise ValueError("light_dir opposes view_dir; halfway vector undefined")

    @property
    def halfway(self) -> Vec3:
        """Unit halfway vector between the light and view directions."""
        return unit([l + v for l, v in zip(self.light_dir, self.view_dir)])


@dataclass(frozen=True, eq=False)
class NormalField:
    """Per-pixel unit normals of a height field; z > 0 everywhere."""

    normals: np.ndarray  # (height, width, 3) float64

    def __post_init__(self):
        arr = np.ascontiguousarray(self.normals, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ValueError(f"expected (height, width, 3) normals, got shape {arr.shape}")
        lengths = np.linalg.norm(arr, axis=2)
        if np.any(np.abs(lengths - 1.0) > _UNIT_TOL):
            raise ValueError("normals must have unit length")
        if np.any(arr[..., 2] <= 0.0):
            raise ValueError("normals must face the viewer (z > 0)")
        arr.flags.writeable = False
        object.__setattr__(self, "normals", arr)

    @property
    def width(self) -> int:
        return self.normals.shape[1]

    @property
    def height(self) -> int:
        return self.normals.shape[0]


def _normalized(dhdx: np.ndarray, dhdy: np.ndarray) -> np.ndarray:
    # (-dhdx, -dhdy, 1) / nn with nn = sqrt(dhdx*dhdx + dhdy*dhdy + 1), summed
    # left to right as a norm of the stacked vector sums it. Each plane is
    # divided straight into one (..., 3) array and the whole array negated
    # once: rounding is sign-symmetric, so -(a / nn) == (-a) / nn bit for bit.
    nn = dhdx * dhdx
    nn += dhdy * dhdy
    nn += 1.0
    np.sqrt(nn, out=nn)
    n = np.empty(dhdx.shape + (3,))
    np.divide(dhdx, nn, out=n[..., 0])
    np.divide(dhdy, nn, out=n[..., 1])
    np.divide(-1.0, nn, out=n[..., 2])
    np.negative(n, out=n)
    return n


def _unit_normals(gray: GrayImage, height_scale: float) -> np.ndarray:
    # height_field_normals without NormalField's re-check of every length.
    h = np.multiply(gray.pixels, height_scale / 255.0, dtype=np.float64)
    padded = np.pad(h, 1, mode="edge")
    dhdx = padded[1:-1, 2:] - padded[1:-1, :-2]
    dhdx /= 2.0
    dhdy = padded[2:, 1:-1] - padded[:-2, 1:-1]
    dhdy /= 2.0
    return _normalized(dhdx, dhdy)


def _lattice_normals(gray: GrayImage, height_scale: float,
                     ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    # _unit_normals at rows ys and columns xs only, by the same arithmetic on
    # the same (edge-replicated) neighbours, so equal to it to the bit there.
    h = gray.pixels.astype(np.float64) * (height_scale / 255.0)
    last_y, last_x = h.shape[0] - 1, h.shape[1] - 1
    dhdx = (h[np.ix_(ys, np.minimum(xs + 1, last_x))]
            - h[np.ix_(ys, np.maximum(xs - 1, 0))]) / 2.0
    dhdy = (h[np.ix_(np.minimum(ys + 1, last_y), xs)]
            - h[np.ix_(np.maximum(ys - 1, 0), xs)]) / 2.0
    return _normalized(dhdx, dhdy)


def height_field_normals(gray: GrayImage, height_scale: float) -> NormalField:
    """Unit normals of z = height_scale * gray / 255.

    Gradients are central differences with edge replication, so 1-pixel
    dimensions degrade to zero gradient and a flat (0, 0, 1) normal.
    """
    if not 0 < height_scale < math.inf:
        raise ValueError(f"height_scale must be finite and > 0, got {height_scale!r}")
    return NormalField(_unit_normals(gray, height_scale))


def phong_intensity(n_dot_l: float, n_dot_h: float, p: PhongParams) -> float:
    """Scalar illumination: ambient + diffuse + specular, dots clamped at 0."""
    diffuse = p.kd * p.il * max(n_dot_l, 0.0)
    specular = p.ks * p.il * max(n_dot_h, 0.0) ** p.ns
    return p.ka * p.ia + diffuse + specular


def _compose_shaded(pixels: np.ndarray, n_dot_l: np.ndarray, n_dot_h: np.ndarray,
                    p: PhongParams) -> RgbImage:
    # Shared by both shading modes so they apply bit-identical arithmetic:
    # c' = clamp(round(ia*ka*c + il*kd*(N.L)*c + 255*il*ks*(N.H)^ns)), summed
    # left to right. In place, so that it holds two (height, width, 3) float
    # arrays at a time rather than one per term.
    rgb = pixels.astype(np.float64)
    shaded = p.ia * p.ka * rgb
    rgb *= (p.il * p.kd * n_dot_l)[..., None]
    shaded += rgb
    shaded += (255.0 * p.il * p.ks * n_dot_h**p.ns)[..., None]
    shaded += 0.5
    np.floor(shaded, out=shaded)
    np.clip(shaded, 0.0, 255.0, out=shaded)
    out = shaded.astype(np.uint8)
    out.flags.writeable = False  # nothing else holds it, so RgbImage need not copy
    return RgbImage(out)


def shade_image(img: RgbImage, p: PhongParams) -> RgbImage:
    """Per-pixel Phong shading with exact height-field normals."""
    normals = _unit_normals(to_grayscale(img), p.height_scale)
    light = np.asarray(p.light_dir)
    half = np.asarray(p.halfway)
    n_dot_l = np.maximum(normals @ light, 0.0)
    n_dot_h = np.maximum(normals @ half, 0.0)
    return _compose_shaded(img.pixels, n_dot_l, n_dot_h, p)


@dataclass(frozen=True)
class TileInterpolant:
    """Affine interpolants N(x,y) = a x + b y + c and H(x,y) = d x + e y + f."""

    a: Vec3
    b: Vec3
    c: Vec3
    d: Vec3
    e: Vec3
    f: Vec3

    def __post_init__(self):
        for name in ("a", "b", "c", "d", "e", "f"):
            vec = tuple(float(v) for v in getattr(self, name))
            if len(vec) != 3:
                raise ValueError(f"{name} must be a 3-vector")
            object.__setattr__(self, name, vec)


def tile_ndoth(t: TileInterpolant, x: float, y: float) -> float:
    """Cosine between the interpolated normal and halfway vectors at (x, y).

    Evaluates (N_xy . H_xy) / (|N_xy| |H_xy|), so neither interpolated vector
    needs unit length. Raises DegenerateInterpolantError if either vanishes.
    """
    nx = t.a[0] * x + t.b[0] * y + t.c[0]
    ny = t.a[1] * x + t.b[1] * y + t.c[1]
    nz = t.a[2] * x + t.b[2] * y + t.c[2]
    hx = t.d[0] * x + t.e[0] * y + t.f[0]
    hy = t.d[1] * x + t.e[1] * y + t.f[1]
    hz = t.d[2] * x + t.e[2] * y + t.f[2]
    nn = math.sqrt(nx * nx + ny * ny + nz * nz)
    hn = math.sqrt(hx * hx + hy * hy + hz * hz)
    if nn == 0.0 or hn == 0.0:
        raise DegenerateInterpolantError(
            f"zero-length interpolated vector at ({x}, {y})"
        )
    value = (nx * hx + ny * hy + nz * hz) / (nn * hn)
    return min(1.0, max(-1.0, value))


def _cells(extent: int, tile: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lattice marks along one axis, and each pixel's cell and offset in it.

    Marks fall every ``tile`` pixels plus the far edge. Cell i runs from
    marks[i] to marks[i + 1], and the last cell also takes the far edge. A
    1-pixel extent has marks [0, 0]: one cell of span 0.
    """
    marks = list(range(0, extent, tile))
    if len(marks) == 1 or marks[-1] != extent - 1:
        marks.append(extent - 1)
    marks = np.array(marks)
    pixels = np.arange(extent)
    cell = np.minimum(np.searchsorted(marks, pixels, side="right") - 1, len(marks) - 2)
    return marks, cell, pixels - marks[cell]


def _clamped_cosines(nx: np.ndarray, ny: np.ndarray, nz: np.ndarray, nn: np.ndarray,
                     vec: Vec3) -> np.ndarray:
    # tile_ndoth's arithmetic in its operation order, one plane at a time.
    # Its constant interpolant is 0*x + 0*y + f, which at x, y >= 0 is 0.0 + f.
    hx, hy, hz = (0.0 + f for f in vec)
    hn = math.sqrt(hx * hx + hy * hy + hz * hz)
    value = (nx * hx + ny * hy + nz * hz) / (nn * hn)
    # max(min(1, max(-1, v)), 0) as Python evaluates it, so -0.0 stays -0.0.
    np.minimum(value, 1.0, out=value)
    value[value < 0.0] = 0.0
    return value


def _tile_cosines(gray: GrayImage, tile: int,
                  p: PhongParams) -> tuple[np.ndarray, np.ndarray]:
    # Clamped N.L and N.H planes of shade_image_tiled. Kept apart so that the
    # interpolated normal planes are freed before composition.
    marks_x, cell_x, lx = _cells(gray.width, tile)
    marks_y, cell_y, ly = _cells(gray.height, tile)
    cell_y, ly = cell_y[:, None], ly[:, None]  # as columns, to broadcast over rows
    dx, dy = np.diff(marks_x), np.diff(marks_y)
    corners = _lattice_normals(gray, p.height_scale, marks_y, marks_x)
    n00, n10 = corners[:-1, :-1], corners[:-1, 1:]
    n01, n11 = corners[1:, :-1], corners[1:, 1:]
    # A zero span joins a corner to itself: hi - lo is 0, and dividing it by
    # 1 gives the slope 0.
    span_x = np.maximum(dx, 1)[None, :, None]
    span_y = np.maximum(dy, 1)[:, None, None]
    # N = a*lx + b*ly + c per cell, in local (x - x0, y - y0): the upper-left
    # triangle is anchored at n00, the lower-right at the opposite corners.
    table = np.array([
        ((n10 - n00) / span_x, (n01 - n00) / span_y, n00),
        ((n11 - n01) / span_x, (n11 - n10) / span_y, n10 + n01 - n11),
    ])  # (triangle, coefficient, cell row, cell column, component)
    table = table.transpose(4, 1, 0, 2, 3).reshape(3, 3, -1)
    # Integer triangle rule; along a zero span the offset is 0, so the upper
    # triangle is taken there.
    lower = lx * dy[cell_y] + ly * dx[cell_x] > dx[cell_x] * dy[cell_y]
    cell = (lower * len(dy) + cell_y) * len(dx) + cell_x
    nx, ny, nz = (a.take(cell) * lx + b.take(cell) * ly + c.take(cell) for a, b, c in table)
    nn = np.sqrt(nx * nx + ny * ny + nz * nz)
    if not nn.all():
        y, x = np.argwhere(nn == 0.0)[0]
        raise DegenerateInterpolantError(f"zero-length interpolated normal at ({x}, {y})")
    return (_clamped_cosines(nx, ny, nz, nn, p.light_dir),
            _clamped_cosines(nx, ny, nz, nn, p.halfway))


def shade_image_tiled(img: RgbImage, p: PhongParams, tile: int) -> RgbImage:
    """Phong shading with normals interpolated from a tile-corner lattice.

    Exact normals are sampled every ``tile`` pixels (plus the far edge); each
    lattice cell is split into two triangles carrying affine interpolants in
    local coordinates, so lattice points reproduce the exact per-pixel
    normals. Every pixel's cosines equal ``tile_ndoth`` on its triangle's
    ``TileInterpolant`` to the bit, computed over whole arrays. Output uses
    the same composition as shade_image.
    """
    if tile < 2:
        raise ValueError("tile size must be at least 2")
    n_dot_l, n_dot_h = _tile_cosines(to_grayscale(img), tile, p)
    return _compose_shaded(img.pixels, n_dot_l, n_dot_h, p)
