"""Phong illumination applied to photographs via an intensity height field.

A grayscale copy of the input is treated as a surface z = height_scale *
gray / 255; per-pixel unit normals come from central differences of that
surface (edge rows and columns are replicated): (-dz/dx, -dz/dy, 1) divided
by its length sqrt(dz/dx^2 + dz/dy^2 + 1). Each pixel is then lit as

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

Both modes work over row bands of about ``_BAND_PIXELS`` pixels, so that a
band's float64 scratch stays in a core's L2 cache. Each fills two full-size
planes of clamped cosines, N.L and N.H, and one shared composition turns
them into the shaded image, band by band. The exact mode builds no normal
array: per band it takes the slopes, their lengths and the two cosines. The
tiled mode builds small per-cell coefficient tables once, then per band finds
each pixel's triangle and evaluates its interpolated normal from them. That
is more arithmetic per pixel than the exact normals take, so the tiled mode
is the slower of the two. ``tile_ndoth`` and ``TileInterpolant`` are the
scalar definition of a tiled pixel, which the banded code reproduces to the
bit; they serve as the oracle for tests and are not called when shading.
"""

import math
from dataclasses import dataclass

import numpy as np

from .image import GrayImage, RgbImage, edge_padded, to_grayscale

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

# Pixels per band: 64 rows at 512 wide. One band's float64 plane is 256 KiB,
# so the few planes a kernel step touches stay in a core's L2 cache (1 MiB on
# a 2-vCPU AMD EPYC VM). There, at 512², bands of 1 << 13 to 1 << 16 pixels
# timed alike and 1 << 12 was slower.
_BAND_PIXELS = 1 << 15


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


def _bands(height: int, width: int) -> list[tuple[int, int]]:
    """Row ranges [y0, y1) of about _BAND_PIXELS pixels each, and at least one
    row each, covering the image in order."""
    rows = max(1, _BAND_PIXELS // width)
    return [(y0, min(y0 + rows, height)) for y0 in range(0, height, rows)]


def _slopes(padded: np.ndarray, height_scale: float) -> tuple[np.ndarray, np.ndarray]:
    # Central differences of z = height_scale * gray / 255 inside an
    # edge-padded gray window, over its first two axes: the one copy of the
    # slope arithmetic, shared by the full, banded and lattice normals.
    h = np.multiply(padded, height_scale / 255.0, dtype=np.float64)
    dhdx = h[1:-1, 2:] - h[1:-1, :-2]
    dhdx /= 2.0
    dhdy = h[2:, 1:-1] - h[:-2, 1:-1]
    dhdy /= 2.0
    return dhdx, dhdy


def _norm(x: np.ndarray, y: np.ndarray, z) -> np.ndarray:
    # sqrt(x*x + y*y + z*z), summed left to right as a norm of the stacked
    # vector sums it; z may be a scalar.
    nn = x * x
    nn += y * y
    nn += z * z
    return np.sqrt(nn, out=nn)


def _normalized(dhdx: np.ndarray, dhdy: np.ndarray) -> np.ndarray:
    # (-dhdx, -dhdy, 1) / nn. Each plane is divided straight into one (..., 3)
    # array and the whole array negated once: rounding is sign-symmetric, so
    # -(a / nn) == (-a) / nn bit for bit.
    nn = _norm(dhdx, dhdy, 1.0)
    n = np.empty(dhdx.shape + (3,))
    np.divide(dhdx, nn, out=n[..., 0])
    np.divide(dhdy, nn, out=n[..., 1])
    np.divide(-1.0, nn, out=n[..., 2])
    np.negative(n, out=n)
    return n


def _unit_normals(gray: GrayImage, height_scale: float) -> np.ndarray:
    # height_field_normals without NormalField's re-check of every length.
    return _normalized(*_slopes(edge_padded(gray.pixels), height_scale))


def _lattice_normals(gray: GrayImage, height_scale: float,
                     ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    # _unit_normals at rows ys and columns xs only: the same arithmetic on the
    # edge-replicated 3x3 neighbourhood of each point, so equal to it to the bit.
    steps = np.arange(-1, 2)
    rows = np.clip(steps[:, None] + ys, 0, gray.height - 1)[:, None, :, None]
    cols = np.clip(steps[:, None] + xs, 0, gray.width - 1)[None, :, None, :]
    dhdx, dhdy = _slopes(gray.pixels[rows, cols], height_scale)  # (1, 1, ys, xs) each
    return _normalized(dhdx[0, 0], dhdy[0, 0])


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
    # c' = min(ia*ka*c + il*kd*(N.L)*c + 255*il*ks*(N.H)^ns + 0.5, 255), summed
    # left to right and truncated to uint8, one band at a time. Every term is
    # finite and non-negative (PhongParams rejects overflowing products), so
    # truncation is floor(x + 0.5) and no lower clip is needed.
    ambient, diffuse = p.ia * p.ka, p.il * p.kd
    specular = 255.0 * p.il * p.ks
    out = np.empty(pixels.shape, dtype=np.uint8)
    for y0, y1 in _bands(*n_dot_l.shape):
        px = pixels[y0:y1]
        shaded = np.multiply(px, ambient, dtype=np.float64)
        term = _spread(diffuse * n_dot_l[y0:y1], np.empty(px.shape))
        shaded += np.multiply(px, term, out=term)
        glint = n_dot_h[y0:y1] ** p.ns
        glint *= specular
        shaded += _spread(glint, term)
        shaded += 0.5
        # min(x, 255); np.clip with both bounds runs a faster loop than np.minimum.
        np.clip(shaded, -np.inf, 255.0, out=shaded)
        out[y0:y1] = shaded
    out.flags.writeable = False  # nothing else holds it, so RgbImage need not copy
    return RgbImage(out)


def _spread(plane: np.ndarray, out: np.ndarray) -> np.ndarray:
    # Each pixel's value into its three channel slots. Three strided copies
    # beat a broadcast over a length-3 inner axis about threefold.
    for c in range(3):
        out[..., c] = plane
    return out


def _exact_cosines(gray: GrayImage, p: PhongParams) -> tuple[np.ndarray, np.ndarray]:
    # Clamped N.L and N.H planes of shade_image, one band at a time, with no
    # normal array. With dx, dy = dhdx/nn, dhdy/nn, each cosine is
    # dx*(-v0) + dy*(-v1) + (1/nn)*v2: rounding is sign-symmetric, so that is
    # n0*v0 + n1*v1 + n2*v2 of _unit_normals' n = (-dx, -dy, 1/nn) to the bit.
    padded = edge_padded(gray.pixels)
    planes = np.empty((2, gray.height, gray.width))
    for y0, y1 in _bands(gray.height, gray.width):
        dx, dy = _slopes(padded[y0:y1 + 2], p.height_scale)
        nz = _norm(dx, dy, 1.0)
        dx /= nz
        dy /= nz
        np.divide(1.0, nz, out=nz)
        for (v0, v1, v2), out in zip((p.light_dir, p.halfway), planes[:, y0:y1]):
            np.multiply(dx, -v0, out=out)
            out += dy * -v1
            out += nz * v2
            # max(v, 0.0) as Python evaluates it, so -0.0 stays -0.0.
            out[out < 0.0] = 0.0
    return planes[0], planes[1]


def shade_image(img: RgbImage, p: PhongParams) -> RgbImage:
    """Per-pixel Phong shading with exact height-field normals."""
    n_dot_l, n_dot_h = _exact_cosines(to_grayscale(img), p)
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
                     vec: Vec3, out: np.ndarray) -> None:
    # tile_ndoth's arithmetic in its operation order, one plane at a time,
    # into out. Its constant interpolant is 0*x + 0*y + f, which at x, y >= 0
    # is 0.0 + f.
    hx, hy, hz = (0.0 + f for f in vec)
    hn = math.sqrt(hx * hx + hy * hy + hz * hz)
    np.multiply(nx, hx, out=out)
    out += ny * hy
    out += nz * hz
    out /= nn * hn
    # max(min(1, max(-1, v)), 0) as Python evaluates it, so -0.0 stays -0.0.
    np.clip(out, -np.inf, 1.0, out=out)
    out[out < 0.0] = 0.0


def _tile_cosines(gray: GrayImage, tile: int,
                  p: PhongParams) -> tuple[np.ndarray, np.ndarray]:
    # Clamped N.L and N.H planes of shade_image_tiled, one band at a time.
    marks_x, cell_x, lx = _cells(gray.width, tile)
    marks_y, cell_y, ly = _cells(gray.height, tile)
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
    # The integer triangle rule lx*dy + ly*dx > dx*dy, as lx*dy > dx*(dy - ly)
    # with one factor per column and one per row. Along a zero span the offset
    # is 0, so the upper triangle is taken there.
    col_dx, row_dy = dx[cell_x], dy[cell_y][:, None]
    row_rest = row_dy - ly[:, None]
    row_cell = (cell_y * len(dx))[:, None]
    lower_cells = len(dy) * len(dx)  # lower-triangle cells follow the upper ones
    lx_f, ly_f = lx.astype(np.float64), ly.astype(np.float64)[:, None]
    planes = np.empty((2, gray.height, gray.width))
    for y0, y1 in _bands(gray.height, gray.width):
        lower = lx * row_dy[y0:y1] > col_dx * row_rest[y0:y1]
        cell = lower * lower_cells
        cell += row_cell[y0:y1]
        cell += cell_x
        nx, ny, nz = (a.take(cell) * lx_f + b.take(cell) * ly_f[y0:y1] + c.take(cell)
                      for a, b, c in table)
        nn = _norm(nx, ny, nz)
        if not nn.all():
            y, x = np.argwhere(nn == 0.0)[0]
            raise DegenerateInterpolantError(
                f"zero-length interpolated normal at ({x}, {y0 + y})")
        _clamped_cosines(nx, ny, nz, nn, p.light_dir, planes[0, y0:y1])
        _clamped_cosines(nx, ny, nz, nn, p.halfway, planes[1, y0:y1])
    return planes[0], planes[1]


def shade_image_tiled(img: RgbImage, p: PhongParams, tile: int) -> RgbImage:
    """Phong shading with normals interpolated from a tile-corner lattice.

    Exact normals are sampled every ``tile`` pixels (plus the far edge); each
    lattice cell is split into two triangles carrying affine interpolants in
    local coordinates, so lattice points reproduce the exact per-pixel
    normals. Every pixel's cosines equal ``tile_ndoth`` on its triangle's
    ``TileInterpolant`` to the bit, computed over whole rows, one band of
    rows at a time. Output uses the same composition as shade_image.
    """
    if tile < 2:
        raise ValueError("tile size must be at least 2")
    n_dot_l, n_dot_h = _tile_cosines(to_grayscale(img), tile, p)
    return _compose_shaded(img.pixels, n_dot_l, n_dot_h, p)
