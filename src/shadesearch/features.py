"""Color, texture, and edge statistics forming the 15-dimensional descriptor.

Slot order is fixed: per-channel mean/median/std for R, G, B (9 values from
the channel histograms), then entropy/contrast/energy/homogeneity of a
gray-level co-occurrence matrix, then vertical and horizontal edge densities
from Sobel responses. Border handling everywhere is edge replication.

One kernel, ``_describe``, computes the descriptor of every image in an
``(n, h, w, 3)`` uint8 stack of same-shape images at once and returns an
``(n, FEATURE_COUNT)`` matrix. ``extract_features`` runs it on a stack of
one. ``FeatureStacks`` fills one matrix from images added one at a time: it
keeps a pending stack per image shape and runs the kernel on a stack once its
images hold about ``_BAND_PIXELS`` cells, so small images share each numpy
call; ``build_index`` uses it. Every row equals, to the bit, what the
per-image functions below give for its image: ``channel_histogram``,
``channel_stats``, ``quantize_gray``, ``glcm``, ``texture_features``,
``sobel_gradients`` and ``edge_densities``. Those are the documented
reference the tests check the kernel against; production code does not
call them.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .image import GrayImage, RgbImage, edge_padded, luma
from .shading import _BAND_PIXELS, PhongParams, shade_image

FEATURE_NAMES = (
    "r_mean", "r_median", "r_std",
    "g_mean", "g_median", "g_std",
    "b_mean", "b_median", "b_std",
    "entropy", "contrast", "energy", "homogeneity",
    "v_edge_density", "h_edge_density",
)

FEATURE_COUNT = len(FEATURE_NAMES)

_CHANNEL_INDEX = {"r": 0, "g": 1, "b": 2}


class EmptyPairsError(ValueError):
    """The co-occurrence offset produced no valid pixel pairs."""


@dataclass(frozen=True, eq=False)
class ChannelHistogram:
    """256-bin count histogram of one channel."""

    counts: np.ndarray  # (256,) int64
    total: int


@dataclass(frozen=True, eq=False)
class Glcm:
    """Normalized gray-level co-occurrence matrix P(i, j)."""

    levels: int
    p: np.ndarray  # (levels, levels) float64, entries sum to 1


@dataclass(frozen=True, eq=False)
class GradientField:
    """Signed Sobel responses; |gx|, |gy| <= 1020 for 8-bit input."""

    gx: np.ndarray
    gy: np.ndarray

    @property
    def width(self) -> int:
        return self.gx.shape[1]

    @property
    def height(self) -> int:
        return self.gx.shape[0]


@dataclass(frozen=True)
class ExtractionOptions:
    """Knobs for the texture and edge features."""

    levels: int = 8
    offset: tuple[int, int] = (1, 0)  # (dx, dy) co-occurrence neighbor
    edge_threshold: float = 255.0  # on the raw Sobel response scale (max 1020)

    def __post_init__(self):
        try:
            levels = operator.index(self.levels)
        except TypeError:
            raise ValueError(f"levels must be an integer, got {self.levels!r}") from None
        if not 2 <= levels <= 256:
            raise ValueError("levels must be in [2, 256]")
        try:
            offset = tuple(operator.index(v) for v in self.offset)
        except TypeError:
            raise ValueError(f"offset must be a pair of integers (dx, dy), "
                             f"got {self.offset!r}") from None
        if len(offset) != 2:
            raise ValueError("offset must be (dx, dy)")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "offset", offset)
        if not 0 < self.edge_threshold < math.inf:
            raise ValueError(f"edge_threshold must be finite and > 0, "
                             f"got {self.edge_threshold!r}")


DEFAULT_EXTRACTION = ExtractionOptions()


@dataclass(frozen=True)
class FeatureVector:
    """The 15 descriptor values in FEATURE_NAMES order."""

    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        if len(values) != FEATURE_COUNT:
            raise ValueError(f"expected {FEATURE_COUNT} values, got {len(values)}")
        if not all(math.isfinite(v) for v in values):
            raise ValueError("feature values must be finite")
        object.__setattr__(self, "values", values)


def validate_feature_ranges(values, eps: float = 1e-9) -> None:
    """Check the per-slot value ranges; raises ValueError on violation."""
    fv = FeatureVector(tuple(values)).values
    for ci in range(3):
        mean, median, std = fv[3 * ci : 3 * ci + 3]
        name = "rgb"[ci]
        if not (-eps <= mean <= 255 + eps and -eps <= median <= 255 + eps):
            raise ValueError(f"{name} mean/median out of [0, 255]")
        if not (-eps <= std <= 127.5 + eps):
            raise ValueError(f"{name} std out of [0, 127.5]")
    entropy, contrast, energy, homogeneity = fv[9:13]
    if entropy < -eps or contrast < -eps:
        raise ValueError("entropy and contrast must be non-negative")
    if not (0.0 < energy <= 1.0 + eps):
        raise ValueError("energy out of (0, 1]")
    if not (0.0 < homogeneity <= 1.0 + eps):
        raise ValueError("homogeneity out of (0, 1]")
    for density in fv[13:]:
        if not (-eps <= density <= 1.0 + eps):
            raise ValueError("edge densities out of [0, 1]")


def channel_histogram(img: RgbImage, channel: str) -> ChannelHistogram:
    """Count histogram of the selected channel ('r', 'g', or 'b')."""
    try:
        ci = _CHANNEL_INDEX[channel.lower()]
    except (KeyError, AttributeError):
        raise ValueError(f"unknown channel {channel!r}, expected 'r', 'g' or 'b'") from None
    counts = np.bincount(img.pixels[..., ci].ravel(), minlength=256).astype(np.int64)
    return ChannelHistogram(counts=counts, total=int(counts.sum()))


def channel_stats(h: ChannelHistogram) -> tuple[float, float, float]:
    """(mean, lower median, population std) computed from the histogram."""
    if h.total < 1:
        raise ValueError("cannot compute statistics of an empty histogram")
    values = np.arange(256, dtype=np.float64)
    mean = float((values * h.counts).sum() / h.total)
    cumulative = np.cumsum(h.counts)
    median = float(np.argmax(cumulative >= math.ceil(h.total / 2)))
    std = float(math.sqrt(((values - mean) ** 2 * h.counts).sum() / h.total))
    return mean, median, std


def quantize_gray(gray: GrayImage, levels: int) -> np.ndarray:
    """Map intensities to level indices: floor(v * levels / 256)."""
    if not 2 <= levels <= 256:
        raise ValueError("levels must be in [2, 256]")
    return (gray.pixels.astype(np.int64) * levels) // 256


def glcm(gray: GrayImage, levels: int, offset: tuple[int, int]) -> Glcm:
    """Co-occurrence probabilities of quantized pixel/neighbor pairs.

    offset is (dx, dy): the neighbor of pixel (x, y) is (x + dx, y + dy).
    Raises EmptyPairsError if no in-bounds pair exists.
    """
    q = quantize_gray(gray, levels)
    a_window, b_window = _pair_windows(*q.shape, offset)
    a, b = q[a_window], q[b_window]
    counts = np.bincount((a * levels + b).ravel(), minlength=levels * levels)
    p = counts.reshape(levels, levels).astype(np.float64) / counts.sum()
    return Glcm(levels=levels, p=p)


def texture_features(g: Glcm) -> tuple[float, float, float, float]:
    """(entropy, contrast, energy, homogeneity) of the co-occurrence matrix.

    Entropy uses -sum P log2 P with 0 log 0 = 0, so it is non-negative.
    """
    p = g.p
    nonzero = p[p > 0]
    entropy = float(-(nonzero * np.log2(nonzero)).sum()) + 0.0  # avoid -0.0
    idx = np.arange(g.levels, dtype=np.float64)
    diff = idx[:, None] - idx[None, :]
    contrast = float((diff**2 * p).sum())
    energy = float((p**2).sum())
    homogeneity = float((p / (1.0 + np.abs(diff))).sum())
    return entropy, contrast, energy, homogeneity


def sobel_gradients(gray: GrayImage) -> GradientField:
    """Correlate the Sobel kernel pair with the image (edge replication).

    Gx responds to vertical edges and Gy to horizontal ones:

        Gx = [[-1, 0, 1],      Gy = [[ 1,  2,  1],
              [-2, 0, 2],            [ 0,  0,  0],
              [-1, 0, 1]]            [-1, -2, -1]]

    Each kernel is applied in its separable form: Gx smooths columns by
    [1, 2, 1] and then takes right minus left, Gy smooths rows by [1, 2, 1]
    and then takes top minus bottom. The arithmetic is int64, so it is exact.
    """
    padded = edge_padded(gray.pixels, np.int64)
    cols = padded[:-2] + padded[2:]
    cols += padded[1:-1]
    cols += padded[1:-1]  # [1, 2, 1] down each column, (h, w + 2)
    rows = padded[:, :-2] + padded[:, 2:]
    rows += padded[:, 1:-1]
    rows += padded[:, 1:-1]  # [1, 2, 1] along each row, (h + 2, w)
    return GradientField(gx=cols[:, 2:] - cols[:, :-2], gy=rows[:-2] - rows[2:])


def edge_densities(g: GradientField, threshold: float) -> tuple[float, float]:
    """Fractions of pixels whose |gx| (vertical) / |gy| (horizontal) exceed threshold."""
    if not 0 < threshold < math.inf:
        raise ValueError(f"threshold must be finite and > 0, got {threshold!r}")
    size = g.gx.size
    v_density = float((np.abs(g.gx) > threshold).sum() / size)
    h_density = float((np.abs(g.gy) > threshold).sum() / size)
    return v_density, h_density


def _pair_windows(height: int, width: int, offset: tuple[int, int]) -> tuple[tuple, tuple]:
    """Index tuples of the pixel and neighbour windows of the co-occurrence pairs
    over the last two axes; EmptyPairsError if no in-bounds pair exists."""
    dx, dy = int(offset[0]), int(offset[1])
    x0, x1 = max(0, -dx), width - max(0, dx)
    y0, y1 = max(0, -dy), height - max(0, dy)
    if x1 <= x0 or y1 <= y0:
        raise EmptyPairsError(
            f"offset ({dx}, {dy}) yields no pixel pairs on a {width}x{height} image"
        )
    return ((..., slice(y0, y1), slice(x0, x1)),
            (..., slice(y0 + dy, y1 + dy), slice(x0 + dx, x1 + dx)))


# Pending stacks of all shapes together hold at most this many cells (see
# _image_cells); past it, every pending stack is described early.
_PENDING_CELLS = 4 * _BAND_PIXELS


def _image_cells(height: int, width: int, opts: ExtractionOptions) -> int:
    """Elements in the largest per-image array the kernel makes: the pixels, the
    levels x levels co-occurrence cells, or the 256 bins of a channel histogram.
    Raises EmptyPairsError if opts pair no pixels in a height x width image."""
    _pair_windows(height, width, opts.offset)
    return max(height * width, opts.levels * opts.levels, 256)


_VALUES = np.arange(256, dtype=np.float64)


def _bincounts(codes: np.ndarray, bins: int) -> np.ndarray:
    # (n, bins) counts of each image's codes in [0, bins), codes shaped (n, ...).
    # One bincount: image i's codes are shifted by i * bins when n > 1. For
    # n == 1 a strided channel view reshapes without a copy, and bincount's
    # own cast to intp is the only pass over it.
    n = len(codes)
    if n > 1:
        codes = codes + (np.arange(n) * bins).reshape((n,) + (1,) * (codes.ndim - 1))
    return np.bincount(codes.reshape(-1), minlength=n * bins).reshape(n, bins)


def _colour_stats(stack: np.ndarray) -> np.ndarray:
    # channel_stats of each channel_histogram, as (n, 9): mean, median, std
    # of R, then of G, then of B.
    # Sums run along contiguous rows of 256, which numpy adds in the same
    # pairwise order as one histogram's sum, so every value keeps its bits.
    n = len(stack)
    pixels = stack.reshape(n, -1, 3)
    size = pixels.shape[1]
    counts = np.empty((n, 3, 256), dtype=np.intp)
    for c in range(3):
        counts[:, c] = _bincounts(pixels[..., c], 256)
    out = np.empty((n, 3, 3))
    mean = np.multiply(_VALUES, counts).sum(axis=-1) / size
    out[..., 0] = mean
    out[..., 1] = np.argmax(np.cumsum(counts, axis=-1) >= math.ceil(size / 2), axis=-1)
    dev = _VALUES - mean[..., None]
    dev *= dev
    dev *= counts
    out[..., 2] = np.sqrt(dev.sum(axis=-1) / size)
    return out.reshape(n, 9)


def _run_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    # Sums of consecutive runs of values, counts[i] of them in run i, each to
    # the bit of summing that run alone. numpy's pairwise order depends on the
    # summand count, so runs of one count are summed as the rows of a matrix.
    start = np.cumsum(counts) - counts
    sums = np.empty(len(counts))
    for k in np.flatnonzero(np.bincount(counts)):
        runs = np.flatnonzero(counts == k)
        sums[runs] = values[start[runs, None] + np.arange(k)].sum(axis=1)
    return sums


def _texture(gray: np.ndarray, levels: int, offset: tuple[int, int]) -> np.ndarray:
    # texture_features of each image's glcm, as (n, 4): entropy, contrast,
    # energy, homogeneity. Quantization is a 256-entry lookup of
    # quantize_gray's floor(v * levels / 256).
    a_window, b_window = _pair_windows(*gray.shape[1:], offset)
    level = np.arange(256) * levels // 256
    codes = (level * levels)[gray[a_window]]
    codes += level[gray[b_window]]
    p = _bincounts(codes, levels * levels).astype(np.float64)
    p /= codes[0].size
    idx = np.arange(levels, dtype=np.float64)
    diff = (idx[:, None] - idx[None, :]).ravel()
    nonzero = p > 0
    terms = p[nonzero]  # each image's non-zero cells in order, as texture_features sums them
    terms *= np.log2(terms)
    out = np.empty((len(p), 4))
    out[:, 0] = -_run_sums(terms, nonzero.sum(axis=1)) + 0.0  # avoid -0.0
    out[:, 1] = (diff**2 * p).sum(axis=1)
    out[:, 2] = (p**2).sum(axis=1)
    out[:, 3] = (p / (1.0 + np.abs(diff))).sum(axis=1)
    return out


def _edge_densities(gray: np.ndarray, threshold: float) -> np.ndarray:
    # edge_densities of each image's sobel_gradients, as (n, 2). A response
    # is an integer of magnitude at most 1020, so int16 holds it exactly, and
    # |g| > threshold is |g| > min(floor(threshold), 1020).
    padded = edge_padded(gray, np.int16)
    cols = padded[:, :-2] + padded[:, 2:]
    cols += padded[:, 1:-1]
    cols += padded[:, 1:-1]  # [1, 2, 1] down each column
    rows = padded[..., :-2] + padded[..., 2:]
    rows += padded[..., 1:-1]
    rows += padded[..., 1:-1]  # [1, 2, 1] along each row
    limit = min(math.floor(threshold), 1020)
    size = gray[0].size
    out = np.empty((len(gray), 2))
    for j, g in enumerate((cols[..., 2:] - cols[..., :-2], rows[:, :-2] - rows[:, 2:])):
        out[:, j] = (np.abs(g, out=g) > limit).sum(axis=(1, 2)) / size
    return out


def _describe(stack: np.ndarray, opts: ExtractionOptions) -> np.ndarray:
    """The (n, FEATURE_COUNT) descriptors of an (n, h, w, 3) uint8 stack of images.

    Row i equals the per-image functions' values for stack[i] to the bit.
    Raises EmptyPairsError if opts.offset pairs no pixels in an h x w image.
    """
    gray = luma(stack)
    out = np.empty((len(stack), FEATURE_COUNT))
    out[:, 9:13] = _texture(gray, opts.levels, opts.offset)  # first: it checks the offset
    out[:, :9] = _colour_stats(stack)
    out[:, 13:] = _edge_densities(gray, opts.edge_threshold)
    return out


def _pixels(img: RgbImage, phong: PhongParams | None) -> np.ndarray:
    # The pixels the descriptor is taken of: shaded first when phong is given.
    return (img if phong is None else shade_image(img, phong)).pixels


def extract_features(img: RgbImage, phong: PhongParams | None = None,
                     opts: ExtractionOptions = DEFAULT_EXTRACTION) -> FeatureVector:
    """Compute the full descriptor, optionally Phong-shading the image first.

    Color statistics come from the (possibly shaded) RGB image; texture and
    edge features from its grayscale conversion. The values are the stacked
    kernel's row for a stack of one image.
    """
    return FeatureVector(tuple(_describe(_pixels(img, phong)[None], opts)[0].tolist()))


class FeatureStacks:
    """An (count, FEATURE_COUNT) matrix filled from images added one at a time.

    ``add(row, img)`` makes row ``row`` equal ``extract_features(img, phong,
    opts)`` to the bit, by the time ``finish`` returns the matrix. Images wait
    in one pending stack per shape. A stack goes through the kernel once its
    images hold ``_BAND_PIXELS`` cells (``_image_cells`` each): 128 images at
    8 x 8 and 8 levels, 8 at 64 x 64, one from 32768 pixels or 182 levels up.
    When the pending stacks of all shapes hold more than ``_PENDING_CELLS``,
    all of them go through early, so a corpus of many shapes is never held
    whole.
    """

    def __init__(self, count: int, phong: PhongParams | None = None,
                 opts: ExtractionOptions = DEFAULT_EXTRACTION):
        self._matrix = np.empty((count, FEATURE_COUNT))
        self._phong = phong
        self._opts = opts
        self._pending = {}  # image shape -> (cells per image, rows waiting, their pixels)
        self._pending_cells = 0

    def add(self, row: int, img: RgbImage) -> None:
        """Queue img for row ``row``; raises what ``extract_features`` raises for it.

        EmptyPairsError is raised at the first image of a shape.
        """
        pixels = _pixels(img, self._phong)
        shape = pixels.shape
        if shape not in self._pending:
            self._pending[shape] = (_image_cells(*shape[:2], self._opts), [], [])
        cells, rows, images = self._pending[shape]
        rows.append(row)
        images.append(pixels)
        self._pending_cells += cells
        if len(rows) * cells >= _BAND_PIXELS:
            self._flush(shape)
        elif self._pending_cells > _PENDING_CELLS:
            self._flush_all()

    def finish(self) -> np.ndarray:
        """Describe every pending stack and return the matrix."""
        self._flush_all()
        return self._matrix

    def _flush(self, shape) -> None:
        cells, rows, images = self._pending.pop(shape)
        self._pending_cells -= cells * len(rows)
        self._matrix[rows] = _describe(np.stack(images), self._opts)

    def _flush_all(self) -> None:
        for shape in list(self._pending):
            self._flush(shape)
