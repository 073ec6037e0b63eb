"""Color, texture, and edge statistics forming the 15-dimensional descriptor.

Slot order is fixed: per-channel mean/median/std for R, G, B (9 values from
the channel histograms), then entropy/contrast/energy/homogeneity of a
gray-level co-occurrence matrix, then vertical and horizontal edge densities
from Sobel responses. Border handling everywhere is edge replication.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .image import GrayImage, RgbImage, to_grayscale
from .shading import PhongParams, shade_image

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
    h, w = q.shape
    dx, dy = int(offset[0]), int(offset[1])
    x0, x1 = max(0, -dx), w - max(0, dx)
    y0, y1 = max(0, -dy), h - max(0, dy)
    if x1 <= x0 or y1 <= y0:
        raise EmptyPairsError(
            f"offset ({dx}, {dy}) yields no pixel pairs on a {w}x{h} image"
        )
    a = q[y0:y1, x0:x1]
    b = q[y0 + dy : y1 + dy, x0 + dx : x1 + dx]
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
    padded = np.pad(gray.pixels.astype(np.int64), 1, mode="edge")
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


def extract_features(img: RgbImage, phong: PhongParams | None = None,
                     opts: ExtractionOptions = DEFAULT_EXTRACTION) -> FeatureVector:
    """Compute the full descriptor, optionally Phong-shading the image first.

    Color statistics come from the (possibly shaded) RGB image; texture and
    edge features from its grayscale conversion.
    """
    if phong is not None:
        img = shade_image(img, phong)
    values: list[float] = []
    for channel in ("r", "g", "b"):
        values.extend(channel_stats(channel_histogram(img, channel)))
    gray = to_grayscale(img)
    values.extend(texture_features(glcm(gray, opts.levels, opts.offset)))
    values.extend(edge_densities(sobel_gradients(gray), opts.edge_threshold))
    return FeatureVector(tuple(values))
