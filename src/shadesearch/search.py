"""Feature normalization and Euclidean ranking against an index.

Raw descriptor slots live on wildly different scales (0-255 channel means vs
0-1 densities), so each dimension is min-max scaled to the indexed corpus
range before distances are taken. Degenerate (constant) dimensions map to 0;
query values outside the corpus range are deliberately not clamped.
"""

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .features import FeatureVector

if TYPE_CHECKING:  # pragma: no cover
    from .indexing import Index


@dataclass(frozen=True)
class Normalizer:
    """Per-dimension corpus extrema used for min-max scaling."""

    mins: tuple[float, ...]
    maxs: tuple[float, ...]

    def __post_init__(self):
        mins = tuple(float(v) for v in self.mins)
        maxs = tuple(float(v) for v in self.maxs)
        if len(mins) != len(maxs):
            raise ValueError("mins and maxs must have equal length")
        if any(lo > hi for lo, hi in zip(mins, maxs)):
            raise ValueError("every min must be <= the corresponding max")
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)


@dataclass(frozen=True)
class RankedResult:
    path: str
    category: str
    distance: float


def _values(v) -> np.ndarray:
    if isinstance(v, FeatureVector):
        v = v.values
    return np.asarray(v, dtype=np.float64)


def euclidean_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """sqrt(sum_d (a_d - b_d)^2); raises ValueError on length mismatch."""
    av, bv = _values(a), _values(b)
    if av.ndim != 1 or av.shape != bv.shape:
        raise ValueError(f"dimension mismatch: {av.shape} vs {bv.shape}")
    return float(np.sqrt(((av - bv) ** 2).sum()))


def fit_normalizer(raw_vectors: np.ndarray | Iterable) -> Normalizer:
    """Per-dimension min and max over an (N, d) matrix or an iterable of feature vectors."""
    if not isinstance(raw_vectors, np.ndarray):
        raw_vectors = [_values(v) for v in raw_vectors]
    matrix = np.asarray(raw_vectors, dtype=np.float64)
    if matrix.size == 0:
        raise ValueError("cannot fit a normalizer on an empty corpus")
    return Normalizer(mins=tuple(matrix.min(axis=0)), maxs=tuple(matrix.max(axis=0)))


def normalize_rows(values: np.ndarray, n: Normalizer) -> np.ndarray:
    """Min-max scale the last axis of values; constant dimensions map to 0, no clamping.

    Elementwise, so scaling an (N, d) matrix at once gives every row the
    same bits as scaling it alone with ``normalize``.
    """
    mins = np.asarray(n.mins)
    maxs = np.asarray(n.maxs)
    span = maxs - mins
    safe = np.where(span > 0, span, 1.0)
    return np.where(span > 0, (values - mins) / safe, 0.0)


def normalize(v, n: Normalizer) -> np.ndarray:
    """Min-max scale one vector; constant dimensions map to 0, no clamping."""
    values = _values(v)
    if values.shape != (len(n.mins),):
        raise ValueError(f"dimension mismatch: {values.shape} vs {(len(n.mins),)}")
    return normalize_rows(values, n)


def rank(query: FeatureVector, index: "Index", k: int) -> list[RankedResult]:
    """Top-k index entries by Euclidean distance to the normalized query.

    Exact brute force over the index's cached normalized matrix: one
    subtract-square-sum per entry, in the same order as
    ``euclidean_distance``, so distances match it to the bit. Ties are broken
    by path, which relies on the entries being sorted by path: a stable sort
    keeps equal distances in entry order. ``build_index`` sorts them and
    ``load_index`` rejects an unsorted index. Returns min(k, corpus size)
    results sorted by (distance, path).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not index.paths:
        raise ValueError("cannot rank against an empty index")
    q = normalize(query, index.normalizer)
    dist = np.sqrt(((index.normalized - q) ** 2).sum(axis=-1))
    # Each result's category is its path's first component, as in
    # index.categories; deriving only these k leaves the other N unbuilt.
    paths = index.paths
    return [
        RankedResult(paths[i], paths[i].partition("/")[0], float(dist[i]))
        for i in np.argsort(dist, kind="stable")[:k]
    ]
