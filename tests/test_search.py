import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shadesearch.features import FEATURE_COUNT, ExtractionOptions, FeatureVector
from shadesearch.indexing import Index
from shadesearch.search import (
    Normalizer,
    euclidean_distance,
    fit_normalizer,
    normalize,
    rank,
)

coords = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
vectors_15 = st.lists(coords, min_size=15, max_size=15)


def small_index(feature_rows: dict[str, tuple]) -> Index:
    paths = sorted(feature_rows)
    return Index(
        phong=None,
        opts=ExtractionOptions(),
        paths=paths,
        features=[tuple(map(float, feature_rows[path])) for path in paths],
    )


def pad15(*values: float) -> tuple:
    return tuple(values) + (0.0,) * (FEATURE_COUNT - len(values))


def scalar_rank(query: FeatureVector, index: Index, k: int) -> list[tuple[str, float]]:
    """Reference ranking: normalize and measure each entry alone, sort by (distance, path)."""
    n = index.normalizer
    q = normalize(query, n)
    scored = sorted(
        (euclidean_distance(q, normalize(e.features, n)), e.path) for e in index.entries
    )
    return [(path, distance) for distance, path in scored[:k]]


# Coarse values make coincident coordinates (and so tied distances) common;
# rounding keeps every nonzero span above 1e-6, so no distance overflows.
slot_values = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False).map(lambda v: round(v, 6)),
)


@st.composite
def ranking_cases(draw):
    """An index with duplicate rows and constant dimensions, a query, and a depth k."""
    count = draw(st.integers(1, 25))
    pool = draw(st.lists(st.lists(slot_values, min_size=15, max_size=15),
                         min_size=1, max_size=count))
    rows = [list(draw(st.sampled_from(pool))) for _ in range(count)]
    for d in draw(st.sets(st.integers(0, FEATURE_COUNT - 1))):
        for row in rows:
            row[d] = rows[0][d]
    index = small_index({f"c{i % 3}/{i:02d}.ppm": tuple(row) for i, row in enumerate(rows)})
    # an indexed row, or slots that may fall far outside the corpus range
    query = draw(st.one_of(
        st.sampled_from(rows),
        st.lists(st.floats(-1e4, 1e4, allow_nan=False), min_size=15, max_size=15),
    ))
    return index, FeatureVector(tuple(query)), draw(st.integers(1, count + 5))


class TestEuclideanDistance:
    def test_identical_vectors(self):
        v = list(range(15))
        assert euclidean_distance(v, v) == 0.0

    def test_three_four_five(self):
        assert euclidean_distance((0, 0), (3, 4)) == 5.0

    def test_matches_term_by_term_oracle(self, rng):
        for _ in range(25):
            a = rng.uniform(-100, 100, 15)
            b = rng.uniform(-100, 100, 15)
            expected = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
            assert euclidean_distance(a, b) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            euclidean_distance([1, 2], [1, 2, 3])

    @given(vectors_15, vectors_15, vectors_15)
    def test_metric_axioms(self, a, b, c):
        dab = euclidean_distance(a, b)
        assert dab >= 0.0
        assert dab == euclidean_distance(b, a)
        assert euclidean_distance(a, a) == 0.0
        assert euclidean_distance(a, c) <= dab + euclidean_distance(b, c) + 1e-9


class TestNormalizer:
    def test_single_vector(self):
        v = FeatureVector(pad15(3.0, 5.0))
        n = fit_normalizer([v])
        assert n.mins == v.values and n.maxs == v.values

    def test_two_vectors(self):
        n = fit_normalizer([(0.0,) * 15, (10.0,) * 15])
        assert n.mins == (0.0,) * 15 and n.maxs == (10.0,) * 15

    def test_matches_scan_oracle(self, rng):
        rows = rng.uniform(-5, 5, size=(20, 15))
        n = fit_normalizer(rows)
        for d in range(15):
            column = [row[d] for row in rows]
            assert n.mins[d] == min(column) and n.maxs[d] == max(column)

    def test_matrix_equals_its_rows_as_tuples(self, rng):
        rows = rng.uniform(-5, 5, size=(20, 15)) * np.logspace(-300, 300, 15)
        rows[::2, 3], rows[1::2, 3] = 0.0, -0.0
        want = fit_normalizer([tuple(row) for row in rows.tolist()])
        for matrix in (rows, np.asfortranarray(rows)):
            got = fit_normalizer(matrix)
            assert (np.array(got.mins + got.maxs).tobytes()
                    == np.array(want.mins + want.maxs).tobytes())

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_normalizer([])

    def test_inverted_extrema_rejected(self):
        with pytest.raises(ValueError):
            Normalizer(mins=(1.0,), maxs=(0.0,))


class TestNormalize:
    def test_mins_map_to_zero(self):
        n = Normalizer(mins=(0.0, 2.0), maxs=(10.0, 4.0))
        assert normalize((0.0, 2.0), n).tolist() == [0.0, 0.0]

    def test_maxs_map_to_one(self):
        n = Normalizer(mins=(0.0, 2.0), maxs=(10.0, 4.0))
        assert normalize((10.0, 4.0), n).tolist() == [1.0, 1.0]

    def test_midpoint(self):
        n = Normalizer(mins=(0.0,), maxs=(10.0,))
        assert normalize((5.0,), n).tolist() == [0.5]

    def test_degenerate_dimension_maps_to_zero(self):
        n = Normalizer(mins=(7.0,), maxs=(7.0,))
        assert normalize((7.0,), n).tolist() == [0.0]
        assert normalize((9.0,), n).tolist() == [0.0]

    def test_out_of_range_values_not_clamped(self):
        n = Normalizer(mins=(0.0,), maxs=(10.0,))
        assert normalize((20.0,), n).tolist() == [2.0]
        assert normalize((-10.0,), n).tolist() == [-1.0]


class TestRank:
    def test_exact_match_ranks_first(self):
        index = small_index({
            "a/one.ppm": pad15(1.0, 1.0),
            "b/two.ppm": pad15(5.0, 2.0),
            "c/three.ppm": pad15(9.0, 8.0),
        })
        results = rank(FeatureVector(pad15(5.0, 2.0)), index, k=1)
        assert results[0].path == "b/two.ppm"
        assert results[0].distance == 0.0

    def test_k_larger_than_corpus(self):
        index = small_index({"a/x.ppm": pad15(0.0), "b/y.ppm": pad15(1.0)})
        results = rank(FeatureVector(pad15(0.5)), index, k=100)
        assert len(results) == 2

    def test_ties_break_lexicographically(self):
        index = small_index({
            "b/dup.ppm": pad15(3.0),
            "a/dup.ppm": pad15(3.0),
            "c/far.ppm": pad15(9.0),
        })
        results = rank(FeatureVector(pad15(3.0)), index, k=3)
        assert [r.path for r in results] == ["a/dup.ppm", "b/dup.ppm", "c/far.ppm"]

    def test_distances_non_decreasing_and_paths_complete(self, rng):
        rows = {f"cat/{i:02d}.ppm": tuple(rng.uniform(0, 9, 15)) for i in range(12)}
        index = small_index(rows)
        results = rank(FeatureVector(tuple(rng.uniform(0, 9, 15))), index, k=len(rows))
        distances = [r.distance for r in results]
        assert distances == sorted(distances)
        assert sorted(r.path for r in results) == sorted(rows)

    def test_order_invariant_under_joint_rescaling(self, rng):
        # Min-max scaling cancels a per-dimension affine map applied to the
        # corpus and query alike; powers of two keep the float math exact.
        rows = {f"cat/{i:02d}.ppm": tuple(rng.uniform(0, 9, 15)) for i in range(10)}
        query = tuple(rng.uniform(0, 9, 15))
        scales = 2.0 ** rng.integers(-3, 4, 15)
        scaled_rows = {
            path: tuple(v * s for v, s in zip(row, scales)) for path, row in rows.items()
        }
        scaled_query = tuple(v * s for v, s in zip(query, scales))
        base = rank(FeatureVector(query), small_index(rows), k=10)
        scaled = rank(FeatureVector(scaled_query), small_index(scaled_rows), k=10)
        assert [r.path for r in base] == [r.path for r in scaled]

    @given(ranking_cases())
    def test_matches_scalar_reference_to_the_bit(self, case):
        index, query, k = case
        got = [(r.path, r.distance) for r in rank(query, index, k=k)]
        assert got == scalar_rank(query, index, k)

    def test_normalized_matrix_is_cached_and_read_only(self):
        index = small_index({"a/x.ppm": pad15(0.0, 4.0), "b/y.ppm": pad15(2.0, 4.0)})
        matrix = index.normalized
        assert matrix is index.normalized
        assert matrix.shape == (2, FEATURE_COUNT) and matrix.flags.c_contiguous
        assert not matrix.flags.writeable
        for row, entry in zip(matrix, index.entries):
            assert np.array_equal(row, normalize(entry.features, index.normalizer))

    def test_rejects_bad_k(self):
        index = small_index({"a/x.ppm": pad15(0.0)})
        with pytest.raises(ValueError):
            rank(FeatureVector(pad15(0.0)), index, k=0)

    def test_rejects_empty_index(self):
        index = small_index({"a/x.ppm": pad15(0.0)})
        empty = Index(phong=None, opts=index.opts, paths=(),
                      features=np.empty((0, FEATURE_COUNT)))
        with pytest.raises(ValueError, match="empty"):
            rank(FeatureVector(pad15(0.0)), empty, k=1)
