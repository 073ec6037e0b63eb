"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion; each test also prints an explicit ``[acceptance] ... PASS`` line
on success (visible with ``-s`` or in captured output).
"""

import time

import numpy as np
import pytest

from shadesearch.evaluation import (
    emit_report,
    generate_synthetic_corpus,
    precision,
    recall,
    run_experiment,
)
from shadesearch.features import FeatureVector, Glcm, glcm, sobel_gradients, texture_features
from shadesearch.image import GrayImage, RgbImage
from shadesearch.indexing import (
    IndexFormatError,
    build_index,
    load_index,
    save_index,
)
from shadesearch.search import euclidean_distance, rank
from shadesearch.shading import (
    PhongParams,
    TileInterpolant,
    phong_intensity,
    shade_image,
    tile_ndoth,
)

from conftest import random_rgb
from test_evaluation import table_results
from test_features import glcm_stats_oracle, naive_glcm, naive_sobel

# Published percentages: (relevant retrieved, precision %, recall %) per
# category at 12 retrieved out of 14 relevant. Rounding varies by row, hence
# the +/- 1 percentage point tolerance below.
TABLE_WITH_SHADING = [(6, 50.0, 43.0), (6, 50.0, 43.0), (10, 83.0, 71.0),
                      (9, 75.0, 64.0), (7, 58.0, 50.0)]
TABLE_WITHOUT_SHADING = [(4, 33.3, 28.57), (1, 8.3, 7.1), (9, 75.0, 64.5),
                         (6, 50.0, 42.0), (5, 41.0, 35.0)]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Seed-42 synthetic corpus and both index flavors, with build timing."""
    root = tmp_path_factory.mktemp("acceptance")
    corpus = root / "corpus"
    generate_synthetic_corpus(corpus, seed=42)
    t0 = time.perf_counter()
    unshaded = build_index(corpus)
    shaded = build_index(corpus, phong=PhongParams())
    build_seconds = time.perf_counter() - t0
    return {
        "root": root,
        "corpus": corpus,
        "unshaded": unshaded,
        "shaded": shaded,
        "build_seconds": build_seconds,
    }


def _announce(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_table_arithmetic_reproduction():
    for table in (TABLE_WITH_SHADING, TABLE_WITHOUT_SHADING):
        for rr, printed_precision, printed_recall in table:
            assert abs(precision(rr, 12) * 100 - printed_precision) <= 1.0
            assert abs(recall(rr, 14) * 100 - printed_recall) <= 1.0
    _announce(1, "table arithmetic reproduction")


def test_criterion_2_formula_oracles():
    # Texture statistics on hand-built co-occurrence matrices.
    cases = []
    concentrated = np.zeros((4, 4))
    concentrated[2, 2] = 1.0
    cases.append(concentrated)
    diagonal = np.zeros((4, 4))
    np.fill_diagonal(diagonal, 0.25)
    cases.append(diagonal)
    off_diagonal = np.zeros((4, 4))
    off_diagonal[0, 1] = 1.0
    cases.append(off_diagonal)
    for p in cases:
        got = texture_features(Glcm(p.shape[0], p))
        expected = glcm_stats_oracle(p)
        for g, e in zip(got, expected):
            assert g == pytest.approx(e, abs=1e-12)

    # Sobel responses against the nested-loop oracle, exactly.
    rng = np.random.default_rng(2024)
    for _ in range(200):
        side_y = int(rng.integers(5, 10))
        side_x = int(rng.integers(5, 10))
        pixels = rng.integers(0, 256, size=(side_y, side_x), dtype=np.uint8)
        field = sobel_gradients(GrayImage(pixels))
        gx, gy = naive_sobel(pixels)
        assert np.array_equal(field.gx, gx) and np.array_equal(field.gy, gy)

    # Co-occurrence probabilities against brute-force pair counting, exactly.
    for _ in range(200):
        pixels = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
        got = glcm(GrayImage(pixels), 8, (1, 0))
        assert np.array_equal(got.p, naive_glcm(pixels, 8, (1, 0)))
    _announce(2, "formula oracles")


def test_criterion_3_phong_identities():
    rng = np.random.default_rng(99)

    # Ambient-only configuration reproduces the input byte for byte.
    identity = PhongParams(ka=1.0, ia=1.0, kd=0.0, ks=0.0)
    img = random_rgb(rng, 16, 12)
    assert shade_image(img, identity) == img

    # Constant input stays spatially constant.
    flat = RgbImage(np.full((9, 11, 3), (37, 180, 240), dtype=np.uint8))
    shaded = shade_image(flat, PhongParams())
    assert len(np.unique(shaded.pixels.reshape(-1, 3), axis=0)) == 1

    # Closed-form agreement on random parameter draws.
    for _ in range(1000):
        ka, kd, ks, ia, il = rng.uniform(0.0, 2.0, 5)
        ns = rng.uniform(1.0, 64.0)
        ndl, ndh = rng.uniform(0.0, 1.0, 2)
        p = PhongParams(ka=ka, kd=kd, ks=ks, ia=ia, il=il, ns=ns)
        expected = ka * ia + kd * il * ndl + ks * il * ndh**ns
        assert phong_intensity(ndl, ndh, p) == pytest.approx(expected, abs=1e-12)

    # Interpolated cosine against the normalize-then-dot oracle.
    checked = 0
    while checked < 1000:
        coeffs = rng.uniform(-1.0, 1.0, size=(6, 3))
        x, y = rng.uniform(-4.0, 4.0, 2)
        nvec = coeffs[0] * x + coeffs[1] * y + coeffs[2]
        hvec = coeffs[3] * x + coeffs[4] * y + coeffs[5]
        if np.linalg.norm(nvec) < 1e-6 or np.linalg.norm(hvec) < 1e-6:
            continue
        t = TileInterpolant(*(tuple(c) for c in coeffs))
        expected = float(
            np.dot(nvec / np.linalg.norm(nvec), hvec / np.linalg.norm(hvec))
        )
        assert tile_ndoth(t, x, y) == pytest.approx(expected, abs=1e-12)
        checked += 1
    _announce(3, "phong identities")


def test_criterion_4_metric_properties():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        a, b, c = rng.uniform(-50.0, 50.0, size=(3, 15))
        dab = euclidean_distance(a, b)
        assert dab >= 0.0
        assert dab == euclidean_distance(b, a)
        assert euclidean_distance(a, a) == 0.0
        slack = euclidean_distance(a, b) + euclidean_distance(b, c) - euclidean_distance(a, c)
        assert slack >= -1e-9
    _announce(4, "metric properties")


def test_criterion_5_end_to_end_retrieval(pipeline):
    assert pipeline["build_seconds"] < 10.0, "indexing 70 images must stay under 10 s"
    t0 = time.perf_counter()
    for index in (pipeline["shaded"], pipeline["unshaded"]):
        for mode in ("per_category_first", "all_queries_averaged"):
            result = run_experiment(index, k=12, query_mode=mode)
            mean_precision = sum(r.precision for r in result.rows) / len(result.rows)
            assert mean_precision >= 0.8, (
                f"{result.mode}/{mode}: mean precision {mean_precision:.3f} < 0.8"
            )
        # With self-exclusion disabled, every image is its own nearest hit.
        for entry in index.entries:
            top = rank(FeatureVector(entry.features), index, k=1)[0]
            assert top.path == entry.path
            assert top.distance < 1e-9
    assert time.perf_counter() - t0 < 30.0, "full evaluation must stay under 30 s"
    _announce(5, "end-to-end retrieval sanity")


def test_criterion_6_determinism(pipeline, tmp_path):
    # Two independent index runs over the same tree.
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_index(build_index(pipeline["corpus"]), first)
    save_index(build_index(pipeline["corpus"]), second)
    assert first.read_bytes() == second.read_bytes()

    # Two synthetic corpus runs with equal seeds.
    generate_synthetic_corpus(tmp_path / "one", seed=1234)
    generate_synthetic_corpus(tmp_path / "two", seed=1234)
    one = sorted((tmp_path / "one").rglob("*.ppm"))
    two = sorted((tmp_path / "two").rglob("*.ppm"))
    assert [p.relative_to(tmp_path / "one") for p in one] == [
        p.relative_to(tmp_path / "two") for p in two
    ]
    assert all(a.read_bytes() == b.read_bytes() for a, b in zip(one, two))

    # Report emission.
    shaded, unshaded = table_results()
    files_a = emit_report(shaded, unshaded, tmp_path / "ra")
    files_b = emit_report(shaded, unshaded, tmp_path / "rb")
    assert all(a.read_bytes() == b.read_bytes() for a, b in zip(files_a, files_b))
    _announce(6, "determinism")


def test_criterion_7_persistence(pipeline, tmp_path):
    index = pipeline["shaded"]
    path = tmp_path / "ix.json"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded == index  # exact, including full-precision floats

    import base64
    import json

    doc = json.loads(path.read_text())
    versioned = dict(doc, version=999)
    bad_version = tmp_path / "bad_version.json"
    bad_version.write_text(json.dumps(versioned))
    with pytest.raises(IndexFormatError, match="version"):
        load_index(bad_version)

    clipped = json.loads(path.read_text())
    block = base64.b64decode(clipped["features"])
    clipped["features"] = base64.b64encode(block[:-8]).decode("ascii")  # one value short
    bad_schema = tmp_path / "bad_schema.json"
    bad_schema.write_text(json.dumps(clipped))
    with pytest.raises(IndexFormatError, match="feature"):
        load_index(bad_schema)
    _announce(7, "persistence")


def test_criterion_8_shading_effect_smoke(pipeline):
    shaded_features = {e.path: e.features for e in pipeline["shaded"].entries}
    unshaded_features = {e.path: e.features for e in pipeline["unshaded"].entries}
    assert sorted(shaded_features) == sorted(unshaded_features)
    for path, unshaded in unshaded_features.items():
        # Every synthetic image has spatial variation, so shading must move
        # its descriptor.
        assert shaded_features[path] != unshaded, f"{path}: shading had no effect"
    _announce(8, "shading-effect smoke check")
