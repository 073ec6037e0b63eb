import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import shadesearch
from shadesearch import evaluation
from shadesearch.evaluation import (
    QUERY_MODES,
    EvalResult,
    emit_report,
    generate_synthetic_corpus,
    make_eval_row,
    mean_scores,
    precision,
    recall,
    run_experiment,
)
from shadesearch.features import FEATURE_COUNT, ExtractionOptions, FeatureVector
from shadesearch.image import RgbImage, encode_ppm
from shadesearch.indexing import Index, build_index
from shadesearch.search import rank

# Published per-category relevant-retrieved counts at 12 retrieved out of
# 14 relevant, with the percentages as printed (rounding varies by row).
WITH_SHADING = {"1": (6, 50.0, 43.0), "2": (6, 50.0, 43.0), "3": (10, 83.0, 71.0),
                "4": (9, 75.0, 64.0), "5": (7, 58.0, 50.0)}
WITHOUT_SHADING = {"1": (4, 33.3, 28.57), "2": (1, 8.3, 7.1), "3": (9, 75.0, 64.5),
                   "4": (6, 50.0, 42.0), "5": (5, 41.0, 35.0)}


def constant_image(color, side=8) -> RgbImage:
    return RgbImage(np.full((side, side, 3), color, dtype=np.uint8))


def write_corpus(root, images: dict[str, RgbImage]) -> None:
    for rel, img in images.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(encode_ppm(img))


def brute_force_rows(index, k: int, query_mode: str) -> dict[str, tuple[int, int, int]]:
    """Independent evaluation: normalize by hand, sort all distances, count labels."""
    feats = {e.path: e.features for e in index.entries}
    cats = {e.path: e.category for e in index.entries}
    mins, maxs = index.normalizer.mins, index.normalizer.maxs

    def norm(v):
        return [
            (x - lo) / (hi - lo) if hi > lo else 0.0
            for x, lo, hi in zip(v, mins, maxs)
        ]

    paths = sorted(feats)
    by_cat: dict[str, list[str]] = {}
    for p in paths:
        by_cat.setdefault(cats[p], []).append(p)
    depth = min(k, len(paths) - 1)
    rows = {}
    for cat in sorted(by_cat):
        members = by_cat[cat]
        queries = members[:1] if query_mode == "per_category_first" else members
        rr = tot = rel = 0
        for q in queries:
            scored = sorted(
                (math.dist(norm(feats[q]), norm(feats[p])), p)
                for p in paths
                if p != q
            )
            top = scored[:depth]
            rr += sum(1 for _, p in top if cats[p] == cat)
            tot += len(top)
            rel += len(members) - 1
        rows[cat] = (rr, tot, rel)
    return rows


def rank_and_filter_result(index, k: int, query_mode: str) -> EvalResult:
    """Reference evaluation: rank the whole index per query, drop the query by path."""
    entries = index.entries
    retrieved_per_query = min(k, len(entries) - 1)
    by_category: dict[str, list] = {}
    for entry in entries:
        by_category.setdefault(entry.category, []).append(entry)
    rows = []
    for category in sorted(by_category):
        members = by_category[category]
        queries = members[:1] if query_mode == "per_category_first" else members
        relevant_total = retrieved_total = relevant_db_total = 0
        for query in queries:
            results = rank(FeatureVector(query.features), index, k=len(entries))
            results = [r for r in results if r.path != query.path][:retrieved_per_query]
            relevant_total += sum(1 for r in results if r.category == category)
            retrieved_total += len(results)
            relevant_db_total += len(members) - 1
        rows.append(make_eval_row(category, relevant_total, retrieved_total, relevant_db_total))
    mode = "shaded" if index.phong is not None else "unshaded"
    return EvalResult(k=k, mode=mode, rows=tuple(rows))


@st.composite
def evaluation_cases(draw):
    """An index whose categories all hold at least two images, with tied rows."""
    sizes = draw(st.lists(st.integers(2, 6), min_size=1, max_size=4))
    pool = draw(st.lists(
        st.lists(st.integers(0, 3).map(float), min_size=FEATURE_COUNT, max_size=FEATURE_COUNT),
        min_size=1, max_size=8,
    ))
    rows = {
        f"cat{c}/{i:02d}.ppm": tuple(draw(st.sampled_from(pool)))
        for c, size in enumerate(sizes) for i in range(size)
    }
    paths = sorted(rows)
    index = Index(phong=None, opts=ExtractionOptions(), paths=paths,
                  features=[rows[path] for path in paths])
    return index, draw(st.integers(1, len(paths) + 2))


class TestPrecisionRecall:
    def test_published_precision_values(self):
        assert precision(10, 12) == pytest.approx(0.8333, abs=5e-5)  # printed 83%
        assert precision(6, 12) == 0.5  # printed 50%
        assert precision(0, 12) == 0.0

    def test_published_recall_values(self):
        assert recall(10, 14) == pytest.approx(0.7143, abs=5e-5)  # printed 71%
        assert recall(14, 14) == 1.0
        assert recall(0, 14) == 0.0

    def test_zero_retrieved_undefined(self):
        with pytest.raises(ValueError, match="precision"):
            precision(0, 0)

    def test_zero_relevant_undefined(self):
        with pytest.raises(ValueError, match="recall"):
            recall(0, 0)

    def test_counts_out_of_range(self):
        with pytest.raises(ValueError):
            precision(13, 12)
        with pytest.raises(ValueError):
            recall(15, 14)


class TestEvalRow:
    def test_ratios_match_counts_exactly(self):
        row = make_eval_row("cat", 10, 12, 14)
        assert row.precision == row.relevant_retrieved / row.retrieved
        assert row.recall == row.relevant_retrieved / row.relevant_in_db

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(ValueError):
            make_eval_row("cat", 13, 12, 14)


class TestRunExperiment:
    def separable_corpus(self, tmp_path):
        colors = {"reds": (250, 10, 10), "greens": (10, 250, 10), "blues": (10, 10, 250)}
        images = {}
        for cat, color in colors.items():
            for i in range(4):
                # tiny per-image offset keeps features distinct within a category
                shade = tuple(max(0, c - 2 * i) for c in color)
                images[f"{cat}/{i:02d}.ppm"] = constant_image(shade)
        write_corpus(tmp_path, images)
        return build_index(tmp_path)

    def test_perfectly_separable_categories(self, tmp_path):
        index = self.separable_corpus(tmp_path)
        result = run_experiment(index, k=3, query_mode="all_queries_averaged")
        assert all(row.precision == 1.0 and row.recall == 1.0 for row in result.rows)

    def test_single_category_corpus(self, tmp_path):
        write_corpus(
            tmp_path,
            {f"only/{i}.ppm": constant_image((100 + i, 50, 50)) for i in range(5)},
        )
        index = build_index(tmp_path)
        result = run_experiment(index, k=4, query_mode="per_category_first")
        assert result.rows[0].precision == 1.0

    def test_matches_brute_force_with_collisions(self, tmp_path):
        images = {
            "alpha/a0.ppm": constant_image((200, 10, 10)),
            "alpha/a1.ppm": constant_image((200, 10, 10)),  # duplicate inside alpha
            "alpha/a2.ppm": constant_image((190, 10, 10)),
            "beta/b0.ppm": constant_image((10, 10, 200)),
            "beta/b1.ppm": constant_image((10, 10, 195)),
            "beta/b2.ppm": constant_image((10, 10, 190)),
            "gamma/g0.ppm": constant_image((200, 10, 10)),  # collides with alpha
            "gamma/g1.ppm": constant_image((10, 200, 10)),
            "gamma/g2.ppm": constant_image((10, 195, 10)),
        }
        write_corpus(tmp_path, images)
        index = build_index(tmp_path)
        for mode in ("per_category_first", "all_queries_averaged"):
            for k in (2, 4, 8):
                result = run_experiment(index, k=k, query_mode=mode)
                expected = brute_force_rows(index, k, mode)
                got = {
                    r.category: (r.relevant_retrieved, r.retrieved, r.relevant_in_db)
                    for r in result.rows
                }
                assert got == expected

    @given(evaluation_cases())
    def test_matches_rank_and_filter_reference_across_block_sizes(self, case):
        index, k = case
        per_query_bytes = index.normalized.nbytes
        for mode in QUERY_MODES:
            want = rank_and_filter_result(index, k, mode)
            assert run_experiment(index, k=k, query_mode=mode) == want
            # one query per block, then three with a partial last block
            for rows in (1, 3):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(evaluation, "_BLOCK_BYTES", rows * per_query_bytes)
                    assert run_experiment(index, k=k, query_mode=mode) == want

    def test_single_image_category_named_before_ranking(self, tmp_path, monkeypatch):
        images = {f"pair/{i}.ppm": constant_image((100 + i, 50, 50)) for i in range(2)}
        images["solo/0.ppm"] = constant_image((10, 10, 200))
        write_corpus(tmp_path, images)
        index = build_index(tmp_path)

        def no_ranking(*args):
            raise AssertionError("ranking started before the corpus was checked")

        monkeypatch.setattr(evaluation, "_relevant_retrieved", no_ranking)
        for mode in QUERY_MODES:
            with pytest.raises(ValueError,
                               match="category 'solo' has a single image; recall is undefined"):
                run_experiment(index, k=2, query_mode=mode)

    def test_mode_reflects_index_shading(self, tmp_path):
        index = self.separable_corpus(tmp_path)
        assert run_experiment(index, k=2).mode == "unshaded"

    def test_deterministic(self, tmp_path):
        index = self.separable_corpus(tmp_path)
        assert run_experiment(index, k=3) == run_experiment(index, k=3)

    def test_rejects_bad_k(self, tmp_path):
        index = self.separable_corpus(tmp_path)
        with pytest.raises(ValueError):
            run_experiment(index, k=0)

    def test_rejects_unknown_mode(self, tmp_path):
        index = self.separable_corpus(tmp_path)
        with pytest.raises(ValueError, match="query_mode"):
            run_experiment(index, k=2, query_mode="sideways")


def test_single_image_category_fails_eval_cli_cleanly(tmp_path):
    corpus = tmp_path / "corpus"
    generate_synthetic_corpus(corpus, seed=42)
    (corpus / "solo").mkdir()
    (corpus / "solo" / "00.ppm").write_bytes((corpus / "hue" / "00.ppm").read_bytes())
    env = dict(os.environ, PYTHONPATH=str(Path(shadesearch.__file__).resolve().parents[1]))

    def cli(*args):
        return subprocess.run([sys.executable, "-m", "shadesearch", *map(str, args)],
                              capture_output=True, text=True, env=env)

    assert cli("index", corpus, "--out", tmp_path / "s.json", "--phong").returncode == 0
    assert cli("index", corpus, "--out", tmp_path / "u.json").returncode == 0
    done = cli("eval", tmp_path / "s.json", tmp_path / "u.json",
               "--report-dir", tmp_path / "report")
    assert done.returncode == 1
    assert done.stderr == (
        "error: category 'solo' has a single image; recall is undefined\n"
    )
    assert done.stdout == ""
    assert not (tmp_path / "report").exists()


def test_mean_scores_average_rows_unweighted():
    result = EvalResult(k=12, mode="shaded", rows=(
        make_eval_row("a", 6, 12, 14), make_eval_row("b", 9, 12, 14)))
    assert mean_scores(result) == ((6 / 12 + 9 / 12) / 2, (6 / 14 + 9 / 14) / 2)


def table_results() -> tuple[EvalResult, EvalResult]:
    shaded = EvalResult(
        k=12, mode="shaded",
        rows=tuple(make_eval_row(cat, rr, 12, 14) for cat, (rr, _, _) in WITH_SHADING.items()),
    )
    unshaded = EvalResult(
        k=12, mode="unshaded",
        rows=tuple(make_eval_row(cat, rr, 12, 14) for cat, (rr, _, _) in WITHOUT_SHADING.items()),
    )
    return shaded, unshaded


class TestEmitReport:
    def test_csv_reproduces_percentages_to_one_decimal(self, tmp_path):
        shaded, unshaded = table_results()
        csv_path, html_path = emit_report(shaded, unshaded, tmp_path)
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        for row in rows:
            counts = WITH_SHADING if row["mode"] == "shaded" else WITHOUT_SHADING
            rr = counts[row["category"]][0]
            assert int(row["relevant_retrieved"]) == rr
            assert float(row["precision"]) == rr / 12
            assert float(row["recall"]) == rr / 14
            assert round(float(row["precision"]) * 100, 1) == round(rr / 12 * 100, 1)
        html = html_path.read_text()
        assert "83.3" in html and "8.3" in html  # rendered to one decimal

    def test_emitting_twice_is_byte_identical(self, tmp_path):
        shaded, unshaded = table_results()
        first = emit_report(shaded, unshaded, tmp_path / "one")
        second = emit_report(shaded, unshaded, tmp_path / "two")
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()

    def test_category_names_are_escaped_in_html_only(self, tmp_path):
        name = "a<b&c"
        shaded = EvalResult(k=12, mode="shaded", rows=(make_eval_row(name, 6, 12, 14),))
        unshaded = EvalResult(k=12, mode="unshaded", rows=(make_eval_row(name, 4, 12, 14),))
        csv_path, html_path = emit_report(shaded, unshaded, tmp_path)
        html = html_path.read_text()
        assert html.count("a&lt;b&amp;c") == 4  # two tables, two bar charts
        assert "<b&" not in html  # the raw name would open a <b> element
        with open(csv_path, newline="") as fh:
            assert {row["category"] for row in csv.DictReader(fh)} == {name}

    def test_mismatched_categories_rejected(self, tmp_path):
        shaded, unshaded = table_results()
        clipped = EvalResult(k=12, mode="unshaded", rows=unshaded.rows[:3])
        with pytest.raises(ValueError, match="categor"):
            emit_report(shaded, clipped, tmp_path)

    def test_empty_rows_rejected(self, tmp_path):
        shaded = EvalResult(k=12, mode="shaded", rows=())
        unshaded = EvalResult(k=12, mode="unshaded", rows=())
        with pytest.raises(ValueError):
            emit_report(shaded, unshaded, tmp_path)

    def test_swapped_arguments_rejected(self, tmp_path):
        shaded, unshaded = table_results()
        with pytest.raises(ValueError, match="shaded"):
            emit_report(unshaded, shaded, tmp_path)


def tree_bytes(root) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestSyntheticCorpus:
    def test_identical_seeds_are_byte_identical(self, tmp_path):
        generate_synthetic_corpus(tmp_path / "one", seed=7)
        generate_synthetic_corpus(tmp_path / "two", seed=7)
        assert tree_bytes(tmp_path / "one") == tree_bytes(tmp_path / "two")

    def test_structure(self, tmp_path):
        generate_synthetic_corpus(tmp_path / "c", seed=3)
        files = tree_bytes(tmp_path / "c")
        assert len(files) == 70
        categories = {path.split("/")[0] for path in files}
        assert len(categories) == 5
        for cat in categories:
            assert sum(1 for p in files if p.startswith(f"{cat}/")) == 14

    def test_distinct_seeds_differ(self, tmp_path):
        generate_synthetic_corpus(tmp_path / "one", seed=1)
        generate_synthetic_corpus(tmp_path / "two", seed=2)
        assert tree_bytes(tmp_path / "one") != tree_bytes(tmp_path / "two")
