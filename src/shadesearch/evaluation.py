"""Retrieval experiment: per-category precision/recall, shaded vs unshaded.

Every indexed image can serve as a query; the query itself is excluded from
its own result list so a guaranteed self-hit never inflates precision. An
image is relevant to a query when both share a category. Two query modes:

* ``per_category_first`` - the lexicographically first image of each
  category is the single query (one selected input image per subject).
* ``all_queries_averaged`` - every image queries once; counts are summed per
  category, which equals averaging the per-query ratios because retrieved
  and relevant-in-db are constant within a category.

The module also ships a deterministic synthetic corpus generator (5
categories x 14 images, 64x64) so the whole experiment runs without any
external image collection.
"""

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._files import write_new_file
from .image import RgbImage, encode_ppm
from .indexing import Index

QUERY_MODES = ("per_category_first", "all_queries_averaged")

SYNTHETIC_CATEGORIES = ("checker", "gradient", "hue", "noise", "stripes")
IMAGES_PER_CATEGORY = 14
SYNTHETIC_SIDE = 64

# run_experiment computes query-vs-database distances a block of queries at a
# time. One query's differences take as many bytes as the normalized matrix;
# a block holds as many queries as fit in this budget, and at least one.
_BLOCK_BYTES = 2 << 20


def precision(relevant_retrieved: int, retrieved: int) -> float:
    """Relevant retrieved / total retrieved."""
    if retrieved < 1:
        raise ValueError("precision undefined: nothing was retrieved")
    if not 0 <= relevant_retrieved <= retrieved:
        raise ValueError("relevant_retrieved must lie in [0, retrieved]")
    return relevant_retrieved / retrieved

def recall(relevant_retrieved: int, relevant_in_db: int) -> float:
    """Relevant retrieved / relevant present in the database."""
    if relevant_in_db < 1:
        raise ValueError("recall undefined: no relevant images in the database")
    if not 0 <= relevant_retrieved <= relevant_in_db:
        raise ValueError("relevant_retrieved must lie in [0, relevant_in_db]")
    return relevant_retrieved / relevant_in_db


@dataclass(frozen=True)
class EvalRow:
    category: str
    relevant_retrieved: int
    retrieved: int
    relevant_in_db: int
    precision: float
    recall: float


def make_eval_row(category: str, relevant_retrieved: int, retrieved: int,
                  relevant_in_db: int) -> EvalRow:
    return EvalRow(
        category=category,
        relevant_retrieved=relevant_retrieved,
        retrieved=retrieved,
        relevant_in_db=relevant_in_db,
        precision=precision(relevant_retrieved, retrieved),
        recall=recall(relevant_retrieved, relevant_in_db),
    )


@dataclass(frozen=True)
class EvalResult:
    k: int
    mode: str  # "shaded" or "unshaded"
    rows: tuple[EvalRow, ...]


def _relevant_retrieved(matrix: np.ndarray, codes: np.ndarray, queries: np.ndarray,
                        depth: int) -> np.ndarray:
    """Same-category hits among each query's ``depth`` nearest other entries.

    Distances use the subtract-square-sum order of ``rank``, so they match it
    to the bit; a stable sort keeps ties in entry (path) order. Each query's
    own column is set to inf, which excludes it by position.
    """
    rows = max(1, _BLOCK_BYTES // matrix.nbytes)
    hits = np.empty(len(queries), dtype=np.int64)
    for lo in range(0, len(queries), rows):
        block = queries[lo:lo + rows]
        diff = matrix[block, None, :] - matrix[None, :, :]
        dist = np.sqrt(np.square(diff, out=diff).sum(axis=-1))
        dist[np.arange(len(block)), block] = np.inf
        nearest = np.argsort(dist, axis=1, kind="stable")[:, :depth]
        hits[lo:lo + rows] = (codes[nearest] == codes[block, None]).sum(axis=1)
    return hits


def run_experiment(index: Index, k: int,
                   query_mode: str = "per_category_first") -> EvalResult:
    """Per-category precision/recall at depth k with self-exclusion.

    Every query is ranked exactly against the whole index, as ``rank`` would
    rank it, from blocked all-pairs distances over the index's normalized
    matrix. The result's mode is "shaded" when the index was built with
    shading parameters, "unshaded" otherwise. A category with a single image
    is rejected up front, since its recall has no relevant images to count.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if query_mode not in QUERY_MODES:
        raise ValueError(f"unknown query_mode {query_mode!r}, expected one of {QUERY_MODES}")
    retrieved_per_query = min(k, len(index.paths) - 1)
    if retrieved_per_query < 1:
        raise ValueError("corpus too small: nothing to retrieve once the query is excluded")
    categories = sorted(set(index.categories))
    code_of = {category: code for code, category in enumerate(categories)}
    codes = np.array([code_of[category] for category in index.categories])
    members = np.bincount(codes)
    for category, count in zip(categories, members):
        if count == 1:
            raise ValueError(f"category {category!r} has a single image; recall is undefined")

    if query_mode == "per_category_first":  # the index's paths are sorted
        queries = np.unique(codes, return_index=True)[1]
    else:
        queries = np.arange(len(codes))
    hits = _relevant_retrieved(index.normalized, codes, queries, retrieved_per_query)
    relevant = np.zeros(len(categories), dtype=np.int64)
    np.add.at(relevant, codes[queries], hits)
    asked = np.bincount(codes[queries], minlength=len(categories))

    rows = tuple(
        make_eval_row(category, int(relevant[c]), int(asked[c]) * retrieved_per_query,
                      int(asked[c]) * (int(members[c]) - 1))
        for c, category in enumerate(categories)
    )
    mode = "shaded" if index.phong is not None else "unshaded"
    return EvalResult(k=k, mode=mode, rows=rows)


def mean_scores(result: EvalResult) -> tuple[float, float]:
    """Unweighted mean precision and recall over the result's categories."""
    rows = result.rows
    return (sum(r.precision for r in rows) / len(rows),
            sum(r.recall for r in rows) / len(rows))


def _pct(ratio: float) -> str:
    return f"{ratio * 100:.1f}"


def _escape(text: str) -> str:
    # Imported on first use: importing html loads its entity table, about
    # 0.5 MB of resident memory for every process that imports this module.
    from html import escape

    return escape(text)


def _html_table(result: EvalResult, title: str) -> str:
    lines = [
        '<table class="scores">',
        f"<caption>{title} (top {result.k})</caption>",
        "<tr><th>category</th><th>relevant retrieved</th>"
        "<th>precision (%)</th><th>recall (%)</th></tr>",
    ]
    for row in result.rows:
        lines.append(
            f"<tr><td>{_escape(row.category)}</td><td>{row.relevant_retrieved}</td>"
            f"<td>{_pct(row.precision)}</td><td>{_pct(row.recall)}</td></tr>"
        )
    lines.append("</table>")
    return "\n".join(lines)


def _html_bars(shaded: EvalResult, unshaded: EvalResult, metric: str) -> str:
    lines = [f"<h2>{metric} by category</h2>"]
    for s_row, u_row in zip(shaded.rows, unshaded.rows):
        s_val = getattr(s_row, metric)
        u_val = getattr(u_row, metric)
        lines.append(f'<div class="group"><div class="label">{_escape(s_row.category)}</div>')
        for cls, val in (("shaded", s_val), ("unshaded", u_val)):
            lines.append(
                f'<div class="bar {cls}" style="width:{val * 100:.1f}%">'
                f"{cls} {_pct(val)}%</div>"
            )
        lines.append("</div>")
    return "\n".join(lines)


_HTML_STYLE = """\
body { font-family: sans-serif; margin: 2em; }
.tables { display: flex; gap: 3em; }
table.scores { border-collapse: collapse; }
table.scores td, table.scores th { border: 1px solid #999; padding: 0.3em 0.8em; }
table.scores caption { font-weight: bold; margin-bottom: 0.5em; }
.group { margin-bottom: 1em; }
.label { font-weight: bold; }
.bar { color: white; padding: 0.15em 0.4em; margin: 2px 0; white-space: nowrap; }
.bar.shaded { background: #2a6f4e; }
.bar.unshaded { background: #888; }
"""


def emit_report(shaded: EvalResult, unshaded: EvalResult, out_dir) -> list[Path]:
    """Write report.csv and report.html comparing the two runs.

    The CSV stores full-precision ratios; the HTML renders percentages to
    one decimal place. Output bytes are a pure function of the inputs. Each
    file is written as a new file that replaces whatever was at its path; a
    symlink there is replaced, not followed.
    """
    if shaded.mode != "shaded" or unshaded.mode != "unshaded":
        raise ValueError("emit_report expects a shaded result then an unshaded result")
    if shaded.k != unshaded.k:
        raise ValueError("results were produced at different retrieval depths")
    categories = [row.category for row in shaded.rows]
    if categories != [row.category for row in unshaded.rows]:
        raise ValueError("results cover different category sets")
    if not categories:
        raise ValueError("nothing to report: no categories")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["category", "mode", "relevant_retrieved", "retrieved", "relevant_in_db",
         "precision", "recall"]
    )
    all_rows = [(r.category, result.mode, r) for result in (shaded, unshaded) for r in result.rows]
    for category, mode, row in sorted(all_rows, key=lambda item: (item[0], item[1])):
        writer.writerow(
            [category, mode, row.relevant_retrieved, row.retrieved,
             row.relevant_in_db, repr(row.precision), repr(row.recall)]
        )
    csv_path = out_dir / "report.csv"
    write_new_file(csv_path, buf.getvalue().encode("utf-8"))

    html = "\n".join(
        [
            "<!DOCTYPE html>",
            '<html><head><meta charset="utf-8">',
            "<title>Retrieval comparison</title>",
            f"<style>{_HTML_STYLE}</style></head><body>",
            "<h1>Retrieval precision and recall, shaded vs unshaded</h1>",
            '<div class="tables">',
            _html_table(shaded, "With Phong shading"),
            _html_table(unshaded, "Without Phong shading"),
            "</div>",
            _html_bars(shaded, unshaded, "precision"),
            _html_bars(shaded, unshaded, "recall"),
            "</body></html>",
            "",
        ]
    )
    html_path = out_dir / "report.html"
    write_new_file(html_path, html.encode("utf-8"))
    return [csv_path, html_path]


def _render_checker(rng: np.random.Generator) -> np.ndarray:
    scale = int(rng.integers(6, 11))
    dark = rng.integers((0, 70, 0), (31, 101, 31))
    light = rng.integers((170, 225, 170), (201, 256, 201))
    yy, xx = np.mgrid[0:SYNTHETIC_SIDE, 0:SYNTHETIC_SIDE]
    mask = ((xx // scale + yy // scale) % 2).astype(bool)
    return np.where(mask[..., None], light, dark)


def _render_gradient(rng: np.random.Generator) -> np.ndarray:
    angle = rng.uniform(0.0, 2.0 * math.pi)
    c0 = rng.integers((0, 0, 150), (41, 41, 221)).astype(np.float64)
    c1 = rng.integers((200, 200, 200), (256, 256, 256)).astype(np.float64)
    yy, xx = np.mgrid[0:SYNTHETIC_SIDE, 0:SYNTHETIC_SIDE]
    proj = xx * math.cos(angle) + yy * math.sin(angle)
    t = (proj - proj.min()) / (proj.max() - proj.min())
    return np.floor(c0 + t[..., None] * (c1 - c0) + 0.5).astype(np.int64)


def _render_hue(rng: np.random.Generator) -> np.ndarray:
    base = rng.integers((190, 20, 20), (241, 61, 61))
    noise = rng.integers(-12, 13, size=(SYNTHETIC_SIDE, SYNTHETIC_SIDE, 3))
    return np.clip(base + noise, 0, 255)


def _render_noise(rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 256, size=(SYNTHETIC_SIDE, SYNTHETIC_SIDE, 3))


def _render_stripes(rng: np.random.Generator) -> np.ndarray:
    period = int(rng.integers(4, 9))
    phase = int(rng.integers(0, period))
    bright = rng.integers((230, 210, 0), (256, 241, 26))
    dim = rng.integers((40, 0, 130), (71, 26, 161))
    rows = np.arange(SYNTHETIC_SIDE)
    mask = (((rows + phase) // period) % 2).astype(bool)
    row_colors = np.where(mask[:, None], bright, dim)
    return np.broadcast_to(row_colors[:, None, :], (SYNTHETIC_SIDE, SYNTHETIC_SIDE, 3)).copy()


_RENDERERS = {
    "checker": _render_checker,
    "gradient": _render_gradient,
    "hue": _render_hue,
    "noise": _render_noise,
    "stripes": _render_stripes,
}


def generate_synthetic_corpus(out_dir, seed: int) -> Path:
    """Materialize the 5x14 synthetic corpus as <out_dir>/<category>/<nn>.ppm.

    Each category has a distinct procedural recipe (checker scale, gradient
    direction, dominant hue, full-range noise, stripe frequency); per-image
    jitter is drawn from numpy's PCG64 generator seeded with ``seed``, so an
    identical seed reproduces a byte-identical tree. Images already in the
    tree are replaced by new files.
    """
    rng = np.random.default_rng(seed)
    out = Path(out_dir)
    for category in SYNTHETIC_CATEGORIES:
        directory = out / category
        directory.mkdir(parents=True, exist_ok=True)
        for i in range(IMAGES_PER_CATEGORY):
            pixels = _RENDERERS[category](rng).astype(np.uint8)
            write_new_file(directory / f"{i:02d}.ppm", encode_ppm(RgbImage(pixels)))
    return out
