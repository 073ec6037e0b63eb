#!/usr/bin/env python3
"""End-to-end retrieval experiment on the synthetic corpus.

Generates the corpus, builds shaded and unshaded feature databases, runs the
per-category precision/recall comparison, prints the numbers, and writes the
CSV/HTML report.

Usage:
    python scripts/run_retrieval_experiment.py [--seed 42] [--top 12] \
        [--query-mode all_queries_averaged] [--workdir experiment_out]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from shadesearch import (  # noqa: E402
    PhongParams,
    build_index,
    emit_report,
    generate_synthetic_corpus,
    mean_scores,
    run_experiment,
    save_index,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--top", type=int, default=12)
    parser.add_argument(
        "--query-mode", default="per_category_first",
        choices=("per_category_first", "all_queries_averaged"),
    )
    parser.add_argument("--workdir", type=Path, default=Path("experiment_out"))
    args = parser.parse_args()

    corpus = args.workdir / "corpus"
    t0 = time.perf_counter()
    generate_synthetic_corpus(corpus, seed=args.seed)
    print(f"corpus ready under {corpus} ({time.perf_counter() - t0:.2f}s)")

    indices = {}
    for mode, phong in (("shaded", PhongParams()), ("unshaded", None)):
        t0 = time.perf_counter()
        index = build_index(corpus, phong=phong)
        save_index(index, args.workdir / f"{mode}.json")
        indices[mode] = index
        print(f"{mode} index: {len(index.paths)} images ({time.perf_counter() - t0:.2f}s)")

    results = {
        mode: run_experiment(index, k=args.top, query_mode=args.query_mode)
        for mode, index in indices.items()
    }
    print(f"\nper-category results (top {args.top}, {args.query_mode}):")
    print(f"{'category':<12} {'shaded P/R':>16} {'unshaded P/R':>16}")
    for s_row, u_row in zip(results["shaded"].rows, results["unshaded"].rows):
        print(
            f"{s_row.category:<12} "
            f"{s_row.precision * 100:6.1f}%/{s_row.recall * 100:5.1f}% "
            f"{u_row.precision * 100:8.1f}%/{u_row.recall * 100:5.1f}%"
        )
    for mode, result in results.items():
        mean_p, mean_r = mean_scores(result)
        print(f"mean {mode}: precision {mean_p * 100:.1f}%, recall {mean_r * 100:.1f}%")

    written = emit_report(results["shaded"], results["unshaded"], args.workdir / "report")
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
