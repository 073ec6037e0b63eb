#!/usr/bin/env python3
"""Sweep the retrieval depth k and print mean precision/recall per pipeline.

Useful for seeing the usual precision/recall trade-off on the synthetic
corpus: precision stays high at small k and recall climbs with k.

Usage:
    python scripts/sweep_retrieval_depth.py [--seed 42] [--kmax 20]
"""

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from shadesearch import (  # noqa: E402
    PhongParams,
    build_index,
    generate_synthetic_corpus,
    mean_scores,
    run_experiment,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--kmax", type=int, default=20)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus"
        generate_synthetic_corpus(corpus, seed=args.seed)
        shaded = build_index(corpus, phong=PhongParams())
        unshaded = build_index(corpus)
        print(f"{'k':>3}  {'shaded P':>9} {'shaded R':>9}  {'unshaded P':>11} {'unshaded R':>11}")
        for k in range(2, args.kmax + 1):
            line = [f"{k:>3}"]
            for index in (shaded, unshaded):
                result = run_experiment(index, k=k, query_mode="all_queries_averaged")
                mean_p, mean_r = mean_scores(result)
                line.append(f"{mean_p * 100:8.1f}% {mean_r * 100:8.1f}%")
            print("  ".join(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
