"""Command-line entry point.

Subcommands wire the library into the full workflow: ``synth`` materializes
the synthetic corpus, ``index`` builds a feature database (optionally with
Phong shading), ``query`` ranks an image against a database, ``eval``
compares a shaded and an unshaded database, and ``shade`` writes a shaded
copy of one image. Diagnostics go to stderr; data to stdout or files.
"""

import argparse
import csv
import sys

from .evaluation import emit_report, generate_synthetic_corpus, run_experiment
from .features import ExtractionOptions, extract_features
from .image import read_ppm, write_ppm
from .indexing import build_index, load_index, save_index
from .search import rank
from .shading import PhongParams, shade_image, shade_image_tiled

_DEFAULTS = PhongParams()
_OPT_DEFAULTS = ExtractionOptions()
DEFAULT_TOP = 12
DEFAULT_SEED = 42


def _int_at_least(lo: int):
    """An argparse type for an integer of at least lo, so a bad value names its flag."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}")
        return value

    return parse


def _add_phong_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ka", type=float, default=_DEFAULTS.ka, help="ambient reflectance")
    parser.add_argument("--kd", type=float, default=_DEFAULTS.kd, help="diffuse reflectance")
    parser.add_argument("--ks", type=float, default=_DEFAULTS.ks, help="specular reflectance")
    parser.add_argument("--ia", type=float, default=_DEFAULTS.ia, help="ambient light intensity")
    parser.add_argument("--il", type=float, default=_DEFAULTS.il, help="source light intensity")
    parser.add_argument("--ns", type=float, default=_DEFAULTS.ns, help="glossiness exponent")
    parser.add_argument(
        "--height-scale", type=float, default=_DEFAULTS.height_scale,
        help="intensity-to-elevation scale for the normal field",
    )


def _phong_from_args(args: argparse.Namespace) -> PhongParams:
    return PhongParams(
        ka=args.ka, kd=args.kd, ks=args.ks, ia=args.ia, il=args.il, ns=args.ns,
        height_scale=args.height_scale,
    )


def _add_extraction_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--levels", type=int, default=_OPT_DEFAULTS.levels,
        help="gray quantization levels for the co-occurrence matrix",
    )
    parser.add_argument(
        "--offset-dx", type=int, default=_OPT_DEFAULTS.offset[0],
        help="co-occurrence neighbor offset along x",
    )
    parser.add_argument(
        "--offset-dy", type=int, default=_OPT_DEFAULTS.offset[1],
        help="co-occurrence neighbor offset along y",
    )
    parser.add_argument(
        "--edge-threshold", type=float, default=_OPT_DEFAULTS.edge_threshold,
        help="Sobel response magnitude above which a pixel counts as an edge",
    )


def _cmd_index(args: argparse.Namespace) -> int:
    phong = _phong_from_args(args) if args.phong else None
    opts = ExtractionOptions(
        levels=args.levels,
        offset=(args.offset_dx, args.offset_dy),
        edge_threshold=args.edge_threshold,
    )
    index = build_index(args.root, phong=phong, opts=opts)
    save_index(index, args.out)
    mode = "shaded" if phong is not None else "unshaded"
    print(f"indexed {len(index.paths)} images ({mode}) -> {args.out}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    index = load_index(args.index)
    try:
        query = extract_features(read_ppm(args.image), phong=index.phong, opts=index.opts)
    except ValueError as exc:  # name the image, as build_index does; keep the class
        raise type(exc)(f"{args.image}: {exc}") from exc
    results = rank(query, index, k=args.top)
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["rank", "path", "category", "distance"])
        for pos, r in enumerate(results, start=1):
            writer.writerow([pos, r.path, r.category, f"{r.distance:.6f}"])
    elif args.format == "plain":
        for pos, r in enumerate(results, start=1):
            print(f"{pos}\t{r.path}\t{r.category}\t{r.distance:.6f}")
    else:
        path_width = max(len("path"), max(len(r.path) for r in results))
        cat_width = max(len("category"), max(len(r.category) for r in results))
        print(f"{'rank':>4}  {'path':<{path_width}}  {'category':<{cat_width}}  distance")
        for pos, r in enumerate(results, start=1):
            print(f"{pos:>4}  {r.path:<{path_width}}  {r.category:<{cat_width}}  {r.distance:.6f}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    shaded_index = load_index(args.shaded_index)
    unshaded_index = load_index(args.unshaded_index)
    if shaded_index.phong is None:
        raise ValueError(f"{args.shaded_index} was built without shading")
    if unshaded_index.phong is not None:
        raise ValueError(f"{args.unshaded_index} was built with shading")
    if shaded_index.paths != unshaded_index.paths:
        raise ValueError("indices cover different corpora; rebuild them over the same tree")
    shaded = run_experiment(shaded_index, k=args.top, query_mode=args.query_mode)
    unshaded = run_experiment(unshaded_index, k=args.top, query_mode=args.query_mode)
    written = emit_report(shaded, unshaded, args.report_dir)
    for result in (shaded, unshaded):
        for row in result.rows:
            print(
                f"{result.mode:<8}  {row.category:<12}  "
                f"precision {row.precision * 100:5.1f}%  recall {row.recall * 100:5.1f}%"
            )
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_shade(args: argparse.Namespace) -> int:
    img = read_ppm(args.image)
    phong = _phong_from_args(args)
    if args.tiled is not None:
        shaded = shade_image_tiled(img, phong, tile=args.tiled)
    else:
        shaded = shade_image(img, phong)
    write_ppm(args.out, shaded)
    print(f"wrote {args.out}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    out = generate_synthetic_corpus(args.out_dir, seed=args.seed)
    print(f"wrote synthetic corpus (5 categories x 14 images) under {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadesearch",
        description="Content-based image retrieval with an optional Phong-shading pass.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build and persist a feature database")
    p_index.add_argument("root", help="corpus root (category = top-level directory)")
    p_index.add_argument("--out", required=True, help="output index file")
    p_index.add_argument("--phong", action="store_true", help="shade images before extraction")
    _add_phong_flags(p_index)
    _add_extraction_flags(p_index)
    p_index.set_defaults(func=_cmd_index)

    p_query = sub.add_parser("query", help="rank indexed images against a query image")
    p_query.add_argument("index", help="index file from the index subcommand")
    p_query.add_argument("image", help="query image (PPM)")
    p_query.add_argument(
        "--top", type=_int_at_least(1), default=DEFAULT_TOP, help="results to return"
    )
    p_query.add_argument(
        "--format", choices=("table", "csv", "plain"), default="table",
        help="output format",
    )
    p_query.set_defaults(func=_cmd_query)

    p_eval = sub.add_parser("eval", help="compare shaded vs unshaded retrieval quality")
    p_eval.add_argument("shaded_index", help="index built with --phong")
    p_eval.add_argument("unshaded_index", help="index built without --phong")
    p_eval.add_argument("--top", type=_int_at_least(1), default=DEFAULT_TOP,
                        help="retrieval depth")
    p_eval.add_argument(
        "--query-mode", choices=("per_category_first", "all_queries_averaged"),
        default="per_category_first", help="which images act as queries",
    )
    p_eval.add_argument("--report-dir", default="report", help="where to write the report files")
    p_eval.set_defaults(func=_cmd_eval)

    p_shade = sub.add_parser("shade", help="write a Phong-shaded copy of an image")
    p_shade.add_argument("image", help="input image (PPM)")
    p_shade.add_argument("--out", required=True, help="output image (PPM)")
    p_shade.add_argument(
        "--tiled", type=_int_at_least(2), default=None, metavar="TILE",
        help="use tile-interpolated normals with this lattice spacing (>= 2)",
    )
    _add_phong_flags(p_shade)
    p_shade.set_defaults(func=_cmd_shade)

    p_synth = sub.add_parser("synth", help="generate the deterministic synthetic corpus")
    p_synth.add_argument("out_dir", help="directory to create the corpus in")
    p_synth.add_argument("--seed", type=_int_at_least(0), default=DEFAULT_SEED,
                         help="generator seed")
    p_synth.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
