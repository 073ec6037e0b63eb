"""Content-based image retrieval with an optional Phong-shading pass."""

from .evaluation import (
    EvalResult,
    EvalRow,
    emit_report,
    generate_synthetic_corpus,
    make_eval_row,
    mean_scores,
    precision,
    recall,
    run_experiment,
)
from .features import (
    FEATURE_NAMES,
    ExtractionOptions,
    FeatureVector,
    extract_features,
)
from .image import (
    GrayImage,
    PpmDecodeError,
    RgbImage,
    decode_ppm,
    encode_ppm,
    read_ppm,
    to_grayscale,
    write_ppm,
)
from .indexing import (
    EmptyCorpusError,
    Index,
    IndexEntry,
    IndexFormatError,
    build_index,
    load_index,
    save_index,
    scan_corpus,
)
from .search import (
    Normalizer,
    RankedResult,
    euclidean_distance,
    fit_normalizer,
    normalize,
    rank,
)
from .shading import (
    NormalField,
    PhongParams,
    TileInterpolant,
    height_field_normals,
    phong_intensity,
    shade_image,
    shade_image_tiled,
    tile_ndoth,
)

__version__ = "0.1.0"

__all__ = [
    "EvalResult", "EvalRow", "emit_report", "generate_synthetic_corpus",
    "make_eval_row", "mean_scores", "precision", "recall", "run_experiment",
    "FEATURE_NAMES", "ExtractionOptions", "FeatureVector", "extract_features",
    "GrayImage", "PpmDecodeError", "RgbImage", "decode_ppm", "encode_ppm",
    "read_ppm", "to_grayscale", "write_ppm",
    "EmptyCorpusError", "Index", "IndexEntry", "IndexFormatError",
    "build_index", "load_index", "save_index", "scan_corpus",
    "Normalizer", "RankedResult", "euclidean_distance", "fit_normalizer",
    "normalize", "rank",
    "NormalField", "PhongParams", "TileInterpolant", "height_field_normals",
    "phong_intensity", "shade_image", "shade_image_tiled", "tile_ndoth",
    "__version__",
]
