"""Corpus scanning and the persisted feature database.

An index is a single JSON document: format version, the shading parameters
used (or null), the extraction options, the fitted normalizer, and one entry
per image holding its corpus-relative path, category (the top-level
directory of that path), and raw feature values at full float precision.
Entries are sorted by path so rebuilding an unchanged tree is byte-identical.
"""

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .features import (
    DEFAULT_EXTRACTION,
    FEATURE_COUNT,
    ExtractionOptions,
    FeatureVector,
    extract_features,
    validate_feature_ranges,
)
from .image import PpmDecodeError, decode_ppm
from .search import Normalizer, fit_normalizer, normalize_rows
from .shading import PhongParams

INDEX_FORMAT_VERSION = 1
IMAGE_EXTENSIONS = (".ppm",)

_PHONG_FIELDS = ("ka", "kd", "ks", "ia", "il", "ns", "light_dir", "view_dir", "height_scale")


class EmptyCorpusError(ValueError):
    """A corpus scan found no image files."""


class IndexFormatError(ValueError):
    """A persisted index failed version, schema, or invariant checks."""


@dataclass(frozen=True)
class IndexEntry:
    path: str
    category: str
    features: tuple[float, ...]


@dataclass(frozen=True)
class Index:
    version: int
    phong: PhongParams | None
    opts: ExtractionOptions
    normalizer: Normalizer
    entries: tuple[IndexEntry, ...]

    @cached_property
    def normalized(self) -> np.ndarray:
        """Read-only (N, FEATURE_COUNT) matrix of normalized features in entry order.

        Built on first use and kept for the life of the index; row i is
        ``normalize(entries[i].features, normalizer)`` to the bit.
        """
        raw = np.array([e.features for e in self.entries], dtype=np.float64)
        matrix = np.ascontiguousarray(
            normalize_rows(raw.reshape(len(self.entries), FEATURE_COUNT), self.normalizer)
        )
        matrix.flags.writeable = False
        return matrix


def scan_corpus(root) -> list[tuple[str, str]]:
    """List (relative path, category) for every image under root, sorted by path.

    The category is the first component of the relative path: the top-level
    directory the image sits in, however deep. Raises EmptyCorpusError when
    nothing matches IMAGE_EXTENSIONS, and ValueError naming an image that
    lies directly under root, outside any category.
    """
    root = Path(root)
    if not root.is_dir():
        raise NotADirectoryError(f"corpus root {root} is not a readable directory")
    images = (p.relative_to(root) for p in root.rglob("*")
              if p.is_file() and p.suffix.lower() in IMAGE_EXTENSIONS)
    found = sorted((rel.as_posix(), rel.parts[0]) for rel in images)
    if not found:
        raise EmptyCorpusError(f"no {'/'.join(IMAGE_EXTENSIONS)} images found under {root}")
    for rel, category in found:
        if rel == category:  # a one-component path: the image sits in root itself
            raise ValueError(f"{root / rel}: image lies directly under the corpus root, "
                             "outside any category directory")
    return found


def build_index(root, phong: PhongParams | None = None,
                opts: ExtractionOptions = DEFAULT_EXTRACTION) -> Index:
    """Extract features for every image under root and fit the normalizer.

    Fails fast on the first undecodable file, naming it, so evaluation
    denominators are never silently wrong.
    """
    root = Path(root)
    entries = []
    for rel, category in scan_corpus(root):
        try:
            img = decode_ppm((root / rel).read_bytes())
        except PpmDecodeError as exc:
            raise PpmDecodeError(f"{rel}: {exc}") from exc
        fv = extract_features(img, phong=phong, opts=opts)
        entries.append(IndexEntry(path=rel, category=category, features=fv.values))
    normalizer = fit_normalizer([e.features for e in entries])
    return Index(
        version=INDEX_FORMAT_VERSION,
        phong=phong,
        opts=opts,
        normalizer=normalizer,
        entries=tuple(entries),
    )


def _index_to_doc(ix: Index) -> dict:
    phong = None
    if ix.phong is not None:
        phong = {}
        for name in _PHONG_FIELDS:
            value = getattr(ix.phong, name)
            phong[name] = list(value) if isinstance(value, tuple) else value
    return {
        "version": ix.version,
        "phong": phong,
        "extraction_opts": {
            "levels": ix.opts.levels,
            "offset": list(ix.opts.offset),
            "edge_threshold": ix.opts.edge_threshold,
        },
        "normalizer": {"mins": list(ix.normalizer.mins), "maxs": list(ix.normalizer.maxs)},
        "entries": [
            {"path": e.path, "category": e.category, "features": list(e.features)}
            for e in ix.entries
        ],
    }


def save_index(ix: Index, path) -> None:
    """Persist as deterministic JSON; floats keep full round-trip precision.

    The document is written to a temporary file in the same directory, which
    then replaces ``path``, so a write that fails part-way leaves any index
    already at ``path`` as it was.
    """
    text = json.dumps(_index_to_doc(ix), indent=2) + "\n"
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _require(doc: dict, key: str, kind: type, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise IndexFormatError(f"{where} is missing field {key!r}")
    value = doc[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise IndexFormatError(f"{where}.{key} must be a number")
        return float(value)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise IndexFormatError(f"{where}.{key} must be {kind.__name__}")
    return value


def _load_phong(doc) -> PhongParams | None:
    if doc is None:
        return None
    kwargs = {}
    for name in _PHONG_FIELDS:
        value = _require(doc, name, list if name.endswith("_dir") else float, "phong")
        kwargs[name] = tuple(value) if isinstance(value, list) else value
    try:
        return PhongParams(**kwargs)
    except (TypeError, ValueError) as exc:
        raise IndexFormatError(f"invalid phong parameters: {exc}") from exc


def load_index(path) -> Index:
    """Load and validate a persisted index.

    Rejects unknown versions, schema violations, unsorted or duplicated
    paths, malformed feature values, and a normalizer that does not match
    the recomputed extrema of the stored entries.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise IndexFormatError(f"malformed index document: {exc}") from exc
    version = _require(doc, "version", int, "index")
    if version != INDEX_FORMAT_VERSION:
        raise IndexFormatError(
            f"unsupported index version {version}, expected {INDEX_FORMAT_VERSION}"
        )
    phong = _load_phong(doc.get("phong"))
    opts_doc = _require(doc, "extraction_opts", dict, "index")
    offset = _require(opts_doc, "offset", list, "extraction_opts")
    try:
        opts = ExtractionOptions(
            levels=_require(opts_doc, "levels", int, "extraction_opts"),
            offset=tuple(offset),
            edge_threshold=_require(opts_doc, "edge_threshold", float, "extraction_opts"),
        )
    except (TypeError, ValueError) as exc:
        raise IndexFormatError(f"invalid extraction options: {exc}") from exc

    entries = []
    entry_docs = _require(doc, "entries", list, "index")
    for pos, entry_doc in enumerate(entry_docs):
        where = f"entries[{pos}]"
        rel = _require(entry_doc, "path", str, where)
        category = _require(entry_doc, "category", str, where)
        features = _require(entry_doc, "features", list, where)
        if len(features) != FEATURE_COUNT:
            raise IndexFormatError(
                f"{where} has {len(features)} feature values, expected {FEATURE_COUNT}"
            )
        try:
            values = FeatureVector(tuple(features)).values
            validate_feature_ranges(values)
        except (TypeError, ValueError) as exc:
            raise IndexFormatError(f"{where}: {exc}") from exc
        entries.append(IndexEntry(path=rel, category=category, features=values))

    if not entries:
        raise IndexFormatError("index contains no entries")
    paths = [e.path for e in entries]
    if paths != sorted(paths):
        raise IndexFormatError("entries are not sorted by path")
    if len(set(paths)) != len(paths):
        raise IndexFormatError("entries contain duplicate paths")

    norm_doc = _require(doc, "normalizer", dict, "index")
    try:
        normalizer = Normalizer(
            mins=tuple(_require(norm_doc, "mins", list, "normalizer")),
            maxs=tuple(_require(norm_doc, "maxs", list, "normalizer")),
        )
    except (TypeError, ValueError) as exc:
        raise IndexFormatError(f"invalid normalizer: {exc}") from exc
    if len(normalizer.mins) != FEATURE_COUNT:
        raise IndexFormatError("normalizer dimension does not match the feature count")
    refit = fit_normalizer([e.features for e in entries])
    if refit != normalizer:
        raise IndexFormatError("normalizer does not match the extrema of the stored entries")

    if any(not math.isfinite(v) for v in normalizer.mins + normalizer.maxs):
        raise IndexFormatError("normalizer contains non-finite values")
    return Index(
        version=version, phong=phong, opts=opts, normalizer=normalizer, entries=tuple(entries)
    )
