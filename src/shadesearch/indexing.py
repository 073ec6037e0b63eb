"""Corpus scanning and the persisted feature database.

An ``Index`` holds columns: the sorted corpus-relative image paths and the raw
(N, FEATURE_COUNT) feature matrix in path order. Categories (each path's first
component), the normalizer (the matrix's per-slot extrema), the normalized
matrix and per-row ``IndexEntry`` views are derived on first use. On disk it is
one JSON document (format version 2): the version, the shading parameters (or
null), the extraction options, the paths, and the matrix as little-endian
float64 bytes in one base64 string. Nothing derivable is stored. Rebuilding an
unchanged tree is byte-identical. Loading checks the matrix as a whole.
"""

import base64
import json
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from ._files import holds_bytes, temporary_beside
from .features import (
    DEFAULT_EXTRACTION,
    FEATURE_COUNT,
    FEATURE_NAMES,
    ExtractionOptions,
    extract_features,
)
from .image import decode_ppm
from .search import Normalizer, fit_normalizer, normalize_rows
from .shading import PhongParams

INDEX_FORMAT_VERSION = 2
IMAGE_EXTENSIONS = (".ppm",)

_PHONG_FIELDS = ("ka", "kd", "ks", "ia", "il", "ns", "light_dir", "view_dir", "height_scale")
_FEATURE_DTYPE = np.dtype("<f8")

# validate_feature_ranges's per-slot bounds as whole-row arrays, eps included;
# energy and homogeneity have a strict lower bound of 0.
_EPS = 1e-9
_LOWER = np.array([-_EPS] * 11 + [0.0, 0.0, -_EPS, -_EPS])
_UPPER = np.array([255 + _EPS, 255 + _EPS, 127.5 + _EPS] * 3
                  + [np.inf, np.inf] + [1.0 + _EPS] * 4)
_STRICT_LOWER = np.isin(np.arange(FEATURE_COUNT),
                        [FEATURE_NAMES.index("energy"), FEATURE_NAMES.index("homogeneity")])


class EmptyCorpusError(ValueError):
    """A corpus scan found no image files."""


class IndexFormatError(ValueError):
    """An index, persisted or about to be, failed version, schema, or invariant checks."""


@dataclass(frozen=True)
class IndexEntry:
    path: str
    category: str
    features: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class Index:
    """Sorted paths and the read-only (N, FEATURE_COUNT) float64 raw matrix, row i for paths[i].

    ``categories``, ``normalizer``, ``normalized`` and ``entries`` are derived
    on first use and cached. Equality compares options, paths and matrix values.
    """

    phong: PhongParams | None
    opts: ExtractionOptions
    paths: tuple[str, ...]
    features: np.ndarray

    def __post_init__(self):
        # A view, so marking it read-only leaves a caller's own array writable.
        features = np.asarray(self.features, dtype=np.float64).view()
        if features.shape != (len(self.paths), FEATURE_COUNT):
            raise ValueError(f"features must have shape {(len(self.paths), FEATURE_COUNT)}, "
                             f"one row per path, not {features.shape}")
        features.flags.writeable = False
        object.__setattr__(self, "paths", tuple(self.paths))
        object.__setattr__(self, "features", features)

    def __eq__(self, other):
        return (isinstance(other, Index) and self.phong == other.phong
                and self.opts == other.opts and self.paths == other.paths
                and np.array_equal(self.features, other.features))

    @cached_property
    def categories(self) -> tuple[str, ...]:
        """The first component of each path, in path order."""
        return tuple(rel.partition("/")[0] for rel in self.paths)

    @cached_property
    def normalizer(self) -> Normalizer:
        """The per-slot extrema of the feature matrix."""
        return fit_normalizer(self.features)

    @cached_property
    def normalized(self) -> np.ndarray:
        """Read-only matrix whose row i is ``normalize(features[i], normalizer)`` to the bit."""
        matrix = np.ascontiguousarray(normalize_rows(self.features, self.normalizer))
        matrix.flags.writeable = False
        return matrix

    @cached_property
    def entries(self) -> tuple[IndexEntry, ...]:
        """One IndexEntry per path, its features a tuple of Python floats."""
        return tuple(IndexEntry(rel, category, tuple(row)) for rel, category, row
                     in zip(self.paths, self.categories, self.features.tolist()))


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
    """Extract the features of every image under root, one matrix row per sorted path.

    Fails fast on the first file that cannot be decoded or described: the
    ValueError keeps its class and its message starts with the file's path,
    so evaluation denominators are never silently wrong.
    """
    root = Path(root)
    paths = [rel for rel, _ in scan_corpus(root)]
    rows = []
    for rel in paths:
        try:
            fv = extract_features(decode_ppm((root / rel).read_bytes()), phong=phong, opts=opts)
        except ValueError as exc:
            raise type(exc)(f"{rel}: {exc}") from exc
        rows.append(fv.values)
    return Index(phong=phong, opts=opts, paths=paths, features=rows)


def _index_to_doc(ix: Index) -> dict:
    phong = None
    if ix.phong is not None:
        phong = {}
        for name in _PHONG_FIELDS:
            value = getattr(ix.phong, name)
            phong[name] = list(value) if isinstance(value, tuple) else value
    block = np.ascontiguousarray(ix.features, dtype=_FEATURE_DTYPE).tobytes()
    return {
        "version": INDEX_FORMAT_VERSION,
        "phong": phong,
        "extraction_opts": {
            "levels": ix.opts.levels,
            "offset": list(ix.opts.offset),
            "edge_threshold": ix.opts.edge_threshold,
        },
        "paths": list(ix.paths),
        "features": base64.b64encode(block).decode("ascii"),
    }


def save_index(ix: Index, path) -> None:
    """Persist as one deterministic JSON document; features keep every bit.

    The document is written to a temporary file in the same directory, which
    then replaces ``path``, so a write that fails part-way leaves any index
    already at ``path`` as it was. Replacing, rather than unlinking and
    renaming as other outputs do, keeps a whole index at ``path`` at every
    moment. When ``path`` is already a regular file holding exactly these
    bytes, nothing is written: the unchanged index keeps its inode and mtime,
    and the save skips the flush that replacing it costs on ext4. An index
    that ``load_index`` would refuse raises IndexFormatError, a ValueError,
    naming the bad path or feature slot, and nothing is written: no paths,
    paths unsorted, duplicated or outside any category, or a feature value
    that is non-finite or out of its slot's range. Non-finite options raise
    ValueError: they are not JSON.
    """
    _check_paths(ix.paths)
    _check_features(ix.features, ix.paths)
    data = (json.dumps(_index_to_doc(ix), indent=2, allow_nan=False) + "\n").encode("ascii")
    path = Path(path)
    if holds_bytes(path, data):
        return
    with temporary_beside(path) as tmp:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)


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


def _load_opts(doc) -> ExtractionOptions:
    offset = _require(doc, "offset", list, "extraction_opts")
    try:
        return ExtractionOptions(
            levels=_require(doc, "levels", int, "extraction_opts"),
            offset=tuple(offset),
            edge_threshold=_require(doc, "edge_threshold", float, "extraction_opts"),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise IndexFormatError(f"invalid extraction options: {exc}") from exc


def _check_paths(paths) -> None:
    """Raise IndexFormatError unless paths are strings, sorted, unique and under a category."""
    if not paths:
        raise IndexFormatError("index contains no entries")
    if not all(isinstance(p, str) for p in paths):
        raise IndexFormatError("index.paths must hold only strings")
    # A category is a non-empty first component: a "/" after the first character.
    rel = next((p for p in paths if p.find("/") < 1), None)
    if rel is not None:
        raise IndexFormatError(f"path {rel!r} names no category directory")
    for prev, rel in zip(paths, paths[1:]):
        if not prev < rel:
            problem = "duplicate paths" if prev == rel else "paths that are not sorted"
            raise IndexFormatError(f"index contains {problem}: {prev!r}, {rel!r}")


def _check_features(raw: np.ndarray, paths) -> None:
    """Raise IndexFormatError naming the first path and slot out of range or non-finite."""
    ok = (np.isfinite(raw) & np.where(_STRICT_LOWER, raw > _LOWER, raw >= _LOWER)
          & (raw <= _UPPER))
    if not ok.all():
        row, slot = divmod(int(np.flatnonzero(~ok)[0]), FEATURE_COUNT)
        value = float(raw[row, slot])
        problem = "is out of range" if np.isfinite(value) else "is not finite"
        raise IndexFormatError(f"{paths[row]}: feature {FEATURE_NAMES[slot]} = {value!r} "
                               f"{problem}")


def _load_paths(doc) -> list[str]:
    """The stored paths, checked."""
    paths = _require(doc, "paths", list, "index")
    _check_paths(paths)
    return paths


def _load_features(doc, paths: list[str]) -> np.ndarray:
    """The stored (N, FEATURE_COUNT) feature matrix, read-only, checked as a whole."""
    block = _require(doc, "features", str, "index")
    try:
        data = base64.b64decode(block, validate=True)
    except ValueError as exc:
        raise IndexFormatError(f"features block is not valid base64: {exc}") from exc
    expected = _FEATURE_DTYPE.itemsize * FEATURE_COUNT * len(paths)
    if len(data) != expected:
        raise IndexFormatError(
            f"features block holds {len(data)} bytes, expected {expected} bytes: "
            f"{FEATURE_COUNT} float64 feature values for each of the {len(paths)} paths"
        )
    raw = np.frombuffer(data, dtype=_FEATURE_DTYPE).reshape(len(paths), FEATURE_COUNT)
    _check_features(raw, paths)
    return raw


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")


def _load_doc(path) -> Index:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data.decode("utf-8"), parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:  # undecodable, malformed or too deep
        raise IndexFormatError(f"malformed index document: {exc}") from exc
    version = _require(doc, "version", int, "index")
    if version == 1:
        raise IndexFormatError("index format version 1 is no longer read; "
                               "rebuild the index with `shadesearch index`")
    if version != INDEX_FORMAT_VERSION:
        raise IndexFormatError(
            f"unsupported index version {version}, expected {INDEX_FORMAT_VERSION}"
        )
    if "phong" not in doc:
        raise IndexFormatError("index is missing field 'phong'")
    phong = _load_phong(doc["phong"])
    opts = _load_opts(_require(doc, "extraction_opts", dict, "index"))
    paths = _load_paths(doc)
    return Index(phong=phong, opts=opts, paths=paths, features=_load_features(doc, paths))


def load_index(path) -> Index:
    """Load and validate a persisted index.

    Raises IndexFormatError, its message starting with ``path``, for a file
    that is not UTF-8 JSON or holds a bare ``NaN`` or ``Infinity`` token, an
    unknown or retired version, a schema violation, paths that are unsorted,
    duplicated or outside any category, and a feature block of the wrong
    length or with a value that is non-finite or out of its slot's range.
    OSError from reading the file passes through.
    """
    try:
        return _load_doc(path)
    except IndexFormatError as exc:
        raise IndexFormatError(f"{path}: {exc}") from exc.__cause__
