import base64
import itertools
import json
import math
import os
import re
import signal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from shadesearch import features, indexing
from shadesearch.features import (
    FEATURE_COUNT,
    FEATURE_NAMES,
    EmptyPairsError,
    ExtractionOptions,
    FeatureVector,
    extract_features,
    validate_feature_ranges,
)
from shadesearch.image import PpmDecodeError, RgbImage, encode_ppm, read_ppm
from shadesearch.indexing import (
    EmptyCorpusError,
    Index,
    IndexFormatError,
    build_index,
    load_index,
    save_index,
    scan_corpus,
)
from shadesearch.evaluation import run_experiment
from shadesearch.search import rank
from shadesearch.shading import PhongParams

from conftest import FailingWriter, random_rgb


def write_image(path, img: RgbImage) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(encode_ppm(img))


def make_corpus(root, rng, layout: dict[str, int], side: int = 8) -> None:
    for category, count in layout.items():
        for i in range(count):
            write_image(root / category / f"{i:02d}.ppm", random_rgb(rng, side, side))


def decode_block(doc: dict) -> np.ndarray:
    """A document's feature block as a flat, writable array of values."""
    return np.frombuffer(base64.b64decode(doc["features"]), dtype="<f8").copy()


def encode_block(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def hand_made_index(rows, phong: PhongParams | None = None) -> Index:
    by_path = sorted((f"c{i % 3}/{i:03d}.ppm", tuple(map(float, row)))
                     for i, row in enumerate(rows))
    return Index(phong=phong, opts=ExtractionOptions(), paths=[path for path, _ in by_path],
                 features=[row for _, row in by_path])


class TestScanCorpus:
    def test_categories_from_parent_directories(self, tmp_path, rng):
        make_corpus(tmp_path, rng, {"buses": 2, "horses": 1})
        listing = scan_corpus(tmp_path)
        assert listing == [
            ("buses/00.ppm", "buses"),
            ("buses/01.ppm", "buses"),
            ("horses/00.ppm", "horses"),
        ]

    def test_empty_root_rejected(self, tmp_path):
        with pytest.raises(EmptyCorpusError):
            scan_corpus(tmp_path)

    def test_missing_root_rejected(self, tmp_path):
        with pytest.raises(OSError):
            scan_corpus(tmp_path / "nowhere")

    def test_non_image_files_ignored(self, tmp_path, rng):
        make_corpus(tmp_path, rng, {"cats": 2})
        (tmp_path / "cats" / "notes.txt").write_text("not an image")
        (tmp_path / "README.md").write_text("hello")
        (tmp_path / "cats" / "deep").mkdir()
        write_image(tmp_path / "cats" / "deep" / "x.ppm", random_rgb(rng, 4, 4))
        expected = [
            ("cats/00.ppm", "cats"),
            ("cats/01.ppm", "cats"),
            ("cats/deep/x.ppm", "cats"),
        ]
        assert scan_corpus(tmp_path) == expected

    def test_category_is_the_top_level_directory(self, tmp_path, rng):
        # Same-named leaf directories in different branches stay apart.
        for rel in ("cars/red/a.ppm", "cars/blue/b.ppm", "vans/red/c.ppm"):
            write_image(tmp_path / rel, random_rgb(rng, 4, 4))
        assert scan_corpus(tmp_path) == [
            ("cars/blue/b.ppm", "cars"),
            ("cars/red/a.ppm", "cars"),
            ("vans/red/c.ppm", "vans"),
        ]

    def test_root_level_image_rejected(self, tmp_path, rng):
        make_corpus(tmp_path / "c", rng, {"a": 2})
        write_image(tmp_path / "c" / "root.ppm", random_rgb(rng, 4, 4))
        with pytest.raises(ValueError, match="root.ppm.*outside any category"):
            scan_corpus(tmp_path / "c")


class TestBuildIndex:
    def test_single_image_corpus(self, tmp_path, rng):
        make_corpus(tmp_path, rng, {"solo": 1})
        index = build_index(tmp_path)
        assert len(index.entries) == 1
        assert index.normalizer.mins == index.normalizer.maxs == index.entries[0].features

    def test_rebuild_is_byte_identical(self, tmp_path, rng):
        make_corpus(tmp_path / "corpus", rng, {"a": 3, "b": 2})
        for run in ("one", "two"):
            save_index(build_index(tmp_path / "corpus"), tmp_path / f"{run}.json")
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()

    def test_identity_shading_matches_unshaded_features(self, tmp_path, rng):
        make_corpus(tmp_path, rng, {"a": 2})
        identity = PhongParams(ka=1.0, ia=1.0, kd=0.0, ks=0.0)
        plain = build_index(tmp_path)
        shaded = build_index(tmp_path, phong=identity)
        assert [e.features for e in plain.entries] == [e.features for e in shaded.entries]

    def test_undecodable_image_names_the_file(self, tmp_path, rng):
        make_corpus(tmp_path, rng, {"a": 1})
        (tmp_path / "a" / "broken.ppm").write_bytes(b"P6 2 2 255 junk")
        with pytest.raises(PpmDecodeError, match="a/broken.ppm"):
            build_index(tmp_path)

    def test_unextractable_image_names_the_file(self, tmp_path, rng):
        make_corpus(tmp_path, rng, {"a": 1})
        (tmp_path / "a" / "thin.ppm").write_bytes(encode_ppm(random_rgb(rng, 1, 5)))
        with pytest.raises(EmptyPairsError) as caught:
            build_index(tmp_path)
        assert str(caught.value) == "a/thin.ppm: offset (1, 0) yields no pixel pairs on a 1x5 image"


class TestStackedBuild:
    """build_index describes images in stacks of one shape; rows stay in path order."""

    # (height, width) and count: 64 x 64 and 512 x 1 fill whole stacks of
    # 32768 pixels (8 and 64 images) and leave partial ones; the others only
    # partial stacks.
    SHAPES = (((8, 8), 6), ((64, 64), 18), ((5, 3), 6), ((1, 512), 66))

    def mixed_corpus(self, root, rng) -> list[str]:
        queue = [shape for shape, count in self.SHAPES for _ in range(count)]
        order = rng.permutation(len(queue))  # shapes interleave in path order
        rels = []
        for i, j in enumerate(order):
            rel = f"c{i % 3}/{i:03d}.ppm"
            write_image(root / rel, random_rgb(rng, queue[j][1], queue[j][0]))
            rels.append(rel)
        return sorted(rels)

    @pytest.mark.parametrize("phong", [None, PhongParams()])
    def test_rows_equal_extract_features_of_each_file(self, tmp_path, rng, phong):
        rels = self.mixed_corpus(tmp_path, rng)
        opts = ExtractionOptions(levels=16, offset=(1, 0), edge_threshold=200.0)
        index = build_index(tmp_path, phong=phong, opts=opts)
        assert list(index.paths) == rels
        want = [extract_features(read_ppm(tmp_path / rel), phong=phong, opts=opts).values
                for rel in rels]
        assert np.array_equal(index.features.view(np.int64),
                              np.array(want).view(np.int64))

    @pytest.mark.parametrize("first", ["broken", "thin"])
    def test_first_failing_file_in_path_order_is_named(self, tmp_path, rng, first):
        self.mixed_corpus(tmp_path, rng)
        # Both bad files sort after many good ones of every shape.
        second = "thin" if first == "broken" else "broken"
        names = {first: "c1/900.ppm", second: "c2/900.ppm"}
        (tmp_path / names["broken"]).write_bytes(b"P6 2 2 255 junk")
        write_image(tmp_path / names["thin"], random_rgb(rng, 1, 5))
        expected = PpmDecodeError if first == "broken" else EmptyPairsError
        with pytest.raises(expected) as caught:
            build_index(tmp_path)
        assert type(caught.value) is expected
        assert str(caught.value).startswith(f"{names[first]}: ")

    def test_shape_without_pairs_fails_at_its_first_image(self, tmp_path, rng):
        # Offset (0, 1) pairs no pixels in a one-row image: the first 1 x 512
        # file in path order is named, though no stack of it was ever full.
        rels = self.mixed_corpus(tmp_path, rng)
        first_row = next(rel for rel in rels if read_ppm(tmp_path / rel).height == 1)
        with pytest.raises(EmptyPairsError) as caught:
            build_index(tmp_path, opts=ExtractionOptions(offset=(0, 1)))
        assert str(caught.value) == (f"{first_row}: offset (0, 1) yields no pixel pairs "
                                     "on a 512x1 image")


    def test_many_distinct_shapes_are_not_held_whole(self, tmp_path, rng):
        # No two files share a shape, so no stack fills. With the pending bound
        # at eight images' cells, every ninth file decoded sends all nine
        # pending stacks through, and the rows stay exact.
        shapes = [(h, w) for h in range(2, 8) for w in range(2, 8)]
        for i, j in enumerate(rng.permutation(len(shapes))):
            write_image(tmp_path / f"c{i % 2}/{i:02d}.ppm", random_rgb(rng, *shapes[j]))
        decoded, described = [], []
        decode, kernel = indexing.decode_ppm, features._describe

        def counted_decode(data):
            decoded.append(1)
            return decode(data)

        def counted_kernel(stack, opts):
            described.append(len(decoded))
            return kernel(stack, opts)

        with mock.patch.object(features, "_PENDING_CELLS", 8 * 256), \
                mock.patch.object(indexing, "decode_ppm", counted_decode), \
                mock.patch.object(features, "_describe", counted_kernel):
            index = build_index(tmp_path)
        assert described == [decoded for decoded in (9, 18, 27, 36) for _ in range(9)]
        want = [extract_features(read_ppm(tmp_path / rel)).values for rel in index.paths]
        assert np.array_equal(index.features.view(np.int64), np.array(want).view(np.int64))

class TestPersistence:
    def test_round_trip_equality(self, tmp_path, rng):
        make_corpus(tmp_path / "c", rng, {"a": 2, "b": 3})
        index = build_index(tmp_path / "c", phong=PhongParams(), opts=ExtractionOptions(levels=16))
        save_index(index, tmp_path / "ix.json")
        assert load_index(tmp_path / "ix.json") == index

    def test_round_trip_without_phong(self, tmp_path, rng):
        make_corpus(tmp_path / "c", rng, {"a": 2})
        index = build_index(tmp_path / "c")
        save_index(index, tmp_path / "ix.json")
        loaded = load_index(tmp_path / "ix.json")
        assert loaded == index and loaded.phong is None

    def _saved_doc(self, tmp_path, rng):
        make_corpus(tmp_path / "c", rng, {"a": 2})
        save_index(build_index(tmp_path / "c"), tmp_path / "ix.json")
        return json.loads((tmp_path / "ix.json").read_text())

    def _expect_load_error(self, tmp_path, doc, match):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(IndexFormatError, match=re.escape(match)) as info:
            load_index(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_unknown_version_rejected(self, tmp_path, rng):
        doc = self._saved_doc(tmp_path, rng)
        doc["version"] = 999
        self._expect_load_error(tmp_path, doc, "version")

    def test_wrong_feature_count_rejected(self, tmp_path, rng):
        doc = self._saved_doc(tmp_path, rng)
        doc["features"] = encode_block(decode_block(doc)[:-1])  # one value short
        self._expect_load_error(tmp_path, doc, f"holds {(2 * FEATURE_COUNT - 1) * 8} bytes")

    def test_block_not_matching_paths_rejected(self, tmp_path, rng):
        doc = self._saved_doc(tmp_path, rng)
        doc["paths"].pop()  # the block still holds two rows
        self._expect_load_error(tmp_path, doc, f"expected {FEATURE_COUNT * 8} bytes")

    def test_unsorted_entries_rejected(self, tmp_path, rng):
        doc = self._saved_doc(tmp_path, rng)
        doc["paths"].reverse()
        self._expect_load_error(tmp_path, doc, "not sorted")

    def test_duplicate_paths_rejected(self, tmp_path, rng):
        doc = self._saved_doc(tmp_path, rng)
        values = decode_block(doc)
        doc["paths"].append(doc["paths"][-1])
        doc["features"] = encode_block(np.concatenate([values, values[-FEATURE_COUNT:]]))
        self._expect_load_error(tmp_path, doc, "duplicate")

    def test_out_of_range_feature_rejected(self, tmp_path, rng):
        doc = self._saved_doc(tmp_path, rng)
        values = decode_block(doc)
        values[FEATURE_COUNT] = 400.0  # r_mean beyond 255, in the second row
        doc["features"] = encode_block(values)
        self._expect_load_error(tmp_path, doc, "a/01.ppm: feature r_mean = 400.0 is out of range")

    def test_root_level_path_rejected(self, tmp_path, rng):
        doc = self._saved_doc(tmp_path, rng)
        doc["paths"][0] = "00.ppm"
        self._expect_load_error(tmp_path, doc, "'00.ppm' names no category")

    def test_version_1_asks_for_a_rebuild(self, tmp_path, rng):
        doc = self._saved_doc(tmp_path, rng)
        doc["version"] = 1
        self._expect_load_error(tmp_path, doc, "version 1 is no longer read; rebuild the index")

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"version": 2, "paths": ["caf\u00e9/a.ppm"]}'.encode("latin-1"))
        with pytest.raises(IndexFormatError, match="malformed") as info:
            load_index(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_deep_nesting_rejected(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        with pytest.raises(IndexFormatError, match="malformed") as info:
            load_index(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(IndexFormatError, match="malformed"):
            load_index(path)

    def test_failed_write_keeps_the_old_index(self, tmp_path, rng, monkeypatch):
        make_corpus(tmp_path / "c", rng, {"a": 2})
        path = tmp_path / "out" / "ix.json"
        path.parent.mkdir()
        save_index(build_index(tmp_path / "c"), path)
        old = path.read_bytes()

        class FailingWriter:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError("disk full")

        monkeypatch.setattr(indexing, "open",
                            lambda *a, **kw: FailingWriter(open(*a, **kw)), raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_index(build_index(tmp_path / "c", phong=PhongParams()), path)
        assert path.read_bytes() == old
        assert [p.name for p in path.parent.iterdir()] == ["ix.json"]

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_token_rejected(self, tmp_path, rng, token):
        doc = self._saved_doc(tmp_path, rng)
        doc["extraction_opts"]["edge_threshold"] = float(token)
        self._expect_load_error(tmp_path, doc, f"{token} is not a JSON number")

    def test_non_finite_value_is_not_saved(self, tmp_path):
        phong = PhongParams()
        object.__setattr__(phong, "ka", math.nan)  # past the constructor's check
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_index(hand_made_index([_VALID_ROW], phong), tmp_path / "ix.json")
        assert list(tmp_path.iterdir()) == []

    def test_fractional_offset_rejected(self, tmp_path, rng):
        doc = self._saved_doc(tmp_path, rng)
        doc["extraction_opts"]["offset"] = [1.5, 0]
        self._expect_load_error(tmp_path, doc, "offset must be a pair of integers")

    def test_invalid_phong_rejected(self, tmp_path, rng):
        make_corpus(tmp_path / "c", rng, {"a": 2})
        save_index(build_index(tmp_path / "c", phong=PhongParams()), tmp_path / "ix.json")
        doc = json.loads((tmp_path / "ix.json").read_text())
        doc["phong"]["ns"] = 0.0
        self._expect_load_error(tmp_path, doc, "phong")


_EPS = 1e-9
_VALID_ROW = (100.0, 100.0, 50.0) * 3 + (1.0, 1.0, 0.5, 0.5, 0.5, 0.5)
# Every bound of validate_feature_ranges, just inside and just beyond it.
_EDGE_VALUES = (
    -_EPS, math.nextafter(-_EPS, -math.inf), 0.0, -0.0, 5e-324, -5e-324,
    1.0, 1.0 + _EPS, math.nextafter(1.0 + _EPS, math.inf),
    127.5, 127.5 + _EPS, math.nextafter(127.5 + _EPS, math.inf),
    255.0, 255.0 + _EPS, math.nextafter(255.0 + _EPS, math.inf),
    1e300, math.inf, -math.inf, math.nan,
)


@st.composite
def edge_rows(draw) -> list[float]:
    """A valid row with up to three slots moved onto or past a bound, or anywhere."""
    row = list(_VALID_ROW)
    for slot in draw(st.lists(st.integers(0, FEATURE_COUNT - 1), max_size=3)):
        row[slot] = draw(st.sampled_from(_EDGE_VALUES) | st.floats())
    return row


def _in_range(lo, hi, **kw):
    """Floats in [lo, hi], with both signed zeros (or hi, where 0 is excluded) drawn often."""
    return st.floats(lo, hi, **kw) | st.sampled_from([0.0, -0.0] if lo < 0 else [hi])


# One strategy per slot that only draws values validate_feature_ranges accepts.
valid_rows = st.tuples(
    *[_in_range(-_EPS, 255 + _EPS), _in_range(-_EPS, 255 + _EPS), _in_range(-_EPS, 127.5 + _EPS)]
    * 3,
    _in_range(-_EPS, 1e300), _in_range(-_EPS, 1e300),
    _in_range(0.0, 1 + _EPS, exclude_min=True), _in_range(0.0, 1 + _EPS, exclude_min=True),
    _in_range(-_EPS, 1 + _EPS), _in_range(-_EPS, 1 + _EPS),
)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """A directory and a fresh file name in it for each example.

    Saving or writing over an existing file costs a flush on some file
    systems (ext4's auto_da_alloc), so no example reuses a name.
    """
    directory = tmp_path_factory.mktemp("index-properties")
    names = itertools.count()
    return lambda stem: directory / f"{stem}-{next(names)}.json"


class TestSaveChecks:
    @pytest.mark.parametrize("path", ["x.ppm", "/x.ppm"])
    def test_category_must_be_first_path_component(self, tmp_path, path):
        bad = Index(phong=None, opts=ExtractionOptions(), paths=[path], features=[_VALID_ROW])
        with pytest.raises(ValueError, match=f"path {re.escape(repr(path))} names no category"):
            save_index(bad, tmp_path / "ix.json")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("paths, rows, message", [
        pytest.param(["a/x.ppm", "b/y.ppm"],
                     [_VALID_ROW, _VALID_ROW[:3] + (math.nan,) + _VALID_ROW[4:]],
                     f"b/y.ppm: feature {FEATURE_NAMES[3]} = nan is not finite", id="nan"),
        pytest.param(["a/x.ppm"], [(256.0,) + _VALID_ROW[1:]],
                     f"a/x.ppm: feature {FEATURE_NAMES[0]} = 256.0 is out of range",
                     id="out_of_range"),
        pytest.param(["b/y.ppm", "a/x.ppm"], [_VALID_ROW] * 2,
                     "index contains paths that are not sorted: 'b/y.ppm', 'a/x.ppm'",
                     id="unsorted"),
        pytest.param(["a/x.ppm", "a/x.ppm"], [_VALID_ROW] * 2,
                     "index contains duplicate paths: 'a/x.ppm', 'a/x.ppm'", id="duplicate"),
        pytest.param([], np.empty((0, FEATURE_COUNT)), "index contains no entries", id="empty"),
    ])
    def test_what_a_load_refuses_is_not_saved(self, tmp_path, paths, rows, message):
        bad = Index(phong=None, opts=ExtractionOptions(), paths=paths, features=rows)
        with pytest.raises(ValueError, match=re.escape(message)):
            save_index(bad, tmp_path / "ix.json")
        assert list(tmp_path.iterdir()) == []

    def test_loaded_index_keeps_its_raw_matrix(self, tmp_path, rng):
        make_corpus(tmp_path / "c", rng, {"a": 2, "b": 1})
        built = build_index(tmp_path / "c")
        save_index(built, tmp_path / "ix.json")
        loaded = load_index(tmp_path / "ix.json")
        for ix in (built, loaded):
            assert not ix.features.flags.writeable
            assert ix.features.tolist() == [list(e.features) for e in ix.entries]


class TestColumns:
    def test_entries_stay_unbuilt(self, tmp_path, rng):
        make_corpus(tmp_path / "c", rng, {"a": 2, "b": 2})
        built = build_index(tmp_path / "c")
        save_index(built, tmp_path / "ix.json")
        loaded = load_index(tmp_path / "ix.json")
        for ix in (built, loaded):
            rank(FeatureVector(tuple(ix.features[0].tolist())), ix, k=2)
            run_experiment(ix, k=2, query_mode="all_queries_averaged")
            save_index(ix, tmp_path / "again.json")
            assert "entries" not in vars(ix)

    def test_rank_leaves_categories_unbuilt(self, tmp_path, rng):
        make_corpus(tmp_path / "c", rng, {"a": 2, "b": 2})
        save_index(build_index(tmp_path / "c"), tmp_path / "ix.json")
        loaded = load_index(tmp_path / "ix.json")
        ranked = rank(FeatureVector(tuple(loaded.features[3].tolist())), loaded, k=3)
        assert "categories" not in vars(loaded)
        assert [r.category for r in ranked] == [r.path.split("/")[0] for r in ranked]
        assert ranked[0].path == "b/01.ppm" and ranked[0].category == "b"

    def test_features_become_a_read_only_float64_matrix(self):
        mine = np.array([[1] * FEATURE_COUNT, [2] * FEATURE_COUNT])
        ix = Index(phong=None, opts=ExtractionOptions(), paths=["a/x.ppm", "b/y.ppm"],
                   features=mine)
        assert ix.features.dtype == np.float64 and not ix.features.flags.writeable
        assert mine.flags.writeable and ix.paths == ("a/x.ppm", "b/y.ppm")
        assert ix.categories == ("a", "b")
        with pytest.raises(ValueError, match="shape"):
            Index(phong=None, opts=ExtractionOptions(), paths=["a/x.ppm"], features=mine)


def _flip_last_bit(value: float) -> float:
    return float((np.array([value]).view(np.int64) ^ 1).view(np.float64)[0])


class TestUnchangedSave:
    """A save over a regular file that already holds its bytes writes nothing."""

    ROWS = [_VALID_ROW, _VALID_ROW[:14] + (0.25,)]
    SAME_LENGTH = [(_flip_last_bit(_VALID_ROW[0]),) + _VALID_ROW[1:], ROWS[1]]

    def _saved(self, path, rows=ROWS):
        save_index(hand_made_index(rows), path)
        os.utime(path, ns=(10**9, 10**9))  # a rewrite would carry the current time
        return path.stat()

    def test_identical_resave_keeps_inode_and_mtime(self, tmp_path):
        path = tmp_path / "ix.json"
        before = self._saved(path)
        data = path.read_bytes()
        save_index(hand_made_index(self.ROWS), path)
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert path.read_bytes() == data
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("rows, same_length", [(SAME_LENGTH, True), (ROWS[:1], False)],
                             ids=["same-length", "other-length"])
    def test_changed_bytes_replace_the_file(self, tmp_path, rows, same_length):
        path = tmp_path / "ix.json"
        before = self._saved(path)
        old = path.read_bytes()
        ix = hand_made_index(rows)
        save_index(ix, path)
        new = path.read_bytes()
        assert new != old and (len(new) == len(old)) == same_length
        assert path.stat().st_ino != before.st_ino
        assert load_index(path) == ix
        assert list(tmp_path.iterdir()) == [path]

    def test_symlink_to_identical_bytes_is_replaced_not_followed(self, tmp_path):
        dest = tmp_path / "dest.json"
        before = self._saved(dest)
        data = dest.read_bytes()
        link = tmp_path / "ix.json"
        link.symlink_to(dest)
        save_index(hand_made_index(self.ROWS), link)
        assert not link.is_symlink() and link.read_bytes() == data
        after = dest.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    def test_directory_at_the_target_names_the_target(self, tmp_path):
        path = tmp_path / "ix.json"
        path.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            save_index(hand_made_index(self.ROWS), path)
        assert info.value.filename == str(path)
        assert list(tmp_path.iterdir()) == [path]

    def test_fifo_at_the_target_is_replaced_without_blocking(self, tmp_path):
        path = tmp_path / "ix.json"
        os.mkfifo(path)

        def timed_out(*_):
            pytest.fail("opening the FIFO blocked")  # not an OSError, which a probe may catch

        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(5)
        try:
            save_index(hand_made_index(self.ROWS), path)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert path.is_file() and load_index(path) == hand_made_index(self.ROWS)

    def test_failed_write_over_same_length_keeps_the_old_index(self, tmp_path, monkeypatch):
        path = tmp_path / "ix.json"
        self._saved(path)
        old = path.read_bytes()
        monkeypatch.setattr(indexing, "open",
                            lambda *a, **kw: FailingWriter(open(*a, **kw)), raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_index(hand_made_index(self.SAME_LENGTH), path)
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]


def _check_against_scalar_oracle(rows):
    """The whole-matrix check fails on the first row validate_feature_ranges rejects."""
    paths = [f"c/{i}.ppm" for i in range(len(rows))]
    rejected = []
    for path, row in zip(paths, rows):
        try:
            validate_feature_ranges(row)
        except ValueError:
            rejected.append(path)
    doc = {"features": encode_block(rows)}
    if not rejected:
        raw = indexing._load_features(doc, paths)
        assert raw.tobytes() == np.asarray(rows, dtype="<f8").tobytes()
        return
    with pytest.raises(IndexFormatError) as info:
        indexing._load_features(doc, paths)
    named = re.fullmatch(r"(\S+): feature (\w+) = .+", str(info.value))
    assert named and named[1] == rejected[0]
    # The named slot is out of range on its own.
    slot = FEATURE_NAMES.index(named[2])
    alone = list(_VALID_ROW)
    alone[slot] = rows[paths.index(rejected[0])][slot]
    with pytest.raises(ValueError):
        validate_feature_ranges(alone)


class TestVectorizedRangeCheck:
    @pytest.mark.parametrize("slot", range(FEATURE_COUNT), ids=FEATURE_NAMES)
    def test_every_edge_value_in_every_slot(self, slot):
        for value in _EDGE_VALUES:
            row = list(_VALID_ROW)
            row[slot] = value
            _check_against_scalar_oracle([row])

    @given(st.lists(edge_rows(), min_size=1, max_size=6))
    def test_rejects_exactly_the_rows_the_scalar_oracle_rejects(self, rows):
        _check_against_scalar_oracle(rows)


class TestRoundTripProperty:
    @given(rows=st.lists(valid_rows, min_size=1, max_size=8),
           phong=st.sampled_from([None, PhongParams()]))
    def test_load_of_save_is_the_index_to_the_bit(self, scratch, rows, phong):
        ix = hand_made_index(rows, phong)
        path = scratch("round-trip")
        save_index(ix, path)
        loaded = load_index(path)
        assert loaded == ix
        for got, want in ((loaded.features, ix.features),
                          (loaded.normalized, ix.normalized),
                          (loaded.normalizer.mins + loaded.normalizer.maxs,
                           ix.normalizer.mins + ix.normalizer.maxs)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @given(rows=st.lists(valid_rows, min_size=1, max_size=8),
           phong=st.sampled_from([None, PhongParams()]))
    def test_saving_twice_to_one_path_keeps_the_index(self, scratch, rows, phong):
        ix = hand_made_index(rows, phong)
        path = scratch("twice")
        save_index(ix, path)
        first = path.read_bytes()
        save_index(ix, path)
        assert path.read_bytes() == first
        assert load_index(path) == ix


_BASE_ROWS = [_VALID_ROW, (0.0,) * 11 + (1.0, 1.0, 0.0, 0.0), (255.0, 255.0, 127.5) * 3
              + (7.5, 300.0, 1e-3, 0.25, 1.0, 1.0), _VALID_ROW[::-1][:11] + (0.5,) * 4]
_FIELDS = ("version", "phong", "extraction_opts", "paths", "features")
_WRONG_TYPES = (None, True, "x", {}, [None])
_POISON = (math.nan, math.inf, -math.inf, -1.0, -1e-8)


@st.composite
def broken_documents(draw) -> bytes:
    """A saved v2 index with one mutation that must make it unloadable."""
    doc = json.loads(json.dumps(indexing._index_to_doc(
        hand_made_index(_BASE_ROWS, PhongParams()))))
    paths = doc["paths"]
    kind = draw(st.sampled_from(
        ["drop", "retype", "retype_nested", "truncate_block", "garble_block", "poison",
         "unsort", "duplicate", "root_level", "version_1", "truncate_file", "non_utf8"]))
    if kind == "drop":
        del doc[draw(st.sampled_from(_FIELDS))]
    elif kind == "retype":
        key = draw(st.sampled_from(_FIELDS))
        doc[key] = draw(st.sampled_from([v for v in _WRONG_TYPES + (0, [], "")
                                         if v is not None or key != "phong"]))
    elif kind == "retype_nested":
        key = draw(st.sampled_from(["phong", "extraction_opts", "paths"]))
        inner = doc[key]
        slot = draw(st.sampled_from(range(len(inner)) if key == "paths" else sorted(inner)))
        inner[slot] = draw(st.sampled_from(_WRONG_TYPES))
    elif kind == "truncate_block":
        doc["features"] = doc["features"][:draw(st.integers(0, len(doc["features"]) - 1))]
    elif kind == "garble_block":  # replace or insert one character outside the alphabet
        block = doc["features"]
        at = draw(st.integers(0, len(block) - 1))
        rest = block[at + draw(st.integers(0, 1)):]
        doc["features"] = block[:at] + draw(st.sampled_from("!*-_ .é\n")) + rest
    elif kind == "poison":
        values = decode_block(doc)
        values[draw(st.integers(0, values.size - 1))] = draw(st.sampled_from(_POISON))
        doc["features"] = encode_block(values)
    elif kind == "unsort":
        i, j = sorted(draw(st.lists(st.integers(0, len(paths) - 1), min_size=2, max_size=2,
                                    unique=True)))
        paths[i], paths[j] = paths[j], paths[i]
    elif kind == "duplicate":
        at = draw(st.integers(1, len(paths) - 1))
        paths[at] = paths[at - 1]
    elif kind == "root_level":
        paths[draw(st.integers(0, len(paths) - 1))] = draw(st.sampled_from(["x.ppm", "/x", ""]))
    elif kind == "version_1":
        doc["version"] = 1
    data = json.dumps(doc, indent=2).encode()
    if kind == "truncate_file":
        data = data[:draw(st.integers(0, len(data) - 1))]
    elif kind == "non_utf8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(_FIELDS) | st.text(max_size=4), inner, max_size=5),
    max_leaves=12,
)


class TestLoadFuzz:
    @given(data=broken_documents())
    def test_every_mutation_raises_index_format_error(self, scratch, data):
        path = scratch("mutated")
        path.write_bytes(data)
        with pytest.raises(IndexFormatError) as info:
            load_index(path)
        assert str(info.value).startswith(f"{path}: ")

    @given(doc=json_values)
    def test_arbitrary_json_raises_only_index_format_error(self, scratch, doc):
        path = scratch("arbitrary")
        path.write_text(json.dumps(doc))
        with pytest.raises(IndexFormatError) as info:
            load_index(path)
        assert str(info.value).startswith(f"{path}: ")
