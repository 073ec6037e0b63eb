import json

import pytest

from shadesearch import indexing
from shadesearch.features import ExtractionOptions
from shadesearch.image import PpmDecodeError, RgbImage, encode_ppm
from shadesearch.indexing import (
    EmptyCorpusError,
    IndexFormatError,
    build_index,
    load_index,
    save_index,
    scan_corpus,
)
from shadesearch.shading import PhongParams

from conftest import random_rgb


def write_image(path, img: RgbImage) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(encode_ppm(img))


def make_corpus(root, rng, layout: dict[str, int], side: int = 8) -> None:
    for category, count in layout.items():
        for i in range(count):
            write_image(root / category / f"{i:02d}.ppm", random_rgb(rng, side, side))


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
        with pytest.raises(IndexFormatError, match=match):
            load_index(path)

    def test_unknown_version_rejected(self, tmp_path, rng):
        doc = self._saved_doc(tmp_path, rng)
        doc["version"] = 999
        self._expect_load_error(tmp_path, doc, "version")

    def test_wrong_feature_count_rejected(self, tmp_path, rng):
        doc = self._saved_doc(tmp_path, rng)
        doc["entries"][0]["features"] = doc["entries"][0]["features"][:14]
        self._expect_load_error(tmp_path, doc, "14 feature values")

    def test_stale_normalizer_rejected(self, tmp_path, rng):
        doc = self._saved_doc(tmp_path, rng)
        doc["normalizer"]["maxs"][0] += 1.0
        self._expect_load_error(tmp_path, doc, "normalizer")

    def test_unsorted_entries_rejected(self, tmp_path, rng):
        doc = self._saved_doc(tmp_path, rng)
        doc["entries"].reverse()
        self._expect_load_error(tmp_path, doc, "sorted")

    def test_duplicate_paths_rejected(self, tmp_path, rng):
        doc = self._saved_doc(tmp_path, rng)
        doc["entries"].append(doc["entries"][-1])
        self._expect_load_error(tmp_path, doc, "duplicate")

    def test_out_of_range_feature_rejected(self, tmp_path, rng):
        doc = self._saved_doc(tmp_path, rng)
        doc["entries"][0]["features"][0] = 400.0  # r_mean beyond 255
        self._expect_load_error(tmp_path, doc, "entries\\[0\\]")

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

    def test_invalid_phong_rejected(self, tmp_path, rng):
        make_corpus(tmp_path / "c", rng, {"a": 2})
        save_index(build_index(tmp_path / "c", phong=PhongParams()), tmp_path / "ix.json")
        doc = json.loads((tmp_path / "ix.json").read_text())
        doc["phong"]["ns"] = 0.0
        self._expect_load_error(tmp_path, doc, "phong")
