"""Outputs that promise no atomicity are written as new files."""

import numpy as np
import pytest

from shadesearch import _files
from shadesearch.evaluation import (
    EvalResult,
    emit_report,
    generate_synthetic_corpus,
    make_eval_row,
)
from shadesearch.image import write_ppm

from conftest import FailingWriter, random_rgb


def _report(out_dir):
    shaded = EvalResult(k=12, mode="shaded",
                        rows=(make_eval_row("a", 6, 12, 14), make_eval_row("b", 9, 12, 14)))
    unshaded = EvalResult(k=12, mode="unshaded",
                          rows=(make_eval_row("a", 4, 12, 14), make_eval_row("b", 5, 12, 14)))
    return emit_report(shaded, unshaded, out_dir)


def _image(out_dir):
    path = out_dir / "shaded.ppm"
    write_ppm(path, random_rgb(np.random.default_rng(5), 7, 4))
    return [path]


def _corpus(out_dir):
    generate_synthetic_corpus(out_dir, seed=11)
    return sorted(out_dir.rglob("*.ppm"))


WRITERS = {"emit_report": _report, "write_ppm": _image, "generate_synthetic_corpus": _corpus}


def _temporary_files(root):
    return [p for p in root.rglob("*") if p.name.endswith(".tmp")]


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS)
class TestRewrites:
    def test_rewrite_is_byte_identical_on_new_inodes(self, tmp_path, write):
        first = write(tmp_path)
        before = {p: (p.read_bytes(), p.stat().st_ino) for p in first}
        assert write(tmp_path) == first
        for path, (data, inode) in before.items():
            assert path.read_bytes() == data
            assert path.stat().st_ino != inode
        assert _temporary_files(tmp_path) == []

    def test_failed_write_keeps_the_old_file(self, tmp_path, write, monkeypatch):
        first = write(tmp_path)
        before = {p: p.read_bytes() for p in first}
        monkeypatch.setattr(_files, "open",
                            lambda *a, **kw: FailingWriter(open(*a, **kw)), raising=False)
        with pytest.raises(OSError, match="disk full"):
            write(tmp_path)
        assert {p: p.read_bytes() for p in first} == before
        assert _temporary_files(tmp_path) == []

    def test_symlink_at_the_target_is_replaced_not_followed(self, tmp_path, write):
        first = write(tmp_path)
        before = {p: p.read_bytes() for p in first}
        elsewhere = tmp_path / "elsewhere"
        elsewhere.write_bytes(b"keep")
        for path in first:
            path.unlink()
            path.symlink_to(elsewhere)
        write(tmp_path)
        for path, data in before.items():
            assert not path.is_symlink()
            assert path.read_bytes() == data
        assert elsewhere.read_bytes() == b"keep"
