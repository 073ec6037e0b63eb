import base64
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shadesearch
from shadesearch.cli import main
from shadesearch.features import FEATURE_COUNT
from shadesearch.image import decode_ppm, encode_ppm

from conftest import random_rgb


def _run_cli(*args: str, **environ: str) -> subprocess.CompletedProcess:
    """Run ``python -m shadesearch`` in a child process, so tracebacks show."""
    env = dict(os.environ, PYTHONPATH=str(Path(shadesearch.__file__).resolve().parents[1]),
               **environ)
    return subprocess.run([sys.executable, "-m", "shadesearch", *args],
                          capture_output=True, text=True, env=env)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic corpus plus shaded and unshaded indices, built via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    assert main(["synth", str(corpus), "--seed", "42"]) == 0
    shaded = root / "shaded.json"
    unshaded = root / "unshaded.json"
    assert main(["index", str(corpus), "--out", str(shaded), "--phong"]) == 0
    assert main(["index", str(corpus), "--out", str(unshaded)]) == 0
    return {"root": root, "corpus": corpus, "shaded": shaded, "unshaded": unshaded}


class TestIndexCommand:
    def test_entry_count_matches_corpus(self, workspace):
        doc = json.loads(workspace["shaded"].read_text())
        assert len(doc["paths"]) == 70
        assert len(base64.b64decode(doc["features"])) == 70 * FEATURE_COUNT * 8
        assert doc["phong"] is not None

    def test_omitted_phong_flag_records_null(self, workspace):
        doc = json.loads(workspace["unshaded"].read_text())
        assert doc["phong"] is None

    def test_empty_corpus_fails_with_message(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        code = main(["index", str(tmp_path / "empty"), "--out", str(tmp_path / "ix.json")])
        assert code != 0
        captured = capsys.readouterr()
        assert "error" in captured.err and "no" in captured.err
        assert captured.out == ""

    def test_root_level_image_fails_with_one_line(self, tmp_path, rng):
        corpus = tmp_path / "c"
        (corpus / "a").mkdir(parents=True)
        for rel in ("a/00.ppm", "root.ppm"):
            (corpus / rel).write_bytes(encode_ppm(random_rgb(rng, 4, 4)))
        done = _run_cli("index", str(corpus), "--out", str(tmp_path / "ix.json"))
        assert done.returncode == 1
        assert done.stderr == (f"error: {corpus / 'root.ppm'}: image lies directly under "
                               "the corpus root, outside any category directory\n")
        assert done.stdout == ""
        assert not (tmp_path / "ix.json").exists()

    def test_unextractable_image_fails_with_one_line(self, tmp_path, rng):
        corpus = tmp_path / "c"
        (corpus / "a").mkdir(parents=True)
        (corpus / "a" / "00.ppm").write_bytes(encode_ppm(random_rgb(rng, 4, 4)))
        (corpus / "a" / "thin.ppm").write_bytes(encode_ppm(random_rgb(rng, 1, 5)))
        done = _run_cli("index", str(corpus), "--out", str(tmp_path / "ix.json"))
        assert done.returncode == 1
        assert done.stderr == ("error: a/thin.ppm: offset (1, 0) yields no pixel pairs "
                               "on a 1x5 image\n")
        assert done.stdout == ""
        assert not (tmp_path / "ix.json").exists()


class TestQueryCommand:
    def test_indexed_image_ranks_itself_first(self, workspace, capsys):
        image = workspace["corpus"] / "checker" / "00.ppm"
        code = main(["query", str(workspace["shaded"]), str(image), "--format", "plain"])
        assert code == 0
        first = capsys.readouterr().out.splitlines()[0].split("\t")
        assert first == ["1", "checker/00.ppm", "checker", "0.000000"]

    def test_top_limits_output_lines(self, workspace, capsys):
        image = workspace["corpus"] / "hue" / "03.ppm"
        assert main(
            ["query", str(workspace["unshaded"]), str(image), "--top", "3",
             "--format", "plain"]
        ) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_csv_output_distances_non_decreasing(self, workspace, capsys):
        image = workspace["corpus"] / "stripes" / "05.ppm"
        assert main(
            ["query", str(workspace["unshaded"]), str(image), "--format", "csv"]
        ) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 12
        distances = [float(r["distance"]) for r in rows]
        assert distances == sorted(distances)

    def test_deeply_nested_index_fails_with_one_line(self, tmp_path):
        index = tmp_path / "deep.json"
        index.write_text("[" * 200_000 + "]" * 200_000)
        done = _run_cli("query", str(index), str(tmp_path / "q.ppm"))
        assert done.returncode == 1
        assert done.stderr.startswith(f"error: {index}: malformed index document")
        assert len(done.stderr.splitlines()) == 1 and "Traceback" not in done.stderr
        assert done.stdout == ""

    def test_unextractable_query_image_fails_with_one_line(self, workspace, tmp_path, rng):
        image = tmp_path / "thin.ppm"
        image.write_bytes(encode_ppm(random_rgb(rng, 1, 5)))
        done = _run_cli("query", str(workspace["unshaded"]), str(image))
        assert done.returncode == 1
        assert done.stderr == (f"error: {image}: offset (1, 0) yields no pixel pairs "
                               "on a 1x5 image\n")
        assert done.stdout == ""

    def test_unencodable_result_prints_nothing(self, tmp_path, rng, monkeypatch, capsys):
        corpus = tmp_path / "c"
        for rel in ("café/00.ppm", "café/01.ppm", "tea/00.ppm"):
            (corpus / rel).parent.mkdir(parents=True, exist_ok=True)
            (corpus / rel).write_bytes(encode_ppm(random_rgb(rng, 6, 6)))
        index, image = tmp_path / "ix.json", corpus / "tea" / "00.ppm"
        assert main(["index", str(corpus), "--out", str(index)]) == 0
        done = _run_cli("query", str(index), str(image), PYTHONIOENCODING="ascii")
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith("error: 'ascii' codec can't encode character")
        assert len(done.stderr.splitlines()) == 1 and "Traceback" not in done.stderr
        for fmt in ("table", "csv", "plain"):  # the same in process, for every format
            ascii_out = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
            monkeypatch.setattr(sys, "stdout", ascii_out)
            capsys.readouterr()
            assert main(["query", str(index), str(image), "--format", fmt]) == 1
            ascii_out.flush()
            assert ascii_out.buffer.getvalue() == b""
            assert capsys.readouterr().err.startswith("error: 'ascii' codec")

    def test_missing_index_file_fails(self, workspace, capsys):
        image = workspace["corpus"] / "hue" / "00.ppm"
        assert main(["query", str(workspace["root"] / "nope.json"), str(image)]) != 0
        assert "error" in capsys.readouterr().err


class TestEvalCommand:
    def test_report_files_and_row_counts(self, workspace, capsys, tmp_path):
        report = tmp_path / "report"
        code = main(
            ["eval", str(workspace["shaded"]), str(workspace["unshaded"]),
             "--report-dir", str(report)]
        )
        assert code == 0
        with open(report / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert sum(1 for r in rows if r["mode"] == "shaded") == 5
        assert sum(1 for r in rows if r["mode"] == "unshaded") == 5
        # default --top is 12
        assert all(int(r["retrieved"]) == 12 for r in rows)
        assert (report / "report.html").exists()

    def test_mismatched_corpora_fail(self, workspace, tmp_path, capsys, rng):
        other = tmp_path / "other"
        (other / "cat").mkdir(parents=True)
        (other / "cat" / "0.ppm").write_bytes(encode_ppm(random_rgb(rng, 8, 8)))
        shaded_other = tmp_path / "other_shaded.json"
        assert main(["index", str(other), "--out", str(shaded_other), "--phong"]) == 0
        capsys.readouterr()
        code = main(["eval", str(shaded_other), str(workspace["unshaded"])])
        assert code != 0
        assert "corpora" in capsys.readouterr().err

    def test_different_extraction_options_fail_naming_both_files(self, workspace, tmp_path):
        other = tmp_path / "unshaded16.json"
        assert main(["index", str(workspace["corpus"]), "--out", str(other),
                     "--levels", "16", "--edge-threshold", "100"]) == 0
        report = tmp_path / "report"
        done = _run_cli("eval", str(workspace["shaded"]), str(other),
                        "--report-dir", str(report))
        assert done.returncode == 1
        assert done.stderr == (
            f"error: {workspace['shaded']} and {other} were built with different extraction "
            "options: levels is 8 in the first and 16 in the second; rebuild them with the "
            "same options\n")
        assert done.stdout == ""
        assert not report.exists()

    def test_swapped_indices_fail(self, workspace, capsys):
        code = main(["eval", str(workspace["unshaded"]), str(workspace["shaded"])])
        assert code != 0
        assert "shading" in capsys.readouterr().err


class TestTopFlag:
    @pytest.mark.parametrize("command", ["query", "eval"])
    @pytest.mark.parametrize("value, message", [("0", "must be >= 1"), ("-3", "must be >= 1"),
                                                ("x", "invalid int value: 'x'")])
    def test_bad_top_names_the_flag(self, workspace, tmp_path, capsys, command, value,
                                    message):
        if command == "query":
            args = [str(workspace["shaded"]), str(workspace["corpus"] / "hue" / "00.ppm")]
        else:
            args = [str(workspace["shaded"]), str(workspace["unshaded"]),
                    "--report-dir", str(tmp_path / "report")]
        with pytest.raises(SystemExit) as info:
            main([command, *args, "--top", value])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1].endswith(f"error: argument --top: {message}")
        assert captured.out == "" and list(tmp_path.iterdir()) == []


class TestShadeCommand:
    def test_identity_configuration_round_trips(self, tmp_path, capsys, rng):
        img = random_rgb(rng, 9, 6)
        src = tmp_path / "in.ppm"
        dst = tmp_path / "out.ppm"
        src.write_bytes(encode_ppm(img))
        code = main(
            ["shade", str(src), "--out", str(dst),
             "--ka", "1", "--ia", "1", "--kd", "0", "--ks", "0"]
        )
        assert code == 0
        assert decode_ppm(dst.read_bytes()) == img

    def test_tiled_mode_writes_output(self, tmp_path, rng):
        src = tmp_path / "in.ppm"
        dst = tmp_path / "out.ppm"
        src.write_bytes(encode_ppm(random_rgb(rng, 12, 12)))
        assert main(["shade", str(src), "--out", str(dst), "--tiled", "4"]) == 0
        assert dst.exists()

    def test_tile_of_one_is_a_parameter_error(self, tmp_path, capsys, rng):
        src = tmp_path / "in.ppm"
        src.write_bytes(encode_ppm(random_rgb(rng, 4, 4)))
        with pytest.raises(SystemExit) as info:
            main(["shade", str(src), "--out", str(tmp_path / "o.ppm"), "--tiled", "1"])
        assert info.value.code == 2
        assert "tile" in capsys.readouterr().err


class TestIntFlags:
    @pytest.mark.parametrize("args, message", [
        (["shade", "{d}/in.ppm", "--out", "{d}/out.ppm", "--tiled", "1"], "--tiled: must be >= 2"),
        (["shade", "{d}/in.ppm", "--out", "{d}/out.ppm", "--tiled", "0"], "--tiled: must be >= 2"),
        (["synth", "{d}/corpus", "--seed", "-1"], "--seed: must be >= 0"),
    ])
    def test_bad_value_names_the_flag(self, tmp_path, rng, args, message):
        (tmp_path / "in.ppm").write_bytes(encode_ppm(random_rgb(rng, 4, 4)))
        result = _run_cli(*(arg.format(d=tmp_path) for arg in args))
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.splitlines()[-1].endswith(f"error: argument {message}")
        assert [p.name for p in tmp_path.iterdir()] == ["in.ppm"]


class TestSynthCommand:
    def test_same_seed_twice_is_identical(self, tmp_path):
        for name in ("one", "two"):
            assert main(["synth", str(tmp_path / name), "--seed", "7"]) == 0
        files_one = sorted((tmp_path / "one").rglob("*.ppm"))
        files_two = sorted((tmp_path / "two").rglob("*.ppm"))
        assert [p.name for p in files_one] == [p.name for p in files_two]
        for a, b in zip(files_one, files_two):
            assert a.read_bytes() == b.read_bytes()


class TestNonFiniteOptions:
    @pytest.mark.parametrize("command, flag, value, field", [
        ("index", "--ka", "nan", "ka"),
        ("index", "--edge-threshold", "nan", "edge_threshold"),
        ("shade", "--height-scale", "inf", "height_scale"),
        ("shade", "--ns", "nan", "ns"),
        ("shade", "--ks", "1e308", "255*il*ks"),
    ])
    def test_fails_with_one_line_naming_the_field(self, workspace, tmp_path, command, flag,
                                                   value, field):
        out = tmp_path / "out"
        if command == "index":
            args = ["index", str(workspace["corpus"]), "--phong"]
        else:
            args = ["shade", str(workspace["corpus"] / "hue" / "00.ppm")]
        done = _run_cli(*args, "--out", str(out), flag, value)
        assert done.returncode == 1
        assert done.stderr.startswith(f"error: {field} ")
        assert len(done.stderr.splitlines()) == 1 and "Traceback" not in done.stderr
        assert done.stdout == ""
        assert list(tmp_path.iterdir()) == []


class TestWriteErrors:
    @pytest.mark.parametrize("command", ["index", "shade"])
    def test_missing_directory_names_the_target(self, workspace, tmp_path, command):
        target = tmp_path / "missing" / "x.out"
        source = workspace["corpus"]
        if command == "shade":
            source = source / "hue" / "00.ppm"
        done = _run_cli(command, str(source), "--out", str(target))
        assert done.returncode == 1
        assert done.stderr == f"error: [Errno 2] No such file or directory: '{target}'\n"
        assert done.stdout == ""
        assert list(tmp_path.iterdir()) == []
