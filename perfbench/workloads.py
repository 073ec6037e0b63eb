"""The benchmark's workloads: inputs made from a seed, rounds, and checks.

A workload's ``setup`` writes its inputs under a fresh directory and prepares
what the program needs before timing starts. ``round`` runs one fixed
sequence of public shadesearch calls, each timed by the ``Stopwatch`` it is
given, and returns a ``Round``: how many operations it attempted, a
fingerprint of everything it produced, and the time of each timed section. Every round of a run does the same operations on the
same inputs, so every fingerprint must equal the warm-up round's. ``check``
tests the warm-up round's outputs against the oracles and returns the
problems found. ``named_metrics`` turns the rounds' timings into the figures
a user of that workload reads.

All workloads are closed loop, one process, one thread.
"""

import contextlib
import hashlib
import io
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import oracles
from shadesearch import cli, evaluation, features, image, indexing, search, shading
from tracing import directory_bytes

TOP_K = 12
PHONG = shading.PhongParams()
PHONG_FIELDS = {name: getattr(PHONG, name) for name in
                ("ka", "kd", "ks", "ia", "il", "ns", "light_dir", "view_dir", "height_scale")}


@dataclass
class Round:
    ops: int
    fingerprint: str
    timings: dict[str, list[float]]
    keep: dict = field(default_factory=dict)  # outputs the checks read


class Stopwatch:
    """Times the sections of a round; ``before`` runs ahead of each, untimed."""

    def __init__(self, before=None):
        self.before = before
        self.timings: dict[str, list[float]] = {}

    @contextlib.contextmanager
    def time(self, name: str):
        if self.before is not None:
            self.before()
        start = perf_counter()
        yield
        self.timings.setdefault(name, []).append(perf_counter() - start)

    def total(self) -> float:
        return sum(sum(times) for times in self.timings.values())


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _merged(rounds: list[Round], key: str) -> list[float]:
    return [t for r in rounds for t in r.timings[key]]


def _per_round(rounds: list[Round], key: str) -> list[float]:
    return [sum(r.timings[key]) for r in rounds]


def _index_matrix(ix) -> tuple[np.ndarray, list[str], list[str]]:
    return (np.array([e.features for e in ix.entries], dtype=np.float64),
            [e.path for e in ix.entries], [e.category for e in ix.entries])


def _close(got, want, tol: float) -> bool:
    return all(abs(g - w) <= tol * max(1.0, abs(w)) for g, w in zip(got, want))


class CorpusEval:
    """The paper's experiment on several merged seeds of the synthetic corpus."""

    name = "corpus-eval"
    SETUP_REPEATS = 7
    SEEDS = 4  # 4 x 70 = 280 images of 64 x 64

    def __init__(self, seed: int):
        self.seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(self.SEEDS)]

    def setup(self, directory: Path) -> dict:
        corpus = directory / "corpus"
        for k, seed in enumerate(self.seeds):
            generated = evaluation.generate_synthetic_corpus(directory / f"gen{k}", seed=seed)
            for src in sorted(generated.glob("*/*.ppm")):
                dst = corpus / src.parent.name / f"{k}-{src.name}"
                dst.parent.mkdir(parents=True, exist_ok=True)
                src.rename(dst)
            shutil.rmtree(generated)
        return {"dir": directory, "corpus": corpus}

    def round(self, st: dict, sw: Stopwatch) -> Round:
        out = st["dir"]
        saved = {m: out / m / "index.json" for m in ("shaded", "unshaded")}
        built, loaded, results = {}, {}, {}
        for mode, phong in (("shaded", PHONG), ("unshaded", None)):
            with sw.time("index"):
                built[mode] = indexing.build_index(st["corpus"], phong=phong)
        for mode, path in saved.items():
            path.parent.mkdir(exist_ok=True)
            with sw.time("save"):
                indexing.save_index(built[mode], path)
        for mode, path in saved.items():
            with sw.time("load"):
                loaded[mode] = indexing.load_index(path)
        for mode, ix in loaded.items():
            with sw.time("eval"):
                results[mode] = evaluation.run_experiment(ix, TOP_K, "all_queries_averaged")
        with sw.time("report"):
            written = evaluation.emit_report(results["shaded"], results["unshaded"],
                                             out / "report")
        files = [p.read_bytes() for p in list(saved.values()) + written]
        n = len(built["shaded"].entries)
        return Round(ops=4 * n + 2,  # images indexed and queries evaluated, twice; two saves
                     fingerprint=_digest(*files, results),
                     timings=sw.timings,
                     keep={"loaded": loaded, "results": results,
                           "bytes": sum(directory_bytes(p.parent) for p in saved.values())})

    def check(self, st: dict, ref: Round) -> list[str]:
        problems = []
        for mode, ix in ref.keep["loaded"].items():
            raw, paths, cats = _index_matrix(ix)
            want = oracles.brute_eval(raw, paths, cats, TOP_K)
            got = {r.category: (r.relevant_retrieved, r.retrieved, r.relevant_in_db)
                   for r in ref.keep["results"][mode].rows}
            if got != want:
                problems.append(f"{mode} per-category counts {got} != brute force {want}")
        shaded, unshaded = ref.keep["loaded"]["shaded"], ref.keep["loaded"]["unshaded"]
        for e_s, e_u in list(zip(shaded.entries, unshaded.entries))[::7]:
            pixels = oracles.ppm_pixels((st["corpus"] / e_u.path).read_bytes())
            lit = shading.shade_image(image.RgbImage(pixels), PHONG).pixels
            for label, entry, px in (("unshaded", e_u, pixels), ("shaded", e_s, lit)):
                want = oracles.colour_stats(px)
                if not _close(entry.features[:9], want, 1e-9) or \
                        entry.features[1:9:3] != tuple(want[1:9:3]):
                    problems.append(f"{label} colour slots of {entry.path}: "
                                    f"{entry.features[:9]} != {want}")
        return problems

    def named_metrics(self, ref: Round, rounds: list[Round], round_s: float) -> dict:
        n = (ref.ops - 2) // 4
        return {
            "pipeline_s": (round_s, "s"),
            "index_images_per_s": (2 * n / statistics.median(_per_round(rounds, "index")),
                                   "images/s"),
            "eval_queries_per_s": (2 * n / statistics.median(_per_round(rounds, "eval")),
                                   "queries/s"),
        }


class LargeIndexQuery:
    """Warm queries, a CLI query and a re-save against a 10k-entry index of tiny images."""

    name = "large-index-query"
    SETUP_REPEATS = 3  # each builds the whole index
    ENTRIES = 10_000
    SIDE = 8
    CATEGORIES = 16
    HELD_OUT = 3  # queries that are not in the index
    INDEXED = 3  # queries that are, and must find themselves at distance 0

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, directory: Path) -> dict:
        rng = np.random.default_rng(self.seed)
        total = self.ENTRIES + self.HELD_OUT
        tint = rng.integers(0, 256, size=(self.CATEGORIES, 3))
        noise = rng.integers(-60, 61, size=(total, self.SIDE, self.SIDE, 3))
        cats = np.arange(total) % self.CATEGORIES
        pixels = np.clip(tint[cats][:, None, None, :] + noise, 0, 255).astype(np.uint8)
        picks = rng.choice(self.ENTRIES, size=self.INDEXED, replace=False)
        corpus = directory / "corpus"
        rels = [f"c{cats[i]:02d}/{i:05d}.ppm" for i in range(self.ENTRIES)]
        for c in range(self.CATEGORIES):
            (corpus / f"c{c:02d}").mkdir(parents=True)
        for rel, px in zip(rels, pixels):
            (corpus / rel).write_bytes(oracles.ppm_bytes(px))
        saved = directory / "index" / "index.json"
        saved.parent.mkdir()
        indexing.save_index(indexing.build_index(corpus), saved)
        order = list(range(self.ENTRIES, total)) + [int(i) for i in picks]
        query_bytes = [oracles.ppm_bytes(pixels[i]) for i in order]
        cli_image = directory / "query.ppm"
        cli_image.write_bytes(query_bytes[0])
        return {"dir": directory, "saved": saved, "saved_bytes": saved.read_bytes(),
                "cli_image": cli_image,
                "queries": [image.decode_ppm(b) for b in query_bytes],
                "self_paths": [None] * self.HELD_OUT + [rels[int(i)] for i in picks]}

    def round(self, st: dict, sw: Stopwatch) -> Round:
        with sw.time("load"):
            ix = indexing.load_index(st["saved"])
        answers = []
        for q in st["queries"]:
            with sw.time("query"):
                fv = features.extract_features(q)
                ranked = search.rank(fv, ix, TOP_K)
            answers.append((fv.values, [(r.path, r.distance) for r in ranked]))
        stdout = io.StringIO()
        with sw.time("cli"), contextlib.redirect_stdout(stdout):
            code = cli.main(["query", str(st["saved"]), str(st["cli_image"]),
                             "--top", str(TOP_K), "--format", "plain"])
        resaved = st["dir"] / "resave" / "index.json"
        resaved.parent.mkdir(exist_ok=True)
        with sw.time("save"):
            indexing.save_index(ix, resaved)
        data = resaved.read_bytes()
        return Round(ops=len(st["queries"]) + 2,  # warm queries, one CLI call, one save
                     fingerprint=_digest(answers, code, stdout.getvalue(), data),
                     timings=sw.timings,
                     keep={"index": ix, "answers": answers, "cli": (code, stdout.getvalue()),
                           "resaved": data, "bytes": directory_bytes(resaved.parent)})

    def check(self, st: dict, ref: Round) -> list[str]:
        problems = []
        raw, paths, _ = _index_matrix(ref.keep["index"])
        for (query, got), own in zip(ref.keep["answers"], st["self_paths"]):
            want = oracles.brute_rank(raw, paths, query, TOP_K)
            if [p for p, _ in got] != [p for p, _ in want] or \
                    any(abs(g - w) > 1e-9 for (_, g), (_, w) in zip(got, want)):
                problems.append(f"warm query top-{TOP_K} {got} != brute force {want}")
            if own is not None and got[0] != (own, 0.0):
                problems.append(f"indexed image {own} ranked {got[0]} first, not itself at 0")
        code, text = ref.keep["cli"]
        cli_paths = [line.split("\t")[1] for line in text.splitlines()]
        if code != 0 or cli_paths != [p for p, _ in ref.keep["answers"][0][1]]:
            problems.append(f"CLI query (exit {code}) listed {cli_paths}, warm rank did not")
        if ref.keep["resaved"] != st["saved_bytes"]:
            problems.append("re-saving the loaded index changed its bytes")
        return problems

    def named_metrics(self, ref: Round, rounds: list[Round], round_s: float) -> dict:
        ms = sorted(1e3 * t for t in _merged(rounds, "query"))
        out = {"query_ms_p50": (statistics.median(ms), "ms")}
        if len(ms) >= 100:  # at least ten samples above the 90th percentile
            out["query_ms_p90"] = (statistics.quantiles(ms, n=10)[-1], "ms")
        out["query_samples"] = (len(ms), "count")
        out["cli_query_s"] = (statistics.median(_merged(rounds, "cli")), "s")
        out["index_save_s"] = (statistics.median(_merged(rounds, "save")), "s")
        out["index_load_s"] = (statistics.median(_merged(rounds, "load")), "s")
        out["index_bytes"] = (ref.keep["bytes"], "bytes")
        return out


class HiresShade:
    """Exact shading, tiled shading and shaded extraction of 512 x 512 images."""

    name = "hires-shade"
    SETUP_REPEATS = 7
    SIDE = 512
    IMAGES = 2
    TILE = 8
    SAMPLES = 2000  # pixels per image checked against the shading oracle

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, directory: Path) -> dict:
        # Smooth relief (a few random plane waves) under per-image colours plus
        # pixel noise, so normals vary at every scale.
        rng = np.random.default_rng(self.seed)
        yy, xx = np.mgrid[0:self.SIDE, 0:self.SIDE] / self.SIDE
        directory.mkdir(parents=True)
        files = []
        for i in range(self.IMAGES):
            relief = np.zeros((self.SIDE, self.SIDE))
            for _ in range(4):
                fx, fy = rng.uniform(-8, 8, size=2)
                relief += rng.uniform(0.3, 1.0) * np.sin(2 * np.pi * (fx * xx + fy * yy)
                                                         + rng.uniform(0, 2 * np.pi))
            relief = (relief - relief.min()) / np.ptp(relief)
            colour = rng.uniform(0.4, 1.0, size=3)
            noise = rng.integers(-10, 11, size=(self.SIDE, self.SIDE, 3))
            px = np.clip(255 * relief[..., None] * colour + noise, 0, 255).astype(np.uint8)
            files.append(directory / f"{i}.ppm")
            files[-1].write_bytes(oracles.ppm_bytes(px))
        return {"images": [image.read_ppm(f) for f in files]}

    def round(self, st: dict, sw: Stopwatch) -> Round:
        exact, tiled, vectors = [], [], []
        for img in st["images"]:
            with sw.time("shade"):
                exact.append(shading.shade_image(img, PHONG))
            with sw.time("tiled"):
                tiled.append(shading.shade_image_tiled(img, PHONG, self.TILE))
            with sw.time("extract"):
                vectors.append(features.extract_features(img, phong=PHONG))
        return Round(ops=3 * len(st["images"]),  # images shaded exact, tiled, for features
                     fingerprint=_digest(*(i.pixels.tobytes() for i in exact + tiled),
                                         [v.values for v in vectors]),
                     timings=sw.timings,
                     keep={"exact": exact, "tiled": tiled, "vectors": vectors})

    def check(self, st: dict, ref: Round) -> list[str]:
        problems = []
        rng = np.random.default_rng(self.seed)
        for i, img in enumerate(st["images"]):
            exact = ref.keep["exact"][i].pixels
            tiled = ref.keep["tiled"][i].pixels
            h, w, _ = img.pixels.shape
            ys = np.concatenate(([0, 0, h - 1, h - 1], rng.integers(0, h, self.SAMPLES)))
            xs = np.concatenate(([0, w - 1, 0, w - 1], rng.integers(0, w, self.SAMPLES)))
            want = oracles.shade_pixels(img.pixels, ys, xs, **PHONG_FIELDS)
            worst = int(np.abs(exact[ys, xs].astype(np.int64) - want).max())
            if worst > 1:
                problems.append(f"image {i}: exact shading is {worst} off the pixel oracle")
            grid = np.ix_(oracles.lattice(h, self.TILE), oracles.lattice(w, self.TILE))
            if not np.array_equal(tiled[grid], exact[grid]):
                problems.append(f"image {i}: tiled shading differs from exact at lattice points")
            lit = features.extract_features(shading.shade_image(img, PHONG)).values
            if ref.keep["vectors"][i].values != lit:
                problems.append(f"image {i}: extract_features(img, phong) != "
                                "extract_features(shade_image(img))")
        return problems

    def named_metrics(self, ref: Round, rounds: list[Round], round_s: float) -> dict:
        mpix = self.SIDE * self.SIDE / 1e6
        return {f"{key}_mpix_per_s": (mpix / statistics.median(_merged(rounds, stage)), "Mpix/s")
                for key, stage in (("shade", "shade"), ("shade_tiled", "tiled"),
                                   ("extract", "extract"))}


WORKLOADS = {w.name: w for w in (CorpusEval, LargeIndexQuery, HiresShade)}
