"""Per-layer tracing by wrapping shadesearch's public functions from outside.

``Tracer.install`` replaces each named function in every shadesearch module
namespace that holds it, so calls between modules (``build_index`` ->
``extract_features`` -> ``shade_image``) are caught as well as the
benchmark's own calls. Timed functions record a span (name, start, end,
parent); counted ones only bump a counter, since they are scalar oracles that
run per pixel or per entry. Spans and counts stay in memory until the run
writes them out. ``uninstall`` restores the original functions.
"""

import importlib
import os
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

TIMED = {
    "image": ("decode_ppm", "to_grayscale"),
    "shading": ("height_field_normals", "shade_image", "shade_image_tiled"),
    "features": ("extract_features", "channel_histogram", "channel_stats", "glcm",
                 "texture_features", "sobel_gradients", "edge_densities"),
    "search": ("rank", "fit_normalizer"),
    "indexing": ("scan_corpus", "build_index", "save_index", "load_index"),
    "evaluation": ("run_experiment", "emit_report"),
    "cli": ("main",),
}
COUNTED = {
    "shading": ("tile_ndoth", "phong_intensity"),
    "search": ("normalize", "euclidean_distance"),
}

# The per-layer metrics a traced run reports, as (name, unit, better). Times
# and counts are per traced round; the unit says so.
LAYER_METRICS = (
    ("image.decode_ppm.s", "s/round", "lower"),
    ("image.decode_ppm.calls", "calls/round", "lower"),
    ("image.to_grayscale.s", "s/round", "lower"),
    ("image.to_grayscale.calls", "calls/round", "lower"),
    ("shading.height_field_normals.s", "s/round", "lower"),
    ("shading.height_field_normals.calls", "calls/round", "lower"),
    ("shading.shade_image.s", "s/round", "lower"),
    ("shading.shade_image.calls", "calls/round", "lower"),
    ("shading.shade_image_tiled.s", "s/round", "lower"),
    ("shading.shade_image_tiled.calls", "calls/round", "lower"),
    ("shading.tile_ndoth.calls", "calls/round", "lower"),
    ("shading.phong_intensity.calls", "calls/round", "lower"),
    ("features.extract_features.s", "s/round", "lower"),
    ("features.extract_features.self_s", "s/round", "lower"),
    ("features.extract_features.calls", "calls/round", "lower"),
    ("features.channel_histogram.s", "s/round", "lower"),
    ("features.channel_stats.s", "s/round", "lower"),
    ("features.glcm.s", "s/round", "lower"),
    ("features.texture_features.s", "s/round", "lower"),
    ("features.sobel_gradients.s", "s/round", "lower"),
    ("features.edge_densities.s", "s/round", "lower"),
    ("search.rank.s", "s/round", "lower"),
    ("search.rank.self_s", "s/round", "lower"),
    ("search.rank.calls", "calls/round", "lower"),
    ("search.rank.entries", "entries/call", "lower"),
    ("search.fit_normalizer.s", "s/round", "lower"),
    ("search.normalize.calls", "calls/round", "lower"),
    ("search.euclidean_distance.calls", "calls/round", "lower"),
    ("indexing.scan_corpus.s", "s/round", "lower"),
    ("indexing.scan_corpus.images", "images/round", "lower"),
    ("indexing.build_index.s", "s/round", "lower"),
    ("indexing.build_index.self_s", "s/round", "lower"),
    ("indexing.save_index.s", "s/round", "lower"),
    ("indexing.save_index.bytes", "bytes/round", "lower"),
    ("indexing.load_index.s", "s/round", "lower"),
    ("indexing.load_index.self_s", "s/round", "lower"),
    ("evaluation.run_experiment.s", "s/round", "lower"),
    ("evaluation.run_experiment.self_s", "s/round", "lower"),
    ("evaluation.run_experiment.queries", "queries/round", "lower"),
    ("evaluation.emit_report.s", "s/round", "lower"),
    ("evaluation.kept_per_ranked", "ratio", "higher"),
    ("cli.main.s", "s/round", "lower"),
    ("cli.main.self_s", "s/round", "lower"),
    ("trace.overhead_s", "s/round", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)


class Tracer:
    """Spans and counts for the shadesearch calls made while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        self._patched: list[tuple] = []

    def _wrap_all(self) -> None:
        for layer, names in list(TIMED.items()) + list(COUNTED.items()):
            module = importlib.import_module(f"shadesearch.{layer}")
            for name in names:
                fn = getattr(module, name)
                make = self._timed if name in TIMED.get(layer, ()) else self._counted
                self._wrappers[id(fn)] = (fn, make(f"{layer}.{name}", fn))

    def install(self) -> None:
        if not self._wrappers:
            self._wrap_all()
        modules = [m for key, m in sys.modules.items()
                   if key == "shadesearch" or key.startswith("shadesearch.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _counted(self, name, fn):
        key = f"{name}.calls"
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, name, fn):
        spans, stack = self.spans, self._stack
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None


def _after_rank(tracer, args, kwargs, result):
    index = args[1] if len(args) > 1 else kwargs["index"]
    tracer.counts["search.rank.entries"] += len(index.entries)
    if tracer.parent_name() == "evaluation.run_experiment":
        tracer.counts["evaluation.run_experiment.queries"] += 1
        tracer.counts["evaluation.ranked"] += len(result)


def _after_run_experiment(tracer, args, kwargs, result):
    tracer.counts["evaluation.kept"] += sum(row.retrieved for row in result.rows)


def _after_scan_corpus(tracer, args, kwargs, result):
    tracer.counts["indexing.scan_corpus.images"] += len(result)


def _after_save_index(tracer, args, kwargs, result):
    # The benchmark gives every saved index a directory of its own, so the
    # directory's files are exactly the files save_index wrote.
    path = Path(args[1] if len(args) > 1 else kwargs["path"])
    tracer.counts["indexing.save_index.bytes"] += directory_bytes(path.parent)


_AFTER = {
    "search.rank": _after_rank,
    "evaluation.run_experiment": _after_run_experiment,
    "indexing.scan_corpus": _after_scan_corpus,
    "indexing.save_index": _after_save_index,
}


def directory_bytes(directory: Path) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(directory) if entry.is_file())


def layer_metrics(tracer: Tracer, rounds: int, overhead_s: float,
                  overhead_share: float) -> dict[str, float]:
    """Per-round inclusive time, self time and calls per span name, plus the extras."""
    total: Counter = Counter()
    child: Counter = Counter()
    calls: Counter = Counter()
    for name, start, end, parent in tracer.spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child[tracer.spans[parent][0]] += end - start
    counts = tracer.counts
    values = {
        "search.rank.entries": _ratio(counts["search.rank.entries"], calls["search.rank"]),
        "evaluation.kept_per_ranked": _ratio(counts["evaluation.kept"],
                                             counts["evaluation.ranked"]),
        "trace.overhead_s": overhead_s,
        "trace.overhead_share": overhead_share,
    }
    for name, _, _ in LAYER_METRICS:
        base, _, suffix = name.rpartition(".")
        if name in values:
            continue
        if suffix == "s":
            values[name] = total[base] / rounds
        elif suffix == "self_s":
            values[name] = (total[base] - child[base]) / rounds
        elif suffix == "calls":
            values[name] = (calls[base] + counts[name]) / rounds
        else:
            values[name] = counts[name] / rounds
    return {name: values[name] for name, _, _ in LAYER_METRICS}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
