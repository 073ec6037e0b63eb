"""Independent reference computations the benchmark checks the program against.

Nothing here imports shadesearch: each oracle recomputes a result from the
documented method with plain numpy, so a fault in the program cannot hide in
the check. ``self_test`` pins every oracle to hand-worked inputs and runs at
the start of every benchmark run.
"""

import math

import numpy as np

LUMA_WEIGHTS = (0.299, 0.587, 0.114)


class OracleError(AssertionError):
    """An oracle disagreed with its hand-worked expectation."""


def ppm_bytes(pixels: np.ndarray) -> bytes:
    """Binary P6 encoding of an (h, w, 3) uint8 array."""
    h, w, _ = pixels.shape
    return f"P6\n{w} {h}\n255\n".encode("ascii") + np.ascontiguousarray(pixels).tobytes()


def ppm_pixels(data: bytes) -> np.ndarray:
    """Decode the exact header ``ppm_bytes`` and the program's encoder write."""
    magic, dims, maxval, payload = data.split(b"\n", 3)
    if magic != b"P6" or maxval != b"255":
        raise ValueError("not a P6/255 image")
    w, h = (int(v) for v in dims.split())
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3)


def colour_stats(pixels: np.ndarray) -> list[float]:
    """Per channel (R, G, B): mean, lower median, population std, from raw pixels."""
    out = []
    for c in range(3):
        values = np.sort(pixels[..., c].ravel().astype(np.float64))
        mean = float(values.mean())
        out += [mean, float(values[(values.size - 1) // 2]),
                float(np.sqrt(((values - mean) ** 2).mean()))]
    return out


def min_max_scale(raw: np.ndarray, query: np.ndarray | None = None):
    """Scale rows of ``raw`` (and ``query``) to the per-column range of ``raw``.

    Constant columns map to 0, and the query is not clamped.
    """
    lo, hi = raw.min(axis=0), raw.max(axis=0)
    span = hi - lo
    safe = np.where(span > 0, span, 1.0)

    def scale(x):
        return np.where(span > 0, (x - lo) / safe, 0.0)

    return scale(raw), (None if query is None else scale(np.asarray(query, dtype=np.float64)))


def _path_ranks(paths: list[str]) -> np.ndarray:
    ranks = np.empty(len(paths), dtype=np.int64)
    ranks[np.argsort(np.array(paths, dtype=object), kind="stable")] = np.arange(len(paths))
    return ranks


def brute_rank(raw: np.ndarray, paths: list[str], query_raw, k: int) -> list[tuple[str, float]]:
    """Top-k (path, distance) by Euclidean distance after min-max scaling, ties by path."""
    x, q = min_max_scale(np.asarray(raw, dtype=np.float64), query_raw)
    d = np.sqrt(((x - q) ** 2).sum(axis=1))
    return [(paths[i], float(d[i])) for i in np.lexsort((_path_ranks(paths), d))[:k]]


def brute_eval(raw: np.ndarray, paths: list[str], categories: list[str],
               k: int) -> dict[str, tuple[int, int, int]]:
    """All-queries experiment: per category (relevant retrieved, retrieved, relevant in db).

    Every entry queries once with itself excluded; a result is relevant when
    it shares the query's category.
    """
    x, _ = min_max_scale(np.asarray(raw, dtype=np.float64))
    cats = np.array(categories, dtype=object)
    ranks = _path_ranks(paths)
    n = len(paths)
    keep = min(k, n - 1)
    totals: dict[str, list[int]] = {}
    for i in range(n):
        d = np.sqrt(((x - x[i]) ** 2).sum(axis=1))
        order = [j for j in np.lexsort((ranks, d)) if j != i][:keep]
        row = totals.setdefault(categories[i], [0, 0, 0])
        row[0] += int((cats[order] == categories[i]).sum())
        row[1] += keep
        row[2] += int((cats == categories[i]).sum()) - 1
    return {c: tuple(v) for c, v in totals.items()}


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    return v / math.sqrt(float((v * v).sum()))


def shade_pixels(pixels: np.ndarray, ys, xs, *, ka, kd, ks, ia, il, ns,
                 light_dir, view_dir, height_scale) -> np.ndarray:
    """Phong-shaded values of the sampled pixels, as an (n, 3) int array.

    Normals come from central differences of the BT.601 gray height field with
    edge replication; each channel c becomes
    clamp(round(ia*ka*c + il*kd*(N.L)*c + 255*il*ks*(N.H)^ns)), dots clamped at 0.
    """
    h, w, _ = pixels.shape
    light = _unit(light_dir)
    half = _unit(light + _unit(view_dir))
    out = np.empty((len(ys), 3), dtype=np.int64)

    def height(y, x):
        r, g, b = (float(v) for v in pixels[y, x])
        gray = min(255.0, max(0.0, math.floor(r * LUMA_WEIGHTS[0] + g * LUMA_WEIGHTS[1]
                                              + b * LUMA_WEIGHTS[2] + 0.5)))
        return gray * (height_scale / 255.0)

    for i, (y, x) in enumerate(zip(ys, xs)):
        dhdx = (height(y, min(x + 1, w - 1)) - height(y, max(x - 1, 0))) / 2.0
        dhdy = (height(min(y + 1, h - 1), x) - height(max(y - 1, 0), x)) / 2.0
        n = _unit((-dhdx, -dhdy, 1.0))
        ndl = max(float(n @ light), 0.0)
        ndh = max(float(n @ half), 0.0)
        for c in range(3):
            v = float(pixels[y, x, c])
            lit = ia * ka * v + il * kd * ndl * v + 255.0 * il * ks * ndh**ns
            out[i, c] = min(255, max(0, math.floor(lit + 0.5)))
    return out


def lattice(extent: int, tile: int) -> list[int]:
    """Tile-corner coordinates: every ``tile`` pixels, plus the far edge."""
    marks = list(range(0, extent, tile))
    return marks if marks[-1] == extent - 1 else marks + [extent - 1]


def _expect(label: str, got, want) -> None:
    if got != want:
        raise OracleError(f"oracle self-test {label}: got {got!r}, want {want!r}")


def self_test() -> None:
    """Check every oracle on inputs whose answers were worked out by hand."""
    px = np.array([[[1, 0, 7], [2, 0, 7]], [[3, 0, 7], [10, 0, 7]]], dtype=np.uint8)
    _expect("ppm round trip", ppm_pixels(ppm_bytes(px)).tolist(), px.tolist())
    # R = 1, 2, 3, 10: mean 4, lower median 2, variance (9 + 4 + 1 + 36) / 4.
    _expect("colour stats", colour_stats(px),
            [4.0, 2.0, math.sqrt(12.5), 0.0, 0.0, 0.0, 7.0, 7.0, 0.0])

    # Column 0 spans 0..10 and column 1 spans 0..5, so the rows scale to
    # (0, 0), (1, 1), (0.5, 1); the raw query (0, 0) scales to (0, 0).
    raw = np.array([[0.0, 0.0], [10.0, 5.0], [5.0, 5.0]])
    _expect("rank", brute_rank(raw, ["a", "b", "c"], [0.0, 0.0], 2),
            [("a", 0.0), ("c", math.sqrt(1.25))])
    _expect("rank ties by path", [p for p, _ in brute_rank(raw[[1, 1, 0]], ["z", "y", "x"],
                                                            [10.0, 5.0], 3)], ["y", "z", "x"])
    # 1-d points 0, 1 (category p) and 10, 11 (category q): with k = 1 each
    # query's nearest other point is its partner.
    _expect("eval", brute_eval(np.array([[0.0], [1.0], [10.0], [11.0]]), ["a", "b", "c", "d"],
                               ["p", "p", "q", "q"], 1), {"p": (2, 2, 2), "q": (2, 2, 2)})
    _expect("eval k beyond corpus", brute_eval(np.array([[0.0], [1.0], [10.0]]),
                                               ["a", "b", "c"], ["p", "p", "q"], 5),
            {"p": (2, 4, 2), "q": (0, 2, 0)})

    # A flat image has N = (0, 0, 1), so N.L = 1/sqrt(3) and
    # N.H = (1 + 1/sqrt(3)) / sqrt(2 + 2/sqrt(3)) = 0.888074; with the default
    # coefficients channel c becomes 0.2c + 0.34641c + 23.343.
    defaults = dict(ka=0.2, kd=0.6, ks=0.3, ia=1.0, il=1.0, ns=10.0,
                    light_dir=(1.0, 1.0, 1.0), view_dir=(0.0, 0.0, 1.0), height_scale=10.0)
    flat = np.broadcast_to(np.array([0, 100, 255], dtype=np.uint8), (3, 3, 3))
    _expect("flat shading", shade_pixels(flat, [0, 1], [0, 2], **defaults).tolist(),
            [[23, 78, 163], [23, 78, 163]])
    # A gray ramp rising 51 per column has dh/dx = 2 inside and 1 on the
    # replicated edge columns; a white pixel lit by the ambient term alone
    # stays 0.2 * 255 = 51.
    ramp = np.broadcast_to(np.array([0, 51, 102], dtype=np.uint8)[None, :, None], (2, 3, 3))
    ambient = dict(defaults, kd=0.0, ks=0.0)
    _expect("ambient only", shade_pixels(np.full((2, 2, 3), 255, np.uint8), [1], [1],
                                         **ambient).tolist(), [[51, 51, 51]])
    n_in, n_edge = _unit((-2.0, 0.0, 1.0)), _unit((-1.0, 0.0, 1.0))
    diffuse = dict(defaults, ka=0.0, ks=0.0, kd=1.0)
    want = [[math.floor(max(float(n @ _unit((1, 1, 1))), 0.0) * v + 0.5)] * 3
            for n, v in ((n_edge, 0), (n_in, 51), (n_edge, 102))]
    _expect("ramp diffuse", shade_pixels(ramp, [0, 0, 0], [0, 1, 2], **diffuse).tolist(), want)
    _expect("lattice", lattice(17, 8), [0, 8, 16])
    _expect("lattice far edge", lattice(20, 8), [0, 8, 16, 19])
