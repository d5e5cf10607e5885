"""The 25-graph benchmark suite: scaled analogues of the paper's datasets.

Each :class:`GraphSpec` names one paper graph, the generator call that
produces its laptop-scale analogue at ``bench`` and ``mini`` scales, and
the paper-reported statistics/times (Table 2) so the experiment
harnesses can print paper-vs-measured side by side.

Scale philosophy: the paper's graphs are up to 226B edges; the bench
analogues keep each family's *structural* stressor — power-law hubs for
social/web (contention), lattice/mesh cascades for road/GRID/TRCE/BBL
(subround counts), uniform-coreness k-NN graphs (few subrounds), the
HCNS one-vertex-per-coreness construction (bucket stress) — at
n ~ 1e4–2e5. ``mini`` (n ~ a few hundred to a few thousand) is for unit
tests.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from repro.graphs import generators as gen
from repro.graphs.csr import CSR, csr_from_codes


@dataclass(frozen=True)
class GraphSpec:
    key: str
    category: str  # social | web | road | knn | other
    bench: Callable[[], CSR]
    mini: Callable[[], CSR]
    paper: dict = field(default_factory=dict)
    note: str = ""


def _cl(n, avg, exp, seed, frac=0.02):
    return lambda: gen.chung_lu(n, avg, exp, seed=seed, max_weight_frac=frac)


def _cl_core(n, avg, exp, seed, cs, cavg, frac=0.02):
    """``planted_core(chung_lu(...))``, built from both edge sets at once."""
    return _cored(
        lambda extra: gen.chung_lu_codes(
            n, avg, exp, seed=seed, max_weight_frac=frac, extra=extra
        ),
        n, cs, cavg, seed,
    )


def _ba_core(n, m0, seed, cs, cavg):
    """``planted_core(barabasi_albert(...))``, built from both edge sets at once."""
    return _cored(
        lambda extra: gen.barabasi_albert_codes(n, m0, seed=seed, extra=extra),
        n, cs, cavg, seed,
    )


def _cored(codes, n, cs, cavg, seed):
    """One ``csr_from_codes`` of the buffer ``codes(extra)`` fills with
    the raw draws' pair codes followed by the planted edges': a build
    reads only the set of undirected pairs, so this is ``planted_core``
    of the graph the raw draws build."""
    return lambda: csr_from_codes(
        n, lambda: codes(gen.planted_edges(n, cs, cavg, seed=seed))
    )


def _road(side, seed):
    return lambda: gen.grid_2d(side, side, drop_prob=0.12, diag_prob=0.05, seed=seed)


def _knn(n, k, dims=2, clusters=0, seed=0):
    return lambda: gen.knn_graph(n, k, dims=dims, clusters=clusters, seed=seed)


def _mesh(side, hole, seed):
    return lambda: gen.honeycomb(side, side, hole_prob=hole, seed=seed)


def _paper(n, m, kmax, rho, seq, par, bz, julienne, park, pkc):
    """Paper Table 2 row; None marks T/O, OOM or a blank cell."""
    return {
        "n": n, "m": m, "kmax": kmax, "rho": rho,
        "seq": seq, "par": par, "bz": bz,
        "julienne": julienne, "park": park, "pkc": pkc,
    }


SUITE: dict[str, GraphSpec] = {}


def _add(spec: GraphSpec) -> None:
    SUITE[spec.key] = spec


# --------------------------------------------------------------- social
_add(GraphSpec("LJ", "social",
    _cl(60_000, 17, 2.3, 101), _cl(3_000, 10, 2.3, 201),
    _paper(4.85e6, 85.7e6, 372, 3480, 2.37, 0.203, 1.49, 0.631, 0.637, 0.518),
    "soc-LiveJournal1"))
_add(GraphSpec("OK", "social",
    _cl(25_000, 70, 2.5, 102), _cl(2_000, 25, 2.5, 202),
    _paper(3.07e6, 234e6, 253, 5667, 3.94, 0.526, 3.65, 1.23, 1.38, 0.810),
    "com-orkut"))
_add(GraphSpec("WB", "social",
    _cl(80_000, 9, 2.1, 103), _cl(3_000, 6, 2.1, 203),
    _paper(58.7e6, 523e6, 193, 2910, 29.5, 0.935, 14.3, 1.16, 2.64, 2.18),
    "soc-sinaweibo"))
_add(GraphSpec("TW", "social",
    _cl_core(60_000, 40, 1.9, 104, 500, 240, frac=0.04),
    _cl_core(2_500, 15, 1.9, 204, 80, 40, frac=0.04),
    _paper(41.7e6, 2.41e9, 2488, 14964, 62.2, 2.72, 61.2, 4.79, 857, 75.6),
    "Twitter"))
_add(GraphSpec("FS", "social",
    _cl(100_000, 40, 2.6, 105), _cl(3_000, 12, 2.6, 205),
    _paper(65.6e6, 3.61e9, 304, 10034, 126, 3.68, 174, 6.18, 416, 33.1),
    "Friendster"))
# ----------------------------------------------------------------- web
_add(GraphSpec("EH", "web",
    _cl_core(40_000, 45, 2.1, 106, 400, 320),
    _cl_core(2_000, 15, 2.1, 206, 60, 36),
    _paper(11.3e6, 522e6, 9877, 7393, 8.21, 0.795, 5.49, 1.39, 5.67, 8.22),
    "eu-host"))
_add(GraphSpec("SD", "web",
    _cl_core(90_000, 43, 2.0, 107, 500, 350),
    _cl_core(2_500, 14, 2.0, 207, 70, 40),
    _paper(89.3e6, 3.88e9, 10507, 19063, 140, 4.39, 143, 6.56, 410, 57.5),
    "sd-arc"))
_add(GraphSpec("CW", "web",
    _cl_core(150_000, 55, 1.9, 108, 400, 280, frac=0.04),
    _cl_core(3_000, 16, 1.9, 208, 60, 36, frac=0.04),
    _paper(978e6, 74.7e9, 4244, 106819, 2453, 28.6, 2328, None, None, None),
    "ClueWeb (Julienne cell blank in paper table; ParK/PKC T/O)"))
_add(GraphSpec("HL14", "web",
    _cl_core(180_000, 35, 2.0, 109, 400, 260),
    _cl_core(3_000, 12, 2.0, 209, 60, 32),
    _paper(1.72e9, 124e9, 4160, 58737, 3587, 54.7, None, None, None, None),
    "Hyperlink14 (BZ/ParK/PKC OOM; Julienne cell blank)"))
_add(GraphSpec("HL12", "web",
    _cl_core(200_000, 30, 2.0, 110, 500, 330),
    _cl_core(3_500, 11, 2.0, 210, 70, 40),
    _paper(3.56e9, 226e9, 10565, 130737, 9177, 108, None, 152, None, None),
    "Hyperlink12 (BZ/ParK/PKC OOM)"))
# ---------------------------------------------------------------- road
_add(GraphSpec("AF", "road",
    _road(250, 111), lambda: gen.grid_2d(28, 28, drop_prob=0.12, diag_prob=0.05, seed=211),
    _paper(33.5e6, 88.9e6, 3, 189, 9.83, 0.155, 5.54, 0.281, 0.363, 0.253),
    "OSM Africa"))
_add(GraphSpec("NA", "road",
    _road(320, 112), lambda: gen.grid_2d(32, 32, drop_prob=0.12, diag_prob=0.05, seed=212),
    _paper(87.0e6, 220e6, 4, 286, 32.4, 0.432, 12.4, 0.682, 0.724, 0.417),
    "OSM North America"))
_add(GraphSpec("AS", "road",
    _road(340, 113), lambda: gen.grid_2d(34, 34, drop_prob=0.12, diag_prob=0.05, seed=213),
    _paper(95.7e6, 244e6, 4, 343, 34.8, 0.480, 16.0, 0.709, 0.878, 0.656),
    "OSM Asia"))
_add(GraphSpec("EU", "road",
    _road(380, 114), lambda: gen.grid_2d(38, 38, drop_prob=0.12, diag_prob=0.05, seed=214),
    _paper(131e6, 333e6, 4, 513, 47.4, 0.679, 33.2, 0.925, 0.869, 0.609),
    "OSM Europe"))
# ----------------------------------------------------------------- knn
_add(GraphSpec("CH5", "knn",
    _knn(20_000, 5, seed=115), _knn(1_200, 5, seed=215),
    _paper(4.21e6, 29.7e6, 5, 7, 0.826, 0.021, 0.431, 0.042, 0.037, 0.021),
    "Chem, k=5"))
_add(GraphSpec("GL2", "knn",
    _knn(40_000, 2, clusters=60, seed=116), _knn(1_500, 2, clusters=20, seed=216),
    _paper(24.9e6, 65.3e6, 2, 12, 6.96, 0.109, 7.69, None, 0.155, 0.113),
    "GeoLife, k=2 (Julienne cell blank)"))
_add(GraphSpec("GL5", "knn",
    _knn(40_000, 5, clusters=60, seed=117), _knn(1_500, 5, clusters=20, seed=217),
    _paper(24.9e6, 157e6, 5, 42, 6.81, 0.125, 3.54, None, 0.179, 0.249),
    "GeoLife, k=5 (Julienne cell blank)"))
_add(GraphSpec("GL10", "knn",
    _knn(40_000, 10, clusters=60, seed=118), _knn(1_500, 10, clusters=20, seed=218),
    _paper(24.9e6, 310e6, 10, 16, 8.46, 0.162, 5.57, None, 0.175, 0.168),
    "GeoLife, k=10 (Julienne cell blank)"))
_add(GraphSpec("COS5", "knn",
    _knn(90_000, 5, dims=3, seed=119), _knn(2_000, 5, dims=3, seed=219),
    _paper(321e6, 1.96e9, 2, 23, 117, 2.06, 61.9, 3.66, 2.74, 2.08),
    "Cosmo50, k=5"))
# --------------------------------------------------------------- other
_add(GraphSpec("TRCE", "other",
    _mesh(140, 0.08, 120), _mesh(24, 0.08, 220),
    _paper(16.0e6, 48.0e6, 2, 1839, 2.03, 0.066, 1.49, 1.96, 0.424, 0.067),
    "Huge traces (mesh)"))
_add(GraphSpec("BBL", "other",
    _mesh(160, 0.05, 121), _mesh(28, 0.05, 221),
    _paper(21.2e6, 63.6e6, 2, 1915, 3.18, 0.077, 3.36, 1.80, 0.203, 0.081),
    "Huge bubbles (mesh)"))
_add(GraphSpec("GRID", "other",
    lambda: gen.grid_2d(300, 300), lambda: gen.grid_2d(30, 30),
    _paper(100e6, 400e6, 2, 50499, 6.21, 0.282, 14.1, 14.8, 8.03, 3.21),
    "Synthetic 2D grid"))
_add(GraphSpec("CUBE", "other",
    lambda: gen.cube_3d(60), lambda: gen.cube_3d(10),
    _paper(1.00e9, 6.0e9, 3, 2895, 183, 4.01, 162, None, 110, 10.8),
    "Synthetic 3D cube (Julienne cell blank)"))
_add(GraphSpec("HCNS", "other",
    lambda: gen.hcns(700), lambda: gen.hcns(80),
    _paper(0.1e6, 5.0e9, 50000, 50000, 27.8, 2.01, 23.5, None, 49.7, None),
    "High-coreness synthetic (Julienne cell blank; PKC OOM)"))
_add(GraphSpec("HPL", "other",
    _ba_core(100_000, 6, 123, 300, 180), _ba_core(3_000, 4, 223, 50, 30),
    _paper(100e6, 1.20e9, 3980, 6297, 47.3, 1.77, 38.9, 3.59, 30.4, 59.1),
    "Barabasi-Albert power-law + dense core"))


# Graphs that trigger sampling in the paper's evaluation (Fig. 11).
SAMPLING_GRAPHS = ["TW", "EH", "SD", "CW", "HL14", "HL12", "HPL", "HCNS"]
# The 14 representative graphs of Fig. 2 / Fig. 7-8.
REPRESENTATIVE = [
    "LJ", "OK", "TW", "FS", "SD", "CW", "AF", "EU", "CH5", "GL5",
    "TRCE", "GRID", "CUBE", "HPL",
]


@lru_cache(maxsize=64)
def load_graph(key: str, scale: str = "bench") -> CSR:
    """Generate (and cache) one suite graph at the given scale."""
    spec = SUITE[key]
    return spec.bench() if scale == "bench" else spec.mini()
