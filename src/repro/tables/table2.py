"""Table 2: overall performance of ours vs BZ / Julienne / ParK / PKC.

For each suite graph we report the analogue's (n, m, k_max, rho), the
simulated sequential time of our plain framework ("seq."), our parallel
time ("par."), the self-relative speedup, and the simulated times of
the four baselines — next to the paper's numbers, so the shape (who
wins, by roughly what factor) can be diffed directly.
"""
from __future__ import annotations

import pandas as pd

from repro.graphs.suite import SUITE

ALGOS = ["plain", "bz", "julienne", "park", "pkc", "ours"]


def row(g: str, sub: pd.DataFrame) -> dict:
    """Graph ``g``'s measured + paper columns from its runner rows
    (indexed by algorithm name)."""
    spec = SUITE[g]
    par = sub.loc["ours", "t_par"]
    seq = sub.loc["plain", "t_seq"]
    out = {
        "graph": g,
        "category": spec.category,
        "n": int(sub.loc["ours", "n"]),
        "m": int(sub.loc["ours", "m"]),
        "kmax": int(sub.loc["ours", "kmax"]),
        "rho": int(sub.loc["plain", "rho"]),
        "seq": seq,
        "par": par,
        "spd": seq / par if par else float("nan"),
        "bz": sub.loc["bz", "t_seq"],
        "julienne": sub.loc["julienne", "t_par"],
        "park": sub.loc["park", "t_par"],
        "pkc": sub.loc["pkc", "t_par"],
    }
    for col in ("n", "m", "kmax", "rho", "seq", "par", "bz", "julienne", "park", "pkc"):
        out[f"paper_{col}"] = spec.paper.get(col)
    return out

