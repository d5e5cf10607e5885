"""Figure-equivalent experiments, rendered as tables (figures are out
of scope): Fig. 7 (subrounds with/without VGC), Fig. 8 (bucketing
strategies), Fig. 9/14 (burdened span vs Julienne), Fig. 11 (sampling
on/off), Fig. 12 (max k'-core subgraph vs Galois)."""
from __future__ import annotations

import pandas as pd

from repro.graphs.suite import load_graph
from repro.simcpu.configs import OURS
from repro.simcpu.engine import run_kcore
from repro.simcpu.machine import MachineConfig

# Each ``fig*_row(g, sub)`` turns graph ``g``'s runner rows (indexed by
# algorithm name) into that graph's row of the figure's table.


def fig7_row(g: str, sub: pd.DataFrame) -> dict:
    """rho (no VGC) vs rho' (VGC) and the reduction ratio R."""
    rho, rho_p = int(sub.loc["plain", "rho"]), int(sub.loc["vgc", "rho"])
    return {
        "graph": g,
        "rho": rho,
        "rho_vgc": rho_p,
        "reduction": rho / rho_p if rho_p else float("nan"),
    }


def fig8_row(g: str, sub: pd.DataFrame) -> dict:
    """1 bucket vs 16 buckets vs HBS (ours with VGC+sampling),
    normalized to HBS (lower is better, as in Fig. 8)."""
    t_par = sub["t_par"]
    hbs = t_par["buckets-adaptive"]
    return {
        "graph": g,
        "one_bucket": t_par["buckets-single"],
        "16_buckets": t_par["buckets-fixed"],
        "hbs": hbs,
        "rel_one": t_par["buckets-single"] / hbs,
        "rel_16": t_par["buckets-fixed"] / hbs,
    }


def fig9_row(g: str, sub: pd.DataFrame) -> dict:
    """Burdened-span speedup of ours (with/without VGC, 16 buckets as
    in the paper's Fig. 14 setup) over Julienne; also the time speedup
    (Fig. 15 counterpart)."""
    jb, jt = sub.loc["julienne", "bspan"], sub.loc["julienne", "t_par"]
    return {
        "graph": g,
        "bspan_speedup_novgc": jb / sub.loc["ours-novgc-f16", "bspan"],
        "bspan_speedup_vgc": jb / sub.loc["ours-vgc-f16", "bspan"],
        "time_speedup_novgc": jt / sub.loc["ours-novgc-f16", "t_par"],
        "time_speedup_vgc": jt / sub.loc["ours-vgc-f16", "t_par"],
    }


def fig11_row(g: str, sub: pd.DataFrame) -> dict:
    """Ours with vs without sampling on the graphs that trigger it."""
    return {
        "graph": g,
        "with_sampling": sub.loc["ours", "t_par"],
        "without_sampling": sub.loc["ours-nosample", "t_par"],
        "speedup": sub.loc["ours-nosample", "t_par"] / sub.loc["ours", "t_par"],
        "n_sampled": int(sub.loc["ours", "n_sampled"]),
        "cmax_with": int(sub.loc["ours", "max_contention"]),
        "cmax_without": int(sub.loc["ours-nosample", "max_contention"]),
    }


def fig12_subgraph(
    *,
    graphs: list[str] | None = None,
    ks: list[int] | None = None,
    scale: str = "bench",
) -> pd.DataFrame:
    """Max k'-core subgraph: ours-adapted vs the Galois-like baseline.

    The paper sweeps k in 16..2048 on OK and TW; our analogues have
    proportionally smaller k_max, so the default sweep is scaled to
    4..128. Runs driver-side (few cells, each cheap). Ours and the
    baseline run one engine, so each k-core is checked against BZ's."""
    from repro.core.subgraph import kcore_subgraph_galois
    from repro.seq.bz import bz_kcore

    machine = MachineConfig()
    graphs = graphs or ["OK", "TW"]
    ks = ks or [4, 8, 16, 32, 64, 128]
    rows = []
    for gname in graphs:
        g = load_graph(gname, scale)
        truth = bz_kcore(g).core
        for k in ks:
            ours_core, ours_met = run_kcore(g, OURS, machine, stop_at_k=k)
            ours_mask = ours_core >= k
            gal_mask, gal_met = kcore_subgraph_galois(g, k)
            for name, mask in (("ours", ours_mask), ("galois", gal_mask)):
                if not (mask == (truth >= k)).all():
                    raise RuntimeError(
                        f"Fig. 12 on {gname!r} ({scale}), k={k}: the {name} "
                        f"{k}-core differs from BZ's"
                    )
            rows.append(
                {
                    "graph": gname,
                    "k": k,
                    "core_size": int(ours_mask.sum()),
                    "ours": ours_met.t_par_seconds(machine),
                    "galois": gal_met.t_par_seconds(machine),
                    "speedup": gal_met.t_par_units / ours_met.t_par_units
                    if ours_met.t_par_units
                    else float("nan"),
                }
            )
    return pd.DataFrame(rows)
