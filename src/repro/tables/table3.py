"""Table 3 / Fig. 13 / Fig. 6: all 8 combinations of {VGC, sampling,
HBS} on every graph, raw simulated seconds plus per-graph normalization
to the fastest combo (the paper's heatmap normalization)."""
from __future__ import annotations

import pandas as pd

COMBOS = ["plain", "vgc", "sample", "hbs", "vgc+sample", "vgc+hbs", "sample+hbs", "vgc+sample+hbs"]

# Paper Table 3 raw seconds, for EXPERIMENTS.md side-by-side diffing.
PAPER_TABLE3 = {
    "LJ":   [0.275, 0.220, 0.276, 0.272, 0.265, 0.200, 0.265, 0.203],
    "OK":   [0.528, 0.540, 0.488, 0.487, 0.474, 0.510, 0.474, 0.526],
    "WB":   [0.934, 0.831, 0.902, 0.937, 0.946, 0.913, 0.946, 0.935],
    "TW":   [7.15, 7.09, 2.71, 6.77, 2.74, 6.73, 2.74, 2.72],
    "FS":   [3.85, 3.90, 3.59, 3.86, 3.67, 3.70, 3.67, 3.67],
    "EH":   [1.25, 1.07, 1.04, 1.23, 0.996, 1.00, 0.996, 0.795],
    "SD":   [5.03, 5.07, 5.70, 4.96, 4.37, 4.97, 4.37, 4.39],
    "CW":   [171, 166, 36.1, 165, 38.3, 157, 38.3, 28.6],
    "HL14": [123, 103, 78.0, 118, 65.0, 103, 65.0, 54.7],
    "HL12": [166, 148, 143, 157, 138, 130, 138, 108.4],
    "AF":   [0.372, 0.219, 0.366, 0.294, 0.288, 0.154, 0.288, 0.155],
    "NA":   [0.946, 0.605, 0.931, 0.751, 0.739, 0.437, 0.739, 0.432],
    "AS":   [1.02, 0.674, 1.01, 0.818, 0.816, 0.471, 0.816, 0.480],
    "EU":   [1.39, 0.948, 1.40, 1.11, 1.10, 0.666, 1.10, 0.679],
    "CH5":  [0.058, 0.033, 0.059, 0.045, 0.046, 0.021, 0.046, 0.021],
    "GL2":  [0.223, 0.133, 0.224, 0.187, 0.187, 0.106, 0.187, 0.109],
    "GL5":  [0.306, 0.168, 0.299, 0.253, 0.246, 0.120, 0.246, 0.125],
    "GL10": [0.380, 0.206, 0.370, 0.320, 0.319, 0.154, 0.319, 0.162],
    "COS5": [4.33, 2.58, 4.38, 3.71, 3.68, 2.04, 3.68, 2.04],
    "TRCE": [0.638, 0.095, 0.628, 0.521, 0.545, 0.067, 0.545, 0.066],
    "BBL":  [0.712, 0.129, 0.699, 0.616, 0.605, 0.082, 0.605, 0.077],
    "GRID": [11.0, 0.718, 11.0, 8.86, 8.91, 0.284, 8.91, 0.282],
    "CUBE": [13.2, 7.98, 13.0, 9.57, 9.38, 4.11, 9.38, 4.01],
    "HCNS": [6.96, 5.98, 31.1, 1.56, 1.94, 1.51, 1.94, 2.01],
    "HPL":  [2.58, 2.50, 1.89, 2.52, 1.75, 2.52, 1.75, 1.77],
}


def row(g: str, sub: pd.DataFrame) -> dict:
    """Graph ``g``'s raw and normalized combo times from its runner rows
    (indexed by algorithm name)."""
    t_par = sub["t_par"]
    out = {"graph": g}
    for a in COMBOS:
        out[a] = t_par[a]
    best = min(out[a] for a in COMBOS)
    for a in COMBOS:
        out[f"norm_{a}"] = out[a] / best if best else float("nan")
    return out

