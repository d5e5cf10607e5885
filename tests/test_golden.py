"""Golden-metrics pin: exact RunMetrics, BZ outputs and generated CSR
hashes at mini scale.

The simulated seconds in ``results/`` are the reproduction's outputs,
so a host-side speedup of the engine, BZ or graph construction must not
move them. These values were recorded before the local-search, BZ and
``build_csr`` kernels were rewritten; any later rewrite that shifts the
model (a different RNG draw order, a different chaining prefix, a
different edge order) fails here with the first differing field.
"""
import hashlib

import numpy as np
import pytest

from repro.graphs.suite import load_graph
from repro.seq.bz import bz_kcore
from repro.simcpu.engine import run_kcore
from repro.tables.runner import algo_registry

FIELDS = ("t_par_units", "bspan_units", "work", "rho", "max_chain",
          "max_contention", "resamples", "structure")

METRICS = {
    ('GRID', 'pkc'): (4947.166666666667, 79373.375, 7084.0, 1, 4371, 4, 0,
        {'scanned': 2700, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('GRID', 'vgc'): (1873.3333333333335, 120989.37500000001, 8060.0, 4, 299, 4, 0,
        {'scanned': 3600, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('GRID', 'ours'): (1982.7083333333335, 135989.375, 8960.0, 4, 299, 4, 0,
        {'scanned': 3600, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('GRID', 'vgc+sample'): (1982.7083333333335, 135989.375, 8960.0, 4, 299, 4, 0,
        {'scanned': 3600, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('GRID', 'ours-vgc-f16'): (1954.625, 135989.375, 8118.0, 4, 299, 4, 0,
        {'scanned': 904, 'moves': 927, 'redistributed': 0, 'stale_filtered': 0}),
    ('TW', 'pkc'): (30658.656249999993, 908671.5208333335, 104365.0, 29, 8989, 55, 0,
        {'scanned': 72500, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('TW', 'vgc'): (20343.104166666664, 1018101.9583333336, 51950.0, 37, 370, 55, 0,
        {'scanned': 20005, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('TW', 'ours'): (15730.697916666664, 1028221.9583333336, 68845.0, 37, 370, 23, 48,
        {'scanned': 17788, 'moves': 403, 'redistributed': 171, 'stale_filtered': 217}),
    ('TW', 'vgc+sample'): (15731.0, 1028221.9583333336, 68068.0, 37, 370, 23, 48,
        {'scanned': 20005, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('TW', 'ours-vgc-f16'): (15586.239583333328, 1028221.9583333336, 57189.0, 37, 370, 23, 48,
        {'scanned': 6108, 'moves': 1509, 'redistributed': 0, 'stale_filtered': 1114}),
    ('HCNS', 'pkc'): (20960.666666666664, 2434489.0, 26080.0, 80, 121, 80, 0,
        {'scanned': 12960, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('HCNS', 'vgc'): (20929.416666666664, 2434489.0, 23080.0, 80, 121, 80, 0,
        {'scanned': 9960, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('HCNS', 'ours'): (21130.864583333336, 2449489.0000000005, 33015.0, 80, 121, 80, 81,
        {'scanned': 2760, 'moves': 98, 'redistributed': 274, 'stale_filtered': 0}),
    ('HCNS', 'vgc+sample'): (21143.3125, 2449489.0000000005, 34014.0, 80, 121, 80, 81,
        {'scanned': 9960, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('HCNS', 'ours-vgc-f16'): (21048.78125, 2449489.0000000005, 24939.0, 80, 121, 80, 81,
        {'scanned': 885, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('CH5', 'pkc'): (1526.09375, 120558.6875, 16071.0, 1, 486, 11, 0,
        {'scanned': 7200, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('CH5', 'vgc'): (1438.6145833333333, 135358.6875, 17273.0, 2, 276, 11, 0,
        {'scanned': 8400, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('CH5', 'ours'): (1551.1145833333333, 150358.6875, 18473.0, 2, 276, 11, 0,
        {'scanned': 8400, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('CH5', 'vgc+sample'): (1551.1145833333333, 150358.6875, 18473.0, 2, 276, 11, 0,
        {'scanned': 8400, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('CH5', 'ours-vgc-f16'): (1481.2083333333333, 150358.6875, 13184.0, 2, 276, 11, 0,
        {'scanned': 1689, 'moves': 711, 'redistributed': 0, 'stale_filtered': 0}),
}
BZ = {
    'GRID': (9540, 'a71015f546e59108922cdccc7c853be810eed18717fd2e5c68fd553910123554'),
    'TW': (59726, '6c8b7f2afe96b33c0edd6a402cc60e62d9f43af0eca188524dd00d0a45d0440b'),
    'HCNS': (19600, '9a8a25d8af550dd8857971d1fb74ee0046e1041eadee5d2ae207a249f5b492a4'),
    'CH5': (13146, '0fcef84188191a5807951b5e5cc82e9b69128c44037a60dffffd459441235857'),
}
CSR_SHA256 = {
    'LJ': 'ec16ed04e7c66354b50dd826982946c933d160ed1ecf16e176e719fda51d231c',
    'EH': 'aaa3a5e0259742d78d45b1ea92b9587ce6ba6a6578d7789b2aa100f9dc8d5cb7',
    'HPL': 'f6b9ac1257a7acffd822b1f325f8bc806a50bfc54eed089c55fc7823fd4fc0a8',
    'AF': '08b9edff484d9c33df209e6c41b7d482f9583b66b972ff68a56dc7a236f8221c',
    'GRID': 'acddceb9c4112db06f457422bf825f0532b427985e4a42a64b49904d596be9b5',
    'CUBE': '840f57cfbe1160bc55f3559fc73586434122a490d67bc49343512630eb98e696',
    'TRCE': '644c3f68f98be32113117ca329757bfbe79e571474a9e2f081f5d73af0f8de74',
    'CH5': 'a45c6714f50475dedba494161655a25115980b560fbca54fc39dc7ff3c0a9155',
    'COS5': '8931080901a79b9ccc1024eb02d0ca3f98eaf48c06a05d012df13c2a142bfff4',
    'GL5': 'b3f2ba7d99fe6d61bfa9398da63c2d2c9b005de37d9888293b55ecf5287ae835',
    'HCNS': '665a22cfe994b8e4915a38a3e021b58baa23a2be4d9abd750e0b051d2208c09a',
}


def _sha256(*arrs):
    s = hashlib.sha256()
    for a in arrs:
        s.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return s.hexdigest()


@pytest.mark.parametrize("graph,algo", list(METRICS))
def test_run_metrics_pinned(graph, algo):
    _, met = run_kcore(load_graph(graph, "mini"), algo_registry()[algo])
    got = tuple(getattr(met, f) for f in FIELDS)
    for f, g, want in zip(FIELDS, got, METRICS[(graph, algo)]):
        assert g == want, (graph, algo, f, g, want)


@pytest.mark.parametrize("graph", list(BZ))
def test_bz_pinned(graph):
    res = bz_kcore(load_graph(graph, "mini"))
    assert (res.work, _sha256(res.core)) == BZ[graph]


@pytest.mark.parametrize("graph", list(CSR_SHA256))
def test_generated_csr_pinned(graph):
    g = load_graph(graph, "mini")
    assert _sha256(g.indptr, g.adj) == CSR_SHA256[graph]
