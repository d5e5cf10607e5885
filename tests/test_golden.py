"""Golden-metrics pin: exact RunMetrics, BZ outputs and generated CSR
hashes at mini scale, plus the CSR hashes of the bench-scale graphs
that perfbench's ``sim`` workload builds.

The simulated seconds in ``results/`` are the reproduction's outputs,
so a host-side speedup of the engine, BZ or graph construction must not
move them. These values were recorded before the local-search, BZ and
``build_csr`` kernels were rewritten, and the batch-path configs'
before the engine's two subround bodies were merged into one; the CSR
pins of the other mini graphs and of the bench graphs were recorded
before ``build_csr`` and the Chung-Lu draws became blocked kernels. Any
later rewrite that shifts the model (a different RNG draw order, a
different chaining prefix, a different edge order) fails here with the
first differing field.
"""
import hashlib

import numpy as np
import pytest

from repro.graphs.suite import SUITE, load_graph
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
    # Batch (inner-parallel) subrounds only: no VGC or PKC chains.
    ('GRID', 'plain'): (3831.125, 495448.0, 7980.0, 29, 0, 2, 0,
        {'scanned': 3600, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('GRID', 'julienne'): (9236.874999999998, 1365000.0, 14932.0, 29, 0, 0, 0,
        {'scanned': 904, 'moves': 896, 'redistributed': 0, 'stale_filtered': 0}),
    ('GRID', 'park'): (3821.75, 495448.0, 7080.0, 29, 0, 2, 0,
        {'scanned': 2700, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('GRID', 'sample'): (3940.5, 510448.0, 8880.0, 29, 0, 2, 0,
        {'scanned': 3600, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('GRID', 'hbs'): (3831.125, 495448.0, 7980.0, 29, 0, 2, 0,
        {'scanned': 3600, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('GRID', 'sample+hbs'): (3940.5, 510448.0, 8880.0, 29, 0, 2, 0,
        {'scanned': 3600, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('GRID', 'ours-novgc-f16'): (3912.4166666666665, 510448.0, 7976.0, 29, 0, 2, 0,
        {'scanned': 904, 'moves': 896, 'redistributed': 0, 'stale_filtered': 0}),
    ('TW', 'plain'): (21901.86458333333, 1779584.0, 49715.0, 88, 0, 53, 0,
        {'scanned': 20005, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('TW', 'julienne'): (30400.604166666675, 4410000.0, 99384.0, 88, 0, 0, 0,
        {'scanned': 6179, 'moves': 1663, 'redistributed': 0, 'stale_filtered': 1185}),
    ('TW', 'park'): (22448.6875, 1779584.0, 102210.0, 88, 0, 53, 0,
        {'scanned': 72500, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('TW', 'sample'): (17481.22916666666, 1789896.0, 65782.0, 88, 0, 21, 49,
        {'scanned': 20005, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('TW', 'hbs'): (21901.79166666666, 1779584.0, 50710.0, 88, 0, 53, 0,
        {'scanned': 17788, 'moves': 501, 'redistributed': 171, 'stale_filtered': 239}),
    ('TW', 'sample+hbs'): (17481.156249999996, 1789896.0, 66777.0, 88, 0, 21, 49,
        {'scanned': 17788, 'moves': 501, 'redistributed': 171, 'stale_filtered': 239}),
    ('TW', 'ours-novgc-f16'): (17337.20833333333, 1789896.0, 55282.0, 88, 0, 21, 49,
        {'scanned': 6179, 'moves': 1663, 'redistributed': 0, 'stale_filtered': 1185}),
    ('HCNS', 'plain'): (17702.75, 2431264.0, 22920.0, 80, 0, 80, 0,
        {'scanned': 9960, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('HCNS', 'julienne'): (32643.802083333365, 4830000.0, 42605.0, 80, 0, 0, 0,
        {'scanned': 885, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('HCNS', 'park'): (17733.99999999998, 2431264.0, 25920.0, 80, 0, 80, 0,
        {'scanned': 12960, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('HCNS', 'sample'): (17916.645833333332, 2446264.0, 33854.0, 80, 0, 80, 81,
        {'scanned': 9960, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('HCNS', 'hbs'): (17690.30208333335, 2431264.0, 21921.0, 80, 0, 80, 0,
        {'scanned': 2760, 'moves': 98, 'redistributed': 274, 'stale_filtered': 0}),
    ('HCNS', 'sample+hbs'): (17904.197916666686, 2446264.0, 32855.0, 80, 0, 80, 81,
        {'scanned': 2760, 'moves': 98, 'redistributed': 274, 'stale_filtered': 0}),
    ('HCNS', 'ours-novgc-f16'): (17822.114583333318, 2446264.0, 24779.0, 80, 0, 80, 81,
        {'scanned': 885, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('CH5', 'plain'): (1578.8125, 165304.0, 16782.0, 4, 0, 7, 0,
        {'scanned': 8400, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('CH5', 'julienne'): (2163.020833333333, 285000.0, 26880.0, 4, 0, 0, 0,
        {'scanned': 1689, 'moves': 815, 'redistributed': 0, 'stale_filtered': 0}),
    ('CH5', 'park'): (1566.3125, 165304.0, 15582.0, 4, 0, 7, 0,
        {'scanned': 7200, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('CH5', 'sample'): (1691.3125, 180304.0, 17982.0, 4, 0, 7, 0,
        {'scanned': 8400, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('CH5', 'hbs'): (1578.8125, 165304.0, 16782.0, 4, 0, 7, 0,
        {'scanned': 8400, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('CH5', 'sample+hbs'): (1691.3125, 180304.0, 17982.0, 4, 0, 7, 0,
        {'scanned': 8400, 'moves': 0, 'redistributed': 0, 'stale_filtered': 0}),
    ('CH5', 'ours-novgc-f16'): (1621.40625, 180304.0, 12901.0, 4, 0, 7, 0,
        {'scanned': 1689, 'moves': 815, 'redistributed': 0, 'stale_filtered': 0}),
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
    'GL2': 'f82457bfdb9bd343988ba5c189d52b71fe93f160a8ef6de3fc4fb3e105758311',
    'GL10': '93f37dd025c8d499de77a28b77546b661ba8d9771370a12b2932e43d1f82e082',
    'HCNS': '665a22cfe994b8e4915a38a3e021b58baa23a2be4d9abd750e0b051d2208c09a',
    'OK': 'bd9ab696d41a3f8278ecf13d870a099ea7723371fd1aeb13b7597ae083018bfd',
    'WB': '9efa5f4fd1c7d43979b6f0a2bc17e326fbc382f5492ba5e5c627e8f3e1cd3eb5',
    'TW': '2bdbfe591aab56f09a8ff3c7938cfb0ae4695a842da83647691b59ccfab9b757',
    'FS': '7f82f8af8cbac7514619a3bd9f1e456cbf446019c555714f3ffdbc0f5b9bd375',
    'SD': 'fd83ad9f1a98e23e73b683d843411e62d0d3dde002fbed8583d2883de4630327',
    'CW': 'c5a7e792510da0aeb59b46111f875bf3ee9058af1dcdfbdde9134da830eb9db9',
    'HL14': '18b455fdcd0e72d3c15345a0c4920f3a76137772f397107fc6fa8c1f6ee75994',
    'HL12': 'fe402044addd07b21422749a9fc5c411c8795d48920473e85e520e1c1039195c',
    'NA': '5e0630bfdbb721b996b337a58925efc43115f9cc575c4e5e295fe68edf36bbeb',
    'AS': '923d2d161eccf5911c601639b796bc5c397bb88fc3e082c7adc823b0b5de53a9',
    'EU': '051697bddb9b726637d4a3dc37716c88687d676a25abf152c1ccd4fbfa0b0e7c',
    'BBL': 'a8f2fe0d06362d2f67185d136b21f3557154eb88648a218bf5b85448b0dd37a3',
}
# The bench-scale graphs of perfbench's ``sim`` workload, and one of
# each other pair-code builder: a ``_cl`` graph (FS), the heaviest
# ``_cl_core`` graph (CW) and the ``_ba_core`` graph (HPL).
BENCH_CSR_SHA256 = {
    'EH': '8828df9e8ee264f4bb217c8cd80e388ba1a7cdcbfb5c401f703a321df6ccb43d',
    'HCNS': 'a6fd13571fedd31eb66103989bc3c813f5133839f196c6c644d9cdf3474944b9',
    'TRCE': '5251b3a015cc5534323184f147807c71766ae9d71391b6c5a9c003f9c1e9834f',
    'BBL': '6ff66fb5e53e76765d6864191ed14e37bdbafb87ab4f323e60d1e23c006b347f',
    'CW': 'c74be4bffbe2f79749d03131aa0cdb59ab3ccd4985dfccac28e33e800f3b02d6',
    'FS': 'bb005fbb6572ca0c4b88f4af13dfd1b41a80836cfde88c301cf1d2663c0e308e',
    'HPL': '44da2132e4775bf91476781aebe4a071d87d4c172d263038a2a52ad56b5bb7da',
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


@pytest.mark.parametrize("graph", list(BENCH_CSR_SHA256))
def test_generated_bench_csr_pinned(graph):
    g = SUITE[graph].bench()
    assert _sha256(g.indptr, g.adj) == BENCH_CSR_SHA256[graph]
