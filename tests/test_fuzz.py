"""Differential fuzz of the engine against two independent oracles.

G(n, p) graphs of at most 40 vertices, and disjoint unions of up to
three of them, run under every registry configuration on a one-core
and a 96-core machine. Each run must return the coreness of BZ and of
``networkx.core_number``. The sampling configurations run a second
time with a sampler set up to fail (a tiny mu, any degree above 5
sampled), which forces the Las Vegas restart on some inputs."""
from dataclasses import replace

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.csr import CSR, build_csr, edge_array
from repro.seq.bz import bz_kcore
from repro.simcpu import MachineConfig, run_kcore
from repro.simcpu.configs import REGISTRY
from tests.test_engine import FAILING_SAMPLER

CONFIGS = sorted(set(REGISTRY.values()), key=lambda c: c.name)
MACHINES = [MachineConfig(p=1), MachineConfig(p=96)]


@st.composite
def random_graph(draw, max_n: int = 40) -> tuple[int, np.ndarray]:
    """G(n, p) with n <= max_n: (n, its edges)."""
    n = draw(st.integers(1, max_n))
    p = draw(st.integers(0, 100)) / 100
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = np.triu_indices(n, 1)
    keep = rng.random(len(a)) < p
    return n, np.column_stack([a[keep], b[keep]])


@st.composite
def graphs(draw) -> CSR:
    """A disjoint union of one to three random simple graphs."""
    parts = draw(st.lists(random_graph(), min_size=1, max_size=3))
    edges, off = [], 0
    for n, e in parts:
        edges.append(e + off)
        off += n
    e = np.concatenate(edges)
    return build_csr(off, e[:, 0], e[:, 1])


def _networkx_core(g: CSR) -> np.ndarray:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(edge_array(g).tolist())
    got = nx.core_number(h)
    return np.array([got[v] for v in range(g.n)], dtype=np.int64)


@settings(max_examples=80, deadline=None)
@given(graphs())
def test_every_config_matches_bz_and_networkx(g):
    truth = bz_kcore(g).core
    assert np.array_equal(truth, _networkx_core(g))
    for cfg in CONFIGS:
        variants = [cfg, replace(cfg, **FAILING_SAMPLER)] if cfg.sampling else [cfg]
        for algo in variants:
            for machine in MACHINES:
                core, _ = run_kcore(g, algo, machine)
                assert np.array_equal(core, truth), (algo, machine.p)
