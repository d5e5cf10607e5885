"""Degenerate inputs for BZ, the engine (batch, local-search and PKC
paths) and the dataflow VGC; ``build_csr``'s are in ``test_csr.py``.

Every ``algo_registry()`` config must return BZ's exact coreness on an
empty graph, isolated vertices, a star, a clique and a disjoint union,
on a one-core and a 96-core machine; so must ``kcore_dataflow_vgc`` with
one block and with four."""
import numpy as np
import pytest

from repro.graphs import generators as gen
from repro.graphs.csr import CSR, build_csr, edge_array
from repro.seq.bz import bz_kcore, verify_coreness
from repro.simcpu import MachineConfig, run_kcore
from repro.tables.runner import algo_registry


def _edges(pairs):
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return arr[:, 0], arr[:, 1]


def _star(leaves: int) -> CSR:
    return build_csr(leaves + 1, np.zeros(leaves, dtype=np.int64), np.arange(1, leaves + 1))


def _clique(n: int) -> CSR:
    a, b = np.triu_indices(n, 1)
    return build_csr(n, a, b)


def _union(*graphs: CSR) -> CSR:
    parts, off = [], 0
    for g in graphs:
        parts.append(edge_array(g) + off)
        off += g.n
    e = np.concatenate(parts)
    return build_csr(off, e[:, 0], e[:, 1])


GRAPHS = {
    "empty": lambda: build_csr(0, *_edges([])),
    "isolated": lambda: build_csr(7, *_edges([])),
    "star": lambda: _star(300),
    "clique": lambda: _clique(40),
    "union": lambda: _union(_clique(12), _star(150), build_csr(3, *_edges([])), gen.grid_2d(6, 6)),
}
EXPECTED_KMAX = {"empty": 0, "isolated": 0, "star": 1, "clique": 39, "union": 11}


@pytest.mark.parametrize("graph", list(GRAPHS))
def test_bz_on_degenerate_graphs(graph):
    g = GRAPHS[graph]()
    res = bz_kcore(g)
    assert len(res.core) == g.n
    assert (int(res.core.max()) if g.n else 0) == EXPECTED_KMAX[graph]
    assert verify_coreness(g, res.core)


@pytest.mark.parametrize("p", [1, 96])
@pytest.mark.parametrize("algo", sorted(algo_registry()))
@pytest.mark.parametrize("graph", list(GRAPHS))
def test_every_config_exact_on_degenerate_graphs(graph, algo, p):
    g = GRAPHS[graph]()
    core, met = run_kcore(g, algo_registry()[algo], MachineConfig(p=p))
    assert np.array_equal(core, bz_kcore(g).core), (graph, algo, p)
    assert met.kmax == EXPECTED_KMAX[graph]


@pytest.mark.parametrize("n_blocks", [1, 4])
@pytest.mark.parametrize("graph", list(GRAPHS))
def test_vgc_dataflow_exact_on_degenerate_graphs(spark, graph, n_blocks):
    from repro.core.vgc import kcore_dataflow_vgc

    g = GRAPHS[graph]()
    core, _ = kcore_dataflow_vgc(spark, g, n_blocks=n_blocks)
    assert np.array_equal(core, bz_kcore(g).core), (graph, n_blocks)
