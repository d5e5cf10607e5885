"""Machine-simulator engine: exact coreness for every algorithm config
on every mini suite graph, plus metric-shape properties."""
import os
import time
from dataclasses import fields, replace

import numpy as np
import pytest

import repro.simcpu.engine as engine
from repro.graphs.suite import SUITE, load_graph
from repro.seq.bz import bz_kcore
from repro.simcpu import AlgoConfig, MachineConfig, RunMetrics, run_kcore
from repro.simcpu.configs import REGISTRY
from repro.simcpu.engine import class_key, run_class
from repro.tables.runner import run_cells

GRAPHS = list(SUITE)
OURS, PLAIN, JULIENNE, PARK, PKC = (
    REGISTRY[name] for name in ("ours", "plain", "julienne", "park", "pkc")
)


@pytest.fixture(scope="module")
def truth_cache():
    cache = {}

    def get(key):
        if key not in cache:
            cache[key] = bz_kcore(load_graph(key, "mini")).core
        return cache[key]

    return get


@pytest.mark.parametrize("config", sorted(REGISTRY))
@pytest.mark.parametrize("graph", GRAPHS)
def test_exact_coreness(graph, config, truth_cache):
    g = load_graph(graph, "mini")
    core, met = run_kcore(g, REGISTRY[config])
    assert np.array_equal(core, truth_cache(graph)), (graph, config)
    assert met.kmax == truth_cache(graph).max()


@pytest.mark.parametrize("graph", ["GRID", "TW", "HCNS", "CH5"])
def test_determinism(graph):
    g = load_graph(graph, "mini")
    c1, m1 = run_kcore(g, OURS)
    c2, m2 = run_kcore(g, OURS)
    assert np.array_equal(c1, c2)
    assert m1.t_par_units == m2.t_par_units
    assert m1.rho == m2.rho


def test_offline_has_no_contention():
    g = load_graph("TW", "mini")
    _, met = run_kcore(g, JULIENNE)
    assert met.max_contention == 0


def test_online_measures_contention():
    g = load_graph("TW", "mini")
    _, met = run_kcore(g, PLAIN)
    assert met.max_contention > 1


def test_vgc_reduces_subrounds():
    g = load_graph("GRID", "mini")
    _, plain = run_kcore(g, PLAIN)
    _, vgc = run_kcore(g, REGISTRY["vgc"])
    assert vgc.rho < plain.rho / 3


def test_pkc_single_subround_per_round():
    g = load_graph("GRID", "mini")
    _, met = run_kcore(g, PKC)
    assert all(s <= 1 for s in met.subrounds_per_round)
    assert met.max_chain > 0


def test_park_is_work_inefficient_on_high_kmax():
    """No active set => Theta(k_max * n) frontier-scan work (Sec. 3.2);
    the active set caps total scans at sum_i |A_i| = O(n + m)."""
    g = load_graph("TW", "mini")
    _, park = run_kcore(g, PARK)
    _, plain = run_kcore(g, PLAIN)
    assert park.structure["scanned"] == park.rounds * g.n
    assert plain.structure["scanned"] < park.structure["scanned"] / 2
    assert park.work > 1.3 * plain.work


def test_work_efficiency_bound():
    """Thm 3.1: plain framework work is O(n + m)."""
    for key in ("LJ", "GRID", "CH5", "HCNS"):
        g = load_graph(key, "mini")
        _, met = run_kcore(g, PLAIN)
        assert met.work < 12 * (g.n + g.m_directed), key


def test_subround_counts_match_rho():
    g = load_graph("CUBE", "mini")
    _, met = run_kcore(g, PLAIN)
    assert sum(met.subrounds_per_round) == met.rho
    assert len(met.subrounds_per_round) == met.rounds


def test_offline_and_online_same_subround_structure():
    """Without VGC, both peel the same frontiers (Alg. 2 vs Alg. 3)."""
    g = load_graph("BBL", "mini")
    _, on = run_kcore(g, PLAIN)
    _, off = run_kcore(g, JULIENNE)
    assert on.subrounds_per_round == off.subrounds_per_round


def test_sampling_triggers_on_hub_graph():
    from repro.graphs import generators as gen

    g = gen.chung_lu(20_000, 30, exponent=2.0, seed=7)
    cfg = REGISTRY["sample"]
    core, met = run_kcore(g, cfg)
    assert np.array_equal(core, bz_kcore(g).core)
    assert met.resamples > 0
    _, plain = run_kcore(g, PLAIN)
    assert met.max_contention < plain.max_contention / 4


# Sampling set up to fail (tiny mu, aggressive threshold).
FAILING_SAMPLER = dict(
    sample_c=0.02,  # mu ~ 1: estimates are garbage
    sample_threshold=5,
    sample_r=0.9,
    seed=1,
)
ADVERSARIAL = AlgoConfig(name="adversarial", sampling=True, **FAILING_SAMPLER)
SAMPLING_CONFIGS = sorted({c.name for c in REGISTRY.values() if c.sampling})


@pytest.fixture(scope="module")
def hub_and_truth():
    from repro.graphs import generators as gen

    g = gen.planted_core(gen.chung_lu(2000, 10, seed=3), 120, 80, seed=3)
    return g, bz_kcore(g).core


@pytest.mark.parametrize("p", [1, 96])
@pytest.mark.parametrize("config", SAMPLING_CONFIGS)
def test_sampling_recovery_with_adversarial_mu(hub_and_truth, config, p):
    """Force sampling errors on every sampling config: the Las Vegas
    wrapper must detect them and restart without sampling."""
    g, truth = hub_and_truth
    algo = replace(REGISTRY[config], **FAILING_SAMPLER)
    core, met = run_kcore(g, algo, MachineConfig(p=p))
    assert np.array_equal(core, truth)  # correct either way (Las Vegas)
    assert met.restarts == 1  # the sampled run failed verification


@pytest.mark.parametrize("kprime", [20, 40])
def test_stopped_run_recovery_with_adversarial_mu(hub_and_truth, kprime):
    """A run stopped at k' is certified by the same check, on coreness
    capped at k': a sampling error below k' forces the restart even when
    the k'-core membership came out right."""
    g, truth = hub_and_truth
    algo = replace(ADVERSARIAL, structure="adaptive", vgc=True)
    core, met = run_kcore(g, algo, stop_at_k=kprime)
    assert np.array_equal(core, np.minimum(truth, kprime))
    assert met.restarts == 1


def test_machine_config_scaling():
    """Doubling omega increases modeled time of sync-bound runs."""
    g = load_graph("GRID", "mini")
    _, a = run_kcore(g, JULIENNE, MachineConfig(omega=300.0))
    _, b = run_kcore(g, JULIENNE, MachineConfig(omega=600.0))
    assert b.t_par_units > a.t_par_units
    assert a.work == b.work  # work is measured, not modeled


def test_seq_time_equals_work():
    g = load_graph("AF", "mini")
    mc = MachineConfig()
    _, met = run_kcore(g, PLAIN, mc)
    assert met.t_seq_units == met.work * mc.t_op


def test_self_speedup_at_bench_scale():
    """Mini graphs are sync-bound by construction; at bench scale the
    full design must show real parallel speedup."""
    g = load_graph("AF", "bench")
    _, met = run_kcore(g, OURS)
    assert met.t_seq_units / met.t_par_units > 5


def test_rounds_equal_kmax_plus_one():
    g = load_graph("CUBE", "mini")
    _, met = run_kcore(g, PLAIN)
    assert met.rounds == met.kmax + 1


# -- lock-step classes --------------------------------------------------------


def _classes() -> list[list[AlgoConfig]]:
    out: dict = {}
    for c in dict.fromkeys(REGISTRY.values()):
        out.setdefault(class_key(c), []).append(c)
    return list(out.values())


CLASSES = _classes()
# Every class of more than one config, and the online members of the
# plain class alone: any configs of one class run as one execution.
LOCKSTEP = [members for members in CLASSES if len(members) > 1]
LOCKSTEP.append([PLAIN, REGISTRY["hbs"], PARK])


def _ids(members) -> str:
    return "|".join(a.name for a in members)


def assert_same_metrics(got: RunMetrics, want: RunMetrics) -> None:
    for f in fields(RunMetrics):  # floats too: the same charges, in order
        assert getattr(got, f.name) == getattr(want, f.name), f.name


def test_registry_classes():
    """13 configurations are 5 executions (see ``class_key``)."""
    assert len(CLASSES) == 5
    assert list(map(_ids, CLASSES)) == [
        "ours|vgc+sample|ours-vgc-f16", "plain|hbs|julienne|park", "vgc|vgc+hbs",
        "sample|sample+hbs|ours-novgc-f16", "pkc",
    ]


@pytest.mark.parametrize("p", [1, 96])
@pytest.mark.parametrize("graph", ["GRID", "TW", "HCNS", "CH5"])
@pytest.mark.parametrize("members", LOCKSTEP, ids=_ids)
def test_class_run_equals_solo_runs(members, graph, p):
    g = load_graph(graph, "mini")
    machine = MachineConfig(p=p)
    core, mets = run_class(g, members, machine)
    assert [m.algo for m in mets] == [a.name for a in members]
    for algo, met in zip(members, mets):
        solo_core, solo = run_kcore(g, algo, machine)
        assert np.array_equal(core, solo_core), algo.name
        assert_same_metrics(met, solo)


@pytest.mark.parametrize("p", [1, 96])
@pytest.mark.parametrize(
    "members", [m for m in LOCKSTEP if m[0].sampling], ids=_ids
)
def test_class_run_restarts_once(hub_and_truth, members, p):
    """A failed certificate restarts the whole class once, and each
    member still equals its own (restarted) solo run."""
    g, truth = hub_and_truth
    members = [replace(a, **FAILING_SAMPLER) for a in members]
    machine = MachineConfig(p=p)
    core, mets = run_class(g, members, machine)
    assert np.array_equal(core, truth)
    for algo, met in zip(members, mets):
        assert met.restarts == 1
        assert_same_metrics(met, run_kcore(g, algo, machine)[1])


def test_class_run_rejects_configs_of_different_classes():
    with pytest.raises(ValueError, match="not one class"):
        run_class(load_graph("GRID", "mini"), [PLAIN, REGISTRY["vgc"]])


class _DropsLast:
    """A structure whose frontier misses its largest vertex."""

    def __init__(self, inner):
        self._inner = inner

    def next_frontier(self, k, deg, state):
        f, cost = self._inner.next_frontier(k, deg, state)
        return f[:-1], cost

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture
def broken_adaptive(monkeypatch):
    make = engine.make_structure

    def make_structure(name, n):
        s = make(name, n)
        return _DropsLast(s) if name == "adaptive" else s

    monkeypatch.setattr(engine, "make_structure", make_structure)


def test_class_run_raises_on_a_different_frontier(broken_adaptive):
    members = [PLAIN, REGISTRY["hbs"], PARK]
    with pytest.raises(RuntimeError, match="'adaptive' of 'hbs' returned a different"):
        run_class(load_graph("GRID", "mini"), members)


class _LocalSpark:
    """The slice of a SparkSession ``run_cells`` uses, run in-process."""

    class sparkContext:
        @staticmethod
        def parallelize(items, _slices):
            return _LocalRDD(items)


class _LocalRDD:
    def __init__(self, items):
        self.items = list(items)

    def flatMap(self, f):
        return _LocalRDD(y for x in self.items for y in f(x))

    def collect(self):
        return self.items


def _cells(*algos) -> list[dict]:
    return [{"graph": "GRID", "algo": a, "scale": "mini"} for a in algos]


def _cell(algo: str) -> str:
    return f"cell (graph='GRID', algo='{algo}', scale='mini')"


@pytest.fixture
def forked_pids(monkeypatch):
    """The pid of every child ``run_cells`` forks."""
    pids = []
    fork = os.fork

    def record():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", record)
    return pids


def assert_reaped(pids) -> None:
    for pid in pids:  # reaped: no longer a child of this process
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_run_cells_names_the_cells_of_a_failing_class(broken_adaptive):
    """The failing class is the task's own (first) class, or a forked one."""
    for algos in [("plain", "hbs"), ("pkc", "plain", "hbs")]:
        with pytest.raises(RuntimeError) as err:
            run_cells(_LocalSpark(), _cells(*algos))
        assert "'adaptive' of 'hbs' returned a different" in str(err.value)
        for a in ("plain", "hbs"):
            assert _cell(a) in str(err.value)
        assert _cell("pkc") not in str(err.value)


def test_run_cells_names_the_cells_of_a_child_that_exits(monkeypatch, forked_pids):
    run = engine.run_class

    def run_class(g, algos, machine=None):
        if algos[0].name == "plain":
            os._exit(3)
        return run(g, algos, machine)

    monkeypatch.setattr(engine, "run_class", run_class)
    with pytest.raises(RuntimeError, match="child exited with status 3") as err:
        run_cells(_LocalSpark(), _cells("pkc", "plain", "hbs"))
    for a in ("plain", "hbs"):
        assert _cell(a) in str(err.value)
    assert _cell("pkc") not in str(err.value)
    assert len(forked_pids) == 1
    assert_reaped(forked_pids)


def test_run_cells_kills_its_children_when_the_task_raises(monkeypatch, forked_pids):
    """The task's own class raises while its forked classes still run:
    every child is killed and reaped before the error propagates."""
    run = engine.run_class

    def run_class(g, algos, machine=None):
        if algos[0].name != "pkc":
            time.sleep(60)  # a child still running when the task raises
            return run(g, algos, machine)
        raise ValueError("the task's own class")

    monkeypatch.setattr(engine, "run_class", run_class)
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="the task's own class") as err:
        run_cells(_LocalSpark(), _cells("pkc", "plain", "vgc"))
    assert time.perf_counter() - t0 < 30  # killed, not waited for
    assert _cell("pkc") in str(err.value) and _cell("plain") not in str(err.value)
    assert len(forked_pids) == 2
    assert_reaped(forked_pids)


def test_sweep_refuses_inexact_coreness(monkeypatch):
    """A sweep, which every ``results/`` writer reads, raises on a row
    whose coreness is wrong and names that cell only."""
    from repro.tables.artifacts import sweep

    run = engine.run_class

    def run_class(g, algos, machine=None):
        core, mets = run(g, algos, machine)
        return (core + 1 if algos[0].name == "vgc" else core), mets

    monkeypatch.setattr(engine, "run_class", run_class)
    with pytest.raises(RuntimeError, match="inexact coreness") as err:
        sweep(_LocalSpark(), ["fig7.csv"], graphs=["GRID"], scale="mini")
    assert _cell("vgc") in str(err.value) and _cell("plain") not in str(err.value)


@pytest.mark.parametrize("with_bz", [True, False])
def test_run_cells_rows_certify_and_time_themselves(with_bz, forked_pids):
    """Each row is checked against BZ's coreness (or certified when the
    group has no ``bz`` cell) and timed; a class shares one execution,
    and every class after the first runs in a child, reaped on return."""
    algos = ["ours", "plain", "vgc+sample", "hbs", "pkc"] + ["bz"] * with_bz
    cells = [{"graph": "TW", "algo": a, "scale": "mini"} for a in algos]
    df = run_cells(_LocalSpark(), cells).set_index("algo")
    assert len(forked_pids) == 2
    assert_reaped(forked_pids)
    assert df.exact.all()
    assert df.loc["ours", "wall_s"] == df.loc["vgc+sample", "wall_s"]
    assert df.loc["plain", "wall_s"] == df.loc["hbs", "wall_s"]
    assert (df.wall_s > 0).all() and df.gen_s.nunique() == 1
    for a in ("ours", "plain", "pkc"):
        _, met = run_kcore(load_graph("TW", "mini"), REGISTRY[a])
        assert df.loc[a, "t_par"] == met.t_par_seconds(MachineConfig())
