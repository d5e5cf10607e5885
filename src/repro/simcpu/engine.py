"""Simulated-multicore execution of the paper's peeling algorithms.

One entry point, ``run_kcore(g, algo, machine)``, executes the peeling
process described by an :class:`AlgoConfig` on a CSR graph, in full or
stopped before round k' (``stop_at_k``: the maximum k'-core subgraph):

- **online** peeling (Alg. 3; ParK/PKC/ours): degree decrements are
  applied immediately; per-subround per-location concurrent-update
  counts are measured and charged as contention.
- **offline** peeling (Alg. 2; Julienne): the same decrements are
  applied through a histogram; no contention, but each subround pays
  3 global syncs and the histogram pass.
- **sampling** (Alg. 4/5): high-degree vertices enter sample mode; a
  removal hits their sample counter with probability ``rate`` instead
  of decrementing the degree. Validation runs each round; vertices that
  collect mu samples are recounted and resampled. Correctness is Las
  Vegas: the final coreness is verified with the h-index fixpoint check
  and on failure the run restarts without sampling (Sec. 4.1.4).
- **VGC** (Sec. 4.2): each frontier vertex runs a local search over a
  FIFO queue capped at ``VGC_QUEUE`` entries, peeling cascades inside
  the subround; the longest chain is charged on the critical path.
- **PKC local buffers**: unbounded per-thread chains — exactly one
  subround per round, with the max thread chain on the critical path
  (the load-imbalance behaviour of Sec. 4.2).
- the frontier/bucket structure is pluggable (scan-all, single bucket,
  fixed-b, HBS, adaptive HBS); its scans/moves/redistributions are
  charged as work.

The executions are real (every decrement happens on real arrays; the
result is exact coreness, asserted against BZ in tests); only the
conversion of measured events to time uses the machine cost model.

Every subround is one step, ``_Engine._peel``: its batch seeds (all
seeds without VGC or PKC, the long-list seeds with VGC, none with PKC)
peel through one vectorized NumPy path, and the rest run the local
search, one scalar loop per subround over zero-copy ``memoryview``s of
the engine arrays: a popped vertex's neighbor list is a handful of
entries, where per-call NumPy overhead would dominate. The loop
follows the model's exact order of pops, decrements and RNG draws;
``tests/test_golden.py`` pins the resulting metrics.

A bucket structure only manages the frontier (Sec. 5.1's BuildBuckets,
GetNextBucket, DecreaseKey), and the online and offline peels take the
same frontier {active, deg <= k} each subround and apply the same
decrements; they differ only in what a subround costs. So configs that
differ only in ``structure`` and ``peel`` peel the same vertices in the
same order: they are one *class* (``class_key``). ``run_class``
executes a class once and prices every member in lock-step: each round
every structure produces the frontier (a run raises if two disagree),
every structure gets the same ``on_decrement`` calls, each subround is
charged to each member by its own peel, and each member's
``RunMetrics`` receives the same charges in the same order as a run of
that config alone, so its floats are the same. ``run_kcore`` is a class
of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.bucket import make_structure
from repro.bucket.interface import ACTIVE, PEELED, QUEUED
from repro.graphs.csr import CSR, gather_neighbors
from repro.simcpu.machine import MachineConfig
from repro.simcpu.metrics import RunMetrics


# A VGC local search enqueues at most VGC_QUEUE vertices.
VGC_QUEUE = 128
# VGC engages for *low-degree* vertices (Sec. 4.2); chains are also
# capped by total touched work ("controlling ... the number of
# touched vertices", Sec. 4.2), so one local search never dominates
# a subround's critical path — the paper's guideline is chain work
# L below the sync cost omega's order of magnitude. High-degree
# frontier vertices peel through the batch (inner-parallel) path.
VGC_WORK_CAP = 256


@dataclass(frozen=True)
class AlgoConfig:
    """One peeling algorithm = one point in the design space."""

    name: str = "ours"
    peel: str = "online"  # "online" | "offline"
    # scan_all (ParK/PKC: no active set) | single | fixed | adaptive
    structure: str = "single"
    vgc: bool = False
    local_buffer: bool = False  # PKC unbounded thread-local buffers
    sampling: bool = False
    sample_c: float = 2.5  # mu = 4 * c * ln n  (paper: c > 2)
    sample_r: float = 0.1  # resample when degree drops to r * d
    sample_threshold: int = 0  # 0 = auto: max(64, 2 * mu)
    seed: int = 42


def sampler(algo: AlgoConfig, n: int) -> tuple[int, int]:
    """Alg. 5's (mu, samples per resample epoch; threshold, the degree
    a vertex must exceed to sample) on an n-vertex graph."""
    mu = math.ceil(4 * algo.sample_c * math.log(max(n, 2)))
    return mu, algo.sample_threshold or max(64, 2 * mu)


def validated(deg, cnt, rate, k: int, r: float):
    """Alg. 5 Validate: whether a sampled vertex (stale degree, count,
    rate) stays sampled at the end of round k; scalars or arrays."""
    return (deg * r > k) & (cnt < rate * (deg - k) / 4.0)


def class_key(algo: AlgoConfig) -> AlgoConfig:
    """The execution ``algo`` runs: configs with equal keys are equal but
    for ``structure`` and ``peel``, which only price their frontiers and
    decrements (see ``run_class``)."""
    return replace(algo, name="", structure="", peel="")


def run_kcore(
    g: CSR,
    algo: AlgoConfig,
    machine: MachineConfig | None = None,
    *,
    stop_at_k: int | None = None,
) -> tuple[np.ndarray, RunMetrics]:
    """Run one peeling algorithm; return (coreness, metrics).

    With ``stop_at_k`` = k', peeling stops before round k' and the
    coreness is capped at k': ``core >= k'`` is the maximum k'-core
    (paper Appendix B), and ``metrics.kmax`` is k' when that core is
    non-empty.
    """
    core, (metrics,) = run_class(g, [algo], machine, stop_at_k=stop_at_k)
    return core, metrics


def run_class(
    g: CSR,
    algos: list[AlgoConfig],
    machine: MachineConfig | None = None,
    *,
    stop_at_k: int | None = None,
) -> tuple[np.ndarray, list[RunMetrics]]:
    """Run configs of one ``class_key`` (equal but for ``structure`` and
    ``peel``) as one execution; return the shared coreness and each
    config's metrics, equal to what ``run_kcore`` gives that config
    alone.

    Las Vegas wrapper: if the sampled run fails the coreness fixpoint
    verification (possible only with adversarially small mu), restart
    without sampling and count the restart. The check certifies capped
    coreness too (see ``verify_coreness``).
    """
    if len({class_key(a) for a in algos}) != 1:
        raise ValueError(f"not one class: {[a.name for a in algos]}")
    machine = machine or MachineConfig()
    core, metrics = _Engine(g, algos, machine).run(stop_at_k)
    if algos[0].sampling:
        from repro.seq.bz import verify_coreness

        if not verify_coreness(g, core):
            retry = [replace(a, sampling=False) for a in algos]
            core, metrics = _Engine(g, retry, machine).run(stop_at_k)
            for m in metrics:
                m.restarts = 1
    return core, metrics


class _Engine:
    """Mutable state for one simulated execution, priced by the
    structure of each of its configs."""

    def __init__(self, g: CSR, algos: list[AlgoConfig], machine: MachineConfig):
        self.g = g
        self.algos = algos
        # The fields a class shares: all but name, structure and peel.
        self.algo = algo = algos[0]
        self.mc = machine
        self.n = g.n
        self.indptr = g.indptr
        self.adj = g.adj
        self.deg = g.degrees().astype(np.int64)
        self.state = np.zeros(self.n, dtype=np.int8)
        self.core = np.zeros(self.n, dtype=np.int64)
        self.rng = np.random.default_rng(algo.seed)
        self.structures = [make_structure(a.structure, self.n) for a in algos]
        # Sampling state (Alg. 5's sampler struct, vectorized).
        self.mu, self.threshold = sampler(algo, self.n)
        self.smode = np.zeros(self.n, dtype=bool)
        self.srate = np.zeros(self.n, dtype=np.float64)
        self.scnt = np.zeros(self.n, dtype=np.int64)
        self.ever_sampled = np.zeros(self.n, dtype=bool)
        # Compacted neighbor-list size per vertex: each recount scans
        # the list compacted by the previous recount, so total recount
        # cost per vertex is d + r*d + r^2*d + ... = O(d(v)), the
        # paper's Sec. 4.1.5 bound.
        self.scan_size = self.deg.copy()
        # Counters that do not depend on the member, and per member the
        # sums its structure and peel price: [work, t_par_units,
        # bspan_units, contention_units, max_contention].
        self.met = RunMetrics(n=self.n, m=g.m)
        self.costs = [[0.0, 0.0, 0.0, 0.0, 0] for _ in algos]

    # -- cost helpers -------------------------------------------------------

    def _charge_parallel(
        self, work: float, syncs: int, span_term: float = 0.0, costs=None
    ):
        """One parallel step: work/P + sync cost + critical-path term,
        charged to every structure (or to ``costs`` alone)."""
        mc = self.mc
        t_par = work * mc.t_op / mc.p + syncs * mc.omega + span_term
        bspan = syncs * mc.omega_span + span_term
        for c in self.costs if costs is None else (costs,):
            c[0] += work
            c[1] += t_par
            c[2] += bspan

    def _on_decrement(self, ids: np.ndarray) -> None:
        """DecreaseKey on every structure; each charges its own moves."""
        for s, c in zip(self.structures, self.costs):
            c[0] += s.on_decrement(ids, self.deg)

    def _contention(self, cmax: int, costs: list) -> float:
        """The span term of ``cmax`` atomics on one location, counted in
        one member's ``costs``."""
        extra = max(0, cmax - 1) * self.mc.t_atomic
        costs[3] += extra
        costs[4] = max(costs[4], cmax)
        return extra

    # -- sampling helpers ----------------------------------------------------

    def _set_sampler(self, ids: np.ndarray, k: int) -> None:
        """Alg. 5 SetSampler, vectorized over ids."""
        if len(ids) == 0:
            return
        r = self.algo.sample_r
        d = self.deg[ids]
        on = (d * r > k) & (d > self.threshold)
        self.smode[ids] = on
        sel = ids[on]
        # The threshold keeps rate < 1 for sane parameters; clip so an
        # adversarial mu/threshold cannot produce an invalid Bernoulli.
        self.srate[sel] = np.minimum(
            1.0, self.mu / ((1.0 - r) * self.deg[sel])
        )
        self.scnt[sel] = 0
        self.ever_sampled[sel] |= True

    def _resample(self, ids: np.ndarray, k: int) -> np.ndarray:
        """Alg. 5 Resample: recount true induced degree; returns vertices
        that must join the frontier."""
        ids = ids[self.state[ids] != PEELED]
        if len(ids) == 0:
            return ids
        nbrs = gather_neighbors(self.indptr, self.adj, ids)
        alive = (self.state[nbrs] != PEELED).astype(np.int64)
        cnts = self.indptr[ids + 1] - self.indptr[ids]
        ends = np.cumsum(cnts)
        true_deg = np.add.reduceat(alive, ends - cnts)
        self.deg[ids] = true_deg
        self.smode[ids] = False
        self.met.resamples += len(ids)
        # Charge the compacted list size (see scan_size above), not the
        # full original adjacency the simulation conveniently gathers.
        self._charge_parallel(float(self.scan_size[ids].sum() + len(ids)), 0)
        self.scan_size[ids] = true_deg
        self._set_sampler(ids, k)
        self._on_decrement(ids)
        joins = ids[(self.deg[ids] <= k) & (self.state[ids] == ACTIVE)]
        self.state[joins] = QUEUED
        return joins

    def _validate(self, k: int) -> np.ndarray:
        """Alg. 5 Validate over all sample-mode vertices; resample the
        failures. Returns vertices that must join the frontier."""
        sm = np.flatnonzero(self.smode & (self.state == ACTIVE))
        if len(sm) == 0:
            return sm
        self.met.validations += len(sm)
        ok = validated(self.deg[sm], self.scnt[sm], self.srate[sm], k, self.algo.sample_r)
        # Validation piggybacks on the frontier-extraction pass: charge
        # its work but no extra global sync.
        self._charge_parallel(float(len(sm)), 0)
        return self._resample(sm[~ok], k)

    # -- subround step -------------------------------------------------------

    def _decrement_batch(
        self, targets: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, int, int, np.ndarray]:
        """Apply one subround's batch decrements to the active targets.
        Returns (next frontier adds, decremented ids, atomics max,
        sampled hits max, resample set).

        One ``np.unique`` sorts all the targets. Alg. 3 decrements every
        neighbor atomically, queued and peeled ones included, so the
        atomics max (an online peel's contention) counts them all; the
        decrements, which Alg. 2's histogram applies alike, skip them.
        The atomics max, the plain decrements and the sampled hits are
        masks on those distinct ids with their counts. Sample-mode
        targets are left out of the atomics max: their atomics are
        rate-thinned, and their binomial hits count instead.
        """
        if len(targets) == 0:  # no batch seed has a target to decrement
            return targets, targets, 0, 0, targets
        ids, cts = np.unique(targets, return_counts=True)
        active = self.state[ids] == ACTIVE
        smode = self.smode[ids]
        atomics = 0 if smode.all() else int(cts[~smode].max())
        plain = active & ~smode
        dec_ids = ids[plain]
        self.deg[dec_ids] -= cts[plain]
        dropped = dec_ids[self.deg[dec_ids] <= k]
        self.state[dropped] = QUEUED
        sampled = active & smode
        hits_max = 0
        resample_set = ids[:0]
        if sampled.any():
            sts = ids[sampled]
            hits = self.rng.binomial(cts[sampled], self.srate[sts])
            self.scnt[sts] += hits
            hits_max = int(hits.max())
            resample_set = sts[self.scnt[sts] >= self.mu]
        return dropped, dec_ids, atomics, hits_max, resample_set

    def _local_search(
        self, seeds: list, k: int, qcap: float, work_cap: float
    ) -> tuple[list, list, list, list, list]:
        """Run one FIFO local search from each seed (already peeled by
        the caller), in order. Chaining stops at ``qcap`` enqueued
        vertices or ``work_cap`` touched work. Returns (chain work per
        seed, popped vertices, plain decrements, dropped-but-not-chained
        vertices, sampled vertices that reached mu samples).

        RNG draws follow the model's order: one
        ``rng.random(len(sampled))`` per popped vertex that has active
        sample-mode neighbors."""
        indptr = memoryview(self.indptr)
        adj = memoryview(self.adj)
        deg = memoryview(self.deg)
        state = memoryview(self.state)
        core = memoryview(self.core)
        sampling = self.algo.sampling
        smode = memoryview(self.smode.view(np.uint8))
        srate = memoryview(self.srate)
        scnt = memoryview(self.scnt)
        mu = self.mu
        random = self.rng.random
        works: list = []
        popped: list = []
        dec: list = []
        spill: list = []
        full: list = []
        active, queued, peeled = ACTIVE, QUEUED, PEELED
        dec_append, spill_append = dec.append, spill.append
        for v in seeds:
            queue = [v]  # FIFO: iterating a list visits what is appended
            chain_work = 0
            for x in queue:
                lo, hi = indptr[x], indptr[x + 1]
                chain_work += 1 + hi - lo
                # Chain only while the queue and work budgets last, and
                # never chain through a high-degree vertex (its
                # neighbors are better peeled inner-parallel). Both
                # budgets only tighten, so the chained vertices are a
                # prefix of this list's drops and the rest spill.
                budget = chain_work
                spilling = False
                sampled = []
                for u in adj[lo:hi]:
                    if state[u] != active:
                        continue
                    if sampling and smode[u]:
                        sampled.append(u)
                        continue
                    d = deg[u] - 1  # simple graph: no dups in one list
                    deg[u] = d
                    dec_append(u)
                    if d > k:
                        continue
                    if not spilling:
                        budget += indptr[u + 1] - indptr[u]
                        if len(queue) < qcap and budget <= work_cap:
                            state[u] = peeled
                            core[u] = k
                            queue.append(u)
                            continue
                        spilling = True
                    state[u] = queued
                    spill_append(u)
                if sampled:
                    draws = random(len(sampled)).tolist()
                    for u, r in zip(sampled, draws):
                        if r < srate[u]:
                            c = scnt[u] + 1
                            scnt[u] = c
                            if c >= mu:
                                full.append(u)
            popped += queue
            works.append(chain_work)
        return works, popped, dec, spill, full

    def _peel(self, frontier: np.ndarray, k: int) -> tuple[np.ndarray, int]:
        """One subround of Alg. 1: peel the frontier and decrement its
        neighbors. Returns (next frontier, vertices peeled inside chains).

        Batch seeds decrement their neighbors inner-parallel; local seeds
        run a local search whose decrements chain (Sec. 4.2). The
        subround is then charged to each member by its mode: local
        chains, or a batch applied by its peel, through an offline
        histogram or online atomics."""
        algo = self.algo
        if algo.local_buffer:  # PKC: every seed chains, without a cap
            qcap = work_cap = math.inf
            batch, seeds = frontier[:0], frontier
        elif algo.vgc:  # only the short-list seeds chain
            qcap, work_cap = VGC_QUEUE, VGC_WORK_CAP
            alen = self.indptr[frontier + 1] - self.indptr[frontier]
            batch, seeds = frontier[alen > work_cap], frontier[alen <= work_cap]
        else:  # Alg. 1: no seed chains
            qcap = work_cap = 0
            batch, seeds = frontier, frontier[:0]
        # Batch (inner-parallel) path.
        targets = gather_neighbors(self.indptr, self.adj, batch)
        dropped, dec_ids, atomics, cmax, resample_set = self._decrement_batch(
            targets, k
        )
        if len(dec_ids):
            self._on_decrement(dec_ids)
        # Local searches.
        works = popped = dec = spill = full = ()
        if len(seeds):
            works, popped, dec, spill, full = self._local_search(
                seeds.tolist(), k, qcap, work_cap
            )
        if algo.local_buffer:
            p = self.mc.p
            chain = float(max(sum(works[t::p]) for t in range(p)))
        else:
            chain = float(max(works, default=0))
        self.met.max_chain = max(self.met.max_chain, int(chain))
        # Contention that every peel pays: the sampled hits and the
        # per-location atomic counts of the local searches, which touch
        # every non-sampled neighbor of every popped vertex (Alg. 3/5);
        # sample modes do not change in a subround.
        if popped:
            touched = gather_neighbors(self.indptr, self.adj, np.array(popped))
            if algo.sampling:
                touched = touched[~self.smode[touched]]
            if len(touched):
                _, cts = np.unique(touched, return_counts=True)
                cmax = max(cmax, int(cts.max()))
        if dec:
            self._on_decrement(np.unique(np.array(dec)))
        gathered = float(len(batch) + len(targets))
        chains = algo.vgc or algo.local_buffer
        if chains:
            work = gathered + sum(works)
            excess = max(0.0, chain - work / self.mc.p)
        for a, c in zip(self.algos, self.costs):
            # The batch's atomics contend online only (Alg. 3); offline,
            # a histogram applies it (Alg. 2).
            online = a.peel == "online"
            if chains:  # the longest chain is on the span
                span = self._contention(max(cmax, atomics) if online else cmax, c)
                self._charge_parallel(work + len(frontier), 1, span + excess, c)
            elif online:  # Alg. 3: atomic decrements
                span = self._contention(max(cmax, atomics), c)
                self._charge_parallel(gathered, self.mc.online_syncs, span, c)
            else:  # Alg. 2: histogram, no contention
                hist = self.mc.hist_passes * len(targets) + len(dec_ids)
                self._charge_parallel(gathered + hist, self.mc.offline_syncs, costs=c)
        out = [dropped, np.array(spill, dtype=np.int64)]
        if full:
            resample_set = np.unique(np.concatenate([resample_set, full]))
        if len(resample_set):
            out.append(self._resample(resample_set, k))
        return np.unique(np.concatenate(out)), len(popped) - len(works)

    # -- main loop -----------------------------------------------------------

    def _next_frontier(self, k: int) -> np.ndarray:
        """GetNextBucket on every structure, each charged its own cost;
        raises unless all return the same frontier."""
        frontier = None
        for a, s, c in zip(self.algos, self.structures, self.costs):
            f, cost = s.next_frontier(k, self.deg, self.state)
            self._charge_parallel(cost, 1, costs=c)
            if frontier is None:
                frontier = f
            elif not np.array_equal(f, frontier):
                first = self.algos[0]
                raise RuntimeError(
                    f"round {k}: structure {a.structure!r} of {a.name!r} returned "
                    f"a different frontier from {first.structure!r} of {first.name!r}"
                )
        return frontier

    def run(self, stop_at_k: int | None = None) -> tuple[np.ndarray, list[RunMetrics]]:
        """Peel round by round; return the coreness and one RunMetrics
        per config. With ``stop_at_k``, stop before that round and give
        every unpeeled vertex (its k-core) that coreness."""
        ids = np.arange(self.n, dtype=np.int64)
        for s, c in zip(self.structures, self.costs):
            self._charge_parallel(s.build(ids, self.deg), 1, costs=c)
        if self.algo.sampling:
            self._set_sampler(ids, 0)
            self._charge_parallel(float(self.n), 1)
        remaining = self.n
        k = 0
        while remaining > 0 and (stop_at_k is None or k < stop_at_k):
            frontier = self._next_frontier(k)
            self.state[frontier] = QUEUED
            subrounds = 0
            while True:
                while len(frontier):
                    self.core[frontier] = k
                    self.state[frontier] = PEELED
                    remaining -= len(frontier)
                    self.met.rho += 1
                    subrounds += 1
                    frontier, inside = self._peel(frontier, k)
                    remaining -= inside
                if not self.algo.sampling:
                    break
                # Validate at the END of round k, before k advances: a
                # sampled vertex whose true induced degree dropped to k
                # during this round's cascades must be peeled *in* this
                # round (coreness k), not detected one round late with
                # coreness k+1 (Sec. 4.1.2/4.1.4).
                frontier = self._validate(k)
                if len(frontier) == 0:
                    break
            self.met.subrounds_per_round.append(subrounds)
            self.met.rounds += 1
            k += 1
            if k > self.n + 2:  # safety net; cannot happen on valid input
                raise RuntimeError("peeling failed to terminate")
        if stop_at_k is not None:
            self.core[self.state != PEELED] = stop_at_k
        self.met.kmax = int(self.core.max()) if self.n else 0
        self.met.n_sampled = int(self.ever_sampled.sum())
        return self.core, [
            replace(
                self.met, algo=a.name, work=work, t_par_units=t_par,
                bspan_units=bspan, t_seq_units=work * self.mc.t_op,
                contention_units=cont, max_contention=cmax,
                structure=s.counters(),
                subrounds_per_round=list(self.met.subrounds_per_round),
            )
            for a, s, (work, t_par, bspan, cont, cmax)
            in zip(self.algos, self.structures, self.costs)
        ]
