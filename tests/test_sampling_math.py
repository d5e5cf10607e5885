"""Sampling-scheme math (Sec. 4.1): SetSampler/Validate semantics,
the Chernoff-style estimate of Lem. 4.1, and contention bounds."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import generators as gen
from repro.seq.bz import bz_kcore
from repro.simcpu.engine import AlgoConfig, MachineConfig, _Engine, run_kcore, validated
from repro.simcpu.configs import REGISTRY


def _engine(g, **kw):
    algo = AlgoConfig(name="t", sampling=True, **kw)
    return _Engine(g, [algo], MachineConfig())


def test_mu_is_theta_log_n():
    g = gen.chung_lu(1000, 8, seed=1)
    eng = _engine(g)
    assert eng.mu == math.ceil(4 * 2.5 * math.log(1000))


def test_set_sampler_threshold_and_rate():
    g = gen.hcns(200)  # clique degrees ~ 200+
    eng = _engine(g, sample_threshold=100)
    eng._set_sampler(np.arange(g.n, dtype=np.int64), 0)
    d = g.degrees()
    on = eng.smode
    # Only vertices above the threshold are in sample mode.
    assert (d[on] > 100).all()
    assert on.sum() > 0
    # rate = mu / ((1-r) d), clipped at 1.
    sel = np.flatnonzero(on)
    expect = np.minimum(1.0, eng.mu / (0.9 * d[sel]))
    assert np.allclose(eng.srate[sel], expect)


def test_set_sampler_respects_k_condition():
    """SetSampler requires d*r > k: near its peeling round a vertex
    must leave sample mode (the paper's correctness condition)."""
    g = gen.hcns(200)
    eng = _engine(g, sample_threshold=100)
    d = g.degrees()
    hub = int(np.argmax(d))
    k_big = int(d[hub] * 0.1) + 1  # k >= r*d: must NOT sample
    eng._set_sampler(np.array([hub]), k_big)
    assert not eng.smode[hub]
    eng._set_sampler(np.array([hub]), 0)
    assert eng.smode[hub]


def test_validate_fails_when_k_approaches():
    g = gen.hcns(200)
    eng = _engine(g, sample_threshold=100)
    eng._set_sampler(np.arange(g.n, dtype=np.int64), 0)
    sm = np.flatnonzero(eng.smode)
    assert len(sm)
    # At k close to d*r the first Validate condition fails and the
    # vertex is resampled (recounted + possibly out of sample mode).
    v = sm[0]
    k = int(g.degrees()[v] * 0.1) + 1
    joins = eng._validate(k)
    assert not eng.smode[v] or eng.deg[v] * 0.1 > k


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.integers(0, 10**4),
            st.floats(1e-6, 2.0),
        ),
        min_size=1,
        max_size=50,
    ),
    st.integers(0, 10**5),
    st.floats(0.01, 0.99),
)
def test_validated_scalars_match_arrays(vertices, k, r):
    """The dataflow program validates one Spark row at a time on Python
    ints and floats, the engine a whole array at once: both must take
    the same decision for every sampled vertex."""
    deg, cnt, rate = (np.array(c) for c in zip(*vertices))
    on_arrays = validated(deg, cnt, rate, k, r)
    assert on_arrays.tolist() == [validated(d, c, t, k, r) for d, c, t in vertices]


def test_chernoff_estimate_quality():
    """Lem 4.1 empirically: with mu = 4c ln n samples expected, the
    observed count is >= tp/4 in (essentially) every trial."""
    rng = np.random.default_rng(0)
    n = 10_000
    mu = math.ceil(4 * 3 * math.log(n))
    t = 2000  # removals
    p = mu / (0.9 * t)
    trials = rng.binomial(t, p, size=2000)
    assert (trials >= t * p / 4).mean() > 0.999


def test_sampled_contention_is_mu_bounded():
    """Sec. 4.1.5: contention on a sampled counter is ~mu/(1-r) per
    epoch instead of d(v)."""
    g = gen.chung_lu(20_000, 30, exponent=2.0, seed=7)
    _, plain = run_kcore(g, REGISTRY["plain"])
    _, samp = run_kcore(g, REGISTRY["sample"])
    # O(kappa + log n) plus the unsampled-threshold slack (Sec. 4.1.5).
    bound = math.ceil(4 * 2.5 * math.log(g.n)) / 0.9 + samp.kmax + 2 * 64
    assert samp.max_contention <= bound
    assert plain.max_contention > samp.max_contention


def test_resample_recounts_exact_degree():
    g = gen.hcns(150)
    eng = _engine(g, sample_threshold=60)
    eng._set_sampler(np.arange(g.n, dtype=np.int64), 0)
    # Peel nothing; recounts must equal the true degrees.
    sm = np.flatnonzero(eng.smode)[:5]
    eng.scnt[sm] = eng.mu
    eng._resample(sm, 0)
    assert np.array_equal(eng.deg[sm], g.degrees()[sm])


def test_sampling_correct_across_seeds():
    g = gen.planted_core(gen.chung_lu(3000, 12, seed=9), 150, 100, seed=9)
    truth = bz_kcore(g).core
    from repro.simcpu.engine import run_kcore

    for seed in range(5):
        cfg = replace(REGISTRY["ours"], seed=seed)
        core, met = run_kcore(g, cfg)
        assert np.array_equal(core, truth), seed
