"""Every algorithm configuration a table can request, each defined once.

The paper names some designs differently in different evaluations.
``REGISTRY`` binds every such name to the *same* object, so the 18
names below cover 13 distinct configurations:

- ``ours``           final design: online peel + sampling + VGC +
                     adaptive HBS (Sec. 4, 5.3). Table 3 calls it
                     ``vgc+sample+hbs``, Fig. 8 ``buckets-adaptive``.
- ``plain``, ``vgc``, ``sample``, ``hbs``, ``vgc+sample``, ``vgc+hbs``,
  ``sample+hbs``     the other 7 technique combinations of Table 3;
                     HBS off means the plain single-bucket framework of
                     Alg. 1. Fig. 8 calls ``vgc+sample``
                     ``buckets-single``; Fig. 11 calls ``vgc+hbs``
                     ``ours-nosample``.
- ``ours-vgc-f16``, ``ours-novgc-f16``
                     ours with 16 fixed buckets instead of HBS, with
                     and without VGC (Figs. 9/14/15: "when no HBS is
                     used, we use 16 buckets"). Fig. 8 calls
                     ``ours-vgc-f16`` ``buckets-fixed``.
- ``julienne``       offline histogram peel + 16 fixed buckets
                     (work-efficient per the paper's Sec. 3.2 analysis).
- ``park``           online, no active set (``scan_all``:
                     O(m + k_max n) work), plain subrounds.
- ``pkc``            ``scan_all`` with unbounded thread-local buffers
                     (one subround per round, load-imbalance-prone).
"""
from __future__ import annotations

from repro.simcpu.engine import AlgoConfig

_CONFIGS = [
    AlgoConfig(name="ours", structure="adaptive", vgc=True, sampling=True),
    AlgoConfig(name="plain"),
    AlgoConfig(name="vgc", vgc=True),
    AlgoConfig(name="sample", sampling=True),
    AlgoConfig(name="hbs", structure="adaptive"),
    AlgoConfig(name="vgc+sample", vgc=True, sampling=True),
    AlgoConfig(name="vgc+hbs", structure="adaptive", vgc=True),
    AlgoConfig(name="sample+hbs", structure="adaptive", sampling=True),
    AlgoConfig(name="ours-vgc-f16", structure="fixed", vgc=True, sampling=True),
    AlgoConfig(name="ours-novgc-f16", structure="fixed", sampling=True),
    AlgoConfig(name="julienne", peel="offline", structure="fixed"),
    AlgoConfig(name="park", structure="scan_all"),
    AlgoConfig(name="pkc", structure="scan_all", local_buffer=True),
]

# Alias name -> the configuration name it stands for.
ALIASES = {
    "vgc+sample+hbs": "ours",
    "buckets-adaptive": "ours",
    "buckets-single": "vgc+sample",
    "buckets-fixed": "ours-vgc-f16",
    "ours-nosample": "vgc+hbs",
}

REGISTRY = {c.name: c for c in _CONFIGS}
REGISTRY |= {alias: REGISTRY[name] for alias, name in ALIASES.items()}

OURS = REGISTRY["ours"]
