"""Sequential baselines: the Batagelj–Zaversnik O(n+m) algorithm
(ground truth and the paper's "BZ" column) and a coreness verifier."""

from repro.seq.bz import bz_kcore, verify_coreness  # noqa: F401
