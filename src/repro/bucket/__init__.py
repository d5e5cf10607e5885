"""Frontier-management structures for the peeling loop (paper Sec. 5):
scan-all (ParK/PKC), single bucket (Alg. 1), Julienne's fixed-b
buckets, the hierarchical bucketing structure (HBS), and the adaptive
final design (single bucket until the theta-core, then HBS)."""

from repro.bucket.interface import FrontierStructure  # noqa: F401
from repro.bucket.single import ScanAll, SingleBucket  # noqa: F401
from repro.bucket.fixed import FixedBuckets  # noqa: F401
from repro.bucket.hbs import HBS, AdaptiveHBS  # noqa: F401


def make_structure(name: str, n: int) -> FrontierStructure:
    """Factory used by simulator configs: 'scan_all' | 'single' |
    'fixed' | 'adaptive'. ``HBS`` itself runs only inside ``AdaptiveHBS``."""
    if name == "scan_all":
        return ScanAll(n)
    if name == "single":
        return SingleBucket(n)
    if name == "fixed":
        return FixedBuckets(n)
    if name == "adaptive":
        return AdaptiveHBS(n)
    raise ValueError(f"unknown frontier structure {name!r}")
