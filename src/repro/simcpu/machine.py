"""Machine cost model for the simulated shared-memory multicore.

The paper's analysis (Sec. 2) uses three cost notions that the model
mirrors directly:

- *work*: unit-weighted operation count; a parallel step of W ops on P
  cores takes W/P time.
- *burdened span* (Cilkview): each fork/join (one global sync per
  parallel step) charges omega. The paper reports burdened span with
  Cilkview's omega = 15,000; we keep that constant for burdened-span
  *reporting* (``omega_span``) but use a calibrated ``omega`` in the
  *time* model, because our graphs are ~10^3-10^4x smaller than the
  paper's while their subround counts shrink only ~10-40x — keeping
  omega = 15,000 would push every graph into the sync-bound regime and
  destroy the paper's crossovers. The default 100 preserves the
  paper-scale ratio between per-subround work (E_s/P) and sync cost
  (e.g. HCNS: 1e5 work-units per round vs omega = 15,000 in the paper,
  ~700 per round vs omega = 100 here). One constant, identical for
  every algorithm.
- *contention* (Sec. 2, [2]): c concurrent atomics on one memory
  location serialize; the subround's critical path pays
  (c_max - 1) * t_atomic.

Offline (Julienne) subrounds pay ``offline_syncs`` = 3 global syncs
(gather, histogram/semisort, apply+pack) and a histogram pass over the
gathered neighbor list; online subrounds pay one sync and the
contention term.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar


@dataclass(frozen=True)
class MachineConfig:
    """Simulated machine parameters (defaults model the paper's testbed
    shape at our graph scale). Only ``p`` and ``omega`` are settable;
    the rest are constants of the model."""

    p: int = 96  # cores
    omega: float = 100.0  # per-sync scheduling cost in the time model
    omega_span: ClassVar[float] = 15000.0  # Cilkview constant, burdened-span report
    # Serialized contended-atomic cost (units per concurrent op beyond
    # the first on one location). 16 edge-op units ~ one cache-line
    # transfer; keeps the sampling-protected algorithm's residual
    # contention (~mu-scale cmax) near omega per subround while
    # thousand-wide unsampled hub decrements (ParK/PKC) serialize badly.
    t_atomic: ClassVar[float] = 16.0
    t_op: ClassVar[float] = 1.0  # per vertex-touch / edge-traversal op
    unit_seconds: ClassVar[float] = 1e-8  # seconds per work unit in reports
    offline_syncs: ClassVar[int] = 3  # syncs per offline subround
    online_syncs: ClassVar[int] = 1  # syncs per online subround
    hist_passes: ClassVar[float] = 2.0  # histogram/semisort work multiplier

    def seconds(self, units: float) -> float:
        """Convert cost-model units to reported (simulated) seconds."""
        return units * self.unit_seconds
