"""Measured + modeled metrics for one simulated k-core run."""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RunMetrics:
    """Everything a table needs about one (graph, algorithm) cell.

    ``work``, ``rho``, ``rounds``, contention and structure counters are
    *measured* from the actual execution; ``t_par_units``,
    ``t_seq_units`` and ``bspan_units`` apply the machine cost model.
    """

    algo: str = ""
    n: int = 0
    m: int = 0  # undirected edge count
    kmax: int = 0
    rounds: int = 0
    rho: int = 0  # number of peeling subrounds
    work: float = 0.0  # unit-weighted operation count
    t_par_units: float = 0.0  # modeled parallel time (units)
    t_seq_units: float = 0.0  # modeled 1-core time (= work * t_op)
    bspan_units: float = 0.0  # burdened span with Cilkview omega
    max_contention: int = 0  # max concurrent ops on one location
    contention_units: float = 0.0  # total contention time charged
    max_chain: int = 0  # longest local-search / thread chain (work units)
    restarts: int = 0  # Las Vegas restarts (sampling recovery)
    n_sampled: int = 0  # vertices that ever entered sample mode
    resamples: int = 0
    validations: int = 0
    structure: dict = field(default_factory=dict)
    # Subrounds per round, in round order.
    subrounds_per_round: list = field(default_factory=list)

    def t_par_seconds(self, machine) -> float:
        return machine.seconds(self.t_par_units)

    def t_seq_seconds(self, machine) -> float:
        return machine.seconds(self.t_seq_units)
