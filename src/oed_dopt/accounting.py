"""Global PDE-solve tally.

The unit is one PDE solve per column of F or F^T that a transport call yields,
as costs are usually reported for this problem class (``sensor_adjoints``
yields n_t columns per probe from one sweep).  The counter is a process-global
atomic tally so that cost assertions can wrap any code path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


@dataclass(frozen=True)
class SolveCounts:
    forward: int
    adjoint: int

    @property
    def total(self) -> int:
        return self.forward + self.adjoint

    def __sub__(self, other: "SolveCounts") -> "SolveCounts":
        return SolveCounts(self.forward - other.forward, self.adjoint - other.adjoint)


class SolveCounter:
    """Thread-safe forward/adjoint PDE-solve counter."""

    def __init__(self):
        self._lock = threading.Lock()
        self._forward = 0
        self._adjoint = 0

    def add_forward(self, n: int = 1) -> None:
        with self._lock:
            self._forward += n

    def add_adjoint(self, n: int = 1) -> None:
        with self._lock:
            self._adjoint += n

    def snapshot(self) -> SolveCounts:
        with self._lock:
            return SolveCounts(self._forward, self._adjoint)

    def reset(self) -> None:
        with self._lock:
            self._forward = 0
            self._adjoint = 0


#: Process-global tally used by the transport solver.
solve_counter = SolveCounter()


class count_solves:
    """Context manager reporting the solves spent inside the block.

    >>> with count_solves() as c:
    ...     ...
    >>> c.delta.forward, c.delta.adjoint
    """

    def __enter__(self):
        self._start = solve_counter.snapshot()
        self.delta = SolveCounts(0, 0)
        return self

    def __exit__(self, *exc):
        self.delta = solve_counter.snapshot() - self._start
        return False
