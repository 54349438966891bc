"""Shared result record for inequality/identity check suites."""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class CheckReport:
    """Outcome of a sampled check.

    min_slack is the smallest margin by which the asserted inequality held
    (negative values are violations); metrics carries whatever extra numbers
    the specific check wants to surface.  The check passes exactly when it
    has no violations.
    """

    name: str
    n_samples: int
    n_violations: int
    min_slack: float
    metrics: dict = field(default_factory=dict)
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        return self.n_violations == 0

    @classmethod
    def from_slack(cls, name: str, slack, tol: float, metrics: dict | None = None,
                   notes: tuple = ()) -> CheckReport:
        """One sample per entry of slack; a sample holds when slack >= -tol.

        A NaN slack is a violation, and an empty slack gives min_slack inf.
        """
        slack = np.asarray(slack, dtype=float)
        low = float(slack.min(initial=np.inf))
        # counting is needed only when the smallest slack fails (or is NaN)
        n_violations = 0 if low >= -tol else int(
            slack.size - np.count_nonzero(slack >= -tol))
        return cls(name=name, n_samples=slack.size, n_violations=n_violations,
                   min_slack=low, metrics=metrics or {}, notes=tuple(notes))

    def as_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed, "notes": list(self.notes)}
