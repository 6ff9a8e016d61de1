"""Resource budget shared by the long-running searches."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .errors import BudgetExceededError

# Defaults sized so that every acceptance-tier computation finishes.
DEFAULT_MAX_SECONDS = 600.0
DEFAULT_MAX_CANDIDATES = 10**8


@dataclass
class SearchBudget:
    """Wall-clock and candidate-count caps for a search.

    ``check`` is called periodically with the running candidate count
    and raises BudgetExceededError when either cap is exceeded.  A
    value of None disables the corresponding cap.
    """

    max_seconds: float | None = DEFAULT_MAX_SECONDS
    max_candidates: int | None = DEFAULT_MAX_CANDIDATES
    _started: float = field(default=0.0, repr=False)

    def start(self) -> "SearchBudget":
        self._started = time.monotonic()
        return self

    def check(self, candidates: int) -> None:
        if self.max_candidates is not None and candidates > self.max_candidates:
            raise BudgetExceededError(
                f"candidate budget exceeded ({candidates} > {self.max_candidates})"
            )
        if self.max_seconds is not None:
            if not self._started:
                self.start()
            elapsed = time.monotonic() - self._started
            if elapsed > self.max_seconds:
                raise BudgetExceededError(
                    f"time budget exceeded ({elapsed:.1f}s > {self.max_seconds}s)"
                )

    def remaining(self) -> "SearchBudget":
        """An unstarted budget with the time left of this one.

        The candidate cap carries over unchanged: it bounds each search
        on its own count, not a total across searches.
        """
        seconds = self.max_seconds
        if seconds is not None and self._started:
            seconds = max(0.0, seconds - (time.monotonic() - self._started))
        return type(self)(max_seconds=seconds, max_candidates=self.max_candidates)
