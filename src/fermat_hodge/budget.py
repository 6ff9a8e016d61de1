"""Resource budget shared by the long-running searches."""

from __future__ import annotations

import time

from .errors import BudgetExceededError

# Defaults sized so that every acceptance-tier computation finishes.
DEFAULT_MAX_SECONDS = 600.0
DEFAULT_MAX_CANDIDATES = 10**8


class SearchBudget:
    """Wall-clock and candidate-count caps for one request.

    The budget is the one meter of a request: every search it is handed
    calls ``spend`` with the candidates it has just evaluated (0 for a
    time check alone), so ``spent`` is the request's running total and
    the caps bound the request, not each search on its own.  ``check``
    raises BudgetExceededError when either cap is exceeded; the clock
    starts at the first check.  A value of None disables the
    corresponding cap.  A plain class, so that a cache hit, which builds
    one, imports no ``dataclasses``.
    """

    __slots__ = ("max_seconds", "max_candidates", "spent", "_started")

    def __init__(
        self,
        max_seconds: float | None = DEFAULT_MAX_SECONDS,
        max_candidates: int | None = DEFAULT_MAX_CANDIDATES,
    ):
        self.max_seconds = max_seconds
        self.max_candidates = max_candidates
        self.spent = 0
        self._started: float | None = None

    def spend(self, count: int) -> None:
        """Add ``count`` candidates to the total, then check both caps."""
        self.spent += count
        self.check(self.spent)

    def check(self, candidates: int) -> None:
        if self.max_candidates is not None and candidates > self.max_candidates:
            raise BudgetExceededError(
                f"candidate budget exceeded ({candidates} > {self.max_candidates})"
            )
        if self.max_seconds is not None:
            if self._started is None:
                self._started = time.monotonic()
            elapsed = time.monotonic() - self._started
            if elapsed > self.max_seconds:
                raise BudgetExceededError(
                    f"time budget exceeded ({elapsed:.1f}s > {self.max_seconds}s)"
                )
