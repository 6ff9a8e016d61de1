import os

import pytest
from hypothesis import HealthCheck, settings

from fermat_hodge import SearchBudget, enumerate_level, hilbert_basis
from fermat_hodge.errors import BudgetExceededError

settings.register_profile(
    "suite", deadline=None, suppress_health_check=list(HealthCheck)
)
settings.load_profile("suite")

_BASIS_MEMO = {}
_LEVEL_MEMO = {}


def stretch_enabled() -> bool:
    return os.environ.get("FERMAT_STRETCH") == "1"


@pytest.fixture(scope="session")
def get_basis():
    """Session-memoized complete basis (shared across test modules)."""

    def fn(m: int):
        if m not in _BASIS_MEMO:
            _BASIS_MEMO[m] = hilbert_basis(
                m, budget=SearchBudget(max_seconds=1800, max_candidates=None)
            )
        return _BASIS_MEMO[m]

    return fn


@pytest.fixture(scope="session")
def get_level():
    """Session-memoized level slices."""

    def fn(m: int, y: int):
        if (m, y) not in _LEVEL_MEMO:
            _LEVEL_MEMO[(m, y)] = tuple(enumerate_level(m, y))
        return _LEVEL_MEMO[(m, y)]

    return fn


class OverrunAfterSieve(SearchBudget):
    """A budget whose clock runs out once the level sieve has returned.

    Checks pass until the ``overrun_after_sieve`` fixture arms it at the
    end of the sieve; then ``grace`` more pass and every later one raises
    the time overrun.  A deterministic stand-in for a slow quasi search.
    """

    armed = False
    grace = 0

    def check(self, candidates: int) -> None:
        if self.armed:
            if self.grace <= 0:
                raise BudgetExceededError("time budget exceeded (after the sieve)")
            self.grace -= 1
        super().check(candidates)


@pytest.fixture
def overrun_after_sieve(monkeypatch):
    """The ``OverrunAfterSieve`` class, armed by ``check_condition``'s sieve."""
    import fermat_hodge.cycles as cycles

    sieve = cycles._levelwise

    def armed_sieve(m, top, budget, bottom=1):
        result = sieve(m, top, budget, bottom)
        if isinstance(budget, OverrunAfterSieve):
            budget.armed = True
        return result

    monkeypatch.setattr(cycles, "_levelwise", armed_sieve)
    return OverrunAfterSieve


@pytest.fixture
def count_member_calls(monkeypatch):
    """Install counting ``is_member`` wrappers in modules; returns the call list."""
    calls = []

    def install(*modules):
        for module in modules:
            original = module.is_member

            def counted(v, m, original=original):
                calls.append(v)
                return original(v, m)

            monkeypatch.setattr(module, "is_member", counted)
        return calls

    return install


@pytest.fixture
def slice_reads(monkeypatch):
    """Count the slices built: the (m, y) of every ``level_rows`` call."""
    import fermat_hodge.cycles as cycles
    import fermat_hodge.hilbert as hilbert

    calls = []
    for module in (cycles, hilbert):
        original = module.level_rows

        def counted(m, y, budget=None, original=original):
            calls.append((m, y))
            return original(m, y, budget)

        monkeypatch.setattr(module, "level_rows", counted)
    return calls
