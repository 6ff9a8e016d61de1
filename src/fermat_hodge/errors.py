"""Exception types shared across the package."""

from __future__ import annotations


class InvalidModulusError(ValueError):
    """Degree m is outside the supported range (m >= 2)."""


class ShapeError(ValueError):
    """A candidate vector has the wrong number of entries for its degree."""


class MembershipError(ValueError):
    """An operation requiring a monoid member was given a non-member."""


class JoinError(ValueError):
    """Last-coordinate compatibility fails for a character join."""


class HodgeLabelError(ValueError):
    """A character was required to be a Hodge label but is not."""


class IncompleteBasisError(RuntimeError):
    """A complete generating set was required but only a partial one exists."""


class BudgetExceededError(RuntimeError):
    """A search exceeded its configured time or candidate budget."""
