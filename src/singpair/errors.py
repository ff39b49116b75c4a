"""Exception hierarchy.

Everything raised on purpose derives from SingpairError so the CLI can map
failures to exit codes without enumerating modules.
"""

from __future__ import annotations


class SingpairError(Exception):
    """Base class for all deliberate failures."""


class PolyParseError(SingpairError):
    """Malformed polynomial text. Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class RingMismatchError(SingpairError):
    """Two operands live in different rings."""


class ExactDivisionError(SingpairError):
    """Division was requested but the quotient is not polynomial."""


class ExponentOverflowError(SingpairError):
    """An exponent or degree does not fit the fields of a packed monomial."""


class BudgetExceededError(SingpairError):
    """The Groebner reduction-step budget ran out.

    Mapped to CLI exit code 3. Carries the budget that was exhausted.
    """

    def __init__(self, budget: int) -> None:
        super().__init__(f"reduction budget of {budget} steps exceeded")
        self.budget = budget


class EmptyVarietyError(SingpairError):
    """Dimension or decomposition was asked of the empty variety."""


class NotZeroDimensionalError(SingpairError):
    """A zero-dimensional routine received a positive-dimensional ideal."""


class FactorScopeError(SingpairError):
    """Polynomial falls outside the supported factorization range."""


class ImproperIntersectionError(SingpairError):
    """An intersection that must be zero-dimensional is not."""


class SmoothnessError(SingpairError):
    """An intersection point sits on the singular locus of its chart."""


class CompleteIntersectionError(SingpairError):
    """A local complete-intersection presentation could not be exhibited."""


class CenterError(SingpairError):
    """A blowup center is unusable (not a regular sequence, wrong codim...)."""


class PerversityError(SingpairError):
    """Perversity data is malformed or a required bound fails hard."""


class ComplementarityError(SingpairError):
    """Perversities of a pairing do not sum to the top perversity."""


class ScenarioError(SingpairError):
    """A scenario file is malformed or internally inconsistent."""
