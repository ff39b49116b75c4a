"""Exact stratification and intersection-pairing audits for blown-up hypersurfaces."""

from .errors import (
    BudgetExceededError,
    CenterError,
    CompleteIntersectionError,
    ComplementarityError,
    EmptyVarietyError,
    ExactDivisionError,
    FactorScopeError,
    ImproperIntersectionError,
    NotZeroDimensionalError,
    PerversityError,
    PolyParseError,
    RingMismatchError,
    ScenarioError,
    SingpairError,
    SmoothnessError,
)
from .polyring import MonomialOrder, Polynomial, PolynomialRing, parse_polynomial
from .ideals import DEFAULT_BUDGET, Ideal, reduction_budget
from .blowup import Chart, ResolutionTower
from .strata import PRESETS, RULES, Stratification
from .cycles import (
    Cycle,
    CycleFamily,
    Perversity,
    minimal_perversity,
    perversity_check,
)
from .pairing import audit, compare_towers, pair, pushforward, transform_cycle
from .scenario import Scenario, Workspace, parse_scenario, validate_scenario

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CenterError",
    "Chart",
    "CompleteIntersectionError",
    "ComplementarityError",
    "Cycle",
    "CycleFamily",
    "DEFAULT_BUDGET",
    "EmptyVarietyError",
    "ExactDivisionError",
    "FactorScopeError",
    "Ideal",
    "ImproperIntersectionError",
    "MonomialOrder",
    "NotZeroDimensionalError",
    "PRESETS",
    "Perversity",
    "PerversityError",
    "Polynomial",
    "PolynomialRing",
    "PolyParseError",
    "RULES",
    "ResolutionTower",
    "RingMismatchError",
    "Scenario",
    "ScenarioError",
    "SingpairError",
    "SmoothnessError",
    "Stratification",
    "Workspace",
    "audit",
    "compare_towers",
    "minimal_perversity",
    "pair",
    "parse_polynomial",
    "parse_scenario",
    "perversity_check",
    "pushforward",
    "transform_cycle",
    "validate_scenario",
    "__version__",
]
