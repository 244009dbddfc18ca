"""divexp: exact order-by-order quantum time evolution and its improved
perturbation scheme, built on exponential divided differences."""

from .coeff import (
    DividedDifferenceResult,
    NodeList,
    SingularNodesError,
    c_closed,
    dd_exp,
    denominators,
)
from .contraction import (
    ContractionPattern,
    TermPiece,
    enumerate_patterns,
    extract_secular_coefficients,
    mixed_second_order_pieces,
    second_order_pieces,
    secular_aggregate_coefficients,
    secular_aggregates,
    third_order_pieces,
)
from .improved import (
    GoldenRuleError,
    ImprovedSolution,
    RevisionEnergies,
    TransitionReport,
    improved_energy,
    improved_solution,
    improved_state_coefficients,
    improved_transition,
    revised_golden_rule,
    revision_energies,
)
from .model import (
    DegeneracyError,
    ModelError,
    ModelParseError,
    ModelValidationError,
    RedividedHamiltonian,
    SplitHamiltonian,
    StateVector,
    basis_state,
    default_gap_tol,
    dump_model,
    load_model,
    load_model_path,
    redivide,
    require_nondegenerate,
)
from .propagator import (
    BudgetExceededError,
    EigensolveError,
    EvolutionResult,
    SeriesTerm,
    TruncatedPropagator,
    evolve,
    oracle_eigensolve,
    series_term,
    truncated_propagator,
)
from .reference import TwoStateExact, exact_transition, usual_pt_quantities

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
