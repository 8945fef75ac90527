"""Bell-experiment models whose hidden variable carries signed weights.

Builds two-party models mixed by signed weight tables, their negativity
witnesses and witness-augmented Bell bounds, and the saturating families,
and checks them against enumeration, LPs, a two-qubit generator and
sign-weighted sampling.
"""

from .core import (
    DEFAULT_TOLERANCE,
    OUTCOME_PAIRS,
    OUTCOMES,
    Behavior,
    LocalResponse,
    Model,
    QuasiDist,
    StructureError,
    ValidityReport,
    assemble_behavior,
    correlation,
    local_expectation,
    validate_behavior,
)
from .witnesses import (
    Branch,
    ChainedWitnessReport,
    WitnessReport,
    witness_chained,
    witness_chained_link,
    witness_faithful,
)
from .inequalities import (
    ScoreReport,
    chained_score,
    check_quasi_bell,
    lambda_local_score,
    mixture_score,
)
from .constructions import (
    SymbolStrategy,
    chained_saturating_model,
    chsh_saturating_model,
    model_from_strategies,
    saturating_strategies,
    saturating_weights,
)
from .serialization import (
    behavior_from_csv,
    behavior_to_csv,
    load_behavior_csv,
    load_model,
    model_from_json_dict,
    model_to_json_dict,
    save_model,
)

#: Names served from `oracle`, which imports numpy (and scipy's HiGHS binding
#: on its first LP solve); see `__getattr__`.
_ORACLE_NAMES = frozenset({
    "LPResult",
    "LPStatus",
    "SampleEstimate",
    "behavior_from_strategy_weights",
    "classical_bound_bruteforce",
    "enumerate_deterministic",
    "max_score_lp",
    "min_negativity_lp",
    "quantum_behavior",
    "signed_sample",
    "singlet_state",
})


def __getattr__(name: str):
    """Serve the oracle names, importing `oracle` (numpy) on first use; looked up on every
    access, so a replaced `quasibell.oracle` attribute shows."""
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DEFAULT_TOLERANCE",
    "OUTCOMES",
    "OUTCOME_PAIRS",
    "Behavior",
    "Branch",
    "ChainedWitnessReport",
    "LPResult",
    "LPStatus",
    "LocalResponse",
    "Model",
    "QuasiDist",
    "SampleEstimate",
    "ScoreReport",
    "StructureError",
    "SymbolStrategy",
    "ValidityReport",
    "WitnessReport",
    "assemble_behavior",
    "behavior_from_csv",
    "behavior_from_strategy_weights",
    "behavior_to_csv",
    "chained_saturating_model",
    "chained_score",
    "check_quasi_bell",
    "chsh_saturating_model",
    "classical_bound_bruteforce",
    "correlation",
    "enumerate_deterministic",
    "lambda_local_score",
    "load_behavior_csv",
    "load_model",
    "local_expectation",
    "max_score_lp",
    "min_negativity_lp",
    "mixture_score",
    "model_from_json_dict",
    "model_from_strategies",
    "model_to_json_dict",
    "quantum_behavior",
    "save_model",
    "saturating_strategies",
    "saturating_weights",
    "signed_sample",
    "singlet_state",
    "validate_behavior",
    "witness_chained",
    "witness_chained_link",
    "witness_faithful",
]
