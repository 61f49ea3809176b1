"""syncround: round almost-synchronous nonlocal-game strategies to finite
convex combinations of synchronous ones, verifying every supporting
inequality numerically along the way."""

from .games import Game, coloring_game, is_synchronous_game, with_sync_test
from .rounding import (
    RoundingDecomposition,
    lemma_report,
    orthogonalize_povm,
    round_correlation,
    rounding_stages,
    slice_strategies,
    verify_connes,
)
from .strategies import (
    Correlation,
    Povm,
    TensorStrategy,
    TracialStrategy,
    correlation,
    correlation_distance,
    embed_tracial,
    perturb_strategy,
    random_strategy,
    synchronicity,
    tensor_correlation,
)

__all__ = [
    "Game",
    "coloring_game",
    "is_synchronous_game",
    "with_sync_test",
    "RoundingDecomposition",
    "lemma_report",
    "orthogonalize_povm",
    "round_correlation",
    "rounding_stages",
    "slice_strategies",
    "verify_connes",
    "Correlation",
    "Povm",
    "TensorStrategy",
    "TracialStrategy",
    "correlation",
    "correlation_distance",
    "embed_tracial",
    "perturb_strategy",
    "random_strategy",
    "synchronicity",
    "tensor_correlation",
]

__version__ = "0.1.0"
