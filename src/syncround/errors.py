"""Exception hierarchy.

Three families, matching the CLI exit codes: parse problems (exit 2),
validation problems (exit 3), and violated math contracts (exit 4).
"""


class SyncRoundError(Exception):
    """Base class for all package errors."""


class ParseError(SyncRoundError):
    """Input file could not be parsed; message names the field or position."""


class SchemaVersionMismatch(ParseError):
    """File carries an unsupported schema tag."""


class ValidationError(SyncRoundError):
    """Well-formed input violating a documented invariant."""


class AsymmetryExceedsTolerance(ValidationError):
    """Matrix is too far from Hermitian to hermitize."""


class InvalidProbability(ValidationError):
    """Probability parameter outside [0, 1]."""


class EmptyGraph(ValidationError):
    """Coloring game requested on a graph with no vertices."""


class AlphabetMismatch(ValidationError):
    """Game and strategy question/answer sets disagree."""


class NotSynchronousGame(ValidationError):
    """Operation requires a synchronous game."""


class NotPositive(ValidationError):
    """Matrix has eigenvalues below the positivity floor."""


class NotNormalized(ValidationError):
    """State fails its trace normalization."""


class MathContractError(SyncRoundError):
    """A lemma-backed numerical contract failed."""


class ConvergenceFailure(MathContractError):
    """Eigen/singular-value solver did not converge."""


class NonRealCorrelation(MathContractError):
    """Correlation entry has imaginary residue above linalg.CORR_IMAG_TOL."""


class BoundViolated(MathContractError):
    """Orthogonalization could not meet the 9-epsilon error bound."""


class NotPovm(MathContractError):
    """A constructed measurement family failed the POVM checks."""
