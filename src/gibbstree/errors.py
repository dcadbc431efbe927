"""Exception hierarchy shared across the package."""


class GibbsTreeError(Exception):
    """Base class for all package errors."""


class DomainError(GibbsTreeError):
    """A numeric input is outside the mathematical domain (non-finite, wrong sign, bad spin)."""


class ShapeError(GibbsTreeError):
    """A vector has the wrong length for the given number of spin states."""


class ParameterError(GibbsTreeError):
    """Invalid model or solver parameters."""


class HypothesisError(ParameterError):
    """The antiferromagnetic solver regime (k >= 3, 3 <= q <= k, 0 < theta < 1) is violated."""


class SelectorSyntaxError(ParameterError):
    """A set selector string could not be parsed at all (as opposed to being out of range)."""


class ConvergenceError(GibbsTreeError):
    """A root solver could not finish.

    Either a root polynomial (the block quotient or the mirror polynomial)
    could not be certified squarefree, an exact polynomial division left a
    remainder, or the grid helper refine ran out of its iteration budget.
    """


class BudgetError(GibbsTreeError):
    """A finite tree or the oracle's boundary sum would exceed its size budget."""


class ResidualError(GibbsTreeError):
    """A candidate solution was rejected because its residual is too large."""


class EvaluationError(GibbsTreeError):
    """A scanned function returned a non-finite value at a grid node."""
