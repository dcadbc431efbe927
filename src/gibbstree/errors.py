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

    Either a root polynomial (the block two-step or the mirror polynomial)
    could not be certified squarefree, or the grid helper refine ran out of
    its iteration budget.
    """


class BudgetError(GibbsTreeError):
    """A finite tree would exceed build_tree's vertex budget."""


class ResidualError(GibbsTreeError):
    """A candidate solution was rejected because its residual is too large."""


class EvaluationError(GibbsTreeError):
    """A function could not be evaluated where the solver asked for it.

    Raised by the grid scan when a scanned function returns a non-finite
    value at a grid node, and by the exact polynomial evaluation for a point
    that is not dyadic.
    """
