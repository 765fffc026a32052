"""Exception hierarchy. ``exit_code`` maps onto the CLI's exit convention:
1 = input error, 2 = parameter error, 3 = internal invariant violation."""


class FastgasError(Exception):
    exit_code = 3


class InputError(FastgasError):
    exit_code = 1


class ParameterError(FastgasError):
    exit_code = 2


class FormatError(InputError):
    """Malformed embedding or graph file; message names the offending record."""


class ZeroVector(InputError):
    """A vector with zero norm has no cosine direction."""


class InvalidParameter(ParameterError):
    pass


class DimensionMismatch(ParameterError):
    pass


class InvalidK(ParameterError):
    pass


class IndexOutOfRange(ParameterError):
    pass


class EmptyVertexSet(ParameterError):
    pass


class PartitionMismatch(ParameterError):
    pass


class GraphTooSmall(ParameterError):
    pass


class GraphTooLarge(ParameterError):
    pass


class InvalidBisection(ParameterError):
    pass


class BudgetExceedsVertices(ParameterError):
    pass


class BudgetExceedsPool(ParameterError):
    pass


class EmptySelection(ParameterError):
    pass


class InternalError(FastgasError):
    pass
