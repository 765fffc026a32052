"""Errors: one class per exit code. `cli.main` prints the message and exits
with the class's code.

1, FormatError: a malformed input, such as an embedding, graph or selection
   file that breaks its format, a zero vector, or pool and test vectors of
   different dimensions.
2, InvalidParameter: a setting or argument out of range, such as k, K, a
   budget, m or a vertex index, or a selection with no instances.
3, InternalError: the program broke one of its own invariants.
"""


class FastgasError(Exception):
    exit_code: int


class FormatError(FastgasError):
    exit_code = 1


class InvalidParameter(FastgasError):
    exit_code = 2


class InternalError(FastgasError):
    exit_code = 3
