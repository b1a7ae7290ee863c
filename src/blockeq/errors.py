"""Exception hierarchy shared by all blockeq modules, and the object and
integer checks that input files go through."""


class BlockeqError(Exception):
    """Base class for every error raised by this package."""


class SelfLoopError(BlockeqError):
    """An edge joins a vertex to itself."""


class NotABlockGraphError(BlockeqError):
    """Some block is 2-connected but not complete.

    Carries a witness: two vertices that lie in a common block but are
    not adjacent (distance >= 2 inside the block).
    """

    def __init__(self, witness, message=None):
        self.witness = tuple(witness)
        super().__init__(message or f"block is not a clique, witness pair {self.witness}")


class UnknownVertexError(BlockeqError):
    """A vertex id is outside 0..n-1."""


class DisconnectedError(BlockeqError):
    """Operation defined only for connected graphs."""


class EdgelessError(BlockeqError):
    """Operation defined only for graphs with at least one edge."""


class EmptyGraphError(BlockeqError):
    """Operation defined only for nonempty graphs."""


class TooLargeError(BlockeqError):
    """Input exceeds the configured exhaustive-search cap; skip, do not crash."""


class WIsInClosedNeighborhoodError(BlockeqError):
    """v-AIS query with w inside N[v] (the status would be vacuous)."""


class PreconditionViolatedError(BlockeqError):
    """A growth-operation guard failed; carries the violated clause."""

    def __init__(self, clause, detail=""):
        self.clause = clause
        self.detail = detail
        super().__init__(f"{clause}: {detail}" if detail else clause)


class ExhaustedRetriesError(BlockeqError):
    """Random generation found no legal operation within the retry budget."""


class NoCutVertexError(BlockeqError):
    """Decomposition search requires a graph containing a cut vertex."""


class InstanceInvariantError(BlockeqError):
    """A packing instance violates sum(A) == k*B or a_i <= B."""


class NotUniformConsistentError(BlockeqError):
    """Uniform-instance parameters do not satisfy a*n == k*B."""


class TBelowThresholdError(BlockeqError):
    """Requested color count below k+2 for the uniform coloring routine."""


class UncoloredVertexError(BlockeqError):
    """A coloring misses some vertex."""


class ColorOutOfRangeError(BlockeqError):
    """A color lies outside 1..t."""


class SearchBudgetExceededError(BlockeqError):
    """The exact search hit its node cap; result is unknown, not 'no'."""


class AlgorithmInvariantError(BlockeqError):
    """An internal postcondition failed; indicates a bug, not bad input."""


def require_int(value, name):
    """`value` when it is an int (bool refused); a ValueError naming the
    field `name` otherwise."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def require_ints(values, name):
    """`values` as a tuple when it is a list (or tuple) of ints (bool
    refused); a ValueError naming the field `name` otherwise."""
    if not isinstance(values, (list, tuple)) or any(type(x) is not int for x in values):
        raise ValueError(f"{name} must be a list of integers, got {values!r}")
    return tuple(values)


def require_object(value, name, keys):
    """`value` when it is a dict (a JSON object) holding every key in
    `keys`; a ValueError naming `name` and what is wrong otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {value!r}")
    for key in keys:
        if key not in value:
            raise ValueError(f"{name} lacks key {key!r}")
    return value
