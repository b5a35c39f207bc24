"""Exception types shared across the package."""


class KForcingError(Exception):
    """Base class for every error raised by this package."""


class EmptyGraphError(KForcingError):
    """Operation requires at least one vertex."""


class SelfLoopError(KForcingError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(KForcingError):
    """The same unordered edge was given more than once."""


class VertexOutOfRangeError(KForcingError):
    """A vertex index is negative or >= n."""


class TooFewVerticesError(KForcingError):
    """k-connectivity is only defined for graphs with n > k."""


class MalformedHeaderError(KForcingError):
    """graph6 input is empty, truncated, or uses an unsupported header."""


class BadCharacterError(KForcingError):
    """graph6 input contains a byte outside the printable range 63..126."""


class TrailingDataError(KForcingError):
    """graph6 input continues past the encoded adjacency bits."""


class TooLargeError(KForcingError):
    """graph6 output is limited to graphs with at most 62 vertices."""


class MalformedEdgeListError(KForcingError):
    """Edge-list text does not follow the 'n m' header / 'u v' line format."""


class InvalidParametersError(KForcingError):
    """Family parameters violate the family's constraints."""


class GenerationFailedError(KForcingError):
    """A randomized generator exhausted its retry budget."""


class NotAFixedPointError(KForcingError):
    """The supplied color state still admits a legal force."""


class NotConnectedError(KForcingError):
    """Operation requires a connected graph."""


class HypothesisFailedError(KForcingError):
    """The graph does not satisfy a bound's hypotheses."""


class BudgetExceededError(KForcingError):
    """The exact search stopped at its budget; carries the lower bound proven.

    `no_set_of_size_le` is the largest size s0 the budget covered: no set
    of size <= s0 forces, so the k-forcing number is at least s0 + 1.
    `subsets_tested` is the number of subsets of sizes 1 .. s0.
    """

    def __init__(self, message: str, no_set_of_size_le: int, subsets_tested: int):
        super().__init__(message)
        self.no_set_of_size_le = no_set_of_size_le
        self.subsets_tested = subsets_tested
