"""Exception types shared across the package.

Each exception marks a violated precondition or, for the *internal
consistency* group, a situation that should be impossible if the
underlying combinatorics is implemented correctly.  The latter are raised
loudly instead of being repaired in place.
"""


class NilcommError(Exception):
    """Base class for all library errors."""


class InvalidParameter(NilcommError, ValueError):
    """Raised when a numeric parameter, such as a modulus or a sample count, is out of range."""


# -- partition input errors -------------------------------------------------

class EmptyPartition(NilcommError, ValueError):
    """Raised when a partition is built from no parts."""


class NonPositivePart(NilcommError):
    """Raised when a partition part is zero or negative."""


class UnequalWeight(NilcommError):
    """Raised when comparing partitions of different totals in dominance order."""


# -- poset errors -------------------------------------------------------------

class VertexNotInPoset(NilcommError):
    """Raised when a vertex subset refers to labels outside the poset."""


class CyclicCovers(NilcommError, ValueError):
    """Raised when a cover list has a cycle, so it describes no partial order."""


class PosetTooLarge(NilcommError):
    """Raised when an exhaustive routine is asked to handle too many vertices."""


# -- internal consistency failures -------------------------------------------

class NonMonotoneProfile(NilcommError):
    """Chain-union profile differences failed to be weakly decreasing.

    Signals a solver bug: the profile of maximum chain-union sizes is
    always concave for a finite poset.
    """


class ChainCertificateFailed(NilcommError):
    """The chains read off a flow are not k disjoint chains covering c_k vertices.

    Signals a solver bug: every unit of a valid flow follows a chain.
    """


class NonMonotoneSizes(NilcommError):
    """Removal sizes of a full process failed to be weakly decreasing."""


class NoMatchingSpec(NilcommError):
    """No anchor set reproduces a process prefix union as a chain family."""


# -- u-chain / process preconditions ------------------------------------------

class NotMaximumSimpleChain(NilcommError):
    """Replacement was attempted with an anchor that is not of maximum size."""


class EmptyChainRemoval(NilcommError):
    """A process step tried to remove an empty simple chain."""


class NotFullProcess(NilcommError):
    """A partition was requested from a process that did not exhaust the poset."""


class EnumerationCapExceeded(NilcommError):
    """Process enumeration produced more traces than the configured cap."""


# -- matrix sampling errors ----------------------------------------------------

class CommutationCheckFailed(NilcommError):
    """A sampled matrix does not commute with the Jordan matrix (parametrization bug)."""


class NotNilpotent(NilcommError):
    """A matrix expected to be nilpotent is not."""


class IncomparableSamples(NilcommError):
    """Sampled Jordan types have no dominance-maximum; refusing to guess."""


class Int64BoundExceeded(NilcommError):
    """A product mod p would leave int64: it is exact only while inner_dim*(p-1)^2 < 2^63."""
