"""Exception types shared across the package, and the integer test that
refuses a parameter with ``InvalidParameter``.

Each exception marks a violated precondition or a failed check.  The
checks are the ``CheckFailed`` family: a situation that should be
impossible if the underlying combinatorics is implemented correctly.  It
is raised loudly instead of being repaired in place, and a sweep reports
it as a failure of the partition being checked.
"""
from numbers import Integral


class NilcommError(Exception):
    """Base class for all library errors."""


class InvalidParameter(NilcommError, ValueError):
    """Raised when a numeric parameter, such as a modulus or a sample count, is out of range."""


def is_integer(x: object) -> bool:
    """Whether x may be a count, an index, a seed or a modulus: an integer,
    numpy integers included, but not a bool.  An int is answered before
    the ``Integral`` check, which costs about ten times as much."""
    return type(x) is int or isinstance(x, Integral) and not isinstance(x, bool)


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


# -- process and sampling limits -------------------------------------------

class NotMaximumSimpleChain(NilcommError):
    """Replacement was attempted with an anchor that is not of maximum size."""


class EnumerationCapExceeded(NilcommError):
    """Process enumeration would produce more traces than ``uprocess.TRACE_CAP``."""


class Int64BoundExceeded(NilcommError):
    """``PrimeField`` refuses a modulus whose product of two residues, up to (p-1)^2, leaves int64."""


# -- failed checks (internal consistency) -------------------------------------

class CheckFailed(NilcommError):
    """Base class for a check that fails: a bug, not bad input.

    A sweep reports it as a failure of the partition being checked.
    """


class NonMonotoneProfile(CheckFailed):
    """A profile of maximum union sizes is not concave: a solver bug."""


class ChainCertificateFailed(CheckFailed):
    """The chains read off a flow are not k disjoint chains covering c_k vertices.

    Signals a solver bug: every unit of a valid flow follows a chain.
    """


class StrandsOverlap(CheckFailed, AssertionError):
    """Two strands of one specification share a vertex."""


class EmptyChainRemoval(CheckFailed):
    """A process step tried to remove an empty simple chain."""


class RelabelCollision(CheckFailed, AssertionError):
    """A relabeled survivor of a removal lands on the removed chain."""


class RemovalSizeMismatch(CheckFailed):
    """A removal's size differs from the number of vertices its step loses."""


class NotFullProcess(CheckFailed):
    """A partition was requested from a process that did not exhaust the poset."""


class NonMonotoneSizes(CheckFailed):
    """Removal sizes of a full process failed to be weakly decreasing."""


class NoMatchingSpec(CheckFailed):
    """No anchor set reproduces a process prefix union as a chain family."""


class CommutationCheckFailed(CheckFailed):
    """A sampled matrix does not commute with the Jordan matrix (parametrization bug)."""


class NotNilpotent(CheckFailed):
    """A matrix expected to be nilpotent is not."""
