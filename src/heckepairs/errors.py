"""Exception types shared across the package."""


class HeckePairsError(Exception):
    """Base class for all errors raised by this package."""


class SingularBasis(HeckePairsError):
    """A matrix that must be invertible has determinant zero."""


class NotSublattice(HeckePairsError):
    """Containment of lattices required but violated."""


class NotPrime(HeckePairsError):
    """An argument required to be prime is not."""


class BadDiscriminant(HeckePairsError):
    """Quadratic ring parameter d is unusable (not square-free, d <= 1, or d = 1 mod 4)."""


class DescriptorMismatch(HeckePairsError):
    """Group elements from different pair descriptors were combined."""


class NotInQ(HeckePairsError):
    """An element left the acting group of the descriptor."""


class BoundReached(HeckePairsError):
    """A walk or a size passed its bound (cosets, points, conductor or
    stage order): the answer is inconclusive, not a failure; raise the
    bound to go further."""


class CertificateFailed(HeckePairsError):
    """An explicit check on a computed result failed; indicates a bug."""


class FamilyConditionViolated(HeckePairsError):
    """A tower stage input fails one of the defining conditions.

    The message names which condition failed.
    """


class ActionNotWellDefined(HeckePairsError):
    """The quotient action of a stage is inconsistent; indicates a construction bug."""


class NotComparable(HeckePairsError):
    """Two tower stages are not nested, so no connecting map exists."""


class DetNotAllowed(HeckePairsError):
    """A matrix determinant lies outside the allowed unit group."""


class ConfigInvalid(HeckePairsError):
    """A run configuration or pair configuration file is malformed."""
