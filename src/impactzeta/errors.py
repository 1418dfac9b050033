"""Exception types shared across the package."""


class ImpactZetaError(Exception):
    """Base class for all errors raised by this package."""


class NotDivisible(ImpactZetaError):
    """Exact polynomial division left a nonzero remainder."""


class NonUnitDenominator(ImpactZetaError):
    """Series expansion needs a denominator with constant term 1."""


class UnknownVertex(ImpactZetaError):
    """A vertex address is not part of the tree it was used with."""


class LimitExceeded(ImpactZetaError):
    """A computation would exceed one of the package's size caps.

    A truncated tree or a walk-count BFS above ``building.MAX_VERTICES``, an
    ideal enumeration above ``padic.MAX_ENUMERATED_LATTICES``, or a scan of
    coset keys above ``padic.MAX_COSET_REPS``.
    """


class RadiusTooSmall(ImpactZetaError):
    """The truncated tree does not reach the requested layer."""


class TruncationInsufficient(ImpactZetaError):
    """A walk count asks for a distance beyond the BFS that was run."""


class UnsupportedHeight(ImpactZetaError):
    """Closed-form walk counts are only defined off the basin."""


class ArityMismatch(ImpactZetaError):
    """A type vector has the wrong number of components for the case."""


class UnsupportedPrime(ImpactZetaError, ValueError):
    """The requested residue characteristic is not supported.

    Also a ValueError: it names an invalid combination of arguments.
    """


class NotInOrderUnit(ImpactZetaError):
    """The element is not a unit of the requested order."""


class NotAnIdeal(ImpactZetaError):
    """The lattice is not closed under the module action."""


class OutsideTruncation(ImpactZetaError):
    """A lattice class falls outside the truncated tree it was located in."""


class InvariantViolation(ImpactZetaError):
    """A fact the construction guarantees failed at run time.

    Raised in place of a bare ``AssertionError``, so the command line
    reports it as one ``error:`` line, exit status 1, like any other
    package error.
    """
