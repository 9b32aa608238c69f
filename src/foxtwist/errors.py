"""Exception types for domain failures.

Plain programming errors (wrong ranks, incompatible degree caps, bad
argument types) raise ValueError/TypeError as usual; the classes below
mark failures that are meaningful statements about the mathematics.
"""


class FoxTwistError(Exception):
    """Base class for computational domain errors."""


class NotInvertible(FoxTwistError):
    """An element or matrix has no inverse in the truncation."""


class DomainError(FoxTwistError):
    """An argument lies outside the domain of the operation."""


class NotNondegenerate(FoxTwistError):
    """A pairing, or a candidate dual element, fails the non-degeneracy test."""


class IsotropyError(FoxTwistError):
    """The homology class of a proposed twist curve is not isotropic."""


class NilpotencyCapExceeded(FoxTwistError):
    """Exponentiation did not terminate; the derivation is not weakly nilpotent."""


class SolverError(FoxTwistError):
    """A symplectic expansion could not be built: the degree-2 defect is
    nonzero, or the corrections did not close the boundary condition."""
