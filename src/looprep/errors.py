"""Exception types shared across the library.

Every error raised by library code derives from LoopRepError so callers
(and the CLI) can report failures by class name.
"""


class LoopRepError(Exception):
    """Base class for all library errors."""


# exact arithmetic

class ZeroDivisor(LoopRepError):
    """Inversion hit a zero divisor (zero element, or a reducible modulus)."""


class Singular(LoopRepError):
    """Matrix inversion of a singular matrix."""


# field context validation

class NotARoot(LoopRepError):
    """An automorphism image is not a root of the modulus, or a vector is
    not a positive root of the declared root system."""


class NotClosed(LoopRepError):
    """The declared automorphism set is not closed under composition."""


class WrongOrder(LoopRepError):
    """The declared group order does not match the modulus degree."""


class FixedFieldTooBig(LoopRepError):
    """A fixed subspace has the wrong rational dimension."""


class BadSubgroup(LoopRepError):
    """The declared subgroup is not a subgroup of the automorphism group."""


class NotSquareFree(LoopRepError):
    """The modulus shares a factor with its derivative."""


# root systems and weights

class UnknownType(LoopRepError):
    """Unrecognized simple Lie type string."""


class NotDominant(LoopRepError):
    """A dominant weight or dominant l-weight was required."""


class NotSameClass(LoopRepError):
    """Link chain endpoints lie in different root-lattice cosets."""


class SearchExhausted(LoopRepError):
    """A bounded search ended without an answer."""


class RootDataInconsistency(LoopRepError):
    """Root-system arithmetic broke an integrality or positivity law: a root
    length, coroot coefficient, Weyl dimension, weight depth, weight
    multiplicity or tensor-product multiplicity that must be a (positive)
    integer is not."""


# l-weights and classification

class ContextMismatch(LoopRepError):
    """Operands belong to different field contexts or Lie types."""


class DescentInconsistency(LoopRepError):
    """Galois descent failed its certificate: a class's weighted sum is not
    a positive multiple of its degree, or the dimensions do not add up."""


class UnsupportedType(LoopRepError):
    """The operation is only available for specific Lie types."""


class PrimitiveSearchFailed(LoopRepError):
    """The bounded primitive element search was exhausted."""


class CertificateFailed(LoopRepError):
    """A computed certificate of a mathematical claim failed: a K-matrix entry
    not fixed by H, or an image rank over Q that is not a multiple of [K:Q]."""


# series

class BadConstantTerm(LoopRepError):
    """A series operation required constant term 1."""


class ZeroPoint(LoopRepError):
    """Evaluation at the spectral point zero is undefined."""


class ExponentOverflow(LoopRepError):
    """A monomial exponent does not fit its slot of the packed form."""
