"""Exception types shared across the package."""


class ShapeforgeError(Exception):
    """Base class for every domain error raised by this package."""


class IllegalCharacter(ShapeforgeError):
    """Input contains a character outside the expected alphabet."""


class UnbalancedBrackets(ShapeforgeError):
    """Brackets do not match up."""


class AdjacentPair(ShapeforgeError):
    """A base pair joins two adjacent vertices, which is not allowed."""


class EmptyResult(ShapeforgeError):
    """An abstraction produced an empty shape where one is required."""


class DirectlyNested(ShapeforgeError):
    """A bracket pair directly encloses a single spanning pair."""


class NegativeHeight(ShapeforgeError):
    """A lattice path dips below the horizontal axis."""


class NonzeroFinalHeight(ShapeforgeError):
    """A lattice path does not return to height zero."""


class NotInImage(ShapeforgeError):
    """A bracket string has no preimage under the path encoding.

    Decoding no longer raises it: every matched string has a preimage.
    Kept because ``shapeforge.errors`` is public."""


class NonUnitConstantTerm(ShapeforgeError):
    """A series operation requires constant term 1."""


class DivisibilityFailure(ShapeforgeError):
    """An exact division left a nonzero remainder."""


class SelfCheckFailure(ShapeforgeError):
    """A result failed its exact self-check."""


class UnknownIdentity(ShapeforgeError):
    """Requested identity name is not recognised."""


class NoRootFound(ShapeforgeError):
    """Root isolation failed to find a sign change."""


class LargeRemainder(ShapeforgeError):
    """A root witness fails its exact check, so deflating p at it would
    leave a remainder: its bracket shows no sign change of p, the float
    root lies outside the bracket, or the cofactor at it is not positive."""


class UnsupportedTarget(ShapeforgeError):
    """Requested asymptotic target is not recognised."""


class ResourceGuardExceeded(ShapeforgeError):
    """A parameter exceeds the enumeration or expansion guard."""
