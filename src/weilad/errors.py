"""Exception types shared across the package."""


class WeilError(Exception):
    """Base class for every error raised by this package."""


class DuplicateGenerator(WeilError):
    pass


class InfiniteDimension(WeilError):
    """The monomial relations do not bound some generator, so the quotient is not finite-dimensional."""


class BadParameter(WeilError):
    pass


class NotWellDefined(WeilError):
    """A generator-image family does not kill every vanishing monomial."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class AugmentationViolation(WeilError):
    """A generator image has a nonzero constant term."""


class SourceTargetMismatch(WeilError):
    pass


class AlgebraMismatch(WeilError):
    pass


class ScalarModeMismatch(WeilError):
    pass


class NotAUnit(WeilError):
    """Division or inversion applied to an element with zero constant term."""


class DomainError(WeilError):
    """A primitive was evaluated outside its real domain (e.g. log at a non-positive point)."""


class UnsupportedInRationalMode(WeilError):
    """Transcendental primitives have no exact rational values."""


class ParseError(WeilError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class UnknownFunction(ParseError):
    pass


class UnknownVariable(ParseError):
    pass


class SizeLimit(WeilError):
    """An enumeration or an algebra's product table would exceed its bound."""


class UnavailableInModel(WeilError):
    pass


class NonNatural(WeilError):
    """A family of components fails a naturality square."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
