"""Exception hierarchy shared by all modules."""


class CompalgError(Exception):
    """Base class for all library errors."""


class NotSymmetric(CompalgError):
    pass


class NearSingular(CompalgError):
    pass


class NotUnitComplex(CompalgError):
    pass


class NotUnitQuaternion(CompalgError):
    pass


class NotOrthonormal(CompalgError):
    pass


class NotUnitNorm(CompalgError):
    pass


class NotCayleyTriple(CompalgError):
    pass


class NotOrthogonal(CompalgError):
    pass


class InconsistentSigns(CompalgError):
    """Sign of det L_a (or R_a) varied between samples: not a division algebra."""


class BadParameter(CompalgError):
    pass


class AbelianDerivations(CompalgError):
    pass


class NotInvariant(CompalgError):
    pass


class NotCanonical(CompalgError):
    pass


class NotSpecialOrthogonal(CompalgError):
    pass


class BadIndices(BadParameter):
    pass


class NotInBlock(CompalgError):
    pass


class RawTensorNotSupported(CompalgError):
    """Raised when a canonical form is requested for an algebra without
    constructor provenance; use analyze() for raw tensors."""
