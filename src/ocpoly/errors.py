"""Exception hierarchy shared by all ocpoly modules."""


class OcpolyError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(OcpolyError):
    """Malformed octonion, scalar or polynomial input."""


class InvalidInput(OcpolyError):
    """Precondition violation (zero polynomial, params mismatch, ...)."""


class UnsupportedDegree(OcpolyError):
    """Exact-mode central root finding is limited to low degrees."""


class NoConvergence(OcpolyError):
    """The simultaneous-iteration solver hit its iteration cap."""


class NotInvertible(OcpolyError):
    """Inversion of a zero or isotropic element."""


class NotConjugate(OcpolyError):
    """mu off lam's class at class_tol, or no conjugator within witness_tol
    (stating the misfit and threshold); rmr_witness reports it as NotInRMR."""


class WitnessFailure(OcpolyError):
    """No anisotropic conjugator found, as on a split algebra; a definite
    algebra always has one, so there this signals a bug."""


class NotInRMR(OcpolyError):
    """No scalar multiple of f has a root in the class (E = 0 != G, f(r) != 0
    at a central r, -E^-1 G outside it), or a witness failed its check."""


class WholeClass(OcpolyError):
    """The linear reduction vanished: every class member is a root, there is
    no distinguished single point."""


class ModeMismatch(OcpolyError):
    """Operation requires the other scalar mode (exact vs. real)."""


class ResourceLimit(OcpolyError):
    """A degree cap exceeded: of compose's inputs, or of a text read."""


class NotAFixedPoint(OcpolyError):
    """classify_fixed called on a point that f does not fix."""


class OrderMismatch(OcpolyError):
    """Claimed pseudo-period does not match the detected one."""
