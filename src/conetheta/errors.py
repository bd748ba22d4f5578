"""Exception types shared by all kernel modules."""


class ConethetaError(Exception):
    """Base class for every error raised by this package."""


class ShapeMismatch(ConethetaError):
    """Matrix or vector dimensions are inconsistent."""


class DegenerateForm(ConethetaError):
    """A quadratic form has an eigenvalue too close to zero."""


class SingularMatrix(ConethetaError):
    """A matrix required to be invertible is (numerically) singular."""


class NotSymplectic(ConethetaError):
    """Integer blocks fail the symplectic relations."""


class NotGamma12(ConethetaError):
    """A symplectic element fails the even-diagonal parity conditions."""


class SignatureMismatch(ConethetaError):
    """A form's signature differs from the one the caller declared."""


class NotFound(ConethetaError):
    """A bounded search, exhaustive up to its bound and cap, finished
    without a result."""


class NonPositiveRestriction(ConethetaError):
    """A form is not positive definite on the span it must be summed over."""


class NotSplitAfterTransform(ConethetaError):
    """A transformed basis loses positivity on its positive cone."""


class RadiusOverflow(ConethetaError):
    """Truncation radius exceeded its maximum before the tolerance was met."""


class BadCharacteristic(ConethetaError):
    """A characteristic vector is not integral after scaling by its type."""


class SingularDenominator(ConethetaError):
    """The matrix inverted inside a modular transform is singular."""


class AmbiguousZeta(ConethetaError):
    """Two candidate unit multipliers fit the reference identity equally well."""


class NonconvergentContour(ConethetaError):
    """The contour integral cannot converge for the given parameters."""


class WindowOverflow(ConethetaError):
    """A shifted support no longer fits inside the coefficient window."""


class WindowTooSmall(ConethetaError):
    """The coefficient window is too small for the requested complex."""


class ValidationError(ConethetaError):
    """Malformed input (CLI instances, JSON payloads, preconditions)."""
