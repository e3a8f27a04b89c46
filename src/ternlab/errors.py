"""Exception and warning types shared across the package."""


class TernlabError(Exception):
    """Base class for all errors raised by ternlab."""


class InvalidInput(TernlabError):
    """Input data is malformed (non-finite entries, empty basis, bad shapes)."""


class ShapeError(TernlabError):
    """Operands have incompatible shapes or belong to different spaces."""


class NormUnavailable(TernlabError):
    """Operation needs operator norms, which only block presentations carry."""


class NotAnIdeal(TernlabError):
    """A subspace claimed to be an ideal fails the containment checks."""


class DecompositionInconclusive(TernlabError):
    """A spectral splitting could not be resolved within tolerance/budget."""


class PreconditionFailed(TernlabError):
    """A documented precondition was violated by the caller."""


class BorderlineWarning(UserWarning):
    """A solve landed in the numerically ambiguous residual band.

    Emitted instead of silently deciding quasi-invertibility when the
    residual falls between the acceptance and rejection thresholds.
    """
