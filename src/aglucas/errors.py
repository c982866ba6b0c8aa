"""Exception types shared across the package."""


class AGLError(Exception):
    """Base class for all errors raised by this package."""


class NonConvergence(AGLError):
    """A root solve failed: the iteration did not settle within its budget,
    or the companion eigenvalue solve could not run or converge."""


class MultiplicityViolation(AGLError):
    """An operation requiring simple zeros and poles met a repeated point."""


class HypothesisUnmet(AGLError):
    """The function does not have the required number of zeros in the region."""


class InsufficientCriticalPoints(AGLError):
    """Fewer critical points exist than the requested order statistic needs."""


class ContourNotFound(AGLError):
    """No constant-offset contour in the searched family avoids the exclusion balls.

    This signals an incomplete search, not a disproof: some admissible path
    always exists, it just need not be a constant-offset curve.
    """


class MarginNonPositive(AGLError):
    """The dominance margin on the contour is too small to certify anything."""


class NonIntegerWinding(AGLError):
    """The winding integral did not land near an integer; sampling too coarse."""


class SampleAtSingularity(AGLError):
    """A contour sample coincides with a zero or pole of the integrand."""


class ContourBoundaryConflict(AGLError):
    """A zero or pole lies on the contour itself, so inside/outside is undecidable."""
