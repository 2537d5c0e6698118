"""Exception hierarchy shared across the package."""


class VpbootError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(VpbootError):
    """Malformed or inconsistent input: bad shapes, labels, or file contents."""


class DegenerateDataError(VpbootError):
    """Structurally valid data that is statistically unusable.

    Examples: a table whose every entry is zero, a regression with no
    residual degrees of freedom, or a bootstrap run whose failure budget
    is exhausted.
    """


#: Reason codes of a degenerate fit, one per replicate of a batched
#: statistic; 0 means the fit is usable. A boolean mask's True reads as
#: ``DEGENERATE``.
DEGENERATE, NO_RESIDUAL_DF, FEW_SITES, FEW_SPECIES = 1, 2, 3, 4
DEGENERATE_REASONS = {
    DEGENERATE: "degenerate",
    NO_RESIDUAL_DF: "no residual degrees of freedom",
    FEW_SITES: "fewer than 3 live sites",
    FEW_SPECIES: "fewer than 2 live species",
}


class ReproductionCheckError(VpbootError):
    """A reproduction run finished but its trend or correlation checks failed."""
