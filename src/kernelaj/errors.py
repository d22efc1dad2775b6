"""Exception types shared across the package."""


class KernelAJError(Exception):
    """Base class for all errors raised by this package."""


class NoEvents(KernelAJError):
    """The cohort has no event to build a time grid from."""


class DegenerateRisk(KernelAJError):
    """A risk set is empty where the estimator requires it to be positive."""


class NonFiniteFeatures(KernelAJError, ValueError):
    """A feature row is not finite, or too large to embed."""


class ShapeMismatch(KernelAJError):
    """Array dimensions are inconsistent with the model or each other."""


class EmptyCohort(KernelAJError):
    """An operation received a cohort with no records."""


class NoComparablePairs(KernelAJError):
    """No pair of subjects is comparable for the concordance index."""


class DegenerateGrid(KernelAJError):
    """The evaluation time grid is too short to integrate over."""


class Diverged(KernelAJError):
    """A gradient step overflowed: the learning rate is too large."""


class TooSmall(KernelAJError):
    """The cohort is too small to split."""


class ParseError(KernelAJError):
    """A CSV file has no data rows, or a cell could not be parsed."""


class MissingColumn(KernelAJError):
    """A required column is absent from the input file."""


class SchemaMismatch(KernelAJError):
    """Input columns do not match the schema the model was fitted with."""


class ConfigError(KernelAJError):
    """A run configuration or command line is invalid."""
