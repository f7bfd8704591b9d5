"""Exception types shared across the package."""


class RadpiError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RadpiError):
    """An input value lies outside the mathematical domain of an operation."""


class UsageError(RadpiError):
    """The API was invoked incoherently (scale mismatch, malformed input)."""


class PrecisionError(RadpiError):
    """The requested computation exceeds the configured precision budget."""


class CatalogMissError(RadpiError):
    """No exact angle ratio is cataloged for the given starting term."""


class CatalogFailure(RadpiError):
    """A classical-formula reproduction check failed; message names the form."""
