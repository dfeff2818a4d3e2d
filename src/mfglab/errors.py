"""Two exception types, one per exit code: MFGLabError is a numerical
failure (exit 1) and its subclass ConfigError is invalid input (exit 2);
and the memory budget, MAX_RUN_BYTES, above which a run is invalid input."""

MAX_RUN_BYTES = 2**32  # largest float64 store a run may ask for


class MFGLabError(Exception):
    """A numerical operation failed; the message names the check."""


class ConfigError(MFGLabError):
    """A run configuration violates one of its invariants."""
