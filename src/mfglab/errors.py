"""Two exception types, one per exit code: MFGLabError is a numerical
failure (exit 1) and its subclass ConfigError is invalid input (exit 2)."""


class MFGLabError(Exception):
    """A numerical operation failed; the message names the check."""


class ConfigError(MFGLabError):
    """A run configuration violates one of its invariants."""
