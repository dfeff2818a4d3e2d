"""Exception types raised by the numerical operations."""


class MFGLabError(Exception):
    """Base class for all package-specific failures."""


class VelocityCutoffError(MFGLabError):
    """A minimisation or backtracking step hit the velocity search boundary."""


class NotConvergedError(MFGLabError):
    """A long-time limit did not settle within its tolerance."""


class AmbiguousClassificationError(MFGLabError):
    """min |v| falls inside the guard band between the two drift regimes."""


class NotPeriodicRegimeError(MFGLabError):
    """An operation requiring a periodic-orbit drift field got fixed points."""


class MassDriftError(MFGLabError):
    """A density push-forward lost or gained more mass than allowed."""


class DegenerateBacktrackError(MFGLabError):
    """A characteristic backtracking chain left the velocity cutoff."""


class ConfigError(MFGLabError):
    """A run configuration violates one of its invariants."""
