"""Exception types shared across the package."""


class OamemError(Exception):
    """Base class for all package-specific errors; those that reject a value are ValueErrors."""


class GridMismatch(OamemError):
    """Two fields live on different grids."""


class GridTooSmall(OamemError, ValueError):
    """Requested mode does not fit on the grid."""


class InvalidCharge(OamemError, ValueError):
    """Topological charge not supported by the requested hologram."""


class FitDegenerate(OamemError):
    """Least-squares design matrix is singular or underdetermined."""


class NoCounts(OamemError):
    """A reduction requires at least one registered count."""


class DomainError(OamemError, ValueError):
    """Argument outside the mathematically valid domain."""


class NonFiniteField(OamemError, ValueError):
    """A field sample is NaN or infinite, e.g. after an overflowing phase."""


class DimMismatch(OamemError, ValueError):
    """Operands have incompatible Hilbert-space dimensions."""


class NotPSD(OamemError):
    """Matrix is not positive semidefinite within tolerance."""


class InsufficientData(OamemError):
    """Measurement set does not determine the state."""


class ConfigError(OamemError):
    """Invalid or unparseable experiment configuration."""
