"""Exception types shared across the package."""


class SpinpairError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SpinpairError):
    """Malformed or inconsistent run configuration."""


class NotStaticError(SpinpairError):
    """Operation requires a time-independent Hamiltonian."""


class NotIntegrableError(SpinpairError):
    """Drive profiles violate the proportionality required for the closed form."""


class BranchExitError(SpinpairError):
    """Mixing angle left the principal branch; closed form no longer valid."""


class AdmissibilityError(SpinpairError):
    """Rate-matching setup fails its admissibility inequality."""


class ResonancePoleError(SpinpairError):
    """Perturbative expression evaluated at (or too close to) its pole."""


class NormDriftError(SpinpairError):
    """Numerically propagated state norm drifted beyond tolerance."""


class InvalidDensityMatrixError(SpinpairError):
    """Matrix is not Hermitian / unit-trace / positive within tolerance."""
