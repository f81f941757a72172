"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration value or malformed config file."""


class PowerBudgetError(ConfigError):
    """Power fractions exceed the transmit power budget."""


class NumericalDomainError(ArithmeticError):
    """A matrix that must be Hermitian positive definite is not, or a
    factorization failed."""


class DegenerateNullspaceError(NumericalDomainError):
    """The sensing direction lies (numerically) inside the nulled subspace."""


class OracleFailureError(RuntimeError):
    """The independent least-squares oracle did not converge to tolerance.

    This signals broken test infrastructure, not a detector failure.
    """
