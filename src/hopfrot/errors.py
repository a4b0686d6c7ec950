"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class NotUnit(DomainError):
    """A value required to have unit norm does not."""


class NotPure(DomainError):
    """A quaternion required to have zero scalar part does not."""


class ZeroVector(DomainError):
    """The zero vector was passed where a nonzero one is required."""


class UnknownCheck(KeyError):
    """A check name outside the verification catalog."""

    def __str__(self) -> str:
        return f"unknown check name: {self.args[0]}"
