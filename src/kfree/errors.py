"""Exception types shared across the package."""


class KfreeError(Exception):
    """Base class for package-specific failures."""


class ResourceError(KfreeError):
    """A request exceeds the configured memory budget."""


class BudgetError(KfreeError):
    """A scan or search budget was exhausted before a result was found."""


class NotAdmissibleError(KfreeError, ValueError):
    """A set required to be admissible occupies every class mod p^k."""

    def __init__(self, prime: int, message: str | None = None):
        self.prime = prime
        super().__init__(message or f"set occupies all residue classes modulo {prime}^k")
