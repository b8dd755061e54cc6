"""Exception types shared across the package."""


class BudgetExceededError(ValueError):
    """An exhaustive enumeration or expansion order beyond the desk-scale budget."""


class QuadratureUnreliableError(RuntimeError):
    """Node doubling did not stabilize a quadrature to the required tolerance."""
