"""Multiscale loop vertex expansion of a quartic vector model.

The package evaluates log Z of the model order by order through the
two-level jungle formula (Bosonic forests of intermediate-field replicas,
Fermionic forests coupling their blocks), checks the result against an
exact one-dimensional quadrature of the partition function, and verifies
numerically the combinatorial counts and convergence bounds entering the
construction.  Each quantity has one route here.  The second
implementations it is checked against live in the test suite: the scalar
kernel sums with their Faa di Bruno partition sum, the single-rule
quadrature of Z, the forest formula and the Berezin integral.
"""

from .errors import BudgetExceededError, QuadratureUnreliableError
from .model_core import ModelParams, SliceIndexSet, slice_range

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "ModelParams",
    "QuadratureUnreliableError",
    "SliceIndexSet",
    "slice_range",
    "__version__",
]
