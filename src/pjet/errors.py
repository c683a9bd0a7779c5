"""Error taxonomy shared across the package.

Every error carries a short machine-readable ``code`` so the CLI can surface
failures uniformly.
"""

from __future__ import annotations


class PjetError(Exception):
    code = "error"


class DomainError(PjetError, ValueError):
    """Value outside the domain an operation is defined on."""

    code = "domain"


class PrecisionExhausted(PjetError, ArithmeticError):
    """No guaranteed p-adic digits left for the requested operation."""

    code = "precision-exhausted"


class IntegralityViolation(PjetError, ArithmeticError):
    """A coefficient left the ring it was asserted to live in.

    Raised when an exact division that is structurally guaranteed fails, or
    when a denominator meets a prime it must be coprime to; either way it
    flags a bug or bad input rather than a tolerance issue.
    """

    code = "integrality"


class ReconstructionFailure(PjetError, ArithmeticError):
    """No rational of admissible height matches the given residues."""

    code = "reconstruction"


class MissingPrimeValue(PjetError, KeyError):
    """A Hecke coefficient at a prime was required but not supplied."""

    code = "missing-prime"
