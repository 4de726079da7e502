"""Exact Clifford algebra toolkit: mod-8 classification, idempotents,
tensor factorizations, representation walks, and a numeric spinor layer.
"""

__all__ = [
    "algebra",
    "classify",
    "cli",
    "linalg",
    "pauli",
    "periodicity",
    "reps",
    "suites",
    "table",
    "tensoriso",
]

__version__ = "0.1.0"
