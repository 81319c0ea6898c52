"""Exception taxonomy shared by all bandgap modules.

The CLI maps these onto stable exit codes: parameter/parse problems -> 2,
index-geometry problems -> 3, numerical/solver problems -> 4.
"""

from __future__ import annotations

import numpy as np


class BandgapError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(BandgapError, ValueError):
    """A parameter is outside its admissible domain (e.g. omega not in (0, pi))."""


class GeometryError(BandgapError, ValueError):
    """Windows, masks and series do not fit together (or the gap set is empty)."""


class SolverError(BandgapError, RuntimeError):
    """A numerical solve failed or a requested bound is unavailable."""


class NonConvergenceError(SolverError):
    """Iterative solve hit its iteration budget before reaching tolerance.

    Carries the last iterate so callers can inspect or restart.
    """

    def __init__(self, message: str, iterate: np.ndarray, residual: float, iterations: int):
        super().__init__(message)
        self.iterate = iterate
        self.residual = residual
        self.iterations = iterations


class OracleConditioningError(SolverError):
    """The brute-force oracle's normal equations are too ill-conditioned to trust."""
