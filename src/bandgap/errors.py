"""Exception taxonomy shared by all bandgap modules.

The CLI maps these onto stable exit codes: parameter/parse problems -> 2,
index-geometry problems -> 3, numerical/solver problems -> 4.  The test
oracles in `tests/oracles.py` raise their own subclasses of SolverError.
"""

from __future__ import annotations


class BandgapError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(BandgapError, ValueError):
    """A parameter is outside its admissible domain (e.g. omega not in (0, pi))."""


class GeometryError(BandgapError, ValueError):
    """Windows, masks and series do not fit together (or the gap set is empty)."""


class SolverError(BandgapError, RuntimeError):
    """A numerical solve failed or a requested bound is unavailable."""
