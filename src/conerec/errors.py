"""Exception types shared across the geometry and data layers.

All derive from ValueError so call sites that only care about
"bad input" keep working; the CLI maps them to distinct exit codes.
"""


class GeometryError(ValueError):
    """A point or path leaves the geometric domain of validity."""


class CoverageError(ValueError):
    """Stored characteristic data does not cover the requested region."""

