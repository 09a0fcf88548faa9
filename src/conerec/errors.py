"""Exception types shared across the geometry and data layers.

All derive from ValueError so call sites that only care about
"bad input" keep working; the CLI maps them to distinct exit codes.
"""


class GeometryError(ValueError):
    """A point or path leaves the geometric domain of validity."""


class CoverageError(ValueError):
    """Stored characteristic data does not cover the requested region."""


class ArgumentError(ValueError):
    """A bad value of the argument named `key`; the message starts with it,
    so a caller can prefix the block the argument was read from."""

    def __init__(self, key, must):
        super().__init__(f"{key} {must}")
        self.key = key
