"""conerec: reconstruction of massless fields from null-cone data.

The package evaluates massless spin-n/2 fields (Weyl, Dirac, Maxwell,
and higher) at points inside a future null cone from their restriction
to the cone, using exact integral formulas in Minkowski space and a
transported-kernel generalization on curved backgrounds.
"""

__version__ = "0.1.0"
