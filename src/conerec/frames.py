"""Newman-Penrose tetrads and their spin bases.

A null tetrad (l, n, m, mbar) satisfies g(l,n)=1, g(m,mbar)=-1 with all
other products zero.  The associated spin basis (o, iota) reproduces the
tetrad through Hermitian outer products

    l = o obar,  n = iota iotabar,  m = o iotabar,

and is normalized to o_A iota^A = 1, which leaves its overall sign
free.  An NPFrame carries both, so nothing here factors a tetrad back
into its spin basis.  The spin coefficients of a cone section's frame
are cone.SectionCalculus.coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spinor import from_matrix, lower_comps


@dataclass
class NPFrame:
    """Null tetrad plus spin basis at a point.

    l, n are real null vectors, m complex; o, iota hold upper unprimed
    components.
    """

    l: np.ndarray
    n: np.ndarray
    m: np.ndarray
    o: np.ndarray
    iota: np.ndarray


def frame_from_spin_basis(o, iota) -> NPFrame:
    """Tetrad generated by a normalized spin basis via outer products."""
    o = np.asarray(o, dtype=complex)
    iota = np.asarray(iota, dtype=complex)
    s = lower_comps(o) @ iota
    if abs(s - 1.0) > 1e-10:
        raise ValueError(f"o_A iota^A = {s}, expected 1")
    l = from_matrix(np.outer(o, o.conj())).real
    n = from_matrix(np.outer(iota, iota.conj())).real
    m = from_matrix(np.outer(o, iota.conj()))
    return NPFrame(l, n, m, o, iota)

