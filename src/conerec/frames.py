"""Newman-Penrose tetrads and their spin bases.

A null tetrad (l, n, m, mbar) satisfies g(l,n)=1, g(m,mbar)=-1 with all
other products zero.  The associated spin basis (o, iota) reproduces the
tetrad through Hermitian outer products

    l = o obar,  n = iota iotabar,  m = o iotabar,

and is normalized to o_A iota^A = 1, which leaves its overall sign
free.  An NPFrame carries both, so nothing here factors a tetrad back
into its spin basis.  The spin coefficients of a cone section's frame
are nulldata.section_spin_coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spinor import SQRT2, from_matrix, lower_comps


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


def transversal_iota(o, n_vec):
    """iota^A = n^{AA'} obar_{A'} for a null n with g(l, n) = 1.

    Closed form of the companion spinor: automatically satisfies
    o_A iota^A = 1 and iota iotabar = n when n is null and normalized
    against l = o obar.  o is (..., 2) and n_vec (..., 4), one spinor
    per row.  Written out on the components: n^{AA'} = (n^0 + n^1, n^2 -
    i n^3; n^2 + i n^3, n^0 - n^1) / sqrt2 and obar_{A'} = (-obar^1,
    obar^0).
    """
    n = np.asarray(n_vec)
    ob = np.conj(np.asarray(o, dtype=complex))
    ob0, ob1 = ob[..., 0], ob[..., 1]
    n0, n1, n2, n3 = n[..., 0], n[..., 1], n[..., 2], n[..., 3]
    cross = 1j * n3
    iota0 = (n2 - cross) * ob0 - (n0 + n1) * ob1
    iota1 = (n0 - n1) * ob0 - (n2 + cross) * ob1
    return np.stack([iota0, iota1], axis=-1) / SQRT2
