"""Newman-Penrose tetrads and their spin bases.

A null tetrad (l, n, m, mbar) satisfies g(l,n)=1, g(m,mbar)=-1 with all
other products zero.  The associated spin basis (o, iota) reproduces the
tetrad through Hermitian outer products

    l = o obar,  n = iota iotabar,  m = o iotabar,

and is normalized to o_A iota^A = 1, leaving a two-fold sign ambiguity
that we fix with a documented tie-break.  The spin coefficients of a
cone section's frame are nulldata.section_spin_coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spinor import SQRT2, from_matrix, lower_comps, to_matrix


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


def _rank1_factor(mat):
    """o with o obar^T = mat for Hermitian PSD rank-1 mat."""
    scale = np.max(np.abs(mat))
    if abs(np.linalg.det(mat)) > 1e-10 * max(scale, 1.0) ** 2:
        raise ValueError("matrix is not rank one: the vector is not null")
    if mat[0, 0].real >= mat[1, 1].real:
        o0 = np.sqrt(mat[0, 0].real)
        if o0 == 0.0:
            raise ValueError("degenerate null vector")
        return np.array([o0, mat[1, 0] / o0], dtype=complex)
    o1 = np.sqrt(mat[1, 1].real)
    return np.array([mat[0, 1] / o1, o1], dtype=complex)


def spin_basis_from_tetrad(l, n, m):
    """Spin basis (o, iota) of a normalized NP tetrad.

    Unique up to overall sign; fixed by requiring the largest-magnitude
    component of o to have positive real part (if that real part is
    zero, positive imaginary part).
    """
    lmat = to_matrix(np.asarray(l, dtype=complex))
    o = _rank1_factor(lmat)
    # m = o iotabar fixes iotabar given o
    mmat = to_matrix(np.asarray(m, dtype=complex))
    iotabar = o.conj() @ mmat / (o @ o.conj()).real
    iota = iotabar.conj()
    # rescale by a unit phase so that o_A iota^A = 1 exactly
    s = lower_comps(o) @ iota
    if abs(abs(s) - 1.0) > 1e-10:
        raise ValueError(f"tetrad not normalized: |o_A iota^A| = {abs(s)}")
    lam = 1.0 / np.sqrt(s)
    o = lam * o
    iota = lam * iota
    nmat = to_matrix(np.asarray(n, dtype=complex))
    dev = np.max(np.abs(nmat - np.outer(iota, iota.conj())))
    if dev > 1e-10 * max(1.0, np.max(np.abs(nmat))):
        raise ValueError(f"n is not the outer square of iota (off by {dev:.2e}): "
                         "degenerate or inconsistent tetrad")
    idx = int(np.argmax(np.abs(o)))
    c = o[idx]
    if c.real < 0 or (c.real == 0 and c.imag < 0):
        o = -o
        iota = -iota
    return o, iota


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
