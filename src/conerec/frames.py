"""Newman-Penrose tetrads, spin bases, and numerical spin coefficients.

A null tetrad (l, n, m, mbar) satisfies g(l,n)=1, g(m,mbar)=-1 with all
other products zero.  The associated spin basis (o, iota) reproduces the
tetrad through Hermitian outer products

    l = o obar,  n = iota iotabar,  m = o iotabar,

and is normalized to o_A iota^A = 1, leaving a two-fold sign ambiguity
that we fix with a documented tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spinor import (
    ETA, SIG, lower_comps, minkowski, to_matrix,
)


@dataclass
class NPFrame:
    """Null tetrad plus spin basis at a point.

    l, n are real null vectors, m complex; o, iota hold upper unprimed
    components.  mbar and the Infeld-van der Waerden symbols are derived.
    """

    l: np.ndarray
    n: np.ndarray
    m: np.ndarray
    o: np.ndarray
    iota: np.ndarray

    @property
    def mbar(self):
        return self.m.conj()

    @property
    def ivw(self):
        return SIG

    def validate(self, tol: float = 1e-12):
        """Check the NP products, outer-product relations, and o_A iota^A = 1."""
        checks = np_products(self.l, self.n, self.m)
        expect = {"ll": 0, "nn": 0, "mm": 0, "ln": 1, "mmbar": -1, "lm": 0, "nm": 0}
        for key, want in expect.items():
            got = checks[key]
            if abs(got - want) > tol:
                raise ValueError(f"NP product {key} = {got}, expected {want}")
        for name, vec, left, right in (
                ("l", self.l, self.o, self.o),
                ("n", self.n, self.iota, self.iota),
                ("m", self.m, self.o, self.iota)):
            outer = np.outer(left, right.conj())
            dev = np.max(np.abs(to_matrix(vec) - outer))
            if dev > tol * max(1.0, np.max(np.abs(outer))):
                raise ValueError(f"outer-product relation for {name} off by {dev:.2e}")
        s = lower_comps(self.o) @ self.iota
        if abs(s - 1.0) > tol:
            raise ValueError(f"o_A iota^A = {s}, expected 1")
        return self


def np_products(l, n, m) -> dict:
    """The six defining inner products of a candidate null tetrad."""
    return {
        "ll": minkowski(l, l),
        "nn": minkowski(n, n),
        "mm": minkowski(m, m),
        "ln": minkowski(l, n),
        "mmbar": minkowski(m, np.conj(m)),
        "lm": minkowski(l, m),
        "nm": minkowski(n, m),
    }


def tetrad_from_frame(e0, e1, e2, e3, tol: float = 1e-12) -> NPFrame:
    """NP tetrad of an orthonormal frame: l,n = (e0 +- e1)/sqrt2, m = (e2+ie3)/sqrt2."""
    es = [np.asarray(e, dtype=float) for e in (e0, e1, e2, e3)]
    worst = 0.0
    for a in range(4):
        for b in range(4):
            worst = max(worst, abs(minkowski(es[a], es[b]) - ETA[a, b]))
    if worst > tol:
        raise ValueError(f"input frame not orthonormal, max deviation {worst:.3e}")
    l = (es[0] + es[1]) / np.sqrt(2.0)
    n = (es[0] - es[1]) / np.sqrt(2.0)
    m = (es[2] + 1j * es[3]) / np.sqrt(2.0)
    o, iota = spin_basis_from_tetrad(l, n, m)
    return NPFrame(l, n, m, o, iota)


def _rank1_factor(mat, tol):
    """o with o obar^T = mat for Hermitian PSD rank-1 mat."""
    scale = np.max(np.abs(mat))
    if abs(np.linalg.det(mat)) > tol * max(scale, 1.0) ** 2:
        raise ValueError("matrix is not rank one: the vector is not null")
    if mat[0, 0].real >= mat[1, 1].real:
        o0 = np.sqrt(mat[0, 0].real)
        if o0 == 0.0:
            raise ValueError("degenerate null vector")
        return np.array([o0, mat[1, 0] / o0], dtype=complex)
    o1 = np.sqrt(mat[1, 1].real)
    return np.array([mat[0, 1] / o1, o1], dtype=complex)


def spin_basis_from_tetrad(l, n, m, tol: float = 1e-10):
    """Spin basis (o, iota) of a normalized NP tetrad.

    Unique up to overall sign; fixed by requiring the largest-magnitude
    component of o to have positive real part (if that real part is
    zero, positive imaginary part).
    """
    lmat = to_matrix(np.asarray(l, dtype=complex))
    o = _rank1_factor(lmat, tol)
    # m = o iotabar fixes iotabar given o
    mmat = to_matrix(np.asarray(m, dtype=complex))
    iotabar = o.conj() @ mmat / (o @ o.conj()).real
    iota = iotabar.conj()
    # rescale by a unit phase so that o_A iota^A = 1 exactly
    s = lower_comps(o) @ iota
    if abs(abs(s) - 1.0) > tol:
        raise ValueError(f"tetrad not normalized: |o_A iota^A| = {abs(s)}")
    lam = 1.0 / np.sqrt(s)
    o = lam * o
    iota = lam * iota
    nmat = to_matrix(np.asarray(n, dtype=complex))
    dev = np.max(np.abs(nmat - np.outer(iota, iota.conj())))
    if dev > tol * max(1.0, np.max(np.abs(nmat))):
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
    from .spinor import from_matrix
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
    per row.
    """
    nmat = to_matrix(np.asarray(n_vec, dtype=complex))
    obar_low = lower_comps(np.asarray(o, dtype=complex)).conj()
    return np.einsum("...ij,...j->...i", nmat, obar_low)


@dataclass
class SpinCoefficients:
    rho: complex
    rho_prime: complex
    sigma_prime: complex
    tau_prime: complex
    kappa: complex
    epsilon: complex
    alpha: complex


def spin_coefficients_fd(frame_field, point, h: float) -> SpinCoefficients:
    """Spin coefficients of a smooth frame field by central differences.

    frame_field maps a 4-point to an NPFrame varying smoothly (no chart
    jumps across the stencil).  Differentiation uses coordinate partials,
    i.e. the chart is assumed Cartesian with vanishing connection, which
    holds everywhere this is used.  The coefficients are the spinor
    contractions

        kappa = o^A grad_l o_A        rho    = o^A grad_mbar o_A
        eps   = iota^A grad_l o_A     alpha  = iota^A grad_mbar o_A
        tau'  = -iota^A grad_l iota_A
        sigma'= -iota^A grad_mbar iota_A
        rho'  = -iota^A grad_m iota_A

    equivalent to rho = -(l, grad_mbar m) and rho' = -(n, grad_m mbar).
    """
    point = np.asarray(point, dtype=float)
    f0 = frame_field(point)
    do = np.empty((4, 2), dtype=complex)   # partials of o_A (lower comps)
    diota = np.empty((4, 2), dtype=complex)
    for a in range(4):
        step = np.zeros(4)
        step[a] = h
        fp = frame_field(point + step)
        fm = frame_field(point - step)
        do[a] = (lower_comps(fp.o) - lower_comps(fm.o)) / (2.0 * h)
        diota[a] = (lower_comps(fp.iota) - lower_comps(fm.iota)) / (2.0 * h)

    def direction(vec, table):
        return np.einsum("a,ai->i", vec, table)

    grad_l_o = direction(f0.l, do)
    grad_mbar_o = direction(f0.mbar, do)
    grad_l_iota = direction(f0.l, diota)
    grad_m_iota = direction(f0.m, diota)
    grad_mbar_iota = direction(f0.mbar, diota)
    return SpinCoefficients(
        rho=f0.o @ grad_mbar_o,
        rho_prime=-(f0.iota @ grad_m_iota),
        sigma_prime=-(f0.iota @ grad_mbar_iota),
        tau_prime=-(f0.iota @ grad_l_iota),
        kappa=f0.o @ grad_l_o,
        epsilon=f0.iota @ grad_l_o,
        alpha=f0.iota @ grad_mbar_o,
    )
