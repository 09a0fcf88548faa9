"""Two-spinor algebra over a fixed reference frame.

Conventions, frozen once and used everywhere:

* metric signature (+, -, -, -), epsilon_{01} = epsilon^{01} = +1,
* raising / lowering: kappa^A = eps^{AB} kappa_B, kappa_B = kappa^A eps_{AB},
* world vectors translate to Hermitian 2x2 matrices through
  v^{AA'} = v^a g_a^{AA'} with

      g_0 = I/sqrt(2),  g_1 = sigma_z/sqrt(2),
      g_2 = sigma_x/sqrt(2),  g_3 = sigma_y/sqrt(2).

The e_1 axis sits on the matrix diagonal so that the null tetrad built
from the standard axes, l = (e0+e1)/sqrt(2), n = (e0-e1)/sqrt(2),
m = (e2+i e3)/sqrt(2), corresponds to the spin basis o = (1,0),
iota = (0,1) with l = o obar, n = iota iotabar, m = o iotabar and
o_A iota^A = 1.

A Dirac 4-spinor is the pair (phi_A, psi^{A'}) (unprimed lower plus
primed upper).  Clifford multiplication and the Dirac operator follow

    V . (phi + psi) = i sqrt(2) (V_{AA'} psi^{A'}  -  V^{AA'} phi_A),
    D  (phi + psi) = i sqrt(2) (grad_{AA'} psi^{A'} - grad^{AA'} phi_A),

the first slot of each result being the new unprimed-lower part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)

# eps[A, B] with eps[0, 1] = +1; the same matrix serves for upper and
# lower, primed and unprimed index pairs.
EPS = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)

ETA = np.diag([1.0, -1.0, -1.0, -1.0])

_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)

# Infeld-van der Waerden symbols of the reference frame: SIG[a] = g_a^{AA'}.
SIG = np.stack([
    np.eye(2, dtype=complex),
    _SIGMA_Z,
    _SIGMA_X,
    _SIGMA_Y,
]) / SQRT2

# Frame-index raised symbols g^a = eta^{ab} g_b, used by the Dirac operator.
SIG_UP = np.stack([SIG[0], -SIG[1], -SIG[2], -SIG[3]])


@dataclass
class DiracSpinorValue:
    """Massless Dirac 4-spinor: phi_A (unprimed lower) + psi^{A'} (primed upper)."""

    phi: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=complex)
        self.psi = np.asarray(self.psi, dtype=complex)
        if self.phi.shape != (2,) or self.psi.shape != (2,):
            raise ValueError("phi and psi must each have two components")


@dataclass
class SymSpinorValue:
    """Totally symmetric valence-n spinor, stored as scalars phi_0 .. phi_n.

    phi_j is the contraction with (n-j) copies of o^A and j copies of
    iota^A of the chosen spin basis.
    """

    valence: int
    components: np.ndarray

    def __post_init__(self):
        self.components = np.asarray(self.components, dtype=complex)
        if self.components.shape != (self.valence + 1,):
            raise ValueError("need valence+1 scalar components")


def lower_comps(upper: np.ndarray) -> np.ndarray:
    """kappa_B = kappa^A eps_{AB} on a trailing component axis."""
    return np.asarray(upper) @ EPS


def raise_comps(lower: np.ndarray) -> np.ndarray:
    """kappa^A = eps^{AB} kappa_B on a trailing component axis."""
    return np.asarray(lower) @ EPS.T


def to_matrix(v) -> np.ndarray:
    """v^{AA'} = v^a g_a^{AA'} over a (..., 4) array."""
    return np.einsum("...a,aij->...ij", np.asarray(v, dtype=complex), SIG)


def from_matrix(m: np.ndarray) -> np.ndarray:
    """Invert to_matrix: v^a = trace(g_a m) / trace(g_a g_a-part)."""
    m = np.asarray(m, dtype=complex)
    out = np.empty(m.shape[:-2] + (4,), dtype=complex)
    out[..., 0] = (m[..., 0, 0] + m[..., 1, 1]) / SQRT2
    out[..., 1] = (m[..., 0, 0] - m[..., 1, 1]) / SQRT2
    out[..., 2] = (m[..., 0, 1] + m[..., 1, 0]) / SQRT2
    out[..., 3] = (m[..., 0, 1] - m[..., 1, 0]) * 1j / SQRT2
    return out


def lower_matrix(m: np.ndarray) -> np.ndarray:
    """Lower both spinor indices: M_{AA'} = M^{BB'} eps_{BA} eps_{B'A'}."""
    return np.einsum("...ij,ik,jl->...kl", np.asarray(m, dtype=complex), EPS, EPS)


def minkowski(u, v) -> complex:
    """eta_{ab} u^a v^b."""
    return np.einsum("...a,ab,...b->...", np.asarray(u), ETA, np.asarray(v))


def symplectic_pairing(phi, psi, zeta, xi):
    """(u, v) = phi_A zeta^A + psi^{A'} xi_{A'} for u = (phi, psi), v = (zeta, xi).

    Components sit on the last axis, over any leading axes.  Antisymmetric,
    and Clifford multiplication is symmetric with respect to it:
    (V.u, v) = (u, V.v).
    """
    return (np.einsum("...a,...a->...", phi, raise_comps(zeta))
            + np.einsum("...a,...a->...", psi, lower_comps(xi)))


def clifford_batch(vecs: np.ndarray, phi: np.ndarray, psi: np.ndarray):
    """Clifford multiplication V . (phi + psi) over leading axes; vecs is (..., 4)."""
    m_up = to_matrix(vecs)
    m_low = lower_matrix(m_up)
    new_phi = 1j * SQRT2 * np.einsum("...ij,...j->...i", m_low, psi)
    new_psi = -1j * SQRT2 * np.einsum("...ji,...j->...i", m_up, phi)
    return new_phi, new_psi


def central_partials(f, x, h: float) -> np.ndarray:
    """Coordinate first derivatives of f at x by central differences.

    f maps a 4-point to an array; the result stacks d f / dx^a for
    a = 0..3 along a new leading axis, O(h^2).
    """
    return np.stack([(f(x + e) - f(x - e)) / (2.0 * h) for e in h * np.eye(4)])


def dirac_assemble(dphi: np.ndarray, dpsi: np.ndarray):
    """Dirac operator value from coordinate first derivatives.

    dphi[a, ..., A] = d phi_A / dx^a, dpsi[a, ..., A'] = d psi^{A'} / dx^a.
    Returns (Dphi, Dpsi) with D u = i sqrt2 grad_{AA'} psi^{A'} (+)
    -i sqrt2 grad^{AA'} phi_A.
    """
    sig_up_low = lower_matrix(SIG_UP)
    new_phi = 1j * SQRT2 * np.einsum("aij,a...j->...i", sig_up_low, dpsi)
    new_psi = -1j * SQRT2 * np.einsum("aij,a...i->...j", SIG_UP, dphi)
    return new_phi, new_psi


def dirac_apply_fd(phi: np.ndarray, psi: np.ndarray, h: float):
    """Apply the massless Dirac operator on a 4D grid by central differences.

    phi, psi: arrays of shape (N0, N1, N2, N3, 2) holding phi_A and
    psi^{A'} on a uniform grid with spacing h along every axis.  Returns
    (Dphi, Dpsi, interior) where Dphi/Dpsi are valid on the boolean
    `interior` mask (one layer trimmed per face) and the scheme is O(h^2).
    """
    phi = np.asarray(phi, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    if phi.shape != psi.shape or phi.ndim != 5 or phi.shape[-1] != 2:
        raise ValueError("phi, psi must both have shape (N0,N1,N2,N3,2)")

    def central(f, axis):
        out = np.zeros_like(f)
        sl_p = [slice(None)] * 5
        sl_m = [slice(None)] * 5
        sl_c = [slice(None)] * 5
        sl_p[axis] = slice(2, None)
        sl_m[axis] = slice(0, -2)
        sl_c[axis] = slice(1, -1)
        out[tuple(sl_c)] = (f[tuple(sl_p)] - f[tuple(sl_m)]) / (2.0 * h)
        return out

    dphi = np.stack([central(phi, a) for a in range(4)])   # (4, ..., 2)
    dpsi = np.stack([central(psi, a) for a in range(4)])
    new_phi, new_psi = dirac_assemble(dphi, dpsi)

    interior = np.zeros(phi.shape[:4], dtype=bool)
    interior[1:-1, 1:-1, 1:-1, 1:-1] = True
    return new_phi, new_psi, interior
