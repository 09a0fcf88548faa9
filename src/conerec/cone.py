"""Flat-space cone geometry: sections sigma(q) = C+(p0) ^ C-(q).

Directions on the sphere of generators are labeled (theta, phi) with the
e1 axis polar: omega = (cos th, sin th cos ph, sin th sin ph), so that
the generator vector l(omega) = (1, omega) of the standard tetrad sits
at theta = 0.  Two spinor charts cover the sphere:

    chart A: u = (cos(th/2), sin(th/2) e^{i ph}),  singular at th = pi,
    chart B: u = e^{-i ph} u_A,                    singular at th = 0,

with o = 2^{1/4} u so that l = o obar exactly.  A (p,q)-weighted scalar
transforms between charts by f_A = e^{i ph (p-q)} f_B.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError
from .spinor import EPS, to_matrix

TWO_QUART = 2.0 ** 0.25
# Largest n_theta and n_phi a config or a data file may set: the
# Gauss-Legendre rule of n_theta rings costs O(n_theta^2) memory.
MAX_GRID = 1024


# ---------------------------------------------------------------------------
# sphere quadrature


@functools.lru_cache(maxsize=16)
def _grid_tables(n_theta, n_phi):
    """Angle-only tables of one grid size, shared by every grid built with it.

    Returns the ring arrays (theta, w_theta, phi, chart) and the flattened
    node arrays, ring-major (theta, phi, weight, chart, omega, o, obar).  The
    Gauss-Legendre rings increase in colatitude from the north pole, and
    the rings past the equator take chart B.  All arrays are read-only, so
    no caller can change what the next grid of the same size sees.
    """
    x, w_theta = np.polynomial.legendre.leggauss(n_theta)
    order = np.argsort(-x)
    theta, w_theta = np.arccos(x[order]), w_theta[order]
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    chart = (theta > math.pi / 2).astype(np.uint8)
    th = np.repeat(theta, n_phi)
    ph = np.tile(phi, n_theta)
    wt = np.repeat(w_theta, n_phi) * (2.0 * math.pi / n_phi)
    ch = np.repeat(chart, n_phi)
    omega = unit_directions(th, ph)
    o, _ = spin_basis_field(th, ph, ch)
    tables = (theta, w_theta, phi, chart, th, ph, wt, ch, omega, o, o.conj())
    for arr in tables:
        arr.flags.writeable = False
    return tables


@dataclass
class SphereGrid:
    """Product quadrature grid: Gauss-Legendre in cos(theta) x trapezoid in phi.

    Chart A covers the northern rings and chart B the southern ones, so
    the grid covers the whole sphere.  The arrays, obar = conj(o) at the
    nodes among them, are shared between grids of one size and read-only.
    """

    n_theta: int
    n_phi: int
    theta: np.ndarray = field(init=False)
    w_theta: np.ndarray = field(init=False)
    phi: np.ndarray = field(init=False)
    chart: np.ndarray = field(init=False)    # 0 = chart A, 1 = chart B, per ring
    obar: np.ndarray = field(init=False, repr=False, compare=False)
    _nodes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_phi % 2 or self.n_phi < 8:
            raise ValueError("n_phi must be even and at least 8")
        if self.n_theta < 4:
            raise ValueError("n_theta must be at least 4")
        tables = _grid_tables(self.n_theta, self.n_phi)
        self.theta, self.w_theta, self.phi, self.chart = tables[:4]
        self._nodes, self.obar = tables[4:10], tables[10]

    def angles(self):
        """Flattened (theta, phi, weight, chart) node arrays, ring-major."""
        return self._nodes[:4]

    def directions(self):
        """Unit directions omega (N, 3) and chart spin basis o (N, 2) at the
        nodes of angles(); see unit_directions and spin_basis_field."""
        return self._nodes[4], self._nodes[5]


def unit_directions(theta, phi):
    """omega(theta, phi) with the e1 axis polar; shape (..., 3)."""
    st = np.sin(theta)
    return np.stack([np.cos(theta), st * np.cos(phi), st * np.sin(phi)], axis=-1)


def spin_basis_field(theta, phi, chart):
    """(o, iota) upper components of the cone-adapted basis, batched.

    chart is 0/1 per node.  o satisfies l = o obar with l = (1, omega);
    iota is the companion for the canonical transversal n = (1, -omega)/2,
    so the pair is the adapted frame of an on-axis section.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    chart = np.asarray(chart)
    half = theta / 2.0
    eip = np.exp(1j * phi)
    o = np.stack([np.cos(half) + 0j, np.sin(half) * eip], axis=-1) * TWO_QUART
    iota = np.stack([-np.sin(half) / eip, np.cos(half) + 0j], axis=-1) / TWO_QUART
    # chart B carries the extra e^{-i phi} on o (and its inverse on iota)
    b = chart == 1
    phase = np.where(b, np.exp(-1j * phi), 1.0)
    o = o * phase[..., None]
    iota = iota / phase[..., None]
    return o, iota


def chart_transition(values, phi, weight, to_chart):
    """Re-express weighted-scalar values in the requested chart (0=A, 1=B),
    one or per node; values are in the other chart, f_A = e^{i phi (p-q)} f_B.
    """
    p, q = weight
    s = p - q
    if s == 0:
        return np.array(values, copy=True)
    factor = np.exp(1j * s * np.asarray(phi))
    return np.where(np.asarray(to_chart) == 0, values * factor, values / factor)


# ---------------------------------------------------------------------------
# cone sections


@dataclass
class ConeSection:
    """sigma(q) sampled over a sphere grid of generator directions.

    Per-node arrays (flattened ring-major): omega, r0, r, the spin frame
    (o, iota) and the geometric area element mu_sigma, which are all the
    flat evaluator reads; omega and o are the grid's own tables, so data
    callbacks compute direction-only factors once per grid.  The points
    p, the null legs (l, n), rho = -1/r0 and the Leray weight mu_leray =
    mu_sigma / (4 r0 r) are derived when first read and then kept.
    """

    p0: np.ndarray
    q: np.ndarray
    grid: SphereGrid
    theta: np.ndarray
    phi: np.ndarray
    quad_w: np.ndarray
    chart: np.ndarray
    omega: np.ndarray
    r0: np.ndarray
    r: np.ndarray
    o: np.ndarray
    iota: np.ndarray
    mu_sigma: np.ndarray

    @property
    def n_nodes(self):
        return self.r0.size

    @functools.cached_property
    def l(self):
        """Generator legs l = (1, omega), (N, 4)."""
        return np.concatenate([np.ones_like(self.r0)[:, None], self.omega], axis=1)

    @functools.cached_property
    def p(self):
        """Section points p = p0 + r0 l, (N, 4)."""
        return self.p0[None, :] + self.r0[:, None] * self.l

    @functools.cached_property
    def n(self):
        """Transversal legs n = (q - p) / r with g(l, n) = 1, (N, 4)."""
        return (self.q[None, :] - self.p) / self.r[:, None]

    @functools.cached_property
    def rho(self):
        """Spin coefficient rho = -1/r0, complex (N,)."""
        return (-1.0 / self.r0).astype(complex)

    @functools.cached_property
    def mu_leray(self):
        """Leray weights mu_sigma / (4 r0 r), (N,)."""
        return self.mu_sigma / (4.0 * self.r0 * self.r)


def build_section(p0, q, grid: SphereGrid) -> ConeSection:
    """Geometry of sigma(q) for q chronologically after the vertex p0.

    Per direction omega the generator point solving both null conditions
    sits at affine radius r0 = Gamma0(q) / (2 (t - x.omega)) with
    (t, x) = q - p0, and the backward radius is r = t - x.omega, so that
    q = p + r n with n = (q - p)/r and g(l, n) = 1.  The companion
    iota^A = n^{AA'} obar_{A'} needs no n: l^{AA'} obar_{A'} = o^A
    (obar^{A'} obar_{A'}) = 0 and n = (q - p0 - r0 l) / r, so iota^A =
    (q - p0)^{AA'} obar_{A'} / r, one constant chord for every node.
    """
    p0 = np.asarray(p0, dtype=float)
    q = np.asarray(q, dtype=float)
    dq = q - p0
    t, x = dq[0], dq[1:]
    gamma0 = float(t * t - x[0] * x[0] - x[1] * x[1] - x[2] * x[2])
    # relative to t^2, so a q near the vertex deep inside the cone is kept
    if dq[0] <= 0 or gamma0 < 1e-8 * dq[0] ** 2:
        raise GeometryError("q must lie strictly inside the future cone of p0 "
                         f"(interval {gamma0:.3e}, dt {dq[0]:.3e})")
    # t^2 underflows first: below the smallest normal float the interval
    # has lost its digits, and at 0 the radii vanish
    tiny = np.finfo(float).tiny
    if gamma0 < tiny:
        raise GeometryError(f"interval {gamma0:.3e} of q - p0 is below the smallest "
                            f"normal float {tiny:.3e}; q is too close to the vertex")
    theta, phi, quad_w, chart = grid.angles()
    omega, o = grid.directions()
    r = t - omega @ x
    if np.any(r <= 0):
        raise GeometryError("section extends behind the evaluation point")
    r0 = gamma0 / (2.0 * r)
    # obar_{A'} = obar^{B'} eps_{B'A'}, with eps folded into the chord's
    # 2x2 matrix; the reciprocals are taken in floating point and cast
    # once, since a real operand sends the product through a casting loop
    iota = (grid.obar @ (EPS @ to_matrix(dq).T)) * (1.0 / r).astype(complex)[:, None]
    mu_sigma = quad_w * r0 ** 2
    return ConeSection(p0=p0, q=q, grid=grid, theta=theta, phi=phi,
                       quad_w=quad_w, chart=chart, omega=omega, r0=r0, r=r,
                       o=o, iota=iota, mu_sigma=mu_sigma)


def section_tangents(section: ConeSection, td: TangentialDerivatives):
    """Embedding tangents and induced metric of a section.

    Returns t_theta, t_phi (N, 4), the derivatives of the points p along
    the grid angles, g11, g12, g22 (N,), the induced metric
    -eta(t_i, t_j) in (theta, phi), and its determinant det (N,).
    """
    p = section.p.astype(complex)
    t_th = td.d_theta(p).real
    t_ph = td.d_phi(p).real
    g11 = minus_eta(t_th, t_th)
    g12 = minus_eta(t_th, t_ph)
    g22 = minus_eta(t_ph, t_ph)
    return t_th, t_ph, g11, g12, g22, g11 * g22 - g12 ** 2


def minus_eta(t, u):
    """-eta(t, u) = t_1 u_1 + t_2 u_2 + t_3 u_3 - t_0 u_0 per row of (N, 4)
    arrays, in one pass over the spatial components."""
    return (t[:, 1:] * u[:, 1:]).sum(axis=1) - t[:, 0] * u[:, 0]


# ---------------------------------------------------------------------------
# tangential differentiation on sections

_DTHETA_STENCIL = 9


def theta_derivative_matrix(grid: SphereGrid) -> np.ndarray:
    """Matrix D with (D f)[i, :] = df/dtheta at ring i.

    Works on the doubled meridian: (theta, phi) and (-theta, phi + pi)
    are the same sphere point, as are (pi + t, phi) and (pi - t,
    phi + pi), so any single-valued field extends through both poles by
    f(-theta, phi) = f(pi + t, phi) = f(theta_mirror, phi + pi).  Every
    ring then gets a centered stencil.  Returns D of shape
    (n_theta, 2 n_theta); columns 0..n-1 act on f(theta_i, phi), columns
    n..2n-1 on f(theta_i, phi + pi).

    Each row is the middle row of the barycentric differentiation matrix
    of its 9 stencil nodes x_j (Berrut & Trefethen, SIAM Rev. 46 (2004),
    eq. 9.4): w_j = (b_j / b_c) / (x_c - x_j) with b_j = 1 / prod_{k != j}
    (x_j - x_k), and the middle weight minus the sum of the others.  Near
    a pole two stencil nodes can be the same grid column; their weights
    add.

    A field regular in one chart is garbage near the opposite pole; its
    derivative there is equally garbage but local stencils keep the
    pollution confined to rings within half a stencil of that pole.
    """
    th = grid.theta
    nt = th.size
    idx = np.arange(nt)
    ext = np.concatenate([-th[::-1], th, 2.0 * math.pi - th[::-1]])
    col = np.concatenate([idx[::-1] + nt, idx, idx[::-1] + nt])
    half = _DTHETA_STENCIL // 2
    # with n_theta >= 4 every stencil, centered on c = nt + i, fits in ext
    e = nt + idx[:, None] + np.arange(-half, half + 1)
    x = ext[e]
    diff = x[:, :, None] - x[:, None, :]
    diff[:, np.arange(_DTHETA_STENCIL), np.arange(_DTHETA_STENCIL)] = 1.0
    b = 1.0 / np.prod(diff, axis=2)
    w = np.zeros_like(x)
    off = np.arange(_DTHETA_STENCIL) != half
    w[:, off] = b[:, off] / b[:, [half]] / (x[:, [half]] - x[:, off])
    w[:, half] = -w.sum(axis=1)
    D = np.zeros((nt, 2 * nt))
    np.add.at(D, (np.repeat(idx, _DTHETA_STENCIL), col[e].ravel()), w.ravel())
    return D


class TangentialDerivatives:
    """d/dtheta and d/dphi of ring-major fields on a section's grid.

    A field is (N,) or (N, k), one column per component, N = n_theta
    n_phi; each derivative is complex, with the field's shape.
    phi-derivatives are spectral (FFT); theta-derivatives use 9-point
    stencils on the Gauss-Legendre nodes, extended through both poles
    onto the phi + pi meridian (see theta_derivative_matrix).
    """

    def __init__(self, grid: SphereGrid):
        self.grid = grid
        self._dmat = theta_derivative_matrix(grid)
        k = np.fft.fftfreq(grid.n_phi, d=1.0 / grid.n_phi)
        self._ik = 1j * k[:, None]

    def _rings(self, f):
        """f as (n_theta, n_phi, k)."""
        return np.asarray(f).reshape(self.grid.n_theta, self.grid.n_phi, -1)

    def d_phi(self, f):
        out = np.fft.ifft(self._ik * np.fft.fft(self._rings(f), axis=1), axis=1)
        return out.reshape(np.shape(f))

    def d_theta(self, f):
        fr = self._rings(np.asarray(f, dtype=complex))
        shifted = np.roll(fr, self.grid.n_phi // 2, axis=1)
        stacked = np.concatenate([fr, shifted])   # (2 nt, nphi, k)
        # D is real: one real product acts on real and imaginary parts alike
        out = self._dmat @ stacked.reshape(2 * self.grid.n_theta, -1).view(float)
        return out.view(complex).reshape(np.shape(f))
