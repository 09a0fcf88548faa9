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

from .errors import ArgumentError, GeometryError
from .frames import transversal_iota
from .spinor import ETA, minkowski

TWO_QUART = 2.0 ** 0.25


# ---------------------------------------------------------------------------
# sphere quadrature


@functools.lru_cache(maxsize=16)
def _rings(n_theta):
    """Gauss-Legendre ring colatitudes, increasing from the north pole,
    and their weights in cos(theta); read-only."""
    x, w = np.polynomial.legendre.leggauss(n_theta)
    order = np.argsort(-x)
    rings = np.arccos(x[order]), w[order]
    for arr in rings:
        arr.flags.writeable = False
    return rings


@functools.lru_cache(maxsize=16)
def _grid_tables(n_theta, n_phi, chart_mode, cap):
    """Angle-only tables of one grid key, shared by every grid built with it.

    Returns the ring arrays (theta, w_theta, phi, keep, chart) and the
    flattened node arrays over kept rings, ring-major (theta, phi,
    weight, chart, omega, o).  All are read-only, so no caller can change
    what the next grid of the same key sees.
    """
    theta, w_theta = _rings(n_theta)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    if chart_mode == "double":
        keep = np.ones(n_theta, dtype=bool)
        chart = (theta > math.pi / 2).astype(np.uint8)
    else:
        keep = theta < math.pi - cap
        chart = np.zeros(n_theta, dtype=np.uint8)
    th = np.repeat(theta[keep], n_phi)
    ph = np.tile(phi, int(keep.sum()))
    wt = np.repeat(w_theta[keep], n_phi) * (2.0 * math.pi / n_phi)
    ch = np.repeat(chart[keep], n_phi)
    omega = unit_directions(th, ph)
    o, _ = spin_basis_field(th, ph, ch)
    tables = (theta, w_theta, phi, keep, chart, th, ph, wt, ch, omega, o)
    for arr in tables:
        arr.flags.writeable = False
    return tables


def check_cap(n_theta, chart_mode, cap):
    """Raise ArgumentError unless cap is a ring cut the grid can use: in
    [0, pi), 0 under "double", and keeping at least the northernmost
    ring under "single+cap"."""
    if not 0.0 <= cap < math.pi:
        raise ArgumentError("cap", f"must lie in [0, pi), got {cap!r}")
    if chart_mode == "double" and cap != 0.0:
        raise ArgumentError("cap", f"must be 0 with chart_mode 'double', got {cap!r}")
    if not _rings(n_theta)[0][0] < math.pi - cap:
        raise ArgumentError("cap", f"{cap!r} drops every ring of an n_theta = "
                                   f"{n_theta} grid")


@dataclass
class SphereGrid:
    """Product quadrature grid: Gauss-Legendre in cos(theta) x trapezoid in phi.

    chart_mode "double" assigns chart A to the northern rings and chart B
    to the southern ones; "single+cap" uses chart A everywhere and drops
    rings within `cap` radians of the south pole (see check_cap for the
    caps accepted).  The arrays are shared
    between grids of the same (n_theta, n_phi, chart_mode, cap) and are
    read-only.
    """

    n_theta: int
    n_phi: int
    chart_mode: str = "double"
    cap: float = 0.0
    theta: np.ndarray = field(init=False)
    w_theta: np.ndarray = field(init=False)
    phi: np.ndarray = field(init=False)
    keep: np.ndarray = field(init=False)     # ring mask (cap exclusion)
    chart: np.ndarray = field(init=False)    # 0 = chart A, 1 = chart B, per ring
    _nodes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_phi % 2 or self.n_phi < 8:
            raise ValueError("n_phi must be even and at least 8")
        if self.n_theta < 4:
            raise ValueError("n_theta must be at least 4")
        if self.chart_mode not in ("double", "single+cap"):
            raise ValueError(f"unknown chart_mode {self.chart_mode!r}")
        check_cap(self.n_theta, self.chart_mode, self.cap)
        tables = _grid_tables(self.n_theta, self.n_phi, self.chart_mode, self.cap)
        self.theta, self.w_theta, self.phi, self.keep, self.chart = tables[:5]
        self._nodes = tables[5:]

    def angles(self):
        """Flattened (theta, phi, weight, chart) arrays over kept nodes, ring-major."""
        return self._nodes[:4]

    def directions(self):
        """Unit directions omega (N, 3) and chart spin basis o (N, 2) at the
        nodes of angles(); see unit_directions and spin_basis_field."""
        return self._nodes[4], self._nodes[5]

    @property
    def excluded_solid_angle(self):
        return float(np.sum(self.w_theta[~self.keep]) * 2.0 * math.pi)


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
    """Re-express weighted-scalar values in the requested chart (0=A, 1=B).

    values are assumed given in the opposite chart; f_A = e^{i phi (p-q)} f_B.
    """
    p, q = weight
    s = p - q
    if s == 0:
        return np.array(values, copy=True)
    factor = np.exp(1j * s * np.asarray(phi))
    if to_chart == 0:
        return values * factor
    return values / factor


# ---------------------------------------------------------------------------
# cone sections


@dataclass
class ConeSection:
    """sigma(q) sampled over a sphere grid of generator directions.

    Per-node arrays (flattened ring-major over kept rings): omega, r0, r,
    p (points on the section), the adapted frame (l, n, o, iota), rho,
    and the quadrature weights mu_sigma (geometric area element) and
    mu_leray = mu_sigma / (4 r0 r).
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
    p: np.ndarray
    l: np.ndarray
    n: np.ndarray
    o: np.ndarray
    iota: np.ndarray
    rho: np.ndarray
    mu_sigma: np.ndarray
    mu_leray: np.ndarray

    @property
    def n_nodes(self):
        return self.r0.size


def _section_scale(p0, q):
    return max(1.0, float(np.max(np.abs(q - p0))))


def build_section(p0, q, grid: SphereGrid) -> ConeSection:
    """Geometry of sigma(q) for q chronologically after the vertex p0.

    Per direction omega the generator point solving both null conditions
    sits at affine radius r0 = Gamma0(q) / (2 (t - x.omega)) with
    (t, x) = q - p0, and the backward radius is r = t - x.omega, so that
    q = p + r n with n = (q - p)/r and g(l, n) = 1.
    """
    p0 = np.asarray(p0, dtype=float)
    q = np.asarray(q, dtype=float)
    dq = q - p0
    gamma0 = float(minkowski(dq, dq).real)
    scale = _section_scale(p0, q)
    if dq[0] <= 0 or gamma0 < 1e-8 * scale ** 2:
        raise GeometryError("q must lie strictly inside the future cone of p0 "
                         f"(interval {gamma0:.3e}, dt {dq[0]:.3e})")
    theta, phi, quad_w, chart = grid.angles()
    omega, o = grid.directions()
    t, x = dq[0], dq[1:]
    r = t - omega @ x
    if np.any(r <= 0):
        raise GeometryError("section extends behind the evaluation point")
    r0 = gamma0 / (2.0 * r)
    l = np.concatenate([np.ones_like(r0)[:, None], omega], axis=1)
    p = p0[None, :] + r0[:, None] * l
    n = (q[None, :] - p) / r[:, None]
    iota = transversal_iota(o, n)
    rho = -1.0 / r0.astype(complex)
    mu_sigma = quad_w * r0 ** 2
    mu_leray = mu_sigma / (4.0 * r0 * r)
    return ConeSection(p0=p0, q=q, grid=grid, theta=theta, phi=phi,
                       quad_w=quad_w, chart=chart, omega=omega, r0=r0, r=r,
                       p=p, l=l, n=n, o=o, iota=iota, rho=rho,
                       mu_sigma=mu_sigma, mu_leray=mu_leray)


def section_tangents(section: ConeSection, td: TangentialDerivatives):
    """Embedding tangents and induced metric of a section.

    Returns t_theta, t_phi (N, 4), the derivatives of the points p along
    the grid angles, g11, g12, g22 (N,), the induced metric
    -eta(t_i, t_j) in (theta, phi), and its determinant det (N,).
    """
    t_th = np.empty((section.n_nodes, 4))
    t_ph = np.empty((section.n_nodes, 4))
    for comp in range(4):
        fld = section.p[:, comp].astype(complex)
        t_th[:, comp] = td.d_theta(fld).real
        t_ph[:, comp] = td.d_phi(fld).real
    g11 = -np.einsum("ni,ij,nj->n", t_th, ETA, t_th)
    g12 = -np.einsum("ni,ij,nj->n", t_th, ETA, t_ph)
    g22 = -np.einsum("ni,ij,nj->n", t_ph, ETA, t_ph)
    return t_th, t_ph, g11, g12, g22, g11 * g22 - g12 ** 2


def area_element(section: ConeSection) -> np.ndarray:
    """Area weights from the numerical Jacobian of the embedding.

    Differentiates the embedding (theta, phi) -> p on the grid, forms the
    induced metric, and converts sqrt(det) dtheta dphi into weights on the
    Gauss-Legendre x trapezoid nodes.  Cross-validates the exact weights
    mu_sigma = r0^2 dOmega.
    """
    det = section_tangents(section, TangentialDerivatives(section.grid))[-1]
    if np.any(det <= 0):
        raise ValueError("degenerate embedding Jacobian")
    return section.quad_w * np.sqrt(det) / np.sin(section.theta)


# ---------------------------------------------------------------------------
# tangential differentiation on sections

_DTHETA_STENCIL = 9


def _lagrange_deriv_weights(nodes, x0):
    """Derivative-at-x0 weights of the Lagrange interpolant through nodes."""
    k = len(nodes)
    w = np.zeros(k)
    for j in range(k):
        others = [nodes[i] for i in range(k) if i != j]
        denom = np.prod([nodes[j] - xi for xi in others])
        s = 0.0
        for skip in range(k - 1):
            term = 1.0
            for idx, xi in enumerate(others):
                if idx != skip:
                    term *= x0 - xi
            s += term
        w[j] = s / denom
    return w


def theta_derivative_matrix(grid: SphereGrid) -> np.ndarray:
    """Matrix D with (D f)[i, :] = df/dtheta at ring i.

    Works on the doubled meridian: (theta, phi) and (-theta, phi + pi)
    are the same sphere point, as are (pi + t, phi) and (pi - t,
    phi + pi), so any single-valued field extends through both poles by
    f(-theta, phi) = f(pi + t, phi) = f(theta_mirror, phi + pi).  Every
    ring then gets a centered stencil.  Returns D of shape
    (n_theta, 2 n_theta); columns 0..n-1 act on f(theta_i, phi), columns
    n..2n-1 on f(theta_i, phi + pi).

    A field regular in one chart is garbage near the opposite pole; its
    derivative there is equally garbage but local stencils keep the
    pollution confined to rings within half a stencil of that pole.
    """
    th = grid.theta
    nt = th.size
    idx = np.arange(nt)
    ext = np.concatenate([-th[::-1], th, 2.0 * math.pi - th[::-1]])
    ring = np.concatenate([idx[::-1], idx, idx[::-1]])
    shifted = np.concatenate([np.ones(nt, bool), np.zeros(nt, bool),
                              np.ones(nt, bool)])
    half = _DTHETA_STENCIL // 2
    D = np.zeros((nt, 2 * nt))
    for i in range(nt):
        c = nt + i
        lo = min(max(c - half, 0), 3 * nt - _DTHETA_STENCIL)
        sl = slice(lo, lo + _DTHETA_STENCIL)
        w = _lagrange_deriv_weights(ext[sl], ext[c])
        for off, wj in enumerate(w):
            e = lo + off
            col = ring[e] + (nt if shifted[e] else 0)
            D[i, col] += wj
    return D


class TangentialDerivatives:
    """d/dtheta and d/dphi of ring-major fields on a section's grid.

    phi-derivatives are spectral (FFT); theta-derivatives use 9-point
    Lagrange stencils on the Gauss-Legendre nodes, extended through both
    poles onto the phi + pi meridian.
    """

    def __init__(self, grid: SphereGrid):
        if np.any(~grid.keep):
            raise ValueError("tangential derivatives need all rings (no cap)")
        self.grid = grid
        self._dmat = theta_derivative_matrix(grid)
        k = np.fft.fftfreq(grid.n_phi, d=1.0 / grid.n_phi)
        self._ik = 1j * k

    def _shape(self, f):
        return np.asarray(f).reshape(self.grid.n_theta, self.grid.n_phi)

    def d_phi(self, f):
        fr = self._shape(f)
        out = np.fft.ifft(self._ik[None, :] * np.fft.fft(fr, axis=1), axis=1)
        return out.reshape(-1)

    def d_theta(self, f):
        fr = self._shape(f)
        shifted = np.roll(fr, self.grid.n_phi // 2, axis=1)
        stacked = np.concatenate([fr, shifted], axis=0)   # (2 nt, nphi)
        out = self._dmat @ stacked
        return out.reshape(-1)
