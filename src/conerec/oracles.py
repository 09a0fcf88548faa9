"""Exact solutions and the cone-integral identity check the CLI runs.

Plane waves phi_{A..F} = amp alpha_A .. alpha_F exp(i k.x), with the wave
vector built from the principal spinor as k^{AA'} = alpha^A albar^{A'},
solve the massless field equation grad^{AA'} phi_{AB..F} = 0 of every
valence exactly, and pair with a primed wave into an exact massless Dirac
solution.  derivative_under_integral_check checks the differentiation of
cone-section integrals in the apex by finite differences against its
closed form.
"""

from dataclasses import dataclass, field

import numpy as np

from . import cone, spinor
from .spinor import (ETA, DiracSpinorValue, SymSpinorValue, central_partials,
                     clifford_batch, dirac_assemble, lower_comps, raise_comps)

__all__ = [
    "PlaneWaveSpec", "plane_wave_field", "plane_wave_dirac",
    "plane_wave_cone_fn", "plane_wave_dirac_cone_fn",
    "derivative_under_integral_check",
]


@dataclass
class PlaneWaveSpec:
    """Plane-wave family of valence n with principal spinor alpha (lower).

    The wave vector k^a is the real null future vector with spinor form
    alpha^A albar^{A'}; the scalar phase at x is eta(k, x).
    """

    n: int
    alpha: np.ndarray
    amplitude: complex = 1.0
    k: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("valence must be nonnegative")
        self.alpha = np.asarray(self.alpha, dtype=complex)
        if self.alpha.shape != (2,):
            raise ValueError("alpha must have two components")
        if not np.any(self.alpha):
            raise ValueError("alpha must be nonzero")
        a_up = raise_comps(self.alpha)
        kv = spinor.from_matrix(np.outer(a_up, np.conj(a_up)))
        if np.max(np.abs(kv.imag)) > 1e-14 * np.max(np.abs(kv.real)):
            raise AssertionError("wave vector must come out real")
        self.k = kv.real
        # real null future by construction: 2 det = 0, k^0 = |a|^2/sqrt2 > 0

    def phase(self, x):
        """eta(k, x), vectorized over leading axes of x."""
        return np.einsum("a,ab,...b->...", self.k, ETA, np.asarray(x, float))


def plane_wave_field(spec: PlaneWaveSpec, x) -> SymSpinorValue:
    """Components phi_j at x in the standard (coordinate) spin basis."""
    a0, a1 = spec.alpha
    ph = spec.amplitude * np.exp(1j * spec.phase(x))
    j = np.arange(spec.n + 1)
    comps = a0 ** (spec.n - j) * a1 ** j * ph
    return SymSpinorValue(spec.n, comps)


def plane_wave_dirac(spec: PlaneWaveSpec, x, psi_amplitude=1.0) -> DiracSpinorValue:
    """Exact massless Dirac solution (phi_A, psi^{A'}) sharing one wave vector.

    phi_A = amp alpha_A e^{ik.x} and psi^{A'} = psi_amplitude albar^{A'}
    e^{ik.x}; both halves are annihilated because alpha contracts itself.
    """
    if spec.n != 1:
        raise ValueError("the Dirac pairing needs a valence-1 spec")
    ph = np.exp(1j * spec.phase(x))
    phi = spec.amplitude * spec.alpha * ph
    psi = psi_amplitude * np.conj(raise_comps(spec.alpha)) * ph
    return DiracSpinorValue(phi, psi)


def _column_powers(o_up, iota_up, alpha, n, columns):
    """co^(n-j) ci^j for j = 0 .. columns-1, co = o.alpha and ci = iota.alpha,
    by repeated products; (..., columns).  One column, co^n, reads no iota."""
    co = np.asarray(o_up) @ alpha
    if columns == 1:
        power = co if n else np.ones_like(co)
        for _ in range(n - 1):
            power = power * co
        return power[..., None]
    ci = np.asarray(iota_up) @ alpha
    left, right = [np.ones_like(co)], [np.ones_like(ci)]
    for _ in range(n):
        left.append(left[-1] * co)
    for _ in range(columns - 1):
        right.append(right[-1] * ci)
    return np.stack([left[n - j] * right[j] for j in range(columns)], axis=-1)


class _PerGrid:
    """f(arr), kept for the last two read-only arrays that own their data (a
    grid's tables: a level's and its half level's), held and matched by
    identity; an array that can change gets f afresh on every call."""

    def __init__(self, f):
        self.f, self.entries = f, []

    def __call__(self, arr):
        if not isinstance(arr, np.ndarray) or arr.flags.writeable or arr.base is not None:
            return self.f(arr)
        value = next((v for key, v in self.entries if key is arr), None)
        if value is None:
            value = self.f(arr)
            self.entries = [*self.entries[-1:], (arr, value)]
        return value


def _cone_fn_pair(spec: PlaneWaveSpec, p0, node_values):
    """(fn, fn_dr0) of a plane wave on C+(p0) with values node_values(o_up,
    iota_up, e), e = e^{i eta(k, x)} at x = p0 + r0 l, l = (1, omega), the
    phase eta(k, p0) + r0 eta(k, l) (one matvec over the directions).
    fn_dr0(r0, omega, o_up, iota_up, values) is handed the values fn
    returned there and evaluates nothing again: d/dr0 at fixed direction
    multiplies them by i eta(k, l), exactly, as the node frame does not
    depend on r0.  eta(k, l), i eta(k, l) and node_values' direction-only
    factors are computed once per grid (_PerGrid: two entries at most)."""
    k_low = ETA @ spec.k
    k_p0 = spec.phase(np.asarray(p0, dtype=float))
    kl = _PerGrid(lambda omega: k_low[0] + np.asarray(omega) @ k_low[1:])
    ikl = _PerGrid(lambda omega: 1j * kl(omega)[..., None])

    def fn(r0, omega, o_up, iota_up):
        phase = k_p0 + np.asarray(r0, dtype=float) * kl(omega)
        e = np.empty(phase.shape, dtype=complex)    # e^{i phase}, part by part
        np.cos(phase, out=e.real)
        np.sin(phase, out=e.imag)
        return node_values(o_up, iota_up, e)

    def fn_dr0(r0, omega, o_up, iota_up, values):
        return ikl(omega) * values

    return fn, fn_dr0


def plane_wave_cone_fn(spec: PlaneWaveSpec, p0, columns=None):
    """Analytic cone-data callbacks for the restriction to C+(p0).

    Returns (fn, fn_dr0): fn(r0, omega, o_up, iota_up) -> (N, columns),
    the components phi_0 .. phi_{columns-1} at p0 + r0 (1, omega) in the
    node frame, all n+1 by default, and fn_dr0(r0, omega, o_up, iota_up,
    values) -> their exact d/dr0 from the values fn returned (see
    _cone_fn_pair).  The flat evaluators read phi_0 only (columns=1); the
    constraint relations need all of them.
    """
    columns = spec.n + 1 if columns is None else columns
    if not 1 <= columns <= spec.n + 1:
        raise ValueError(f"columns must be between 1 and {spec.n + 1}, got {columns}")

    powers = _PerGrid(lambda o_up: _column_powers(o_up, None, spec.alpha, spec.n, 1))

    def node_values(o_up, iota_up, e):
        comps = (powers(o_up) if columns == 1     # (o.alpha)^n reads no iota
                 else _column_powers(o_up, iota_up, spec.alpha, spec.n, columns))
        return comps * (spec.amplitude * e)[..., None]

    return _cone_fn_pair(spec, p0, node_values)


def plane_wave_dirac_cone_fn(spec: PlaneWaveSpec, p0, psi_amplitude=1.0):
    """Cone-data callbacks (zeta_0, xi^{1'}) of the Dirac plane wave.

    zeta_0 = phi_A o^A and xi^{1'} = psi^{A'} obar_{A'} per node; column
    order (zeta_0, xi^{1'}).  Same (fn, fn_dr0) shape as
    plane_wave_cone_fn: both columns carry the one phase.
    """
    if spec.n != 1:
        raise ValueError("the Dirac pairing needs a valence-1 spec")
    psi_const = psi_amplitude * np.conj(raise_comps(spec.alpha))
    factors = _PerGrid(lambda o_up: np.stack([
        spec.amplitude * (np.asarray(o_up) @ spec.alpha),
        lower_comps(np.conj(np.asarray(o_up))) @ psi_const], axis=-1))

    def node_values(o_up, iota_up, e):
        return factors(o_up) * e[..., None]

    return _cone_fn_pair(spec, p0, node_values)


def _dirac_fd_q(f, q, h):
    """Assemble D^q f by central differences; f(q) -> (phi, psi) of one
    shape, as a pair or stacked along a leading axis."""
    d = central_partials(lambda qq: np.stack(f(qq)), q, h)
    return dirac_assemble(d[:, 0], d[:, 1])


def derivative_under_integral_check(f, p0, q, h: float):
    """Residuals of the two cone-integral differentiation formulas.

    f(q, p) -> (phi (..., 2), psi (..., 2)) must be smooth in both slots
    and vectorized over the leading axes of p (..., 4): the check calls
    it once per difference point on a whole section or on all its
    radial nodes at once.  Checks, by O(h^2) central differences in q,

      D^q int_{sigma(q)} f mu_sigma
        = int_{sigma(q)} [D^q f + n.grad_l^p f - 2 rho n.f] mu_sigma

    with n = grad^q r0 acting by Clifford multiplication, and

      D^q int_{D(q)} f mu_cone
        = int_{D(q)} D^q f mu_cone + int_{sigma(q)} n.f mu_sigma/(2 r0)

    where D(q) is the part of the cone below sigma(q) and mu_cone its
    Leray measure (r0/2) dr0 dOmega, on a 24x48 sphere grid with 24
    Gauss-Legendre nodes per generator.  The boundary density comes from
    differentiating the upper limit of the generator integral, so it
    divides by twice the cone-radial coordinate r0 at the section.
    Returns a dict with residuals "section" and "solid" (max
    componentwise deviation).
    """
    p0 = np.asarray(p0, dtype=float)
    q = np.asarray(q, dtype=float)
    grid = cone.SphereGrid(24, 48)

    # (phi, psi) stacked along a leading axis of 2
    def u(qq, p):
        return np.stack(f(qq, p))

    def dirac_q(g):
        return np.stack(_dirac_fd_q(g, q, h))

    def clifford(vecs, v):
        return np.stack(clifford_batch(vecs, v[0], v[1]))

    def section_integral(qq):
        sec = cone.build_section(p0, qq, grid)
        return np.sum(sec.mu_sigma[:, None] * u(qq, sec.p), axis=1)

    sec = cone.build_section(p0, q, grid)
    u0 = u(q, sec.p)
    dl = (u(q, sec.p + h * sec.l) - u(q, sec.p - h * sec.l)) / (2.0 * h)
    rhs = np.sum(sec.mu_sigma[:, None]
                 * (dirac_q(lambda qq: u(qq, sec.p)) + clifford(sec.n, dl)
                    - 2.0 * sec.rho[:, None] * clifford(sec.n, u0)), axis=1)
    res_section = np.max(np.abs(dirac_q(section_integral) - rhs))

    # solid version: radial Gauss-Legendre from the apex to the section,
    # nodes (24, N) over the generators
    xs, ws = np.polynomial.legendre.leggauss(24)

    def radial(r0):
        """Points on the generators below r0 and their mu_cone weights."""
        s = 0.5 * (xs[:, None] + 1.0) * r0
        wr = 0.5 * r0 * ws[:, None]
        return p0 + s[..., None] * sec.l, (sec.quad_w * wr * s / 2.0)[..., None]

    def solid_integral(qq):
        pts, fac = radial(cone.build_section(p0, qq, grid).r0)
        return np.sum(np.sum(fac * u(qq, pts), axis=2), axis=1)

    pts, fac = radial(sec.r0)
    acc = np.sum(np.sum(fac * dirac_q(lambda qq: u(qq, pts)), axis=2), axis=1)
    bw = (sec.mu_sigma / (2.0 * sec.r0))[:, None]
    rhs2 = acc + np.sum(bw * clifford(sec.n, u0), axis=1)
    res_solid = np.max(np.abs(dirac_q(solid_integral) - rhs2))
    return {"section": float(res_section), "solid": float(res_solid)}
