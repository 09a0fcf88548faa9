"""Exact solutions and identity checks used as anchors by the test suite.

Plane waves phi_{A..F} = amp alpha_A .. alpha_F exp(i k.x), with the wave
vector built from the principal spinor as k^{AA'} = alpha^A albar^{A'},
solve the massless field equation grad^{AA'} phi_{AB..F} = 0 of every
valence exactly, and pair with a primed wave into an exact massless Dirac
solution.  The remaining entry points check differential identities
(second-derivative contraction, symmetry of the Dirac operator under the
symplectic pairing, differentiation of cone-section integrals in the
apex) by finite differences against their closed forms.
"""

from dataclasses import dataclass, field

import numpy as np

from . import cone, spinor
from .spinor import (ETA, SIG_UP, DiracSpinorValue, SymSpinorValue,
                     central_partials, clifford_batch, dirac_assemble,
                     lower_comps, lower_matrix, raise_comps, symplectic_pairing)

__all__ = [
    "PlaneWaveSpec", "plane_wave_field", "plane_wave_tensor",
    "plane_wave_dirac", "plane_wave_components", "plane_wave_cone_fn",
    "plane_wave_dirac_cone_fn", "weyl_residual_fd", "sl_identity_check",
    "c2_bump", "box_bump", "bump_dirac_grids", "dirac_symmetry_check",
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


def plane_wave_tensor(spec: PlaneWaveSpec, x) -> np.ndarray:
    """Lower-index symmetric tensor phi_{A..F}(x); shape (2,)*n."""
    ph = spec.amplitude * np.exp(1j * spec.phase(x))
    out = np.asarray(ph, dtype=complex)
    for _ in range(spec.n):
        out = np.multiply.outer(out, spec.alpha)
    return out


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


def plane_wave_components(spec: PlaneWaveSpec, x, o_up, iota_up) -> np.ndarray:
    """phi_0..phi_n at x contracted with a given spin basis, batched.

    x: (..., 4); o_up, iota_up: (..., 2) upper-index basis spinors.
    Returns (..., n+1).
    """
    co = np.einsum("a,...a->...", spec.alpha, np.asarray(o_up))
    ci = np.einsum("a,...a->...", spec.alpha, np.asarray(iota_up))
    ph = spec.amplitude * np.exp(1j * spec.phase(x))
    j = np.arange(spec.n + 1)
    return (co[..., None] ** (spec.n - j) * ci[..., None] ** j) * ph[..., None]


def _column_powers(co, ci, n, columns):
    """co^(n-j) ci^j for j = 0 .. columns-1, by repeated products; (..., columns)."""
    left, right = [np.ones_like(co)], [np.ones_like(ci)]
    for _ in range(n):
        left.append(left[-1] * co)
    for _ in range(columns - 1):
        right.append(right[-1] * ci)
    return np.stack([left[n - j] * right[j] for j in range(columns)], axis=-1)


def _cone_phase(spec: PlaneWaveSpec, p0):
    """r0, omega -> (eta(k, x), eta(k, l)) at x = p0 + r0 l, l = (1, omega):
    the phase as eta(k, p0) + r0 eta(k, l), one matvec over the directions."""
    k_low = ETA @ spec.k
    k_p0 = spec.phase(p0)

    def phase(r0, omega):
        kl = k_low[0] + np.asarray(omega) @ k_low[1:]
        return k_p0 + np.asarray(r0, dtype=float) * kl, kl

    return phase


def plane_wave_cone_fn(spec: PlaneWaveSpec, p0, columns=None):
    """Analytic cone-data callbacks for the restriction to C+(p0).

    Returns (fn, fn_dr0) with signature fn(r0, omega, o_up, iota_up) ->
    (N, columns): the components phi_0 .. phi_{columns-1} at
    p0 + r0 (1, omega) in the node frame, all n+1 by default.  The flat
    evaluators read phi_0 only (columns=1); the constraint relations need
    all of them.  The generator derivative is exact: d/dr0 multiplies by
    i eta(k, l) at fixed direction since the node frame does not depend
    on r0.
    """
    columns = spec.n + 1 if columns is None else columns
    if not 1 <= columns <= spec.n + 1:
        raise ValueError(f"columns must be between 1 and {spec.n + 1}, got {columns}")
    phase = _cone_phase(spec, np.asarray(p0, dtype=float))

    def _eval(r0, omega, o_up, iota_up):
        ph, kl = phase(r0, omega)
        comps = _column_powers(np.asarray(o_up) @ spec.alpha,
                               np.asarray(iota_up) @ spec.alpha, spec.n, columns)
        return comps * (spec.amplitude * np.exp(1j * ph))[..., None], kl

    def fn(r0, omega, o_up, iota_up):
        return _eval(r0, omega, o_up, iota_up)[0]

    def fn_dr0(r0, omega, o_up, iota_up):
        vals, kl = _eval(r0, omega, o_up, iota_up)
        return 1j * kl[..., None] * vals

    return fn, fn_dr0


def plane_wave_dirac_cone_fn(spec: PlaneWaveSpec, p0, psi_amplitude=1.0):
    """Cone-data callbacks (zeta_0, xi^{1'}) of the Dirac plane wave.

    zeta_0 = phi_A o^A and xi^{1'} = psi^{A'} obar_{A'} per node; column
    order (zeta_0, xi^{1'}).  Same (fn, fn_dr0) shape as
    plane_wave_cone_fn.
    """
    if spec.n != 1:
        raise ValueError("the Dirac pairing needs a valence-1 spec")
    phase = _cone_phase(spec, np.asarray(p0, dtype=float))
    psi_const = psi_amplitude * np.conj(raise_comps(spec.alpha))

    def _eval(r0, omega, o_up):
        ph, kl = phase(r0, omega)
        ph = np.exp(1j * ph)
        zeta0 = spec.amplitude * (np.asarray(o_up) @ spec.alpha) * ph
        xi1 = (lower_comps(np.conj(np.asarray(o_up))) @ psi_const) * ph
        return np.stack([zeta0, xi1], axis=-1), kl

    def fn(r0, omega, o_up, iota_up):
        return _eval(r0, omega, o_up)[0]

    def fn_dr0(r0, omega, o_up, iota_up):
        vals, kl = _eval(r0, omega, o_up)
        return 1j * kl[..., None] * vals

    return fn, fn_dr0


def weyl_residual_fd(field_fn, n: int, x, h: float) -> float:
    """Max |grad^{AA'} phi_{AB..F}| by central differences at x.

    field_fn(x) must return the lower-index (2,)*n tensor.  O(h^2).
    """
    d1 = central_partials(field_fn, np.asarray(x, dtype=float), h)
    res = np.einsum("aij,ai...->j...", SIG_UP, d1)
    return float(np.max(np.abs(res)))


def sl_identity_check(field_fn, n: int, point, h: float) -> float:
    """Residual of the flat second-derivative contraction identity.

    For any smooth lower-index valence-n field, grad_{BA'} grad^{AA'}
    phi_{A C..} equals half the wave operator acting on phi_{B C..} when
    the curvature vanishes.  The two sides are discretized independently
    (nested first differences against a direct second-difference wave
    operator) so the residual honestly measures the O(h^2) truncation,
    not just the epsilon algebra.
    """
    if n < 1:
        raise ValueError("need at least one spinor index")
    point = np.asarray(point, dtype=float)
    rest = "".join(chr(ord("c") + i) for i in range(n - 1))

    def contracted_grad(y):
        # chi^{A'}_{C..} = grad^{AA'} phi_{A C..} by central differences
        d1 = central_partials(field_fn, y, h)
        return np.einsum(f"ajp,aj{rest}->p{rest}", SIG_UP, d1)

    sig_low = lower_matrix(SIG_UP)
    dchi = central_partials(contracted_grad, point, h)
    lhs = np.einsum(f"bip,bp{rest}->i{rest}", sig_low, dchi)

    f0 = field_fn(point)
    box = np.zeros((2,) * n, dtype=complex)
    for a in range(4):
        e = np.zeros(4)
        e[a] = h
        box += ETA[a, a] * (field_fn(point + e) - 2.0 * f0 + field_fn(point - e)) / h ** 2
    rhs = 0.5 * box
    return float(np.max(np.abs(lhs - rhs)))


def c2_bump(y):
    """(1 - y^2)^3 inside |y| < 1, zero outside; twice differentiable."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    m = np.abs(y) < 1.0
    out[m] = (1.0 - y[m] ** 2) ** 3
    return out


def box_bump(x, center, half):
    """Product of c2_bump over the four axes; support is the open box."""
    x = np.asarray(x, dtype=float)
    center = np.asarray(center, dtype=float)
    half = np.asarray(half, dtype=float)
    y = (x - center) / half
    out = np.ones(x.shape[:-1])
    for a in range(4):
        out = out * c2_bump(y[..., a])
    return out


def bump_dirac_grids(spec: PlaneWaveSpec, center, half, n_pts: int,
                     psi_amplitude=1.0):
    """Bump-modulated Dirac plane wave sampled on a uniform 4D grid.

    The box [center - half, center + half] carries the support; the grid
    spans 1.3 times that so the outer layers are exactly zero.
    Returns (phi, psi, h) with phi, psi of shape (N, N, N, N, 2).
    """
    center = np.asarray(center, dtype=float)
    half = np.asarray(half, dtype=float) * np.ones(4)
    axes = [np.linspace(center[a] - 1.3 * half[a], center[a] + 1.3 * half[a], n_pts)
            for a in range(4)]
    h = axes[0][1] - axes[0][0]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    cut = box_bump(mesh, center, half)
    ph = np.exp(1j * spec.phase(mesh)) * cut
    phi = spec.amplitude * ph[..., None] * spec.alpha
    psi = psi_amplitude * ph[..., None] * np.conj(raise_comps(spec.alpha))
    return phi, psi, float(h)


def dirac_symmetry_check(phi1, psi1, phi2, psi2, h: float) -> float:
    """|sum (D u1, u2) - sum (u1, D u2)| h^4 over a 4D grid.

    The symplectic pairing makes the Dirac operator symmetric up to a
    divergence, so the defect of two compactly supported fields converges
    to zero at O(h^2).  Raises if either support touches the outer two
    grid layers (the divergence theorem needs room to close).
    """
    fields = [np.asarray(f, dtype=complex) for f in (phi1, psi1, phi2, psi2)]
    for f in fields:
        if f.ndim != 5 or f.shape[-1] != 2:
            raise ValueError("grids must have shape (N0,N1,N2,N3,2)")
        edge = np.zeros(f.shape[:4], dtype=bool)
        for ax in range(4):
            sl = [slice(None)] * 4
            sl[ax] = [0, 1, -2, -1]
            edge[tuple(sl)] = True
        if np.any(f[edge] != 0):
            raise ValueError("support touches the grid boundary")
    phi1, psi1, phi2, psi2 = fields
    dphi1, dpsi1, interior = spinor.dirac_apply_fd(phi1, psi1, h)
    dphi2, dpsi2, _ = spinor.dirac_apply_fd(phi2, psi2, h)

    lhs = np.sum(symplectic_pairing(dphi1, dpsi1, phi2, psi2)[interior])
    rhs = np.sum(symplectic_pairing(phi1, psi1, dphi2, dpsi2)[interior])
    return float(abs(lhs - rhs)) * h ** 4


def _dirac_fd_q(f, q, h):
    """Assemble D^q f by central differences; f(q) -> (phi, psi) of one shape."""
    d = central_partials(lambda qq: np.stack(f(qq)), q, h)
    return dirac_assemble(d[:, 0], d[:, 1])


def derivative_under_integral_check(f, p0, q, h: float):
    """Residuals of the two cone-integral differentiation formulas.

    f(q, p) -> (phi (N,2), psi (N,2)) must be smooth in both slots and
    vectorized over p.  Checks, by O(h^2) central differences in q,

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

    def section_integral(qq):
        sec = cone.build_section(p0, qq, grid)
        phi, psi = f(qq, sec.p)
        w = sec.mu_sigma[:, None]
        return np.sum(w * phi, axis=0), np.sum(w * psi, axis=0)

    lhs_phi, lhs_psi = _dirac_fd_q(section_integral, q, h)

    sec = cone.build_section(p0, q, grid)
    phi0, psi0 = f(q, sec.p)
    dq_phi, dq_psi = _dirac_fd_q(lambda qq: f(qq, sec.p), q, h)   # node by node
    # generator derivative of f in p
    pp, sp = f(q, sec.p + h * sec.l)
    pm, sm = f(q, sec.p - h * sec.l)
    dl_phi = (pp - pm) / (2.0 * h)
    dl_psi = (sp - sm) / (2.0 * h)
    ndl_phi, ndl_psi = clifford_batch(sec.n, dl_phi, dl_psi)
    nf_phi, nf_psi = clifford_batch(sec.n, phi0, psi0)
    w = sec.mu_sigma[:, None]
    rho = sec.rho[:, None]
    rhs_phi = np.sum(w * (dq_phi + ndl_phi - 2.0 * rho * nf_phi), axis=0)
    rhs_psi = np.sum(w * (dq_psi + ndl_psi - 2.0 * rho * nf_psi), axis=0)
    res_section = max(np.max(np.abs(lhs_phi - rhs_phi)),
                      np.max(np.abs(lhs_psi - rhs_psi)))

    # solid version: radial Gauss-Legendre from the apex to the section
    xs, ws = np.polynomial.legendre.leggauss(24)
    wang = grid.angles()[2]
    om, _ = grid.directions()
    lvec = np.concatenate([np.ones((om.shape[0], 1)), om], axis=1)

    def solid_integral(qq):
        secq = cone.build_section(p0, qq, grid)
        acc_phi = np.zeros(2, dtype=complex)
        acc_psi = np.zeros(2, dtype=complex)
        for x, wgl in zip(xs, ws):
            s = 0.5 * (x + 1.0) * secq.r0          # nodes per generator
            wr = 0.5 * secq.r0 * wgl
            phi, psi = f(qq, p0 + s[:, None] * lvec)
            fac = (wang * wr * s / 2.0)[:, None]
            acc_phi += np.sum(fac * phi, axis=0)
            acc_psi += np.sum(fac * psi, axis=0)
        return acc_phi, acc_psi

    lhs2_phi, lhs2_psi = _dirac_fd_q(solid_integral, q, h)

    acc_phi = np.zeros(2, dtype=complex)
    acc_psi = np.zeros(2, dtype=complex)
    for x, wgl in zip(xs, ws):
        s = 0.5 * (x + 1.0) * sec.r0
        wr = 0.5 * sec.r0 * wgl
        pts = p0 + s[:, None] * lvec
        dq_phi, dq_psi = _dirac_fd_q(lambda qq: f(qq, pts), q, h)
        fac = (wang * wr * s / 2.0)[:, None]
        acc_phi += np.sum(fac * dq_phi, axis=0)
        acc_psi += np.sum(fac * dq_psi, axis=0)
    bphi, bpsi = clifford_batch(sec.n, phi0, psi0)
    bw = (sec.mu_sigma / (2.0 * sec.r0))[:, None]
    rhs2_phi = acc_phi + np.sum(bw * bphi, axis=0)
    rhs2_psi = acc_psi + np.sum(bw * bpsi, axis=0)
    res_solid = max(np.max(np.abs(lhs2_phi - rhs2_phi)),
                    np.max(np.abs(lhs2_psi - rhs2_psi)))
    return {"section": float(res_section), "solid": float(res_solid)}
