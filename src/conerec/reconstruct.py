"""Interior values from characteristic data: the integral formulas.

Flat space: the value of a massless field at q inside the cone of p0 is
a single integral over the section sigma(q) of the radial derivative of
the lowest-weight datum plus a rho multiple, against products of the
section frame's iota.  The spin-1/2 unprimed and primed halves use the
zeta_0 and xi^{1'} data columns; spin n/2 uses phi_0 with the (n+1) rho
coefficient.  All spinor accumulation happens in the fixed global frame
(parallel transport is trivial here), and the result is expressed in the
standard spin basis at q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cone import SphereGrid, build_section
from .errors import GeometryError
from .frames import transversal_iota
from .nulldata import ConeData
from .spinor import DiracSpinorValue, SymSpinorValue, lower_comps

__all__ = ["QuadratureSpec", "ReconstructionResult", "reconstruct_dirac",
           "reconstruct_spin_n", "reconstruct_curved_singular",
           "convergence_study", "components", "relative_error"]

# Largest valence the evaluators accept: on the default 24x48 grid the
# plane-wave error stays below 1e-13 up to 16 for |x - p0|/t <= 0.4 and
# grows with n past it (sweep recorded in CHANGES.md).
MAX_VALENCE = 16


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution and method switch for one reconstruction.

    The radial derivative is always the data's own (its exact callback,
    or the spline derivative of grid data).  rho_variant selects the rho-coefficient in
    the integrand: "penrose" uses (n+1) rho, the "reduced" variant drops
    one rho (n=1: single rho), kept selectable for the normalization
    audit.
    """

    n_theta: int
    n_phi: int
    rho_variant: str = "penrose"

    def __post_init__(self):
        if self.n_theta < 4 or self.n_phi % 2 or self.n_phi < 8:
            raise ValueError("need n_theta >= 4 and even n_phi >= 8")
        if self.rho_variant not in ("penrose", "reduced"):
            raise ValueError(f"unknown rho_variant {self.rho_variant!r}")

    def grid(self) -> SphereGrid:
        return SphereGrid(self.n_theta, self.n_phi)

    def halved(self) -> "QuadratureSpec":
        return replace(self, n_theta=max(self.n_theta // 2, 4),
                       n_phi=max(2 * (self.n_phi // 4), 8))


@dataclass
class ReconstructionResult:
    value: object                      # DiracSpinorValue or SymSpinorValue
    q: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def _rho_coefficient(n: int, spec: QuadratureSpec) -> float:
    return float(n + 1 if spec.rho_variant == "penrose" else n)


def _component_sum(scal, iota_up, n: int):
    """phi_0 .. phi_n in the standard basis at q of sum_x scal[x] iota_A(x)
    ... iota_F(x): phi_j = sum_x scal[x] a^(n-j) b^j with (a, b) = iota_A,
    the powers built by repeated products."""
    a, b = lower_comps(iota_up).T
    left, right = [scal], [np.ones_like(b)]
    for _ in range(n):
        left.append(left[-1] * a)
        right.append(right[-1] * b)
    return np.array([left[n - j] @ right[j] for j in range(n + 1)])


def _check_spin_args(data: ConeData, n: int):
    if not 1 <= n <= MAX_VALENCE:
        raise ValueError(f"valence must be between 1 and {MAX_VALENCE}, got {n}")
    if data.kind != "spin":
        raise ValueError("spin reconstruction expects phi_0 data")


def _flat_components(p0, data: ConeData, n: int, q, spec: QuadratureSpec):
    """Components at q, node count, {}: phi_0 .. phi_n for spin data,
    phi_A (lower) then psi^{A'} (upper) for the Dirac pair.  Per data
    column the integrand scalar on sigma(q) is
    (d/dr0 - (n+1) rho) phi mu_sigma / (2 pi r)."""
    section = build_section(p0, q, spec.grid())
    vals, dvals = data.evaluate_on(section)
    coeff = _rho_coefficient(n, spec)
    w = section.mu_sigma / (2.0 * math.pi * section.r)
    scal = (dvals - coeff * section.rho[:, None] * vals) * w[:, None]
    if data.kind == "dirac":
        comps = np.concatenate([_component_sum(-scal[:, 0], section.iota, 1),
                                scal[:, 1] @ np.conj(section.iota)])
    else:
        comps = _component_sum(scal[:, 0] * (-1.0) ** n, section.iota, n)
    return comps, section.n_nodes, {}


def _evaluate(quadrature, data: ConeData, q, spec: QuadratureSpec):
    """quadrature(spec) -> (components, n_nodes, extras), wrapped at q with
    its diagnostics in a ReconstructionResult.  The error estimate is the
    largest component difference against a half-resolution run, 0.0 when
    no coarser evaluation exists (spec at the floor, or grid-bound data)."""
    comps, n_nodes, extras = quadrature(spec)
    estimate = 0.0
    if spec.halved() != spec and data.is_analytic:
        coarse, _, _ = quadrature(spec.halved())
        estimate = float(np.max(np.abs(comps - coarse)))
    diagnostics = {"n_nodes": int(n_nodes), "error_estimate": estimate, **extras}
    value = (DiracSpinorValue(comps[:2], comps[2:]) if data.kind == "dirac"
             else SymSpinorValue(comps.size - 1, comps))
    return ReconstructionResult(value=value, q=q, diagnostics=diagnostics)


def reconstruct_spin_n(p0, data: ConeData, n: int, q,
                       spec: QuadratureSpec) -> ReconstructionResult:
    """Value of the valence-n field at q from phi_0 on the cone of p0.

    Quadrature of (-1)^n (d phi_0/dr0 - (n+1) rho phi_0) iota_A..iota_F
    mu_sigma / (2 pi r) over sigma(q), summed node by node straight into
    the n+1 scalars phi_j of the standard spin basis at q (O(N n) work;
    no rank-n tensor is formed).  The error estimate in the diagnostics
    is the difference against a half-resolution evaluation.  n runs from
    1 to MAX_VALENCE.
    """
    _check_spin_args(data, n)
    q = np.asarray(q, dtype=float)
    return _evaluate(lambda sp: _flat_components(p0, data, n, q, sp),
                     data, q, spec)


def reconstruct_dirac(p0, data: ConeData, q,
                      spec: QuadratureSpec) -> ReconstructionResult:
    """4-spinor value at q from the (zeta_0, xi^{1'}) data pair.

    The unprimed half integrates the zeta_0 column against -iota_A (the
    n = 1 component sum), the primed half the xi^{1'} column against
    +iotabar^{A'}, both with the 2 rho coefficient and 1/(2 pi r) weight.
    """
    if data.kind != "dirac":
        raise ValueError("dirac reconstruction expects (zeta_0, xi^{1'}) data")
    q = np.asarray(q, dtype=float)
    return _evaluate(lambda sp: _flat_components(p0, data, 1, q, sp),
                     data, q, spec)


def components(value) -> np.ndarray:
    """One flat complex vector from a DiracSpinorValue (phi then psi), a
    SymSpinorValue (its scalars) or an array."""
    if isinstance(value, DiracSpinorValue):
        return np.concatenate([value.phi, value.psi])
    if isinstance(value, SymSpinorValue):
        return value.components
    return np.asarray(value, dtype=complex)


def relative_error(got, ref) -> float:
    """Max-abs component difference relative to the reference's max-abs component."""
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    return float(np.max(np.abs(got - ref))) / scale


def convergence_study(p0, data: ConeData, q, oracle, specs,
                      kind: str = "spin", n: int = 1):
    """Error vs oracle for each quadrature spec.

    oracle: a DiracSpinorValue, a SymSpinorValue or a flat component
    array (see components).  Returns a list of rows {n_theta, n_phi,
    error}; error is relative_error against the oracle.
    """
    ref = components(oracle)
    rows = []
    for spec in specs:
        if kind == "dirac":
            res = reconstruct_dirac(p0, data, q, spec)
        else:
            res = reconstruct_spin_n(p0, data, n, q, spec)
        rows.append({"n_theta": spec.n_theta, "n_phi": spec.n_phi,
                     "error": relative_error(components(res.value), ref)})
    return rows


# -- curved charts -----------------------------------------------------------

def _curved_components(chart, p0, data: ConeData, n: int, q,
                       spec: QuadratureSpec):
    """Singular-integral phi_0 .. phi_n on a conformally flat chart.

    Null geodesics of omega^2 eta are straight coordinate rays, so the
    section geometry is the flat one with relabeled affine parameters:
    r0 integrates omega^2 along the generator (normalized to l^0 = 1 at
    the vertex), the backward radius r and the transport coefficient k
    carry the chord average of omega^2 from q, and the area element
    picks up omega^2 at the section.  The adapted spin frame rescales
    the canonical one so l = o obar holds in orthonormal components;
    its r0-dependence adds -(n/2) dln(omega)/dr0 phi_0 to the radial
    derivative of the phi_0 scalar.  Both chord averages of omega^2, along
    the generator from p0 and from q, are transport's _chord_mean.
    """
    from .transport import _chord_mean   # here, so flat-only runs never load transport
    section = build_section(p0, q, spec.grid())
    inside = chart.contains(section.p)
    if not np.all(inside):
        bad = np.flatnonzero(~inside)
        raise GeometryError(
            f"{bad.size} of {section.n_nodes} generators leave the chart "
            f"domain before the section; first failing direction "
            f"omega = {section.omega[bad[0]]}")
    ell = section.r0
    w_ang = section.mu_sigma / ell ** 2
    om0 = chart.omega(np.asarray(p0, dtype=float))
    omq = chart.omega(np.asarray(q, dtype=float))
    om_p = chart.omega(section.p)

    # curved affine label of the section along each generator: ell times
    # the chord average of omega^2 from p0, over omega(p0)^2
    r0_star = ell * _chord_mean(chart, p0, section.p) / om0 ** 2

    # chord average of omega^2 from q: van Vleck square root numerator
    ibar = _chord_mean(chart, q, section.p)
    k = ibar / (2.0 * math.pi * om_p * omq)

    r = section.r * ibar * om0 ** 2 / om_p ** 2
    grads = chart.grad_ln_omega(section.p)
    dln_om_dl = np.einsum("ni,ni->n", grads, section.l)
    rho = -(om0 ** 2 / om_p ** 2) * (dln_om_dl + 1.0 / ell)
    mu = om_p ** 2 * ell ** 2 * w_ang

    # adapted frame in orthonormal components: l = o obar along the generator
    o_s = (om0 / np.sqrt(om_p))[:, None] * section.o
    n_frame = (q[None, :] - section.p) * (ibar / (om_p * r))[:, None]
    iota_s = transversal_iota(o_s, n_frame)

    vals, dvals = data.evaluate(r0_star, section.omega, o_s, iota_s)
    vals, dvals = vals[:, 0], dvals[:, 0]
    # d/dr0 of the phi_0 scalar carries the frame rescaling
    dr0_ln_om = (om0 ** 2 / om_p ** 2) * dln_om_dl
    dvals = dvals - 0.5 * n * dr0_ln_om * vals

    coeff = _rho_coefficient(n, spec)
    scal = (dvals - coeff * rho * vals) * (-1.0) ** n * k * mu / r
    extras = {
        "k_deviation": float(np.max(np.abs(k - 1.0 / (2.0 * math.pi)))),
        "area_measure_factor": float(np.median(mu / (k * r ** 2 * w_ang))),
    }
    return _component_sum(scal, iota_s, n), section.n_nodes, extras


def reconstruct_curved_singular(chart, p0, data: ConeData, n: int, q,
                                spec: QuadratureSpec) -> ReconstructionResult:
    """Singular part of the curved-chart value of the spin-n/2 field.

    Same quadrature as reconstruct_spin_n with r0, r, rho, k, the area
    element, and the section frame supplied by the chart geometry; the
    smooth tail of the curved representation is not included, so away
    from the flat chart the result is the two singular integrals only.
    On the flat chart it coincides with reconstruct_spin_n.

    The diagnostics report the largest deviation of k from its flat
    value 1/(2 pi) and the empirical conversion factor between the
    section measure mu_sigma and k r^2 dOmega (pi/2 for an on-axis flat
    configuration).
    """
    _check_spin_args(data, n)
    p0 = np.asarray(p0, dtype=float)
    q = np.asarray(q, dtype=float)
    chart.require_inside(p0, "cone vertex")
    chart.require_inside(q, "evaluation point")
    return _evaluate(lambda sp: _curved_components(chart, p0, data, n, q, sp),
                     data, q, spec)
