"""Interior values from characteristic data: the integral formulas.

Flat space: the value of a massless field at q inside the cone of p0 is
a single integral over the section sigma(q) of the radial derivative of
the lowest-weight datum plus a rho multiple, against products of the
section frame's iota.  The spin-1/2 unprimed and primed halves use the
zeta_0 and xi^{1'} data columns; spin n/2 uses phi_0 with the (n+1) rho
coefficient.  All spinor accumulation happens in the fixed global frame
(parallel transport is trivial here), and the result is expressed in the
standard spin basis at q.

One integrand serves the flat and the curved evaluators: on a
conformally flat chart the section is the flat one, and the data radius
r0*, the iota scale c, rho, the frame shift of d/dr0 and the weight each
become the flat value times a closed-form per-node factor (_chart_factors).
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .cone import SphereGrid, build_section
from .errors import GeometryError
from .nulldata import ConeData
from .spinor import DiracSpinorValue, SymSpinorValue

__all__ = ["ReconstructionResult", "reconstruct_dirac", "reconstruct_spin_n",
           "reconstruct_curved_singular", "convergence_study", "components",
           "relative_error"]

# Largest valence the evaluators accept: on the default 24x48 grid the
# plane-wave error stays below 1e-13 up to 16 for |x - p0|/t <= 0.4 and
# grows with n past it (sweep recorded in CHANGES.md).
MAX_VALENCE = 16

QuadratureSpec = SphereGrid  # the old name: the benchmark's flat per-point rows import it


@dataclass
class ReconstructionResult:
    value: object                      # DiracSpinorValue or SymSpinorValue
    diagnostics: dict


@functools.lru_cache(maxsize=4)
def _ones(size: int) -> np.ndarray:
    """A read-only complex ones vector of the given length."""
    ones = np.ones(size, dtype=complex)
    ones.flags.writeable = False
    return ones


def _component_sum(scal, iota_up, n: int):
    """phi_0 .. phi_n in the standard basis at q of sum_x scal[x] iota_A(x)
    ... iota_F(x): phi_j = sum_x scal[x] a^(n-j) b^j with (a, b) = iota_A
    = (-iota^1, iota^0), the powers built by repeated products from
    contiguous a and b.  Each phi_j is a dot product, phi_0 one with a
    cached ones vector, so all of them sum in the one BLAS order."""
    a, b = -iota_up[:, 1], np.ascontiguousarray(iota_up[:, 0])
    left, right = [scal], [_ones(len(b)), b]
    for _ in range(n):
        left.append(left[-1] * a)
    for _ in range(n - 1):
        right.append(right[-1] * b)
    return np.array([left[n - j] @ right[j] for j in range(n + 1)])


def _check_spin_args(data: ConeData, n: int):
    if not 1 <= n <= MAX_VALENCE:
        raise ValueError(f"valence must be between 1 and {MAX_VALENCE}, got {n}")
    if data.kind != "spin":
        raise ValueError("spin reconstruction expects phi_0 data")


def _flat_components(p0, data: ConeData, n: int, q, grid: SphereGrid, chart):
    """Components at q and node count: phi_0 .. phi_n for spin data, phi_A
    (lower) then psi^{A'} (upper) for the Dirac pair.  Per data column the
    integrand scalar on the flat section sigma(q) is (d/dr0 - (n+1) rho)
    phi mu_sigma / (2 pi r), rho = -1/r0.  A chart enters only as the
    per-node factors of _chart_factors; with chart None there are none."""
    section = build_section(p0, q, grid)
    rho = -1.0 / section.r0
    w = section.mu_sigma / (2.0 * math.pi * section.r)
    if chart is None:
        vals, dvals = data.evaluate_on(section)
    else:
        f = _chart_factors(chart, p0, q, section)
        c = f.iota_scale[:, None]
        vals, dvals = data.evaluate(f.r0, section.omega, section.o / c, c * section.iota)
        dvals = dvals - (0.5 * n * f.dr0_ln_omega)[:, None] * vals
        rho, w = f.rho, w * f.weight * f.iota_scale ** n
    scal = (dvals - ((n + 1) * rho)[:, None] * vals) * w[:, None]
    if data.kind == "dirac":
        comps = np.concatenate([_component_sum(-scal[:, 0], section.iota, 1),
                                scal[:, 1] @ np.conj(section.iota)])
    else:
        phi0 = scal[:, 0] * -1.0 if n % 2 else np.ascontiguousarray(scal[:, 0])
        comps = _component_sum(phi0, section.iota, n)
    return comps, section.n_nodes


def _half(grid: SphereGrid) -> SphereGrid:
    """The error estimate's grid: half the rings and meridians, at least 4x8."""
    return SphereGrid(max(grid.n_theta // 2, 4), max(2 * (grid.n_phi // 4), 8))


def _evaluate(p0, data: ConeData, n: int, q, grid: SphereGrid, chart):
    """_flat_components on grid, with its diagnostics, in a
    ReconstructionResult.  The error estimate is the largest component
    difference against the half grid, None when no coarser evaluation
    exists (grid at the floor, or grid-bound data)."""
    comps, n_nodes = _flat_components(p0, data, n, q, grid, chart)
    estimate = None
    if data.is_analytic:
        half = _half(grid)
        if (half.n_theta, half.n_phi) != (grid.n_theta, grid.n_phi):
            coarse, _ = _flat_components(p0, data, n, q, half, chart)
            estimate = float(np.max(np.abs(comps - coarse)))
    diagnostics = {"n_nodes": int(n_nodes), "error_estimate": estimate}
    value = (DiracSpinorValue(comps[:2], comps[2:]) if data.kind == "dirac"
             else SymSpinorValue(comps.size - 1, comps))
    return ReconstructionResult(value=value, diagnostics=diagnostics)


def reconstruct_spin_n(p0, data: ConeData, n: int, q,
                       grid: SphereGrid) -> ReconstructionResult:
    """Value of the valence-n field at q from phi_0 on the cone of p0.

    Quadrature on grid of (-1)^n (d phi_0/dr0 - (n+1) rho phi_0)
    iota_A..iota_F mu_sigma / (2 pi r) over sigma(q), summed node by node
    straight into the n+1 scalars phi_j of the standard spin basis at q
    (O(N n) work; no rank-n tensor is formed).  The error estimate in the
    diagnostics is the difference against the half grid.  n runs from 1
    to MAX_VALENCE.
    """
    _check_spin_args(data, n)
    return _evaluate(p0, data, n, np.asarray(q, dtype=float), grid, None)


def reconstruct_dirac(p0, data: ConeData, q,
                      grid: SphereGrid) -> ReconstructionResult:
    """4-spinor value at q from the (zeta_0, xi^{1'}) data pair.

    The unprimed half integrates the zeta_0 column against -iota_A (the
    n = 1 component sum), the primed half the xi^{1'} column against
    +iotabar^{A'}, both with the 2 rho coefficient and 1/(2 pi r) weight.
    """
    if data.kind != "dirac":
        raise ValueError("dirac reconstruction expects (zeta_0, xi^{1'}) data")
    return _evaluate(p0, data, 1, np.asarray(q, dtype=float), grid, None)


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


def convergence_study(p0, data: ConeData, q, oracle, grids):
    """Error vs oracle on each sphere grid, for the kind and valence of data.

    oracle: a DiracSpinorValue, a SymSpinorValue or a flat component
    array (see components).  Returns a list of rows {n_theta, n_phi,
    error}; error is relative_error against the oracle.
    """
    ref = components(oracle)
    rows = []
    for grid in grids:
        if data.kind == "dirac":
            res = reconstruct_dirac(p0, data, q, grid)
        else:
            res = reconstruct_spin_n(p0, data, data.valence, q, grid)
        rows.append({"n_theta": grid.n_theta, "n_phi": grid.n_phi,
                     "error": relative_error(components(res.value), ref)})
    return rows


# -- curved charts -----------------------------------------------------------

_ChartFactors = namedtuple("_ChartFactors", "r0 iota_scale rho dr0_ln_omega weight")


def _chart_factors(chart, p0, q, section) -> _ChartFactors:
    """Per-node factors that carry the flat integrand on section onto a
    conformally flat chart, c = sqrt(om_p)/om0 and g = om0^2/om_p^2.

    Null geodesics of omega^2 eta are the flat rays with relabeled affine
    parameters: r0* = r0 I(p0 -> p)/om0^2, and the frame with l = o obar
    in orthonormal components is (o/c, c iota).  rho = -g (dln(omega)/dl
    + 1/r0), and d ln(omega)/dr0* = g dln(omega)/dl.  The curved weight
    k mu/r (k = I(q -> p)/(2 pi om_p om_q), mu = om_p^2 mu_sigma, r =
    r_flat I(q -> p) g) is the flat one times om_p^3/(om_q om0^2): the
    chord mean from q cancels, so only the one from p0 is taken.
    """
    inside = chart.contains(section.p)
    if not np.all(inside):
        bad = np.flatnonzero(~inside)
        raise GeometryError(
            f"{bad.size} of {section.n_nodes} generators leave the chart "
            f"domain before the section; first failing direction "
            f"omega = {section.omega[bad[0]]}")
    ell = section.r0
    om0, omq, om_p = chart.omega(p0), chart.omega(q), chart.omega(section.p)
    g = om0 ** 2 / om_p ** 2
    dln_om_dl = np.einsum("ni,ni->n", chart.grad_ln_omega(section.p), section.l)
    return _ChartFactors(
        r0=ell * chart.chord_mean(p0, section.p) / om0 ** 2,
        iota_scale=np.sqrt(om_p) / om0, rho=-g * (dln_om_dl + 1.0 / ell),
        dr0_ln_omega=g * dln_om_dl, weight=om_p ** 3 / (omq * om0 ** 2))


def reconstruct_curved_singular(chart, p0, data: ConeData, n: int, q,
                                grid: SphereGrid) -> ReconstructionResult:
    """Singular part of the curved-chart value of the spin-n/2 field.

    reconstruct_spin_n's integrand with the chart's per-node factors,
    c = sqrt(om_p)/om0 and g = om0^2/om_p^2: the data are read at
    r0* = r0 I(p0 -> p)/om0^2 in the frame (o/c, c iota); rho is
    -g (dln(omega)/dl + 1/r0); d/dr0 gains -(n/2) g dln(omega)/dl phi_0;
    the weight mu_sigma/(2 pi r) gains om_p^3/(om_q om0^2) c^n.  The
    smooth tail is not included, so away from the flat chart the result
    is the two singular integrals only; on the flat chart every factor
    is 1 or its flat value.
    """
    _check_spin_args(data, n)
    p0 = np.asarray(p0, dtype=float)
    q = np.asarray(q, dtype=float)
    chart.require_inside(p0, "cone vertex")
    chart.require_inside(q, "evaluation point")
    return _evaluate(p0, data, n, q, grid, chart)
