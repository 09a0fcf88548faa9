"""Characteristic data on the cone and its tangential calculus.

ConeData stores the free data of a characteristic problem: the scalar
components phi_0 (optionally phi_0..phi_n for constraint checking), or
the pair (zeta_0, xi^{1'}) for the 4-spinor problem, either as an
analytic callback in (r0, omega) or sampled on a product grid of r0
nodes x sphere directions.  On top of it sit the generator derivative
d/dr0, the weight-lowering angular operator on sections, and the
constraint-relation residuals.

Component values are spin weighted, so every stored or returned array is
understood per node in the node's own chart (see cone.SphereGrid); the
weight (p, q) fixes the transition factor e^{i phi (p-q)} between
charts.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import cone
from .errors import CoverageError
from .cone import ConeSection, SphereGrid, TangentialDerivatives
from .spinor import ETA, from_matrix, lower_comps, richardson

__all__ = [
    "ConeData", "WeightedScalarField", "richardson_dr0",
    "eth_prime", "section_spin_coefficients",
    "constraint_residual", "save_cone_data", "load_cone_data",
]


@dataclass
class WeightedScalarField:
    """Scalar samples on a section's direction nodes with weight (p, q).

    Under the basis rescaling o -> lam o, iota -> iota/lam the values
    pick up lam^p lambar^q; chart transitions are the special case
    lam = e^{-i phi}.
    """

    values: np.ndarray
    weight: tuple

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        p, q = self.weight
        if int(p) != p or int(q) != q:
            raise ValueError("weights must be integers")
        self.weight = (int(p), int(q))


class ConeData:
    """Characteristic data for valence n on C+(p0).

    kind "spin": component columns are (phi_0,) or (phi_0 .. phi_n).
    kind "dirac": columns are (zeta_0, xi^{1'}) (valence is 1).

    Analytic source: callbacks fn(r0, omega, o_up, iota_up) -> (N, ncomp)
    and optionally fn_dr0 with the same signature for the exact generator
    derivative; omitted, the derivative falls back to a Richardson
    difference in r0.  Grid source: values of shape
    (len(r0_nodes), n_nodes, ncomp) sampled on `grid`, interpolated along
    each generator by the not-a-knot cubic spline.  evaluate returns the
    values and their d/dr0 together, so an evaluator makes one data call
    per section.  Support must stay away from the vertex: r0 at or below
    `r0_min` (grid: outside the node range) is an error.

    Grid values are stored in the canonical frame of the on-axis
    sections.  phi_0, zeta_0 and xi^{1'} contract only with o, so they
    read off unchanged in any section-adapted frame; the higher phi_j
    involve iota and are meaningful on the on-axis family, which is where
    the constraint checker samples them.
    """

    def __init__(self, valence, kind="spin", fn=None, fn_dr0=None,
                 grid=None, r0_nodes=None, values=None, r0_min=0.0):
        if valence < 1:
            raise ValueError("valence must be at least 1")
        if kind not in ("spin", "dirac"):
            raise ValueError(f"unknown kind {kind!r}")
        if kind == "dirac" and valence != 1:
            raise ValueError("the 4-spinor data pair is valence 1")
        self.valence = int(valence)
        self.kind = kind
        self.fn = fn
        self.fn_dr0 = fn_dr0
        self.r0_min = float(r0_min)
        if not (math.isfinite(self.r0_min) and self.r0_min >= 0.0):
            raise ValueError(f"r0_min must be finite and non-negative, got {r0_min!r}")
        if fn is None:
            if grid is None or r0_nodes is None or values is None:
                raise ValueError("grid data needs grid, r0_nodes and values")
            self.grid = grid
            self.r0_nodes = np.asarray(r0_nodes, dtype=float)
            if self.r0_nodes.ndim != 1 or self.r0_nodes.size < 4:
                raise ValueError("need at least 4 increasing r0 nodes")
            if not np.all(np.isfinite(self.r0_nodes)):
                raise ValueError("r0_nodes must be finite")
            if np.any(np.diff(self.r0_nodes) <= 0):
                raise ValueError("r0 nodes must increase")
            if self.r0_nodes[0] <= 0 or self.r0_nodes[0] < self.r0_min:
                raise ValueError("data support must exclude the vertex and start at or above "
                                 f"r0_min: first r0 node {self.r0_nodes[0]}, r0_min {self.r0_min}")
            th = grid.angles()[0]
            self.values = np.ascontiguousarray(values, dtype=complex)
            expect = (self.r0_nodes.size, th.size)
            if self.values.shape[:2] != expect:
                raise ValueError(f"values must have shape {expect} + (ncomp,)")
            if self.values.ndim == 2:
                self.values = self.values[:, :, None]
            # every generator column at once, as real and imaginary parts
            columns = self.values.reshape(expect[0], -1).view(float)
            if not np.all(np.isfinite(columns)):
                raise ValueError("values must be finite")
            self._moments = (_moment_matrix(self.r0_nodes) @ columns
                             ).view(complex).reshape(self.values.shape)
        else:
            self.grid = None
            self.r0_nodes = None
            self.values = None
            self._moments = None

    @property
    def is_analytic(self):
        return self.fn is not None

    @property
    def ncomp(self):
        if self.is_analytic:
            return 2 if self.kind == "dirac" else None   # fn decides for spin
        return self.values.shape[2]

    def _check_domain(self, r0, n_points):
        r0 = np.asarray(r0, dtype=float)
        if r0.ndim == 0:
            r0 = np.full(n_points, float(r0))
        if self.is_analytic:
            if np.any(r0 <= self.r0_min):
                raise CoverageError("evaluation point too close to the vertex")
        else:
            if r0.size != self.values.shape[1]:
                raise ValueError("grid data evaluates per direction node; "
                                 f"expected {self.values.shape[1]} radii")
            lo, hi = self.r0_nodes[0], self.r0_nodes[-1]
            if np.any(r0 < lo) or np.any(r0 > hi):
                raise CoverageError("r0 outside the sampled generator range")
        return r0

    def _check_grid(self, grid):
        g = self.grid
        if g is not None and (g.n_theta != grid.n_theta or g.n_phi != grid.n_phi):
            raise ValueError("section grid does not match the data grid")

    def _spline_eval(self, r0):
        # per-node Horner on the bracketing cubic piece, from its end values
        # y0, y1 and moments m0, m1; vectorized over nodes, one lookup for
        # the value and its derivative
        x = self.r0_nodes
        idx = np.clip(np.searchsorted(x, r0) - 1, 0, x.size - 2)
        h = (x[idx + 1] - x[idx])[:, None]
        dx = (r0 - x[idx])[:, None]
        nodes = np.arange(r0.size)
        y0, y1 = self.values[idx, nodes], self.values[idx + 1, nodes]
        m0, m1 = self._moments[idx, nodes], self._moments[idx + 1, nodes]
        slope = (y1 - y0) / h - h * (2.0 * m0 + m1) / 6.0
        return (y0 + dx * (slope + dx * (0.5 * m0 + dx * (m1 - m0) / (6.0 * h))),
                slope + dx * (m0 + dx * (m1 - m0) / (2.0 * h)))

    def evaluate(self, r0, omega, o_up, iota_up):
        """(values, d/dr0) of every component at (r0, omega) in the supplied
        node frame, the derivative at fixed direction.

        Grid data takes both from one spline lookup; analytic data uses
        the exact callback fn_dr0 when given, otherwise a two-level
        Richardson central difference of fn.
        """
        r0 = self._check_domain(r0, np.asarray(omega).shape[0])
        if not self.is_analytic:
            return self._spline_eval(r0)
        vals = np.asarray(self.fn(r0, omega, o_up, iota_up), dtype=complex)
        if self.fn_dr0 is not None:
            return vals, np.asarray(self.fn_dr0(r0, omega, o_up, iota_up), dtype=complex)
        h = 1e-2 * np.maximum(np.abs(r0), 1.0)
        if np.any(r0 - h <= self.r0_min):
            raise CoverageError("differencing stencil reaches the vertex")
        return vals, richardson_dr0(
            lambda r: np.asarray(self.fn(r, omega, o_up, iota_up), dtype=complex),
            r0, h)

    def radial_derivative(self, r0, omega, o_up, iota_up):
        """d/dr0 of every component at fixed direction, alone (see evaluate)."""
        return self.evaluate(r0, omega, o_up, iota_up)[1]

    def evaluate_on(self, section: ConeSection):
        """(values, d/dr0) of all components on a section (nodes in their
        own charts); see evaluate."""
        self._check_grid(section.grid)
        return self.evaluate(section.r0, section.omega, section.o, section.iota)


def _moment_matrix(x):
    """S with M = S @ y: the second derivatives M at the nodes x of the
    not-a-knot cubic spline through the values y there.

    Moment form (de Boor, A Practical Guide to Splines, ch. IV): the
    interior rows are continuity of the first derivative, the first and
    last rows continuity of the third derivative at x[1] and x[-2].
    """
    k = x.size
    h = np.diff(x)
    lhs = np.zeros((k, k))
    rhs = np.zeros((k, k))
    lhs[0, :3] = h[1], -(h[0] + h[1]), h[0]
    lhs[-1, -3:] = h[-1], -(h[-2] + h[-1]), h[-2]
    i = np.arange(1, k - 1)
    lhs[i, i - 1] = h[:-1]
    lhs[i, i] = 2.0 * (h[:-1] + h[1:])
    lhs[i, i + 1] = h[1:]
    rhs[i, i - 1] = 6.0 / h[:-1]
    rhs[i, i] = -6.0 / h[:-1] - 6.0 / h[1:]
    rhs[i, i + 1] = 6.0 / h[1:]
    return np.linalg.solve(lhs, rhs)


def richardson_dr0(values_at, r0, h):
    """d/dr0 by a two-level Richardson central difference, (4 D(h/2) - D(h)) / 3.

    values_at maps per-node radii (N,) to (N, ncomp) values; D(s) is the
    central difference with step s.  h is a scalar or a per-node (N,) step.
    """
    h = np.asarray(h, dtype=float)

    def central(step):
        return (values_at(r0 + step) - values_at(r0 - step)) / (2.0 * step[..., None])

    return richardson(central, h)


# ---------------------------------------------------------------------------
# tangential operators


def _chart_pair(values, phi, chart, weight):
    """Both chart representations (A, B) of per-node own-chart values."""
    in_b = chart == 1
    return (np.where(in_b, cone.chart_transition(values, phi, weight, 0), values),
            np.where(in_b, values, cone.chart_transition(values, phi, weight, 1)))


def _mbar_coefficients(section: ConeSection, td: TangentialDerivatives):
    """(a, b) with mbar = a t_theta + b t_phi per node, m = o iotabar."""
    t_th, t_ph, g11, g12, g22, det = cone.section_tangents(section, td)
    mbar = np.conj(from_matrix(np.einsum("ni,nj->nij", section.o,
                                         section.iota.conj())))
    b1 = -np.einsum("ni,ij,nj->n", t_th, ETA, mbar)
    b2 = -np.einsum("ni,ij,nj->n", t_ph, ETA, mbar)
    a = (g22 * b1 - g12 * b2) / det
    b = (g11 * b2 - g12 * b1) / det
    return a, b


class _SectionCalculus:
    """Shared machinery: tangential derivative along mbar on a section."""

    def __init__(self, section: ConeSection):
        self.section = section
        self.td = TangentialDerivatives(section.grid)
        self.a, self.b = _mbar_coefficients(section, self.td)
        self._in_b = section.chart == 1
        self._phi = section.phi

    def _d_own(self, values, weight):
        vals_a, vals_b = _chart_pair(values, self._phi, self.section.chart, weight)
        d_th = np.where(self._in_b, self.td.d_theta(vals_b), self.td.d_theta(vals_a))
        d_ph = np.where(self._in_b, self.td.d_phi(vals_b), self.td.d_phi(vals_a))
        return d_th, d_ph

    def grad_mbar(self, values, weight):
        """mbar^a d_a of per-node own-chart values of the given weight."""
        d_th, d_ph = self._d_own(values, weight)
        return self.a * d_th + self.b * d_ph


def section_spin_coefficients(section: ConeSection,
                              calculus: _SectionCalculus | None = None):
    """Spin coefficients of the section frame needed by the cone calculus.

    Returns a dict with per-node arrays: rho = o^A grad_mbar o_A is
    computed tangentially, as are alpha = iota^A grad_mbar o_A,
    beta = iota^A grad_m o_A and sigma' = -iota^A grad_mbar iota_A; the
    components of o_A and iota_A are differentiated as weight (1,0) and
    (-1,0) scalars (the flat ambient connection vanishes in these
    coordinates).  The canonical frame does not depend on r0 along a
    generator, so its kappa = o^A grad_l o_A, epsilon = iota^A grad_l o_A
    and tau' = -iota^A grad_l iota_A vanish identically and are not
    returned.
    """
    calc = calculus or _SectionCalculus(section)
    o_low = lower_comps(section.o)
    i_low = lower_comps(section.iota)
    n = section.n_nodes
    rho = np.zeros(n, dtype=complex)
    alpha = np.zeros(n, dtype=complex)
    beta = np.zeros(n, dtype=complex)
    sigma_p = np.zeros(n, dtype=complex)
    for comp in range(2):
        d_th, d_ph = calc._d_own(o_low[:, comp], (1, 0))
        d_o = calc.a * d_th + calc.b * d_ph
        d_o_m = np.conj(calc.a) * d_th + np.conj(calc.b) * d_ph
        d_i = calc.grad_mbar(i_low[:, comp], (-1, 0))
        rho += section.o[:, comp] * d_o
        alpha += section.iota[:, comp] * d_o
        beta += section.iota[:, comp] * d_o_m
        sigma_p -= section.iota[:, comp] * d_i
    return {"rho": rho, "alpha": alpha, "beta": beta, "sigma_prime": sigma_p}


def eth_prime(f: WeightedScalarField, section: ConeSection,
              alpha=None, calculus: _SectionCalculus | None = None
              ) -> WeightedScalarField:
    """Weight-lowering angular operator on a section.

    eth' f = grad_mbar f - p alpha f - q betabar f for f of weight (p, q);
    the result has weight (p-1, q+1).  betabar = conj(iota^A grad_m o_A)
    is the primed-frame connection coefficient in the mbar direction, the
    choice fixed by requiring exact covariance under constant frame
    rescalings and the vanishing of the total section integral for weight
    (1,-1) arguments.  beta, and alpha unless given, are computed from
    the section's own frame field.
    """
    calc = calculus or _SectionCalculus(section)
    p, q = f.weight
    if (alpha is None and p != 0) or q != 0:
        coef = section_spin_coefficients(section, calc)
        alpha = coef["alpha"] if alpha is None else alpha
        beta = coef["beta"]
    vals = f.values
    out = calc.grad_mbar(vals, f.weight)
    if p != 0:
        out = out - p * alpha * vals
    if q != 0:
        out = out - q * np.conj(beta) * vals
    return WeightedScalarField(out, (p - 1, q + 1))


# ---------------------------------------------------------------------------
# constraint residuals


def constraint_residual(data: ConeData, p0, s_values, grid: SphereGrid | None = None):
    """Max residual of the component relations along the cone, per j.

    The data must carry all components phi_0..phi_n.  On each section
    sigma(p0 + (s,0,0,0)) the relation

      p. phi_j - eth' phi_{j-1} = (j-1) sigma' phi_{j-2} - j tau' phi_{j-1}
                                  + (n-j+1) rho phi_j - (n-j) kappa phi_{j+1}

    holds for j = 1..n, with p. phi_j = d phi_j/dr0 - (p eps + q epsbar)
    phi_j for the weight (p, q) = (n-2j, 0) of phi_j.  The section frame
    does not depend on r0 along a generator, so its kappa, epsilon and
    tau' vanish (see section_spin_coefficients); what is evaluated is

      d phi_j/dr0 - eth' phi_{j-1} = (j-1) sigma' phi_{j-2} + (n-j+1) rho phi_j

    with the remaining coefficients taken from the section frame.
    Returns {j: max abs residual over all sections}.
    """
    p0 = np.asarray(p0, dtype=float)
    n = data.valence
    if data.kind != "spin":
        raise ValueError("constraint relations apply to the spin components")
    if grid is None:
        grid = data.grid if data.grid is not None else SphereGrid(24, 48)
    worst = {j: 0.0 for j in range(1, n + 1)}
    for s in np.atleast_1d(np.asarray(s_values, dtype=float)):
        q_pt = p0 + np.array([s, 0.0, 0.0, 0.0])
        section = cone.build_section(p0, q_pt, grid)
        vals, dvals = data.evaluate_on(section)
        if vals.shape[1] != n + 1:
            raise ValueError("constraint check needs all components phi_0..phi_n")
        calc = _SectionCalculus(section)
        coef = section_spin_coefficients(section, calc)
        for j in range(1, n + 1):
            eth_val = eth_prime(
                WeightedScalarField(vals[:, j - 1], (n - 2 * (j - 1), 0)),
                section, alpha=coef["alpha"], calculus=calc).values
            rhs = (n - j + 1) * coef["rho"] * vals[:, j]
            if j >= 2:
                rhs = rhs + (j - 1) * coef["sigma_prime"] * vals[:, j - 2]
            res = np.max(np.abs(dvals[:, j] - eth_val - rhs))
            worst[j] = float(np.max([worst[j], res]))    # a NaN residual stays NaN
    return worst


# ---------------------------------------------------------------------------
# file format: JSON descriptor + little-endian complex blob


# The literals every conedata-v1 descriptor holds, which the writer
# writes and the reader requires: the sphere grid (the two-chart grid
# with no ring left out) and the blob's one encoding.
_V1_GRID = {"chart_mode": "double", "cap": 0.0}
_V1_BLOB = {"dtype": "<c16", "layout": "r0-major, ring-major directions, component-minor"}
# keys a descriptor must hold; r0_min is optional (default 0)
_DESCRIPTOR_KEYS = ("valence", "kind", "n_components", "n_theta", "n_phi",
                    *_V1_GRID, *_V1_BLOB, "r0_nodes", "blob")


def save_cone_data(path: str, data: ConeData):
    """Write grid data as <path>.json descriptor + <path>.bin blob.

    Layout: C-order (r0 node, direction node ring-major, component),
    little-endian complex128 pairs.  Analytic data has no serial form.
    """
    if data.is_analytic:
        raise ValueError("only grid data can be saved")
    base = path[:-5] if path.endswith(".json") else path
    blob_name = os.path.basename(base) + ".bin"
    g = data.grid
    desc = {
        "format": "conedata-v1",
        "valence": data.valence,
        "kind": data.kind,
        "n_components": data.ncomp,
        "n_theta": g.n_theta,
        "n_phi": g.n_phi,
        **_V1_GRID,
        "r0_nodes": data.r0_nodes.tolist(),
        "r0_min": data.r0_min,
        "blob": blob_name,
        **_V1_BLOB,
    }
    blob = np.ascontiguousarray(data.values.astype(_V1_BLOB["dtype"]))
    with open(base + ".bin", "wb") as fh:
        fh.write(blob.tobytes())
    with open(base + ".json", "w") as fh:
        json.dump(desc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_cone_data(path: str) -> ConeData:
    """Read data written by save_cone_data; path names the descriptor."""
    base = path[:-5] if path.endswith(".json") else path
    with open(base + ".json") as fh:
        desc = json.load(fh)
    if not isinstance(desc, dict):
        raise ValueError(f"descriptor must be a JSON object, got {type(desc).__name__}")
    if desc.get("format") != "conedata-v1":
        raise ValueError("not a cone-data descriptor")
    missing = [k for k in _DESCRIPTOR_KEYS if k not in desc]
    if missing:
        raise ValueError(f"descriptor needs {', '.join(map(repr, missing))}")
    unknown = sorted(set(desc) - {"format", "r0_min", *_DESCRIPTOR_KEYS})
    if unknown:
        raise ValueError(f"descriptor has unknown keys {', '.join(map(repr, unknown))}")
    counts = ("valence", "n_components", "n_theta", "n_phi")
    if not all(type(desc[k]) is int for k in counts):
        raise ValueError(f"{', '.join(counts)} must be integers")
    for key in ("n_theta", "n_phi"):
        if not 1 <= desc[key] <= cone.MAX_GRID:
            raise ValueError(f"{key} must be a positive integer at most "
                             f"{cone.MAX_GRID}, got {desc[key]}")
    for key, want in {**_V1_GRID, **_V1_BLOB}.items():
        if isinstance(desc[key], bool) or desc[key] != want:
            raise ValueError(f"{key} must be {want!r}, got {desc[key]!r}")
    kind, valence, ncomp = desc["kind"], desc["valence"], desc["n_components"]
    allowed = (2,) if kind == "dirac" else (1, valence + 1)
    if ncomp not in allowed:
        raise ValueError(f"n_components {ncomp} does not fit kind {kind!r} "
                         f"with valence {valence}; expected one of {allowed}")
    blob = desc["blob"]
    if blob in ("", ".", "..") or os.path.basename(str(blob)) != blob:
        raise ValueError(f"blob {blob!r} must be a plain file name next to "
                         "the descriptor")
    r0_nodes = desc["r0_nodes"]
    if type(r0_nodes) is not list or any(type(r) not in (int, float) for r in r0_nodes):
        raise ValueError(f"r0_nodes must be a list of numbers, got {r0_nodes!r}")
    r0_nodes = np.asarray(r0_nodes, dtype=float)
    # the grid has a node per ring and angle; its size is checked on the
    # blob before the grid is built
    shape = (r0_nodes.size, desc["n_theta"] * desc["n_phi"], ncomp)
    blob_path = os.path.join(os.path.dirname(base) or ".", blob)
    if os.path.getsize(blob_path) != 16 * math.prod(shape):
        raise ValueError("blob size does not match the descriptor")
    grid = SphereGrid(desc["n_theta"], desc["n_phi"])
    raw = np.fromfile(blob_path, dtype=_V1_BLOB["dtype"])
    if not np.all(np.isfinite(raw.view(float))):
        raise ValueError(f"blob {blob!r} holds non-finite values")
    r0_min = desc.get("r0_min", 0.0)
    if type(r0_min) not in (int, float):
        raise ValueError(f"r0_min must be a number, got {r0_min!r}")
    return ConeData(valence, kind=kind, grid=grid,
                    r0_nodes=r0_nodes, values=raw.reshape(shape), r0_min=r0_min)
