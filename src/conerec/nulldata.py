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

import contextlib
import json
import math
import mmap
import os
from dataclasses import dataclass

import numpy as np

from . import cone
from .errors import ConfigError, CoverageError
from .cone import ConeSection, SphereGrid, TangentialDerivatives
from .spinor import from_matrix, lower_comps
from .tables import (_REQUIRED, _Key, _as_finite, _as_kind, _as_object, _check, _count,
                     _finite_json, _list_of, _literal, _number, _read)

__all__ = [
    "ConeData", "WeightedScalarField",
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
    and fn_dr0(r0, omega, o_up, iota_up, values), the exact generator
    derivative of the values fn just returned there; both are required.
    A composite fn_dr0 hands each part that part's values, not the sum.
    Grid source: values of shape (len(r0_nodes), n_nodes, ncomp) sampled
    on `grid`, interpolated along each generator by the not-a-knot cubic
    spline, and read only on the grid's own directions.  evaluate returns
    the values and their d/dr0 together, so an evaluator makes one data
    call per section.  Support must stay away from the vertex: r0 at or
    below `r0_min` (grid: outside the node range) is an error.

    Grid values are stored in the canonical frame of the on-axis
    sections and returned whatever frame evaluate is handed.  phi_0,
    zeta_0 and xi^{1'} contract only with o, so every flat section, all
    sharing the grid's o, reads them alike; a chart's frame o/c scales
    phi_0 by c^-n for analytic data only.  The higher phi_j involve iota
    and are meaningful on the on-axis family, which is where the
    constraint checker samples them.
    """

    def __init__(self, valence, kind="spin", fn=None, fn_dr0=None,
                 grid=None, r0_nodes=None, values=None, r0_min=0.0):
        if valence < 1:
            raise ValueError("valence must be at least 1")
        if kind not in ("spin", "dirac"):
            raise ValueError(f"unknown kind {kind!r}")
        if kind == "dirac" and valence != 1:
            raise ValueError("the 4-spinor data pair is valence 1")
        if fn is not None and fn_dr0 is None:
            raise ValueError("analytic data needs fn_dr0, its exact d/dr0")
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
            # every generator column at once, as real and imaginary parts; a
            # finite sum proves every term finite without a full-size mask,
            # and only a non-finite one (NaN, inf, or overflow) is scanned
            columns = self.values.reshape(expect[0], -1).view(float)
            with np.errstate(over="ignore", invalid="ignore"):
                total = columns.sum()
            if not np.isfinite(total) and not np.all(np.isfinite(columns)):
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

    def _spline_eval(self, r0):
        # per-node Horner on the bracketing cubic piece, from its end values
        # y0, y1 and moments m0, m1; vectorized over nodes, one lookup for
        # the value and its derivative.  Row idx of node j is row
        # idx * N + j of the (K * N, ncomp) views, gathered with one take.
        x = self.r0_nodes
        idx = np.clip(np.searchsorted(x, r0) - 1, 0, x.size - 2)
        h = (x[idx + 1] - x[idx])[:, None]
        dx = (r0 - x[idx])[:, None]
        n = r0.size
        rows = idx * n + np.arange(n)
        values = self.values.reshape(-1, self.values.shape[2])
        moments = self._moments.reshape(values.shape)
        y0, y1 = values.take(rows, axis=0), values.take(rows + n, axis=0)
        m0, m1 = moments.take(rows, axis=0), moments.take(rows + n, axis=0)
        slope = (y1 - y0) / h - h * (2.0 * m0 + m1) / 6.0
        curv = dx * (m1 - m0)
        return (y0 + dx * (slope + dx * (0.5 * m0 + curv / (6.0 * h))),
                slope + dx * (m0 + curv / (2.0 * h)))

    def evaluate(self, r0, omega, o_up, iota_up):
        """(values, d/dr0) of every component at (r0, omega) in the supplied
        node frame, the derivative at fixed direction.

        Analytic data calls fn, then fn_dr0 with the values fn returned.
        Grid data takes both from one spline lookup, per node of its grid:
        omega must be the grid's own directions, else ValueError.
        """
        r0 = np.asarray(r0, dtype=float)
        if r0.ndim == 0:
            r0 = np.full(np.shape(omega)[0], float(r0))
        if self.is_analytic:
            if np.any(r0 <= self.r0_min):
                raise CoverageError("evaluation point too close to the vertex")
            values = np.asarray(self.fn(r0, omega, o_up, iota_up), dtype=complex)
            return values, np.asarray(self.fn_dr0(r0, omega, o_up, iota_up, values), dtype=complex)
        own = self.grid.directions()[0]
        if omega is not own and not np.array_equal(omega, own):
            raise ValueError("section grid does not match the data grid")
        if r0.shape != own.shape[:1]:
            raise ValueError("grid data evaluates per direction node; "
                             f"expected {own.shape[0]} radii")
        if np.any(r0 < self.r0_nodes[0]) or np.any(r0 > self.r0_nodes[-1]):
            raise CoverageError("r0 outside the sampled generator range")
        return self._spline_eval(r0)

    def radial_derivative(self, r0, omega, o_up, iota_up):
        """d/dr0 of every component at fixed direction, alone (see evaluate)."""
        return self.evaluate(r0, omega, o_up, iota_up)[1]

    def evaluate_on(self, section: ConeSection):
        """(values, d/dr0) of all components on a section (nodes in their
        own charts); see evaluate."""
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


# ---------------------------------------------------------------------------
# tangential operators


def _chart_pair(values, phi, in_b, weight):
    """Both chart representations (A, B) of per-node own-chart values,
    stacked on a new last axis; phi and in_b broadcast against values.
    Each node needs one transition, to the chart it is not in."""
    other = cone.chart_transition(values, phi, weight, np.where(in_b, 0, 1))
    return np.stack([np.where(in_b, other, values), np.where(in_b, values, other)], axis=-1)


def _mbar_coefficients(section: ConeSection, td: TangentialDerivatives):
    """(a, b) with mbar = a t_theta + b t_phi per node, m = o iotabar."""
    t_th, t_ph, g11, g12, g22, det = cone.section_tangents(section, td)
    mbar = np.conj(from_matrix(np.einsum("ni,nj->nij", section.o,
                                         section.iota.conj())))
    b1 = cone.minus_eta(t_th, mbar)
    b2 = cone.minus_eta(t_ph, mbar)
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
        """(d/dtheta, d/dphi) of own-chart values (N,) or (N, k) of one
        weight, each node reading its own chart's derivative.  The chart
        pair is one stacked field: one d_theta and one d_phi call."""
        values = np.asarray(values)
        per_node = (slice(None),) + (None,) * (values.ndim - 1)
        in_b = self._in_b[per_node]
        pair = _chart_pair(values, self._phi[per_node], in_b, weight)
        d_th, d_ph = self.td.d_theta(pair), self.td.d_phi(pair)
        return (np.where(in_b, d_th[..., 1], d_th[..., 0]),
                np.where(in_b, d_ph[..., 1], d_ph[..., 0]))

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
    a, b = calc.a[:, None], calc.b[:, None]
    # both components of o_A, then of iota_A, in one derivative call each
    d_th, d_ph = calc._d_own(lower_comps(section.o), (1, 0))
    d_o = a * d_th + b * d_ph
    d_o_m = np.conj(a) * d_th + np.conj(b) * d_ph
    d_th, d_ph = calc._d_own(lower_comps(section.iota), (-1, 0))
    d_i = a * d_th + b * d_ph
    rho = np.sum(section.o * d_o, axis=1)
    alpha = np.sum(section.iota * d_o, axis=1)
    beta = np.sum(section.iota * d_o_m, axis=1)
    sigma_p = -np.sum(section.iota * d_i, axis=1)
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


def constraint_residual(data: ConeData, p0, s_values, grid: SphereGrid):
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
_as_file_name = _check(lambda v: isinstance(v, str) and v not in ("", ".", "..")
                       and os.path.basename(v) == v, "a plain file name next to the descriptor")
# Every descriptor key, read like a config block (see tables).  Counts are
# JSON integers.  r0_nodes is bounded like the grid: the spline fit solves
# a dense node x node system, 3.2 GB a matrix at 20000 nodes.
_DESCRIPTOR = {
    "format": _Key(_literal("conedata-v1"), _REQUIRED),
    "valence": _Key(_count(json_int=True), _REQUIRED),
    "kind": _Key(_as_kind, _REQUIRED),
    "n_components": _Key(_count(json_int=True), _REQUIRED),
    "n_theta": _Key(_count(cone.MAX_GRID, json_int=True), _REQUIRED),
    "n_phi": _Key(_count(cone.MAX_GRID, json_int=True), _REQUIRED),
    **{key: _Key(_literal(want), _REQUIRED) for key, want in {**_V1_GRID, **_V1_BLOB}.items()},
    "r0_nodes": _Key(_list_of(_as_finite, most=cone.MAX_GRID), _REQUIRED),
    "r0_min": _Key(_check(lambda v: _number(v) and v >= 0, "a non-negative number", float),
                   0.0),
    "blob": _Key(_as_file_name, _REQUIRED),
}


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
    text = json.dumps(desc, indent=1, sort_keys=True) + "\n"
    # each file is written under a temporary name, then replaces the old
    # one: a reader that maps the old blob keeps its pages, and an
    # interrupted save leaves the old pair in place
    staged = {base + ".bin": blob.tobytes(), base + ".json": text.encode()}
    tmp = {final: f"{final}.{os.getpid()}.tmp" for final in staged}
    try:
        for final, payload in staged.items():
            with open(tmp[final], "wb") as fh:
                fh.write(payload)
        for final in staged:
            os.replace(tmp[final], final)
    finally:
        for name in tmp.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(name)


def load_cone_data(path: str) -> ConeData:
    """Read data written by save_cone_data; path names the descriptor.

    Every key is read through _DESCRIPTOR; what is checked here spans
    several keys or reads the blob.  The blob is mapped read-only, not
    copied: the data's values are a read-only view of the file, which
    must not be rewritten in place while they are read (save_cone_data
    replaces it).
    """
    base = path[:-5] if path.endswith(".json") else path
    with open(base + ".json") as fh:
        desc = json.load(fh)
    if _as_object(desc, "descriptor").get("format", "conedata-v1") != "conedata-v1":
        raise ConfigError("not a cone-data descriptor")
    d = _read(_finite_json(desc, "descriptor"), _DESCRIPTOR, "descriptor")
    kind, valence, ncomp = d["kind"], d["valence"], d["n_components"]
    allowed = (2,) if kind == "dirac" else (1, valence + 1)
    if ncomp not in allowed:
        raise ConfigError(f"n_components {ncomp} does not fit kind {kind!r} "
                          f"with valence {valence}; expected one of {allowed}")
    # the grid has a node per ring and angle; its size is checked on the
    # blob before the grid is built
    shape = (len(d["r0_nodes"]), d["n_theta"] * d["n_phi"], ncomp)
    blob_path = os.path.join(os.path.dirname(base) or ".", d["blob"])
    with open(blob_path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size != 16 * math.prod(shape):
            raise ConfigError("blob size does not match the descriptor")
        # read in place through a read-only mapping, not copied (an empty
        # file cannot be mapped)
        buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) if size else b""
    raw = np.frombuffer(buf, dtype=_V1_BLOB["dtype"])
    grid = SphereGrid(d["n_theta"], d["n_phi"])
    try:    # ConeData's own scan is the one finiteness check of the blob
        return ConeData(valence, kind=kind, grid=grid, r0_nodes=d["r0_nodes"],
                        values=raw.reshape(shape), r0_min=d["r0_min"])
    except ValueError as exc:
        raise ConfigError(f"descriptor and blob {d['blob']!r} make no cone data: {exc}") from None
