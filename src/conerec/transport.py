"""Geodesic transport on weakly curved charts.

A chart is a Lorentzian metric given as a callable on a boxed
coordinate domain.  On top of an RK4 geodesic integrator this module
builds the two-point machinery the curved reconstructor consumes:
null connection between chart points, the world function with the
[0, 1] affine convention (so its flat value is the coordinate
interval), the transport coefficient k obtained by integrating

    2 <grad W, grad k> + (box W - 8) k = 0,      k -> 1/(2 pi)

along null generators, and parallel transport of NP frames with a
continuity-fixed spin basis.

Charts come from a small registry: "flat" and "conformal" with
metric (1 + eps f)^2 eta for a named smooth profile f.  Conformal
charts carry the factor and its log-gradient as callables; several
routines use them for closed-form cross-checks (null chart geodesics
of a conformal metric are straight coordinate lines, only their
affine parameterization bends).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _backend as kernels
from ._backend import rk4_step
from .errors import GeometryError
from .frames import NPFrame, spin_basis_from_tetrad

__all__ = [
    "CurvedChart", "GeodesicPath", "TransportState", "ParallelFrames",
    "make_chart", "check_signature", "christoffel_fd", "rk4_step",
    "geodesic_shoot", "null_connect", "world_function",
    "world_function_gradient_check",
    "transport_k", "van_vleck_k", "conformal_k", "transport_spin_frame",
]

ETA = np.diag([1.0, -1.0, -1.0, -1.0])
TWO_PI = 2.0 * math.pi


@dataclass
class CurvedChart:
    """Lorentzian metric on the coordinate box [lo, hi]^4.

    metric maps a point to the symmetric 4x4 matrix g_{ab}; christoffel,
    when given, maps a point to Gamma^a_{bc} (first index up) and
    otherwise central differences of the metric are used.  omega and
    grad_ln_omega are set by the registry for conformally flat charts,
    g = omega^2 eta; they take (..., 4) arrays, enable exact shortcuts,
    and send endpoint shoots through the batched kernel.  Leave them
    None for a general metric, whose shoots run row by row.
    """

    metric: Callable[[np.ndarray], np.ndarray]
    lo: np.ndarray
    hi: np.ndarray
    christoffel: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "custom"
    omega: Optional[Callable[[np.ndarray], np.ndarray]] = None
    grad_ln_omega: Optional[Callable[[np.ndarray], np.ndarray]] = None
    fd_step: float = 1e-5

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float).reshape(4)
        self.hi = np.asarray(self.hi, dtype=float).reshape(4)
        if not np.all(self.hi > self.lo):
            raise ValueError("domain box must have hi > lo in every coordinate")

    @property
    def scale(self) -> float:
        return float(np.max(self.hi - self.lo) / 2.0)

    def contains(self, x):
        """Whether each row of x (..., 4) is in the box; a bool for a single point."""
        x = np.asarray(x, dtype=float)
        inside = np.all((x >= self.lo) & (x <= self.hi), axis=-1)
        return bool(inside) if inside.ndim == 0 else inside

    def require_inside(self, x, what: str = "point"):
        """Raise for the first of the points (rows of x) outside the box."""
        x = np.asarray(x, dtype=float).reshape(-1, 4)
        outside = ~self.contains(x)
        if np.any(outside):
            raise GeometryError(f"{what} {x[np.argmax(outside)]} is outside "
                                f"the chart domain [{self.lo}, {self.hi}]")

    def connection(self, x) -> np.ndarray:
        if self.christoffel is not None:
            return self.christoffel(x)
        return christoffel_fd(self.metric, x, self.fd_step)


@dataclass
class TransportState:
    """Point on a transported path: position, velocity, and optional payload."""

    position: np.ndarray
    velocity: np.ndarray
    k: Optional[float] = None
    frame: Optional[NPFrame] = None


@dataclass
class GeodesicPath:
    """RK4 geodesic samples: s (N+1,), x and v (N+1, 4)."""

    s: np.ndarray
    x: np.ndarray
    v: np.ndarray
    chart: CurvedChart

    @property
    def final(self) -> TransportState:
        return TransportState(self.x[-1].copy(), self.v[-1].copy())

    def norm_drift(self) -> float:
        """Max drift of g(v, v) along the path relative to its start value."""
        norms = np.array([v @ self.chart.metric(x) @ v
                          for x, v in zip(self.x, self.v)])
        return float(np.max(np.abs(norms - norms[0])))


def christoffel_fd(metric, x, h: float) -> np.ndarray:
    """Gamma^a_{bc} from central differences of the metric."""
    x = np.asarray(x, dtype=float)
    ginv = np.linalg.inv(metric(x))
    dg = np.empty((4, 4, 4))
    for c in range(4):
        e = np.zeros(4)
        e[c] = h
        dg[c] = (metric(x + e) - metric(x - e)) / (2.0 * h)
    # Gamma_{dbc} = (g_{db,c} + g_{dc,b} - g_{bc,d}) / 2
    low = 0.5 * (np.einsum("cdb->dbc", dg) + np.einsum("bdc->dbc", dg)
                 - np.einsum("dbc->dbc", dg))
    return np.einsum("ad,dbc->abc", ginv, low)


def check_signature(chart: CurvedChart, points) -> None:
    """Raise unless the metric has Lorentzian signature (+,-,-,-) at each point."""
    for x in np.atleast_2d(np.asarray(points, dtype=float)):
        g = chart.metric(x)
        if np.max(np.abs(g - g.T)) > 1e-12 * max(1.0, np.max(np.abs(g))):
            raise ValueError(f"metric is not symmetric at {x}")
        ev = np.sort(np.linalg.eigvalsh(g))
        if not (np.all(ev[:3] < 0.0) and ev[3] > 0.0):
            raise ValueError(f"metric signature is not Lorentzian at {x}: "
                             f"eigenvalues {ev}")


# -- chart registry ------------------------------------------------------

def _profile(profile: str, width: float, center) -> tuple:
    """Smooth bounded bump on (..., 4) arrays: f, and f_grad = (f, grad f).

    Whoever needs the coordinate gradient also needs the value, so
    f_grad returns both from one evaluation.
    """
    c = np.asarray(center, dtype=float).reshape(4)
    if profile == "gaussian":
        # (d * d) @ k is -|d|^2 / width^2 over the last axis in one call
        k = np.full(4, -1.0 / width ** 2)

        def f(x):
            d = np.asarray(x, dtype=float) - c
            return np.exp((d * d) @ k)

        def f_grad(x):
            d = np.asarray(x, dtype=float) - c
            fx = np.exp((d * d) @ k)
            return fx, (fx * (-2.0 / width ** 2))[..., None] * d
    elif profile == "sine":
        def f(x):
            d = (np.asarray(x, dtype=float) - c) / width
            return (np.sin(d[..., 0]) * np.cos(d[..., 1]) * np.cos(d[..., 2])
                    * np.cos(d[..., 3]))

        def f_grad(x):
            d = (np.asarray(x, dtype=float) - c) / width
            s, co = np.sin(d), np.cos(d)
            fx = s[..., 0] * co[..., 1] * co[..., 2] * co[..., 3]
            g = np.stack([co[..., 0] * co[..., 1] * co[..., 2] * co[..., 3],
                          -s[..., 0] * s[..., 1] * co[..., 2] * co[..., 3],
                          -s[..., 0] * co[..., 1] * s[..., 2] * co[..., 3],
                          -s[..., 0] * co[..., 1] * co[..., 2] * s[..., 3]], axis=-1)
            return fx, g / width
    else:
        raise ValueError(f"unknown conformal profile {profile!r}")
    return f, f_grad


def _conformal_christoffel(w: np.ndarray) -> np.ndarray:
    """Gamma^a_{bc} of g = omega^2 eta from w_a = partial_a ln omega."""
    gam = np.zeros((4, 4, 4))
    for a in range(4):
        gam[a, a, :] += w
        gam[a, :, a] += w
    w_up = np.diag(ETA) * w
    gam -= np.einsum("bc,a->abc", ETA, w_up)
    return gam


def make_chart(name: str, eps: float = 0.0, profile: str = "gaussian",
               width: float = 2.0, center=(0.0, 0.0, 0.0, 0.0),
               halfwidth: float = 10.0) -> CurvedChart:
    """Build a registered chart: "flat" or "conformal".

    The conformal chart has metric (1 + eps f)^2 eta with f the named
    profile; eps must keep 1 + eps f positive on the whole box.
    """
    lo = np.full(4, -halfwidth)
    hi = np.full(4, halfwidth)
    if name == "flat":
        chart = CurvedChart(metric=lambda x: ETA.copy(), lo=lo, hi=hi,
                            christoffel=lambda x: np.zeros((4, 4, 4)),
                            name="flat",
                            omega=lambda x: np.ones(np.shape(x)[:-1])[()],
                            grad_ln_omega=lambda x: np.zeros(np.shape(x)))
    elif name == "conformal":
        if not -1.0 < eps < 1.0:
            raise ValueError("eps must satisfy |eps| < 1 for a positive factor")
        f, f_grad = _profile(profile, width, center)

        def omega(x):
            return 1.0 + eps * f(x)

        def grad_ln_omega(x):
            fx, grad = f_grad(x)
            return (eps / (1.0 + eps * fx))[..., None] * grad

        def metric(x):
            return omega(x) ** 2 * ETA

        def christoffel(x):
            return _conformal_christoffel(grad_ln_omega(x))

        chart = CurvedChart(metric=metric, lo=lo, hi=hi,
                            christoffel=christoffel,
                            name=f"conformal(eps={eps:g}, profile={profile})",
                            omega=omega, grad_ln_omega=grad_ln_omega)
    else:
        raise ValueError(f"unknown chart {name!r}; registry has 'flat' and 'conformal'")
    rng = np.random.default_rng(0)
    sample = np.vstack([np.zeros(4),
                        rng.uniform(lo, hi, size=(8, 4))])
    check_signature(chart, sample)
    return chart


# -- geodesics -----------------------------------------------------------

def _geodesic_rhs(chart: CurvedChart):
    """f(stage, (x, u)) = (u, -Gamma(x) u u) for rk4_step."""
    def f(stage, y):
        x, u = y
        return u, -np.einsum("abc,b,c->a", chart.connection(x), u, u)
    return f


def geodesic_shoot(chart: CurvedChart, p, v, s_end: float = 1.0,
                   steps: int = 200) -> GeodesicPath:
    """Integrate the geodesic from (p, v) to affine parameter s_end.

    Classical RK4 with fixed step.  Raises GeometryError as soon as a
    step lands outside the chart box, reporting the exit point.
    """
    p = np.asarray(p, dtype=float).reshape(4)
    v = np.asarray(v, dtype=float).reshape(4)
    if steps < 1:
        raise ValueError("steps must be positive")
    chart.require_inside(p, "geodesic start")
    h = s_end / steps
    xs = np.empty((steps + 1, 4))
    vs = np.empty((steps + 1, 4))
    xs[0], vs[0] = p, v
    rhs = _geodesic_rhs(chart)
    x, u = p.copy(), v.copy()
    for i in range(steps):
        x, u = rk4_step(rhs, (x, u), h)
        if not chart.contains(x):
            raise GeometryError(f"geodesic left the chart domain at "
                                f"s = {(i + 1) * h:.6g}, x = {x}")
        xs[i + 1], vs[i + 1] = x, u
    return GeodesicPath(np.linspace(0.0, s_end, steps + 1), xs, vs, chart)


def _shoot_endpoint(chart: CurvedChart, p, v, s_end: float, steps: int):
    """Endpoints (x, v) of the shoots from the rows of p and v, all (B, 4).

    Conformal charts run the batched kernel; a general metric shoots row
    by row with geodesic_shoot.  A row that leaves the box raises.
    """
    if chart.grad_ln_omega is None:
        paths = [geodesic_shoot(chart, pi, vi, s_end, steps) for pi, vi in zip(p, v)]
        return (np.array([path.x[-1] for path in paths]),
                np.array([path.v[-1] for path in paths]))
    x, u, status = kernels.shoot_endpoint(chart.grad_ln_omega, chart.lo, chart.hi,
                                          p, v, float(s_end), steps)
    if np.any(status):
        i = np.flatnonzero(status)[0]
        raise GeometryError(f"geodesic left the chart domain at "
                            f"s = {status[i] * s_end / steps:.6g}, x = {x[i]}")
    return x, u


def _connect(chart: CurvedChart, p, q, steps: int = 48, tol: float = 1e-13,
             max_iter: int = 60):
    """[0, 1]-affine initial velocities of the geodesics from p to q.

    p and q are (B, 4) rows of point pairs.  Fixed-point iteration with
    the flat-chart endpoint Jacobian: the map v -> x(1; p, v) differs
    from p + v at the size of the connection, so v <- v - (x(1) - q)
    contracts on weakly curved charts.  Every pair iterates on its own:
    it stops once its residual is within tol, and growth of its residual
    halves its step.  A pair that does not converge raises.
    """
    chart.require_inside(p, "connection start")
    chart.require_inside(q, "connection target")
    scale = np.maximum(1.0, np.maximum(np.max(np.abs(p), axis=1),
                                       np.max(np.abs(q), axis=1)))
    v = q - p
    prev = np.full(len(p), math.inf)
    live = np.arange(len(p))
    for _ in range(max_iter):
        x_end, _ = _shoot_endpoint(chart, p[live], v[live], 1.0, steps)
        res = x_end - q[live]
        rn = np.max(np.abs(res), axis=1)
        res[rn > 0.9 * prev[live]] *= 0.5
        prev[live] = rn
        going = ~(rn <= tol * scale[live])
        live, res = live[going], res[going]
        if not live.size:
            return v
        v[live] -= res
    i = live[0]
    raise GeometryError(f"geodesic connection {p[i]} -> {q[i]} (pair {i}) did not "
                        f"converge (residual {prev[i]:.2e})")


def world_function(chart: CurvedChart, p, q, steps: int = 48):
    """World function with the [0, 1] affine convention.

    Gamma(p, q) = g_p(v, v) for the initial velocity v of the geodesic
    reaching q at parameter 1; on the flat chart this is the coordinate
    interval eta(q - p, q - p).  Two points give a float; (B, 4) rows of
    points (either side may be a single point) give a (B,) array, all
    pairs connected together.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    single = p.ndim == 1 and q.ndim == 1
    p, q = np.broadcast_arrays(p.reshape(-1, 4), q.reshape(-1, 4))
    v = _connect(chart, p, q, steps=steps)
    g = np.array([chart.metric(x) for x in p])
    w = np.einsum("ba,bac,bc->b", v, g, v)
    return float(w[0]) if single else w


def world_function_gradient_check(chart: CurvedChart, p, q, h: float,
                                  steps: int = 48) -> float:
    """Residual of the eikonal identity g^{ab} W_{,a} W_{,b} = 4 W.

    The gradient is taken in the second slot by central differences with
    step h; the residual is O(h^2) for smooth charts.
    """
    q = np.asarray(q, dtype=float).reshape(4)
    step = h * np.eye(4)
    w = world_function(chart, p, np.vstack([q, q + step, q - step]), steps=steps)
    grad = (w[1:5] - w[5:]) / (2.0 * h)
    ginv = np.linalg.inv(chart.metric(q))
    return float(grad @ ginv @ grad - 4.0 * w[0])


def null_connect(chart: CurvedChart, p, q, steps: int = 48,
                 null_tol: float = 1e-8):
    """Null geodesic from p to q: initial velocity v (v^0 = 1) and affine t.

    geodesic_shoot(chart, p, v, t) lands on q.  Raises GeometryError when
    the connecting geodesic is not null (spacelike or timelike separation)
    or no connection exists inside the chart.
    """
    p = np.asarray(p, dtype=float).reshape(4)
    q = np.asarray(q, dtype=float).reshape(4)
    v01 = _connect(chart, p[None], q[None], steps=steps)[0]
    gam = float(v01 @ chart.metric(p) @ v01)
    scale = max(float(np.max(np.abs(q - p))), 1e-30) ** 2
    if abs(gam) > null_tol * scale:
        kind = "timelike" if gam > 0 else "spacelike"
        raise GeometryError(f"p and q are {kind}-separated "
                            f"(world function {gam:.3e}); no null geodesic")
    t = float(v01[0])
    if t == 0.0:
        raise GeometryError("degenerate null direction (vanishing chart-time "
                            "component)")
    return v01 / t, t


# -- transport coefficient ------------------------------------------------

def _wf_box(chart: CurvedChart, q, xs, h: float, steps: int):
    """Covariant box of W_q at each row of xs, by FD, as one world-function batch.

    Off-diagonal Hessian entries are evaluated only where the inverse
    metric has support, so diagonal charts cost 9 world functions a point.
    """
    n = len(xs)
    ginv = np.linalg.inv(np.array([chart.metric(x) for x in xs]))
    step = h * np.eye(4)
    # per point: x, x + h e_a, x - h e_a; then 4 corners per mixed entry
    stencil = xs[:, None, :] + np.vstack([np.zeros(4), step, -step])[None]
    mixed = []
    corners = []
    for i, x in enumerate(xs):
        gscale = np.max(np.abs(ginv[i]))
        for a in range(4):
            for b in range(a + 1, 4):
                if abs(ginv[i, a, b]) <= 1e-14 * gscale:
                    continue
                mixed.append((i, a, b))
                corners += [x + step[a] + step[b], x + step[a] - step[b],
                            x - step[a] + step[b], x - step[a] - step[b]]
    pts = np.vstack([stencil.reshape(-1, 4)] + corners)
    w = world_function(chart, q, pts, steps=steps)
    w_stencil = w[:9 * n].reshape(n, 9)
    w0, wp, wm = w_stencil[:, :1], w_stencil[:, 1:5], w_stencil[:, 5:]
    grad = (wp - wm) / (2.0 * h)
    hess = np.zeros((n, 4, 4))
    hess[:, range(4), range(4)] = (wp - 2.0 * w0 + wm) / h ** 2
    for (i, a, b), (pp, pm, mp, mm) in zip(mixed, w[9 * n:].reshape(-1, 4)):
        hess[i, a, b] = hess[i, b, a] = (pp - pm - mp + mm) / (4.0 * h ** 2)
    box = np.empty(n)
    for i, x in enumerate(xs):
        box[i] = (np.einsum("ab,ab->", ginv[i], hess[i])
                  - np.einsum("ab,cab,c->", ginv[i], chart.connection(x), grad[i]))
    return box


def transport_k(chart: CurvedChart, q, p, steps: int = 10, s0: float = 0.05,
                fd_step: Optional[float] = None, shoot_steps: int = 48,
                v01: Optional[np.ndarray] = None):
    """Transport coefficient k_q along the null geodesic from q to p.

    On the connecting geodesic grad W_q reduces to 2 s gdot, so the
    transport equation becomes the scalar ODE

        dk/ds = -(box W_q - 8) k / (4 s),      k(0+) = 1/(2 pi),

    integrated with the geodesic by RK4 from s = s0, where the vertex
    value is imposed (the right side is O(s) there).  The geodesic does
    not depend on k, so it is integrated first and box W_q is evaluated
    at all its RK4 stage points in one batch.  v01, the [0, 1]-affine
    initial velocity of that geodesic, is connected here unless the
    caller already has it (null_connect returns it as v * t).  Returns
    (s_nodes, k_values) covering [s0, 1]; k_values[-1] is k_q(p).
    """
    q = np.asarray(q, dtype=float).reshape(4)
    p = np.asarray(p, dtype=float).reshape(4)
    if v01 is None:
        v01 = _connect(chart, q[None], p[None], steps=shoot_steps)[0]
    if fd_step is None:
        fd_step = 1e-3 * chart.scale
    x, u = _shoot_endpoint(chart, q[None], np.reshape(v01, (1, 4)), s0,
                           max(4, shoot_steps // 8))
    x, u = x[0], u[0]
    h = (1.0 - s0) / steps
    geodesic = _geodesic_rhs(chart)
    stages = []

    def record(stage, y):
        stages.append(y[0])
        return geodesic(stage, y)

    for _ in range(steps):
        x, u = rk4_step(record, (x, u), h)
    box = _wf_box(chart, q, np.array(stages), fd_step, shoot_steps).reshape(steps, 4)
    ds = (0.0, 0.5 * h, 0.5 * h, h)

    s_nodes = np.empty(steps + 1)
    k_vals = np.empty(steps + 1)
    s_nodes[0], k_vals[0] = s0, 1.0 / TWO_PI
    k = 1.0 / TWO_PI
    s = s0
    for i in range(steps):
        def rhs(stage, y):
            return (-(box[i, stage] - 8.0) * y[0] / (4.0 * (s + ds[stage])),)

        k, = rk4_step(rhs, (k,), h)
        s += h
        if not (np.isfinite(k) and k > 0.0):
            raise GeometryError(f"transport coefficient lost positivity at s = {s:.4g}")
        s_nodes[i + 1], k_vals[i + 1] = s, k
    return s_nodes, k_vals


def van_vleck_k(chart: CurvedChart, q, p, h: float = 2e-2,
                steps: int = 48) -> float:
    """k from the van Vleck determinant, independent of the transport ODE.

    Delta = -det(-[W_{,a b'}]/2) / sqrt(-det g_p) sqrt(-det g_q) with the
    mixed Hessian by central differences in both slots, its 64 world
    functions in one batch; k = sqrt(Delta) / (2 pi).  Flat chart:
    Delta = 1 exactly up to rounding.
    """
    p = np.asarray(p, dtype=float).reshape(4)
    q = np.asarray(q, dtype=float).reshape(4)
    step = h * np.eye(4)
    # [a, sign]: q +- h e_a, and p +- h e_b likewise
    qs = np.stack([q + step, q - step], axis=1)
    ps = np.stack([p + step, p - step], axis=1)
    w = world_function(
        chart,
        np.broadcast_to(qs[:, None, :, None], (4, 4, 2, 2, 4)).reshape(-1, 4),
        np.broadcast_to(ps[None, :, None, :], (4, 4, 2, 2, 4)).reshape(-1, 4),
        steps=steps).reshape(4, 4, 2, 2)
    mixed = (w[..., 0, 0] - w[..., 0, 1] - w[..., 1, 0] + w[..., 1, 1]) / (4.0 * h ** 2)
    det_m = np.linalg.det(-0.5 * mixed)
    gp = np.linalg.det(chart.metric(p))
    gq = np.linalg.det(chart.metric(q))
    delta = -det_m / math.sqrt(-gp) / math.sqrt(-gq)
    if delta <= 0.0:
        raise GeometryError(f"van Vleck determinant {delta:.3e} is not positive")
    return math.sqrt(delta) / TWO_PI


def conformal_k(chart: CurvedChart, q, p, quad_n: int = 32) -> float:
    """Closed form of k on a conformally flat chart.

    For g = omega^2 eta and null-separated q, p the van Vleck square
    root is the chord average of omega^2 divided by the endpoint
    factors,

        sqrt(Delta) = (int_0^1 omega^2(q + u (p - q)) du) / (omega_p omega_q),

    which the transport ODE and the mixed-Hessian determinant both
    reproduce; it is exact, symmetric, and 1 on the flat chart.
    """
    if chart.omega is None:
        raise ValueError("conformal_k needs a chart with a conformal factor")
    p = np.asarray(p, dtype=float).reshape(4)
    q = np.asarray(q, dtype=float).reshape(4)
    nodes, weights = np.polynomial.legendre.leggauss(quad_n)
    u = 0.5 * (nodes + 1.0)
    om2 = chart.omega(q + u[:, None] * (p - q)) ** 2
    ibar = 0.5 * float(weights @ om2)
    return ibar / (TWO_PI * chart.omega(p) * chart.omega(q))


# -- parallel frames -------------------------------------------------------

@dataclass
class ParallelFrames:
    """Parallel-transported NP frame along a geodesic.

    l, n (real) and m (complex) hold chart components per sample; o and
    iota are the spin basis of the orthonormal-frame components (for a
    conformal chart the vierbein is omega times the identity), with the
    overall sign fixed by continuity from the previous sample.
    """

    path: GeodesicPath
    l: np.ndarray
    n: np.ndarray
    m: np.ndarray
    o: np.ndarray
    iota: np.ndarray

    def state(self, i: int) -> TransportState:
        frame = NPFrame(self.l[i], self.n[i], self.m[i],
                        self.o[i], self.iota[i])
        return TransportState(self.path.x[i].copy(), self.path.v[i].copy(),
                              frame=frame)

    def product_drift(self) -> float:
        """Max drift of the NP products g(l,n) - 1 and g(m, mbar) + 1."""
        worst = 0.0
        for i, x in enumerate(self.path.x):
            g = self.path.chart.metric(x)
            worst = max(worst,
                        abs(self.l[i] @ g @ self.n[i] - 1.0),
                        abs((self.m[i] @ g @ self.m[i].conj()).real + 1.0),
                        abs(self.l[i] @ g @ self.l[i]),
                        abs(self.n[i] @ g @ self.n[i]))
        return worst


def transport_spin_frame(chart: CurvedChart, p, v, frame: NPFrame,
                         s_end: float = 1.0, steps: int = 400) -> ParallelFrames:
    """Parallel transport an NP frame along the geodesic from (p, v).

    The tetrad legs satisfy the linear transport equation dV/ds =
    -Gamma(x) xdot V integrated jointly with the geodesic; the spin
    basis is re-extracted per sample from the orthonormal-frame
    components and its two-fold sign fixed by continuity.  The input
    frame must be normalized in the chart metric at p.
    """
    p = np.asarray(p, dtype=float).reshape(4)
    v = np.asarray(v, dtype=float).reshape(4)
    g0 = chart.metric(p)
    if abs(frame.l @ g0 @ frame.n - 1.0) > 1e-8:
        raise ValueError("input frame is not normalized in the chart metric "
                         f"(g(l, n) = {frame.l @ g0 @ frame.n})")
    if chart.omega is None:
        raise ValueError("spin-basis extraction needs a conformal chart "
                         "(vierbein = omega * identity)")
    h = s_end / steps
    # legs as a real (4, 4) block: l, n, Re m, Im m
    legs = np.vstack([frame.l.real.astype(float), frame.n.real.astype(float),
                      frame.m.real.astype(float), frame.m.imag.astype(float)])
    xs = np.empty((steps + 1, 4))
    vs = np.empty((steps + 1, 4))
    ls = np.empty((steps + 1, 4))
    ns = np.empty((steps + 1, 4))
    ms = np.empty((steps + 1, 4), dtype=complex)
    xs[0], vs[0] = p, v
    ls[0], ns[0], ms[0] = frame.l, frame.n, frame.m

    def rhs(stage, y):
        x, u, V = y
        gam = chart.connection(x)
        du = -np.einsum("abc,b,c->a", gam, u, u)
        dV = -np.einsum("abc,b,ic->ia", gam, u, V)
        return u, du, dV

    x, u, V = p.copy(), v.copy(), legs.copy()
    for i in range(steps):
        x, u, V = rk4_step(rhs, (x, u, V), h)
        if not chart.contains(x):
            raise GeometryError(f"transport left the chart domain at "
                                f"s = {(i + 1) * h:.6g}, x = {x}")
        xs[i + 1], vs[i + 1] = x, u
        ls[i + 1], ns[i + 1] = V[0], V[1]
        ms[i + 1] = V[2] + 1j * V[3]
    path = GeodesicPath(np.linspace(0.0, s_end, steps + 1), xs, vs, chart)
    os = np.empty((steps + 1, 2), dtype=complex)
    iotas = np.empty((steps + 1, 2), dtype=complex)
    for i in range(steps + 1):
        om = chart.omega(xs[i])
        o_i, iota_i = spin_basis_from_tetrad(om * ls[i], om * ns[i], om * ms[i])
        if i > 0 and (np.vdot(os[i - 1], o_i)).real < 0.0:
            o_i, iota_i = -o_i, -iota_i
        os[i], iotas[i] = o_i, iota_i
    return ParallelFrames(path, ls, ns, ms, os, iotas)
