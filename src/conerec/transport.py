"""Geodesic transport on weakly curved charts.

A chart is a Lorentzian metric given as a callable on a boxed
coordinate domain.  On an RK4 geodesic integrator that can also carry
the geodesic-deviation equations (the Jacobi propagator) this module
builds the two-point machinery the curved reconstructor consumes: null
connection by Newton's method on that propagator, the world function
with the [0, 1] affine convention (its flat value is the coordinate
interval), the transport coefficient k obtained by integrating

    2 <grad W, grad k> + (box W - 8) k = 0,      k -> 1/(2 pi)

along null generators with box W in closed form on the propagator,
and parallel transport of NP frames with a continuity-fixed spin basis.
The van Vleck determinant of differenced world functions and, on
conformal charts, a closed form give k by two independent routes.

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
from .errors import GeometryError
from .frames import NPFrame, spin_basis_from_tetrad
from .spinor import ETA, central_partials, richardson

__all__ = [
    "CurvedChart", "GeodesicPath", "ParallelFrames",
    "make_chart", "check_signature", "christoffel_fd",
    "geodesic_shoot", "NullConnection", "null_connect", "world_function",
    "world_function_gradient_check",
    "transport_k", "van_vleck_k", "conformal_k", "transport_spin_frame",
]

TWO_PI = 2.0 * math.pi
# RK4 steps of one endpoint shoot over the [0, 1] affine range
SHOOT_STEPS = 48


@dataclass
class CurvedChart:
    """Lorentzian metric on the coordinate box [lo, hi]^4.

    metric maps a point to the symmetric 4x4 matrix g_{ab}; christoffel,
    when given, maps a point to Gamma^a_{bc} (first index up), and
    christoffel_grad to partial_d Gamma^a_{bc} as [d, a, b, c]; Richardson
    differences of the metric and of the connection stand in for them.
    omega and grad_ln_omega are set by the registry for conformally flat charts,
    g = omega^2 eta; they take (..., 4) arrays, enable exact shortcuts,
    and give geodesic shoots their acceleration in closed form over all
    rows.  Leave them None for a general metric, whose shoots contract
    the connection one row at a time.
    """

    metric: Callable[[np.ndarray], np.ndarray]
    lo: np.ndarray
    hi: np.ndarray
    christoffel: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "custom"
    omega: Optional[Callable[[np.ndarray], np.ndarray]] = None
    grad_ln_omega: Optional[Callable[[np.ndarray], np.ndarray]] = None
    christoffel_grad: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float).reshape(4)
        self.hi = np.asarray(self.hi, dtype=float).reshape(4)
        if not np.all(self.hi > self.lo):
            raise ValueError("domain box must have hi > lo in every coordinate")

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
        return christoffel_fd(self.metric, x, 1e-3)

    def connection_grad(self, x) -> np.ndarray:
        """partial_d Gamma^a_{bc} at x, indexed [d, a, b, c]."""
        if self.christoffel_grad is not None:
            return self.christoffel_grad(x)
        return richardson(lambda h: central_partials(self.connection, x, h), 2e-3)


@dataclass
class GeodesicPath:
    """RK4 geodesic samples: s (N+1,), x and v (N+1, 4) or, shot from rows, (N+1, B, 4);
    a Jacobi propagator adds jacobi (N+1, 8, 8) = d(x, v) / d(x0, v0) and its work."""

    s: np.ndarray
    x: np.ndarray
    v: np.ndarray
    chart: CurvedChart
    jacobi: Optional[np.ndarray] = None
    work: Optional[dict] = None

    def norm_drift(self) -> float:
        """Max drift of g(v, v) along a one-point path relative to its start value."""
        norms = np.array([v @ self.chart.metric(x) @ v
                          for x, v in zip(self.x, self.v)])
        return float(np.max(np.abs(norms - norms[0])))


def christoffel_fd(metric, x, h: float) -> np.ndarray:
    """Gamma^a_{bc} from Richardson central differences of the metric, O(h^4)."""
    x = np.asarray(x, dtype=float)
    ginv = np.linalg.inv(metric(x))
    dg = richardson(lambda step: central_partials(metric, x, step), 2.0 * h)
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

def _profile(profile: str, width: float, center):
    """Smooth bounded bump on (..., 4) arrays.

    jet(x, order) returns f and its first `order` (at most 2) derivatives,
    (f, grad f, Hessian of f), from one evaluation.
    """
    if not width ** 2 > 0.0:
        raise ValueError(f"profile width {width!r} must be nonzero and not "
                         "so small that its square underflows")
    c = np.asarray(center, dtype=float).reshape(4)
    if profile == "gaussian":
        # (d * d) @ k is -|d|^2 / width^2 over the last axis in one call
        k = np.full(4, -1.0 / width ** 2)

        def jet(x, order=2):
            d = np.asarray(x, dtype=float) - c
            fx = np.exp((d * d) @ k)
            grad = (fx * (-2.0 / width ** 2))[..., None] * d
            if order < 2:
                return (fx, grad)[:order + 1]
            return fx, grad, (grad[..., :, None] * (d * (-2.0 / width ** 2))[..., None, :]
                              + (-2.0 / width ** 2) * fx[..., None, None] * _EYE)
    elif profile == "sine":
        def jet(x, order=2):
            # f is a product of one factor per coordinate (sin, cos, cos, cos),
            # and each derivative differentiates one factor once more
            d = (np.asarray(x, dtype=float) - c) / width
            s, co = np.sin(d), np.cos(d)
            fac = np.concatenate([s[..., :1], co[..., 1:]], axis=-1)
            jets = np.stack([fac, np.concatenate([co[..., :1], -s[..., 1:]], axis=-1),
                             -fac], axis=-2)
            return tuple(np.prod(jets[..., n, np.arange(4)], axis=-1) / width ** m
                         for m, n in enumerate(_DERIVATIVE_ORDERS[:order + 1]))
    else:
        raise ValueError(f"unknown conformal profile {profile!r}")
    return jet


_EYE = np.eye(4)
_ETA_SIGN = np.diag(ETA).copy()
_ONES = np.ones(4)
# [..., m]: how often f, d/dx^i and d^2/dx^i dx^j differentiate factor m
_DERIVATIVE_ORDERS = (0, np.eye(4, dtype=int),
                      np.eye(4, dtype=int)[:, None, :] + np.eye(4, dtype=int)[None, :, :])
# Gamma^a_{bc} = delta^a_b w_c + delta^a_c w_b - eta_{bc} eta^{ad} w_d is
# linear in w = grad ln omega for g = omega^2 eta: [d, abc] multiplies w_d,
# and the Hessian of ln omega in place of w gives partial_d Gamma^a_{bc}
_CONFORMAL_GAMMA = (np.einsum("ab,cd->dabc", _EYE, _EYE) + np.einsum("ac,bd->dabc", _EYE, _EYE)
                    - np.einsum("bc,ad->dabc", ETA, ETA)).reshape(4, 64)


def make_chart(name: str, eps: float = 0.0, profile: str = "gaussian",
               width: float = 2.0, center=(0.0, 0.0, 0.0, 0.0),
               halfwidth: float = 10.0) -> CurvedChart:
    """Build a registered chart: "flat" or "conformal".

    The conformal chart has metric (1 + eps f)^2 eta with f the named
    profile; eps must keep 1 + eps f positive on the whole box.  Both
    carry their connection and its gradient in closed form.
    """
    lo = np.full(4, -halfwidth)
    hi = np.full(4, halfwidth)
    if name == "flat":
        chart = CurvedChart(metric=lambda x: ETA.copy(), lo=lo, hi=hi,
                            christoffel=lambda x: np.zeros((4, 4, 4)),
                            name="flat",
                            omega=lambda x: np.ones(np.shape(x)[:-1])[()],
                            grad_ln_omega=lambda x: np.zeros(np.shape(x)),
                            christoffel_grad=lambda x: np.zeros((4, 4, 4, 4)))
    elif name == "conformal":
        if not -1.0 < eps < 1.0:
            raise ValueError("eps must satisfy |eps| < 1 for a positive factor")
        jet = _profile(profile, width, center)

        def omega(x):
            return 1.0 + eps * jet(x, 0)[0]

        def grad_ln_omega(x):
            fx, grad = jet(x, 1)
            return (eps / (1.0 + eps * fx))[..., None] * grad

        def metric(x):
            return omega(x) ** 2 * ETA

        def christoffel(x):
            return (grad_ln_omega(x) @ _CONFORMAL_GAMMA).reshape(np.shape(x)[:-1] + (4, 4, 4))

        def christoffel_grad(x):
            fx, grad, hess = jet(x)
            w = (eps / (1.0 + eps * fx))[..., None] * grad
            hess_ln = ((eps / (1.0 + eps * fx))[..., None, None] * hess
                       - w[..., :, None] * w[..., None, :])
            return (hess_ln @ _CONFORMAL_GAMMA).reshape(np.shape(x)[:-1] + (4, 4, 4, 4))

        chart = CurvedChart(metric=metric, lo=lo, hi=hi,
                            christoffel=christoffel,
                            name=f"conformal(eps={eps:g}, profile={profile})",
                            omega=omega, grad_ln_omega=grad_ln_omega,
                            christoffel_grad=christoffel_grad)
    else:
        raise ValueError(f"unknown chart {name!r}; registry has 'flat' and 'conformal'")
    rng = np.random.default_rng(0)
    sample = np.vstack([np.zeros(4),
                        rng.uniform(lo, hi, size=(8, 4))])
    check_signature(chart, sample)
    return chart


# -- geodesics -----------------------------------------------------------

def _acceleration(chart: CurvedChart, x, u) -> np.ndarray:
    """Geodesic acceleration -Gamma(x)(u, u) at one point or (B, 4) rows.

    For g = omega^2 eta it is -2 (w.u) u + eta(u, u) eta^{-1} w with
    w = grad ln omega, in closed form over all rows; a chart given by
    callbacks, which take one point, contracts its connection row by row.
    """
    if chart.grad_ln_omega is not None:
        w = chart.grad_ln_omega(x)
        return ((-2.0 * ((w * u) @ _ONES))[..., None] * u
                + ((u * u) @ _ETA_SIGN)[..., None] * _ETA_SIGN * w)
    rows = zip(np.reshape(x, (-1, 4)), np.reshape(u, (-1, 4)))
    return np.reshape([-(chart.connection(xi) @ ui @ ui) for xi, ui in rows], np.shape(u))


def geodesic_shoot(chart: CurvedChart, p, v, s_end: float = 1.0,
                   steps: int = 200, jacobi: bool = False) -> GeodesicPath:
    """Integrate the geodesic from (p, v) to affine parameter s_end.

    p and v are one point (4,) or (B, 4) rows shot together, whose path
    samples x and v are then (steps + 1, B, 4).  Classical RK4 with fixed
    step in kernels.shoot_endpoint.  Raises GeometryError as soon as a
    step lands outside the chart box, reporting the exit point.
    jacobi=True (one point) makes it the Jacobi propagator: the steps also
    carry the geodesic-deviation equations X' = U, U' = -(partial_d Gamma)(v, v) X^d
    - 2 Gamma(v, U) from (X, U) = 1, on connection and connection_grad.
    """
    shape = (-1, 4) if np.ndim(p) == 2 and not jacobi else (4,)
    p = np.asarray(p, dtype=float).reshape(shape)
    v = np.asarray(v, dtype=float).reshape(shape)
    if steps < 1:
        raise ValueError("steps must be positive")
    chart.require_inside(p, "geodesic start")

    def rhs(y):
        x, u = y[0], y[1]
        if not jacobi:
            return u, _acceleration(chart, x, u)
        gu = chart.connection(x) @ u              # [a, b]: Gamma^a_{bc} u^c
        J = y[2]                                  # X stacked over U
        duu = chart.connection_grad(x) @ u @ u    # [d, a]
        return u, -(gu @ u), np.concatenate([J[4:], -(duu.T @ J[:4]) - 2.0 * (gu @ J[4:])])

    y = [p, v, np.eye(8)] if jacobi else [p, v]
    samples = kernels.shoot_endpoint(rhs, chart.contains, y, s_end, steps)
    return GeodesicPath(np.linspace(0.0, s_end, steps + 1), *samples[:2], chart, *samples[2:])


def _work(shoots: int, steps: int, residual: float) -> dict:
    """Counts of a connect that makes one (batched) shoot per iteration."""
    return {"connect_iterations": shoots, "shoots": shoots, "kernel_steps": shoots * steps,
            "worst_connect_residual": residual}


def _connect(chart: CurvedChart, p, q, steps: int = SHOOT_STEPS, max_iter: int = 60,
             v=None, chord=None):
    """[0, 1]-affine initial velocities of the geodesics from p to q.

    p and q are (B, 4) rows of point pairs.  Fixed-point iteration with
    the flat-chart endpoint Jacobian: the map v -> x(1; p, v) differs
    from p + v at the size of the connection, so v <- v - (x(1) - q)
    contracts on weakly curved charts.  v seeds the rows in place of
    q - p, and chord, an inverse endpoint Jacobian, replaces the identity
    in that step.  Every pair iterates on its own:
    it stops once its residual is within 1e-13 of the point scale, and
    growth of its residual halves its step.  A stuck pair raises.
    Returns v and the batch's work counts.
    """
    chart.require_inside(p, "connection start")
    chart.require_inside(q, "connection target")
    scale = np.maximum(1.0, np.maximum(np.max(np.abs(p), axis=1),
                                       np.max(np.abs(q), axis=1)))
    v = q - p if v is None else v
    prev = np.full(len(p), math.inf)
    live = np.arange(len(p))
    for it in range(1, max_iter + 1):
        x_end = geodesic_shoot(chart, p[live], v[live], 1.0, steps).x[-1]
        res = x_end - q[live]
        rn = np.max(np.abs(res), axis=1)
        res[rn > 0.9 * prev[live]] *= 0.5
        prev[live] = rn
        going = ~(rn <= 1e-13 * scale[live])
        live, res = live[going], res[going]
        if not live.size:
            return v, _work(it, steps, float(np.max(prev)))
        v[live] -= res if chord is None else res @ chord.T
    i = live[0]
    raise GeometryError(f"geodesic connection {p[i]} -> {q[i]} (pair {i}) did not "
                        f"converge (residual {prev[i]:.2e})")


def world_function(chart: CurvedChart, p, q, steps: int = SHOOT_STEPS,
                   near: Optional[GeodesicPath] = None, work: Optional[dict] = None):
    """World function with the [0, 1] affine convention.

    Gamma(p, q) = g_p(v, v) for the initial velocity v of the geodesic
    reaching q at parameter 1; on the flat chart this is the coordinate
    interval eta(q - p, q - p).  Two points give a float; (B, 4) rows of
    points (either side may be a single point) give a (B,) array, all
    pairs connected together.  near, the Jacobi propagator of a [0, 1]
    geodesic close to every pair, seeds each connect with v0 + X_v^{-1}
    (dq - X_p dp) and chord step X_v^{-1}; work, a dict, receives the
    batch's work counts.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    single = p.ndim == 1 and q.ndim == 1
    p, q = np.broadcast_arrays(p.reshape(-1, 4), q.reshape(-1, 4))
    v0 = chord = None
    if near is not None:
        x_p, chord = near.jacobi[-1, :4, :4], _solve_xv(near.jacobi[-1], np.eye(4))
        v0 = near.v[0] + (q - near.x[-1] - (p - near.x[0]) @ x_p.T) @ chord.T
    v, counts = _connect(chart, p, q, steps=steps, v=v0, chord=chord)
    if work is not None:
        work.update(counts, world_function_calls=1)
    g = np.array([chart.metric(x) for x in p])
    w = np.einsum("ba,bac,bc->b", v, g, v)
    return float(w[0]) if single else w


def world_function_gradient_check(chart: CurvedChart, p, q, h: float) -> float:
    """Residual of the eikonal identity g^{ab} W_{,a} W_{,b} = 4 W.

    The gradient is taken in the second slot by central differences with
    step h; the residual is O(h^2) for smooth charts.
    """
    q = np.asarray(q, dtype=float).reshape(4)
    step = h * np.eye(4)
    w = world_function(chart, p, np.vstack([q, q + step, q - step]))
    grad = (w[1:5] - w[5:]) / (2.0 * h)
    ginv = np.linalg.inv(chart.metric(q))
    return float(grad @ ginv @ grad - 4.0 * w[0])


def _solve_xv(jacobi, rhs) -> np.ndarray:
    """X_v^{-1} rhs at Jacobi propagator samples; a singular X_v raises."""
    try:
        return np.linalg.solve(jacobi[..., :4, 4:], rhs)
    except np.linalg.LinAlgError:
        raise GeometryError("singular Jacobi propagator: conjugate point on the geodesic") from None


class NullConnection(tuple):
    """null_connect's (v, t); path is the connecting geodesic's Jacobi
    propagator, the Newton connect's work counts in path.work."""

    def __new__(cls, v, t, path):
        pair = super().__new__(cls, (v, t))
        pair.path = path
        return pair


def null_connect(chart: CurvedChart, p, q, steps: int = SHOOT_STEPS) -> NullConnection:
    """Null geodesic from p to q: initial velocity v (v^0 = 1) and affine t.

    geodesic_shoot(chart, p, v, t) lands on q.  Newton's method: each
    iterate is one [0, 1] Jacobi-propagator shoot, stepping
    v <- v - X_v^{-1} (x(1) - q), with _connect's stop and step halving;
    the last shoot is the returned NullConnection's path.
    Raises GeometryError when the connecting geodesic is not null
    (spacelike or timelike separation) or no connection exists inside
    the chart.
    """
    p = np.asarray(p, dtype=float).reshape(4)
    q = np.asarray(q, dtype=float).reshape(4)
    scale = max(1.0, float(np.max(np.abs(p))), float(np.max(np.abs(q))))
    v01, prev = q - p, math.inf
    for it in range(1, 21):
        path = geodesic_shoot(chart, p, v01, 1.0, steps, jacobi=True)
        res = path.x[-1] - q
        rn = float(np.max(np.abs(res)))
        if rn <= 1e-13 * scale:
            break
        res *= 0.5 if rn > 0.9 * prev else 1.0
        prev = rn
        v01 = v01 - _solve_xv(path.jacobi[-1], res)
    else:
        raise GeometryError(f"geodesic connection {p} -> {q} did not converge "
                            f"(residual {prev:.2e})")
    path.work = _work(it, steps, rn)
    gam = float(v01 @ chart.metric(p) @ v01)
    scale = max(float(np.max(np.abs(q - p))), 1e-30) ** 2
    if abs(gam) > 1e-8 * scale:
        kind = "timelike" if gam > 0 else "spacelike"
        raise GeometryError(f"p and q are {kind}-separated "
                            f"(world function {gam:.3e}); no null geodesic")
    t = float(v01[0])
    if t == 0.0:
        raise GeometryError("degenerate null direction (vanishing chart-time "
                            "component)")
    return NullConnection(v01 / t, t, path)


# -- transport coefficient ------------------------------------------------

def _box_w(chart: CurvedChart, path: GeodesicPath) -> np.ndarray:
    """box W_q at the samples of the Jacobi propagator from q, in closed form.

    The [0, 1] geodesic from q to x(s) starts with velocity s v0, so
    partial_a W = 2 s g_ab v^b, and its end velocity moves with x(s) as
    s U_v X_v^{-1}: the covariant Hessian 2 s g_ac (U_v X_v^{-1} + Gamma(v))^c_b
    has trace box W = 2 s (tr(U_v X_v^{-1}) + Gamma^c_{bc} v^b), 8 at s = 0.
    """
    J = path.jacobi[1:]
    gam = np.array([chart.connection(x) for x in path.x[1:]])
    trace = (np.trace(_solve_xv(J, J[:, 4:, 4:]), axis1=1, axis2=2)
             + np.einsum("ncbc,nb->n", gam, path.v[1:]))
    return np.concatenate([[8.0], 2.0 * path.s[1:] * trace])


def transport_k(chart: CurvedChart, q, p, steps: int = 10,
                shoot_steps: int = SHOOT_STEPS,
                propagator: Optional[GeodesicPath] = None):
    """Transport coefficient k_q along the null geodesic from q to p.

    On the connecting geodesic grad W_q reduces to 2 s gdot, so the
    transport equation becomes the scalar ODE

        d ln k/ds = -(box W_q - 8) / (4 s),      k(0) = 1/(2 pi),

    whose right side vanishes at s = 0.  box W_q is closed-form at the
    samples of the geodesic's Jacobi propagator (_box_w); ln k is
    integrated on its grid (4 samples or more), each step by the cubic
    through the four nearest samples, O(h^4).  propagator is
    null_connect(chart, q, p).path, else it is connected here with
    shoot_steps steps.  Returns (s_nodes, k_values) at s = j / steps,
    j = 0..steps, Hermite interpolated between samples: steps sets how
    many nodes are reported, not the accuracy.  k_values[-1] is k_q(p);
    a value that is not finite raises GeometryError.
    """
    path = propagator or null_connect(chart, q, p, steps=shoot_steps).path
    n, h = len(path.s) - 1, path.s[1]
    rate = np.zeros(n + 1)                   # -d ln k / ds
    rate[1:] = (_box_w(chart, path)[1:] - 8.0) / (4.0 * path.s[1:])
    # cubic ghost samples past both ends give every step the same rule
    g = np.concatenate([[4.0 * rate[0] - 6.0 * rate[1] + 4.0 * rate[2] - rate[3]], rate,
                        [4.0 * rate[-1] - 6.0 * rate[-2] + 4.0 * rate[-3] - rate[-4]]])
    big = np.concatenate([[0.0], np.cumsum(h / 24.0 * (13.0 * (g[1:-2] + g[2:-1])
                                                       - g[:-3] - g[3:]))])
    s_nodes = np.linspace(0.0, 1.0, steps + 1)
    i = np.minimum((s_nodes * n).astype(int), n - 1)
    t = s_nodes * n - i
    integral = ((1.0 + 2.0 * t) * (1.0 - t) ** 2 * big[i] + t * (1.0 - t) ** 2 * h * rate[i]
                + t * t * (3.0 - 2.0 * t) * big[i + 1] - t * t * (1.0 - t) * h * rate[i + 1])
    k = np.exp(-integral) / TWO_PI
    if not np.all(np.isfinite(k)):
        raise GeometryError(f"transport coefficient is not finite along {q} -> {p}")
    return s_nodes, k


def van_vleck_k(chart: CurvedChart, q, p, h: float = 2e-2,
                steps: int = SHOOT_STEPS,
                propagator: Optional[GeodesicPath] = None,
                work: Optional[dict] = None) -> float:
    """k from the van Vleck determinant, independent of the transport ODE.

    Delta = -det(-[W_{,a b'}]/2) / sqrt(-det g_p) sqrt(-det g_q) with the
    mixed Hessian by central differences in both slots, its 64 world
    functions in one batch; k = sqrt(Delta) / (2 pi).  Flat chart:
    Delta = 1 exactly up to rounding.  propagator, the Jacobi propagator
    from q to p, seeds the 64 connects; work, a dict, receives their counts.
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
        steps=steps, near=propagator, work=work)
    w = w.reshape(4, 4, 2, 2)
    mixed = (w[..., 0, 0] - w[..., 0, 1] - w[..., 1, 0] + w[..., 1, 1]) / (4.0 * h ** 2)
    det_m = np.linalg.det(-0.5 * mixed)
    gp = np.linalg.det(chart.metric(p))
    gq = np.linalg.det(chart.metric(q))
    delta = -det_m / math.sqrt(-gp) / math.sqrt(-gq)
    if delta <= 0.0:
        raise GeometryError(f"van Vleck determinant {delta:.3e} is not positive")
    return math.sqrt(delta) / TWO_PI


def conformal_k(chart: CurvedChart, q, p) -> float:
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
    nodes, weights = np.polynomial.legendre.leggauss(32)
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

    def product_drift(self) -> float:
        """Max drift of g(l, n) - 1, g(m, mbar) + 1, g(l, l) and g(n, n).

        The chart is conformal, g = omega^2 eta, so the four products at
        every sample come from one batched matrix product.
        """
        g = self.path.chart.omega(self.path.x)[:, None, None] ** 2 * ETA
        legs = np.stack([self.l, self.m, self.l, self.n])[:, :, None, :]
        duals = np.stack([self.n, self.m.conj(), self.l, self.n])[..., None]
        products = (legs @ g @ duals)[..., 0, 0].real
        return float(np.max(np.abs(products - [[1.0], [-1.0], [0.0], [0.0]])))


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
    # legs as a real (4, 4) block: l, n, Re m, Im m
    legs = np.vstack([frame.l.real.astype(float), frame.n.real.astype(float),
                      frame.m.real.astype(float), frame.m.imag.astype(float)])

    def rhs(y):
        x, u, V = y
        gu = chart.connection(x) @ u              # [a, b]: Gamma^a_{bc} u^c
        return u, -(gu @ u), -(V @ gu.T)

    xs, vs, Vs = kernels.shoot_endpoint(rhs, chart.contains, [p, v, legs], s_end, steps)
    ls, ns = Vs[:, 0], Vs[:, 1]
    ms = Vs[:, 2] + 1j * Vs[:, 3]
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
