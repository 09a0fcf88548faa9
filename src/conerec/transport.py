"""Geodesic transport on conformally flat charts.

A chart is the metric g = omega^2 eta, omega = 1 + eps f, on a boxed
coordinate domain, with f a named smooth profile bounded by 1 ("flat"
is eps = 0 with f = 0).  |eps| < 1 keeps omega >= 1 - |eps| > 0, so g
is Lorentzian everywhere, and the factor, its log-gradient and the
metric are closed form.  Every geodesic is shot by the segmented
Chebyshev-Picard kernel of _backend, which also carries the complex-step
derivative of the one acceleration (the Jacobi propagator).  On it
this module builds the two-point machinery of the curved-transport
checks:
- the null connection, the Jacobi propagator of the straight chord,
  whose affine parameter grows with the chord average of omega^2 (null
  geodesics of a conformal metric are straight coordinate lines; only
  their affine parameterization bends);
- the world function with the [0, 1] affine convention (its flat value
  is the coordinate interval) and its closed-form gradient at the start
  point;
- the transport coefficient k = sqrt(Delta) / (2 pi) along null
  generators, Delta the van Vleck determinant read off the propagator's
  X_v block (Liouville's formula integrates the transport equation
  2 <grad W, grad k> + (box W - 8) k = 0 to a determinant);
- parallel transport of NP frames along their own l, legs and spin
  basis in closed form (a rescaling and a null rotation about l).
Two independent routes check k: the van Vleck determinant of the world
function's gradient differenced in the other point (at two steps,
Richardson-extrapolated, with an a-posteriori error estimate), and the
conformal closed form (the chord average of omega^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _backend as kernels
from .errors import GeometryError
from .frames import NPFrame
from .spinor import ETA, to_matrix

__all__ = [
    "CurvedChart", "GeodesicPath", "ParallelFrames", "make_chart",
    "geodesic_shoot", "null_connect", "world_function",
    "transport_k", "van_vleck_k", "conformal_k", "transport_spin_frame",
]

TWO_PI = 2.0 * math.pi
_ETA_SIGN = np.diag(ETA).copy()
_ONES = np.ones(4)
_EYE_BOOL = np.eye(4, dtype=bool)
# the sine profile's one sine factor, along x^0
_FIRST = _EYE_BOOL[0]
# imaginary step of the Jacobi propagator's complex-step derivative: its
# square underflows to 0, so the real part is the undisturbed value
_STEP = 1e-200
# unit roundoff: a shoot's endpoint is rounded at this scale of the points
_ULP = np.finfo(float).eps
# Gauss-Legendre rule of CurvedChart.chord_mean, nodes mapped to [0, 1]
_CHORD_NODES, _CHORD_WEIGHTS = np.polynomial.legendre.leggauss(32)
_CHORD_U = 0.5 * (_CHORD_NODES + 1.0)


@dataclass
class CurvedChart:
    """The conformally flat metric (1 + eps f)^2 eta on the box [lo, hi]^4.

    jet(x, order) returns (f,) or, for order 1, (f, grad f) of the profile
    at (..., 4) points, |f| <= 1; the Jacobi propagator differentiates it by
    a complex step, so it must be complex-analytic in x (no abs or conj).
    Every quantity below is closed form in eps and the jet, on (..., 4)
    arrays, but the chord mean, a fixed quadrature of omega^2.
    """

    jet: Callable
    eps: float
    lo: np.ndarray
    hi: np.ndarray

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

    def omega(self, x):
        """The conformal factor 1 + eps f."""
        return 1.0 + self.eps * self.jet(x, 0)[0]

    def grad_ln_omega(self, x) -> np.ndarray:
        fx, grad = self.jet(x, 1)
        return (self.eps / (1.0 + self.eps * fx))[..., None] * grad

    def metric(self, x) -> np.ndarray:
        """g_{ab} = omega^2 eta_{ab}, [..., a, b]."""
        return (self.omega(x) ** 2)[..., None, None] * ETA

    def chord_mean(self, a, b):
        """I(a, b) = int_0^1 omega^2(a + u (b - a)) du, the chord average of
        omega^2 from the point a to b, a point (a float) or (B, 4) rows (a
        (B,) array); a 32-node Gauss-Legendre sum.  null_connect,
        conformal_k and the curved evaluator all read it here."""
        a = np.asarray(a, dtype=float).reshape(4)
        chords = a + _CHORD_U[:, None] * (np.asarray(b, dtype=float) - a)[..., None, :]
        return 0.5 * (self.omega(chords) ** 2 @ _CHORD_WEIGHTS)


@dataclass
class GeodesicPath:
    """Geodesic samples: s (M,), x and v (M, 4) or, shot from rows, (M, B, 4);
    a Jacobi propagator adds jacobi (M, 8, 8) = d(x, v) / d(x0, v0).  A shoot's
    samples are segments of kernels.NODES + 1 Chebyshev-Lobatto nodes sharing
    their ends, and work holds its resolution."""

    s: np.ndarray
    x: np.ndarray
    v: np.ndarray
    chart: CurvedChart
    jacobi: Optional[np.ndarray] = None
    work: Optional[dict] = None


# -- chart registry ------------------------------------------------------

def _flat_jet(x, order):
    """f = 0 and its gradient."""
    shape = np.shape(x)[:-1]
    return (np.zeros(shape)[()], np.zeros(shape + (4,)))[:order + 1]


def _profile(profile: str, width: float, center):
    """Smooth bump on (..., 4) arrays with |f| <= 1, as a CurvedChart jet."""
    if not width ** 2 > 0.0:
        raise ValueError(f"profile width {width!r} must be nonzero and not "
                         "so small that its square underflows")
    c = np.asarray(center, dtype=float).reshape(4)
    if profile == "gaussian":
        # (d * d) @ k is -|d|^2 / width^2 over the last axis in one call
        k = np.full(4, -1.0 / width ** 2)

        def jet(x, order):
            d = np.asarray(x) - c
            fx = np.exp((d * d) @ k)
            return (fx, (fx * (-2.0 / width ** 2))[..., None] * d)[:order + 1]
    elif profile == "sine":
        def jet(x, order):
            # f is a product of one factor per coordinate (sin, cos, cos, cos);
            # d/dx^m turns factor m into der[m]
            d = (np.asarray(x) - c) / width
            s, co = np.sin(d), np.cos(d)
            fac = np.where(_FIRST, s, co)
            fx = np.multiply.reduce(fac, axis=-1)
            if order == 0:
                return (fx,)
            der = np.where(_FIRST, co, -s)
            rows = np.where(_EYE_BOOL, der[..., None, :], fac[..., None, :])
            return fx, np.multiply.reduce(rows, axis=-1) / width
    else:
        raise ValueError(f"unknown conformal profile {profile!r}")
    return jet


def make_chart(name: str, eps: float = 0.0, profile: str = "gaussian",
               width: float = 2.0, center=(0.0, 0.0, 0.0, 0.0),
               halfwidth: float = 10.0) -> CurvedChart:
    """Build a registered chart on the box [-halfwidth, halfwidth]^4:
    "flat", or "conformal" with metric (1 + eps f)^2 eta for the named
    profile f and |eps| < 1."""
    lo = np.full(4, -halfwidth)
    hi = np.full(4, halfwidth)
    if name == "flat":
        return CurvedChart(_flat_jet, 0.0, lo, hi)
    if name == "conformal":
        if not -1.0 < eps < 1.0:
            raise ValueError("eps must satisfy |eps| < 1 for a positive factor")
        return CurvedChart(_profile(profile, width, center), eps, lo, hi)
    raise ValueError(f"unknown chart {name!r}; registry has 'flat' and 'conformal'")


# -- geodesics -----------------------------------------------------------

def _acceleration(chart: CurvedChart, x, u) -> np.ndarray:
    """Geodesic acceleration -Gamma(x)(u, u) at one point or (B, 4) rows:
    -2 (w.u) u + eta(u, u) eta^{-1} w with w = grad ln omega."""
    w = chart.grad_ln_omega(x)
    return ((-2.0 * ((w * u) @ _ONES))[..., None] * u
            + ((u * u) @ _ETA_SIGN)[..., None] * _ETA_SIGN * w)


def geodesic_shoot(chart: CurvedChart, p, v, s_end: float = 1.0,
                   jacobi: bool = False) -> GeodesicPath:
    """Integrate the geodesic from (p, v) to affine parameter s_end.

    p and v are one point (4,) or (B, 4) rows shot together, whose path
    samples x and v are then (M, B, 4).  kernels.shoot_endpoint solves it
    on the packed state (_shoot).  Raises GeometryError for a path that
    leaves the chart box, reporting the exit point, or that it cannot
    resolve.  work holds the shoot's nodes, segments, Picard iterations
    and last Picard update.  jacobi=True (one point) makes it the Jacobi
    propagator: the shoot also carries the geodesic-deviation equations
    X' = U, U' = the derivative of _acceleration along (X, U), from
    (X, U) = 1: its complex step (Squire & Trapp, SIAM Rev. 40, 1998), one
    call on (x, u) and x + ih X, u + ih U.
    """
    rows = np.ndim(p) == 2 and not jacobi
    p = np.asarray(p, dtype=float).reshape(-1 if rows else 1, 4)
    v = np.asarray(v, dtype=float).reshape(-1 if rows else 1, 4)
    chart.require_inside(p, "geodesic start")
    shot = _shoot(chart, p, v, s_end, jacobi)
    y = shot.y if rows else shot.y[:, 0]
    return GeodesicPath(shot.s, y[..., :4], y[..., 4:8], chart,
                        y[:, 8:].reshape(-1, 8, 8) if jacobi else None, work=_work(shot))


def _shoot(chart: CurvedChart, p, v, s_end: float, jacobi: bool = False,
           guess: Optional[kernels.Shoot] = None) -> kernels.Shoot:
    """kernels.shoot_endpoint on the geodesic equations from (B, 4) rows p
    and v.  The packed state holds x and u in columns 0-7 and, with
    jacobi, the propagator's 64 entries d(x, u) / d(x0, u0) row-major
    after them: X stacked over U, a column per perturbation."""

    def rhs(y):
        x, u = y[..., :4], y[..., 4:8]
        if not jacobi:
            # contiguous copies: numpy's loops over 4-wide column views of
            # the state cost more than the copies
            u = np.ascontiguousarray(u)
            return np.concatenate([u, _acceleration(chart, np.ascontiguousarray(x), u)], axis=-1)
        lead = y.shape[:-1]
        J = y[..., 8:].reshape(lead + (8, 8))
        # row 0 is undisturbed, so a non-finite J cannot reach the geodesic
        cols = np.concatenate([np.zeros(lead + (1, 8)), np.swapaxes(J, -1, -2)], axis=-2)
        z = y[..., None, :8] + 1j * _STEP * cols
        a = _acceleration(chart, z[..., :4], z[..., 4:])
        # (X, U)' = (U, the acceleration's derivative): J's rows 4-7 are its
        # entries 32-63, the state's columns 40-71
        da = np.swapaxes(a[..., 1:, :].imag, -1, -2) / _STEP
        return np.concatenate([u, a[..., 0, :].real, y[..., 40:], da.reshape(lead + (32,))],
                              axis=-1)

    y = [p, v, np.eye(8).reshape(1, 64)] if jacobi else [p, v]
    return kernels.shoot_endpoint(rhs, chart.contains, y, s_end, kernels.NODES, guess=guess)


def _work(shot: kernels.Shoot) -> dict:
    """A shoot's resolution: nodes, segments, Picard iterations and last update."""
    return {"nodes": kernels.NODES, "segments": shot.segments,
            "picard_iterations": shot.iterations, "picard_update": shot.update}


def _connect(chart: CurvedChart, p, q, max_iter: int = 60, v=None, chord=None,
             near: Optional[GeodesicPath] = None):
    """[0, 1]-affine initial velocities of the geodesics from p to q.

    p and q are (B, 4) rows of point pairs.  Fixed-point iteration with
    the flat-chart endpoint Jacobian: the map v -> x(1; p, v) differs
    from p + v at the size of the connection, so v <- v - (x(1) - q)
    contracts on weakly curved charts.  v seeds the rows in place of
    q - p, and chord, an inverse endpoint Jacobian, replaces the identity
    in that step.  Every pair iterates on its own:
    it stops once its residual is within 1e-13 of the point scale, and
    growth of its residual halves its step.  A stuck pair raises.
    Each shoot after the first starts its Picard iteration from the
    previous one's packed samples.  near, the Jacobi propagator J(s) of a
    [0, 1] geodesic close to every pair, moves those samples to first
    order: the first shoot starts from near's samples plus J(s)
    (p - near.x[0], v - near.v[0]) on near's segments, and each later one
    from the previous samples plus J(s)[:, 4:] times its velocity step,
    where its segments are still near's.  Returns v and the batch's work
    counts: the last shoot's resolution, Picard iterations summed.
    """
    chart.require_inside(p, "connection start")
    chart.require_inside(q, "connection target")
    scale = np.maximum(1.0, np.maximum(np.max(np.abs(p), axis=1),
                                       np.max(np.abs(q), axis=1)))
    v = q - p if v is None else v
    prev = np.full(len(p), math.inf)
    live = np.arange(len(p))
    iterations, guess = 0, None
    if near is not None:
        jacobi = near.jacobi.reshape(-1, 8)

        def moved(y, delta):
            """Packed samples y (M, B, 8) on near's segments moved by J(s)
            delta, as a guess; delta is (B, 8) over (p, v) or (B, 4) over v."""
            shift = (jacobi[:, 8 - delta.shape[1]:] @ delta.T).reshape(len(near.s), 8, -1)
            return kernels.Shoot(near.s, y + shift.transpose(0, 2, 1), 0, 0.0)

        guess = moved(np.concatenate([near.x, near.v], axis=1)[:, None],
                      np.concatenate([p - near.x[0], v - near.v[0]], axis=1))
    for it in range(1, max_iter + 1):
        shot = _shoot(chart, p[live], v[live], 1.0, guess=guess)
        iterations += shot.iterations
        res = shot.y[-1, :, :4] - q[live]
        rn = np.max(np.abs(res), axis=1)
        res[rn > 0.9 * prev[live]] *= 0.5
        prev[live] = rn
        going = ~(rn <= 1e-13 * scale[live])
        live, res = live[going], res[going]
        if not live.size:
            return v, {"connect_iterations": it, "shoots": it, **_work(shot),
                       "picard_iterations": iterations,
                       "worst_connect_residual": float(np.max(prev))}
        step = res if chord is None else res @ chord.T
        v[live] -= step
        if near is not None and np.array_equal(shot.s, near.s):
            guess = moved(shot.y[:, going], -step)
        else:
            guess = kernels.Shoot(shot.s, shot.y[:, going], 0, 0.0)
    i = live[0]
    raise GeometryError(f"geodesic connection {p[i]} -> {q[i]} (pair {i}) did not "
                        f"converge (residual {prev[i]:.2e})")


def world_function(chart: CurvedChart, p, q, near: Optional[GeodesicPath] = None,
                   work: Optional[dict] = None):
    """World function with the [0, 1] affine convention, and its gradient at p.

    Gamma(p, q) = g_p(v, v) = omega(p)^2 eta(v, v) for the initial
    velocity v of the geodesic reaching q at parameter 1; on the flat
    chart this is the coordinate interval eta(q - p, q - p).  The gradient
    at the first point is closed form from the same v: Synge's sigma_a =
    -g_ab v^b, so dGamma/dp^a = -2 omega(p)^2 eta_ab v^b (Poisson, Pound &
    Vega, Living Rev. Relativ. 14, 7, 2011, sec. 3).  Returns
    (Gamma, dGamma/dp): two points give a float and a (4,) array; (B, 4)
    rows of points (either side may be a single point) give (B,) and
    (B, 4), all pairs connected together.  near, the Jacobi propagator of
    a [0, 1] geodesic close to every pair, seeds each connect with
    v0 + X_v^{-1} (dq - X_p dp) and chord step X_v^{-1}, and each of its
    shoots with near's samples moved by J(s) (_connect); work, a dict,
    receives the batch's work counts.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    single = p.ndim == 1 and q.ndim == 1
    p, q = np.broadcast_arrays(p.reshape(-1, 4), q.reshape(-1, 4))
    v0 = chord = None
    if near is not None:
        x_p, chord = near.jacobi[-1, :4, :4], _solve_xv(near.jacobi[-1], np.eye(4))
        v0 = near.v[0] + (q - near.x[-1] - (p - near.x[0]) @ x_p.T) @ chord.T
    v, counts = _connect(chart, p, q, v=v0, chord=chord, near=near)
    if work is not None:
        work.update(counts, world_function_calls=1)
    om2 = chart.omega(p) ** 2
    w = om2 * ((v * v) @ _ETA_SIGN)
    grad = (-2.0 * om2)[:, None] * _ETA_SIGN * v
    return (float(w[0]), grad[0]) if single else (w, grad)


def _solve_xv(jacobi, rhs) -> np.ndarray:
    """X_v^{-1} rhs at Jacobi propagator samples; a singular X_v raises."""
    try:
        return np.linalg.solve(jacobi[..., :4, 4:], rhs)
    except np.linalg.LinAlgError:
        raise GeometryError("singular Jacobi propagator: conjugate point on the geodesic") from None


def null_connect(chart: CurvedChart, p, q) -> GeodesicPath:
    """Null geodesic from p to q on [0, 1], as its Jacobi propagator.

    On g = omega^2 eta the null geodesic is the straight chord
    p + sigma (q - p), and its affine parameter grows as the integral of
    omega^2 d sigma, so the [0, 1] velocity is (q - p) I(p, q) / omega(p)^2
    with I the chord average of omega^2.  Returns the Jacobi-propagator
    shoot with that velocity; its work counts add the landing error
    max|x(1) - q|.  Its v[0][0] is the affine parameter t at which the
    velocity v[0] / t (v^0 = 1) reaches q.  Raises GeometryError when p
    and q are not null-separated (whether they are does not depend on
    omega), the chord has no time extent, or the shoot leaves the chart.
    """
    p = np.asarray(p, dtype=float).reshape(4)
    q = np.asarray(q, dtype=float).reshape(4)
    d = q - p
    gam = float((d * d) @ _ETA_SIGN)
    if abs(gam) > 1e-8 * float(np.max(np.abs(d))) ** 2:
        kind = "timelike" if gam > 0 else "spacelike"
        raise GeometryError(f"p and q are {kind}-separated "
                            f"(coordinate interval {gam:.3e}); no null geodesic")
    v01 = d * (chart.chord_mean(p, q) / chart.omega(p) ** 2)
    if v01[0] == 0.0:
        raise GeometryError("degenerate null direction (vanishing chart-time "
                            "component)")
    path = geodesic_shoot(chart, p, v01, 1.0, jacobi=True)
    path.work = {"shoots": 1, **path.work,
                 "landing_error": float(np.max(np.abs(path.x[-1] - q)))}
    return path


# -- transport coefficient ------------------------------------------------

def transport_k(chart: CurvedChart, q, p, steps: int = 10,
                propagator: Optional[GeodesicPath] = None):
    """Transport coefficient k_q along the null geodesic from q to p.

    k = sqrt(Delta) / (2 pi) with Delta the van Vleck determinant, read
    off the geodesic's Jacobi propagator.  Along the generator the
    transport equation is d ln k/ds = -(box W - 8) / (4 s), and box W
    carries tr(U_v X_v^{-1}) = d ln det X_v / ds (Liouville's formula), so
    it integrates in closed form at every propagator sample (Visser,
    Phys. Rev. D 47, 2395, 1993; Poisson, Pound & Vega, Living Rev.
    Relativ. 14, 7, 2011, sec. 7):

        k = (omega_q / omega_x)^2 / (2 pi sqrt(det(X_v / s))),   k(0) = 1/(2 pi).

    propagator is null_connect(chart, q, p), else it is connected
    here.  Returns (s_nodes, k_values) at s = j / steps, j = 0..steps:
    ln(2 pi k) interpolated within the propagator's segment
    (kernels.interpolate), exact on a sample, so steps sets how many nodes
    are reported, not the accuracy.
    k_values[-1] is k_q(p).  det(X_v / s) <= 0 (a conjugate point) or a
    value that is not finite raises GeometryError.
    """
    path = propagator or null_connect(chart, q, p)
    with np.errstate(invalid="ignore"):       # a non-finite propagator raises below
        det = np.linalg.det(path.jacobi[1:, :4, 4:] / path.s[1:, None, None])
    if np.any(det <= 0.0):
        raise GeometryError("singular Jacobi propagator: conjugate point on the geodesic")
    om = chart.omega(path.x)
    ln_k = np.concatenate([[0.0], 2.0 * np.log(om[0] / om[1:]) - 0.5 * np.log(det)])
    s_nodes = np.linspace(0.0, 1.0, steps + 1)
    k_nodes = np.exp(kernels.interpolate(path.s, ln_k, s_nodes)) / TWO_PI
    if not np.all(np.isfinite(k_nodes)):
        raise GeometryError(f"transport coefficient is not finite along {q} -> {p}")
    return s_nodes, k_nodes


def van_vleck_k(chart: CurvedChart, q, p, h: float = 2e-2,
                propagator: Optional[GeodesicPath] = None,
                work: Optional[dict] = None) -> tuple[float, float]:
    """k from a differenced world-function gradient, independent of transport_k.

    Delta = -det(M) / sqrt(-det g_p) sqrt(-det g_q) with M = -[W_{,a b'}]/2
    and sqrt(-det g) = omega^4.  The gradient in the q slot is closed form
    (world_function returns it), so only the p slot is differenced:
    central differences over p +- h e_b and p +- (h/2) e_b, the 16
    connects from q in one world_function batch.  k = sqrt(Delta) / (2 pi)
    at each step; a Delta that is not positive and finite at either step
    raises GeometryError.  Flat chart: Delta = 1 exactly up to rounding.
    propagator, the Jacobi propagator from q to p, seeds the connects;
    work, a dict, receives their counts.

    Returns (k, error_bound): k the Richardson extrapolation
    (4 k_{h/2} - k_h) / 3, error_bound an a-posteriori estimate of its
    error, valid in the asymptotic regime.  It is |k_{h/2} - k_h| / 3, the
    h/2 value's truncation error while the h^2 term of the differences
    dominates, plus a first-order estimate of the differencing roundoff.
    A connect ends with its endpoint within r of its target, r the worst
    connect residual plus the unit roundoff at the points' scale, so its
    velocity is off by up to ||dv/dp||_inf r.  A column of M at step h_j
    is then off by up to omega_q^2 ||dv/dp||_inf r / h_j, det M by
    sum|M^{-1}| ||M||_inf r / h_j relative (to first order), and k by half
    that; weighted 4/3 and 1/3, the two steps give
    1.5 k sum|M^{-1}| ||M||_inf r / h, with M at h/2.  Outside that
    regime, where h is not small against the profile's width and k_h and
    k_{h/2} may agree by chance, it can read too low.
    """
    p = np.asarray(p, dtype=float).reshape(4)
    q = np.asarray(q, dtype=float).reshape(4)
    # [step, sign, b]: p +- h e_b, then p +- (h/2) e_b
    offsets = np.multiply.outer(np.array([[h, -h], [0.5 * h, -0.5 * h]]), np.eye(4))
    targets = p + offsets
    counts = {} if work is None else work
    _, grad = world_function(chart, q, targets.reshape(-1, 4), near=propagator,
                             work=counts)
    grad = grad.reshape(2, 2, 4, 4)
    # the spacing actually taken, exact in floating point, not 2h rounded
    spacing = np.diagonal(targets[:, 0] - targets[:, 1], axis1=-2, axis2=-1)
    with np.errstate(all="ignore"):           # a non-finite determinant raises below
        # M[step, a, b]: column b is the gradient differenced along e_b
        m = -0.5 * np.swapaxes(grad[:, 0] - grad[:, 1], -1, -2) / spacing[:, None, :]
        delta = -np.linalg.det(m) / (chart.omega(p) * chart.omega(q)) ** 4
    for d in delta:
        if not (math.isfinite(d) and d > 0.0):
            raise GeometryError(f"van Vleck determinant {d:.3e} is not a positive "
                                "finite number")
    k_h, k_half = np.sqrt(delta) / TWO_PI
    k = float(4.0 * k_half - k_h) / 3.0
    scale = max(1.0, float(np.max(np.abs(targets))), float(np.max(np.abs(q))))
    r = counts["worst_connect_residual"] + _ULP * scale
    norms = np.sum(np.abs(np.linalg.inv(m[1]))) * np.max(np.abs(m[1]) @ _ONES)
    return k, float(abs(k_half - k_h) / 3.0 + 1.5 * k * norms * r / h)


def conformal_k(chart: CurvedChart, q, p):
    """Closed form of k from q to p, a point (a float) or (B, 4) rows.

    For g = omega^2 eta and null-separated q, p the van Vleck square
    root is the chord average of omega^2 divided by the endpoint
    factors,

        sqrt(Delta) = I(q, p) / (omega_p omega_q),

    which transport_k and the mixed-Hessian determinant both reproduce;
    it is symmetric and 1 on the flat chart.  I is chart.chord_mean's 32-node
    rule: at roundoff while the chord spans a few profile widths, but up
    to ~1e-2 off when it spans many (a narrow profile on a long chord).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float).reshape(4)
    k = chart.chord_mean(q, p) / (TWO_PI * chart.omega(p) * chart.omega(q))
    return float(k) if p.ndim == 1 else k


# -- parallel frames -------------------------------------------------------

@dataclass
class ParallelFrames:
    """Parallel-transported NP frame along a geodesic.

    l, n (real) and m (complex) hold chart components per sample; o and
    iota are the spin basis of the orthonormal-frame components (the
    vierbein of omega^2 eta is omega times the identity), the one at
    the start scaled and null-rotated with the legs.
    """

    path: GeodesicPath
    l: np.ndarray
    n: np.ndarray
    m: np.ndarray
    o: np.ndarray
    iota: np.ndarray

    def product_drift(self) -> float:
        """Max drift of g(l, n) - 1, g(m, mbar) + 1, g(l, l) and g(n, n).

        With g = omega^2 eta the four products at every sample come from
        one batched matrix product.
        """
        g = self.path.chart.metric(self.path.x)
        legs = np.stack([self.l, self.m, self.l, self.n])[:, :, None, :]
        duals = np.stack([self.n, self.m.conj(), self.l, self.n])[..., None]
        products = (legs @ g @ duals)[..., 0, 0].real
        return float(np.max(np.abs(products - [[1.0], [-1.0], [0.0], [0.0]])))


def transport_spin_frame(chart: CurvedChart, p, v, frame: NPFrame,
                         s_end: float = 1.0, steps: int = 400) -> ParallelFrames:
    """Parallel transport an NP frame along its own l from p, in closed form.

    v must be c l_p with c != 0, and the frame normalized in the chart
    metric at p (else ValueError).  Along that chord U = omega V obeys
    dU/ds = -(w.U) xdot for l and m, so l rescales and m null-rotates
    about l (Penrose & Rindler vol. 1, sec. 5.6).  One Chebyshev-Picard
    shoot carries dx/ds = r^2 v and dE/ds = r^2 eps grad f . (omega_p m_p),
    r = omega_p / omega, E as two real columns, and its steps + 1 uniform
    samples are interpolated within their segments, all columns in one
    call; the path's work holds the shoot's resolution.  With
    mu = -c E r / omega_p^2, l = r^2 l_p, m = r (m_p + mu l_p),
    n = n_p + 2 Re(conj(mu) m_p) + |mu|^2 l_p, and the spin basis of (omega l, omega n, omega m) is sqrt(r) o_p and
    (iota_p + conj(mu) o_p) / sqrt(r), with (o_p, iota_p) = sqrt(omega_p)
    (frame.o, frame.iota), the frame's own basis in orthonormal components
    (its sign is the frame's; ValueError unless o_p conj(o_p) is omega_p l_p).
    """
    p = np.asarray(p, dtype=float).reshape(4)
    v = np.asarray(v, dtype=float).reshape(4)
    l_p, n_p, m_p = frame.l.real, frame.n.real, np.asarray(frame.m, dtype=complex)
    g0 = chart.metric(p)
    ln = l_p @ g0 @ n_p
    if abs(ln - 1.0) > 1e-8:
        raise ValueError(f"input frame is not normalized in the chart metric (g(l, n) = {ln})")
    c = float(v @ g0 @ n_p / ln)
    if not np.max(np.abs(v - c * l_p)) <= 1e-12 * np.max(np.abs(v)) or c == 0.0:
        raise ValueError(f"v = {v} is not a nonzero multiple of the frame's l")
    om_p = float(chart.omega(p))
    o_p = math.sqrt(om_p) * np.asarray(frame.o, dtype=complex)
    iota_p = math.sqrt(om_p) * np.asarray(frame.iota, dtype=complex)
    dev = np.max(np.abs(to_matrix(om_p * l_p) - np.outer(o_p, o_p.conj())))
    if not dev <= 1e-10 * max(1.0, om_p * np.max(np.abs(l_p))):
        raise ValueError(f"the frame's o does not give back its l: o obar misses it by {dev:.2e}")
    m_eps = (chart.eps * om_p) * m_p
    # E's real and imaginary parts are the state's columns 4 and 5
    m_cols = np.stack([m_eps.real, m_eps.imag], axis=1)

    def rhs(y):
        fx, grad = chart.jet(y[..., :4], 1)
        r2 = ((om_p / (1.0 + chart.eps * fx)) ** 2)[..., None]
        return np.concatenate([r2 * v, r2 * (grad @ m_cols)], axis=-1)

    shot = kernels.shoot_endpoint(rhs, chart.contains, [p[None], np.zeros((1, 2))], s_end,
                                  kernels.NODES)
    s = np.linspace(0.0, s_end, steps + 1)
    ys = kernels.interpolate(shot.s, shot.y[:, 0], s)
    xs, es = ys[:, :4], ys[:, 4] + 1j * ys[:, 5]
    r = om_p / chart.omega(xs)[:, None]
    mu = (-c / om_p ** 2) * r * es[:, None]
    ls = r ** 2 * l_p
    ns = n_p + 2.0 * (mu.conj() * m_p).real + abs(mu) ** 2 * l_p
    path = GeodesicPath(s, xs, c * ls, chart, work=_work(shot))
    return ParallelFrames(path, ls, ns, r * (m_p + mu * l_p),
                          np.sqrt(r) * o_p, (iota_p + mu.conj() * o_p) / np.sqrt(r))
