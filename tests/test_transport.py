"""Geodesic transport: charts, geodesics, world function, k, frames."""

import functools
import math

import numpy as np
import pytest

from conerec import _backend
from conerec import transport as tr
from conerec.cone import spin_basis_field
from conerec.errors import GeometryError
from conerec.frames import NPFrame, frame_from_spin_basis
from conerec.spinor import ETA, central_partials

from _reference import (christoffel, norm_drift, richardson, rk4_shoot, rk4_step,
                        spin_basis_from_tetrad, world_function_gradient_check)

P = np.array([0.2, 0.1, -0.3, 0.4])
OMEGA_DIR = np.array([1.0, 0.3, 0.5, math.sqrt(1.0 - 0.34)])
INV_2PI = 1.0 / (2.0 * math.pi)
_FIRST_AXIS = np.eye(4)[0]


def _flat_frame(theta=0.4, phi=1.1):
    o_up, i_up = spin_basis_field(np.array([theta]), np.array([phi]),
                                  np.array([False]))
    return frame_from_spin_basis(o_up[0], i_up[0])


def _chart_frame(chart, x, base):
    """Rescale an eta frame to the conformal chart metric at x."""
    om = chart.omega(x)
    return NPFrame(base.l / om, base.n / om, base.m / om,
                   base.o / math.sqrt(om), base.iota / math.sqrt(om))


# -- registry ---------------------------------------------------------------

def test_registry_flat_chart():
    chart = tr.make_chart("flat")
    x = np.array([1.0, 2.0, -3.0, 0.5])
    assert np.array_equal(chart.metric(x), np.diag([1.0, -1.0, -1.0, -1.0]))
    assert np.array_equal(chart.grad_ln_omega(x), np.zeros(4))
    assert chart.contains(x)
    assert not chart.contains(np.array([11.0, 0.0, 0.0, 0.0]))


def test_contains_tests_each_row():
    chart = tr.make_chart("flat", halfwidth=1.0)
    pts = np.array([[0.0, 0.0, 0.0, 0.0], [1.5, 0.0, 0.0, 0.0],
                    [0.0, 0.0, -1.0, 0.5], [np.nan, 0.0, 0.0, 0.0]])
    assert chart.contains(pts).tolist() == [True, False, True, False]
    assert chart.contains(pts.reshape(2, 2, 4)).tolist() == [[True, False],
                                                             [True, False]]
    assert chart.contains(pts[2]) is True and chart.contains(pts[3]) is False


def test_registry_conformal_chart():
    chart = tr.make_chart("conformal", eps=1e-2, profile="gaussian", width=2.0)
    g = chart.metric(np.zeros(4))
    assert abs(g[0, 0] - (1.0 + 1e-2) ** 2) < 1e-15
    assert np.array_equal(g, g[0, 0] * ETA)


@pytest.mark.parametrize("profile", ["gaussian", "sine"])
@pytest.mark.parametrize("eps", [0.999, -0.999])
def test_conformal_factor_stays_positive_and_metric_lorentzian(profile, eps):
    # |f| <= 1 on both profiles, so omega = 1 + eps f >= 1 - |eps| and
    # g = omega^2 eta has signature (+, -, -, -) on the whole box
    rng = np.random.default_rng(11)
    for width, center in [(0.3, (0.0, 0.0, 0.0, 0.0)), (2.0, (1.0, -2.0, 0.5, 3.0)),
                          (7.0, (-4.0, 4.0, -4.0, 4.0))]:
        chart = tr.make_chart("conformal", eps=eps, profile=profile, width=width,
                              center=center)
        x = np.vstack([np.array(center), rng.uniform(chart.lo, chart.hi, (200, 4))])
        om = chart.omega(x)
        assert np.all(om >= 1.0 - abs(eps) - 1e-15) and np.all(om > 0.0)
        assert np.array_equal(chart.metric(x), om[:, None, None] ** 2 * ETA)
        assert chart.metric(x[0]).shape == (4, 4)


def test_registry_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown chart"):
        tr.make_chart("schwarzschild")
    with pytest.raises(ValueError, match="unknown conformal profile"):
        tr.make_chart("conformal", eps=1e-3, profile="torus")
    with pytest.raises(ValueError, match="eps"):
        tr.make_chart("conformal", eps=1.5)


def _christoffel_fd(metric, x, h):
    """Gamma^a_{bc} from Richardson central differences of the metric, O(h^4)."""
    dg = richardson(lambda step: central_partials(metric, x, step), 2.0 * h)
    # Gamma_{dbc} = (g_{db,c} + g_{dc,b} - g_{bc,d}) / 2
    low = 0.5 * (np.einsum("cdb->dbc", dg) + np.einsum("bdc->dbc", dg) - dg)
    return np.einsum("ad,dbc->abc", np.linalg.inv(metric(x)), low)


def test_christoffel_fd_matches_analytic_conformal():
    x = np.array([0.3, -0.6, 0.2, 0.9])
    for profile in ("gaussian", "sine"):
        chart = tr.make_chart("conformal", eps=1e-2, profile=profile, width=1.5)
        fd = _christoffel_fd(chart.metric, x, 1e-5)
        exact = christoffel(chart, x)
        assert np.max(np.abs(fd - exact)) < 1e-9
        assert np.max(np.abs(exact - np.swapaxes(exact, 1, 2))) == 0.0
        assert np.max(np.abs(fd - np.swapaxes(fd, 1, 2))) < 1e-12


# -- geodesics --------------------------------------------------------------

def test_rk4_step_is_the_classical_step():
    # dy/ds = -a y over a tuple state: one step multiplies by the degree-4
    # Taylor polynomial of e^{-a h}, with f called once per stage
    seen = []

    def f(y):
        seen.append(y)
        return tuple(-0.7 * yi for yi in y)

    h = 0.1
    y = (np.array([1.0, -2.0]), 3.0)
    got = rk4_step(f, y, h)
    z = -0.7 * h
    growth = 1.0 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24
    assert len(seen) == 4
    assert np.allclose(got[0], growth * y[0], rtol=1e-15, atol=0)
    assert abs(got[1] - growth * y[1]) < 1e-15


def _anywhere(x):
    return np.ones(np.shape(x)[:-1], dtype=bool)


def test_picard_kernel_meets_the_exponential():
    # y' = lambda y on a real and a complex entry: one segment over s 8
    # does not contract (|lambda| s ~ 16), so it is halved until each does,
    # and every sample and every interpolated value is exp(lambda s)
    lam = -0.3 + 2.0j
    shot = _backend.shoot_endpoint(lambda y: [-0.7 * y[0], lam * y[1]], _anywhere,
                                   [np.ones(4), np.array(1.0 + 0j)], 8.0, 16)
    assert shot.segments > 1 and len(shot.s) == 16 * shot.segments + 1
    assert shot.s[0] == 0.0 and shot.s[-1] == 8.0 and np.all(np.diff(shot.s[::16]) > 0)
    assert shot.iterations >= 2 * shot.segments and shot.update <= 1e-15
    assert np.max(np.abs(shot.y[0] - np.exp(-0.7 * shot.s)[:, None])) < 1e-15
    assert np.max(np.abs(shot.y[1] - np.exp(lam * shot.s))) < 1e-15
    at = np.linspace(0.0, 8.0, 101)
    between = _backend.interpolate(shot.s, shot.y[1], at)
    assert np.max(np.abs(between - np.exp(lam * at))) < 1e-15
    # a hit returns the sample itself, also along a decreasing parameter
    assert _backend.interpolate(shot.s, shot.y[1], shot.s[[0, 7, -1]]).tolist() == \
        shot.y[1][[0, 7, -1]].tolist()
    back = _backend.interpolate(-shot.s, shot.y[1], -at)
    assert np.max(np.abs(back - between)) == 0.0


@pytest.mark.parametrize("rhs, check", [
    # stiff: the updates contract only on segments far shorter than 1 / 256
    (lambda y: [-1e6 * y[0], 0.0 * y[1]], "Picard update .* not contracting"),
    # a staircase in s: no polynomial resolves its 1000 jumps
    (lambda y: [np.ones_like(y[0]) * _FIRST_AXIS, np.floor(1000.0 * y[0][..., 0])],
     "Chebyshev tail .* above 1e-14"),
], ids=["stiff", "staircase"])
def test_picard_kernel_cap_names_the_failing_check(rhs, check):
    with pytest.raises(GeometryError, match=r"geodesic not resolved on s in \[.*\] after "
                                            r"256 segments of 16 Chebyshev nodes: " + check):
        _backend.shoot_endpoint(rhs, _anywhere, [np.ones(4), np.array(0.0)], 1.0, 16)


def test_picard_kernel_shoots_its_one_node_count():
    with pytest.raises(ValueError, match="segments of 16 Chebyshev nodes, got 30"):
        _backend.shoot_endpoint(lambda y: y, _anywhere, [np.ones(4)], 1.0, 30)


def test_flat_shoot_is_straight():
    chart = tr.make_chart("flat")
    v = np.array([1.2, 0.3, 0.5, 0.1])
    path = tr.geodesic_shoot(chart, P, v, 2.0)
    expect = P[None, :] + path.s[:, None] * v[None, :]
    assert np.max(np.abs(path.x - expect)) < 1e-13
    assert np.max(np.abs(path.v - v[None, :])) == 0.0
    assert norm_drift(path) < 1e-14


def test_null_norm_drift_weak_field():
    # null norm conserved to 1e-8 over unit affine length
    chart = tr.make_chart("conformal", eps=1e-2)
    path = tr.geodesic_shoot(chart, P, OMEGA_DIR, 1.0)
    assert norm_drift(path) < 1e-8


def test_conformal_null_image_is_straight():
    # null geodesics of omega^2 eta bend only in parameterization
    chart = tr.make_chart("conformal", eps=1e-2)
    path = tr.geodesic_shoot(chart, P, OMEGA_DIR, 2.0)
    rel = path.x - P[None, :]
    cross = rel[1:] - np.outer(rel[1:, 0], OMEGA_DIR)
    assert np.max(np.abs(cross)) < 1e-12


def test_timelike_deflection_matches_linearized_oracle():
    v0 = np.array([1.2, 0.3, 0.5, 0.1])
    s_end = 2.0
    residual = {}
    for eps in (1e-2, 1e-3):
        chart = tr.make_chart("conformal", eps=eps)
        got = tr.geodesic_shoot(chart, P, v0, s_end).x[-1]

        def lin_rhs(s, dx, dv):
            x0 = P + s * v0
            return dv, -np.einsum("abc,b,c->a", christoffel(chart, x0), v0, v0)

        n = 2000
        h = s_end / n
        dx = np.zeros(4)
        dv = np.zeros(4)
        for i in range(n):
            s = i * h
            k1 = lin_rhs(s, dx, dv)
            k2 = lin_rhs(s + h / 2, dx + h / 2 * k1[0], dv + h / 2 * k1[1])
            k3 = lin_rhs(s + h / 2, dx + h / 2 * k2[0], dv + h / 2 * k2[1])
            k4 = lin_rhs(s + h, dx + h * k3[0], dv + h * k3[1])
            dx = dx + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            dv = dv + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        deflection = np.max(np.abs(dx))
        assert deflection > 0.1 * eps
        residual[eps] = np.max(np.abs(got - (P + s_end * v0 + dx)))
        assert residual[eps] < 3.0 * eps ** 2
    ratio = residual[1e-2] / residual[1e-3]
    assert 70.0 < ratio < 140.0


def test_domain_exit_raises_with_exit_point():
    chart = tr.make_chart("conformal", eps=1e-3)
    with pytest.raises(GeometryError, match="left the chart domain"):
        tr.geodesic_shoot(chart, P, np.array([30.0, 0.0, 0.0, 0.0]), 1.0)
    with pytest.raises(GeometryError, match="outside"):
        tr.geodesic_shoot(chart, np.array([20.0, 0.0, 0.0, 0.0]),
                          np.zeros(4), 1.0)


# -- shoots over (B, 4) rows -------------------------------------------------


def _rows(n, seed=7):
    rng = np.random.default_rng(seed)
    return (P + rng.uniform(-0.3, 0.3, (n, 4)),
            np.array([1.0, 0.3, 0.5, 0.2]) + rng.uniform(-0.2, 0.2, (n, 4)))


def test_backend_reports_the_numpy_kernel():
    assert _backend.BACKEND == "python"
    assert tr.kernels is _backend
    assert callable(tr.kernels.shoot_endpoint)


def test_batched_flat_shoot_exact_on_every_row():
    ps, vs = _rows(5)
    path = tr.geodesic_shoot(tr.make_chart("flat"), ps, vs, 1.7)
    assert path.x.shape == path.v.shape == (tr.kernels.NODES + 1, 5, 4)
    assert np.max(np.abs(path.x[-1] - (ps + 1.7 * vs))) < 1e-14
    assert np.array_equal(path.v[-1], vs)


@pytest.mark.parametrize("profile", ["gaussian", "sine"])
def test_batched_shoot_rows_match_geodesic_shoot(profile):
    chart = tr.make_chart("conformal", eps=1e-2, profile=profile)
    ps, vs = _rows(4)
    rows = tr.geodesic_shoot(chart, ps, vs, 1.7)
    for i in range(4):
        path = tr.geodesic_shoot(chart, ps[i], vs[i], 1.7)
        assert np.array_equal(rows.s, path.s)
        assert np.max(np.abs(rows.x[:, i] - path.x)) < 1e-15
        assert np.max(np.abs(rows.v[:, i] - path.v)) < 1e-15
    # closed-form acceleration against -Gamma(u, u), contracted row by row
    accel = tr._acceleration(chart, ps, vs)
    contracted = [-(christoffel(chart, x) @ u @ u) for x, u in zip(ps, vs)]
    assert np.max(np.abs(accel - contracted)) < 1e-16


def test_batched_shoot_box_exit_status_per_row():
    chart = tr.make_chart("flat", halfwidth=1.0)
    ps = np.zeros((2, 4))
    vs = np.array([[0.1, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    # row 1 leaves at s = 1; the error names its first node past it, the
    # 16-node Lobatto node 1.5 (1 - cos(7 pi / 16))
    first = 1.5 * (1.0 - math.cos(math.pi * 7 / 16))
    with pytest.raises(GeometryError, match=r"left the chart domain at "
                                            rf"s = {first:.6g}, x = \[{first:.8f} 0\. "):
        tr.geodesic_shoot(chart, ps, vs, 3.0)
    assert abs(tr.geodesic_shoot(chart, ps[:1], vs[:1], 3.0).x[-1, 0, 0] - 0.3) < 1e-15


def test_batched_world_function_equals_per_pair_calls():
    chart = tr.make_chart("conformal", eps=1e-2, profile="sine", width=1.5)
    rng = np.random.default_rng(3)
    ps = P + rng.uniform(-0.2, 0.2, (6, 4))
    qs = P + np.array([1.9, 0.4, 0.6, 0.2]) + rng.uniform(-0.2, 0.2, (6, 4))
    batched = tr.world_function(chart, ps, qs)[0]
    assert batched.shape == (6,)
    for i in range(6):
        assert abs(batched[i] - tr.world_function(chart, ps[i], qs[i])[0]) < 1e-13
    # one point against rows broadcasts
    one = tr.world_function(chart, P, qs)[0]
    assert max(abs(one[i] - tr.world_function(chart, P, qs[i])[0])
               for i in range(6)) < 1e-13


# pair 0 lies far from a strong bump and converges at once; pair 1
# crosses it and needs many iterations
STRONG_BUMP = {"eps": 0.3, "width": 1.0}
FAST_SLOW_P = np.array([[8.0, 8.0, 8.0, 8.0], [-1.0, -0.3, 0.2, 0.1]])
FAST_SLOW_Q = np.array([[8.5, 8.1, 8.0, 8.2], [1.0, 0.4, -0.2, 0.3]])


def test_batched_connect_freezes_converged_pairs(monkeypatch):
    chart = tr.make_chart("conformal", **STRONG_BUMP)
    ps, qs = FAST_SLOW_P, FAST_SLOW_Q
    alone = [tr.world_function(chart, ps[i], qs[i])[0] for i in range(2)]
    rows = []
    shoot = tr.kernels.shoot_endpoint

    def counting(rhs, contains, y, s_end, nodes, **kwargs):
        rows.append(len(y[0]))
        return shoot(rhs, contains, y, s_end, nodes, **kwargs)

    monkeypatch.setattr(tr.kernels, "shoot_endpoint", counting)
    both = tr.world_function(chart, ps, qs)[0]
    assert rows[0] == 2 and rows[-1] == 1 and len(rows) > 4
    assert np.max(np.abs(both - alone)) < 1e-13


def test_connect_failure_names_the_pair():
    chart = tr.make_chart("conformal", **STRONG_BUMP)
    with pytest.raises(GeometryError, match=r"\(pair 1\) did not converge "
                                            r"\(residual [0-9.]+e-0\d\)"):
        tr._connect(chart, FAST_SLOW_P, FAST_SLOW_Q, max_iter=3)


# -- null connection and world function -------------------------------------

def test_null_connect_flat_exact():
    chart = tr.make_chart("flat")
    q = P + 1.3 * OMEGA_DIR
    path = tr.null_connect(chart, P, q)
    t = path.v[0][0]
    v = path.v[0] / t
    assert np.max(np.abs(v - OMEGA_DIR)) < 1e-14
    assert abs(t - 1.3) < 1e-14


def test_null_connect_weak_field_lands():
    chart = tr.make_chart("conformal", eps=1e-3)
    q = P + 1.3 * OMEGA_DIR
    conn = tr.null_connect(chart, P, q)
    t = conn.v[0][0]
    v = conn.v[0] / t
    path = tr.geodesic_shoot(chart, P, v, t)
    assert np.max(np.abs(path.x[-1] - q)) < 1e-8
    g = chart.metric(P)
    assert abs(v @ g @ v) < 1e-8


def test_null_connect_rejects_non_null_pairs():
    chart = tr.make_chart("flat")
    with pytest.raises(GeometryError, match="spacelike"):
        tr.null_connect(chart, P, P + np.array([0.1, 1.0, 0.0, 0.0]))
    with pytest.raises(GeometryError, match="timelike"):
        tr.null_connect(chart, P, P + np.array([1.0, 0.1, 0.0, 0.0]))


def test_world_function_flat_is_coordinate_interval():
    chart = tr.make_chart("flat")
    rng = np.random.default_rng(20260816)
    for _ in range(5):
        a = rng.uniform(-1.0, 1.0, size=4)
        b = rng.uniform(-1.0, 1.0, size=4)
        d = b - a
        interval = d[0] ** 2 - d[1] ** 2 - d[2] ** 2 - d[3] ** 2
        assert abs(tr.world_function(chart, a, b)[0] - interval) < 1e-13


def test_world_function_null_pair_vanishes():
    q = P + 1.3 * OMEGA_DIR
    for chart in (tr.make_chart("flat"), tr.make_chart("conformal", eps=1e-3)):
        assert abs(tr.world_function(chart, P, q)[0]) < 1e-8


def test_world_function_symmetry_weak_field():
    chart = tr.make_chart("conformal", eps=1e-2)
    q = P + np.array([1.9, 0.4, 0.6, 0.2])
    assert abs(tr.world_function(chart, P, q)[0]
               - tr.world_function(chart, q, P)[0]) < 1e-8


def test_world_function_eikonal_identity_second_order():
    # g^{ab} W_,a W_,b = 4 W with an O(h^2) FD residual
    chart = tr.make_chart("conformal", eps=1e-2)
    q = P + np.array([1.9, 0.4, 0.6, 0.2])
    r1 = abs(world_function_gradient_check(chart, P, q, h=2e-2))
    r2 = abs(world_function_gradient_check(chart, P, q, h=1e-2))
    assert r1 < 1e-4
    assert 3.0 < r1 / r2 < 5.0


def test_connection_target_outside_box_raises():
    chart = tr.make_chart("flat")
    with pytest.raises(GeometryError, match="outside"):
        tr.world_function(chart, P, np.array([12.0, 0.0, 0.0, 0.0]))


# -- transport coefficient ---------------------------------------------------

def test_transport_k_flat_constant():
    chart = tr.make_chart("flat")
    q = P + 1.3 * OMEGA_DIR
    s, k = tr.transport_k(chart, q, P, steps=8)
    assert np.max(np.abs(k - INV_2PI)) < 1e-8
    assert np.all(k > 0.0)


def test_transport_k_weak_field_linear_scaling():
    q = P + 1.3 * OMEGA_DIR
    dev = {}
    for eps in (1e-3, 1e-4):
        chart = tr.make_chart("conformal", eps=eps)
        _, k = tr.transport_k(chart, q, P, steps=6)
        assert np.all(np.isfinite(k)) and np.all(k > 0.0)
        dev[eps] = k[-1] - INV_2PI
        assert abs(dev[eps]) > 1e-3 * eps * INV_2PI
    ratio = dev[1e-3] / dev[1e-4]
    assert 8.0 < ratio < 12.0


def test_transport_k_matches_conformal_closed_form():
    chart = tr.make_chart("conformal", eps=1e-3)
    q = P + 1.3 * OMEGA_DIR
    _, k = tr.transport_k(chart, q, P, steps=6)
    kcf = tr.conformal_k(chart, q, P)
    dev = abs(kcf - INV_2PI)
    assert abs(k[-1] - kcf) < 0.05 * dev


def test_transport_k_evaluates_no_world_function(monkeypatch):
    # k is read off the Jacobi propagator's X_v block, so no world function
    # is evaluated; on the flat chart X_v = s 1 and k stays 1/(2 pi)
    chart = tr.make_chart("flat")
    q = P + 1.3 * OMEGA_DIR
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        raise AssertionError("transport_k evaluated a world function")

    monkeypatch.setattr(tr, "world_function", recording)
    _, k = tr.transport_k(chart, q, P, steps=1)
    assert calls == []
    assert np.max(np.abs(k - INV_2PI)) < 1e-8


# -- Jacobi propagator --------------------------------------------------------

WORKLOAD_P = np.array([0.1, 0.25, -0.15, 0.2])
# the benchmark's ray: a null direction with spatial part along (0.3, 0.5, 0.8)
WORKLOAD_DIR = np.concatenate([[1.0], np.array([0.3, 0.5, 0.8]) / math.sqrt(0.98)])


def _ray_propagator(chart, length=1.1):
    q = WORKLOAD_P + length * WORKLOAD_DIR
    return q, tr.null_connect(chart, q, WORKLOAD_P)


@pytest.mark.parametrize("profile", ["gaussian", "sine"])
def test_complex_step_acceleration_matches_differenced_acceleration(profile):
    chart = tr.make_chart("conformal", eps=1e-2, profile=profile, width=1.5,
                          center=(0.1, 0.2, -0.1, 0.3))
    y = np.array([0.3, -0.6, 0.2, 0.9, 1.2, 0.3, -0.5, 0.1])

    def differenced(h):
        accel = [tr._acceleration(chart, z[:, :4], z[:, 4:])
                 for z in (y + h * np.eye(8), y - h * np.eye(8))]
        return ((accel[0] - accel[1]) / (2.0 * h)).T

    # row k steps y by i h e_k, as the propagator's rows step along its columns
    z = y + 1j * tr._STEP * np.eye(8)
    a = tr._acceleration(chart, z[:, :4], z[:, 4:])
    assert np.max(np.abs(a.imag.T / tr._STEP - richardson(differenced, 2e-3))) < 1e-12
    # h^2 underflows, so every row's real part is the undisturbed acceleration
    assert np.max(np.abs(a.real - tr._acceleration(chart, y[:4], y[4:]))) < 1e-17


def _central_christoffel(chart, x, h):
    """spinor.central_partials of the reference Gamma, its 8 points in one call."""
    gamma = christoffel(chart, x + np.concatenate([h * np.eye(4), -h * np.eye(4)]))
    return (gamma[:4] - gamma[4:]) / (2.0 * h)


def _tensor_propagator(chart, p, v, steps):
    """The Jacobi propagator on the Christoffel symbols: X' = U,
    U' = -(partial_d Gamma)(v, v) X^d - 2 Gamma(v, U), with partial_d Gamma
    by Richardson differences of the reference Gamma, by RK4."""

    def rhs(y):
        x, u, J = y
        gu = christoffel(chart, x) @ u
        dgamma = richardson(lambda h: _central_christoffel(chart, x, h), 2e-3)
        duu = dgamma @ u @ u
        return u, -(gu @ u), np.concatenate([J[4:], -(duu.T @ J[:4]) - 2.0 * (gu @ J[4:])])

    return rk4_shoot(rhs, [p, v, np.eye(8)], 1.0, steps)


@pytest.mark.parametrize("width", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("eps", [1e-2, 0.3, 0.9])
@pytest.mark.parametrize("profile", ["gaussian", "sine"])
def test_jacobi_propagator_meets_the_tensor_propagator(profile, eps, width):
    # every point of a uniform grid, the propagator interpolated within its
    # segments, against RK4 at N and 2N steps extrapolated past its h^4
    # error: N = 1000 on the Christoffel geodesic for x, 192 on the tensor
    # propagator for J
    chart = tr.make_chart("conformal", eps=eps, profile=profile, width=width)
    q, prop = _ray_propagator(chart)

    def geodesic(steps):
        def rhs(y):
            x, u = y
            return u, -(christoffel(chart, x) @ u @ u)
        return rk4_shoot(rhs, [q, prop.v[0]], 1.0, steps)[0]

    def extrapolated(shoot, steps):
        coarse, fine = shoot(steps), shoot(2 * steps)[::2]
        return fine + (fine - coarse) / 15.0

    xs = extrapolated(geodesic, 1000)
    js = extrapolated(lambda n: _tensor_propagator(chart, q, prop.v[0], n)[2], 192)
    x_at = tr.kernels.interpolate(prop.s, prop.x, np.linspace(0.0, 1.0, 1001))
    j_at = tr.kernels.interpolate(prop.s, prop.jacobi, np.linspace(0.0, 1.0, 193))
    assert np.max(np.abs(x_at - xs)) <= 1e-14
    assert np.max(np.abs(j_at - js)) <= 1e-10 * np.max(np.abs(js))


# the rays of the accuracy sweep, as (p, spatial direction, t): the
# benchmark's, one through P, and a longer one from the other side
SWEEP_RAYS = [(WORKLOAD_P, np.array([0.3, 0.5, 0.8]), 1.1),
              (P, np.array([0.3, 0.5, math.sqrt(0.66)]), 1.3),
              (np.array([-1.0, -0.6, 0.3, -0.5]), np.array([0.6, -0.3, 0.5]), 2.0)]


@functools.cache
def _sweep_propagator(profile, eps, width, ray):
    """(chart, p, q, null_connect(chart, q, p)) of SWEEP_RAYS[ray] on the
    sweep chart; shared by the sweep tests, which only read it."""
    chart = tr.make_chart("conformal", eps=eps, profile=profile, width=width)
    p, d, t = SWEEP_RAYS[ray]
    q = p + t * np.concatenate([[1.0], d / np.linalg.norm(d)])
    return chart, p, q, tr.null_connect(chart, q, p)


def _rk4_propagator(chart, q, v, steps):
    """Endpoint x and J of RK4 on the propagator's own complex-step equations."""

    def rhs(y):
        x, u, J = y
        z = np.concatenate([x, u]) + 1j * tr._STEP * np.vstack([np.zeros(8), J.T])
        a = tr._acceleration(chart, z[:, :4], z[:, 4:])
        return u, a[0].real, np.concatenate([J[4:], a[1:].imag.T / tr._STEP])

    xs, _, js = rk4_shoot(rhs, [q, v, np.eye(8)], 1.0, steps)
    return xs[-1], js[-1]


@pytest.mark.parametrize("eps", [1e-2, 0.1, 0.3, 0.5, 0.9])
@pytest.mark.parametrize("profile", ["gaussian", "sine"])
def test_propagator_is_no_worse_than_rk4_48(profile, eps):
    # endpoint x and J against RK4 at 96 and 192 steps extrapolated past its
    # h^4 error, beside the 48-step RK4 the kernel replaced; every case must
    # connect (no exit 3) on all three widths and rays
    for width in (0.5, 1.0, 2.0):
        for ray in range(len(SWEEP_RAYS)):
            chart, p, q, prop = _sweep_propagator(profile, eps, width, ray)
            coarse, fine = (_rk4_propagator(chart, q, prop.v[0], n) for n in (96, 192))
            x_ref, j_ref = (b + (b - a) / 15.0 for a, b in zip(coarse, fine))
            x_48, j_48 = _rk4_propagator(chart, q, prop.v[0], 48)
            assert np.max(np.abs(prop.x[-1] - x_ref)) <= np.max(np.abs(x_48 - x_ref))
            assert np.max(np.abs(prop.jacobi[-1] - j_ref)) <= np.max(np.abs(j_48 - j_ref))


@pytest.mark.parametrize("width", [0.5, 2.0])
@pytest.mark.parametrize("profile", ["flat", "gaussian", "sine"])
def test_jet_is_complex_analytic(profile, width):
    # the propagator differentiates every jet by a complex step, so the
    # step's imaginary part must carry the jet's own gradient
    center = np.array([0.1, 0.2, -0.1, 0.3])
    chart = (tr.make_chart("flat") if profile == "flat" else
             tr.make_chart("conformal", eps=0.3, profile=profile, width=width, center=center))
    for x in (center + 0.1 * width * np.array([0.3, -0.5, 0.8, 0.2]),
              center + width * np.array([2.5, -1.5, 3.0, 1.0])):
        grad = chart.jet(x, 1)[1]
        stepped = chart.jet(x + 1j * tr._STEP * np.eye(4), 0)[0].imag / tr._STEP
        assert np.max(np.abs(stepped - grad)) <= 1e-14 * max(1.0, np.max(np.abs(grad)))


def test_jacobi_propagator_matches_differenced_shoots():
    chart = tr.make_chart("conformal", eps=1e-2)
    q, prop = _ray_propagator(chart)
    fine = tr.geodesic_shoot(chart, q, prop.v[0], 1.0).x[-1]
    assert np.max(np.abs(fine - WORKLOAD_P)) < 1e-13
    v0, h = prop.v[0], 1e-6
    step = h * np.eye(4)

    def ends(starts, velocities):
        return tr.geodesic_shoot(chart, starts, velocities, 1.0).x[-1]

    same = np.broadcast_to(q, (4, 4))
    vel = np.broadcast_to(v0, (4, 4))
    x_v = (ends(same, v0 + step) - ends(same, v0 - step)).T / (2.0 * h)
    x_p = (ends(q + step, vel) - ends(q - step, vel)).T / (2.0 * h)
    assert np.max(np.abs(prop.jacobi[-1, :4, 4:] - x_v)) < 1e-8
    assert np.max(np.abs(prop.jacobi[-1, :4, :4] - x_p)) < 1e-8


@pytest.mark.parametrize("profile", ["gaussian", "sine"])
@pytest.mark.parametrize("eps", [1e-2, 1e-3])
@pytest.mark.parametrize("k_steps", [1, 10])
def test_transport_k_matches_closed_form_at_every_node(profile, eps, k_steps):
    chart = tr.make_chart("conformal", eps=eps, profile=profile)
    q, prop = _ray_propagator(chart)
    s, k = tr.transport_k(chart, q, WORKLOAD_P, steps=k_steps, propagator=prop)
    assert np.array_equal(s, np.linspace(0.0, 1.0, k_steps + 1))
    assert abs(k[-1] - tr.conformal_k(chart, q, WORKLOAD_P)) < 1e-10
    for sj, kj in zip(s[1:], k[1:]):
        x = tr.geodesic_shoot(chart, q, prop.v[0], sj).x[-1]
        assert abs(kj - tr.conformal_k(chart, q, x)) < 1e-10


# composite Gauss-Legendre rule on [0, 1]: 200 panels of 20 nodes
_PANEL_U, _PANEL_W = np.polynomial.legendre.leggauss(20)
_FINE_U = ((np.arange(200)[:, None] + 0.5 * (_PANEL_U + 1.0)) / 200).ravel()
_FINE_W = np.tile(_PANEL_W, 200) / 400.0


@pytest.mark.parametrize("profile", ["gaussian", "sine"])
@pytest.mark.parametrize("eps, bound", [(1e-2, 1e-9), (0.3, 1e-7), (0.9, 1e-6)])
@pytest.mark.parametrize("width", [0.5, 1.0, 2.0])
def test_transport_k_meets_the_resolved_chord_integral(profile, eps, bound, width):
    # k(q, p) = I(q, p) / (2 pi omega_p omega_q) with the chord average of
    # omega^2 resolved far past the propagator's error
    chart = tr.make_chart("conformal", eps=eps, profile=profile, width=width)
    q, prop = _ray_propagator(chart)
    chord = q + _FINE_U[:, None] * (WORKLOAD_P - q)
    exact = (_FINE_W @ chart.omega(chord) ** 2
             / (2.0 * math.pi * chart.omega(WORKLOAD_P) * chart.omega(q)))
    _, k = tr.transport_k(chart, q, WORKLOAD_P, steps=1, propagator=prop)
    assert abs(k[-1] - exact) < bound


@pytest.mark.parametrize("profile", ["gaussian", "sine"])
@pytest.mark.parametrize("eps, bound", [(1e-2, 1e-9), (0.3, 1e-7), (0.9, 1e-6)])
@pytest.mark.parametrize("width", [0.5, 1.0, 2.0])
def test_van_vleck_meets_the_resolved_chord_integral(profile, eps, bound, width):
    # the Richardson value of the one-slot differences, on every sweep ray,
    # against the chord integral resolved far past it; its reported bound
    # must hold too
    for ray in range(len(SWEEP_RAYS)):
        chart, p, q, prop = _sweep_propagator(profile, eps, width, ray)
        chord = q + _FINE_U[:, None] * (p - q)
        exact = _FINE_W @ chart.omega(chord) ** 2 / (2.0 * math.pi * chart.omega(p) * chart.omega(q))
        k, error_bound = tr.van_vleck_k(chart, q, p, propagator=prop)
        err = abs(k - exact)
        assert err < bound and err <= error_bound


def test_transport_k_connects_when_given_no_propagator():
    chart = tr.make_chart("conformal", eps=1e-2, profile="sine")
    q, prop = _ray_propagator(chart)
    _, own = tr.transport_k(chart, q, WORKLOAD_P, steps=4)
    _, given = tr.transport_k(chart, q, WORKLOAD_P, steps=4, propagator=prop)
    assert np.max(np.abs(own - given)) < 1e-14


def test_null_connect_propagator_carries_one_shoot_work(monkeypatch):
    chart = tr.make_chart("conformal", eps=1e-2)
    shoot, shots = tr.kernels.shoot_endpoint, []

    def counting(*args, **kwargs):
        shots.append(shoot(*args, **kwargs))
        return shots[-1]

    monkeypatch.setattr(tr.kernels, "shoot_endpoint", counting)
    q, prop = _ray_propagator(chart)
    assert len(shots) == 1
    landing = np.max(np.abs(prop.x[-1] - WORKLOAD_P))
    assert prop.work == {"shoots": 1, "nodes": tr.kernels.NODES,
                         "segments": shots[0].segments,
                         "picard_iterations": shots[0].iterations,
                         "picard_update": shots[0].update, "landing_error": landing}
    assert len(prop.s) == prop.work["segments"] * tr.kernels.NODES + 1
    assert prop.work["picard_iterations"] >= 2 and prop.work["picard_update"] <= 1e-15
    assert landing < 1e-11
    path = tr.null_connect(chart, q, WORKLOAD_P)
    t = path.v[0][0]
    v = path.v[0] / t
    assert np.max(np.abs(v * t - prop.v[0])) < 1e-15


@pytest.mark.parametrize("profile", ["gaussian", "sine"])
@pytest.mark.parametrize("eps", [1e-2, 0.3])
def test_null_connect_closed_form_matches_fine_connect(profile, eps):
    # the chord velocity is the [0, 1] geodesic's: the fixed-point connect
    # finds the same one, and a shoot from it lands on target
    chart = tr.make_chart("conformal", eps=eps, profile=profile)
    q, prop = _ray_propagator(chart)
    v0 = prop.v[0]
    fine, _ = tr._connect(chart, q[None], WORKLOAD_P[None])
    assert np.max(np.abs(v0 - fine[0])) < 1e-13
    landed = tr.geodesic_shoot(chart, q, v0, 1.0).x[-1]
    assert np.max(np.abs(landed - WORKLOAD_P)) < 1e-13


@pytest.mark.parametrize("profile", ["gaussian", "sine"])
def test_seeded_van_vleck_equals_unseeded(profile):
    chart = tr.make_chart("conformal", eps=1e-2, profile=profile)
    q, prop = _ray_propagator(chart)
    plain_work, seeded_work = {}, {}
    plain, _ = tr.van_vleck_k(chart, q, WORKLOAD_P, work=plain_work)
    seeded, _ = tr.van_vleck_k(chart, q, WORKLOAD_P, propagator=prop, work=seeded_work)
    assert abs(seeded - plain) < 1e-10
    assert seeded_work["world_function_calls"] == plain_work["world_function_calls"] == 1
    assert seeded_work["shoots"] < plain_work["shoots"]
    assert max(seeded_work["worst_connect_residual"],
               plain_work["worst_connect_residual"]) <= 1e-13 * 2.0


@pytest.mark.filterwarnings("error")
def test_transport_k_rejects_a_non_finite_propagator(monkeypatch):
    # a flat chart connects in one shoot; a NaN derivative of the
    # acceleration leaves only the propagator's X and U blocks, and so
    # det X_v, non-finite
    chart = tr.make_chart("flat")
    accel = tr._acceleration
    monkeypatch.setattr(tr, "_acceleration", lambda chart, x, u: (
        accel(chart, x, u) + complex(0.0, math.nan) if np.iscomplexobj(x) else accel(chart, x, u)))
    q = P + 1.3 * OMEGA_DIR
    prop = tr.null_connect(chart, q, P)
    assert np.isnan(prop.jacobi[-1]).all() and prop.work["shoots"] == 1
    assert prop.work["landing_error"] < 1e-14
    with pytest.raises(GeometryError, match="not finite"):
        tr.transport_k(chart, q, P, steps=1, propagator=prop)


def test_non_finite_metric_is_not_reported_as_leaving_the_chart():
    # NaN from the metric's log-gradient past x^1 = 0.5 makes the geodesic
    # state NaN, and a NaN position fails the box test; the error must name
    # the non-finite state
    chart = tr.make_chart("flat", halfwidth=2.0)
    chart.grad_ln_omega = lambda x: np.where(x[..., 1:2] > 0.5, np.nan, 0.0) * np.ones(4)
    v = np.array([1.0, 1.0, 0.0, 0.0])
    with pytest.raises(GeometryError, match="reached a non-finite state") as err:
        tr.geodesic_shoot(chart, P, v, s_end=1.0)
    assert "left the chart" not in str(err.value)
    assert tr.geodesic_shoot(chart, P, v, s_end=0.3).x[-1][1] < 0.5


def test_singular_jacobi_propagator_is_a_geometry_error():
    chart = tr.make_chart("flat")
    q = P + 1.3 * OMEGA_DIR
    prop = tr.null_connect(chart, q, P)
    prop.jacobi[-1, :4, 4:] = 0.0
    with pytest.raises(GeometryError, match="conjugate point"):
        tr.transport_k(chart, q, P, steps=1, propagator=prop)
    with pytest.raises(GeometryError, match="conjugate point"):
        tr.world_function(chart, q, P, near=prop)


def test_van_vleck_cross_checks_closed_form():
    chart = tr.make_chart("conformal", eps=1e-3)
    q = P + 1.3 * OMEGA_DIR
    kvv, _ = tr.van_vleck_k(chart, q, P)
    kcf = tr.conformal_k(chart, q, P)
    dev = abs(kcf - INV_2PI)
    assert abs(kvv - kcf) < 0.05 * dev + 1e-12


def test_van_vleck_connects_sixteen_rows_in_one_world_function(monkeypatch):
    # the q slot's gradient is closed form: one batch connects q to
    # p +- h e_b and p +- (h/2) e_b, and nothing else is connected
    chart = tr.make_chart("conformal", eps=1e-2)
    q, prop = _ray_propagator(chart)
    world_function, batches = tr.world_function, []

    def recording(chart, p, q, **kwargs):
        batches.append((np.array(p), np.array(q), kwargs))
        return world_function(chart, p, q, **kwargs)

    monkeypatch.setattr(tr, "world_function", recording)
    h = 2e-2
    tr.van_vleck_k(chart, q, WORKLOAD_P, h=h, propagator=prop)
    assert len(batches) == 1
    starts, targets, kwargs = batches[0]
    assert np.array_equal(starts, q) and kwargs["near"] is prop
    steps = np.concatenate([s * np.eye(4) for s in (h, -h, 0.5 * h, -0.5 * h)])
    assert targets.shape == (16, 4)
    assert np.max(np.abs(targets - WORKLOAD_P - steps)) < 1e-16


@pytest.mark.parametrize("profile", ["gaussian", "sine"])
def test_world_function_gradient_is_the_differenced_first_slot(profile):
    # dW/dp^a = -2 omega_p^2 eta_ab v^b against central differences, O(h^2)
    chart = tr.make_chart("conformal", eps=0.3, profile=profile, width=1.0)
    q = P + 1.3 * np.array([1.0, 0.6, -0.2, 0.3])
    h = 1e-4
    step = h * np.eye(4)
    w, grad = tr.world_function(chart, np.vstack([P, P + step, P - step]), q)
    assert grad.shape == (9, 4)
    diff = (w[1:5] - w[5:]) / (2.0 * h)
    assert np.max(np.abs(grad[0] - diff)) < 1e-7 * np.max(np.abs(grad[0]))
    one, one_grad = tr.world_function(chart, P, q)
    assert isinstance(one, float) and one_grad.shape == (4,)
    assert abs(one - w[0]) < 1e-13 and np.max(np.abs(one_grad - grad[0])) < 1e-13


def test_van_vleck_flat_unity():
    chart = tr.make_chart("flat")
    q = P + 1.3 * OMEGA_DIR
    assert abs(tr.van_vleck_k(chart, q, P)[0] - INV_2PI) < 1e-9


def test_conformal_k_flat_chart_and_symmetry():
    q = P + 1.3 * OMEGA_DIR
    assert abs(tr.conformal_k(tr.make_chart("flat"), q, P) - INV_2PI) < 1e-15
    chart = tr.make_chart("conformal", eps=1e-2)
    assert abs(tr.conformal_k(chart, q, P)
               - tr.conformal_k(chart, P, q)) < 1e-15


def test_conformal_k_rows_equal_per_point_calls():
    chart = tr.make_chart("conformal", eps=0.3, profile="sine", width=1.0)
    q = P + 1.3 * OMEGA_DIR
    ps = P + np.random.default_rng(5).uniform(-0.5, 0.5, (6, 4))
    rows = tr.conformal_k(chart, q, ps)
    assert rows.shape == (6,)
    assert isinstance(tr.conformal_k(chart, q, ps[0]), float)
    assert np.max(np.abs(rows - [tr.conformal_k(chart, q, p) for p in ps])) < 1e-15


# -- parallel frames ----------------------------------------------------------

def test_spin_frame_flat_transport_is_constant():
    chart = tr.make_chart("flat")
    fr = _flat_frame()
    pf = tr.transport_spin_frame(chart, P, fr.l, fr, s_end=1.5, steps=100)
    assert np.max(np.abs(pf.l - fr.l[None, :])) == 0.0
    assert np.max(np.abs(pf.n - fr.n[None, :])) == 0.0
    assert np.max(np.abs(pf.m - fr.m[None, :])) < 1e-15
    assert np.max(np.abs(pf.o - pf.o[0][None, :])) < 1e-12
    assert pf.product_drift() < 1e-12


def test_spin_frame_weak_field_products_conserved():
    chart = tr.make_chart("conformal", eps=1e-3)
    fr = _chart_frame(chart, P, _flat_frame())
    pf = tr.transport_spin_frame(chart, P, fr.l, fr, s_end=1.5, steps=300)
    assert pf.product_drift() < 1e-8
    # continuity sign never flips on a smooth path
    dots = [np.vdot(pf.o[i - 1], pf.o[i]).real for i in range(1, len(pf.o))]
    assert min(dots) > 0.0


@pytest.mark.parametrize("profile", ["gaussian", "sine"])
def test_product_drift_matches_per_sample_metric(profile):
    chart = tr.make_chart("conformal", eps=1e-2, profile=profile, width=1.5)
    fr = _chart_frame(chart, P, _flat_frame(theta=0.9, phi=2.3))
    pf = tr.transport_spin_frame(chart, P, fr.l, fr, s_end=1.5, steps=60)
    worst = 0.0
    for x, l, n, m in zip(pf.path.x, pf.l, pf.n, pf.m):
        g = chart.metric(x)
        worst = max(worst, abs(l @ g @ n - 1.0), abs((m @ g @ m.conj()).real + 1.0),
                    abs(l @ g @ l), abs(n @ g @ n))
    assert worst > 0.0
    assert abs(pf.product_drift() - worst) <= 1e-15


def test_spin_frame_loop_identity():
    chart = tr.make_chart("conformal", eps=1e-3)
    fr = _chart_frame(chart, P, _flat_frame())
    out = tr.transport_spin_frame(chart, P, fr.l, fr, s_end=1.5, steps=300)
    # out.o and out.iota are orthonormal components; an NPFrame holds chart ones
    root = math.sqrt(chart.omega(out.path.x[-1]))
    fr_end = NPFrame(out.l[-1], out.n[-1], out.m[-1], out.o[-1] / root, out.iota[-1] / root)
    back = tr.transport_spin_frame(chart, out.path.x[-1], -out.path.v[-1], fr_end,
                                   s_end=1.5, steps=300)
    assert np.max(np.abs(back.l[-1] - fr.l)) < 1e-10
    assert np.max(np.abs(back.n[-1] - fr.n)) < 1e-10
    assert np.max(np.abs(back.m[-1] - fr.m)) < 1e-10
    # spin basis returns to the outbound extraction at the start point
    assert np.max(np.abs(back.o[-1] - out.o[0])) < 1e-10
    assert np.max(np.abs(back.iota[-1] - out.iota[0])) < 1e-10


def test_spin_frame_rejects_unnormalized_input():
    chart = tr.make_chart("conformal", eps=1e-2)
    fr = _flat_frame()  # eta-normalized, not chart-normalized
    with pytest.raises(ValueError, match="not normalized"):
        tr.transport_spin_frame(chart, np.zeros(4), fr.l, fr, s_end=0.5)


@pytest.mark.parametrize("c", [2.0, -1.0])
def test_spin_frame_along_c_l_is_the_l_frame_at_c_s(c):
    # v = c l runs the same chord c times as fast: the c factor in mu
    chart = tr.make_chart("conformal", eps=0.3, profile="sine", width=1.0)
    fr = _chart_frame(chart, P, _flat_frame(theta=0.7, phi=1.3))
    scaled = tr.transport_spin_frame(chart, P, c * fr.l, fr, s_end=0.8, steps=200)
    unit = tr.transport_spin_frame(chart, P, fr.l, fr, s_end=0.8 * c, steps=200)
    for a, b in zip((scaled.path.x, scaled.l, scaled.n, scaled.m, scaled.o, scaled.iota),
                    (unit.path.x, unit.l, unit.n, unit.m, unit.o, unit.iota)):
        assert np.max(np.abs(a - b)) <= 1e-12
    assert np.max(np.abs(scaled.path.v - c * unit.path.v)) <= 1e-12


@pytest.mark.parametrize("v", [np.zeros(4), np.array([1.0, 0.0, 0.0, 1.0])],
                         ids=["zero", "off-l"])
def test_spin_frame_rejects_v_that_is_not_a_multiple_of_l(v):
    chart = tr.make_chart("conformal", eps=1e-2)
    fr = _chart_frame(chart, P, _flat_frame())
    with pytest.raises(ValueError, match="not a nonzero multiple of the frame's l"):
        tr.transport_spin_frame(chart, P, v, fr, s_end=0.5, steps=10)


def _leg_ode_frame(chart, p, v, frame, s_end, steps):
    """The leg-ODE transport the closed form replaced, kept as its reference:
    RK4 on (x, u) and the four legs dV/ds = -Gamma(x) xdot V, then the spin
    basis extracted at every sample, its sign fixed by continuity."""
    legs = np.vstack([frame.l.real, frame.n.real, frame.m.real, frame.m.imag])

    def rhs(y):
        x, u, V = y
        gu = christoffel(chart, x) @ u
        return u, -(gu @ u), -(V @ gu.T)

    xs, _, Vs = rk4_shoot(rhs, [p, v, legs], s_end, steps)
    ls, ns, ms = Vs[:, 0], Vs[:, 1], Vs[:, 2] + 1j * Vs[:, 3]
    os, iotas = [], []
    for om, l, n, m in zip(chart.omega(xs), ls, ns, ms):
        o, iota = spin_basis_from_tetrad(om * l, om * n, om * m)
        if os and np.vdot(os[-1], o).real < 0.0:
            o, iota = -o, -iota
        os.append(o)
        iotas.append(iota)
    return ls, ns, ms, np.array(os), np.array(iotas)


@pytest.mark.parametrize("width", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("eps", [1e-2, 0.3, 0.9])
@pytest.mark.parametrize("profile", ["gaussian", "sine"])
def test_spin_frame_closed_form_meets_the_leg_ode(profile, eps, width):
    chart = tr.make_chart("conformal", eps=eps, profile=profile, width=width)
    p = np.array([0.1, 0.25, -0.15, 0.2])
    fr = _chart_frame(chart, p, _flat_frame(theta=0.7, phi=1.3))
    reference = _leg_ode_frame(chart, p, fr.l, fr, 1.0, 1600)
    for steps, tol in ((1600, 1e-12), (100, 1e-8)):
        pf = tr.transport_spin_frame(chart, p, fr.l, fr, s_end=1.0, steps=steps)
        for got, want in zip((pf.l, pf.n, pf.m, pf.o, pf.iota), reference):
            assert np.max(np.abs(got - want[::1600 // steps])) <= tol
        assert pf.product_drift() <= 1e-14
