"""Geodesic transport: charts, connections, world function, k, frames."""

import math

import numpy as np
import pytest

from conerec import _backend
from conerec import transport as tr
from conerec.cone import spin_basis_field
from conerec.errors import GeometryError
from conerec.frames import NPFrame, frame_from_spin_basis

P = np.array([0.2, 0.1, -0.3, 0.4])
OMEGA_DIR = np.array([1.0, 0.3, 0.5, math.sqrt(1.0 - 0.34)])
INV_2PI = 1.0 / (2.0 * math.pi)


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
    assert np.array_equal(chart.connection(x), np.zeros((4, 4, 4)))
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
    tr.check_signature(chart, np.array([[0.0, 0.0, 0.0, 0.0],
                                        [1.0, 2.0, 3.0, -4.0]]))


def test_registry_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown chart"):
        tr.make_chart("schwarzschild")
    with pytest.raises(ValueError, match="unknown conformal profile"):
        tr.make_chart("conformal", eps=1e-3, profile="torus")
    with pytest.raises(ValueError, match="eps"):
        tr.make_chart("conformal", eps=1.5)


def test_signature_check_rejects_euclidean_patch():
    bad = tr.CurvedChart(metric=lambda x: np.diag([1.0, 1.0, -1.0, -1.0]),
                         lo=-np.ones(4), hi=np.ones(4))
    with pytest.raises(ValueError, match="signature"):
        tr.check_signature(bad, np.zeros(4))


def test_christoffel_fd_matches_analytic_conformal():
    chart = tr.make_chart("conformal", eps=1e-2, profile="sine", width=1.5)
    x = np.array([0.3, -0.6, 0.2, 0.9])
    fd = tr.christoffel_fd(chart.metric, x, 1e-5)
    exact = chart.connection(x)
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
    got = _backend.rk4_step(f, y, h)
    z = -0.7 * h
    growth = 1.0 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24
    assert len(seen) == 4
    assert np.allclose(got[0], growth * y[0], rtol=1e-15, atol=0)
    assert abs(got[1] - growth * y[1]) < 1e-15


def test_flat_shoot_is_straight():
    chart = tr.make_chart("flat")
    v = np.array([1.2, 0.3, 0.5, 0.1])
    path = tr.geodesic_shoot(chart, P, v, 2.0, steps=100)
    expect = P[None, :] + path.s[:, None] * v[None, :]
    assert np.max(np.abs(path.x - expect)) < 1e-13
    assert np.max(np.abs(path.v - v[None, :])) == 0.0
    assert path.norm_drift() < 1e-14


def test_null_norm_drift_weak_field():
    # null norm conserved to 1e-8 over unit affine length at 1e3 steps
    chart = tr.make_chart("conformal", eps=1e-2)
    path = tr.geodesic_shoot(chart, P, OMEGA_DIR, 1.0, steps=1000)
    assert path.norm_drift() < 1e-8


def test_conformal_null_image_is_straight():
    # null geodesics of omega^2 eta bend only in parameterization
    chart = tr.make_chart("conformal", eps=1e-2)
    path = tr.geodesic_shoot(chart, P, OMEGA_DIR, 2.0, steps=400)
    rel = path.x - P[None, :]
    cross = rel[1:] - np.outer(rel[1:, 0], OMEGA_DIR)
    assert np.max(np.abs(cross)) < 1e-12


def test_timelike_deflection_matches_linearized_oracle():
    v0 = np.array([1.2, 0.3, 0.5, 0.1])
    s_end = 2.0
    residual = {}
    for eps in (1e-2, 1e-3):
        chart = tr.make_chart("conformal", eps=eps)
        got = tr.geodesic_shoot(chart, P, v0, s_end, steps=400).x[-1]

        def lin_rhs(s, dx, dv):
            x0 = P + s * v0
            return dv, -np.einsum("abc,b,c->a", chart.connection(x0), v0, v0)

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
        tr.geodesic_shoot(chart, P, np.array([30.0, 0.0, 0.0, 0.0]), 1.0,
                          steps=10)
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
    path = tr.geodesic_shoot(tr.make_chart("flat"), ps, vs, 1.7, steps=96)
    assert path.x.shape == path.v.shape == (97, 5, 4)
    assert np.max(np.abs(path.x[-1] - (ps + 1.7 * vs))) < 1e-14
    assert np.array_equal(path.v[-1], vs)


@pytest.mark.parametrize("profile", ["gaussian", "sine"])
def test_batched_shoot_rows_match_geodesic_shoot(profile):
    chart = tr.make_chart("conformal", eps=1e-2, profile=profile)
    # the same metric given by callbacks: its shoots contract the connection
    custom = tr.CurvedChart(metric=chart.metric, lo=chart.lo, hi=chart.hi,
                            christoffel=chart.christoffel)
    ps, vs = _rows(4)
    rows = tr.geodesic_shoot(chart, ps, vs, 1.7, steps=96)
    custom_rows = tr.geodesic_shoot(custom, ps, vs, 1.7, steps=96)
    for i in range(4):
        path = tr.geodesic_shoot(chart, ps[i], vs[i], 1.7, steps=96)
        assert np.max(np.abs(rows.x[:, i] - path.x)) < 1e-15
        assert np.max(np.abs(rows.v[:, i] - path.v)) < 1e-15
        custom_path = tr.geodesic_shoot(custom, ps[i], vs[i], 1.7, steps=96)
        assert np.max(np.abs(custom_rows.x[:, i] - custom_path.x)) < 1e-15
        # closed-form acceleration against -Gamma(u, u)
        assert np.max(np.abs(custom_path.x[-1] - path.x[-1])) < 1e-12
        assert np.max(np.abs(custom_path.v[-1] - path.v[-1])) < 1e-12


def test_batched_shoot_box_exit_status_per_row():
    chart = tr.make_chart("flat", halfwidth=1.0)
    ps = np.zeros((2, 4))
    vs = np.array([[0.1, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    # row 1 leaves at its first step past t = 1; the error names its point
    with pytest.raises(GeometryError, match=r"left the chart domain at "
                                            r"s = 1\.1, x = \[1\.1 0\. "):
        tr.geodesic_shoot(chart, ps, vs, 3.0, 30)
    assert abs(tr.geodesic_shoot(chart, ps[:1], vs[:1], 3.0, 30).x[-1, 0, 0] - 0.3) < 1e-15


def test_batched_world_function_equals_per_pair_calls():
    chart = tr.make_chart("conformal", eps=1e-2, profile="sine", width=1.5)
    rng = np.random.default_rng(3)
    ps = P + rng.uniform(-0.2, 0.2, (6, 4))
    qs = P + np.array([1.9, 0.4, 0.6, 0.2]) + rng.uniform(-0.2, 0.2, (6, 4))
    batched = tr.world_function(chart, ps, qs)
    assert batched.shape == (6,)
    for i in range(6):
        assert abs(batched[i] - tr.world_function(chart, ps[i], qs[i])) < 1e-13
    # one point against rows broadcasts
    one = tr.world_function(chart, P, qs)
    assert max(abs(one[i] - tr.world_function(chart, P, qs[i]))
               for i in range(6)) < 1e-13


# pair 0 lies far from a strong bump and converges at once; pair 1
# crosses it and needs many iterations
STRONG_BUMP = {"eps": 0.3, "width": 1.0}
FAST_SLOW_P = np.array([[8.0, 8.0, 8.0, 8.0], [-1.0, -0.3, 0.2, 0.1]])
FAST_SLOW_Q = np.array([[8.5, 8.1, 8.0, 8.2], [1.0, 0.4, -0.2, 0.3]])


def test_batched_connect_freezes_converged_pairs(monkeypatch):
    chart = tr.make_chart("conformal", **STRONG_BUMP)
    ps, qs = FAST_SLOW_P, FAST_SLOW_Q
    alone = [tr.world_function(chart, ps[i], qs[i]) for i in range(2)]
    rows = []
    shoot = tr.kernels.shoot_endpoint

    def counting(rhs, contains, y, s_end, steps):
        rows.append(len(y[0]))
        return shoot(rhs, contains, y, s_end, steps)

    monkeypatch.setattr(tr.kernels, "shoot_endpoint", counting)
    both = tr.world_function(chart, ps, qs)
    assert rows[0] == 2 and rows[-1] == 1 and len(rows) > 4
    assert np.max(np.abs(both - alone)) < 1e-13


def test_connect_failure_names_the_pair():
    chart = tr.make_chart("conformal", **STRONG_BUMP)
    with pytest.raises(GeometryError, match=r"\(pair 1\) did not converge "
                                            r"\(residual [0-9.]+e-0\d\)"):
        tr._connect(chart, FAST_SLOW_P, FAST_SLOW_Q, max_iter=3)


def test_custom_chart_shoots_row_by_row():
    conformal = tr.make_chart("conformal", eps=1e-2)
    custom = tr.CurvedChart(metric=conformal.metric, lo=conformal.lo,
                            hi=conformal.hi, christoffel=conformal.christoffel)
    ps, vs = _rows(3)
    qs = ps + vs
    got = tr.world_function(custom, ps, qs, steps=24)
    want = tr.world_function(conformal, ps, qs, steps=24)
    assert np.max(np.abs(got - want)) < 1e-12


# -- null connection and world function -------------------------------------

def test_null_connect_flat_exact():
    chart = tr.make_chart("flat")
    q = P + 1.3 * OMEGA_DIR
    v, t = tr.null_connect(chart, P, q)
    assert np.max(np.abs(v - OMEGA_DIR)) < 1e-14
    assert abs(t - 1.3) < 1e-14


def test_null_connect_weak_field_lands():
    chart = tr.make_chart("conformal", eps=1e-3)
    q = P + 1.3 * OMEGA_DIR
    v, t = tr.null_connect(chart, P, q)
    path = tr.geodesic_shoot(chart, P, v, t, steps=200)
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
        assert abs(tr.world_function(chart, a, b) - interval) < 1e-13


def test_world_function_null_pair_vanishes():
    q = P + 1.3 * OMEGA_DIR
    for chart in (tr.make_chart("flat"), tr.make_chart("conformal", eps=1e-3)):
        assert abs(tr.world_function(chart, P, q)) < 1e-8


def test_world_function_symmetry_weak_field():
    chart = tr.make_chart("conformal", eps=1e-2)
    q = P + np.array([1.9, 0.4, 0.6, 0.2])
    assert abs(tr.world_function(chart, P, q)
               - tr.world_function(chart, q, P)) < 1e-8


def test_world_function_eikonal_identity_second_order():
    # g^{ab} W_,a W_,b = 4 W with an O(h^2) FD residual
    chart = tr.make_chart("conformal", eps=1e-2)
    q = P + np.array([1.9, 0.4, 0.6, 0.2])
    r1 = abs(tr.world_function_gradient_check(chart, P, q, h=2e-2))
    r2 = abs(tr.world_function_gradient_check(chart, P, q, h=1e-2))
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
    s, k = tr.transport_k(chart, q, P, steps=8, shoot_steps=24)
    assert np.max(np.abs(k - INV_2PI)) < 1e-8
    assert np.all(k > 0.0)


def test_transport_k_weak_field_linear_scaling():
    q = P + 1.3 * OMEGA_DIR
    dev = {}
    for eps in (1e-3, 1e-4):
        chart = tr.make_chart("conformal", eps=eps)
        _, k = tr.transport_k(chart, q, P, steps=6, shoot_steps=24)
        assert np.all(np.isfinite(k)) and np.all(k > 0.0)
        dev[eps] = k[-1] - INV_2PI
        assert abs(dev[eps]) > 1e-3 * eps * INV_2PI
    ratio = dev[1e-3] / dev[1e-4]
    assert 8.0 < ratio < 12.0


def test_transport_k_matches_conformal_closed_form():
    chart = tr.make_chart("conformal", eps=1e-3)
    q = P + 1.3 * OMEGA_DIR
    _, k = tr.transport_k(chart, q, P, steps=6, shoot_steps=24)
    kcf = tr.conformal_k(chart, q, P)
    dev = abs(kcf - INV_2PI)
    assert abs(k[-1] - kcf) < 0.05 * dev


def test_transport_k_mixed_hessian_on_sheared_flat_chart(monkeypatch):
    # Minkowski in sheared coordinates: a constant metric whose inverse has
    # off-diagonal entries (0, 1) and (2, 3), so box W has mixed Hessian
    # terms; box W = 8 and k stays 1/(2 pi).  box W is closed-form on the
    # Jacobi propagator, so no world function is evaluated
    shear = np.eye(4)
    shear[1, 0], shear[2, 3] = 0.3, -0.2
    g = shear.T @ np.diag([1.0, -1.0, -1.0, -1.0]) @ shear
    chart = tr.CurvedChart(metric=lambda x: g, lo=np.full(4, -10.0),
                           hi=np.full(4, 10.0),
                           christoffel=lambda x: np.zeros((4, 4, 4)))
    q = P + 1.3 * np.linalg.solve(shear, OMEGA_DIR)
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        raise AssertionError("transport_k evaluated a world function")

    monkeypatch.setattr(tr, "world_function", recording)
    _, k = tr.transport_k(chart, q, P, steps=1, shoot_steps=8)
    assert calls == []
    assert np.max(np.abs(k - INV_2PI)) < 1e-8


# -- Jacobi propagator --------------------------------------------------------

WORKLOAD_P = np.array([0.1, 0.25, -0.15, 0.2])
# the benchmark's ray: a null direction with spatial part along (0.3, 0.5, 0.8)
WORKLOAD_DIR = np.concatenate([[1.0], np.array([0.3, 0.5, 0.8]) / math.sqrt(0.98)])


def _ray_propagator(chart, length=1.1):
    q = WORKLOAD_P + length * WORKLOAD_DIR
    return q, tr.null_connect(chart, q, WORKLOAD_P).path


@pytest.mark.parametrize("profile", ["gaussian", "sine"])
def test_connection_grad_matches_differenced_connection(profile):
    chart = tr.make_chart("conformal", eps=1e-2, profile=profile, width=1.5,
                          center=(0.1, 0.2, -0.1, 0.3))
    differenced = tr.CurvedChart(metric=chart.metric, lo=chart.lo, hi=chart.hi,
                                 christoffel=chart.christoffel)
    x = np.array([0.3, -0.6, 0.2, 0.9])
    assert np.max(np.abs(chart.connection_grad(x)
                         - differenced.connection_grad(x))) < 1e-12
    rows = np.vstack([x, -x, 0.5 * x])
    assert np.max(np.abs(chart.connection_grad(rows)[1]
                         - chart.connection_grad(-x))) < 1e-16


def test_jacobi_propagator_matches_differenced_shoots():
    chart = tr.make_chart("conformal", eps=1e-2)
    q, prop = _ray_propagator(chart)
    assert np.max(np.abs(prop.x[-1] - WORKLOAD_P)) < 1e-13
    v0, h = prop.v[0], 1e-6
    step = h * np.eye(4)

    def ends(starts, velocities):
        return tr.geodesic_shoot(chart, starts, velocities, 1.0, tr.SHOOT_STEPS).x[-1]

    same = np.broadcast_to(q, (4, 4))
    vel = np.broadcast_to(v0, (4, 4))
    x_v = (ends(same, v0 + step) - ends(same, v0 - step)).T / (2.0 * h)
    x_p = (ends(q + step, vel) - ends(q - step, vel)).T / (2.0 * h)
    assert np.max(np.abs(prop.jacobi[-1, :4, 4:] - x_v)) < 1e-8
    assert np.max(np.abs(prop.jacobi[-1, :4, :4] - x_p)) < 1e-8


@pytest.mark.parametrize("profile", ["gaussian", "sine"])
def test_closed_form_box_w_matches_world_function_stencil(profile):
    chart = tr.make_chart("conformal", eps=1e-2, profile=profile)
    q, prop = _ray_propagator(chart)
    box = tr._box_w(chart, prop)
    assert box[0] == 8.0
    for i in (12, 24, 40):
        x = prop.x[i]

        def second(h):
            # diagonal second differences; g^{ab} is diagonal on this chart
            steps = h * np.eye(4)
            w = tr.world_function(chart, q, np.vstack([x, x + steps, x - steps]))
            return (w[1:5] - w[5:]) / (2.0 * h), (w[1:5] - 2.0 * w[0] + w[5:]) / h ** 2

        (g1, h1), (g2, h2) = second(1e-2), second(2e-2)
        grad, hess = (4.0 * g1 - g2) / 3.0, (4.0 * h1 - h2) / 3.0
        ginv = np.linalg.inv(chart.metric(x))
        stencil = (np.einsum("aa,a->", ginv, hess)
                   - np.einsum("ab,cab,c->", ginv, chart.connection(x), grad))
        assert abs(box[i] - stencil) < 1e-7


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
        x = tr.geodesic_shoot(chart, q, prop.v[0], sj, steps=400).x[-1]
        assert abs(kj - tr.conformal_k(chart, q, x)) < 1e-10


def test_transport_k_connects_when_given_no_propagator():
    chart = tr.make_chart("conformal", eps=1e-2, profile="sine")
    q, prop = _ray_propagator(chart)
    _, own = tr.transport_k(chart, q, WORKLOAD_P, steps=4)
    _, given = tr.transport_k(chart, q, WORKLOAD_P, steps=4, propagator=prop)
    assert np.max(np.abs(own - given)) < 1e-14


def test_null_connect_propagator_carries_newton_work():
    chart = tr.make_chart("conformal", eps=1e-2)
    q, prop = _ray_propagator(chart)
    work = prop.work
    assert work["connect_iterations"] == work["shoots"] == 3
    assert work["kernel_steps"] == 3 * tr.SHOOT_STEPS
    assert work["worst_connect_residual"] <= 1e-13 * np.max(np.abs(q))
    v, t = tr.null_connect(chart, q, WORKLOAD_P)
    assert np.max(np.abs(v * t - prop.v[0])) < 1e-15


@pytest.mark.parametrize("profile", ["gaussian", "sine"])
def test_seeded_van_vleck_equals_unseeded(profile):
    chart = tr.make_chart("conformal", eps=1e-2, profile=profile)
    q, prop = _ray_propagator(chart)
    plain_work, seeded_work = {}, {}
    plain = tr.van_vleck_k(chart, q, WORKLOAD_P, work=plain_work)
    seeded = tr.van_vleck_k(chart, q, WORKLOAD_P, propagator=prop, work=seeded_work)
    assert abs(seeded - plain) < 1e-10
    assert seeded_work["world_function_calls"] == plain_work["world_function_calls"] == 1
    assert seeded_work["shoots"] < plain_work["shoots"]
    assert max(seeded_work["worst_connect_residual"],
               plain_work["worst_connect_residual"]) <= 1e-13 * 2.0


def test_transport_k_rejects_a_non_finite_propagator():
    # a flat connection connects in one shoot; a NaN connection gradient
    # leaves only the propagator's X and U blocks, and so box W, non-finite
    flat = tr.make_chart("flat")
    chart = tr.CurvedChart(metric=flat.metric, lo=flat.lo, hi=flat.hi,
                           christoffel=flat.christoffel,
                           christoffel_grad=lambda x: np.full((4, 4, 4, 4), np.nan))
    q = P + 1.3 * OMEGA_DIR
    prop = tr.null_connect(chart, q, P).path
    assert np.isnan(prop.jacobi[-1]).all() and prop.work["shoots"] == 1
    with pytest.raises(GeometryError, match="not finite"):
        tr.transport_k(chart, q, P, steps=1, propagator=prop)


def test_non_finite_metric_is_not_reported_as_leaving_the_chart():
    # NaN from the metric makes the geodesic state NaN, and a NaN position
    # fails the box test; the error must name the non-finite state
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    chart = tr.CurvedChart(metric=lambda x: eta * np.nan if x[1] > 0.5 else eta,
                           lo=np.full(4, -2.0), hi=np.full(4, 2.0))
    v = np.array([1.0, 1.0, 0.0, 0.0])
    with pytest.raises(GeometryError, match="reached a non-finite state") as err:
        tr.geodesic_shoot(chart, P, v, s_end=1.0, steps=20)
    assert "left the chart" not in str(err.value)
    assert tr.geodesic_shoot(chart, P, v, s_end=0.3, steps=20).x[-1][1] < 0.5


def test_singular_jacobi_propagator_is_a_geometry_error():
    chart = tr.make_chart("flat")
    q = P + 1.3 * OMEGA_DIR
    prop = tr.null_connect(chart, q, P).path
    prop.jacobi[-1, :4, 4:] = 0.0
    with pytest.raises(GeometryError, match="conjugate point"):
        tr.transport_k(chart, q, P, steps=1, propagator=prop)
    with pytest.raises(GeometryError, match="conjugate point"):
        tr.world_function(chart, q, P, near=prop)


def test_world_function_on_a_metric_only_chart_converges():
    # Christoffels differenced from the metric callback alone must be
    # accurate enough for the 1e-13 connect stop at unit separations
    analytic = tr.make_chart("conformal", eps=1e-2)
    metric_only = tr.CurvedChart(metric=analytic.metric, lo=analytic.lo,
                                 hi=analytic.hi)
    p = np.array([0.1, 0.2, -0.1, 0.3])
    d = np.array([0.3, 0.5, 0.8]) / math.sqrt(0.98)
    for length in (0.3, 1.0, 1.6):
        q = p + length * np.concatenate([[1.2], d])
        got = tr.world_function(metric_only, p, q)
        assert abs(got - tr.world_function(analytic, p, q)) < 1e-12


def test_van_vleck_cross_checks_closed_form():
    chart = tr.make_chart("conformal", eps=1e-3)
    q = P + 1.3 * OMEGA_DIR
    kvv = tr.van_vleck_k(chart, q, P, steps=32)
    kcf = tr.conformal_k(chart, q, P)
    dev = abs(kcf - INV_2PI)
    assert abs(kvv - kcf) < 0.05 * dev + 1e-12


def test_van_vleck_flat_unity():
    chart = tr.make_chart("flat")
    q = P + 1.3 * OMEGA_DIR
    assert abs(tr.van_vleck_k(chart, q, P, steps=16) - INV_2PI) < 1e-9


def test_conformal_k_flat_chart_and_symmetry():
    q = P + 1.3 * OMEGA_DIR
    assert abs(tr.conformal_k(tr.make_chart("flat"), q, P) - INV_2PI) < 1e-15
    chart = tr.make_chart("conformal", eps=1e-2)
    assert abs(tr.conformal_k(chart, q, P)
               - tr.conformal_k(chart, P, q)) < 1e-15


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
    fr_end = NPFrame(out.l[-1], out.n[-1], out.m[-1], out.o[-1], out.iota[-1])
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
