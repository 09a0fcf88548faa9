import math

import numpy as np
import pytest

from conerec import cone
from conerec.frames import NPFrame
from conerec.spinor import from_matrix, lower_comps, to_matrix

import _reference
from _reference import area_element, check_np_frame, minkowski, transversal_iota


def test_grid_basics():
    g = cone.SphereGrid(16, 32)
    # Gauss-Legendre weights integrate constants exactly: total solid angle 4 pi
    th, ph, w, ch = g.angles()
    assert abs(w.sum() - 4 * math.pi) < 1e-13
    assert th.size == 16 * 32
    # two charts: northern rings chart A, southern chart B
    assert set(ch[th < math.pi / 2]) == {0}
    assert set(ch[th > math.pi / 2]) == {1}


def test_grid_tables_are_shared_and_read_only():
    a = cone.SphereGrid(8, 16)
    b = cone.SphereGrid(8, 16)
    for x, y in zip(a.angles() + a.directions(), b.angles() + b.directions()):
        assert x is y
        with pytest.raises(ValueError):
            x[0] = x[1]
    assert a.theta is b.theta
    with pytest.raises(ValueError):
        a.w_theta[0] = 0.0
    # the cached directions and basis are the ones computed from the angles
    th, ph, _, ch = a.angles()
    omega, o = a.directions()
    assert np.array_equal(omega, cone.unit_directions(th, ph))
    assert np.array_equal(o, cone.spin_basis_field(th, ph, ch)[0])
    # another size gets its own tables
    wider = cone.SphereGrid(8, 32)
    assert wider.angles()[0].size == 2 * a.angles()[0].size


def test_grid_validation():
    with pytest.raises(ValueError):
        cone.SphereGrid(16, 31)   # odd n_phi
    with pytest.raises(ValueError):
        cone.SphereGrid(3, 32)    # too few rings


def test_spin_basis_field_reproduces_l_and_n():
    rng = np.random.default_rng(3)
    th = rng.uniform(0.05, math.pi - 0.05, 40)
    ph = rng.uniform(0, 2 * math.pi, 40)
    for chart in (0, 1):
        o, iota = cone.spin_basis_field(th, ph, np.full(40, chart))
        om = cone.unit_directions(th, ph)
        from conerec.spinor import to_matrix, lower_comps
        l = np.concatenate([np.ones((40, 1)), om], axis=1)
        n = np.concatenate([np.full((40, 1), 0.5), -0.5 * om], axis=1)
        assert np.max(np.abs(to_matrix(l.astype(complex))
                             - np.einsum("ni,nj->nij", o, o.conj()))) < 1e-12
        assert np.max(np.abs(to_matrix(n.astype(complex))
                             - np.einsum("ni,nj->nij", iota, iota.conj()))) < 1e-12
        s = np.einsum("ni,ni->n", lower_comps(o), iota)
        assert np.max(np.abs(s - 1.0)) < 1e-12


def test_chart_transition_consistency():
    # the two chart representations of the same weighted field differ by
    # the transition phase e^{i phi (p-q)}
    th = np.array([1.0]); ph = np.array([0.8])
    oA, iA = cone.spin_basis_field(th, ph, np.array([0]))
    oB, iB = cone.spin_basis_field(th, ph, np.array([1]))
    # a (1,0) scalar built from a fixed spinor: f = kappa_A o^A
    kappa_low = np.array([0.3 - 0.2j, 1.1 + 0.5j])
    fA = oA[0] @ kappa_low
    fB = oB[0] @ kappa_low
    assert abs(fA - cone.chart_transition(fB, ph[0], (1, 0), to_chart=0)) < 1e-14
    assert abs(fB - cone.chart_transition(fA, ph[0], (1, 0), to_chart=1)) < 1e-14


def section_invariants(sec, tol=1e-10):
    dp = sec.p - sec.p0[None, :]
    dq = sec.q[None, :] - sec.p
    assert np.max(np.abs(np.einsum("ni,ij,nj->n", dp, np.diag([1., -1, -1, -1]), dp))) < tol
    assert np.max(np.abs(np.einsum("ni,ij,nj->n", dq, np.diag([1., -1, -1, -1]), dq))) < tol
    assert np.all(dp[:, 0] > 0) and np.all(dq[:, 0] > 0)
    # q = p0 + r0 l + r n
    rebuilt = sec.p0[None, :] + sec.r0[:, None] * sec.l + sec.r[:, None] * sec.n
    assert np.max(np.abs(rebuilt - sec.q[None, :])) < tol


def test_section_on_axis():
    # q = (1,0,0,0): r0 = 1/2, r = 1 for every direction
    g = cone.SphereGrid(12, 24)
    sec = cone.build_section(np.zeros(4), np.array([1.0, 0, 0, 0]), g)
    assert np.max(np.abs(sec.r0 - 0.5)) < 1e-14
    assert np.max(np.abs(sec.r - 1.0)) < 1e-14
    assert np.max(np.abs(sec.p[:, 0] - 0.5)) < 1e-14
    section_invariants(sec)
    # rho = -1/r0
    assert np.max(np.abs(sec.rho + 2.0)) < 1e-13


def test_section_example_values():
    # q=(2,0,0,1), direction +z (theta=pi/2, phi=pi/2 with the e1 polar axis):
    # r0 = (4-1)/(2(2-1)) = 3/2, r = 1, p = (3/2,0,0,3/2)
    p0 = np.zeros(4)
    q = np.array([2.0, 0, 0, 1.0])
    om = np.array([0.0, 0.0, 1.0])
    t, x = q[0], q[1:]
    r = t - x @ om
    g0 = minkowski(q, q).real
    r0 = g0 / (2 * r)
    assert abs(r0 - 1.5) < 1e-14 and abs(r - 1.0) < 1e-14
    p = np.concatenate([[r0], r0 * om])
    assert abs(minkowski(p, p)) < 1e-14
    assert abs(minkowski(q - p, q - p)) < 1e-14
    # the full section around the same q satisfies all invariants
    sec = cone.build_section(p0, q, cone.SphereGrid(12, 24))
    section_invariants(sec)
    for i in (0, 37, 100):
        m = from_matrix(np.outer(sec.o[i], sec.iota[i].conj()))
        check_np_frame(NPFrame(sec.l[i], sec.n[i], m, sec.o[i], sec.iota[i]), 1e-10)


_LAZY = ("l", "p", "n", "mu_leray")
_UNIT = np.array([0.48, 0.6, 0.64]) / np.linalg.norm([0.48, 0.6, 0.64])
# an ordinary q and a near-null one, |x| = 0.99 t, off a fixed vertex
_VERTEX = np.array([0.1, -0.2, 0.05, 0.3])
_FRAME_QS = (_VERTEX + np.array([1.5, 0.4, 0.3, 0.2]),
             _VERTEX + 1.3 * np.concatenate([[1.0], 0.99 * _UNIT]))


def test_section_derives_points_legs_and_leray_weight_when_read():
    sec = cone.build_section(_VERTEX, _FRAME_QS[0], cone.SphereGrid(8, 16))
    assert not set(_LAZY) & set(vars(sec))
    l = np.concatenate([np.ones((sec.n_nodes, 1)), sec.omega], axis=1)
    p = sec.p0[None, :] + sec.r0[:, None] * l
    n = (sec.q[None, :] - p) / sec.r[:, None]
    mu_leray = sec.mu_sigma / (4.0 * sec.r0 * sec.r)
    for name, want in zip(_LAZY, (l, p, n, mu_leray)):
        got = getattr(sec, name)
        assert np.array_equal(got, want), name
        # read once, then kept
        assert vars(sec)[name] is got and getattr(sec, name) is got


@pytest.mark.parametrize("q", _FRAME_QS, ids=["ordinary", "near-null"])
@pytest.mark.parametrize("n_theta", [8, 64])
def test_section_frame_from_the_chord_is_normalized_and_transversal(q, n_theta):
    sec = cone.build_section(_VERTEX, q, cone.SphereGrid(n_theta, 2 * n_theta))
    pairing = np.einsum("ni,ni->n", lower_comps(sec.o), sec.iota)
    assert np.max(np.abs(pairing - 1.0)) < 1e-13
    # n reaches ~25 beside the near-null direction, so the bound scales with it
    outer = np.einsum("ni,nj->nij", sec.iota, sec.iota.conj())
    assert (np.max(np.abs(outer - to_matrix(sec.n)))
            < 1e-13 * max(1.0, np.max(np.abs(sec.n))))
    # l^{AA'} obar_{A'} = 0, which lets iota come from the chord q - p0 alone
    assert np.max(np.abs(transversal_iota(sec.o, sec.l))) < 1e-15


def test_section_rejects_bad_q():
    g = cone.SphereGrid(8, 16)
    with pytest.raises(ValueError):
        cone.build_section(np.zeros(4), np.array([1.0, 1.0, 0, 0]), g)   # on the cone
    with pytest.raises(ValueError):
        cone.build_section(np.zeros(4), np.array([0.5, 1.0, 0, 0]), g)   # spacelike
    with pytest.raises(ValueError):
        cone.build_section(np.zeros(4), np.array([-1.0, 0, 0, 0]), g)    # past
    # the interior bound is relative to t^2: a chord 1e-10 off the cone is
    # refused at any scale, one deep inside is kept near the vertex
    for t in (1e-6, 1.0, 1e3):
        with pytest.raises(ValueError, match="strictly inside the future cone"):
            cone.build_section(np.zeros(4), t * np.array([1.0, 1.0 - 1e-10, 0, 0]), g)
        sec = cone.build_section(np.zeros(4), t * np.array([1.0, 0.3, 0.2, -0.1]), g)
        assert np.all(sec.r0 > 0.0)


def test_area_on_axis():
    # sigma(q) for q=(t,0,0,0) is the round sphere of radius t/2: area pi t^2
    for t in (1.0, 2.0, 3.5):
        sec = cone.build_section(np.zeros(4), np.array([t, 0, 0, 0]), cone.SphereGrid(24, 48))
        assert abs(sec.mu_sigma.sum() - math.pi * t ** 2) < 1e-8 * t ** 2


def test_area_scaling():
    g = cone.SphereGrid(16, 32)
    q = np.array([2.0, 0.3, -0.4, 0.1])
    a1 = cone.build_section(np.zeros(4), q, g).mu_sigma.sum()
    lam = 1.7
    a2 = cone.build_section(np.zeros(4), lam * q, g).mu_sigma.sum()
    assert abs(a2 - lam ** 2 * a1) < 1e-10 * a2


def test_area_off_axis_quasi_monte_carlo():
    # off-axis section area against a quasi-Monte-Carlo embedding integral
    from scipy.stats import qmc
    p0 = np.zeros(4)
    q = np.array([2.0, 0, 0, 1.0])
    sec = cone.build_section(p0, q, cone.SphereGrid(32, 64))
    area = sec.mu_sigma.sum()

    sob = qmc.Sobol(d=2, scramble=True, seed=12345)
    u = sob.random_base2(m=18)
    cth = 1.0 - 2.0 * u[:, 0]
    th = np.arccos(cth)
    ph = 2 * math.pi * u[:, 1]
    h = 1e-4

    def embed(th, ph):
        om = cone.unit_directions(th, ph)
        r = q[0] - om @ q[1:]
        r0 = minkowski(q, q).real / (2 * r)
        return r0[:, None] * np.concatenate([np.ones((th.size, 1)), om], axis=1)

    t_th = (embed(th + h, ph) - embed(th - h, ph)) / (2 * h)
    t_ph = (embed(th, ph + h) - embed(th, ph - h)) / (2 * h)
    eta = np.diag([1.0, -1, -1, -1])
    g11 = -np.einsum("ni,ij,nj->n", t_th, eta, t_th)
    g22 = -np.einsum("ni,ij,nj->n", t_ph, eta, t_ph)
    g12 = -np.einsum("ni,ij,nj->n", t_th, eta, t_ph)
    jac = np.sqrt(g11 * g22 - g12 ** 2) / np.sin(th)
    mc = 4 * math.pi * np.mean(jac)
    assert abs(mc - area) / area < 1e-4


def test_area_element_jacobian_matches_exact():
    # numerical embedding Jacobian reproduces mu_sigma = r0^2 dOmega;
    # truncation comes from the 9-point theta stencils, so the error
    # should drop ~2^8 per grid doubling
    p0 = np.zeros(4)
    sec = cone.build_section(p0, np.array([1.5, 0, 0, 0]), cone.SphereGrid(24, 48))
    w_num = area_element(sec)
    assert np.max(np.abs(w_num - sec.mu_sigma) / sec.mu_sigma) < 1e-9
    q = np.array([2.0, 0.4, -0.2, 0.5])
    rels = []
    for nt in (24, 48):
        sec = cone.build_section(p0, q, cone.SphereGrid(nt, 2 * nt))
        w_num = area_element(sec)
        rels.append(np.max(np.abs(w_num - sec.mu_sigma) / sec.mu_sigma))
    assert rels[0] < 1e-5
    assert rels[1] < 1e-8
    assert rels[0] / rels[1] > 50.0


def test_grad_r0_r_fd():
    # FD in q of r0(q), r(q) at fixed omega reproduces (n, l)
    p0 = np.zeros(4)
    q = np.array([1.5, 0.4, 0.3, 0.2])
    g = cone.SphereGrid(8, 16)
    sec = cone.build_section(p0, q, g)
    h = 1e-6
    idx = [0, 11, 63]
    eta = np.diag([1.0, -1, -1, -1])
    for i in idx:
        om = sec.omega[i]
        num_r0 = np.empty(4)
        num_r = np.empty(4)
        for a in range(4):
            s = np.zeros(4)
            s[a] = h
            def radii(qq):
                u = qq - p0
                r = u[0] - om @ u[1:]
                return (u[0] ** 2 - u[1:] @ u[1:]) / (2 * r), r
            rp, rrp = radii(q + s)
            rm, rrm = radii(q - s)
            num_r0[a] = (rp - rm) / (2 * h)
            num_r[a] = (rrp - rrm) / (2 * h)
        # raise the covector index: grad^a = eta^{ab} d_b
        assert np.max(np.abs(eta @ num_r0 - sec.n[i])) < 1e-8
        assert np.max(np.abs(eta @ num_r - sec.l[i])) < 1e-10


def test_leray_factorization():
    # integral over a slab of the cone with mu_Gamma0 = (r0/2) dr0 dOmega
    # equals the s-integral of section integrals against mu_sigma/(4 r0 r)
    # weighted by dGamma_q/ds, for the on-axis family q(s) = (s,0,0,0)
    p0 = np.zeros(4)
    g = cone.SphereGrid(16, 32)
    a, b = 0.4, 0.9

    def f(p):
        # a smooth test function on the cone
        return np.exp(-p[:, 1] ** 2 - 0.5 * p[:, 2] - 0.3 * p[:, 0]) + 0.2 * p[:, 3] ** 2

    # lhs: product Gauss-Legendre in r0 x sphere grid
    xs, ws = np.polynomial.legendre.leggauss(24)
    r0s = 0.5 * (a + b) + 0.5 * (b - a) * xs
    wr = 0.5 * (b - a) * ws
    th, ph, wang, _ = g.angles()
    om = cone.unit_directions(th, ph)
    lhs = 0.0
    for r0, w in zip(r0s, wr):
        p = r0 * np.concatenate([np.ones((om.shape[0], 1)), om], axis=1)
        lhs += w * np.sum(wang * f(p) * (r0 / 2.0))
    # rhs: sections at q(s), s = 2 r0; dGamma_q/ds along the family at fixed p
    # equals s (Gamma_q = s^2 - 2 s r0), and ds = dr0 * 2
    rhs = 0.0
    for r0, w in zip(r0s, wr):
        s = 2.0 * r0
        sec = cone.build_section(p0, np.array([s, 0, 0, 0]), g)
        rhs += 2.0 * w * s * np.sum(sec.mu_leray * f(sec.p))
    assert abs(lhs - rhs) < 1e-12 * abs(lhs)


@pytest.mark.parametrize("n_theta", [4, 5, 8, 24, 48])
def test_theta_derivative_matrix_matches_lagrange_reference(n_theta):
    g = cone.SphereGrid(n_theta, 8)
    ref = _reference.theta_derivative_matrix(g)
    got = cone.theta_derivative_matrix(g)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_tangential_derivatives_of_stacked_fields():
    g = cone.SphereGrid(12, 24)
    td = cone.TangentialDerivatives(g)
    rng = np.random.default_rng(5)
    shape = (g.n_theta * g.n_phi, 3)
    fields = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for d in (td.d_theta, td.d_phi):
        out = d(fields)
        assert out.shape == fields.shape
        scale = np.max(np.abs(out))
        for k in range(fields.shape[1]):
            assert np.max(np.abs(out[:, k] - d(fields[:, k]))) <= 1e-14 * scale


def test_tangential_derivatives_spectral():
    # d_phi is spectral (exact for low harmonics); d_theta is a 9-point
    # Lagrange scheme, so check its truncation error and 8th-order decay.
    errs = []
    for nt in (24, 48):
        g = cone.SphereGrid(nt, 2 * nt)
        td = cone.TangentialDerivatives(g)
        th, ph, w, ch = g.angles()
        # a smooth scalar: f = (x - i y)(z) in the omega components
        om = cone.unit_directions(th, ph)
        f = (om[:, 1] - 1j * om[:, 2]) * om[:, 0]
        df_dth_exact = np.cos(2.0 * th) * np.exp(-1j * ph)
        df_dph_exact = (-np.sin(ph) - 1j * np.cos(ph)) * np.sin(th) * np.cos(th)
        assert np.max(np.abs(td.d_phi(f) - df_dph_exact)) < 1e-12
        errs.append(np.max(np.abs(td.d_theta(f) - df_dth_exact)))
    assert errs[0] < 1e-7
    assert errs[1] < 1e-9
    assert errs[0] / errs[1] > 50.0   # ~2^8 per doubling, allow slack


def test_grid_keeps_the_conjugate_basis_and_sections_derive_rho():
    a, b = cone.SphereGrid(8, 16), cone.SphereGrid(8, 16)
    assert a.obar is b.obar and not a.obar.flags.writeable
    assert np.array_equal(a.obar, np.conj(a.directions()[1]))
    sec = cone.build_section(_VERTEX, _FRAME_QS[0], a)
    assert "rho" not in vars(sec)
    assert np.array_equal(sec.rho, (-1.0 / sec.r0).astype(complex))
    assert vars(sec)["rho"] is sec.rho
