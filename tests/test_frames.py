import numpy as np
import pytest

from conerec import cone, frames
from conerec.spinor import (ETA, SIG_UP, from_matrix, lower_comps, lower_matrix,
                            minkowski, to_matrix)


def standard_axes():
    return [np.eye(4)[a] for a in range(4)]


def boost_x(rapidity):
    ch, sh = np.cosh(rapidity), np.sinh(rapidity)
    B = np.eye(4)
    B[0, 0] = B[1, 1] = ch
    B[0, 1] = B[1, 0] = sh
    return B


def test_tetrad_from_standard_axes():
    fr = frames.tetrad_from_frame(*standard_axes())
    s2 = np.sqrt(2.0)
    assert np.allclose(fr.l, [1 / s2, 1 / s2, 0, 0])
    assert np.allclose(fr.n, [1 / s2, -1 / s2, 0, 0])
    assert np.allclose(fr.m, [0, 0, 1 / s2, 1j / s2])
    fr.validate(1e-12)


def test_tetrad_from_boosted_frame():
    B = boost_x(0.3)
    es = [B @ e for e in standard_axes()]
    fr = frames.tetrad_from_frame(*es)
    prods = frames.np_products(fr.l, fr.n, fr.m)
    for key, want in [("ll", 0), ("nn", 0), ("mm", 0), ("ln", 1),
                      ("mmbar", -1), ("lm", 0), ("nm", 0)]:
        assert abs(prods[key] - want) < 1e-12
    fr.validate(1e-10)


def test_tetrad_from_permuted_axes():
    e0, e1, e2, e3 = standard_axes()
    fr = frames.tetrad_from_frame(e0, e3, e1, e2)
    assert np.allclose(fr.m, (np.eye(4)[1] + 1j * np.eye(4)[2]) / np.sqrt(2))
    fr.validate(1e-12)


def test_tetrad_rejects_non_orthonormal():
    e0, e1, e2, e3 = standard_axes()
    with pytest.raises(ValueError, match="orthonormal"):
        frames.tetrad_from_frame(e0, e1, e2, e2)


def test_spin_basis_standard():
    fr = frames.tetrad_from_frame(*standard_axes())
    # up to sign, o=(1,0), iota=(0,1); tie-break makes o[0] real positive
    assert np.allclose(fr.o, [2.0 ** 0.25 / 2 ** 0.25 * 1.0, 0.0])  # unit: o=(1,0)
    assert np.allclose(fr.o, [1.0, 0.0])
    assert np.allclose(fr.iota, [0.0, 1.0])
    assert np.isclose(lower_comps(fr.o) @ fr.iota, 1.0)


def test_spin_basis_phase_rotated_m():
    fr = frames.tetrad_from_frame(*standard_axes())
    th = 0.7
    o2, iota2 = frames.spin_basis_from_tetrad(fr.l, fr.n, np.exp(1j * th) * fr.m)
    # the rotated tetrad is reproduced by the new pair
    assert np.allclose(np.outer(o2, o2.conj()), np.outer(fr.o, fr.o.conj()), atol=1e-12)
    m2 = from_matrix(np.outer(o2, iota2.conj()))
    assert np.allclose(m2, np.exp(1j * th) * fr.m, atol=1e-12)
    assert np.isclose(lower_comps(o2) @ iota2, 1.0)


def test_spin_basis_two_fold_cover():
    fr = frames.tetrad_from_frame(*standard_axes())
    f2 = frames.frame_from_spin_basis(-fr.o, -fr.iota)
    assert np.allclose(f2.l, fr.l)
    assert np.allclose(f2.n, fr.n)
    assert np.allclose(f2.m, fr.m)


def test_spin_basis_degenerate_rejected():
    fr = frames.tetrad_from_frame(*standard_axes())
    with pytest.raises(ValueError):
        frames.spin_basis_from_tetrad(fr.l, fr.l, fr.m)  # n = l is inconsistent
    with pytest.raises(ValueError):
        frames.spin_basis_from_tetrad(np.array([1.0, 0, 0, 0]), fr.n, fr.m)  # not null


def test_transversal_iota_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(20):
        th, ph = rng.uniform(0.1, 3.0), rng.uniform(0, 2 * np.pi)
        o, _ = cone.spin_basis_field(np.array([th]), np.array([ph]), np.array([0]))
        o = o[0]
        om = np.array([np.cos(th), np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph)])
        n = np.concatenate([[0.5], -0.5 * om])
        iota = frames.transversal_iota(o, n)
        assert abs(lower_comps(o) @ iota - 1.0) < 1e-12
        assert np.allclose(np.outer(iota, iota.conj()),
                           __import__("conerec.spinor", fromlist=["to_matrix"]).to_matrix(n.astype(complex)),
                           atol=1e-12)


def test_transversal_iota_rows_match_the_section_frame():
    sec = cone.build_section(np.zeros(4), np.array([1.5, 0.4, 0.3, 0.2]),
                             cone.SphereGrid(8, 16))
    rows = frames.transversal_iota(sec.o, sec.n)
    assert rows.shape == sec.iota.shape
    assert np.array_equal(rows, sec.iota)
    assert np.array_equal(frames.transversal_iota(sec.o[5], sec.n[5]), rows[5])


def test_transversal_iota_matches_the_matrix_contraction():
    # reference: n^{AA'} as a 2x2 matrix contracted with obar_{A'}
    rng = np.random.default_rng(11)
    o = rng.standard_normal((500, 2)) + 1j * rng.standard_normal((500, 2))
    n = rng.standard_normal((500, 4))
    ref = np.einsum("nij,nj->ni", to_matrix(n.astype(complex)), lower_comps(o).conj())
    got = frames.transversal_iota(o, n)
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
    # leading axes are kept as given
    stacked = frames.transversal_iota(o.reshape(5, 100, 2), n.reshape(5, 100, 4))
    assert np.array_equal(stacked.reshape(500, 2), got)


# ---------------------------------------------------------------------------
# spin coefficients on the flat cone


Q_AXIS = np.array([2.0, 0.0, 0.0, 0.0])


def cone_frame_field(x):
    """Canonical adapted frame on C+(0): l=(1,omega), n=(1,-omega)/2, chart A."""
    w = x[1:]
    rad = np.linalg.norm(w)
    om = w / rad
    th = np.arccos(np.clip(om[0], -1, 1))
    ph = np.arctan2(om[2], om[1])
    o, _ = cone.spin_basis_field(np.array([th]), np.array([ph]), np.array([0]))
    o = o[0]
    l = np.concatenate([[1.0], om])
    n = np.concatenate([[0.5], -0.5 * om])
    iota = frames.transversal_iota(o, n)
    m = from_matrix(np.outer(o, iota.conj()))
    return frames.NPFrame(l, n, m, o, iota)


def test_constant_frame_field_zero_coefficients():
    fr = frames.tetrad_from_frame(*standard_axes())
    sc = frames.spin_coefficients_fd(lambda x: fr, np.zeros(4), 1e-3)
    for name in ("rho", "rho_prime", "sigma_prime", "tau_prime", "kappa", "epsilon", "alpha"):
        assert abs(getattr(sc, name)) < 1e-14


def test_flat_cone_rho():
    # rho = -1/r0 + O(h^2), from analytic differentiation of l = (1, omega)
    th, ph, r0 = 1.1, 0.4, 0.7
    om = np.array([np.cos(th), np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph)])
    pt = np.concatenate([[r0], r0 * om])
    for h, tol in ((1e-3, 3e-6), (1e-4, 3e-8)):
        sc = frames.spin_coefficients_fd(cone_frame_field, pt, h)
        assert abs(sc.rho - (-1.0 / r0)) < tol


def test_flat_cone_vanishing_coefficients():
    # kappa, epsilon, tau', sigma' are zero on the adapted cone frame
    th, ph, r0 = 0.9, 2.1, 1.3
    om = np.array([np.cos(th), np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph)])
    pt = np.concatenate([[r0], r0 * om])
    sc = frames.spin_coefficients_fd(cone_frame_field, pt, 1e-4)
    for name in ("kappa", "epsilon", "tau_prime", "sigma_prime"):
        assert abs(getattr(sc, name)) < 1e-8, name


def test_flat_cone_alpha():
    # alpha agrees with the chart-A closed form e^{-i phi} tan(th/2)/(2 sqrt2 r0)
    th, ph, r0 = 1.1, 0.4, 0.7
    om = np.array([np.cos(th), np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph)])
    pt = np.concatenate([[r0], r0 * om])
    sc = frames.spin_coefficients_fd(cone_frame_field, pt, 1e-4)
    expect = np.exp(-1j * ph) * np.tan(th / 2) / (2 * np.sqrt(2) * r0)
    assert abs(sc.alpha - expect) < 1e-8


def test_real_rho_on_spacelike_orthogonal_section():
    # l, n orthogonal to the constant-time sphere: Im rho = Im rho' = 0
    th, ph, r0 = 1.3, 5.0, 0.5
    om = np.array([np.cos(th), np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph)])
    pt = np.concatenate([[r0], r0 * om])
    sc = frames.spin_coefficients_fd(cone_frame_field, pt, 1e-5)
    assert abs(sc.rho.imag) < 1e-10
    assert abs(sc.rho_prime.imag) < 1e-10


def test_mean_curvature_identity():
    # H = 2(rho' l + rho n) against a direct FD mean curvature of the
    # embedded surface (the r0-sphere cross-section of the cone)
    r0 = 0.8
    th0, ph0 = 1.0, 0.7

    def embed(th, ph):
        om = np.array([np.cos(th), np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph)])
        return np.concatenate([[r0], r0 * om])

    h = 1e-4
    # tangents and second derivatives of the embedding
    def d1(f, i):
        e = [0, 0]
        e[i] = h
        return (f(th0 + e[0], ph0 + e[1]) - f(th0 - e[0], ph0 - e[1])) / (2 * h)

    t_th = d1(embed, 0)
    t_ph = d1(embed, 1)
    g = np.empty((2, 2))
    for i, u in enumerate((t_th, t_ph)):
        for j, v in enumerate((t_th, t_ph)):
            g[i, j] = -minkowski(u, v).real   # induced Riemannian metric
    ginv = np.linalg.inv(g)
    # second fundamental form trace: H^mu = g^{ij} (d2_{ij} x^mu - Gamma^k_{ij} d_k x^mu)
    d2 = np.empty((2, 2, 4))
    steps = [(h, 0), (0, h)]
    for i in range(2):
        for j in range(2):
            si, sj = steps[i], steps[j]
            if i == j:
                d2[i][j] = (embed(th0 + si[0], ph0 + si[1]) - 2 * embed(th0, ph0)
                            + embed(th0 - si[0], ph0 - si[1])) / h ** 2
            else:
                d2[i][j] = (embed(th0 + h, ph0 + h) - embed(th0 + h, ph0 - h)
                            - embed(th0 - h, ph0 + h) + embed(th0 - h, ph0 - h)) / (4 * h ** 2)
    # Christoffels of the induced metric by FD of g under parameter shifts
    def metric_at(th, ph):
        tt = (embed(th + h, ph) - embed(th - h, ph)) / (2 * h)
        tp = (embed(th, ph + h) - embed(th, ph - h)) / (2 * h)
        gm = np.empty((2, 2))
        for i, u in enumerate((tt, tp)):
            for j, v in enumerate((tt, tp)):
                gm[i, j] = -minkowski(u, v).real
        return gm

    dg = np.empty((2, 2, 2))
    dg[0] = (metric_at(th0 + h, ph0) - metric_at(th0 - h, ph0)) / (2 * h)
    dg[1] = (metric_at(th0, ph0 + h) - metric_at(th0, ph0 - h)) / (2 * h)
    gam = np.empty((2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                gam[k, i, j] = 0.5 * sum(
                    ginv[k, m] * (dg[i][j, m] + dg[j][i, m] - dg[m][i, j])
                    for m in range(2))
    H_fd = np.zeros(4)
    for i in range(2):
        for j in range(2):
            tang = gam[0, i, j] * t_th + gam[1, i, j] * t_ph
            H_fd += ginv[i, j] * (d2[i][j] - tang)
    H_fd = -H_fd   # orientation: mean curvature w.r.t. the outward spatial normal

    pt = embed(th0, ph0)
    sc = frames.spin_coefficients_fd(cone_frame_field, pt, 1e-4)
    fr = cone_frame_field(pt)
    H_np = 2 * (sc.rho_prime * fr.l + sc.rho * fr.n)
    assert np.max(np.abs(H_np.imag)) < 1e-7
    assert np.max(np.abs(H_np.real - H_fd)) < 1e-6


def test_iota_gradient_identity():
    # grad^q_{BB'} iota^A = -(1/r) iota_B obar_{B'} o^A for the section
    # frame at a fixed generator direction, as a derivative in q
    p0 = np.zeros(4)
    th, ph = 1.1, 0.4
    om = np.array([np.cos(th), np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph)])
    l = np.concatenate([[1.0], om])
    o, _ = cone.spin_basis_field(np.array([th]), np.array([ph]), np.array([0]))
    o = o[0]

    def node_iota(qq):
        u = qq - p0
        r = u[0] - om @ u[1:]
        r0 = (u[0] ** 2 - u[1:] @ u[1:]) / (2 * r)
        p = p0 + r0 * l
        n = (qq - p) / r
        return frames.transversal_iota(o, n), r

    q = np.array([2.0, 0.1, -0.3, 0.2])
    iota0, r = node_iota(q)
    h = 1e-5
    diota = np.empty((4, 2), dtype=complex)
    for a in range(4):
        s = np.zeros(4)
        s[a] = h
        ip, _ = node_iota(q + s)
        im, _ = node_iota(q - s)
        diota[a] = (ip - im) / (2 * h)
    sig_low = lower_matrix(SIG_UP)
    lhs = np.einsum("aij,ak->ijk", sig_low, diota)
    rhs = -np.einsum("i,j,k->ijk", lower_comps(iota0), lower_comps(o).conj(), o) / r
    assert np.max(np.abs(lhs - rhs)) < 1e-9
