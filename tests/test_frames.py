import numpy as np
import pytest

from conerec import cone, frames, nulldata
from conerec.spinor import SIG_UP, from_matrix, lower_comps, lower_matrix, to_matrix

from _reference import spin_basis_from_tetrad, transversal_iota

S2 = np.sqrt(2.0)
# the null tetrad of the standard axes, l, n = (e0 +- e1)/sqrt2 and
# m = (e2 + i e3)/sqrt2, with its spin basis o = (1, 0), iota = (0, 1)
STANDARD = frames.NPFrame(np.array([1.0, 1.0, 0.0, 0.0]) / S2,
                          np.array([1.0, -1.0, 0.0, 0.0]) / S2,
                          np.array([0.0, 0.0, 1.0, 1.0j]) / S2,
                          np.array([1.0, 0.0], dtype=complex),
                          np.array([0.0, 1.0], dtype=complex))


def test_spin_basis_standard():
    o, iota = spin_basis_from_tetrad(STANDARD.l, STANDARD.n, STANDARD.m)
    # up to sign, o=(1,0), iota=(0,1); tie-break makes o[0] real positive
    assert np.allclose(o, [1.0, 0.0])
    assert np.allclose(iota, [0.0, 1.0])
    assert np.isclose(lower_comps(o) @ iota, 1.0)


def test_spin_basis_phase_rotated_m():
    fr = STANDARD
    th = 0.7
    o2, iota2 = spin_basis_from_tetrad(fr.l, fr.n, np.exp(1j * th) * fr.m)
    # the rotated tetrad is reproduced by the new pair
    assert np.allclose(np.outer(o2, o2.conj()), np.outer(fr.o, fr.o.conj()), atol=1e-12)
    m2 = from_matrix(np.outer(o2, iota2.conj()))
    assert np.allclose(m2, np.exp(1j * th) * fr.m, atol=1e-12)
    assert np.isclose(lower_comps(o2) @ iota2, 1.0)


def test_spin_basis_two_fold_cover():
    fr = STANDARD
    f2 = frames.frame_from_spin_basis(-fr.o, -fr.iota)
    assert np.allclose(f2.l, fr.l)
    assert np.allclose(f2.n, fr.n)
    assert np.allclose(f2.m, fr.m)


def test_spin_basis_degenerate_rejected():
    fr = STANDARD
    with pytest.raises(ValueError):
        spin_basis_from_tetrad(fr.l, fr.l, fr.m)  # n = l is inconsistent
    with pytest.raises(ValueError):
        spin_basis_from_tetrad(np.array([1.0, 0, 0, 0]), fr.n, fr.m)  # not null


def test_transversal_iota_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(20):
        th, ph = rng.uniform(0.1, 3.0), rng.uniform(0, 2 * np.pi)
        o, _ = cone.spin_basis_field(np.array([th]), np.array([ph]), np.array([0]))
        o = o[0]
        om = np.array([np.cos(th), np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph)])
        n = np.concatenate([[0.5], -0.5 * om])
        iota = transversal_iota(o, n)
        assert abs(lower_comps(o) @ iota - 1.0) < 1e-12
        assert np.allclose(np.outer(iota, iota.conj()),
                           __import__("conerec.spinor", fromlist=["to_matrix"]).to_matrix(n.astype(complex)),
                           atol=1e-12)


def test_transversal_iota_rows_match_the_section_frame():
    sec = cone.build_section(np.zeros(4), np.array([1.5, 0.4, 0.3, 0.2]),
                             cone.SphereGrid(8, 16))
    rows = transversal_iota(sec.o, sec.n)
    assert rows.shape == sec.iota.shape
    # the section takes iota from the chord q - p0, not from each row's n
    scale = np.max(np.abs(sec.iota))
    assert np.max(np.abs(rows - sec.iota)) <= 4 * np.spacing(scale)
    assert np.array_equal(transversal_iota(sec.o[5], sec.n[5]), rows[5])


def test_transversal_iota_matches_the_matrix_contraction():
    # reference: n^{AA'} as a 2x2 matrix contracted with obar_{A'}
    rng = np.random.default_rng(11)
    o = rng.standard_normal((500, 2)) + 1j * rng.standard_normal((500, 2))
    n = rng.standard_normal((500, 4))
    ref = np.einsum("nij,nj->ni", to_matrix(n.astype(complex)), lower_comps(o).conj())
    got = transversal_iota(o, n)
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
    # leading axes are kept as given
    stacked = transversal_iota(o.reshape(5, 100, 2), n.reshape(5, 100, 4))
    assert np.array_equal(stacked.reshape(500, 2), got)


# ---------------------------------------------------------------------------
# spin coefficients of the section frame on the flat cone

R0_AXIS = 0.7
# sigma(q) of the vertex 0 and q = (2 r0, 0, 0, 0) is the sphere at r0
Q_AXIS = np.array([2.0 * R0_AXIS, 0.0, 0.0, 0.0])
# the theta stencils' truncation bounds the tangential derivatives
AXIS_GRIDS = ((16, 1e-7), (32, 1e-9))


def _axis_coefficients(n_theta):
    sec = cone.build_section(np.zeros(4), Q_AXIS, cone.SphereGrid(n_theta, 2 * n_theta))
    return sec, nulldata.section_spin_coefficients(sec)


def test_flat_cone_rho():
    # rho = -1/r0 at every node
    for n_theta, tol in AXIS_GRIDS:
        _, coef = _axis_coefficients(n_theta)
        assert np.max(np.abs(coef["rho"] + 1.0 / R0_AXIS)) < tol


def test_flat_cone_vanishing_coefficients():
    # sigma' = 0 at every node
    for n_theta, tol in AXIS_GRIDS:
        _, coef = _axis_coefficients(n_theta)
        assert np.max(np.abs(coef["sigma_prime"])) < tol
    # kappa, epsilon and tau' differentiate the frame along l, and
    # section_spin_coefficients leaves them out as zero: the frame of a
    # generator is the same on every on-axis section
    grid = cone.SphereGrid(16, 32)
    first, *later = [cone.build_section(np.zeros(4), np.array([s, 0.0, 0.0, 0.0]), grid)
                     for s in (0.8, 1.3, 1.6)]
    for sec in later:
        assert np.array_equal(sec.o, first.o)
        assert np.max(np.abs(sec.iota - first.iota)) <= 1e-15


def test_flat_cone_alpha():
    # alpha agrees with the chart-A closed form e^{-i phi} tan(th/2)/(2 sqrt2 r0)
    for n_theta, _ in AXIS_GRIDS:
        sec, coef = _axis_coefficients(n_theta)
        a = sec.chart == 0
        expect = np.exp(-1j * sec.phi[a]) * np.tan(sec.theta[a] / 2) / (2 * S2 * R0_AXIS)
        assert np.max(np.abs(coef["alpha"][a] - expect)) < 1e-11


def test_real_rho_on_spacelike_orthogonal_section():
    # l and n are the null normals of any section, and the cone's expansion
    # does not depend on the cross-section: on a tilted section too, rho is
    # real and -1/r0, with r0 varying over the nodes
    sec = cone.build_section(np.zeros(4), np.array([2.0, 0.4, -0.2, 0.5]),
                             cone.SphereGrid(32, 64))
    rho = nulldata.section_spin_coefficients(sec)["rho"]
    assert np.max(np.abs(rho.imag)) < 1e-8
    assert np.max(np.abs(rho + 1.0 / sec.r0)) < 1e-7


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
        return transversal_iota(o, n), r

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
