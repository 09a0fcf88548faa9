import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conerec import spinor as sp


def rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_epsilon_convention():
    assert sp.EPS[0, 1] == 1.0
    assert sp.EPS[1, 0] == -1.0
    # raising then lowering is the identity
    rng = np.random.default_rng(0)
    k = rand_complex(rng, (2,))
    s = sp.SpinorVal(k, ("unprimed", "lower"))
    back = sp.raise_lower(sp.raise_lower(s))
    assert np.allclose(back.components, k)
    # the standard basis: o_A iota^A = 1
    o_up = np.array([1.0, 0.0], dtype=complex)
    iota_up = np.array([0.0, 1.0], dtype=complex)
    o_low = sp.lower_comps(o_up)
    assert np.isclose(o_low @ iota_up, 1.0)
    assert np.isclose(sp.raise_comps(o_low) @ sp.lower_comps(iota_up), -1.0)


def test_vector_matrix_roundtrip():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(4)
    m = sp.to_matrix(sp.FourVector(v))
    assert np.allclose(sp.from_matrix(m), v)
    # real vector -> Hermitian matrix
    assert np.allclose(m, m.conj().T)


def test_metric_from_determinant():
    # eta(v, v) = 2 det v^{AA'}
    rng = np.random.default_rng(2)
    for _ in range(20):
        v = rng.standard_normal(4)
        m = sp.to_matrix(sp.FourVector(v))
        assert np.isclose(2.0 * np.linalg.det(m), sp.minkowski(v, v))


def test_null_tetrad_of_reference_frame():
    # l = (e0+e1)/sqrt2 must be o obar with o = (1,0)
    l = (np.array([1.0, 0, 0, 0]) + np.array([0, 1.0, 0, 0])) / sp.SQRT2
    m = sp.to_matrix(sp.FourVector(l))
    o = np.array([1.0, 0.0], dtype=complex)
    assert np.allclose(m, np.outer(o, o.conj()))
    n = (np.array([1.0, 0, 0, 0]) - np.array([0, 1.0, 0, 0])) / sp.SQRT2
    iota = np.array([0.0, 1.0], dtype=complex)
    assert np.allclose(sp.to_matrix(sp.FourVector(n)), np.outer(iota, iota.conj()))
    mvec = (np.array([0, 0, 1.0, 0]) + 1j * np.array([0, 0, 0, 1.0])) / sp.SQRT2
    assert np.allclose(sp.to_matrix(mvec), np.outer(o, iota.conj()))


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_clifford_squares_to_metric(seed):
    # V . (V . u) = eta(V, V) u for real V
    rng = np.random.default_rng(seed)
    v = sp.FourVector(rng.standard_normal(4))
    u = sp.DiracSpinorValue(rand_complex(rng, (2,)), rand_complex(rng, (2,)))
    vvu = sp.clifford_mul(v, sp.clifford_mul(v, u))
    s = sp.minkowski(v, v)
    assert np.allclose(vvu.phi, s * u.phi, atol=1e-12)
    assert np.allclose(vvu.psi, s * u.psi, atol=1e-12)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_clifford_symmetric_wrt_product(seed):
    # (V.u, w) = (u, V.w)
    rng = np.random.default_rng(seed)
    v = sp.FourVector(rng.standard_normal(4))
    u = sp.DiracSpinorValue(rand_complex(rng, (2,)), rand_complex(rng, (2,)))
    w = sp.DiracSpinorValue(rand_complex(rng, (2,)), rand_complex(rng, (2,)))
    lhs = sp.symplectic_product(sp.clifford_mul(v, u), w)
    rhs = sp.symplectic_product(u, sp.clifford_mul(v, w))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_symplectic_antisymmetry():
    rng = np.random.default_rng(3)
    u = sp.DiracSpinorValue(rand_complex(rng, (2,)), rand_complex(rng, (2,)))
    w = sp.DiracSpinorValue(rand_complex(rng, (2,)), rand_complex(rng, (2,)))
    assert np.isclose(sp.symplectic_product(u, w), -sp.symplectic_product(w, u))


def test_dirac_fd_on_plane_wave():
    # phi_A = alpha_A exp(i k x), psi^{A'} = beta^{A'} exp(i k x) with
    # k^{AA'} = alpha^A alphabar^{A'}: each half solves its Weyl equation,
    # so the Dirac operator output should vanish at O(h^2).
    alpha_up = np.array([0.3 + 0.1j, -0.7 + 0.4j])
    kmat = np.outer(alpha_up, alpha_up.conj())
    kvec = sp.from_matrix(kmat).real  # null, future-pointing
    assert abs(sp.minkowski(kvec, kvec)) < 1e-12

    n = 9
    h = 0.02
    axes = [np.arange(n) * h for _ in range(4)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    phase = np.exp(1j * np.einsum("...a,ab,b->...", grid, sp.ETA, kvec))

    alpha_low = sp.lower_comps(alpha_up)
    beta_up = alpha_up.conj()  # then grad_{AA'} psi^{A'} ~ k_{AA'} alphabar^{A'}... need null contraction
    phi = alpha_low[None, None, None, None, :] * phase[..., None]
    psi = beta_up[None, None, None, None, :] * phase[..., None]

    dphi, dpsi, interior = sp.dirac_apply_fd(phi, psi, h)
    # grad^{AA'} phi_A = i k^{AA'} alpha_A e^{ikx}; k^{AA'} alpha_A has
    # a factor alpha^A alpha_A = 0.  Same null contraction kills the
    # primed half.  The FD result must vanish to truncation error.
    scale = np.max(np.abs(phi))
    assert np.max(np.abs(dpsi[interior])) < 1e-4 * scale
    assert np.max(np.abs(dphi[interior])) < 1e-4 * scale


def test_sym_components_roundtrip():
    rng = np.random.default_rng(4)
    o_up = np.array([1.0, 0.0], dtype=complex)
    iota_up = np.array([0.0, 1.0], dtype=complex)
    for n in (1, 2, 3, 4):
        vals = rand_complex(rng, (n + 1,))
        sv = sp.SymSpinorValue(n, vals)
        tensor = sp.sym_assemble(sv, o_up, iota_up)
        back = sp.sym_components(tensor, o_up, iota_up)
        assert np.allclose(back.components, vals, atol=1e-12)


def test_sym_components_of_outer_power():
    # phi_{AB} = alpha_A alpha_B gives phi_j = (alpha_A o^A)^(2-j) (alpha_A iota^A)^j
    # contracted the other way round: phi_j = phi with (2-j) o-slots, j iota-slots
    rng = np.random.default_rng(5)
    alpha_up = rand_complex(rng, (2,))
    alpha_low = sp.lower_comps(alpha_up)
    o_up = np.array([1.0, 0.0], dtype=complex)
    iota_up = np.array([0.0, 1.0], dtype=complex)
    tensor = np.multiply.outer(alpha_low, alpha_low)
    sv = sp.sym_components(tensor, o_up, iota_up)
    a0 = alpha_low @ o_up
    a1 = alpha_low @ iota_up
    expect = np.array([a0 * a0, a0 * a1, a1 * a1])
    assert np.allclose(sv.components, expect)


def test_sym_components_rejects_asymmetry():
    o_up = np.array([1.0, 0.0], dtype=complex)
    iota_up = np.array([0.0, 1.0], dtype=complex)
    bad = np.zeros((2, 2), dtype=complex)
    bad[0, 1] = 1.0  # antisymmetric part only
    with pytest.raises(ValueError):
        sp.sym_components(bad, o_up, iota_up)


def test_clifford_null_vector_nilpotent():
    # For null V, V.V.u = 0; acting on its own principal spinor gives 0 too.
    alpha_up = np.array([1.1 - 0.2j, 0.3 + 0.9j])
    kmat = np.outer(alpha_up, alpha_up.conj())
    kvec = sp.from_matrix(kmat).real
    u = sp.DiracSpinorValue(sp.lower_comps(alpha_up), np.zeros(2, dtype=complex))
    vu = sp.clifford_mul(sp.FourVector(kvec), u)
    # V^{AA'} phi_A = alpha^A alphabar^{A'} alpha_A e-contraction = 0
    assert np.allclose(vu.psi, 0.0, atol=1e-12)


def test_central_partials_exact_on_quadratics():
    # a central difference is exact, up to rounding, on a quadratic
    rng = np.random.default_rng(3)
    b = rng.standard_normal((4, 2, 3)) + 1j * rng.standard_normal((4, 2, 3))
    c = rng.standard_normal((4, 4, 2, 3))

    def f(x):
        return np.einsum("a,a...->...", x, b) + np.einsum("a,b,ab...->...", x, x, c)

    x = np.array([0.3, -1.2, 0.7, 2.0])
    d = sp.central_partials(f, x, 0.25)
    assert d.shape == (4, 2, 3)
    exact = b + np.einsum("b,ab...->a...", x, c) + np.einsum("a,ab...->b...", x, c)
    assert np.max(np.abs(d - exact)) < 1e-12
