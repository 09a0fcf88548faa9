import math

import numpy as np
import pytest

from conerec import cone, oracles, spinor

from _reference import (bump_dirac_grids, c2_bump, dirac_apply_fd, dirac_symmetry_check,
                        minkowski, plane_wave_components, plane_wave_tensor,
                        sl_identity_check, sym_components, weyl_residual_fd)


RNG = np.random.default_rng(20260816)


def random_spec(n, rng=RNG):
    alpha = rng.normal(size=2) + 1j * rng.normal(size=2)
    amp = complex(rng.normal(), rng.normal())
    return oracles.PlaneWaveSpec(n, alpha, amplitude=amp)


def test_wave_vector_real_null_future():
    for _ in range(20):
        spec = random_spec(2)
        k = spec.k
        assert k.dtype == np.float64
        assert abs(minkowski(k, k)) < 1e-12 * np.dot(k, k)
        assert k[0] > 0


def test_components_at_origin_are_alpha_products():
    spec = oracles.PlaneWaveSpec(3, [2.0, -1.0 + 1j], amplitude=1.0)
    val = oracles.plane_wave_field(spec, np.zeros(4))
    a0, a1 = spec.alpha
    expect = [a0 ** (3 - j) * a1 ** j for j in range(4)]
    assert np.allclose(val.components, expect, rtol=0, atol=1e-15)


def test_field_matches_tensor_contractions():
    spec = random_spec(2)
    x = RNG.normal(size=4)
    t = plane_wave_tensor(spec, x)
    o_up = np.array([1.0, 0.0], dtype=complex)
    i_up = np.array([0.0, 1.0], dtype=complex)
    via_tensor = sym_components(t, o_up, i_up)
    direct = oracles.plane_wave_field(spec, x)
    assert np.allclose(via_tensor.components, direct.components, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_plane_wave_solves_field_equation(n):
    spec = random_spec(n)
    fld = lambda x: plane_wave_tensor(spec, x)
    for _ in range(3):
        x = RNG.normal(size=4)
        scale = np.max(np.abs(plane_wave_tensor(spec, x)))
        assert weyl_residual_fd(fld, n, x, 1e-3) < 1e-5 * max(scale, 1.0)


def test_dirac_plane_wave_grid_residual():
    spec = oracles.PlaneWaveSpec(1, [1.0, 0.3 + 0.4j], amplitude=0.7 + 0.1j)
    N, h = 7, 1e-2
    axes = [np.arange(N) * h + off for off in (0.1, -0.2, 0.05, 0.3)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    ph = np.exp(1j * spec.phase(mesh))
    phi = spec.amplitude * ph[..., None] * spec.alpha
    psi = (1.3 - 0.2j) * ph[..., None] * np.conj(spinor.raise_comps(spec.alpha))
    dphi, dpsi, mask = dirac_apply_fd(phi, psi, h)
    assert np.max(np.abs(dphi[mask])) < 1e-4
    assert np.max(np.abs(dpsi[mask])) < 1e-4


def test_plane_wave_components_vs_single_point():
    spec = random_spec(2)
    g = cone.SphereGrid(8, 16)
    th, ph, _, ch = g.angles()
    o_up, i_up = cone.spin_basis_field(th, ph, ch)
    x = RNG.normal(size=(th.size, 4))
    batch = plane_wave_components(spec, x, o_up, i_up)
    for i in (0, 37, 101):
        t = plane_wave_tensor(spec, x[i])
        val = sym_components(t, o_up[i], i_up[i])
        assert np.allclose(batch[i], val.components, atol=1e-13)


def test_cone_fn_and_radial_derivative():
    spec = random_spec(2)
    p0 = np.array([0.0, 0.1, -0.2, 0.05])
    fn, fn_dr0 = oracles.plane_wave_cone_fn(spec, p0)
    g = cone.SphereGrid(8, 16)
    th, ph, _, ch = g.angles()
    om = cone.unit_directions(th, ph)
    o_up, i_up = cone.spin_basis_field(th, ph, ch)
    r0 = 0.3 + RNG.random(th.size)
    # values agree with the ambient field at the cone points
    x = p0 + r0[:, None] * np.concatenate([np.ones((th.size, 1)), om], axis=1)
    assert np.allclose(fn(r0, om, o_up, i_up),
                       plane_wave_components(spec, x, o_up, i_up))
    # analytic generator derivative matches Richardson differences
    h = 1e-4
    fd = (fn(r0 + h, om, o_up, i_up) - fn(r0 - h, om, o_up, i_up)) / (2 * h)
    vals = fn(r0, om, o_up, i_up)
    assert np.max(np.abs(fd - fn_dr0(r0, om, o_up, i_up, vals))) < 1e-6


def test_dirac_cone_fn_projections():
    spec = oracles.PlaneWaveSpec(1, [0.7, -0.2 + 0.5j], amplitude=1.1)
    p0 = np.zeros(4)
    fn, fn_dr0 = oracles.plane_wave_dirac_cone_fn(spec, p0, psi_amplitude=0.8 - 0.3j)
    g = cone.SphereGrid(6, 12)
    th, ph, _, ch = g.angles()
    om = cone.unit_directions(th, ph)
    o_up, i_up = cone.spin_basis_field(th, ph, ch)
    r0 = np.full(th.size, 0.9)
    vals = fn(r0, om, o_up, i_up)
    x = r0[:, None] * np.concatenate([np.ones((th.size, 1)), om], axis=1)
    for i in (0, 17, 40):
        u = oracles.plane_wave_dirac(spec, x[i], psi_amplitude=0.8 - 0.3j)
        zeta0 = np.dot(u.phi, o_up[i])
        xi1 = np.dot(u.psi, spinor.lower_comps(np.conj(o_up[i])))
        assert abs(vals[i, 0] - zeta0) < 1e-13
        assert abs(vals[i, 1] - xi1) < 1e-13
    h = 1e-4
    fd = (fn(r0 + h, om, o_up, i_up) - fn(r0 - h, om, o_up, i_up)) / (2 * h)
    assert np.max(np.abs(fd - fn_dr0(r0, om, o_up, i_up, vals))) < 1e-6


def test_sl_identity_orders():
    # non-solution wave: both sides nonzero, difference O(h^2)
    c = np.array([0.3, 1.1, -0.7, 0.4])
    alpha = np.array([0.8 + 0.2j, -0.5 + 0.9j])
    fld = lambda x: alpha * np.exp(1j * np.dot(c, x))
    pt = np.array([0.2, -0.1, 0.4, 0.3])
    r1 = sl_identity_check(fld, 1, pt, 2e-2)
    r2 = sl_identity_check(fld, 1, pt, 1e-2)
    assert r1 / r2 > 3.8
    # exact plane-wave solutions, spin 1/2 and spin 2
    for n in (1, 2):
        spec = random_spec(n)
        sol = lambda x: plane_wave_tensor(spec, x)
        r1 = sl_identity_check(sol, n, pt, 2e-2)
        r2 = sl_identity_check(sol, n, pt, 1e-2)
        assert r1 / r2 > 3.8
    # constant field: both sides vanish identically
    const = lambda x: alpha
    assert sl_identity_check(const, 1, pt, 1e-2) < 1e-14


def test_bump_is_c2():
    y = np.linspace(-1.5, 1.5, 7)
    v = c2_bump(y)
    assert np.all(v[np.abs(y) >= 1] == 0)
    assert np.all(v[np.abs(y) < 1] > 0)
    # second derivative continuous at the edge: approaches 0 from inside
    h = 1e-4
    d2 = (c2_bump(1 - 2 * h) - 2 * c2_bump(1 - h)) / h ** 2
    assert abs(d2) < 1e-2


def test_dirac_symmetry_defect_orders():
    spec = oracles.PlaneWaveSpec(1, [1.0, 0.2 - 0.3j])
    spec2 = oracles.PlaneWaveSpec(1, [0.4 + 0.5j, 1.0], amplitude=0.6)
    center = np.array([0.0, 0.0, 0.0, 0.0])
    defects = []
    for n_pts in (12, 24):
        phi1, psi1, h = bump_dirac_grids(spec, center, 1.0, n_pts)
        phi2, psi2, _ = bump_dirac_grids(spec2, center, 1.0, n_pts,
                                         psi_amplitude=0.5 + 0.2j)
        defects.append(dirac_symmetry_check(phi1, psi1, phi2, psi2, h))
    assert defects[0] / defects[1] > 3.0   # O(h^2); bump edges soften slightly

    phi1, psi1, h = bump_dirac_grids(spec, center, 1.0, 12)
    zero = np.zeros_like(phi1)
    assert dirac_symmetry_check(phi1, psi1, zero, zero, h) == 0.0


def test_dirac_symmetry_rejects_boundary_support():
    phi = np.zeros((8, 8, 8, 8, 2), dtype=complex)
    psi = np.zeros_like(phi)
    phi[0, 4, 4, 4, 0] = 1.0
    with pytest.raises(ValueError):
        dirac_symmetry_check(phi, psi, phi, psi, 0.1)


def test_derivative_under_integral_orders():
    spec = oracles.PlaneWaveSpec(1, [1.0, 0.3 + 0.4j])

    def f(q, p):
        ph = np.exp(1j * spec.phase(p))
        u_phi = spec.amplitude * ph[..., None] * spec.alpha
        u_psi = ph[..., None] * np.conj(spinor.raise_comps(spec.alpha))
        qm = np.exp(0.3 * np.dot(np.asarray(q, float), [0.2, 0.1, -0.3, 0.05]))
        return qm * u_phi, qm * u_psi

    q = np.array([1.5, 0.2, -0.1, 0.3])
    r1 = oracles.derivative_under_integral_check(f, np.zeros(4), q, 2e-3)
    r2 = oracles.derivative_under_integral_check(f, np.zeros(4), q, 1e-3)
    assert r1["section"] < 1e-4 and r1["solid"] < 1e-4
    for key in ("section", "solid"):
        assert r1[key] / r2[key] > 3.8

    # constant f: the identity reduces to pure cone geometry
    const = lambda q, p: (np.broadcast_to([0.3 + 0.1j, -0.2j], p.shape[:-1] + (2,)),
                          np.broadcast_to([0.1, 0.7 - 0.4j], p.shape[:-1] + (2,)))
    res = oracles.derivative_under_integral_check(const, np.zeros(4), q, 1e-3)
    assert res["section"] < 1e-6
    assert res["solid"] < 1e-6

    # polynomial in p and q: larger FD constant, same O(h^2) order
    def poly(q, p):
        s = (p[..., 0] - 0.3 * p[..., 1]) * (1.0 + 0.2 * p[..., 2] ** 2)
        t = float(q[0] ** 2 - 0.5 * q[3])
        u_phi = np.stack([s * t, 0.4 * s], axis=-1)
        u_psi = np.stack([0.2 * s * t ** 2, s + t], axis=-1)
        return u_phi.astype(complex), u_psi.astype(complex)

    r1 = oracles.derivative_under_integral_check(poly, np.zeros(4), q, 2e-3)
    r2 = oracles.derivative_under_integral_check(poly, np.zeros(4), q, 1e-3)
    for key in ("section", "solid"):
        assert r2[key] < 1e-3
        assert r1[key] / r2[key] > 3.8


# -- direction factors kept per grid -------------------------------------------

_GRIDS = (cone.SphereGrid(16, 32), cone.SphereGrid(8, 16))
_P0_MEMO = np.array([0.05, -0.1, 0.02, 0.1])


def _pair(kind):
    if kind == "dirac":
        spec = random_spec(1, np.random.default_rng(7))
        return oracles.plane_wave_dirac_cone_fn(spec, _P0_MEMO, 0.3 + 0.8j)
    spec = random_spec(kind, np.random.default_rng(kind))
    return oracles.plane_wave_cone_fn(spec, _P0_MEMO, 1)


def _memos(*fns):
    """The _PerGrid memos a callback pair closes over, directly or through
    the functions it calls."""
    found, todo, seen = [], list(fns), set()
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, oracles._PerGrid):
            found.append(obj)
            todo.append(obj.f)
        for cell in getattr(obj, "__closure__", None) or ():
            todo.append(cell.cell_contents)
    return found


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _section_args(grid, r0):
    th, ph, _, ch = grid.angles()
    omega, o_up = grid.directions()
    return np.full(th.size, r0), omega, o_up, cone.spin_basis_field(th, ph, ch)[1]


@pytest.mark.parametrize("kind", [1, 2, 16, "dirac"])
def test_direction_memo_changes_no_bit(kind):
    # the grid's read-only tables are served from the memo, fine and half
    # grid in turn; writable copies of them are computed afresh
    fn, fn_dr0 = _pair(kind)
    for r0 in (0.6, 0.6, 0.9, 1.3):
        for grid in _GRIDS:
            args = _section_args(grid, r0)
            copies = (args[0], args[1].copy(), args[2].copy(), args[3])
            vals, fresh = fn(*args), fn(*copies)
            assert np.array_equal(_bits(vals), _bits(fresh))
            assert np.array_equal(_bits(fn_dr0(*args, vals)), _bits(fn_dr0(*copies, fresh)))
    memos = _memos(fn, fn_dr0)
    assert len(memos) == 3 and all(len(m.entries) == 2 for m in memos)


@pytest.mark.parametrize("kind", [2, "dirac"])
def test_direction_memo_never_serves_an_array_that_can_change(kind):
    fn, fn_dr0 = _pair(kind)
    r0, omega, o_up, iota_up = _section_args(_GRIDS[0], 0.8)
    omega, o_up = omega.copy(), o_up.copy()
    before = fn(r0, omega, o_up, iota_up)
    omega[:] = -omega[::-1]
    o_up *= 1j
    after = fn(r0, omega, o_up, iota_up)
    fresh = _pair(kind)[0](r0, omega.copy(), o_up.copy(), iota_up)
    assert np.array_equal(_bits(after), _bits(fresh))
    assert not np.allclose(after, before)
    # a read-only view reads a buffer that its base may still change
    view = omega.view()
    view.flags.writeable = False
    first = fn_dr0(r0, view, o_up, iota_up, after)
    omega *= 0.5
    assert not np.allclose(fn_dr0(r0, view, o_up, iota_up, after), first)
    assert all(not m.entries for m in _memos(fn, fn_dr0))


@pytest.mark.parametrize("kind", [2, "dirac"])
def test_converge_over_five_levels_keeps_two_grids(kind):
    from conerec.nulldata import ConeData
    from conerec.reconstruct import convergence_study
    fn, fn_dr0 = _pair(kind)
    data = (ConeData(1, kind="dirac", fn=fn, fn_dr0=fn_dr0) if kind == "dirac"
            else ConeData(kind, fn=fn, fn_dr0=fn_dr0))
    q = _P0_MEMO + np.array([1.4, 0.2, -0.1, 0.3])
    grids = [cone.SphereGrid(nt, 2 * nt) for nt in (8, 12, 16, 24, 32)]
    rows = convergence_study(_P0_MEMO, data, q, np.zeros(4 if kind == "dirac" else 3),
                             grids)
    assert len(rows) == 5
    memos = _memos(fn, fn_dr0)
    assert memos and all(len(m.entries) == 2 for m in memos)
    # what is left is the last level's grid and its half level's
    last = {id(a) for g in (cone.SphereGrid(32, 64), cone.SphereGrid(16, 32))
            for a in g.directions()}
    assert {id(key) for m in memos for key, _ in m.entries} <= last


def test_constraint_columns_read_iota_past_the_memo():
    # all n+1 columns contract iota, which changes with the section: the
    # memo keeps only eta(k, l), never a column
    from conerec.nulldata import ConeData, constraint_residual
    spec = random_spec(3, np.random.default_rng(3))
    fn, fn_dr0 = oracles.plane_wave_cone_fn(spec, _P0_MEMO)
    r0, omega, o_up, iota_up = _section_args(_GRIDS[0], 0.8)
    turned = fn(r0, omega, o_up, 2.0 * iota_up)
    plain = fn(r0, omega, o_up, iota_up)
    assert np.array_equal(turned[:, 0], plain[:, 0])
    for j in range(1, 4):
        assert np.allclose(turned[:, j], 2.0 ** j * plain[:, j], rtol=1e-14, atol=0)

    def copies(f):
        return lambda r0, om, o, io, *rest: f(r0, om.copy(), o.copy(), io, *rest)

    tables = [constraint_residual(ConeData(3, fn=f, fn_dr0=d), _P0_MEMO, [0.7, 1.1], g)
              for f, d in ((fn, fn_dr0), (copies(fn), copies(fn_dr0))) for g in _GRIDS]
    assert tables[:2] == tables[2:]
    assert all(len(m.entries) <= 2 for m in _memos(fn, fn_dr0))
