"""Characteristic data storage, tangential operators, constraint checks."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conerec import nulldata as nd
from conerec import oracles as orc
from conerec.cone import SphereGrid, build_section, spin_basis_field, unit_directions
from conerec.errors import ConfigError
from conerec.nulldata import ConeData, WeightedScalarField, eth_prime
from conerec.spinor import ETA, lower_comps, raise_comps

from _reference import plane_wave_components, richardson_dr0, spline_eval

rng = np.random.default_rng(20260816)

P0 = np.zeros(4)


def _spec(n=1):
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return orc.PlaneWaveSpec(n, a)


def _grid_sample(spec, grid, r0_nodes):
    fn, _ = orc.plane_wave_cone_fn(spec, P0)
    th, ph, w, ch = grid.angles()
    o_up, iota_up = spin_basis_field(th, ph, ch)
    om = unit_directions(th, ph)
    vals = np.stack([fn(np.full(th.size, r), om, o_up, iota_up)
                     for r in r0_nodes])
    return ConeData(spec.n, grid=grid, r0_nodes=r0_nodes, values=vals)


# ---------------------------------------------------------------------------
# storage and radial derivatives


def test_cone_data_validation():
    grid = SphereGrid(8, 16)
    nodes = np.linspace(0.5, 1.0, 6)
    n_dir = grid.angles()[0].size
    vals = np.zeros((6, n_dir, 2), dtype=complex)
    with pytest.raises(ValueError):
        ConeData(0, fn=lambda *a: None)
    with pytest.raises(ValueError):
        ConeData(1, kind="other", fn=lambda *a: None)
    with pytest.raises(ValueError):
        ConeData(2, kind="dirac", fn=lambda *a: None)
    with pytest.raises(ValueError):
        ConeData(1, grid=grid, r0_nodes=nodes)          # values missing
    with pytest.raises(ValueError):
        ConeData(1, grid=grid, r0_nodes=nodes[::-1], values=vals)
    with pytest.raises(ValueError):
        ConeData(1, grid=grid, r0_nodes=nodes - 0.6, values=vals)
    with pytest.raises(ValueError):
        ConeData(1, grid=grid, r0_nodes=nodes, values=vals[:, :5])


def test_analytic_data_needs_its_exact_derivative():
    with pytest.raises(ValueError, match="fn_dr0"):
        ConeData(1, fn=lambda r0, om, o, i: np.ones((r0.size, 1), complex))


def test_analytic_matches_ambient_plane_wave():
    spec = _spec(2)
    fn, fn_dr0 = orc.plane_wave_cone_fn(spec, P0)
    data = ConeData(2, fn=fn, fn_dr0=fn_dr0)
    sec = build_section(P0, np.array([1.3, 0.2, -0.1, 0.3]), SphereGrid(12, 24))
    vals = data.evaluate_on(sec)[0]
    expect = plane_wave_components(spec, sec.p, sec.o, sec.iota)
    assert np.max(np.abs(vals - expect)) < 1e-12


def test_radial_derivative_vertex_guard():
    data = ConeData(1, fn=lambda r0, om, o, i: (r0 ** 2).astype(complex)[:, None],
                    fn_dr0=lambda r0, om, o, i, v: (2.0 * r0).astype(complex)[:, None],
                    r0_min=0.1)
    om = unit_directions(np.array([0.3]), np.array([0.0]))
    with pytest.raises(ValueError):
        data.evaluate(np.array([0.05]), om, None, None)


def _relative(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def _off_axis_section(grid=SphereGrid(16, 32)):
    return build_section(np.array([0.1, -0.2, 0.05, 0.1]),
                         np.array([1.6, 0.3, -0.2, 0.4]), grid)


def _eta_k_l(spec, omega):
    """eta(k, l) at l = (1, omega), formed as the plane-wave oracles form it."""
    k_low = ETA @ spec.k
    return k_low[0] + omega @ k_low[1:]


@pytest.mark.parametrize("family, n, columns", [("spin", 1, 1), ("spin", 4, 1),
                                                ("spin", 4, 5), ("dirac", 1, 2)])
def test_analytic_evaluate_runs_one_plane_wave_evaluation(monkeypatch, family, n, columns):
    # both families evaluate through _cone_fn_pair's node_values; count
    # its calls, whichever callback makes them
    calls = []
    real = orc._cone_fn_pair

    def counting(spec, p0, node_values):
        def counted(o_up, iota_up, e):
            calls.append(e.size)
            return node_values(o_up, iota_up, e)

        return real(spec, p0, counted)

    monkeypatch.setattr(orc, "_cone_fn_pair", counting)
    spec = orc.PlaneWaveSpec(n, [0.6 + 0.2j, -0.3 + 0.5j], amplitude=0.9 + 0.2j)
    if family == "dirac":
        fn, fn_dr0 = orc.plane_wave_dirac_cone_fn(spec, P0, psi_amplitude=0.8 - 0.3j)
    else:
        fn, fn_dr0 = orc.plane_wave_cone_fn(spec, P0, columns)
    data = ConeData(n, kind=family, fn=fn, fn_dr0=fn_dr0)
    sec = _off_axis_section()
    vals, dvals = data.evaluate_on(sec)
    assert calls == [sec.n_nodes]
    assert vals.shape == dvals.shape == (sec.n_nodes, columns)


@pytest.mark.parametrize("n", [1, 2, 4, 16])
@pytest.mark.parametrize("all_columns", [False, True], ids=["phi0", "all"])
def test_one_call_pair_equals_the_separate_plane_wave_pair(n, all_columns):
    spec = orc.PlaneWaveSpec(n, [0.6 + 0.2j, -0.3 + 0.5j], amplitude=0.9 + 0.2j)
    p0 = np.array([0.1, -0.2, 0.05, 0.1])
    columns = n + 1 if all_columns else 1
    fn, fn_dr0 = orc.plane_wave_cone_fn(spec, p0, columns)
    data = ConeData(n, fn=fn, fn_dr0=fn_dr0)
    sec = _off_axis_section()
    vals, dvals = data.evaluate_on(sec)
    assert vals.shape == dvals.shape == (sec.n_nodes, columns)
    alone = fn(sec.r0, sec.omega, sec.o, sec.iota)
    assert np.array_equal(vals, alone)
    assert np.array_equal(dvals, fn_dr0(sec.r0, sec.omega, sec.o, sec.iota, alone))
    assert np.array_equal(dvals, 1j * _eta_k_l(spec, sec.omega)[:, None] * alone)
    # the ambient field at the section points, and i eta(k, l) times it
    ref = plane_wave_components(spec, sec.p, sec.o, sec.iota)[:, :columns]
    kl = sec.l @ (ETA @ spec.k)
    assert _relative(vals, ref) <= 1e-14
    assert _relative(dvals, 1j * kl[:, None] * ref) <= 1e-14


def test_one_call_pair_equals_the_separate_dirac_pair():
    spec = orc.PlaneWaveSpec(1, [0.7, -0.2 + 0.5j], amplitude=1.1)
    p0 = np.array([0.1, -0.2, 0.05, 0.1])
    fn, fn_dr0 = orc.plane_wave_dirac_cone_fn(spec, p0, psi_amplitude=0.8 - 0.3j)
    data = ConeData(1, kind="dirac", fn=fn, fn_dr0=fn_dr0)
    sec = _off_axis_section()
    vals, dvals = data.evaluate_on(sec)
    alone = fn(sec.r0, sec.omega, sec.o, sec.iota)
    assert np.array_equal(vals, alone)
    assert np.array_equal(dvals, fn_dr0(sec.r0, sec.omega, sec.o, sec.iota, alone))
    assert np.array_equal(dvals, 1j * _eta_k_l(spec, sec.omega)[:, None] * alone)
    ph = np.exp(1j * spec.phase(sec.p))
    zeta0 = spec.amplitude * np.einsum("a,na->n", spec.alpha, sec.o) * ph
    psi = (0.8 - 0.3j) * np.conj(raise_comps(spec.alpha))
    xi1 = np.einsum("a,na->n", psi, lower_comps(np.conj(sec.o))) * ph
    ref = np.stack([zeta0, xi1], axis=-1)
    kl = sec.l @ (ETA @ spec.k)
    assert _relative(vals, ref) <= 1e-14
    assert _relative(dvals, 1j * kl[:, None] * ref) <= 1e-14


def test_one_call_pair_equals_the_separate_spline_pair():
    from scipy.interpolate import CubicSpline
    grid = SphereGrid(8, 16)
    spec = orc.PlaneWaveSpec(2, [0.6 + 0.2j, -0.3 + 0.5j])
    data = _grid_sample(spec, grid, np.linspace(0.2, 1.4, 12))
    sec = _off_axis_section(grid)
    vals, dvals = data.evaluate_on(sec)
    # the spline and its derivative, each evaluated on its own
    ref = CubicSpline(data.r0_nodes, data.values, axis=0)
    per_node = np.arange(sec.n_nodes)
    assert _relative(vals, ref(sec.r0)[per_node, per_node]) <= 1e-14
    assert _relative(dvals, ref(sec.r0, 1)[per_node, per_node]) <= 1e-14
    # a Richardson difference of the values agrees with the derivative
    fd = richardson_dr0(lambda r: data.evaluate(r, sec.omega, sec.o, sec.iota)[0],
                        sec.r0, 1e-3)
    assert _relative(fd, dvals) < 1e-6


def test_grid_data_interpolates_plane_wave():
    spec = _spec(1)
    grid = SphereGrid(12, 24)
    fn, fn_dr0 = orc.plane_wave_cone_fn(spec, P0)

    # on-axis section: section frame equals the sampling frame, so all
    # stored components agree with the ambient restriction
    on_axis = build_section(P0, np.array([1.0, 0.0, 0.0, 0.0]), grid)
    data40 = _grid_sample(spec, grid, np.linspace(0.2, 1.0, 40))
    exact_on = fn(on_axis.r0, on_axis.omega, on_axis.o, on_axis.iota)
    assert np.max(np.abs(data40.evaluate_on(on_axis)[0] - exact_on)) < 1e-6

    # off-axis: r0 varies across nodes; only phi_0 is frame insensitive
    sec = build_section(P0, np.array([1.3, 0.2, -0.1, 0.3]), grid)
    exact = fn(sec.r0, sec.omega, sec.o, sec.iota)[:, 0]
    exact_d = fn_dr0(sec.r0, sec.omega, sec.o, sec.iota,
                     fn(sec.r0, sec.omega, sec.o, sec.iota))[:, 0]
    errs, errs_d = [], []
    for n_r in (20, 40):
        data = _grid_sample(spec, grid, np.linspace(0.2, 1.0, n_r))
        vals, dvals = data.evaluate_on(sec)
        errs.append(np.max(np.abs(vals[:, 0] - exact)))
        errs_d.append(np.max(np.abs(dvals[:, 0] - exact_d)))
    # cubic spline: O(h^4) values, O(h^3) derivative
    assert errs[0] / errs[1] > 10.0
    assert errs_d[0] / errs_d[1] > 6.0
    assert errs[1] < 1e-6 and errs_d[1] < 1e-4


@pytest.mark.parametrize("k", [4, 40])
@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("ncomp", [1, 2])
def test_grid_spline_matches_scipy_not_a_knot(k, uniform, ncomp):
    from scipy.interpolate import CubicSpline
    gen = np.random.default_rng(100 * k + 10 * uniform + ncomp)
    grid = SphereGrid(4, 8)
    n_dir = grid.angles()[0].size
    nodes = (np.linspace(0.3, 2.0, k) if uniform
             else np.sort(gen.uniform(0.3, 2.0, k)))
    vals = (gen.standard_normal((k, n_dir, ncomp))
            + 1j * gen.standard_normal((k, n_dir, ncomp)))
    data = ConeData(1, grid=grid, r0_nodes=nodes, values=vals)
    r0 = gen.uniform(nodes[0], nodes[-1], n_dir)
    r0[:3] = nodes[0], nodes[-1], nodes[1]      # both ends and a knot
    om, o = grid.directions()
    ref = CubicSpline(nodes, vals, axis=0)
    per_node = np.arange(n_dir)
    want = ref(r0)[per_node, per_node]
    want_d = ref(r0, 1)[per_node, per_node]
    got, got_d = data.evaluate(r0, om, o, None)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.max(np.abs(got_d - want_d)) <= 1e-12 * np.max(np.abs(want_d))


@pytest.mark.parametrize("bad, key", [("r0_nodes", "r0_nodes"), ("values", "values"),
                                      ("r0_min", "r0_min")])
def test_grid_data_rejects_non_finite_input(bad, key):
    grid = SphereGrid(4, 8)
    args = {"r0_nodes": np.linspace(0.5, 1.0, 6),
            "values": np.zeros((6, grid.angles()[0].size, 1), dtype=complex),
            "r0_min": 0.0}
    if bad == "r0_min":
        args[bad] = np.nan
    else:
        args[bad][1] = np.nan
    with pytest.raises(ValueError, match=key):
        ConeData(1, grid=grid, **args)


def _src_env():
    """The environment with this package's source tree first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(nd.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_cli_and_library_import_without_scipy():
    code = ("import sys; import conerec.cli, conerec.reconstruct, conerec.nulldata, "
            "conerec.transport, conerec.oracles; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_grid_data_domain_and_grid_guards():
    spec = _spec(1)
    grid = SphereGrid(12, 24)
    data = _grid_sample(spec, grid, np.linspace(0.3, 0.45, 8))
    sec = build_section(P0, np.array([1.0, 0.0, 0.0, 0.0]), grid)  # r0 = 0.5
    with pytest.raises(ValueError):
        data.evaluate_on(sec)
    other = build_section(P0, np.array([0.8, 0.0, 0.0, 0.0]), SphereGrid(12, 26))
    with pytest.raises(ValueError):
        data.evaluate_on(other)


def test_grid_data_reads_only_its_own_directions():
    # 16x16 and 8x32 grids both have 256 nodes
    data = _grid_sample(_spec(1), SphereGrid(16, 16), np.linspace(0.2, 1.6, 8))
    q = np.array([1.3, 0.2, -0.1, 0.3])
    other = build_section(P0, q, SphereGrid(8, 32))
    with pytest.raises(ValueError, match="section grid does not match the data grid"):
        data.evaluate_on(other)
    with pytest.raises(ValueError, match="section grid does not match the data grid"):
        data.evaluate(other.r0, other.omega, other.o, other.iota)
    # equal directions need not be the grid's own array
    own = build_section(P0, q, SphereGrid(16, 16))
    copied = data.evaluate(own.r0, own.omega.copy(), own.o, own.iota)
    for got, want in zip(copied, data.evaluate_on(own)):
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# eth' on sections


@pytest.mark.parametrize("q_point", [np.array([1.0, 0.0, 0.0, 0.0]),
                                     np.array([1.5, 0.3, -0.2, 0.4])])
def test_eth_prime_of_o_components(q_point):
    # eth' o^A = -rho iota^A, componentwise as weight (1,0) scalars
    errs = []
    for n_theta in (16, 32):
        sec = build_section(P0, q_point, SphereGrid(n_theta, 2 * n_theta))
        worst = 0.0
        for comp in range(2):
            out = eth_prime(WeightedScalarField(sec.o[:, comp], (1, 0)), sec)
            assert out.weight == (0, 1)
            worst = max(worst, np.max(np.abs(out.values
                                             + sec.rho * sec.iota[:, comp])))
        errs.append(worst)
    assert errs[0] < 2e-5 and errs[1] < 1e-7
    assert errs[0] / errs[1] > 100.0


def test_eth_prime_constant_scalar_is_zero():
    sec = build_section(P0, np.array([1.0, 0.0, 0.0, 0.0]), SphereGrid(16, 32))
    out = eth_prime(WeightedScalarField(np.full(sec.n_nodes, 2.3 + 0.7j), (0, 0)), sec)
    assert np.max(np.abs(out.values)) < 1e-12


def _random_weight_1m1_field(sec, rng):
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    u = sec.o @ w                       # weight (1,0)
    v = np.conj(sec.iota) @ z           # ibar^{A'} contraction, weight (0,-1)
    g = np.exp(0.4 * sec.omega[:, 0]) * (1.0 + 0.3 * sec.omega[:, 1]
                                         - 0.2 * sec.omega[:, 2] ** 2)
    return u * v * g


def test_eth_prime_total_integral_vanishes():
    # integral over the section of eth'(weight (1,-1)) vanishes
    gen = np.random.default_rng(7)
    for q_point in (np.array([1.0, 0.0, 0.0, 0.0]),
                    np.array([2.0, 0.4, -0.3, 0.5])):
        sec = build_section(P0, q_point, SphereGrid(32, 64))
        calc = nd._SectionCalculus(sec)
        for _ in range(10):
            f = WeightedScalarField(_random_weight_1m1_field(sec, gen), (1, -1))
            out = eth_prime(f, sec, calculus=calc)
            scale = np.max(np.abs(f.values)) * np.sum(sec.mu_sigma)
            assert abs(np.sum(out.values * sec.mu_sigma)) < 1e-8 * scale


def test_eth_prime_weight_covariance():
    # constant rescale o -> lam o, iota -> iota/lam: values of a regenerated
    # (p,q) field pick up lam^p lambar^q and eth' output transforms with
    # weight (p-1, q+1)
    lam = 1.4 * np.exp(0.6j)
    sec = build_section(P0, np.array([1.0, 0.0, 0.0, 0.0]), SphereGrid(16, 32))
    sec2 = dataclasses.replace(sec, o=lam * sec.o, iota=sec.iota / lam)
    gen = np.random.default_rng(3)
    f1 = _random_weight_1m1_field(sec, gen)
    gen = np.random.default_rng(3)
    f2 = _random_weight_1m1_field(sec2, gen)
    p, q = 1, -1
    fac = lam ** p * np.conj(lam) ** q
    assert np.max(np.abs(f2 - fac * f1)) < 1e-12 * np.max(np.abs(f1))
    out1 = eth_prime(WeightedScalarField(f1, (p, q)), sec)
    out2 = eth_prime(WeightedScalarField(f2, (p, q)), sec2)
    out_fac = lam ** (p - 1) * np.conj(lam) ** (q + 1)
    err = np.max(np.abs(out2.values - out_fac * out1.values))
    assert err < 1e-12 * max(np.max(np.abs(out1.values)), 1.0)


def test_weighted_scalar_field_integer_weights():
    with pytest.raises(ValueError):
        WeightedScalarField(np.zeros(4), (0.5, 0))


def test_angular_resolution_guard():
    with pytest.raises(ValueError):
        SphereGrid(8, 6)


# ---------------------------------------------------------------------------
# constraint relations


def test_constraint_residual_exact_solution_converges():
    spec = _spec(1)
    fn, fn_dr0 = orc.plane_wave_cone_fn(spec, P0)
    data = ConeData(1, fn=fn, fn_dr0=fn_dr0)
    res = []
    for n_theta in (16, 32):
        r = nd.constraint_residual(data, P0, [0.8, 1.6], SphereGrid(n_theta, 2 * n_theta))
        res.append(max(r.values()))
    assert res[0] < 1e-2
    assert res[1] < 1e-6
    assert res[0] / res[1] > 100.0


def test_constraint_residual_higher_valence():
    spec = _spec(3)
    fn, fn_dr0 = orc.plane_wave_cone_fn(spec, P0)
    data = ConeData(3, fn=fn, fn_dr0=fn_dr0)
    r = nd.constraint_residual(data, P0, [1.0], SphereGrid(24, 48))
    assert set(r) == {1, 2, 3}
    assert max(r.values()) < 1e-6


def test_constraint_residual_zero_data():
    data = ConeData(2, fn=lambda r0, om, o, i: np.zeros((r0.size, 3), complex),
                    fn_dr0=lambda r0, om, o, i, v: np.zeros((r0.size, 3), complex))
    r = nd.constraint_residual(data, P0, [1.0], SphereGrid(12, 24))
    assert max(r.values()) == 0.0


def test_constraint_residual_of_nan_data_is_nan():
    # a NaN residual must not lose to the running maximum's start value 0
    data = ConeData(2, fn=lambda r0, om, o, i: np.full((r0.size, 3), np.nan, complex),
                    fn_dr0=lambda r0, om, o, i, v: np.zeros((r0.size, 3), complex))
    r = nd.constraint_residual(data, P0, [1.0, 1.5], SphereGrid(12, 24))
    assert all(np.isnan(v) for v in r.values())


def test_constraint_residual_perturbation_scales_linearly():
    spec = _spec(1)
    fn, fn_dr0 = orc.plane_wave_cone_fn(spec, P0)
    grid = SphereGrid(16, 32)

    def perturbed(delta):
        def f(r0, om, o, i):
            out = fn(r0, om, o, i).copy()
            out[:, 1] += delta * np.sin(r0) * (1.0 + om[:, 1])
            return out

        def fd(r0, om, o, i, values):
            # the plane wave's part of values, handed to its own derivative
            out = fn_dr0(r0, om, o, i, fn(r0, om, o, i)).copy()
            out[:, 1] += delta * np.cos(r0) * (1.0 + om[:, 1])
            return out

        return ConeData(1, fn=f, fn_dr0=fd)

    base = max(nd.constraint_residual(perturbed(0.0), P0, [1.0], grid).values())
    r1 = max(nd.constraint_residual(perturbed(1e-3), P0, [1.0], grid).values())
    r2 = max(nd.constraint_residual(perturbed(2e-3), P0, [1.0], grid).values())
    assert r1 > 100.0 * base
    assert abs((r2 - base) / (r1 - base) - 2.0) < 0.1


def test_constraint_residual_missing_components():
    data = ConeData(2, fn=lambda r0, om, o, i: np.zeros((r0.size, 1), complex),
                    fn_dr0=lambda r0, om, o, i, v: np.zeros((r0.size, 1), complex))
    with pytest.raises(ValueError):
        nd.constraint_residual(data, P0, [1.0], SphereGrid(12, 24))


# ---------------------------------------------------------------------------
# file round trip


def test_save_load_round_trip(tmp_path):
    spec = _spec(2)
    grid = SphereGrid(12, 24)
    data = _grid_sample(spec, grid, np.linspace(0.2, 1.0, 9))
    path = os.path.join(tmp_path, "wave")
    nd.save_cone_data(path, data)
    back = nd.load_cone_data(path + ".json")
    assert back.valence == 2 and back.kind == "spin"
    assert np.array_equal(back.r0_nodes, data.r0_nodes)
    assert np.array_equal(back.values, data.values)
    assert back.grid.n_theta == 12 and back.grid.n_phi == 24
    sec = build_section(P0, np.array([1.0, 0.0, 0.0, 0.0]), grid)
    assert np.array_equal(back.evaluate_on(sec)[0], data.evaluate_on(sec)[0])


def test_loaded_values_are_a_read_only_view_of_the_file(tmp_path):
    data = _grid_sample(_spec(1), SphereGrid(8, 16), np.linspace(0.2, 1.0, 5))
    path = os.path.join(tmp_path, "wave")
    nd.save_cone_data(path, data)
    back = nd.load_cone_data(path + ".json")
    assert not back.values.flags.writeable
    assert not back.values.flags.owndata
    with pytest.raises(ValueError):
        back.values[0, 0, 0] = 0.0


def _saved_blob(tmp_path, blob):
    """A one-component 8x16 spin file of 4 nodes whose blob holds `blob`."""
    path = os.path.join(tmp_path, "wave")
    nd.save_cone_data(path, ConeData(1, grid=SphereGrid(8, 16), values=np.ones((4, 128)),
                                     r0_nodes=np.linspace(100.0, 400.0, 4)))
    np.asarray(blob, dtype="<c16").tofile(path + ".bin")
    return path + ".json"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_blob_is_refused_naming_the_blob(tmp_path, value):
    blob = np.ones(4 * 128, dtype=complex)
    blob[77] = complex(0.0, value)
    with pytest.raises(ConfigError, match="blob 'wave.bin'.*values must be finite"):
        nd.load_cone_data(_saved_blob(tmp_path, blob))


def test_finite_blob_whose_sum_overflows_loads(tmp_path):
    # the finiteness scan starts from the sum of the blob; an overflowing
    # sum of finite terms must not read as a non-finite value
    blob = 1e308 * (1 + 1j) * np.resize([1.0, 1.0, -1.0], 4 * 128)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(blob.view(float).sum())
    back = nd.load_cone_data(_saved_blob(tmp_path, blob))
    assert np.array_equal(back.values.ravel(), blob)
    assert np.all(np.isfinite(back._moments))


@pytest.mark.parametrize("kind", ["spin", "dirac"])
def test_mapped_file_evaluates_like_copied_values(tmp_path, kind):
    grid = SphereGrid(12, 24)
    th, ph, _, ch = grid.angles()
    o_up, iota_up = spin_basis_field(th, ph, ch)
    om = unit_directions(th, ph)
    spec = _spec(1 if kind == "dirac" else 2)
    fn = (orc.plane_wave_dirac_cone_fn(spec, P0, 0.7) if kind == "dirac"
          else orc.plane_wave_cone_fn(spec, P0, columns=1))[0]
    r0_nodes = np.linspace(0.2, 1.6, 11)
    vals = np.stack([fn(np.full(th.size, r), om, o_up, iota_up) for r in r0_nodes])
    path = os.path.join(tmp_path, "wave")
    nd.save_cone_data(path, ConeData(spec.n, kind=kind, grid=grid, r0_nodes=r0_nodes,
                                     values=vals))
    mapped = nd.load_cone_data(path + ".json")
    copied = ConeData(spec.n, kind=kind, grid=grid, r0_nodes=r0_nodes,
                      values=np.fromfile(path + ".bin", dtype="<c16").reshape(vals.shape))
    for q in ([1.0, 0.0, 0.0, 0.0], [1.5, 0.4, -0.3, 0.2], [2.0, 0.1, 0.2, 0.9]):
        sec = build_section(P0, np.array(q), grid)
        got = mapped.evaluate_on(sec)
        for want in (copied.evaluate_on(sec), spline_eval(copied, sec.r0)):
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_save_replaces_files_under_a_reader_that_maps_them(tmp_path):
    # a mapping of a blob truncated in place would read the new data (or
    # fault past its end); a replaced blob keeps the reader's pages.  Run
    # apart, so a fault cannot take the test process with it.
    code = """if True:
        import os, sys
        import numpy as np
        from conerec import nulldata as nd
        from conerec.cone import SphereGrid, build_section
        path = os.path.join(sys.argv[1], "wave")
        grid = SphereGrid(8, 16)
        r0_nodes = np.linspace(0.2, 1.0, 5)
        vals = np.arange(5 * 128, dtype=float).reshape(5, 128) * (1 + 0.5j)
        nd.save_cone_data(path, nd.ConeData(1, grid=grid, r0_nodes=r0_nodes, values=vals))
        first = nd.load_cone_data(path + ".json")
        sec = build_section(np.zeros(4), np.array([1.0, 0.0, 0.0, 0.0]), grid)
        before = first.evaluate_on(sec)
        nd.save_cone_data(path, nd.ConeData(1, grid=grid, r0_nodes=r0_nodes, values=-vals))
        after = first.evaluate_on(sec)
        assert all(np.array_equal(b, a) for b, a in zip(before, after))
        assert np.array_equal(first.values[..., 0], vals)
        assert np.array_equal(nd.load_cone_data(path + ".json").values[..., 0], -vals)
        print(sorted(os.listdir(sys.argv[1])))
    """
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=_src_env(),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['wave.bin', 'wave.json']"


def test_interrupted_save_leaves_the_old_pair(tmp_path, monkeypatch):
    data = _grid_sample(_spec(1), SphereGrid(8, 16), np.linspace(0.2, 1.0, 5))
    path = os.path.join(tmp_path, "wave")
    nd.save_cone_data(path, data)
    old = {name: (tmp_path / name).read_bytes() for name in ("wave.bin", "wave.json")}

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(nd.os, "replace", fail)
    other = ConeData(1, grid=data.grid, r0_nodes=data.r0_nodes + 0.1, values=2 * data.values)
    with pytest.raises(OSError, match="disk full"):
        nd.save_cone_data(path, other)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old


def test_descriptor_keeps_the_two_chart_grid_literals(tmp_path):
    # conedata-v1 files name the one grid they describe, as they always have
    data = _grid_sample(_spec(1), SphereGrid(8, 16), np.linspace(0.2, 1.0, 5))
    path = os.path.join(tmp_path, "wave")
    nd.save_cone_data(path, data)
    with open(path + ".json") as fh:
        text = fh.read()
    assert '"cap": 0.0,' in text and '"chart_mode": "double",' in text


def test_descriptor_keeps_the_blob_literals(tmp_path):
    # the reader requires what the writer writes, from one table
    data = _grid_sample(_spec(1), SphereGrid(8, 16), np.linspace(0.2, 1.0, 5))
    path = os.path.join(tmp_path, "wave")
    nd.save_cone_data(path, data)
    with open(path + ".json") as fh:
        text = fh.read()
    assert '"dtype": "<c16",' in text
    assert '"layout": "r0-major, ring-major directions, component-minor",' in text
    assert os.path.getsize(path + ".bin") == 16 * data.values.size


def test_load_checks_the_blob_size_before_building_the_grid(tmp_path, monkeypatch):
    # a descriptor at the grid bound over an 8x16 blob is refused by its
    # arithmetic alone, before the 1024-ring grid would be built
    data = _grid_sample(_spec(1), SphereGrid(8, 16), np.linspace(0.2, 1.0, 5))
    path = os.path.join(tmp_path, "wave")
    nd.save_cone_data(path, data)
    with open(path + ".json") as fh:
        desc = json.load(fh)
    desc.update(n_theta=1024, n_phi=1024)
    with open(path + ".json", "w") as fh:
        json.dump(desc, fh)

    def no_grid(*args):
        raise AssertionError("grid built before the blob was checked")

    monkeypatch.setattr(nd, "SphereGrid", no_grid)
    with pytest.raises(ValueError, match="blob size does not match the descriptor"):
        nd.load_cone_data(path + ".json")


def test_save_rejects_analytic(tmp_path):
    data = ConeData(1, fn=lambda r0, om, o, i: np.ones((r0.size, 1), complex),
                    fn_dr0=lambda r0, om, o, i, v: np.zeros((r0.size, 1), complex))
    with pytest.raises(ValueError):
        nd.save_cone_data(os.path.join(tmp_path, "x"), data)


def test_load_rejects_foreign_descriptor(tmp_path):
    p = os.path.join(tmp_path, "bad.json")
    with open(p, "w") as fh:
        fh.write('{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        nd.load_cone_data(p)


@pytest.mark.parametrize("kind", ["spin", "dirac"])
def test_spline_eval_equals_the_reference_formula_bit_for_bit(tmp_path, kind):
    # _spline_eval forms dx (m1 - m0) once for the value and the derivative;
    # both must keep every bit of the formula that writes it out twice,
    # at radii between nodes, on nodes and at both ends.  Few nodes and a
    # short wave make the cubic terms large enough that a reordered
    # product shows in the last bits.
    grid = SphereGrid(16, 32)
    th, ph, _, ch = grid.angles()
    o_up, iota_up = spin_basis_field(th, ph, ch)
    om = unit_directions(th, ph)
    spec = orc.PlaneWaveSpec(1 if kind == "dirac" else 3, [2.0 + 1.0j, -1.5 + 0.5j])
    fn = (orc.plane_wave_dirac_cone_fn(spec, P0, 0.4 - 0.3j) if kind == "dirac"
          else orc.plane_wave_cone_fn(spec, P0, columns=1))[0]
    r0_nodes = np.linspace(0.25, 1.75, 6)
    vals = np.stack([fn(np.full(th.size, r), om, o_up, iota_up) for r in r0_nodes])
    path = os.path.join(tmp_path, "wave")
    nd.save_cone_data(path, ConeData(spec.n, kind=kind, grid=grid, r0_nodes=r0_nodes,
                                     values=vals))
    data = nd.load_cone_data(path + ".json")
    local = np.random.default_rng(29)
    for r0 in (local.uniform(0.25, 1.75, th.size), local.choice(r0_nodes, th.size),
               np.where(np.arange(th.size) % 2, 0.25, 1.75)):
        got, want = data._spline_eval(r0), spline_eval(data, r0)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.array_equal(g.view(np.int64), w.view(np.int64))
