"""Interior reconstruction from cone data: flat integral formulas."""

import numpy as np
import pytest

import conerec.reconstruct as rec
from conerec import oracles as orc
from conerec.nulldata import ConeData
from conerec.reconstruct import (QuadratureSpec, convergence_study,
                                 reconstruct_dirac, reconstruct_spin_n)

from _reference import richardson_dr0, sym_assemble, sym_components, weyl_residual_fd

rng = np.random.default_rng(20260816)

P0 = np.zeros(4)
Q_POINTS = [np.array([1.0, 0.0, 0.0, 0.0]),
            np.array([2.0, 0.0, 0.0, 1.0]),
            np.array([1.5, 0.4, 0.3, 0.2])]
REF_SPEC = QuadratureSpec(64, 128)


def _dirac_setup(psi_amp=None):
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    pw = orc.PlaneWaveSpec(1, a)
    b = psi_amp if psi_amp is not None else complex(rng.standard_normal(),
                                                    rng.standard_normal())
    fn, fn_dr0 = orc.plane_wave_dirac_cone_fn(pw, P0, psi_amplitude=b)
    return pw, b, ConeData(1, kind="dirac", fn=fn, fn_dr0=fn_dr0)


def _spin_setup(n):
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    pw = orc.PlaneWaveSpec(n, a)
    fn, fn_dr0 = orc.plane_wave_cone_fn(pw, P0)
    return pw, ConeData(n, fn=fn, fn_dr0=fn_dr0)


def _dirac_rel_err(result, exact):
    err = max(np.max(np.abs(result.value.phi - exact.phi)),
              np.max(np.abs(result.value.psi - exact.psi)))
    scale = max(np.max(np.abs(exact.phi)), np.max(np.abs(exact.psi)))
    return err / scale


# ---------------------------------------------------------------------------
# exact plane-wave reconstruction


@pytest.mark.parametrize("q", Q_POINTS)
def test_dirac_plane_wave(q):
    pw, b, data = _dirac_setup()
    res = reconstruct_dirac(P0, data, q, REF_SPEC)
    exact = orc.plane_wave_dirac(pw, q, psi_amplitude=b)
    assert _dirac_rel_err(res, exact) < 1e-6


@pytest.mark.parametrize("n", [2, 3, 4])
def test_spin_n_plane_wave(n):
    pw, data = _spin_setup(n)
    q = Q_POINTS[2]
    res = reconstruct_spin_n(P0, data, n, q, QuadratureSpec(48, 96))
    exact = orc.plane_wave_field(pw, q)
    rel = np.max(np.abs(res.value.components - exact.components)) \
        / np.max(np.abs(exact.components))
    assert rel < 1e-6
    assert res.value.valence == n


# q = p0 + t (1, 0.3, 0.2, -0.1) has interval 0.86 t^2: deep inside the
# cone however close to the vertex, so build_section's bound, relative to
# t^2, keeps it
@pytest.mark.parametrize("t", [1e-4, 1e-6])
@pytest.mark.parametrize("n", [1, 2, 8])
def test_plane_wave_near_the_vertex(n, t):
    pw = orc.PlaneWaveSpec(n, np.array([1.0, 0.3 + 0.4j]))
    fn, fn_dr0 = orc.plane_wave_cone_fn(pw, P0)
    q = P0 + t * np.array([1.0, 0.3, 0.2, -0.1])
    res = reconstruct_spin_n(P0, ConeData(n, fn=fn, fn_dr0=fn_dr0), n, q, QuadratureSpec(24, 48))
    exact = orc.plane_wave_field(pw, q)
    rel = np.max(np.abs(res.value.components - exact.components)) \
        / np.max(np.abs(exact.components))
    assert rel < 1e-13


def test_spin_one_matches_dirac_unprimed():
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    pw = orc.PlaneWaveSpec(1, a)
    fnd, fnd_d = orc.plane_wave_dirac_cone_fn(pw, P0, psi_amplitude=0.3 + 0.1j)
    fns, fns_d = orc.plane_wave_cone_fn(pw, P0)
    ddir = ConeData(1, kind="dirac", fn=fnd, fn_dr0=fnd_d)
    dspin = ConeData(1, fn=fns, fn_dr0=fns_d)
    spec = QuadratureSpec(24, 48)
    q = Q_POINTS[1]
    r_spin = reconstruct_spin_n(P0, dspin, 1, q, spec)
    r_dirac = reconstruct_dirac(P0, ddir, q, spec)
    # standard-frame scalars of the lower unprimed half
    std_o = np.array([1.0, 0.0])
    std_iota = np.array([0.0, 1.0])
    from_dirac = np.array([r_dirac.value.phi @ std_o, r_dirac.value.phi @ std_iota])
    assert np.max(np.abs(r_spin.value.components - from_dirac)) < 1e-10


def _differenced(data, h=1e-3):
    """data with its exact r0 derivative replaced by a Richardson
    difference of its values with step h."""
    def fn_dr0(r0, omega, o_up, iota_up, values):
        return richardson_dr0(lambda r: data.fn(r, omega, o_up, iota_up), r0, h)

    return ConeData(data.valence, kind=data.kind, fn=data.fn, fn_dr0=fn_dr0)


def test_richardson_radial_path():
    pw, b, data = _dirac_setup()
    q = Q_POINTS[2]
    res = reconstruct_dirac(P0, _differenced(data), q, QuadratureSpec(32, 64))
    exact = orc.plane_wave_dirac(pw, q, psi_amplitude=b)
    assert _dirac_rel_err(res, exact) < 1e-9


def test_grid_data_reconstruction():
    from conerec.cone import spin_basis_field, unit_directions
    pw, data_exact = _spin_setup(2)
    fn, _ = orc.plane_wave_cone_fn(pw, P0)
    grid = QuadratureSpec(32, 64).grid()
    th, ph, w, ch = grid.angles()
    o_up, iota_up = spin_basis_field(th, ph, ch)
    om = unit_directions(th, ph)
    nodes = np.linspace(0.1, 1.2, 160)
    vals = np.stack([fn(np.full(th.size, r), om, o_up, iota_up)[:, :1]
                     for r in nodes])
    data = ConeData(2, grid=grid, r0_nodes=nodes, values=vals)
    q = Q_POINTS[2]
    res = reconstruct_spin_n(P0, data, 2, q, QuadratureSpec(32, 64))
    exact = orc.plane_wave_field(pw, q)
    rel = np.max(np.abs(res.value.components - exact.components)) \
        / np.max(np.abs(exact.components))
    assert rel < 1e-5


# ---------------------------------------------------------------------------
# structural properties


def test_zero_data_zero_value():
    zero_spin = ConeData(2, fn=lambda r0, om, o, i: np.zeros((r0.size, 1), complex),
                         fn_dr0=lambda r0, om, o, i, v: np.zeros((r0.size, 1), complex))
    zero_dirac = ConeData(1, kind="dirac",
                          fn=lambda r0, om, o, i: np.zeros((r0.size, 2), complex),
                          fn_dr0=lambda r0, om, o, i, v: np.zeros((r0.size, 2), complex))
    spec = QuadratureSpec(8, 16)
    r1 = reconstruct_spin_n(P0, zero_spin, 2, Q_POINTS[0], spec)
    r2 = reconstruct_dirac(P0, zero_dirac, Q_POINTS[0], spec)
    assert np.all(r1.value.components == 0)
    assert np.all(r2.value.phi == 0) and np.all(r2.value.psi == 0)


def test_locality_of_radial_support():
    # data supported at radii the section never reaches -> exact zero
    def f(r0, om, o, i):
        prof = np.where(r0 < 0.2, (0.2 - r0) ** 3, 0.0)
        return (prof * (1.0 + om[:, 1])).astype(complex)[:, None]

    def f_dr0(r0, om, o, i, values):
        prof = np.where(r0 < 0.2, -3.0 * (0.2 - r0) ** 2, 0.0)
        return (prof * (1.0 + om[:, 1])).astype(complex)[:, None]

    data = ConeData(1, fn=f, fn_dr0=f_dr0)
    res = reconstruct_spin_n(P0, data, 1, Q_POINTS[0], QuadratureSpec(16, 32))
    assert np.all(res.value.components == 0)   # section sits at r0 = 1/2


def test_gauge_invariance_frame_phase(monkeypatch):
    # o -> lam o, iota -> iota/lam with |lam| = 1 (equivalently a phase
    # rotation of m) applied to every section frame: the data columns and
    # the iota accumulation carry cancelling weights
    pw, b, data = _dirac_setup()
    q = Q_POINTS[2]
    spec = QuadratureSpec(24, 48)
    base = reconstruct_dirac(P0, data, q, spec)

    lam = np.exp(0.73j)
    true_build = rec.build_section

    def rescaled(p0, qq, grid):
        sec = true_build(p0, qq, grid)
        sec.o = lam * sec.o
        sec.iota = sec.iota / lam
        return sec

    monkeypatch.setattr(rec, "build_section", rescaled)
    out = reconstruct_dirac(P0, data, q, spec)
    assert np.max(np.abs(out.value.phi - base.value.phi)) < 1e-10
    assert np.max(np.abs(out.value.psi - base.value.psi)) < 1e-10


def test_linearity():
    pw1, d1 = _spin_setup(2)
    pw2, d2 = _spin_setup(2)
    a, b = 1.3 - 0.4j, -0.6 + 2.1j
    f1, f1d = orc.plane_wave_cone_fn(pw1, P0)
    f2, f2d = orc.plane_wave_cone_fn(pw2, P0)

    def mix_dr0(r0, om, o, i, values):
        # each part differentiates its own values, not the mix's
        return (a * f1d(r0, om, o, i, f1(r0, om, o, i))
                + b * f2d(r0, om, o, i, f2(r0, om, o, i)))

    mix = ConeData(2, fn=lambda *s: a * f1(*s) + b * f2(*s), fn_dr0=mix_dr0)
    spec = QuadratureSpec(16, 32)
    q = Q_POINTS[1]
    rm = reconstruct_spin_n(P0, mix, 2, q, spec)
    r1 = reconstruct_spin_n(P0, d1, 2, q, spec)
    r2 = reconstruct_spin_n(P0, d2, 2, q, spec)
    combo = a * r1.value.components + b * r2.value.components
    scale = np.max(np.abs(combo))
    assert np.max(np.abs(rm.value.components - combo)) < 1e-12 * scale


def test_interior_dirac_residual_orders():
    pw, b, data = _dirac_setup()
    q = Q_POINTS[2]
    spec = QuadratureSpec(16, 32)

    def field(x):
        res = reconstruct_dirac(P0, data, x, spec)
        return res.value.phi, res.value.psi

    scale = np.max(np.abs(np.concatenate(field(q))))
    defects = []
    for h in (2e-2, 1e-2):
        dphi, dpsi = orc._dirac_fd_q(field, q, h)
        defects.append(max(np.max(np.abs(dphi)), np.max(np.abs(dpsi))))
    assert defects[0] / defects[1] > 3.5
    assert defects[1] < 1e-3 * scale


def test_interior_weyl_residual_spin2():
    pw, data = _spin_setup(2)
    q = Q_POINTS[2]
    spec = QuadratureSpec(16, 32)
    std_o = np.array([1.0, 0.0], dtype=complex)
    std_iota = np.array([0.0, 1.0], dtype=complex)

    def field(x):
        res = reconstruct_spin_n(P0, data, 2, x, spec)
        return sym_assemble(res.value, std_o, std_iota)

    scale = np.max(np.abs(field(q)))
    res = weyl_residual_fd(field, 2, q, 1e-2)
    assert np.max(np.abs(res)) < 1e-3 * scale


# ---------------------------------------------------------------------------
# the rho-coefficient audit and convergence table


def test_rho_variant_audit():
    pw, b, data = _dirac_setup()
    q = Q_POINTS[0]
    exact = orc.plane_wave_dirac(pw, q, psi_amplitude=b)
    good = reconstruct_dirac(P0, data, q, QuadratureSpec(32, 64))
    bad = reconstruct_dirac(P0, data, q,
                            QuadratureSpec(32, 64, rho_variant="reduced"))
    assert _dirac_rel_err(good, exact) < 1e-10
    assert _dirac_rel_err(bad, exact) > 1e-3


def test_convergence_study_plane_wave():
    pw, b, data = _dirac_setup()
    q = Q_POINTS[1]
    exact = orc.plane_wave_dirac(pw, q, psi_amplitude=b)
    specs = [QuadratureSpec(nt, 2 * nt) for nt in (4, 8, 16, 32, 64)]
    rows = convergence_study(P0, data, q, exact, specs, kind="dirac")
    errs = [r["error"] for r in rows]
    # ratio >= 4 per doubling until below 1e-10
    for a, b_ in zip(errs, errs[1:]):
        if a < 1e-10:
            break
        assert a / b_ >= 4.0
    assert min(errs) < 1e-10
    # monotone nonincreasing down to the rounding floor
    floor = 10 * max(min(errs), 1e-15)
    for a, b_ in zip(errs, errs[1:]):
        assert b_ <= a or max(a, b_) < floor


def test_convergence_study_accepts_every_oracle_form():
    # a DiracSpinorValue, its flat (phi, psi) vector and the spin forms
    # (SymSpinorValue or component array) all give the same rows
    pw, b, data = _dirac_setup()
    q = Q_POINTS[2]
    exact = orc.plane_wave_dirac(pw, q, psi_amplitude=b)
    specs = [QuadratureSpec(8, 16), QuadratureSpec(16, 32)]
    errors = [[r["error"] for r in convergence_study(P0, data, q, oracle, specs,
                                                     kind="dirac")]
              for oracle in (exact, np.concatenate([exact.phi, exact.psi]))]
    assert errors[0] == errors[1]
    pw2, data2 = _spin_setup(2)
    field = orc.plane_wave_field(pw2, q)
    errors = [[r["error"] for r in convergence_study(P0, data2, q, oracle, specs, n=2)]
              for oracle in (field, field.components)]
    assert errors[0] == errors[1]


def test_convergence_study_zero_data():
    zero = ConeData(1, kind="dirac",
                    fn=lambda r0, om, o, i: np.zeros((r0.size, 2), complex),
                    fn_dr0=lambda r0, om, o, i, v: np.zeros((r0.size, 2), complex))
    from conerec.spinor import DiracSpinorValue
    oracle = DiracSpinorValue(phi=np.zeros(2, complex), psi=np.zeros(2, complex))
    rows = convergence_study(P0, zero, Q_POINTS[0], oracle,
                             [QuadratureSpec(8, 16), QuadratureSpec(16, 32)],
                             kind="dirac")
    assert all(r["error"] == 0.0 for r in rows)


# ---------------------------------------------------------------------------
# validation and diagnostics


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(2, 16)
    with pytest.raises(ValueError):
        QuadratureSpec(8, 7)
    with pytest.raises(ValueError):
        QuadratureSpec(8, 16, rho_variant="other")


def test_kind_mismatch_rejected():
    zero_spin = ConeData(1, fn=lambda r0, om, o, i: np.zeros((r0.size, 1), complex),
                         fn_dr0=lambda r0, om, o, i, v: np.zeros((r0.size, 1), complex))
    zero_dirac = ConeData(1, kind="dirac",
                          fn=lambda r0, om, o, i: np.zeros((r0.size, 2), complex),
                          fn_dr0=lambda r0, om, o, i, v: np.zeros((r0.size, 2), complex))
    with pytest.raises(ValueError):
        reconstruct_dirac(P0, zero_spin, Q_POINTS[0], QuadratureSpec(8, 16))
    with pytest.raises(ValueError):
        reconstruct_spin_n(P0, zero_dirac, 1, Q_POINTS[0], QuadratureSpec(8, 16))


def test_domain_errors_propagate():
    pw, b, data = _dirac_setup()
    with pytest.raises(ValueError):
        reconstruct_dirac(P0, data, np.array([-1.0, 0, 0, 0]), QuadratureSpec(8, 16))
    with pytest.raises(ValueError):
        reconstruct_dirac(P0, data, np.array([0.5, 0.6, 0, 0]), QuadratureSpec(8, 16))


def test_diagnostics_fields():
    pw, b, data = _dirac_setup()
    res = reconstruct_dirac(P0, data, Q_POINTS[0], QuadratureSpec(16, 32))
    d = res.diagnostics
    assert set(d) == {"n_nodes", "error_estimate"}
    assert d["n_nodes"] == 16 * 32
    assert d["error_estimate"] >= 0.0


# -- curved charts ------------------------------------------------------------

def _curved_setup():
    pw = orc.PlaneWaveSpec(2, np.array([0.9 + 0.2j, 0.4 - 0.5j]),
                           amplitude=1.3 - 0.7j)
    fn, fn_dr0 = orc.plane_wave_cone_fn(pw, P0)
    return ConeData(2, fn=fn, fn_dr0=fn_dr0)


def test_curved_flat_chart_equals_flat_reconstruction():
    from conerec.transport import make_chart
    data = _curved_setup()
    spec = QuadratureSpec(24, 48)
    q = np.array([1.5, 0.4, 0.3, 0.2])
    ref = reconstruct_spin_n(P0, data, 2, q, spec)
    got = rec.reconstruct_curved_singular(make_chart("flat"), P0, data, 2, q,
                                          spec)
    assert np.max(np.abs(got.value.components - ref.value.components)) < 1e-12
    assert got.value.valence == 2


def test_curved_on_axis_area_factor_is_half_pi():
    # the section measure om_p^2 r0^2 dOmega over k r^2 dOmega, with k =
    # ibar / (2 pi om_p om_q) and the curved backward radius r = r_flat ibar
    # om0^2 / om_p^2: pi/2 for an on-axis flat configuration, r0 = r/2
    q = Q_POINTS[0]
    chart, section, _ = _chart_section(None, q)
    om0, omq, om_p = chart.omega(P0), chart.omega(q), chart.omega(section.p)
    ibar = chart.chord_mean(q, section.p)
    k = ibar / (2.0 * np.pi * om_p * omq)
    r = section.r * ibar * om0 ** 2 / om_p ** 2
    factor = om_p ** 2 * section.r0 ** 2 / (k * r ** 2)
    assert np.max(np.abs(factor - np.pi / 2)) < 1e-12


def test_curved_weak_field_linear_scaling():
    from conerec.transport import make_chart
    data = _curved_setup()
    spec = QuadratureSpec(24, 48)
    q = np.array([1.5, 0.4, 0.3, 0.2])
    flat_val = rec.reconstruct_curved_singular(make_chart("flat"), P0, data,
                                               2, q, spec).value.components
    diff = {}
    for eps in (1e-3, 1e-4):
        chart = make_chart("conformal", eps=eps, width=2.0)
        got = rec.reconstruct_curved_singular(chart, P0, data, 2, q, spec)
        diff[eps] = np.max(np.abs(got.value.components - flat_val))
        assert diff[eps] > 0.0
    assert 8.0 < diff[1e-3] / diff[1e-4] < 12.0


def test_curved_richardson_radial_path():
    from conerec.transport import make_chart
    data = _curved_setup()
    chart = make_chart("conformal", eps=1e-3)
    q = np.array([1.5, 0.4, 0.3, 0.2])
    a = rec.reconstruct_curved_singular(chart, P0, data, 2, q,
                                        QuadratureSpec(16, 32))
    b = rec.reconstruct_curved_singular(chart, P0, _differenced(data), 2, q,
                                        QuadratureSpec(16, 32))
    assert np.max(np.abs(a.value.components - b.value.components)) < 1e-9


def _file_data_16x16():
    """Valence-1 plane-wave grid data on the 16x16 grid, r0 0.2 .. 1.6."""
    from conerec.cone import spin_basis_field, unit_directions
    pw = orc.PlaneWaveSpec(1, np.array([1.0, 0.3 + 0.4j]))
    fn, _ = orc.plane_wave_cone_fn(pw, P0)
    grid = QuadratureSpec(16, 16).grid()
    th, ph, _, ch = grid.angles()
    o_up, iota_up = spin_basis_field(th, ph, ch)
    om = unit_directions(th, ph)
    nodes = np.linspace(0.2, 1.6, 8)
    return ConeData(1, grid=grid, r0_nodes=nodes,
                    values=np.stack([fn(np.full(th.size, r), om, o_up, iota_up) for r in nodes]))


def test_curved_evaluator_reads_file_data_only_on_its_grid():
    from conerec.transport import make_chart
    data = _file_data_16x16()
    chart = make_chart("conformal", eps=1e-2)
    q = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="section grid does not match the data grid"):
        rec.reconstruct_curved_singular(chart, P0, data, 1, q, QuadratureSpec(8, 32))
    assert rec.reconstruct_curved_singular(chart, P0, data, 1, q,
                                           QuadratureSpec(16, 16)).diagnostics["n_nodes"] == 256


@pytest.mark.parametrize("kind, n, calls", [("analytic", 2, 2), ("file", 1, 1)])
def test_curved_section_takes_one_chord_mean(kind, n, calls):
    # the chord mean from p0, for the data radius r0*: one a section, and an
    # analytic point takes two sections (its level and the error estimate's
    # half level), a file point one
    from conerec.transport import make_chart
    chart = make_chart("conformal", eps=1e-2)
    starts = []
    chord_mean = chart.chord_mean

    def counted(a, b):
        starts.append(np.array(a))
        return chord_mean(a, b)

    chart.chord_mean = counted
    data = _curved_setup() if kind == "analytic" else _file_data_16x16()
    rec.reconstruct_curved_singular(chart, P0, data, n, Q_POINTS[0], QuadratureSpec(16, 16))
    assert len(starts) == calls
    assert all(np.array_equal(a, P0) for a in starts)


def test_curved_domain_errors():
    from conerec.errors import GeometryError
    from conerec.transport import make_chart
    data = _curved_setup()
    spec = QuadratureSpec(16, 32)
    small = make_chart("conformal", eps=1e-3, halfwidth=1.0)
    with pytest.raises(GeometryError, match="outside the chart domain"):
        rec.reconstruct_curved_singular(small, P0, data, 2,
                                        np.array([1.8, 0.0, 0.0, 0.0]), spec)
    # vertex near a face: some generators meet the section outside the box
    p0_off = np.array([0.0, 0.8, 0.0, 0.0])
    q_off = p0_off + np.array([0.9, 0.0, 0.0, 0.0])
    with pytest.raises(GeometryError, match="leave the chart domain"):
        rec.reconstruct_curved_singular(small, p0_off, data, 2, q_off, spec)


def test_curved_kind_and_valence_guards():
    from conerec.transport import make_chart
    chart = make_chart("flat")
    spec = QuadratureSpec(16, 32)
    pw = orc.PlaneWaveSpec(1, np.array([1.0, 0.3 + 0.4j]))
    fn, fn_dr0 = orc.plane_wave_dirac_cone_fn(pw, P0)
    ddata = ConeData(1, kind="dirac", fn=fn, fn_dr0=fn_dr0)
    with pytest.raises(ValueError, match="phi_0"):
        rec.reconstruct_curved_singular(chart, P0, ddata, 1,
                                        np.array([1.0, 0, 0, 0]), spec)
    sdata = _curved_setup()
    with pytest.raises(ValueError, match="valence"):
        rec.reconstruct_curved_singular(chart, P0, sdata, 0,
                                        np.array([1.0, 0, 0, 0]), spec)


# -- a chart's per-node factors on the flat section ---------------------------

FACTOR_CHARTS = [dict(eps=0.05, width=2.0), dict(eps=0.3, profile="sine", width=0.5)]


def _chart_section(chart_kw, q=Q_POINTS[2]):
    from conerec.cone import SphereGrid, build_section
    from conerec.transport import make_chart
    chart = make_chart("conformal", **chart_kw) if chart_kw else make_chart("flat")
    section = build_section(P0, q, SphereGrid(24, 48))
    return chart, section, rec._chart_factors(chart, P0, q, section)


@pytest.mark.parametrize("chart_kw", FACTOR_CHARTS, ids=["gaussian", "sine"])
@pytest.mark.parametrize("q", Q_POINTS[1:], ids=["axis-shifted", "off-axis"])
def test_chart_iota_scale_is_the_adapted_frame(chart_kw, q):
    # the frame adapted to the chart, iota = n^{AA'} obar_{A'} from o/c and
    # the curved transversal leg (q - p) ibar / (om_p r), r the curved
    # backward radius, is c times the flat section's iota
    from _reference import transversal_iota
    chart, section, f = _chart_section(chart_kw, q)
    om0, om_p = chart.omega(P0), chart.omega(section.p)
    ibar = chart.chord_mean(q, section.p)
    r = section.r * ibar * om0 ** 2 / om_p ** 2
    n_frame = (q - section.p) * (ibar / (om_p * r))[:, None]
    ref = transversal_iota(section.o / f.iota_scale[:, None], n_frame)
    got = f.iota_scale[:, None] * section.iota
    assert np.max(np.abs(got - ref)) <= 2e-15 * np.max(np.abs(ref))
    assert np.max(np.abs(f.iota_scale - 1.0)) > 1e-3


@pytest.mark.parametrize("chart_kw", FACTOR_CHARTS, ids=["gaussian", "sine"])
def test_chart_weight_is_k_mu_over_r_from_the_chord_mean_from_q(chart_kw):
    # k mu / r with k = ibar / (2 pi om_p om_q), mu = om_p^2 mu_sigma and
    # r = r_flat ibar om0^2 / om_p^2: ibar cancels against the flat weight,
    # so the evaluator never takes it
    q = Q_POINTS[2]
    chart, section, f = _chart_section(chart_kw)
    om0, omq, om_p = chart.omega(P0), chart.omega(q), chart.omega(section.p)
    ibar = chart.chord_mean(q, section.p)
    k = ibar / (2.0 * np.pi * om_p * omq)
    ref = k * om_p ** 2 * section.mu_sigma / (section.r * ibar * om0 ** 2 / om_p ** 2)
    got = section.mu_sigma / (2.0 * np.pi * section.r) * f.weight
    assert np.max(np.abs(got / ref - 1.0)) < 1e-14
    assert np.max(np.abs(f.weight - 1.0)) > 1e-3


@pytest.mark.parametrize("chart_kw", FACTOR_CHARTS, ids=["gaussian", "sine"])
def test_chart_rho_and_frame_shift_are_the_omega_gradient_along_l(chart_kw):
    chart, section, f = _chart_section(chart_kw)
    g = chart.omega(P0) ** 2 / chart.omega(section.p) ** 2
    dln = np.einsum("ni,ni->n", chart.grad_ln_omega(section.p), section.l)
    assert np.allclose(f.rho, -g * (dln + 1.0 / section.r0), rtol=1e-15, atol=0.0)
    assert np.allclose(f.dr0_ln_omega, g * dln, rtol=1e-15, atol=0.0)
    assert np.all(f.r0 > 0.0) and np.max(np.abs(f.r0 / section.r0 - 1.0)) > 1e-3


def test_flat_chart_factors_are_one_or_their_flat_values():
    _, section, f = _chart_section(None)
    assert np.array_equal(f.r0, section.r0)
    assert np.array_equal(f.iota_scale, np.ones(section.n_nodes))
    assert np.array_equal(f.rho, -1.0 / section.r0)
    assert np.array_equal(f.dr0_ln_omega, np.zeros(section.n_nodes))
    assert np.array_equal(f.weight, np.ones(section.n_nodes))


def _canonical_o(o):
    """o rescaled to the canonical |o|^2 = sqrt2 of l = (1, omega): undoes
    the chart's real positive rescaling o -> o/c."""
    return o * (2.0 ** 0.25 / np.linalg.norm(o, axis=1))[:, None]


@pytest.mark.parametrize("eps", [0.05, 0.3])
def test_chart_file_data_reads_the_canonical_frame(eps):
    # grid data are stored in the canonical frame and ignore the frame
    # they are handed; analytic data see the chart's (o/c, c iota), which
    # scales phi_0 by c^-n.  Analytic data wrapped to read the canonical
    # o match the file data to spline accuracy; unwrapped they do not,
    # and which of the two weights is right is still open (ROADMAP.md,
    # the curved-space oracle)
    from conerec.cone import spin_basis_field
    from conerec.transport import make_chart
    n, q, spec = 2, Q_POINTS[2], QuadratureSpec(16, 32)
    pw = orc.PlaneWaveSpec(n, np.array([0.6 + 0.3j, -0.2 + 0.7j]), 0.8 + 0.1j)
    fn, fn_dr0 = orc.plane_wave_cone_fn(pw, P0)
    grid = spec.grid()
    th, ph, _, ch = grid.angles()
    omega = grid.directions()[0]
    o_up, iota_up = spin_basis_field(th, ph, ch)
    nodes = np.linspace(0.2, 2.0, 60)
    file_data = ConeData(n, grid=grid, r0_nodes=nodes, values=np.stack(
        [fn(np.full(th.size, r), omega, o_up, iota_up) for r in nodes]))
    analytic = ConeData(n, fn=fn, fn_dr0=fn_dr0)
    canonical = ConeData(n, fn=lambda r0, om, o, i: fn(r0, om, _canonical_o(o), i),
                         fn_dr0=lambda r0, om, o, i, v: fn_dr0(r0, om, _canonical_o(o), i, v))

    def field(chart, data):
        return rec.reconstruct_curved_singular(chart, P0, data, n, q, spec).value.components

    flat = make_chart("flat")
    assert rec.relative_error(field(flat, analytic), field(flat, file_data)) < 1e-7
    chart = make_chart("conformal", eps=eps)
    from_file = field(chart, file_data)
    assert rec.relative_error(field(chart, canonical), from_file) < 1e-7
    assert rec.relative_error(field(chart, analytic), from_file) > 1e-2


@pytest.mark.parametrize("n", [rec.MAX_VALENCE + 1, 40])
def test_valence_above_cap_rejected_before_evaluation(n):
    from conerec.transport import make_chart

    def never(*args):
        raise AssertionError("data evaluated before the valence check")

    data = ConeData(n, fn=never, fn_dr0=never)
    spec = QuadratureSpec(8, 16)
    with pytest.raises(ValueError, match="valence"):
        reconstruct_spin_n(P0, data, n, Q_POINTS[0], spec)
    with pytest.raises(ValueError, match="valence"):
        rec.reconstruct_curved_singular(make_chart("flat"), P0, data, n,
                                        Q_POINTS[0], spec)


# -- one component sum for every valence ---------------------------------------

def _unit_wave(n):
    """Plane-wave data of valence n with a fixed unit principal spinor."""
    pw = orc.PlaneWaveSpec(n, np.array([0.6 + 0.3j, -0.2 + 0.7j]) / np.sqrt(0.98))
    fn, fn_dr0 = orc.plane_wave_cone_fn(pw, P0)
    return pw, ConeData(n, fn=fn, fn_dr0=fn_dr0)


@pytest.mark.parametrize("n", [8, 12, 16])
@pytest.mark.parametrize("q", [Q_POINTS[0], Q_POINTS[2]], ids=["axis", "off-axis"])
def test_high_valence_plane_wave(n, q):
    pw, data = _unit_wave(n)
    res = reconstruct_spin_n(P0, data, n, q, QuadratureSpec(24, 48))
    exact = orc.plane_wave_field(pw, q)
    assert rec.relative_error(res.value.components, exact.components) < 1e-12
    assert res.value.valence == n


def test_curved_flat_chart_equals_flat_reconstruction_high_valence():
    from conerec.transport import make_chart
    _, data = _unit_wave(8)
    spec = QuadratureSpec(24, 48)
    ref = reconstruct_spin_n(P0, data, 8, Q_POINTS[2], spec)
    got = rec.reconstruct_curved_singular(make_chart("flat"), P0, data, 8,
                                          Q_POINTS[2], spec)
    assert rec.relative_error(got.value.components,
                              ref.value.components) < 1e-13


def _dense_component_sum(scal, iota_up, n):
    """Reference: the rank-n tensor sum_x scal iota_A .. iota_F by einsum,
    contracted back to phi_0 .. phi_n by the dense sym_components."""
    from conerec.spinor import lower_comps
    idx = "abcdef"[:n]
    subs = "x," + ",".join("x" + c for c in idx) + "->" + idx
    tensor = np.einsum(subs, scal, *([lower_comps(iota_up)] * n))
    return sym_components(tensor, np.array([1.0, 0.0]),
                          np.array([0.0, 1.0])).components


@pytest.mark.parametrize("evaluator, n",
                         [("flat", n) for n in range(1, 7)]
                         + [("curved", n) for n in range(1, 7)] + [("dirac", 1)])
def test_component_sum_matches_dense_tensor(monkeypatch, evaluator, n):
    from conerec.transport import make_chart
    if evaluator == "dirac":
        _, _, data = _dirac_setup()
        run = lambda: reconstruct_dirac(P0, data, Q_POINTS[2], REF_SPEC)
    elif evaluator == "flat":
        _, data = _spin_setup(n)
        run = lambda: reconstruct_spin_n(P0, data, n, Q_POINTS[2], REF_SPEC)
    else:
        _, data = _spin_setup(n)
        chart = make_chart("conformal", eps=1e-2)
        run = lambda: rec.reconstruct_curved_singular(
            chart, P0, data, n, Q_POINTS[2], QuadratureSpec(32, 64))
    got = run()
    monkeypatch.setattr(rec, "_component_sum", _dense_component_sum)
    ref = run()
    scale = np.max(np.abs(rec.components(ref.value)))
    assert rec.relative_error(rec.components(got.value),
                              rec.components(ref.value)) < 1e-13
    assert abs(got.diagnostics["error_estimate"]
               - ref.diagnostics["error_estimate"]) < 1e-13 * scale


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_component_sum_equals_the_powers_started_from_ones(n):
    # the powers of b start from b itself and phi_0 dots a cached ones
    # vector; each component must equal, bit for bit, the dot products of
    # powers started from a fresh ones vector, so flat outputs stay put
    from conerec.cone import SphereGrid, build_section
    from conerec.spinor import lower_comps
    section = build_section(P0, Q_POINTS[2], SphereGrid(24, 48))
    scal = rng.standard_normal(section.n_nodes) + 1j * rng.standard_normal(section.n_nodes)
    a, b = lower_comps(section.iota).T
    left, right = [scal], [np.ones_like(b)]
    for _ in range(n):
        left.append(left[-1] * a)
        right.append(right[-1] * b)
    expect = np.array([left[n - j] @ right[j] for j in range(n + 1)])
    assert np.array_equal(rec._component_sum(scal, section.iota, n), expect)
