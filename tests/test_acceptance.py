"""End-to-end acceptance checks, one pass/fail line per criterion.

Run with -s (or read the captured output) to see the lines; every
criterion is also a separate test so the -v listing carries the same
information.  Tolerances are the package's contract: loosening them
here is a release blocker, not a fix.
"""

import json
import math
import subprocess
import sys

import numpy as np

from conerec import cli, cone, nulldata, oracles, transport
from conerec import reconstruct as rc
from conerec.cone import SphereGrid, build_section
from conerec.frames import NPFrame, frame_from_spin_basis
from conerec.nulldata import ConeData
from conerec.reconstruct import QuadratureSpec

from _reference import bump_dirac_grids, dirac_symmetry_check, plane_wave_tensor, sl_identity_check

RNG_SEED = 20260816
P0 = np.zeros(4)
ALPHA = np.array([2.6, 2.0 + 2.3j])
AMP = 0.9 + 0.2j
Q_POINTS = [np.array([1.0, 0.0, 0.0, 0.0]),
            np.array([2.0, 0.0, 0.0, 1.0]),
            np.array([1.5, 0.4, 0.3, 0.2])]
INV_2PI = 1.0 / (2.0 * math.pi)


def _line(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _spin_data(n):
    spec = oracles.PlaneWaveSpec(n, ALPHA, amplitude=AMP)
    fn, fn_dr0 = oracles.plane_wave_cone_fn(spec, P0)
    return spec, ConeData(n, fn=fn, fn_dr0=fn_dr0)


def _flat_errors(n, q, levels=((16, 32), (32, 64), (64, 128))):
    spec, data = _spin_data(n)
    ref = oracles.plane_wave_field(spec, q).components
    scale = float(np.max(np.abs(ref)))
    errs = []
    for nt, nph in levels:
        got = rc.reconstruct_spin_n(P0, data, n, q,
                                    QuadratureSpec(nt, nph)).value.components
        errs.append(float(np.max(np.abs(got - ref))) / scale)
    return errs


def _doubling_ok(errs, floor=1e-10, factor=4.0):
    """Every doubling with the coarse error above the floor gains >= factor."""
    return all(cur <= floor or cur / nxt >= factor
               for cur, nxt in zip(errs, errs[1:]))


def test_criterion_01_algebra_invariants():
    rng = np.random.default_rng(RNG_SEED)
    checks = cli._suite_algebra(rng, 1000)
    worst = max(residual for _, residual, _ in checks)
    _line(1, all(residual <= 1e-12 for _, residual, _ in checks),
          f"4 invariant families x 1000 cases, max deviation {worst:.2e} "
          f"(tolerance 1e-12)")


def test_criterion_02_flat_spin_half():
    finest, ratios_ok = [], True
    for q in Q_POINTS:
        errs = _flat_errors(1, q)
        finest.append(errs[-1])
        ratios_ok = ratios_ok and _doubling_ok(errs)
    _line(2, max(finest) <= 1e-6 and ratios_ok,
          f"spin 1/2 at 3 points: max error {max(finest):.2e} at 64x128 "
          f"(tolerance 1e-6), doubling gain >= 4 above 1e-10")


def test_criterion_03_higher_spins_and_dirac_match():
    finest, ratios_ok = [], True
    for n in (2, 3, 4):
        for q in Q_POINTS:
            errs = _flat_errors(n, q)
            finest.append(errs[-1])
            ratios_ok = ratios_ok and _doubling_ok(errs)
    spec, data1 = _spin_data(1)
    fn, fn_dr0 = oracles.plane_wave_dirac_cone_fn(spec, P0,
                                                  psi_amplitude=0.5 - 0.1j)
    dirac_data = ConeData(1, kind="dirac", fn=fn, fn_dr0=fn_dr0)
    qs = QuadratureSpec(32, 64)
    agree = max(
        float(np.max(np.abs(
            rc.reconstruct_dirac(P0, dirac_data, q, qs).value.phi
            - rc.reconstruct_spin_n(P0, data1, 1, q, qs).value.components)))
        for q in Q_POINTS)
    _line(3, max(finest) <= 1e-6 and ratios_ok and agree <= 1e-10,
          f"spins 1, 3/2, 2: max error {max(finest):.2e} (tolerance 1e-6); "
          f"valence-1 vs Dirac projection {agree:.2e} (tolerance 1e-10)")


def test_criterion_04_normalization_audit():
    spec, data = _spin_data(1)
    q = Q_POINTS[2]
    ref = oracles.plane_wave_field(spec, q).components
    scale = float(np.max(np.abs(ref)))
    errors = {}
    for variant in ("penrose", "reduced"):
        got = rc.reconstruct_spin_n(
            P0, data, 1, q,
            QuadratureSpec(32, 64, rho_variant=variant)).value.components
        errors[variant] = float(np.max(np.abs(got - ref))) / scale
    ok = errors["penrose"] <= 1e-6 and errors["reduced"] > 1e-3
    _line(4, ok,
          f"2 rho coefficient matches the oracle ({errors['penrose']:.2e}); "
          f"the single-rho variant does not ({errors['reduced']:.2e})")


def test_criterion_05_constraint_residuals():
    spec = oracles.PlaneWaveSpec(2, [1.0, 0.3 + 0.4j], amplitude=0.8 - 0.3j)
    fn, fn_dr0 = oracles.plane_wave_cone_fn(spec, P0)
    data = ConeData(2, fn=fn, fn_dr0=fn_dr0)
    res = [max(nulldata.constraint_residual(data, P0, [0.8, 1.6],
                                            SphereGrid(nt, 2 * nt)).values())
           for nt in (16, 32)]
    order_ok = res[0] / res[1] >= 3.5

    rng = np.random.default_rng(RNG_SEED)
    sec = build_section(P0, np.array([1.0, 0, 0, 0]), SphereGrid(32, 64))
    calc = nulldata._SectionCalculus(sec)
    worst = 0.0
    for _ in range(10):
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vals = ((sec.o @ w) * (np.conj(sec.iota) @ z)
                * np.exp(0.4 * sec.omega[:, 0])
                * (1.0 + 0.3 * sec.omega[:, 1] - 0.2 * sec.omega[:, 2] ** 2))
        out = nulldata.eth_prime(nulldata.WeightedScalarField(vals, (1, -1)),
                                 sec, calculus=calc)
        loop = abs(np.sum(out.values * sec.mu_sigma))
        worst = max(worst, loop / (np.max(np.abs(vals)) * np.sum(sec.mu_sigma)))
    _line(5, order_ok and worst <= 1e-8,
          f"exact-restriction residual falls {res[0] / res[1]:.0f}x per "
          f"doubling (>= 3.5); eth' loop integral {worst:.2e} over 10 random "
          f"(1,-1) fields (tolerance 1e-8)")


def test_criterion_06_geometry_identities():
    grid = SphereGrid(24, 48)
    t = 2.0
    sec = build_section(P0, np.array([t, 0, 0, 0]), grid)
    area = abs(float(np.sum(sec.mu_sigma)) - math.pi * t ** 2) / (math.pi * t ** 2)

    xs, ws = np.polynomial.legendre.leggauss(24)
    a, b = 0.4, 0.9
    r0s = 0.5 * (a + b) + 0.5 * (b - a) * xs
    wr = 0.5 * (b - a) * ws
    th, ph, wang, _ = grid.angles()
    om = cone.unit_directions(th, ph)

    def f(p):
        return np.exp(-p[:, 1] ** 2 - 0.5 * p[:, 2] - 0.3 * p[:, 0]) + 0.2 * p[:, 3] ** 2

    lhs = sum(w * np.sum(wang * f(r0 * np.concatenate(
        [np.ones((om.shape[0], 1)), om], axis=1)) * (r0 / 2.0))
        for r0, w in zip(r0s, wr))
    rhs = sum(2.0 * w * (2.0 * r0) * np.sum(
        build_section(P0, np.array([2.0 * r0, 0, 0, 0]), grid).mu_leray
        * f(build_section(P0, np.array([2.0 * r0, 0, 0, 0]), grid).p))
        for r0, w in zip(r0s, wr))
    leray = abs(lhs - rhs) / abs(lhs)

    wave = oracles.PlaneWaveSpec(1, [1.0, 0.3 + 0.4j])

    def smooth(qq, p):
        phase = np.exp(1j * wave.phase(p))
        u_phi = wave.amplitude * phase[..., None] * wave.alpha
        u_psi = phase[..., None] * np.conj(
            np.asarray([-wave.alpha[1], wave.alpha[0]]))
        qm = np.exp(0.3 * np.dot(np.asarray(qq, float), [0.2, 0.1, -0.3, 0.05]))
        return qm * u_phi, qm * u_psi

    q = np.array([1.5, 0.2, -0.1, 0.3])
    fine = oracles.derivative_under_integral_check(smooth, P0, q, 1e-3)
    coarse = oracles.derivative_under_integral_check(smooth, P0, q, 2e-3)
    combined = leray + fine["section"] + fine["solid"]
    ratios = [coarse[k] / fine[k] for k in ("section", "solid")]
    ok = area <= 1e-8 and combined <= 1e-4 and min(ratios) >= 3.0
    _line(6, ok,
          f"section area off by {area:.2e} (tolerance 1e-8); Leray + "
          f"differentiation identities combined {combined:.2e} (tolerance "
          f"1e-4), step-halving gains {ratios[0]:.2f}/{ratios[1]:.2f}")


def test_criterion_07_curved_transport():
    p = np.array([0.2, 0.1, -0.3, 0.4])
    lvec = np.array([1.0, 0.3, 0.5, math.sqrt(0.66)])
    q = p + 1.3 * lvec

    flat = transport.make_chart("flat")
    _, ks = transport.transport_k(flat, q, p, steps=8)
    flat_k = float(np.max(np.abs(ks - INV_2PI)))

    o_up, i_up = cone.spin_basis_field(np.array([0.4]), np.array([1.1]),
                                       np.array([False]))
    base = frame_from_spin_basis(o_up[0], i_up[0])
    pf = transport.transport_spin_frame(flat, p, base.l, base,
                                        s_end=1.5, steps=120)
    trivial = max(pf.product_drift(), float(np.max(np.abs(pf.o[-1] - pf.o[0]))),
                  float(np.max(np.abs(pf.l[-1] - pf.l[0]))))

    dev = {}
    for eps in (1e-3, 1e-4):
        chart = transport.make_chart("conformal", eps=eps)
        _, k = transport.transport_k(chart, q, p, steps=6)
        dev[eps] = float(k[-1] - INV_2PI)
    ratio = dev[1e-3] / dev[1e-4]

    chart = transport.make_chart("conformal", eps=1e-3)
    om = chart.omega(p)
    fr = NPFrame(base.l / om, base.n / om, base.m / om,
                 base.o / math.sqrt(om), base.iota / math.sqrt(om))
    pf_c = transport.transport_spin_frame(chart, p, fr.l, fr,
                                          s_end=1.5, steps=200)
    norm_drift = pf_c.product_drift()
    ok = (flat_k <= 1e-8 and trivial <= 1e-10
          and abs(ratio - 10.0) <= 2.0 and norm_drift <= 1e-8)
    _line(7, ok,
          f"flat kernel off 1/(2 pi) by {flat_k:.2e} (tolerance 1e-8); "
          f"trivial transport drift {trivial:.2e} (tolerance 1e-10); "
          f"eps-scaling ratio {ratio:.2f} (10 +/- 2); frame normalization "
          f"drift {norm_drift:.2e} (tolerance 1e-8)")


def test_criterion_08_curved_singular_flat_equality():
    spec, data = _spin_data(2)
    chart = transport.make_chart("flat")
    qs = QuadratureSpec(24, 48)
    worst = 0.0
    for q in Q_POINTS:
        flat = rc.reconstruct_spin_n(P0, data, 2, q, qs).value.components
        curved = rc.reconstruct_curved_singular(chart, P0, data, 2, q,
                                                qs).value.components
        worst = max(worst, float(np.max(np.abs(curved - flat)))
                    / float(np.max(np.abs(flat))))
    _line(8, worst <= 1e-8,
          f"flat-chart singular evaluator vs flat evaluator: relative "
          f"difference {worst:.2e} (tolerance 1e-8)")


def test_criterion_09_identity_convergence_orders():
    pt = np.array([0.2, -0.1, 0.4, 0.3])
    orders = {}
    for n in (1, 2):
        spec = oracles.PlaneWaveSpec(n, [0.8 + 0.2j, -0.5 + 0.9j],
                                     amplitude=1.1)
        sol = lambda x: plane_wave_tensor(spec, x)
        res = [sl_identity_check(sol, n, pt, h)
               for h in (4e-2, 2e-2, 1e-2)]
        orders[f"sl_spin_{n}"] = 0.5 * math.log2(res[0] / res[2])

    spec1 = oracles.PlaneWaveSpec(1, [1.0, 0.2 - 0.3j])
    spec2 = oracles.PlaneWaveSpec(1, [0.4 + 0.5j, 1.0], amplitude=0.6)
    defects = []
    for n_pts in (10, 20, 40):
        phi1, psi1, h = bump_dirac_grids(spec1, P0, 1.0, n_pts)
        phi2, psi2, _ = bump_dirac_grids(spec2, P0, 1.0, n_pts,
                                         psi_amplitude=0.5 + 0.2j)
        defects.append(dirac_symmetry_check(phi1, psi1, phi2, psi2, h))
        del phi1, psi1, phi2, psi2
    orders["dirac_symmetry"] = 0.5 * math.log2(defects[0] / defects[2])
    ok = min(orders.values()) >= 1.8
    detail = ", ".join(f"{k} {v:.2f}" for k, v in orders.items())
    _line(9, ok, f"measured orders over three refinements: {detail} "
                 f"(threshold 1.8)")


def test_criterion_10_cli_determinism(tmp_path):
    cfg = {"p0": [0, 0, 0, 0],
           "q": [[1, 0, 0, 0], [1.5, 0.4, 0.3, 0.2]],
           "valence": 1,
           "data": {"family": "plane-wave",
                    "alpha": [[2.6, 0.0], [2.0, 2.3]],
                    "amplitude": [0.9, 0.2]},
           "quadrature": {"n_theta": 24, "n_phi": 48}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    bodies = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.json"
        code = subprocess.run(
            [sys.executable, "-m", "conerec.cli", "reconstruct",
             "--config", str(cfg_path), "--out", str(out)],
            capture_output=True).returncode
        assert code == 0
        doc = json.loads(out.read_text())
        stamp = doc["meta"].pop("generated_at")
        assert stamp  # the only wall-clock field, and it is isolatable
        bodies.append(json.dumps(doc, sort_keys=True))
    _line(10, bodies[0] == bodies[1],
          "repeated CLI runs byte-identical after removing the timestamp")
