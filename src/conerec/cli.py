"""Batch front end: configured reconstructions, checks, and studies.

    conerec <command> --config cfg.json [--out PATH] [--threads N] [--seed N]

Commands
--------
reconstruct       field values at listed points from cone data (JSON records)
constraints       per-component residual table over refinement levels (CSV)
converge          error versus resolution against a named oracle (CSV)
verify            identity suites: algebra / geometry / constraints / curved
curved-transport  kernel and frame transport validation on a chart (JSON)

Configs are JSON; complex numbers are [re, im] pairs.  Outputs are
deterministic for a fixed config and seed: the only wall-clock content
is the generated_at stamp (JSON metadata field, or a leading # comment
line in CSV).  Exit codes: 0 success, 1 tolerance or check failure,
2 config error, 3 geometry-domain error, 4 data-coverage error, 5
internal error (any other exception, reported in one line).

Heavy imports happen after argument parsing so --threads can pin the
BLAS pool size in the environment before numpy loads.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
from datetime import datetime, timezone

from .errors import CoverageError, GeometryError

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_CONFIG = 2
EXIT_GEOMETRY = 3
EXIT_COVERAGE = 4
EXIT_INTERNAL = 5

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class ConfigError(Exception):
    pass


def _pin_threads(n: int):
    for var in _THREAD_VARS:
        os.environ[var] = str(n)


def _timestamp():
    return datetime.now(timezone.utc).isoformat()


# -- config helpers ----------------------------------------------------------

def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    found = []
    _nulled(cfg, "config", found)
    if found:  # NaN, Infinity, and overflowing literals such as 1e999
        raise ConfigError(f"{found[0][0]} is {found[0][1]!r}; NaN and Infinity "
                          "are not valid JSON numbers")
    return cfg


def _nulled(node, where, found):
    """node with each non-finite float replaced by None; found gets (path, value)."""
    if isinstance(node, float) and not math.isfinite(node):
        found.append((where, node))
        return None
    if isinstance(node, dict):
        return {k: _nulled(v, f"{where}.{k}", found) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_nulled(v, f"{where}[{i}]", found) for i, v in enumerate(node)]
    return node


def _as_object(v, what):
    if not isinstance(v, dict):
        raise ConfigError(f"{what} must be a JSON object, got {v!r}")
    return v


def _as_list(v, what):
    if not isinstance(v, list):
        raise ConfigError(f"{what} must be a list, got {v!r}")
    return v


def _known(cfg, keys, what):
    """Require a JSON object holding only the given keys: a misspelled key
    would otherwise be ignored and its default used without a word."""
    extra = set(_as_object(cfg, what)) - set(keys)
    if extra:
        raise ConfigError(f"unknown {what} keys {sorted(extra)}")


# keys main reads from every command's config
_MAIN_KEYS = ("out", "seed")


def _need(cfg, key, command):
    if key not in cfg:
        raise ConfigError(f"{command} config needs {key!r}")
    return cfg[key]


def _as_complex(v, what):
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(_as_finite(v[0], f"{what} real part"),
                       _as_finite(v[1], f"{what} imaginary part"))
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{what} must be a number or an [re, im] pair")
    return complex(v)


def _as_point(v, what):
    import numpy as np
    try:
        arr = np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be four numbers, got {v!r}")
    if arr.shape != (4,):
        raise ConfigError(f"{what} must have four components")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{what} must be finite")
    return arr


def _as_finite(v, what):
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"{what} must be a finite number, got {v!r}")
    return float(v)


def _as_positive(v, what):
    v = _as_finite(v, what)
    if not v > 0.0:
        raise ConfigError(f"{what} must be positive, got {v!r}")
    return v


def _as_count(v, what):
    if isinstance(v, bool) or not isinstance(v, (int, float)) \
            or not math.isfinite(v) or v != int(v) or v < 1:
        raise ConfigError(f"{what} must be a positive integer, got {v!r}")
    return int(v)


def _kind_and_valence(cfg):
    """The evaluator kind ("spin" or "dirac") and valence of a config."""
    kind = cfg.get("kind", "spin")
    if kind not in ("spin", "dirac"):
        raise ConfigError(f"kind must be 'spin' or 'dirac', got {kind!r}")
    return kind, _as_count(cfg.get("valence", 1), "valence")


def _tolerance(cfg):
    """The optional finite `tolerance` of a command config, or None."""
    tol = cfg.get("tolerance")
    return None if tol is None else _as_finite(tol, "tolerance")


def _exceeds(value, tol):
    """Whether value fails an optional tolerance; NaN always fails."""
    return tol is not None and not value <= tol


def _levels(cfg, default):
    """The non-empty [n_theta, n_phi] refinement levels of a config, as counts."""
    levels = cfg.get("levels", default)
    if not (isinstance(levels, list) and levels
            and all(isinstance(p, list) and len(p) == 2 for p in levels)):
        raise ConfigError(f"levels must be a non-empty list of [n_theta, n_phi] "
                          f"pairs, got {levels!r}")
    return [(_as_count(nt, f"levels[{i}][0]"), _as_count(nph, f"levels[{i}][1]"))
            for i, (nt, nph) in enumerate(levels)]


def _c2j(z):
    z = complex(z)
    return [z.real, z.imag]


def _quadrature(cfg):
    from .reconstruct import QuadratureSpec
    _known(cfg, ("n_theta", "n_phi", "chart_mode", "cap", "radial_fd",
                 "fd_step", "rho_variant"), "quadrature")
    checks = {"n_theta": _as_count, "n_phi": _as_count, "cap": _as_finite,
              "fd_step": _as_positive}
    cfg = {k: checks[k](v, f"quadrature.{k}") if k in checks else v
           for k, v in cfg.items()}
    try:
        return QuadratureSpec(**{"n_theta": 24, "n_phi": 48, **cfg})
    except ValueError as exc:
        raise ConfigError(f"bad quadrature: {exc}")


def _chart(cfg):
    from . import transport
    _known(cfg, ("name", "eps", "profile", "width", "center", "halfwidth"), "chart")
    checks = {"eps": _as_finite, "width": _as_positive, "halfwidth": _as_finite}
    kwargs = {k: checks[k](v, f"chart.{k}") if k in checks else v
              for k, v in cfg.items() if k != "name"}
    try:
        return transport.make_chart(cfg.get("name", "flat"), **kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad chart: {exc}")


def _cone_data(cfg, p0, valence, command):
    """ConeData plus an oracle callback (None for file data).

    Families: "plane-wave" (spin components phi_0..phi_n) and
    "plane-wave-dirac" (the (zeta_0, xi^{1'}) pair).  File sources name
    a descriptor written by save_cone_data.
    """
    from . import oracles
    from .nulldata import ConeData, load_cone_data
    if "file" in _as_object(cfg, "data"):
        _known(cfg, ("file",), "data")
        if not isinstance(cfg["file"], str):
            raise ConfigError(f"data.file must be a path string, got {cfg['file']!r}")
        try:
            data = load_cone_data(cfg["file"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load cone data {cfg['file']!r}: {exc}")
        if data.valence != valence:
            raise ConfigError(f"data file carries valence {data.valence}, "
                              f"config says {valence}")
        return data, None
    family = _need(cfg, "family", command + ".data")
    if family not in ("plane-wave", "plane-wave-dirac"):
        raise ConfigError(f"unknown data family {family!r}")
    _known(cfg, ("family", "alpha", "amplitude")
           + (("psi_amplitude",) if family == "plane-wave-dirac" else ()), "data")
    alpha = [_as_complex(a, "alpha component")
             for a in _as_list(_need(cfg, "alpha", command + ".data"), "data.alpha")]
    amplitude = _as_complex(cfg.get("amplitude", 1.0), "amplitude")
    try:
        spec = oracles.PlaneWaveSpec(valence, alpha, amplitude)
    except ValueError as exc:
        raise ConfigError(f"bad plane-wave parameters: {exc}")
    if family == "plane-wave":
        fn, fn_dr0 = oracles.plane_wave_cone_fn(spec, p0)
        data = ConeData(valence, fn=fn, fn_dr0=fn_dr0)
        oracle = lambda q: oracles.plane_wave_field(spec, q).components
        return data, oracle
    if valence != 1:
        raise ConfigError("the Dirac family is valence 1")
    psi_amp = _as_complex(cfg.get("psi_amplitude", 1.0), "psi_amplitude")
    fn, fn_dr0 = oracles.plane_wave_dirac_cone_fn(spec, p0, psi_amp)
    data = ConeData(1, kind="dirac", fn=fn, fn_dr0=fn_dr0)

    def oracle(q):
        import numpy as np
        val = oracles.plane_wave_dirac(spec, q, psi_amp)
        return np.concatenate([val.phi, val.psi])

    return data, oracle


# -- output writers ----------------------------------------------------------

def _write_json(path, command, cfg, payload):
    """Write the report as strict JSON; True when a non-finite value became null."""
    doc = {"command": command, "config": cfg,
           "meta": {"generated_at": _timestamp()}}
    doc.update(payload)
    found = []
    doc = _nulled(doc, "output", found)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")
    if found:
        print(f"non-finite result written as null at {found[0][0]}", file=sys.stderr)
    return bool(found)


def _write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    with open(path, "w") as fh:
        fh.write(f"# generated_at={_timestamp()}\n")
        fh.write(buf.getvalue())


def _order_column(errors):
    """log2 ratios between consecutive rows; blank for the first."""
    out = [""]
    for prev, cur in zip(errors, errors[1:]):
        if prev > 0 and cur > 0:
            out.append(f"{math.log2(prev / cur):.3f}")
        else:
            out.append("")
    return out


# -- commands ----------------------------------------------------------------

def cmd_reconstruct(cfg, out, seed):
    from .reconstruct import (components, reconstruct_curved_singular,
                              reconstruct_dirac, reconstruct_spin_n,
                              relative_error)
    _known(cfg, _MAIN_KEYS + ("p0", "q", "kind", "valence", "quadrature", "chart",
                              "data", "tolerance"), "reconstruct")
    p0 = _as_point(_need(cfg, "p0", "reconstruct"), "p0")
    q_list = _as_list(_need(cfg, "q", "reconstruct"), "q")
    if not q_list:
        raise ConfigError("q list must be non-empty")
    kind, valence = _kind_and_valence(cfg)
    spec = _quadrature(cfg.get("quadrature", {}))
    chart = _chart(cfg["chart"]) if "chart" in cfg else None
    if chart is not None and kind != "spin":
        raise ConfigError("the curved evaluator handles spin data only")
    data, oracle = _cone_data(_need(cfg, "data", "reconstruct"), p0,
                              valence, "reconstruct")
    tol = _tolerance(cfg)
    records, failures = [], 0
    for i, q_raw in enumerate(q_list):
        q = _as_point(q_raw, f"q[{i}]")
        try:
            if kind == "dirac":
                res = reconstruct_dirac(p0, data, q, spec)
            elif chart is not None:
                res = reconstruct_curved_singular(chart, p0, data, valence,
                                                  q, spec)
            else:
                res = reconstruct_spin_n(p0, data, valence, q, spec)
        except (GeometryError, CoverageError) as exc:
            raise type(exc)(f"q[{i}]: {exc}") from None
        rec = {"q": q.tolist()}
        if kind == "dirac":
            rec["phi"] = [_c2j(z) for z in res.value.phi]
            rec["psi"] = [_c2j(z) for z in res.value.psi]
        else:
            rec["components"] = [_c2j(z) for z in res.value.components]
            rec["basis"] = res.value.basis_id
        rec["diagnostics"] = res.diagnostics
        if oracle is not None:
            err = relative_error(components(res.value), components(oracle(q)))
            rec["oracle_error"] = err
            if tol is not None:
                rec["within_tolerance"] = not _exceeds(err, tol)
                failures += _exceeds(err, tol)
        records.append(rec)
    non_finite = _write_json(out, "reconstruct", cfg, {"records": records})
    print(f"reconstruct: {len(records)} records -> {out}"
          + (f" ({failures} above tolerance)" if failures else ""))
    return EXIT_CHECK if failures or non_finite else EXIT_OK


def cmd_constraints(cfg, out, seed):
    from .cone import SphereGrid
    from .nulldata import constraint_residual
    _known(cfg, _MAIN_KEYS + ("p0", "valence", "s_values", "data", "levels",
                              "tolerance"), "constraints")
    p0 = _as_point(_need(cfg, "p0", "constraints"), "p0")
    valence = _as_count(_need(cfg, "valence", "constraints"), "valence")
    s_values = [_as_finite(s, f"s_values[{i}]") for i, s in
                enumerate(_as_list(_need(cfg, "s_values", "constraints"), "s_values"))]
    if not s_values:
        raise ConfigError("s_values must be non-empty")
    data, _ = _cone_data(_need(cfg, "data", "constraints"), p0,
                         valence, "constraints")
    if data.kind != "spin":
        raise ConfigError("constraint residuals apply to spin data")
    tol = _tolerance(cfg)
    if data.is_analytic:
        grids = [SphereGrid(nt, nph)
                 for nt, nph in _levels(cfg, [[12, 24], [24, 48], [48, 96]])]
    else:
        grids = [data.grid]
    tables = [constraint_residual(data, p0, s_values, g) for g in grids]
    js = sorted(tables[0])
    header = (["n_theta", "n_phi"] + [f"res_j{j}" for j in js]
              + [f"order_j{j}" for j in js])
    orders = {j: _order_column([t[j] for t in tables]) for j in js}
    rows = [[g.n_theta, g.n_phi] + [repr(t[j]) for j in js]
            + [orders[j][i] for j in js]
            for i, (g, t) in enumerate(zip(grids, tables))]
    _write_csv(out, header, rows)
    worst = max(tables[-1].values())
    print(f"constraints: finest residual {worst:.3e} -> {out}")
    finite = all(math.isfinite(r) for t in tables for r in t.values())
    return EXIT_CHECK if _exceeds(worst, tol) or not finite else EXIT_OK


def cmd_converge(cfg, out, seed):
    import dataclasses

    from .reconstruct import convergence_study
    _known(cfg, _MAIN_KEYS + ("p0", "q", "kind", "valence", "data", "quadrature",
                              "levels", "tolerance"), "converge")
    p0 = _as_point(_need(cfg, "p0", "converge"), "p0")
    q = _as_point(_need(cfg, "q", "converge"), "q")
    kind, valence = _kind_and_valence(cfg)
    data, oracle = _cone_data(_need(cfg, "data", "converge"), p0,
                              valence, "converge")
    if oracle is None:
        raise ConfigError("converge needs a named data family as oracle")
    base = _quadrature(cfg.get("quadrature", {}))
    specs = [dataclasses.replace(base, n_theta=nt, n_phi=nph)
             for nt, nph in _levels(cfg, [[16, 32], [32, 64], [64, 128]])]
    tol = _tolerance(cfg)
    rows = convergence_study(p0, data, q, oracle(q), specs, kind=kind, n=valence)
    errors = [r["error"] for r in rows]
    orders = _order_column(errors)
    table = [[r["n_theta"], r["n_phi"], repr(r["error"]), o]
             for r, o in zip(rows, orders)]
    _write_csv(out, ["n_theta", "n_phi", "rel_error", "order"], table)
    print(f"converge: finest rel_error {errors[-1]:.3e} -> {out}")
    return EXIT_CHECK if _exceeds(errors[-1], tol) \
        or not all(map(math.isfinite, errors)) else EXIT_OK


def _chart_frame(chart, p, theta, phi):
    """NP frame at p from the canonical spin basis at direction (theta, phi),
    normalized in the chart metric omega^2 eta (unchanged on the flat chart)."""
    import numpy as np
    from .cone import spin_basis_field
    from .frames import NPFrame, frame_from_spin_basis
    o_up, i_up = spin_basis_field(np.array([theta]), np.array([phi]),
                                  np.array([False]))
    base = frame_from_spin_basis(o_up[0], i_up[0])
    om = chart.omega(p)
    return NPFrame(base.l / om, base.n / om, base.m / om,
                   base.o / math.sqrt(om), base.iota / math.sqrt(om))


def cmd_curved_transport(cfg, out, seed):
    import numpy as np
    from . import transport
    _known(cfg, _MAIN_KEYS + ("chart", "rays", "k_steps", "van_vleck", "van_vleck_h",
                              "frame", "tolerance"), "curved-transport")
    chart = _chart(_need(cfg, "chart", "curved-transport"))
    if chart.omega is None:
        raise ConfigError("curved-transport needs a registry chart")
    rays = _as_list(_need(cfg, "rays", "curved-transport"), "rays")
    if not rays:
        raise ConfigError("rays must be non-empty")
    k_steps = _as_count(cfg.get("k_steps", 10), "k_steps")
    want_vv = cfg.get("van_vleck", True)
    if not isinstance(want_vv, bool):
        raise ConfigError(f"van_vleck must be true or false, got {want_vv!r}")
    vv_h = _as_positive(cfg.get("van_vleck_h", 2e-2), "van_vleck_h")
    tol = _tolerance(cfg)
    frame_cfg = cfg.get("frame")
    if frame_cfg is not None:
        _known(frame_cfg, ("steps", "theta", "phi", "s_end"), "frame")
        frame_steps = _as_count(frame_cfg.get("steps", 200), "frame.steps")
        theta = _as_finite(frame_cfg.get("theta", 0.4), "frame.theta")
        phi = _as_finite(frame_cfg.get("phi", 1.1), "frame.phi")
        s_end = _as_finite(frame_cfg.get("s_end", 1.0), "frame.s_end")
    records = []
    worst_spread = 0.0
    for i, ray in enumerate(rays):
        _known(ray, ("p", "direction", "t"), f"rays[{i}]")
        p = _as_point(_need(ray, "p", f"rays[{i}]"), f"rays[{i}].p")
        d = np.array([_as_finite(c, f"rays[{i}].direction") for c in _as_list(
            _need(ray, "direction", f"rays[{i}]"), f"rays[{i}].direction")])
        if d.shape != (3,) or not np.any(d):
            raise ConfigError(f"rays[{i}].direction must be a finite nonzero 3-vector")
        t = _as_finite(_need(ray, "t", f"rays[{i}]"), f"rays[{i}].t")
        lvec = np.concatenate([[1.0], d / np.linalg.norm(d)])
        q = p + t * lvec
        try:
            chart.require_inside(q, "endpoint")
            conn = transport.null_connect(chart, q, p)
            _, k_nodes = transport.transport_k(chart, q, p, steps=k_steps,
                                               propagator=conn.path)
            k_ode = float(k_nodes[-1])
            k_closed = float(transport.conformal_k(chart, q, p))
            ks = [k_ode, k_closed]
            rec = {"p": p.tolist(), "q": q.tolist(), "affine_parameter": conn[1],
                   "k_nodes": k_nodes.tolist(), "k_ode": k_ode, "k_closed_form": k_closed}
            work = {"null_connect": conn.path.work}
            if want_vv:
                work["van_vleck"] = {}
                k_vv = transport.van_vleck_k(chart, q, p, h=vv_h, propagator=conn.path,
                                             work=work["van_vleck"])
                rec["k_van_vleck"] = k_vv
                ks.append(k_vv)
            stages = list(work.values())
            rec["diagnostics"] = {
                **work,
                "worst_connect_residual": max(w["worst_connect_residual"] for w in stages),
                "world_function_calls": sum(w.get("world_function_calls", 0) for w in stages)}
            rec["flat_deviation"] = abs(2.0 * math.pi * k_closed - 1.0)
            rec["route_spread"] = max(ks) - min(ks)
            worst_spread = max(worst_spread, rec["route_spread"])
            if frame_cfg is not None:
                fr = _chart_frame(chart, p, theta, phi)
                try:
                    pf = transport.transport_spin_frame(chart, p, fr.l, fr,
                                                        s_end=s_end, steps=frame_steps)
                except GeometryError:
                    raise
                except ValueError as exc:
                    # the spin-basis extraction found the transported tetrad off
                    # normalization: the step is too coarse for this ray
                    raise ConfigError(
                        f"rays[{i}]: the frame transported with frame.steps = "
                        f"{frame_steps} drifted past 1e-10 ({exc}); use more steps")
                dots = [float(np.vdot(pf.o[j - 1], pf.o[j]).real)
                        for j in range(1, len(pf.o))]
                rec["frame"] = {"product_drift": pf.product_drift(),
                                "min_continuity": min(dots)}
        except GeometryError as exc:
            raise GeometryError(f"rays[{i}]: {exc}") from None
        records.append(rec)
    non_finite = _write_json(out, "curved-transport", cfg, {"records": records})
    print(f"curved-transport: {len(records)} rays, worst route spread "
          f"{worst_spread:.3e} -> {out}")
    return EXIT_CHECK if _exceeds(worst_spread, tol) or non_finite else EXIT_OK


# -- verify suites -----------------------------------------------------------

def _suite_algebra(rng, cases):
    import numpy as np
    from . import spinor as sp
    vecs = rng.standard_normal((cases, 4))
    phi = rng.standard_normal((cases, 2)) + 1j * rng.standard_normal((cases, 2))
    psi = rng.standard_normal((cases, 2)) + 1j * rng.standard_normal((cases, 2))
    p1, s1 = sp.clifford_batch(vecs, phi, psi)
    p2, s2 = sp.clifford_batch(vecs, p1, s1)
    norms = np.einsum("na,ab,nb->n", vecs, sp.ETA, vecs)
    scale = max(np.max(np.abs(phi)), np.max(np.abs(psi))) * (1.0 + np.max(np.abs(norms)))
    clifford = max(np.max(np.abs(p2 - norms[:, None] * phi)),
                   np.max(np.abs(s2 - norms[:, None] * psi))) / scale

    zeta = rng.standard_normal((cases, 2)) + 1j * rng.standard_normal((cases, 2))
    xi = rng.standard_normal((cases, 2)) + 1j * rng.standard_normal((cases, 2))
    pairing = sp.symplectic_pairing
    anti = np.max(np.abs(pairing(phi, psi, zeta, xi)
                         + pairing(zeta, xi, phi, psi)))
    q1, t1 = sp.clifford_batch(vecs, zeta, xi)
    skew = np.max(np.abs(pairing(p1, s1, zeta, xi)
                         - pairing(phi, psi, q1, t1)))
    pair_scale = np.max(np.abs(pairing(phi, psi, zeta, xi))) + 1.0

    spinors = rng.standard_normal((cases, 2)) + 1j * rng.standard_normal((cases, 2))
    round_trip = np.max(np.abs(sp.raise_comps(sp.lower_comps(spinors)) - spinors))
    round_trip = max(round_trip,
                     np.max(np.abs(sp.lower_comps(sp.raise_comps(spinors)) - spinors)))
    vec_trip = np.max(np.abs(sp.from_matrix(sp.to_matrix(vecs)) - vecs))
    return [("clifford_relation", float(clifford), 1e-12),
            ("symplectic_antisymmetry", float(anti / pair_scale), 1e-12),
            ("clifford_symmetry", float(skew / pair_scale), 1e-12),
            ("raise_lower_round_trip", float(max(round_trip, vec_trip)), 1e-12)]


def _suite_geometry(rng, cases):
    import numpy as np
    from . import cone, oracles, spinor
    grid = cone.SphereGrid(24, 48)
    p0 = np.zeros(4)
    t = 2.0
    sec = cone.build_section(p0, np.array([t, 0, 0, 0]), grid)
    area = abs(float(np.sum(sec.mu_sigma)) - math.pi * t ** 2) / (math.pi * t ** 2)

    # slab integral of the cone measure against the Leray-factorized form
    a, b = 0.4, 0.9
    xs, ws = np.polynomial.legendre.leggauss(24)
    r0s = 0.5 * (a + b) + 0.5 * (b - a) * xs
    wr = 0.5 * (b - a) * ws
    wang = grid.angles()[2]
    om, _ = grid.directions()

    def f(p):
        return np.exp(-p[:, 1] ** 2 - 0.5 * p[:, 2] - 0.3 * p[:, 0]) + 0.2 * p[:, 3] ** 2

    lhs = sum(w * np.sum(wang * f(r0 * np.concatenate(
        [np.ones((om.shape[0], 1)), om], axis=1)) * (r0 / 2.0))
        for r0, w in zip(r0s, wr))
    rhs = 0.0
    for r0, w in zip(r0s, wr):
        s = 2.0 * r0
        slab = cone.build_section(p0, np.array([s, 0, 0, 0]), grid)
        rhs += 2.0 * w * s * np.sum(slab.mu_leray * f(slab.p))
    leray = abs(lhs - rhs) / abs(lhs)

    wave = oracles.PlaneWaveSpec(1, [1.0, 0.3 + 0.4j])

    def smooth(qq, p):
        phase = np.exp(1j * wave.phase(p))
        u_phi = wave.amplitude * phase[..., None] * wave.alpha
        u_psi = phase[..., None] * np.conj(spinor.raise_comps(wave.alpha))
        qm = np.exp(0.3 * np.dot(np.asarray(qq, float), [0.2, 0.1, -0.3, 0.05]))
        return qm * u_phi, qm * u_psi

    q = np.array([1.5, 0.2, -0.1, 0.3])
    fine = oracles.derivative_under_integral_check(smooth, p0, q, 1e-3)
    coarse = oracles.derivative_under_integral_check(smooth, p0, q, 2e-3)
    duic = max(fine.values())
    ratio = max(fine[k] / coarse[k] for k in fine)
    return [("section_area", area, 1e-8),
            ("leray_factorization", leray, 1e-10),
            ("derivative_under_integral", duic, 1e-4),
            ("derivative_fd_ratio", ratio, 0.35)]


def _suite_constraints(rng, cases):
    import numpy as np
    from . import nulldata as nd
    from . import oracles
    from .cone import SphereGrid, build_section
    p0 = np.zeros(4)
    spec = oracles.PlaneWaveSpec(2, [1.0, 0.3 + 0.4j], amplitude=0.8 - 0.3j)
    fn, fn_dr0 = oracles.plane_wave_cone_fn(spec, p0)
    data = nd.ConeData(2, fn=fn, fn_dr0=fn_dr0)
    res = [max(nd.constraint_residual(data, p0, [0.8, 1.6],
                                      SphereGrid(nt, 2 * nt)).values())
           for nt in (16, 32)]

    sec = build_section(p0, np.array([1.0, 0, 0, 0]), SphereGrid(32, 64))
    calc = nd._SectionCalculus(sec)
    worst = 0.0
    for _ in range(10):
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vals = ((sec.o @ w) * (np.conj(sec.iota) @ z)
                * np.exp(0.4 * sec.omega[:, 0])
                * (1.0 + 0.3 * sec.omega[:, 1] - 0.2 * sec.omega[:, 2] ** 2))
        out = nd.eth_prime(nd.WeightedScalarField(vals, (1, -1)), sec,
                           calculus=calc)
        scale = np.max(np.abs(vals)) * np.sum(sec.mu_sigma)
        worst = max(worst, abs(np.sum(out.values * sec.mu_sigma)) / scale)
    return [("exact_restriction_residual", res[-1], 1e-6),
            ("residual_refinement_ratio", res[-1] / res[0], 0.05),
            ("eth_prime_loop_integral", worst, 1e-8)]


def _suite_curved(rng, cases):
    import numpy as np
    from . import transport
    p = np.array([0.2, 0.1, -0.3, 0.4])
    lvec = np.array([1.0, 0.3, 0.5, math.sqrt(1.0 - 0.34)])
    q = p + 1.5 * lvec

    flat = transport.make_chart("flat")
    _, ks = transport.transport_k(flat, q, p, steps=8, shoot_steps=24)
    flat_k = float(np.max(np.abs(2.0 * math.pi * ks - 1.0)))

    base = _chart_frame(flat, p, 0.4, 1.1)
    pf = transport.transport_spin_frame(flat, p, base.l, base,
                                        s_end=1.5, steps=120)
    flat_frame = max(pf.product_drift(),
                     float(np.max(np.abs(pf.o[-1] - pf.o[0]))))

    devs = []
    for eps in (1e-3, 1e-4):
        chart = transport.make_chart("conformal", eps=eps)
        k = transport.conformal_k(chart, q, p)
        devs.append(abs(2.0 * math.pi * k - 1.0))
    linearity = abs(devs[0] / devs[1] / 10.0 - 1.0)

    chart = transport.make_chart("conformal", eps=1e-3)
    fr = _chart_frame(chart, p, 0.4, 1.1)
    pf = transport.transport_spin_frame(chart, p, fr.l, fr,
                                        s_end=1.5, steps=200)
    return [("flat_kernel", flat_k, 1e-8),
            ("flat_frame_transport", flat_frame, 1e-10),
            ("weak_field_linearity", linearity, 0.2),
            ("np_normalization_drift", pf.product_drift(), 1e-8)]


_SUITES = {"algebra": _suite_algebra, "geometry": _suite_geometry,
           "constraints": _suite_constraints, "curved": _suite_curved}


def cmd_verify(cfg, out, seed):
    import numpy as np
    _known(cfg, _MAIN_KEYS + ("suites", "cases", "thresholds"), "verify")
    suites = _as_list(cfg.get("suites", sorted(_SUITES)), "suites")
    unknown = [s for s in suites if not isinstance(s, str) or s not in _SUITES]
    if unknown:
        raise ConfigError(f"unknown suites {unknown}; "
                          f"known: {sorted(_SUITES)}")
    cases = _as_count(cfg.get("cases", 1000), "cases")
    overrides = _as_object(cfg.get("thresholds", {}), "thresholds")
    for full, value in overrides.items():
        _as_finite(value, f"thresholds[{full!r}]")
    rng = np.random.default_rng(seed)
    results = [(suite, name, residual, default) for suite in suites
               for name, residual, default in _SUITES[suite](rng, cases)]
    # an override must name a check that ran, or its gate would be lost
    _known(overrides, [f"{suite}.{name}" for suite, name, _, _ in results],
           "thresholds")
    checks = []
    for suite, name, residual, default in results:
        full = f"{suite}.{name}"
        threshold = overrides.get(full, default)
        ok = residual <= threshold
        checks.append({"suite": suite, "name": name,
                       "residual": residual, "threshold": threshold,
                       "passed": bool(ok)})
        print(f"[{'PASS' if ok else 'FAIL'}] {full}: "
              f"residual {residual:.3e}, threshold {threshold:.3e}")
    all_pass = all(c["passed"] for c in checks)
    non_finite = _write_json(out, "verify", cfg,
                             {"checks": checks, "all_pass": all_pass, "seed": seed})
    print(f"verify: {sum(c['passed'] for c in checks)}/{len(checks)} "
          f"checks passed -> {out}")
    return EXIT_OK if all_pass and not non_finite else EXIT_CHECK


_COMMANDS = {
    "reconstruct": (cmd_reconstruct, "json"),
    "constraints": (cmd_constraints, "csv"),
    "converge": (cmd_converge, "csv"),
    "verify": (cmd_verify, "json"),
    "curved-transport": (cmd_curved_transport, "json"),
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="conerec",
        description="null-cone reconstruction toolkit",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", help="output path (default per command)")
    parser.add_argument("--threads", type=int,
                        help="BLAS thread count, pinned before numpy loads")
    parser.add_argument("--seed", type=int,
                        help="seed for randomized suites (default config/0)")
    args = parser.parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print("config error: --threads must be positive", file=sys.stderr)
            return EXIT_CONFIG
        _pin_threads(args.threads)
    handler, fmt = _COMMANDS[args.command]
    try:
        cfg = _as_object(_load_config(args.config), "config")
        seed = args.seed if args.seed is not None else cfg.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, (int, float)) \
                or seed != int(seed) or seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
        seed = int(seed)
        if not isinstance(cfg.get("out", ""), (str, type(None))):
            raise ConfigError(f"out must be a path string, got {cfg['out']!r}")
        out = args.out or cfg.get("out") or f"conerec-{args.command}.{fmt}"
        return handler(cfg, out, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GeometryError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except CoverageError as exc:
        print(f"data coverage error: {exc}", file=sys.stderr)
        return EXIT_COVERAGE
    except (KeyError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # a fault of the program: one line, no traceback
        print(f"internal error: {type(exc).__name__}: {' '.join(str(exc).split())}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
