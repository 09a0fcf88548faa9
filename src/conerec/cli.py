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
import importlib
import json
import math
import os
import sys
from datetime import datetime, timezone

from .errors import ConfigError, CoverageError, GeometryError
from .tables import (_REQUIRED, _Key, _as_bool, _as_finite, _as_kind, _as_object,
                     _as_path, _as_positive, _check, _count, _finite_json, _known,
                     _list_of, _nulled, _number, _optional, _read)

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_CONFIG = 2
EXIT_GEOMETRY = 3
EXIT_COVERAGE = 4
EXIT_INTERNAL = 5

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _timestamp():
    return datetime.now(timezone.utc).isoformat()


# -- config tables -----------------------------------------------------------
#
# Each config block has one table, read by tables._read.
#
# Bounds of the counts a config sets, so that none can make a run allocate
# or loop without end (1e308 is a valid JSON integer), and of the magnitude
# of a coordinate or length, which the geometry squares.  The grid bound
# is cone.MAX_GRID (see _as_grid), which data files share.
_MAX_STEPS = 10_000       # k_steps, frame.steps
_MAX_CASES = 100_000      # verify cases
_MAX_COORDINATE = 1e100
# each part of data.alpha, amplitude and psi_amplitude: amplitude |alpha|^18,
# a valence-16 datum's radial derivative, then stays below 1e100
_MAX_WAVE = 1e5


def _load_config(path):
    try:
        with open(path) as fh:
            return _finite_json(json.load(fh), "config")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")


def _built(build, values, what, at=""):
    """build(**values), a ValueError of build a config error naming the
    block `what` and then `at`."""
    try:
        return build(**values)
    except ValueError as exc:
        raise ConfigError(f"bad {what}{at}: {exc}")


def _block(table, build=dict):
    """Check of a nested block: build(**values read by table), see _built."""
    return lambda v, what: _built(build, _read(v, table, what, what + "."), what)


def _as_given(v, what):  # a value its callee checks
    return v


_as_seed = _check(lambda v: _number(v) and v == int(v) and v >= 0,
                  "a non-negative integer", int)
_as_coordinate = _check(lambda v: _number(v) and abs(v) <= _MAX_COORDINATE,
                        f"a number at most {_MAX_COORDINATE:g} in magnitude", float)
_as_wave_part = _check(lambda v: _number(v) and abs(v) <= _MAX_WAVE,
                       f"a number at most {_MAX_WAVE:g} in magnitude", float)
_as_length = _check(lambda v: _number(v) and 0 < v <= _MAX_COORDINATE,
                    f"a positive number at most {_MAX_COORDINATE:g}", float)


def _as_complex(v, what):
    """A plane-wave parameter, [re, im] or real, each part at most _MAX_WAVE."""
    if isinstance(v, list) and len(v) == 2:
        return complex(_as_wave_part(v[0], f"{what} real part"),
                       _as_wave_part(v[1], f"{what} imaginary part"))
    return complex(_as_wave_part(v, what))


def _vector(n, nonzero=False):
    """Check of n coordinates, as an array."""
    def check(v, what):
        import numpy as np
        arr = np.array(_list_of(_as_coordinate)(v, what))
        if arr.shape != (n,) or nonzero and not arr.any():
            raise ConfigError(f"{what} must be {n} coordinates{', not all zero' * nonzero}")
        return arr
    return check


def _as_grid(v, what):
    """quadrature.n_theta and n_phi, each levels entry: at most cone.MAX_GRID,
    the bound a data file's grid has too."""
    from .cone import MAX_GRID
    return _count(MAX_GRID)(v, what)


def _as_level(v, what):
    if not (isinstance(v, list) and len(v) == 2):
        raise ConfigError(f"{what} must be an [n_theta, n_phi] pair, got {v!r}")
    return tuple(_list_of(_as_grid)(v, what))


def _as_valence(v, what):
    from .reconstruct import MAX_VALENCE
    return _count(MAX_VALENCE)(v, what)


def _late(module, name):
    """A call of module.name, imported when called so numpy loads after --threads."""
    return lambda **kw: getattr(importlib.import_module(module, __package__), name)(**kw)


_as_point = _vector(4)
_QUADRATURE = {"n_theta": _Key(_as_grid, 24), "n_phi": _Key(_as_grid, 48),
               "rho_variant": _Key(_as_given)}
_CHART = {"name": _Key(_as_given, "flat"), "eps": _Key(_as_finite),
          "profile": _Key(_as_given), "width": _Key(_as_length),
          "center": _Key(_as_point), "halfwidth": _Key(_as_coordinate)}
_PLANE_WAVE = {"family": _Key(_as_given, _REQUIRED),
               "alpha": _Key(_list_of(_as_complex), _REQUIRED),
               "amplitude": _Key(_as_complex, 1.0)}
# data sources: a block naming "file" is a file source, any other a family
_DATA = {"file": {"file": _Key(_as_path, _REQUIRED)}, "plane-wave": _PLANE_WAVE,
         "plane-wave-dirac": {**_PLANE_WAVE, "psi_amplitude": _Key(_as_complex, 1.0)}}
_FRAME = {"steps": _Key(_count(_MAX_STEPS), 200), "theta": _Key(_as_finite, 0.4),
          "phi": _Key(_as_finite, 1.1), "s_end": _Key(_as_coordinate, 1.0)}
_RAY = {"p": _Key(_as_point, _REQUIRED), "direction": _Key(_vector(3, nonzero=True), _REQUIRED),
        "t": _Key(_as_coordinate, _REQUIRED)}


def _as_data(v, what):
    source = "file" if "file" in _as_object(v, what) else v.get("family", "plane-wave")
    if not isinstance(source, str) or source not in _DATA:
        raise ConfigError(f"unknown data family {source!r}")
    return _read(v, _DATA[source], what, what + ".")


# entries shared by the commands that take the key
_MAIN = {"seed": _Key(_as_seed, 0), "out": _Key(_optional(_as_path))}
_POINT = _Key(_as_point, _REQUIRED)
_KIND = _Key(_as_kind, "spin")
_VALENCE = _Key(_as_valence, 1)
_DATA_KEY = _Key(_as_data, _REQUIRED)
_QUADRATURE_KEY = _Key(_block(_QUADRATURE, _late(".reconstruct", "QuadratureSpec")), {})
_CHART_KEY = _Key(_block(_CHART, _late(".transport", "make_chart")))
_LEVELS = _Key(_list_of(_as_level, non_empty=True))
_TOLERANCE = _Key(_as_finite)


def _exceeds(value, tol):
    """Whether value fails an optional tolerance; NaN always fails."""
    return tol is not None and not value <= tol


def _c2j(z):
    z = complex(z)
    return [z.real, z.imag]


def _cone_data(src, p0, valence, kind, columns=1):
    """ConeData of the given kind plus an oracle callback (None for file
    data), from a data block read by _as_data.

    Families: "plane-wave" (spin components phi_0 .. phi_{columns-1}; the
    evaluators read phi_0 only, the constraint check all n+1) and
    "plane-wave-dirac" (the (zeta_0, xi^{1'}) pair).  File sources name
    a descriptor written by save_cone_data.
    """
    from . import oracles
    from .nulldata import ConeData, load_cone_data
    if "file" in src:
        try:
            data = load_cone_data(src["file"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load cone data {src['file']!r}: {exc}")
        if (data.valence, data.kind) != (valence, kind):
            raise ConfigError(f"data file carries valence {data.valence} {data.kind} data, "
                              f"config says valence {valence}, kind {kind!r}")
        return data, None
    if kind != ("dirac" if src["family"] == "plane-wave-dirac" else "spin"):
        raise ConfigError(f"kind {kind!r} does not read the {src['family']} family")
    try:
        spec = oracles.PlaneWaveSpec(valence, src["alpha"], src["amplitude"])
    except ValueError as exc:
        raise ConfigError(f"bad plane-wave parameters: {exc}")
    if src["family"] == "plane-wave":
        fn, fn_dr0 = oracles.plane_wave_cone_fn(spec, p0, columns)
        return (ConeData(valence, fn=fn, fn_dr0=fn_dr0),
                lambda q: oracles.plane_wave_field(spec, q).components)
    if valence != 1:
        raise ConfigError("the Dirac family is valence 1")
    psi_amp = src["psi_amplitude"]
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
           "meta": {"generated_at": _timestamp()}, **payload}
    found = []
    doc = _nulled(doc, "output", found)
    # json.dumps, not json.dump, so the C encoder writes the document
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, allow_nan=False) + "\n")
    if found:
        print(f"non-finite result written as null at {found[0][0]}", file=sys.stderr)
    return bool(found)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(f"# generated_at={_timestamp()}\n")
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def _order_column(errors):
    """log2 ratios between consecutive rows; blank for the first."""
    return [""] + [f"{math.log2(prev / cur):.3f}" if prev > 0 and cur > 0 else ""
                   for prev, cur in zip(errors, errors[1:])]


# -- commands ----------------------------------------------------------------
#
# Each handler takes the checked values of its table, plus the raw config
# under "config" for the output's echo.

_RECONSTRUCT = {**_MAIN, "p0": _POINT,
                "q": _Key(_list_of(_as_point, non_empty=True), _REQUIRED),
                "kind": _KIND, "valence": _VALENCE, "quadrature": _QUADRATURE_KEY,
                "chart": _CHART_KEY, "data": _DATA_KEY, "tolerance": _TOLERANCE}


def cmd_reconstruct(v, out, seed):
    from .reconstruct import (components, reconstruct_curved_singular,
                              reconstruct_dirac, reconstruct_spin_n,
                              relative_error)
    p0, kind, valence, spec = v["p0"], v["kind"], v["valence"], v["quadrature"]
    chart, tol = v.get("chart"), v.get("tolerance")
    if chart is not None and kind != "spin":
        raise ConfigError("kind must be 'spin' with a chart: the curved evaluator reads "
                          "spin data only")
    data, oracle = _cone_data(v["data"], p0, valence, kind)
    grid = data.grid
    if grid is not None and (grid.n_theta, grid.n_phi) != (spec.n_theta, spec.n_phi):
        raise ConfigError(f"quadrature {spec.n_theta}x{spec.n_phi} (n_theta x n_phi) does not "
                          f"match the data file's grid {grid.n_theta}x{grid.n_phi}: file data "
                          "is read on its own grid")
    records, failures = [], 0
    for i, q in enumerate(v["q"]):
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
            rec["basis"] = "standard"
        rec["diagnostics"] = res.diagnostics
        if oracle is not None:
            err = relative_error(components(res.value), components(oracle(q)))
            rec["oracle_error"] = err
            if tol is not None:
                rec["within_tolerance"] = not _exceeds(err, tol)
                failures += _exceeds(err, tol)
        records.append(rec)
    non_finite = _write_json(out, "reconstruct", v["config"], {"records": records})
    print(f"reconstruct: {len(records)} records -> {out}"
          + (f" ({failures} above tolerance)" if failures else ""))
    return EXIT_CHECK if failures or non_finite else EXIT_OK


_CONSTRAINTS = {**_MAIN, "p0": _POINT, "valence": _VALENCE._replace(default=_REQUIRED),
                "s_values": _Key(_list_of(_as_length, non_empty=True), _REQUIRED),
                "data": _DATA_KEY, "tolerance": _TOLERANCE,
                "levels": _LEVELS._replace(default=[[12, 24], [24, 48], [48, 96]])}


def cmd_constraints(v, out, seed):
    from .cone import SphereGrid
    from .nulldata import constraint_residual
    p0, s_values, tol = v["p0"], v["s_values"], v.get("tolerance")
    data, _ = _cone_data(v["data"], p0, v["valence"], "spin", columns=v["valence"] + 1)
    grids = ([_built(SphereGrid, {"n_theta": nt, "n_phi": nph}, "levels", f"[{i}]")
              for i, (nt, nph) in enumerate(v["levels"])] if data.is_analytic
             else [data.grid])
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


# converge builds its specs per level, so its quadrature block stays a dict
_CONVERGE = {**_MAIN, "p0": _POINT, "q": _POINT, "kind": _KIND, "valence": _VALENCE,
             "data": _DATA_KEY, "quadrature": _Key(_block(_QUADRATURE), {}),
             "levels": _LEVELS._replace(default=[[16, 32], [32, 64], [64, 128]]),
             "tolerance": _TOLERANCE}


def cmd_converge(v, out, seed):
    from .reconstruct import QuadratureSpec, convergence_study
    p0, q, tol = v["p0"], v["q"], v.get("tolerance")
    specs = [_built(QuadratureSpec, {**v["quadrature"], "n_theta": nt, "n_phi": nph},
                    "quadrature", f" at levels[{i}]")
             for i, (nt, nph) in enumerate(v["levels"])]
    data, oracle = _cone_data(v["data"], p0, v["valence"], v["kind"])
    if oracle is None:
        raise ConfigError("converge needs a named data family as oracle")
    rows = convergence_study(p0, data, q, oracle(q), specs, kind=v["kind"],
                             n=v["valence"])
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


_CURVED_TRANSPORT = {**_MAIN, "chart": _CHART_KEY._replace(default=_REQUIRED),
                     "rays": _Key(_list_of(_block(_RAY), non_empty=True), _REQUIRED),
                     "k_steps": _Key(_count(_MAX_STEPS), 10), "van_vleck": _Key(_as_bool, True),
                     "van_vleck_h": _Key(_as_positive, 2e-2), "tolerance": _TOLERANCE,
                     "frame": _Key(_optional(_block(_FRAME)))}


def cmd_curved_transport(v, out, seed):
    import numpy as np
    from . import transport
    chart, frame, tol = v["chart"], v.get("frame"), v.get("tolerance")
    records = []
    worst_spread = 0.0
    for i, ray in enumerate(v["rays"]):
        p, d, t = ray["p"], ray["direction"], ray["t"]
        d = d / np.max(np.abs(d))    # so the norm of a tiny direction cannot underflow
        chord = t * np.concatenate([[1.0], d / np.linalg.norm(d)])
        q = p + chord
        # q rounds at the scale of |p|: a chord lost in that rounding is not null
        if np.max(np.abs((q - p) - chord)) > 1e-10 * abs(t):
            raise ConfigError(f"rays[{i}].t = {t!r} is too short to resolve at the "
                              f"magnitude of rays[{i}].p: q - p misses t (1, direction) "
                              "by more than 1e-10 t")
        try:
            chart.require_inside(q, "endpoint")
            conn = transport.null_connect(chart, q, p)
            _, k_nodes = transport.transport_k(chart, q, p, steps=v["k_steps"],
                                               propagator=conn)
            k_ode = float(k_nodes[-1])
            k_closed = float(transport.conformal_k(chart, q, p))
            ks = [k_ode, k_closed]
            rec = {"p": p.tolist(), "q": q.tolist(), "affine_parameter": float(conn.v[0][0]),
                   "k_nodes": k_nodes.tolist(), "k_ode": k_ode, "k_closed_form": k_closed}
            work = {"null_connect": conn.work}
            if v["van_vleck"]:
                work["van_vleck"] = {}
                rec["k_van_vleck"], rec["k_van_vleck_error_bound"] = transport.van_vleck_k(
                    chart, q, p, h=v["van_vleck_h"], propagator=conn,
                    work=work["van_vleck"])
                ks.append(rec["k_van_vleck"])
            rec["diagnostics"] = {
                **work,
                "world_function_calls": sum(w.get("world_function_calls", 0)
                                            for w in work.values())}
            rec["flat_deviation"] = abs(2.0 * math.pi * k_closed - 1.0)
            rec["route_spread"] = max(ks) - min(ks)
            worst_spread = max(worst_spread, rec["route_spread"])
            if frame is not None:
                fr = _chart_frame(chart, p, frame["theta"], frame["phi"])
                pf = transport.transport_spin_frame(chart, p, fr.l, fr, s_end=frame["s_end"],
                                                    steps=frame["steps"])
                dots = np.sum(pf.o[:-1].conj() * pf.o[1:], axis=1).real
                rec["frame"] = {"product_drift": pf.product_drift(),
                                "min_continuity": float(dots.min())}
        except GeometryError as exc:
            raise GeometryError(f"rays[{i}]: {exc}") from None
        records.append(rec)
    non_finite = _write_json(out, "curved-transport", v["config"], {"records": records})
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
    _, ks = transport.transport_k(flat, q, p, steps=8)
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


# thresholds stay as given, since each check reports its threshold; their
# ids are checked against the suites that ran
_VERIFY = {**_MAIN,
           "suites": _Key(_list_of(_check(lambda s: isinstance(s, str) and s in _SUITES,
                                          f"one of {sorted(_SUITES)}")), sorted(_SUITES)),
           "cases": _Key(_count(_MAX_CASES), 1000),
           "thresholds": _Key(_check(lambda v: isinstance(v, dict) and all(
               map(_number, v.values())), "an object of finite numbers"), {})}


def cmd_verify(v, out, seed):
    import numpy as np
    suites, cases, overrides = v["suites"], v["cases"], v["thresholds"]
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
    non_finite = _write_json(out, "verify", v["config"],
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
_TABLES = {"reconstruct": _RECONSTRUCT, "constraints": _CONSTRAINTS,
           "converge": _CONVERGE, "verify": _VERIFY,
           "curved-transport": _CURVED_TRANSPORT}


# built once: parsing is stateless, so every main call shares it
_PARSER = argparse.ArgumentParser(prog="conerec",
                                  description="null-cone reconstruction toolkit")
_PARSER.add_argument("command", choices=_COMMANDS)
_PARSER.add_argument("--config", required=True, help="JSON config path")
_PARSER.add_argument("--out", help="output path (default per command)")
_PARSER.add_argument("--threads", type=int,
                     help="BLAS thread count, pinned before numpy loads")
_PARSER.add_argument("--seed", type=int,
                     help="seed for randomized suites (default config/0)")


def main(argv=None):
    args = _PARSER.parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print("config error: --threads must be positive", file=sys.stderr)
            return EXIT_CONFIG
        os.environ.update(dict.fromkeys(_THREAD_VARS, str(args.threads)))
    handler, fmt = _COMMANDS[args.command]
    try:
        cfg = _as_object(_load_config(args.config), "config")
        v = _read(cfg, _TABLES[args.command], args.command)
        seed = v["seed"] if args.seed is None else _as_seed(args.seed, "--seed")
        out = args.out or v.get("out") or f"conerec-{args.command}.{fmt}"
        return handler({**v, "config": cfg}, out, seed)
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
