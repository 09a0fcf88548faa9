"""The benchmark's two workloads: seeded CLI commands and their reference checks.

Every input comes from the seed.  Command i of a workload is generated
from the seed sequence (seed, i), so the same seed gives the same command
stream, and a command's cost does not depend on the seed: only point
coordinates, wave parameters and rays change, never grid sizes, valence
cycles or point counts.

A check raises Mismatch when an output is not strict JSON, holds a
non-finite number, or falls outside the workload's reference tolerance.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from conerec import cone, nulldata, oracles

FLAT_GRID = (64, 128)          # acceptance resolution
TRANSPORT_EPS = 1e-2
TRANSPORT_K_STEPS = 1
FRAME_STEPS = 100

# interior points q = p0 + (t, x) with |x| <= X_SHARE t keep every section
# generator inside r0 in [(1 - X_SHARE) T_MIN / 2, (1 + X_SHARE) T_MAX / 2]
T_MIN, T_MAX, X_SHARE = 1.0, 2.0, 0.35
FILE_R0 = (0.3, 1.4, 40)       # r0 nodes of the data files: lo, hi, count

# Reference tolerances, relative to the largest oracle component.  The
# analytic flat evaluator is past roundoff at 64x128; file data adds the
# cubic-spline error of FILE_R0.
TOL_FLAT = 1e-10
TOL_FILE = 1e-6
TOL_K_ODE = 2e-5               # one RK4 step of the transport ODE
TOL_K_VAN_VLECK = 1e-6
TOL_K_CLOSED = 1e-12
TOL_FRAME_DRIFT = 1e-8

WARMUP_INDEX = 2 ** 31         # seed-sequence slot of the warm-up commands


class Mismatch(Exception):
    """An output that is malformed or outside its reference tolerance."""


@dataclass
class Command:
    """One CLI invocation with its work-item count and output check."""

    argv: list
    items: int
    check: object              # callable(out_path) -> None, raises Mismatch


# -- strict output parsing ----------------------------------------------------

def _reject_constant(token):
    raise Mismatch(f"non-finite token {token} in JSON output")


def _require_finite(node, where="$"):
    if isinstance(node, float) and not math.isfinite(node):
        raise Mismatch(f"non-finite number at {where}")
    if isinstance(node, dict):
        for key, val in node.items():
            _require_finite(val, f"{where}.{key}")
    elif isinstance(node, list):
        for i, val in enumerate(node):
            _require_finite(val, f"{where}[{i}]")


def read_json(path):
    """Parse strictly: NaN and Infinity tokens and overflowing numbers fail."""
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        raise Mismatch(f"output is not strict JSON: {exc}") from None
    _require_finite(doc)
    return doc


def _complex_list(pairs, what):
    try:
        arr = np.asarray(pairs, dtype=float)
    except (TypeError, ValueError):
        raise Mismatch(f"{what} is not a list of [re, im] pairs") from None
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise Mismatch(f"{what} is not a list of [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def _relative_error(got, ref, what):
    ref = np.asarray(ref, dtype=complex)
    if got.shape != ref.shape:
        raise Mismatch(f"{what}: {got.size} components, expected {ref.size}")
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    return float(np.max(np.abs(got - ref))) / scale


# -- seeded inputs ------------------------------------------------------------

def _c2j(z):
    z = complex(z)
    return [z.real, z.imag]


def _unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


@dataclass
class Wave:
    """A plane-wave family: principal spinor and amplitudes, unit sized."""

    valence: int
    dirac: bool
    alpha: np.ndarray
    amplitude: complex
    psi_amplitude: complex

    @classmethod
    def draw(cls, rng, valence, dirac=False):
        alpha = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        alpha /= np.linalg.norm(alpha)
        amp = np.exp(2j * math.pi * rng.uniform())
        psi = np.exp(2j * math.pi * rng.uniform())
        return cls(valence, dirac, alpha, amp, psi)

    @property
    def spec(self):
        return oracles.PlaneWaveSpec(self.valence, self.alpha, self.amplitude)

    def data_config(self):
        cfg = {"family": "plane-wave-dirac" if self.dirac else "plane-wave",
               "alpha": [_c2j(a) for a in self.alpha],
               "amplitude": _c2j(self.amplitude)}
        if self.dirac:
            cfg["psi_amplitude"] = _c2j(self.psi_amplitude)
        return cfg

    def oracle(self, q):
        if self.dirac:
            val = oracles.plane_wave_dirac(self.spec, q, self.psi_amplitude)
            return np.concatenate([val.phi, val.psi])
        return oracles.plane_wave_field(self.spec, q).components

    def cone_fn(self, p0):
        if self.dirac:
            return oracles.plane_wave_dirac_cone_fn(self.spec, p0,
                                                    self.psi_amplitude)[0]
        return oracles.plane_wave_cone_fn(self.spec, p0)[0]


def _interior_point(rng, p0):
    t = rng.uniform(T_MIN, T_MAX)
    x = _unit(rng, 3) * rng.uniform(0.0, X_SHARE) * t
    return p0 + np.concatenate([[t], x])


def write_data_file(path, wave, p0, grid_shape):
    """Sample the wave's cone data on a grid and save it as conedata-v1.

    phi_0, zeta_0 and xi^{1'} contract only with o, so the canonical
    on-axis frame of each direction serves every section.
    """
    grid = cone.SphereGrid(*grid_shape)
    theta, phi, _, chart = grid.angles()
    omega = cone.unit_directions(theta, phi)
    o_up, iota_up = cone.spin_basis_field(theta, phi, chart)
    r0_nodes = np.linspace(*FILE_R0)
    fn = wave.cone_fn(p0)
    ncomp = 2 if wave.dirac else 1
    values = np.array([fn(np.full(theta.size, r0), omega, o_up, iota_up)[:, :ncomp]
                       for r0 in r0_nodes])
    data = nulldata.ConeData(wave.valence, kind="dirac" if wave.dirac else "spin",
                             grid=grid, r0_nodes=r0_nodes, values=values)
    nulldata.save_cone_data(path, data)


# -- workloads ----------------------------------------------------------------

@dataclass
class Workload:
    """Command stream of one workload, bound to a seed and a work directory."""

    seed: int
    workdir: str
    deck = 1                   # commands in one full cycle of the mix
    sizes = {}                 # input sizes, for the provenance record

    def __post_init__(self):
        self._rng = np.random.default_rng([self.seed, 0x5EED])

    def rng(self, i):
        return np.random.default_rng([self.seed, i])

    def path(self, name):
        return os.path.join(self.workdir, name)

    def _argv(self, command, cfg, tag):
        cfg_path = self.path(f"{tag}.cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        # every command's output is checked before the next one runs
        return [command, "--config", cfg_path, "--out", self.path("out.json")]

    def prepare(self):
        """Write the inputs shared by all commands (data files) to workdir.

        Commands only read them, so one prepared workdir serves several
        Workload objects built with the same seed.
        """

    def command(self, i) -> Command:
        raise NotImplementedError

    def warmups(self):
        """Small commands that run every code path once before timing."""
        return []


def _check_records(doc, refs, tol, what):
    records = doc.get("records")
    if not isinstance(records, list) or len(records) != len(refs):
        raise Mismatch(f"{what}: expected {len(refs)} records")
    for j, (rec, (ref, dirac)) in enumerate(zip(records, refs)):
        if dirac:
            got = np.concatenate([_complex_list(rec["phi"], "phi"),
                                  _complex_list(rec["psi"], "psi")])
        else:
            got = _complex_list(rec["components"], "components")
        err = _relative_error(got, ref, f"{what} record {j}")
        if not err <= tol:
            raise Mismatch(f"{what} record {j}: relative error {err:.3e} "
                           f"above {tol:.1e}")


class FlatPoints(Workload):
    """reconstruct on the flat evaluator at 64x128; valences 1-4 and Dirac.

    Command i has kind KINDS[i % 5]; every fourth command (i % 4 == 3)
    reads a conedata-v1 file written at set-up instead of the analytic
    source, so each kind meets both sources once per 20 commands.
    """

    KINDS = (1, 2, 3, 4, "dirac")
    POINTS = 3
    deck = 20
    sizes = {"grid": list(FLAT_GRID), "points_per_command": POINTS,
             "kinds": ["spin1", "spin2", "spin3", "spin4", "dirac"],
             "file_share": 0.25, "file_r0_nodes": FILE_R0[2]}

    def __post_init__(self):
        super().__post_init__()
        self.p0 = self._rng.uniform(-0.2, 0.2, 4)
        self.waves = {k: Wave.draw(self._rng, 1 if k == "dirac" else k, k == "dirac")
                      for k in self.KINDS}
        self.files = {k: self.path(f"data-{k}.json") for k in self.KINDS}
        self._tiny = self.path("data-tiny.json")

    def prepare(self):
        for kind, wave in self.waves.items():
            write_data_file(self.files[kind], wave, self.p0, FLAT_GRID)
        write_data_file(self._tiny, self.waves[1], self.p0, (8, 16))

    def _reconstruct(self, tag, kind, points, source, grid_shape, tol):
        wave = self.waves[kind]
        cfg = {"p0": self.p0.tolist(), "q": [q.tolist() for q in points],
               "valence": wave.valence,
               "quadrature": {"n_theta": grid_shape[0], "n_phi": grid_shape[1]},
               "data": {"file": source} if source else wave.data_config()}
        if wave.dirac:
            cfg["kind"] = "dirac"
        refs = [(wave.oracle(q), wave.dirac) for q in points]
        what = f"reconstruct {tag}"

        def check(out):
            _check_records(read_json(out), refs, tol, what)

        return Command(self._argv("reconstruct", cfg, tag), len(points), check)

    def command(self, i):
        rng = self.rng(i)
        kind = self.KINDS[i % len(self.KINDS)]
        points = [_interior_point(rng, self.p0) for _ in range(self.POINTS)]
        from_file = i % 4 == 3
        return self._reconstruct(f"c{i}", kind, points,
                                 self.files[kind] if from_file else None,
                                 FLAT_GRID, TOL_FILE if from_file else TOL_FLAT)

    def warmups(self):
        rng = self.rng(WARMUP_INDEX)
        point = [_interior_point(rng, self.p0)]
        return [self._reconstruct("w0", 1, point, None, (8, 16), 1e-3),
                self._reconstruct("w1", 1, point, self._tiny, (8, 16), 1e-2),
                self._reconstruct("w2", "dirac", point, None, (8, 16), 1e-3)]


def closed_form_k(eps, width, center, q, p, quad_n=64):
    """k on the gaussian conformal chart, written out independently.

    sqrt(Delta) is the chord average of omega^2 over the endpoint factors;
    k = sqrt(Delta) / (2 pi).
    """
    center = np.asarray(center, dtype=float)

    def omega(x):
        d = x - center
        return 1.0 + eps * np.exp(-np.sum(d * d, axis=-1) / width ** 2)

    u, w = np.polynomial.legendre.leggauss(quad_n)
    u = 0.5 * (u + 1.0)
    chord = q[None, :] + u[:, None] * (p - q)[None, :]
    ibar = 0.5 * float(w @ omega(chord) ** 2)
    return ibar / (2.0 * math.pi * float(omega(p)) * float(omega(q)))


class CurvedTransport(Workload):
    """curved-transport with one seeded ray per command (eps 1e-2).

    k_steps is 1 so a ray costs about 700 endpoint shoots; van_vleck and
    the frame are on.  The reference is the closed-form k, recomputed
    here independently of the package.
    """

    CHART = {"name": "conformal", "eps": TRANSPORT_EPS}
    WIDTH = 2.0                # make_chart's default gaussian width
    deck = 2
    sizes = {"eps": TRANSPORT_EPS, "k_steps": TRANSPORT_K_STEPS,
             "rays_per_command": 1, "frame_steps": FRAME_STEPS, "van_vleck": True}

    # A ray's cost is set by its connect iterations, which depend on where
    # it passes the bump.  The seed turns one ray about the bump's centre,
    # which leaves omega, and so the cost, unchanged.
    RAY_P = np.array([0.1, 0.25, -0.15, 0.2])
    RAY_DIRECTION = np.array([0.3, 0.5, 0.8])
    RAY_T = 1.1

    def _ray(self, rng):
        rot, upper = np.linalg.qr(rng.standard_normal((3, 3)))
        rot = rot * np.sign(np.diag(upper))
        if np.linalg.det(rot) < 0:
            rot[:, 0] = -rot[:, 0]
        p = np.concatenate([self.RAY_P[:1], rot @ self.RAY_P[1:]])
        return {"p": p.tolist(), "direction": (rot @ self.RAY_DIRECTION).tolist(),
                "t": self.RAY_T}

    def _transport(self, tag, ray, chart, k_steps, frame_steps, rng):
        cfg = {"chart": chart, "rays": [ray], "k_steps": k_steps,
               "van_vleck": True,
               "frame": {"theta": float(rng.uniform(0.2, 2.9)),
                         "phi": float(rng.uniform(0.0, 2.0 * math.pi)),
                         "steps": frame_steps}}
        p = np.asarray(ray["p"])
        d = np.asarray(ray["direction"])
        q = p + ray["t"] * np.concatenate([[1.0], d / np.linalg.norm(d)])
        k_ref = closed_form_k(chart.get("eps", 0.0), self.WIDTH, np.zeros(4), q, p)
        what = f"curved-transport {tag}"

        def check(out):
            recs = read_json(out).get("records")
            if not isinstance(recs, list) or len(recs) != 1:
                raise Mismatch(f"{what}: expected one record")
            rec = recs[0]
            errs = {"k_closed_form": (abs(rec["k_closed_form"] - k_ref) / k_ref,
                                      TOL_K_CLOSED),
                    "k_ode": (abs(rec["k_ode"] - k_ref), TOL_K_ODE),
                    "k_van_vleck": (abs(rec["k_van_vleck"] - k_ref), TOL_K_VAN_VLECK),
                    "frame.product_drift": (rec["frame"]["product_drift"],
                                            TOL_FRAME_DRIFT)}
            for key, (err, tol) in errs.items():
                if not err <= tol:
                    raise Mismatch(f"{what}: {key} off by {err:.3e} (tolerance {tol:.1e})")
            if not rec["frame"]["min_continuity"] > 0.0:
                raise Mismatch(f"{what}: spin frame flipped sign along the ray")

        return Command(self._argv("curved-transport", cfg, tag), 1, check)

    def command(self, i):
        rng = self.rng(i)
        return self._transport(f"c{i}", self._ray(rng), self.CHART,
                               TRANSPORT_K_STEPS, FRAME_STEPS, rng)

    def warmups(self):
        rng = self.rng(WARMUP_INDEX)
        return [self._transport("w0", self._ray(rng), {"name": "flat"}, 1, 10, rng)]


WORKLOADS = {
    "flat-points": FlatPoints,
    "curved-transport": CurvedTransport,
}
