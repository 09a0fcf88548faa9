"""The benchmark's span tracer still binds to the layers it times.

perfbench/spans.py wraps conerec functions by name; a renamed or rebound
function would silently drop out of the trace.  This runs two tiny
reconstructions under the tracer and checks the counts per section, and
one tiny curved-transport ray and checks that every transport span is hit.
"""

import io
import json
import types
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from conerec import cli, cone, nulldata, oracles
from conerec.nulldata import ConeData

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
P0 = [0.0, 0.0, 0.0, 0.0]
POINTS = [[1.0, 0.0, 0.0, 0.0], [1.5, 0.2, -0.1, 0.3]]


def _tracer():
    # executed from its source text, so nothing is written next to it
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module.Tracer()


def _data_file(tmp_path):
    spec = oracles.PlaneWaveSpec(1, np.array([1.0, 0.3 + 0.4j]))
    fn, _ = oracles.plane_wave_cone_fn(spec, np.zeros(4), 1)
    grid = cone.SphereGrid(8, 16)
    theta, phi, _, chart = grid.angles()
    omega = cone.unit_directions(theta, phi)
    o_up, iota_up = cone.spin_basis_field(theta, phi, chart)
    r0_nodes = np.linspace(0.2, 1.2, 8)
    values = np.array([fn(np.full(theta.size, r0), omega, o_up, iota_up)
                       for r0 in r0_nodes])
    base = str(tmp_path / "tiny")
    nulldata.save_cone_data(base, ConeData(1, grid=grid, r0_nodes=r0_nodes,
                                           values=values))
    return base + ".json"


def _run(main, tmp_path, data):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"p0": P0, "q": POINTS, "data": data,
                               "quadrature": {"n_theta": 8, "n_phi": 16}}))
    with redirect_stdout(io.StringIO()):
        return main(["reconstruct", "--config", str(cfg),
                     "--out", str(tmp_path / "out.json")])


def test_tracer_counts_one_data_call_per_section(tmp_path):
    analytic = {"family": "plane-wave", "alpha": [[1, 0], [0.3, 0.4]]}
    file_data = {"file": _data_file(tmp_path)}
    original = ConeData.__dict__["evaluate"]
    tracer = _tracer()
    main = tracer.install(cli)
    try:
        counts = {}
        for label, data in (("analytic", analytic), ("file", file_data)):
            tracer.reset()
            assert _run(main, tmp_path, data) == 0
            stats = tracer.stats
            counts[label] = (stats["cone.build_section"][0],
                             stats["nulldata.ConeData.evaluate"][0],
                             stats["nulldata.ConeData.radial_derivative"][0])
    finally:
        tracer.uninstall()
    n = len(POINTS)
    # analytic points add a half-resolution section for the error estimate
    assert counts == {"analytic": (2 * n, 2 * n, 0), "file": (n, n, 0)}
    assert ConeData.__dict__["evaluate"] is original


def test_tracer_sees_every_transport_layer_of_a_ray(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "chart": {"name": "conformal", "eps": 1e-2},
        "rays": [{"p": [0.1, 0.25, -0.15, 0.2], "direction": [0.3, 0.5, 0.8], "t": 1.1}],
        "k_steps": 2, "frame": {"steps": 10}}))
    tracer = _tracer()
    main = tracer.install(cli)
    try:
        with redirect_stdout(io.StringIO()):
            code = main(["curved-transport", "--config", str(cfg),
                         "--out", str(tmp_path / "out.json")])
        stats = tracer.stats
    finally:
        tracer.uninstall()
    assert code == 0
    for name in ("null_connect", "transport_k", "van_vleck_k", "world_function",
                 "kernels.shoot_endpoint"):
        assert stats.get(f"transport.{name}", [0])[0] >= 1, name
