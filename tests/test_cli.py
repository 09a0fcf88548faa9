"""Exit codes, file outputs, and determinism of the command front end."""

import csv
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conerec import cli, cone, nulldata, oracles

ALPHA = [[1.0, 0.0], [0.3, 0.4]]


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _run(command, cfg_path, out):
    return cli.main([command, "--config", cfg_path, "--out", str(out)])


def _rec_config(**extra):
    cfg = {"p0": [0, 0, 0, 0],
           "q": [[1, 0, 0, 0], [2, 0, 0, 1], [1.5, 0.4, 0.3, 0.2]],
           "valence": 1,
           "data": {"family": "plane-wave", "alpha": ALPHA,
                    "amplitude": [0.9, 0.2]},
           "quadrature": {"n_theta": 32, "n_phi": 64},
           "tolerance": 1e-6}
    cfg.update(extra)
    return cfg


def test_reconstruct_records(tmp_path):
    out = tmp_path / "rec.json"
    code = _run("reconstruct", _write(tmp_path, "c.json", _rec_config()), out)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "reconstruct"
    assert "generated_at" in doc["meta"]
    assert len(doc["records"]) == 3
    for rec in doc["records"]:
        assert rec["basis"] == "standard"
        assert rec["oracle_error"] <= 1e-6
        assert rec["within_tolerance"] is True
        assert len(rec["components"]) == 2


def test_reconstruct_dirac_records(tmp_path):
    cfg = _rec_config(kind="dirac",
                      data={"family": "plane-wave-dirac", "alpha": ALPHA,
                            "amplitude": [0.9, 0.2],
                            "psi_amplitude": [0.5, -0.1]})
    out = tmp_path / "rec.json"
    assert _run("reconstruct", _write(tmp_path, "c.json", cfg), out) == 0
    doc = json.loads(out.read_text())
    for rec in doc["records"]:
        assert len(rec["phi"]) == 2 and len(rec["psi"]) == 2
        assert rec["oracle_error"] <= 1e-6


def test_reconstruct_curved_chart_diagnostics(tmp_path):
    cfg = _rec_config(chart={"name": "conformal", "eps": 1e-3},
                      tolerance=None)
    cfg.pop("tolerance")
    out = tmp_path / "rec.json"
    assert _run("reconstruct", _write(tmp_path, "c.json", cfg), out) == 0
    doc = json.loads(out.read_text())
    for rec in doc["records"]:
        assert rec["diagnostics"]["k_deviation"] > 0.0
        # weak field: still close to the flat oracle
        assert rec["oracle_error"] < 1e-2


def test_reconstruct_q_on_cone_is_geometry_error(tmp_path):
    cfg = _rec_config(q=[[1, 0, 0, 1]])
    assert _run("reconstruct", _write(tmp_path, "c.json", cfg),
                tmp_path / "o.json") == 3


def test_missing_config_is_config_error(tmp_path):
    assert _run("reconstruct", str(tmp_path / "nope.json"),
                tmp_path / "o.json") == 2


def test_malformed_json_is_config_error(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    assert _run("reconstruct", str(path), tmp_path / "o.json") == 2


def test_missing_data_file_is_config_error(tmp_path):
    cfg = _rec_config(data={"file": str(tmp_path / "nosuch.json")})
    assert _run("reconstruct", _write(tmp_path, "c.json", cfg),
                tmp_path / "o.json") == 2


def test_empty_q_list_is_config_error(tmp_path):
    cfg = _rec_config(q=[])
    assert _run("reconstruct", _write(tmp_path, "c.json", cfg),
                tmp_path / "o.json") == 2


def _grid_data_file(tmp_path, r0_lo, r0_hi):
    """Plane-wave phi_0 sampled on a (r0 x directions) grid, saved to disk."""
    spec = oracles.PlaneWaveSpec(1, np.array([1.0, 0.3 + 0.4j]))
    fn, _ = oracles.plane_wave_cone_fn(spec, np.zeros(4))
    grid = cone.SphereGrid(12, 24)
    r0_nodes = np.linspace(r0_lo, r0_hi, 8)
    rows = []
    for r0 in r0_nodes:
        sec = cone.build_section(np.zeros(4), np.array([2 * r0, 0, 0, 0]), grid)
        rows.append(fn(np.full(sec.n_nodes, r0), sec.omega,
                       sec.o, sec.iota)[:, :1])
    data = nulldata.ConeData(1, grid=grid, r0_nodes=r0_nodes,
                             values=np.array(rows))
    base = tmp_path / "conedata"
    nulldata.save_cone_data(str(base), data)
    return str(base) + ".json"


def test_grid_data_file_round_trip(tmp_path):
    path = _grid_data_file(tmp_path, 0.3, 0.8)
    cfg = _rec_config(q=[[1, 0, 0, 0]], data={"file": path},
                      quadrature={"n_theta": 12, "n_phi": 24})
    cfg.pop("tolerance")
    out = tmp_path / "rec.json"
    assert _run("reconstruct", _write(tmp_path, "c.json", cfg), out) == 0
    doc = json.loads(out.read_text())
    assert len(doc["records"]) == 1
    assert "oracle_error" not in doc["records"][0]


def test_uncovered_radius_is_coverage_error(tmp_path):
    # sections of q=(1,0,0,0) sit at r0=0.5, outside the sampled range
    path = _grid_data_file(tmp_path, 0.40, 0.45)
    cfg = _rec_config(q=[[1, 0, 0, 0]], data={"file": path},
                      quadrature={"n_theta": 12, "n_phi": 24})
    assert _run("reconstruct", _write(tmp_path, "c.json", cfg),
                tmp_path / "o.json") == 4


def _edited_data_file(tmp_path, **edits):
    """_grid_data_file with descriptor keys replaced."""
    path = _grid_data_file(tmp_path, 0.3, 0.8)
    with open(path) as fh:
        desc = json.load(fh)
    desc.update(edits)
    with open(path, "w") as fh:
        json.dump(desc, fh)
    return path


def test_one_column_dirac_file_is_config_error(tmp_path, capsys):
    path = _edited_data_file(tmp_path, kind="dirac")
    cfg = _rec_config(q=[[1, 0, 0, 0]], kind="dirac", data={"file": path},
                      quadrature={"n_theta": 12, "n_phi": 24})
    assert _run("reconstruct", _write(tmp_path, "c.json", cfg),
                tmp_path / "o.json") == 2
    assert "n_components" in capsys.readouterr().err


@pytest.mark.parametrize("edits, key", [
    ({"n_theta": "12"}, "n_theta"),
    ({"chart_mode": "single+cap", "cap": "0.1"}, "cap"),
])
def test_mistyped_grid_in_descriptor_is_config_error(tmp_path, capsys, edits, key):
    path = _edited_data_file(tmp_path, **edits)
    cfg = _rec_config(q=[[1, 0, 0, 0]], data={"file": path},
                      quadrature={"n_theta": 12, "n_phi": 24})
    assert _run("reconstruct", _write(tmp_path, "c.json", cfg),
                tmp_path / "o.json") == 2
    assert key in capsys.readouterr().err


def test_blob_outside_the_descriptor_directory_is_config_error(tmp_path, capsys):
    # the descriptor moves one directory down; its blob stays up there
    path = _edited_data_file(tmp_path, blob="../conedata.bin")
    (tmp_path / "sub").mkdir()
    moved = shutil.move(path, tmp_path / "sub" / "conedata.json")
    cfg = _rec_config(q=[[1, 0, 0, 0]], data={"file": str(moved)},
                      quadrature={"n_theta": 12, "n_phi": 24})
    cfg.pop("tolerance")
    assert _run("reconstruct", _write(tmp_path, "c.json", cfg),
                tmp_path / "o.json") == 2
    assert "blob" in capsys.readouterr().err


def test_constraints_table(tmp_path):
    cfg = {"p0": [0, 0, 0, 0], "valence": 2, "s_values": [0.8, 1.6],
           "data": {"family": "plane-wave", "alpha": ALPHA},
           "levels": [[12, 24], [24, 48]], "tolerance": 1e-4}
    out = tmp_path / "con.csv"
    assert _run("constraints", _write(tmp_path, "c.json", cfg), out) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# generated_at=")
    rows = list(csv.DictReader(lines[1:]))
    assert len(rows) == 2
    assert float(rows[1]["res_j1"]) < float(rows[0]["res_j1"])
    assert float(rows[1]["order_j1"]) > 1.8
    assert rows[0]["order_j1"] == ""


_CONVERGE = {"p0": [0, 0, 0, 0], "q": [1.5, 0.4, 0.3, 0.2], "valence": 1,
             "data": {"family": "plane-wave", "alpha": ALPHA},
             "levels": [[8, 16]]}


@pytest.mark.parametrize("command, cfg, key", [
    ("reconstruct", _rec_config(kind="bogus"), "kind"),
    ("converge", {**_CONVERGE, "kind": "bogus"}, "kind"),
    ("reconstruct", _rec_config(valence=7), "valence"),
    ("reconstruct", _rec_config(valence=9), "valence"),
    ("converge", {**_CONVERGE, "valence": 9}, "valence"),
    ("constraints", {"p0": [0, 0, 0, 0], "valence": 1.7, "s_values": [0.8],
                     "data": {"family": "plane-wave", "alpha": ALPHA}},
     "valence"),
    ("verify", {"suites": ["algebra"], "cases": 0}, "cases"),
], ids=["reconstruct-kind", "converge-kind", "reconstruct-valence-7",
        "reconstruct-valence-9", "converge-valence-9",
        "constraints-valence-fraction", "verify-cases-zero"])
def test_bad_config_value_names_key(tmp_path, capsys, command, cfg, key):
    assert _run(command, _write(tmp_path, "c.json", cfg),
                tmp_path / "out") == 2
    assert key in capsys.readouterr().err


def test_constraints_tolerance_flags(tmp_path):
    cfg = {"p0": [0, 0, 0, 0], "valence": 1, "s_values": [0.8],
           "data": {"family": "plane-wave", "alpha": ALPHA},
           "levels": [[12, 24]], "tolerance": 1e-30}
    assert _run("constraints", _write(tmp_path, "c.json", cfg),
                tmp_path / "con.csv") == 1


def test_converge_table(tmp_path):
    cfg = {"p0": [0, 0, 0, 0], "q": [1.5, 0.4, 0.3, 0.2],
           "valence": 2,
           "data": {"family": "plane-wave", "alpha": ALPHA},
           "levels": [[16, 32], [32, 64]],
           "quadrature": {"radial_fd": "richardson", "fd_step": 1e-2}}
    out = tmp_path / "cv.csv"
    assert _run("converge", _write(tmp_path, "c.json", cfg), out) == 0
    lines = out.read_text().splitlines()
    rows = list(csv.DictReader(lines[1:]))
    assert [r["n_theta"] for r in rows] == ["16", "32"]
    assert all(float(r["rel_error"]) < 1e-3 for r in rows)


def test_verify_all_suites_pass(tmp_path):
    cfg = {"cases": 200, "seed": 1}
    out = tmp_path / "vf.json"
    assert _run("verify", _write(tmp_path, "c.json", cfg), out) == 0
    doc = json.loads(out.read_text())
    assert doc["all_pass"] is True
    assert len(doc["checks"]) == 15
    suites = {c["suite"] for c in doc["checks"]}
    assert suites == {"algebra", "geometry", "constraints", "curved"}
    for c in doc["checks"]:
        assert c["residual"] <= c["threshold"]


def test_verify_unknown_suite(tmp_path):
    cfg = {"suites": ["algebra", "nope"]}
    assert _run("verify", _write(tmp_path, "c.json", cfg),
                tmp_path / "vf.json") == 2


def test_verify_zero_threshold_forces_failure(tmp_path):
    cfg = {"suites": ["algebra"], "cases": 50,
           "thresholds": {"algebra.clifford_relation": 0}}
    out = tmp_path / "vf.json"
    assert _run("verify", _write(tmp_path, "c.json", cfg), out) == 1
    doc = json.loads(out.read_text())
    failed = [c for c in doc["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["clifford_relation"]
    assert failed[0]["residual"] > 0.0


def test_curved_transport_records(tmp_path):
    cfg = {"chart": {"name": "conformal", "eps": 1e-3},
           "rays": [{"p": [0.2, 0.1, -0.3, 0.4],
                     "direction": [0.3, 0.5, 0.81], "t": 1.5}],
           "van_vleck": False, "frame": {"s_end": 1.0, "steps": 100},
           "tolerance": 1e-6}
    out = tmp_path / "ct.json"
    assert _run("curved-transport", _write(tmp_path, "c.json", cfg), out) == 0
    rec = json.loads(out.read_text())["records"][0]
    assert abs(rec["k_ode"] - rec["k_closed_form"]) < 1e-6
    assert 0 < rec["flat_deviation"] < 1e-3
    assert rec["frame"]["product_drift"] < 1e-8
    assert rec["frame"]["min_continuity"] > 0.0


def test_curved_transport_ray_leaves_chart(tmp_path):
    cfg = {"chart": {"name": "conformal", "eps": 1e-3, "halfwidth": 1.0},
           "rays": [{"p": [0, 0, 0, 0], "direction": [1, 0, 0], "t": 5.0}]}
    assert _run("curved-transport", _write(tmp_path, "c.json", cfg),
                tmp_path / "ct.json") == 3


def test_reconstruct_nan_point_is_config_error(tmp_path, capsys):
    cfg = _rec_config(q=[[1, 0, 0, 0], [2, float("nan"), 0, 1]])
    code = _run("reconstruct", _write(tmp_path, "c.json", cfg), tmp_path / "rec.json")
    assert code == 2
    assert "q[1]" in capsys.readouterr().err


def _transport_config(**extra):
    cfg = {"chart": {"name": "conformal", "eps": 1e-2},
           "rays": [{"p": [0.1, 0.25, -0.15, 0.2],
                     "direction": [0.3, 0.5, 0.8], "t": 1.1}],
           "k_steps": 1, "van_vleck": False}
    cfg.update(extra)
    return cfg


@pytest.mark.parametrize("cfg, key", [
    (_transport_config(k_steps=0), "k_steps"),
    (_transport_config(k_steps=-2), "k_steps"),
    (_transport_config(frame={"steps": 0}), "frame.steps"),
    (_transport_config(rays=[{"p": [0.1, float("nan"), 0.0, 0.2],
                              "direction": [0.3, 0.5, 0.8], "t": 1.1}]),
     "rays[0].p"),
    (_transport_config(rays=[{"p": [0.1, 0.25, -0.15, 0.2],
                              "direction": [0.3, 0.5, 0.8], "t": float("nan")}]),
     "rays[0].t"),
    (_transport_config(rays=[{"p": [0.1, 0.25, -0.15, 0.2],
                              "direction": [0.3, 0.5, 0.8], "t": [1.1]}]),
     "rays[0].t"),
    (_transport_config(frame={"s_end": float("nan")}), "frame.s_end"),
    (_transport_config(van_vleck=True, van_vleck_h=0), "van_vleck_h"),
], ids=["k_steps-zero", "k_steps-negative", "frame-steps-zero", "nan-p", "nan-t",
        "list-t", "nan-frame-s_end", "van_vleck_h-zero"])
def test_curved_transport_bad_input_is_config_error(tmp_path, capsys, cfg, key):
    code = _run("curved-transport", _write(tmp_path, "c.json", cfg),
                tmp_path / "ct.json")
    assert code == 2
    assert key in capsys.readouterr().err


def test_curved_transport_coarse_frame_names_key(tmp_path, capsys):
    cfg = _transport_config(frame={"theta": 0.7, "phi": 1.3, "steps": 10})
    code = _run("curved-transport", _write(tmp_path, "c.json", cfg),
                tmp_path / "ct.json")
    err = capsys.readouterr().err
    assert code == 2
    assert "rays[0]" in err and "frame.steps" in err and "1e-10" in err


def test_curved_transport_frame_leaving_chart_is_geometry_error(tmp_path):
    cfg = _transport_config(frame={"s_end": 1e9})
    assert _run("curved-transport", _write(tmp_path, "c.json", cfg),
                tmp_path / "ct.json") == 3


def _strip_stamp(path):
    if str(path).endswith(".csv"):
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# generated_at=")
        return "\n".join(lines[1:])
    doc = json.loads(path.read_text())
    doc["meta"].pop("generated_at")
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize("command,cfg,suffix", [
    ("reconstruct", _rec_config(), "json"),
    ("constraints", {"p0": [0, 0, 0, 0], "valence": 1, "s_values": [0.8],
                     "data": {"family": "plane-wave", "alpha": ALPHA},
                     "levels": [[12, 24], [24, 48]]}, "csv"),
    ("verify", {"cases": 100, "seed": 7, "suites": ["algebra"]}, "json"),
])
def test_repeated_runs_identical(tmp_path, command, cfg, suffix):
    cfg_path = _write(tmp_path, "c.json", cfg)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.{suffix}"
        code = subprocess.run(
            [sys.executable, "-m", "conerec.cli", command,
             "--config", cfg_path, "--out", str(out)],
            capture_output=True).returncode
        assert code == 0
        outs.append(_strip_stamp(out))
    assert outs[0] == outs[1]


def test_threads_flag(tmp_path):
    cfg_path = _write(tmp_path, "c.json",
                      {"cases": 50, "suites": ["algebra"]})
    out = tmp_path / "vf.json"
    proc = subprocess.run(
        [sys.executable, "-m", "conerec.cli", "verify", "--config", cfg_path,
         "--out", str(out), "--threads", "1", "--seed", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert cli.main(["verify", "--config", cfg_path, "--out",
                     str(tmp_path / "v2.json"), "--threads", "0"]) == 2


def test_console_entry_point(tmp_path):
    exe = shutil.which("conerec")
    if exe is None:
        pytest.skip("console script not on PATH")
    cfg_path = _write(tmp_path, "c.json", {"cases": 20, "suites": ["algebra"]})
    proc = subprocess.run([exe, "verify", "--config", cfg_path,
                           "--out", str(tmp_path / "vf.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "algebra.clifford_relation" in proc.stdout
