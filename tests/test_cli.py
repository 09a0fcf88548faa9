"""Exit codes, file outputs, and determinism of the command front end."""

import contextlib
import copy
import csv
import importlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conerec import cli, cone, nulldata, oracles
from conerec.cone import MAX_GRID
from conerec.reconstruct import MAX_VALENCE

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
        assert set(rec["diagnostics"]) == {"n_nodes", "error_estimate"}
        # weak field: still close to the flat oracle
        assert rec["oracle_error"] < 1e-2


def test_reconstruct_q_on_cone_is_geometry_error(tmp_path):
    cfg = _rec_config(q=[[1, 0, 0, 1]])
    assert _run("reconstruct", _write(tmp_path, "c.json", cfg),
                tmp_path / "o.json") == 3


_CHART = {"name": "conformal", "eps": 1e-3}


# t (1, 0.3, 0.2, -0.1) has interval 0.86 t^2: subnormal at t = 1e-160, 0 at
# t = 1e-165
@pytest.mark.parametrize("second_q, chart, message", [
    ([1, 0, 0, 1], None, "inside the future cone"),
    ([30, 1, 0, 0], _CHART, "outside the chart domain"),
    ([1e-160, 3e-161, 2e-161, -1e-161], None, "interval 8.602e-321"),
    ([1e-160, 3e-161, 2e-161, -1e-161], _CHART, "interval 8.602e-321"),
    ([1e-165, 3e-166, 2e-166, -1e-166], None, "interval 0.000e+00"),
    ([1e-165, 3e-166, 2e-166, -1e-166], _CHART, "interval 0.000e+00"),
], ids=["outside-cone", "outside-chart", "subnormal-interval", "subnormal-interval-chart",
        "zero-interval", "zero-interval-chart"])
def test_per_point_geometry_error_names_the_record(tmp_path, capsys, second_q,
                                                   chart, message):
    cfg = _rec_config(q=[[1.5, 0.4, 0.3, 0.2], second_q])
    if chart is not None:
        cfg["chart"] = chart
    assert _run("reconstruct", _write(tmp_path, "c.json", cfg),
                tmp_path / "o.json") == 3
    # the one error line, no warning before it
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "q[1]: " in err[0] and message in err[0]


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


def _grid_data_file(tmp_path, r0_lo, r0_hi, grid_shape=(12, 24), columns=1):
    """The first `columns` plane-wave components (phi_0 by default) sampled
    on a (r0 x directions) grid, saved to disk."""
    spec = oracles.PlaneWaveSpec(1, np.array([1.0, 0.3 + 0.4j]))
    fn, _ = oracles.plane_wave_cone_fn(spec, np.zeros(4))
    grid = cone.SphereGrid(*grid_shape)
    r0_nodes = np.linspace(r0_lo, r0_hi, 8)
    rows = []
    for r0 in r0_nodes:
        sec = cone.build_section(np.zeros(4), np.array([2 * r0, 0, 0, 0]), grid)
        rows.append(fn(np.full(sec.n_nodes, r0), sec.omega,
                       sec.o, sec.iota)[:, :columns])
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


@pytest.mark.parametrize("source", ["file", "floor", "analytic"])
def test_error_estimate_null_without_a_coarser_run(tmp_path, source):
    # file data has no half-resolution run, nor has the 4x8 floor; a
    # record must not claim an exact result there
    cfg = _rec_config()
    cfg.pop("tolerance")
    if source == "file":
        cfg.update(q=[[1, 0, 0, 0]], quadrature={"n_theta": 12, "n_phi": 24},
                   data={"file": _grid_data_file(tmp_path, 0.3, 0.8)})
    elif source == "floor":
        cfg.update(quadrature={"n_theta": 4, "n_phi": 8})
    out = tmp_path / "rec.json"
    assert _run("reconstruct", _write(tmp_path, "c.json", cfg), out) == 0
    estimates = [rec["diagnostics"]["error_estimate"]
                 for rec in json.loads(out.read_text())["records"]]
    if source == "analytic":
        assert all(e > 0.0 for e in estimates)
    else:
        assert estimates == [None] * len(cfg["q"])


def test_uncovered_radius_is_coverage_error(tmp_path):
    # sections of q=(1,0,0,0) sit at r0=0.5, outside the sampled range
    path = _grid_data_file(tmp_path, 0.40, 0.45)
    cfg = _rec_config(q=[[1, 0, 0, 0]], data={"file": path},
                      quadrature={"n_theta": 12, "n_phi": 24})
    assert _run("reconstruct", _write(tmp_path, "c.json", cfg),
                tmp_path / "o.json") == 4


@pytest.mark.parametrize("chart", [None, {"name": "conformal", "eps": 1e-2}],
                         ids=["flat", "curved"])
def test_file_grid_other_than_quadrature_exits_2_naming_both(tmp_path, capsys, chart):
    # 16x16 and 8x32 have the same node count but other directions
    path = _grid_data_file(tmp_path, 0.2, 1.6, grid_shape=(16, 16))
    cfg = _rec_config(q=[[1, 0, 0, 0]], data={"file": path},
                      quadrature={"n_theta": 8, "n_phi": 32})
    if chart is not None:
        cfg["chart"] = chart
    assert _run("reconstruct", _write(tmp_path, "c.json", cfg),
                tmp_path / "o.json") == 2
    err = capsys.readouterr().err
    assert "quadrature 8x32" in err and "grid 16x16" in err


def test_curved_evaluator_on_file_data_matches_flat_on_the_flat_chart(tmp_path):
    path = _grid_data_file(tmp_path, 0.2, 1.6, grid_shape=(16, 16))
    results = []
    for chart in (None, {"name": "flat"}):
        cfg = _rec_config(q=[[1, 0, 0, 0], [1.5, 0.2, -0.1, 0.3]], data={"file": path},
                          quadrature={"n_theta": 16, "n_phi": 16})
        if chart is not None:
            cfg["chart"] = chart
        out = tmp_path / "rec.json"
        assert _run("reconstruct", _write(tmp_path, "c.json", cfg), out) == 0
        results.append(np.array([rec["components"]
                                 for rec in json.loads(out.read_text())["records"]]))
    assert np.max(np.abs(results[0])) > 0.1
    assert np.max(np.abs(results[1] - results[0])) <= 1e-12


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
    ({"cap": 0.1}, "cap"),
    ({"chart_mode": "single+cap"}, "chart_mode"),
])
def test_mistyped_grid_in_descriptor_is_config_error(tmp_path, capsys, edits, key):
    path = _edited_data_file(tmp_path, **edits)
    cfg = _rec_config(q=[[1, 0, 0, 0]], data={"file": path},
                      quadrature={"n_theta": 12, "n_phi": 24})
    assert _run("reconstruct", _write(tmp_path, "c.json", cfg),
                tmp_path / "o.json") == 2
    assert key in capsys.readouterr().err


def _descriptor_error(tmp_path, capsys, **edits):
    path = _edited_data_file(tmp_path, **edits)
    cfg = _rec_config(q=[[1, 0, 0, 0]], data={"file": path},
                      quadrature={"n_theta": 12, "n_phi": 24})
    code = _run("reconstruct", _write(tmp_path, "c.json", cfg), tmp_path / "o.json")
    return code, capsys.readouterr().err


# the reader built the grid before checking the blob, and a grid of
# n_theta rings costs O(n_theta^2): n_theta 3000 worked for seconds
@pytest.mark.parametrize("key, value", [("n_theta", 10 ** 6), ("n_phi", MAX_GRID + 2),
                                        ("n_theta", 0), ("n_phi", -16)])
def test_descriptor_grid_past_the_bound_exits_2_naming_it(tmp_path, capsys, key, value):
    start = time.perf_counter()
    code, err = _descriptor_error(tmp_path, capsys, **{key: value})
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert f"{key} must be a positive integer at most {MAX_GRID}, got {value}" in err


# the spline fit solves two dense node x node systems: 20000 nodes took
# 3.2 GB each, over a blob of 10 MB on a 4x8 grid
def test_descriptor_r0_nodes_past_the_bound_exits_2_naming_it(tmp_path, capsys):
    nodes = np.linspace(0.3, 0.8, MAX_GRID + 1).tolist()
    start = time.perf_counter()
    code, err = _descriptor_error(tmp_path, capsys, r0_nodes=nodes)
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert f"r0_nodes must hold at most {MAX_GRID} entries, got {MAX_GRID + 1}" in err


# the blob is read as <c16 in the writer's layout only, so a descriptor
# claiming anything else is refused, not read as complex128
@pytest.mark.parametrize("dtype", ["<c8", ">c16", "complex128", 16])
def test_descriptor_claiming_another_dtype_exits_2_naming_it(tmp_path, capsys, dtype):
    code, err = _descriptor_error(tmp_path, capsys, dtype=dtype)
    assert code == 2
    assert "dtype must be '<c16'" in err


@pytest.mark.parametrize("layout", ["nonsense", "", None])
def test_descriptor_claiming_another_layout_exits_2_naming_it(tmp_path, capsys, layout):
    code, err = _descriptor_error(tmp_path, capsys, layout=layout)
    assert code == 2
    assert "layout must be 'r0-major, ring-major directions, component-minor'" in err


def test_non_object_descriptor_is_config_error(tmp_path, capsys):
    # a JSON list here ended in an AttributeError (exit 5)
    path = _grid_data_file(tmp_path, 0.3, 0.8)
    Path(path).write_text("[1]\n")
    cfg = _rec_config(q=[[1, 0, 0, 0]], data={"file": path},
                      quadrature={"n_theta": 12, "n_phi": 24})
    assert _run("reconstruct", _write(tmp_path, "c.json", cfg),
                tmp_path / "o.json") == 2
    err = capsys.readouterr().err
    assert "cannot load cone data" in err and "must be a JSON object" in err


@pytest.mark.parametrize("key", [key for key, entry in nulldata._DESCRIPTOR.items()
                                 if entry.default is cli._REQUIRED])
def test_descriptor_without_a_required_key_is_config_error_naming_it(tmp_path, capsys,
                                                                     key):
    # a missing valence said only "config error: 'valence'"
    path = _grid_data_file(tmp_path, 0.3, 0.8)
    desc = json.loads(Path(path).read_text())
    del desc[key]
    Path(path).write_text(json.dumps(desc))
    cfg = _rec_config(q=[[1, 0, 0, 0]], data={"file": path},
                      quadrature={"n_theta": 12, "n_phi": 24})
    assert _run("reconstruct", _write(tmp_path, "c.json", cfg),
                tmp_path / "o.json") == 2
    err = capsys.readouterr().err
    assert "cannot load cone data" in err and f"descriptor needs {key!r}" in err


@pytest.mark.parametrize("nodes", [[0.3, {}, 0.8], [0.3, [0.5], 0.8], 0.3],
                         ids=["object-node", "list-node", "number"])
def test_non_number_r0_nodes_is_config_error(tmp_path, capsys, nodes):
    # a JSON object among the nodes ended in a TypeError (exit 5)
    path = _edited_data_file(tmp_path, r0_nodes=nodes)
    cfg = _rec_config(q=[[1, 0, 0, 0]], data={"file": path},
                      quadrature={"n_theta": 12, "n_phi": 24})
    assert _run("reconstruct", _write(tmp_path, "c.json", cfg),
                tmp_path / "o.json") == 2
    assert "r0_nodes" in capsys.readouterr().err


def test_per_point_coverage_error_names_the_record(tmp_path, capsys):
    # q[0] sits on sections at r0 = 0.5, q[1] at r0 = 1.0 past the last node
    path = _grid_data_file(tmp_path, 0.3, 0.8)
    cfg = _rec_config(q=[[1, 0, 0, 0], [2, 0, 0, 0]], data={"file": path},
                      quadrature={"n_theta": 12, "n_phi": 24})
    assert _run("reconstruct", _write(tmp_path, "c.json", cfg),
                tmp_path / "o.json") == 4
    assert "q[1]: " in capsys.readouterr().err


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


@pytest.mark.parametrize("edits, key", [
    ({"r0_nodes": [0.3, 0.4, float("nan"), 0.5, 0.6, 0.65, 0.7, 0.8]}, "r0_nodes"),
    ({"r0_nodes": [0.3, 0.4, 0.45, 0.5, 0.6, 0.65, 0.7, float("inf")]}, "r0_nodes"),
    ({"r0_min": float("nan")}, "r0_min"),
    ({"r0_min": -0.1}, "r0_min"),
    ({"r0_min": "0.1"}, "r0_min"),
    ({}, "blob"),
    ({"r0_min": 5.0}, "r0_min"),
    ({"n_thetaa": 5}, "n_thetaa"),
])
def test_non_finite_descriptor_or_blob_is_config_error(tmp_path, capsys, edits, key):
    path = _edited_data_file(tmp_path, **edits)
    if key == "blob":
        blob = np.fromfile(tmp_path / "conedata.bin", dtype="<c16")
        blob[17] = complex(np.nan, 0.0)
        blob.tofile(tmp_path / "conedata.bin")
    cfg = _rec_config(q=[[1, 0, 0, 0]], data={"file": path},
                      quadrature={"n_theta": 12, "n_phi": 24})
    cfg.pop("tolerance")
    assert _run("reconstruct", _write(tmp_path, "c.json", cfg),
                tmp_path / "o.json") == 2
    assert key in capsys.readouterr().err


def test_constraints_level_the_grid_refuses_is_named(tmp_path, capsys):
    # the sphere grid's own check named n_phi, a key this config lacks
    cfg = {"p0": [0, 0, 0, 0], "valence": 1, "s_values": [1.0],
           "data": {"family": "plane-wave", "alpha": ALPHA}, "levels": [[8, 16], [1, 1]]}
    assert _run("constraints", _write(tmp_path, "c.json", cfg), tmp_path / "o.csv") == 2
    assert "bad levels[1]: n_phi must be even and at least 8" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["reconstruct", "converge"])
def test_kind_the_data_family_does_not_give_is_named(tmp_path, capsys, command):
    # the evaluator's own check said "spin reconstruction expects phi_0 data"
    cfg = _rec_config(data=_DIRAC_DATA)
    if command == "converge":
        cfg.pop("quadrature")
        cfg.update(q=cfg["q"][0], levels=[[8, 16]])
    assert _run(command, _write(tmp_path, "c.json", cfg), tmp_path / "o") == 2
    assert "kind 'spin' does not read the plane-wave-dirac family" in capsys.readouterr().err


def test_unknown_command_or_missing_config_exits_2(tmp_path):
    cfg_path = _write(tmp_path, "c.json", _rec_config())
    for argv in (["bogus", "--config", cfg_path], ["reconstruct"], []):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


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
_CONSTRAINTS = {"p0": [0, 0, 0, 0], "valence": 1, "s_values": [0.8],
                "data": {"family": "plane-wave", "alpha": ALPHA},
                "levels": [[8, 16]]}
_RAY = {"p": [0.1, 0.25, -0.15, 0.2], "direction": [0.3, 0.5, 0.8], "t": 1.1}
_TRANSPORT = {"chart": {"name": "flat"}, "rays": [_RAY], "k_steps": 1,
              "van_vleck": False}
_DIRAC_DATA = {"family": "plane-wave-dirac", "alpha": ALPHA}


@pytest.mark.parametrize("command, cfg, key", [
    ("reconstruct", _rec_config(tolerence=1e-30), "tolerence"),
    ("constraints", {**_CONSTRAINTS, "tolerence": 1e-30}, "tolerence"),
    ("converge", {**_CONVERGE, "level": [[8, 16]]}, "level"),
    ("converge", {**_CONVERGE, "quadrature": {"n_theta": 1000, "n_phi": 3}},
     "['quadrature']"),
    ("curved-transport", {**_TRANSPORT, "k_step": 3}, "k_step"),
    ("verify", {"suites": ["algebra"], "cases": 10, "case": 5}, "case"),
    ("reconstruct", _rec_config(data={"family": "plane-wave", "alpha": ALPHA,
                                      "amplitde": [2.0, 0.0]}), "amplitde"),
    ("reconstruct", _rec_config(kind="dirac", data={**_DIRAC_DATA,
                                                    "psi_amplitde": 2.0}),
     "psi_amplitde"),
    ("reconstruct", _rec_config(data={"file": "absent.json", "r0_min": 0.5}),
     "r0_min"),
    ("curved-transport", {**_TRANSPORT, "frame": {"step": 10}}, "step"),
    ("curved-transport", {**_TRANSPORT, "rays": [{**_RAY, "T": 2.0}]},
     "rays[0] keys ['T']"),
    ("verify", {"suites": ["algebra"], "cases": 10,
                "thresholds": {"algebra.clifford_relaton": 1e-12}},
     "algebra.clifford_relaton"),
    ("verify", {"suites": ["algebra"], "cases": 10,
                "thresholds": {"geometry.section_area": 1e-8}},
     "geometry.section_area"),
], ids=["reconstruct", "constraints", "converge", "converge-quadrature",
        "curved-transport", "verify",
        "data-plane-wave", "data-plane-wave-dirac", "data-file", "frame", "rays",
        "thresholds-misspelled", "thresholds-unselected-suite"])
def test_unknown_config_key_exits_2_naming_it(tmp_path, capsys, command, cfg, key):
    # a misspelled key would otherwise be ignored and its default used
    assert _run(command, _write(tmp_path, "c.json", cfg), tmp_path / "out") == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, key", [
    ("reconstruct", _rec_config(kind="bogus"), "kind"),
    ("converge", {**_CONVERGE, "kind": "bogus"}, "kind"),
    ("reconstruct", _rec_config(valence=MAX_VALENCE + 1), "valence"),
    ("reconstruct", _rec_config(valence=MAX_VALENCE + 1,
                                chart={"name": "conformal", "eps": 1e-3}),
     "valence"),
    ("converge", {**_CONVERGE, "valence": MAX_VALENCE + 1}, "valence"),
    ("constraints", {"p0": [0, 0, 0, 0], "valence": 1.7, "s_values": [0.8],
                     "data": {"family": "plane-wave", "alpha": ALPHA}},
     "valence"),
    ("verify", {"suites": ["algebra"], "cases": 0}, "cases"),
    ("reconstruct", _rec_config(quadrature={"n_theta": "24"}), "quadrature.n_theta"),
    ("reconstruct", _rec_config(quadrature={"n_theta": 8.5}), "quadrature.n_theta"),
    ("reconstruct", _rec_config(quadrature={"cap": "x"}), "unknown quadrature keys ['cap']"),
    ("reconstruct", _rec_config(quadrature={"fd_step": 0}),
     "unknown quadrature keys ['fd_step']"),
    ("reconstruct", _rec_config(quadrature={"radial_fd": "richardson"}),
     "unknown quadrature keys ['radial_fd']"),
    ("reconstruct", _rec_config(chart={"name": "conformal", "eps": "0.01"}),
     "chart.eps"),
    ("reconstruct", _rec_config(chart={"name": "conformal", "width": "2"}),
     "chart.width"),
    ("reconstruct", _rec_config(chart={"name": "conformal", "width": 0}),
     "chart.width"),
    ("reconstruct", _rec_config(tolerance="1e-6"), "tolerance"),
    ("converge", {**_CONVERGE, "tolerance": "1e-6"}, "tolerance"),
    ("constraints", {**_CONSTRAINTS, "tolerance": "1e-6"}, "tolerance"),
    ("curved-transport", {"chart": {"name": "flat"}, "tolerance": "1e-6",
                          "rays": [{"p": [0, 0, 0, 0], "direction": [1, 0, 0],
                                    "t": 1.0}]}, "tolerance"),
    ("verify", {"suites": ["algebra"], "cases": 10,
                "thresholds": {"algebra.clifford_relation": "1e-12"}},
     "algebra.clifford_relation"),
    ("reconstruct", _rec_config(data={"family": "plane-wave",
                                      "alpha": [[1.0, 0.0], [0.3, "0.4"]]}),
     "alpha"),
    ("converge", {**_CONVERGE, "levels": [[8.7, 16]]}, "levels[0]"),
    ("constraints", {**_CONSTRAINTS, "levels": [[8.7, 16]]}, "levels[0]"),
    ("reconstruct", _rec_config(p0=[0, 0, {}, 0]), "p0"),
    ("reconstruct", _rec_config(q=5), "q"),
    ("reconstruct", _rec_config(data=5), "data"),
    ("reconstruct", _rec_config(data={"family": "plane-wave", "alpha": 3}), "alpha"),
    ("reconstruct", _rec_config(data={"file": 5}), "data.file"),
    # the parent named these keys only inside per-character key lists
    ("reconstruct", _rec_config(quadrature=[8, 16]), "quadrature must"),
    ("reconstruct", _rec_config(chart="flat"), "chart must"),
    ("reconstruct", _rec_config(seed=None), "seed"),
    ("reconstruct", _rec_config(seed=1.5), "seed"),
    ("reconstruct", _rec_config(seed=-1), "seed"),
    ("reconstruct", _rec_config(out=["x"]), "out"),
    ("curved-transport", {"chart": {"name": "flat"}, "frame": [1],
                          "rays": [{"p": [0, 0, 0, 0], "direction": [1, 0, 0],
                                    "t": 1.0}]}, "frame"),
    ("curved-transport", {"chart": {"name": "flat"}, "rays": {"p": 1}}, "rays"),
    ("curved-transport", {"chart": {"name": "flat"}, "rays": [5]}, "rays[0]"),
    ("curved-transport", {"chart": {"name": "flat"},
                          "rays": [{"p": [0, 0, 0, 0], "direction": "abc",
                                    "t": 1.0}]}, "rays[0].direction"),
    ("curved-transport", {"chart": {"name": "flat"}, "van_vleck": "no",
                          "rays": [{"p": [0, 0, 0, 0], "direction": [1, 0, 0],
                                    "t": 1.0}]}, "van_vleck"),
    ("converge", {**_CONVERGE, "levels": 5}, "levels"),
    ("converge", {**_CONVERGE, "levels": [8, 16]}, "levels"),
    ("converge", {**_CONVERGE, "levels": [[8]]}, "levels"),
    ("converge", {**_CONVERGE, "levels": []}, "levels"),
    ("constraints", {**_CONSTRAINTS, "s_values": ["a"]}, "s_values"),
    ("verify", {"suites": 5}, "suites"),
    ("verify", {"suites": "algebra"}, "suites must"),
    ("verify", {"suites": ["algebra"], "thresholds": [1]}, "thresholds"),
    ("reconstruct", _rec_config(kind="dirac", data=_DIRAC_DATA, chart=_CHART),
     "kind must be 'spin' with a chart"),
    ("reconstruct", _rec_config(kind="dirac", valence=2, data=_DIRAC_DATA),
     "the Dirac family is valence 1"),
    ("reconstruct", _rec_config(chart={"name": "conformal", "width": 1e-200}),
     "width 1e-200"),
], ids=["reconstruct-kind", "converge-kind", "reconstruct-valence-above-cap",
        "reconstruct-curved-valence-above-cap", "converge-valence-above-cap",
        "constraints-valence-fraction", "verify-cases-zero",
        "n_theta-string", "n_theta-fraction", "cap-string", "fd_step-zero",
        "radial_fd-richardson", "eps-string", "width-string", "width-zero",
        "reconstruct-tolerance-string",
        "converge-tolerance-string", "constraints-tolerance-string",
        "curved-transport-tolerance-string", "verify-threshold-string",
        "alpha-part-string", "converge-levels-fraction",
        "constraints-levels-fraction", "p0-object-component",
        "q-number", "data-number", "alpha-number", "data-file-number",
        "quadrature-list", "chart-string", "seed-null", "seed-fraction",
        "seed-negative", "out-list", "frame-list", "rays-object",
        "rays-entry-number", "direction-string", "van_vleck-string",
        "levels-number", "levels-flat-pair", "levels-short-pair", "levels-empty",
        "s_values-string", "suites-number", "suites-string", "thresholds-list",
        "dirac-with-chart", "dirac-family-valence-2", "width-square-underflows"])
def test_bad_config_value_names_key(tmp_path, capsys, command, cfg, key):
    assert _run(command, _write(tmp_path, "c.json", cfg),
                tmp_path / "out") == 2
    assert key in capsys.readouterr().err


def test_converge_on_file_data_exits_2_naming_the_oracle(tmp_path, capsys):
    cfg = {**_CONVERGE, "data": {"file": _grid_data_file(tmp_path, 0.3, 0.8)}}
    assert _run("converge", _write(tmp_path, "c.json", cfg), tmp_path / "out") == 2
    assert "converge needs a named data family as oracle" in capsys.readouterr().err


def test_three_r0_nodes_with_a_matching_blob_exit_2(tmp_path, capsys):
    # descriptor and blob agree on three nodes; the spline needs four
    path = _edited_data_file(tmp_path, r0_nodes=[0.3, 0.5, 0.8])
    blob = tmp_path / "conedata.bin"
    blob.write_bytes(blob.read_bytes()[:3 * 12 * 24 * 16])
    cfg = _rec_config(q=[[1, 0, 0, 0]], data={"file": path},
                      quadrature={"n_theta": 12, "n_phi": 24})
    assert _run("reconstruct", _write(tmp_path, "c.json", cfg), tmp_path / "o.json") == 2
    assert "need at least 4 increasing r0 nodes" in capsys.readouterr().err


def test_out_in_a_missing_directory_exits_2_naming_it(tmp_path, capsys):
    out = tmp_path / "missing" / "rec.json"
    cfg_path = _write(tmp_path, "c.json", _rec_config(out=str(out)))
    assert cli.main(["reconstruct", "--config", cfg_path]) == 2
    assert str(out) in capsys.readouterr().err


_CONFORMAL = {"name": "conformal", "eps": 1e-2}


@pytest.mark.parametrize("center", [{}, [0, {}, 0, 0], [0, None, 0, 0]],
                         ids=["object", "object-component", "null-component"])
def test_chart_center_not_four_numbers_exits_2_naming_it(tmp_path, capsys, center):
    # a JSON object here raised a TypeError that the chart reader did not map
    cfg = {**_TRANSPORT, "chart": {**_CONFORMAL, "center": center}}
    assert _run("curved-transport", _write(tmp_path, "c.json", cfg),
                tmp_path / "out") == 2
    assert "chart.center" in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg", [
    ("reconstruct", _rec_config(chart={**_CONFORMAL, "width": 1e308})),
    ("curved-transport", {**_TRANSPORT, "chart": {**_CONFORMAL, "width": 1e308}}),
], ids=["reconstruct", "curved-transport"])
def test_chart_width_overflow_exits_2_naming_it(tmp_path, capsys, command, cfg):
    # the profile squares its width: 1e308 overflowed (exit 5)
    assert _run(command, _write(tmp_path, "c.json", cfg), tmp_path / "out") == 2
    assert "chart.width" in capsys.readouterr().err


@pytest.mark.parametrize("halfwidth", [1e308, -1e308], ids=["positive", "negative"])
def test_chart_halfwidth_overflow_exits_2_naming_it(tmp_path, capsys, halfwidth):
    # sampling a box 2e308 wide overflowed (exit 5)
    cfg = {**_TRANSPORT, "chart": {**_CONFORMAL, "halfwidth": halfwidth}}
    assert _run("curved-transport", _write(tmp_path, "c.json", cfg),
                tmp_path / "out") == 2
    assert "chart.halfwidth" in capsys.readouterr().err


# The grid has no single-chart cap mode: quadrature.chart_mode and
# quadrature.cap are unknown keys whatever their values, and the error
# names each of them.  converge reads no quadrature block, so there the
# error names the block.
@pytest.mark.parametrize("command, quadrature", [
    ("reconstruct", {"chart_mode": "single+cap", "cap": 4.0}),
    ("reconstruct", {"chart_mode": "single+cap", "cap": -0.1}),
    ("reconstruct", {"chart_mode": "double", "cap": 0.3}),
    ("reconstruct", {"cap": 0.3}),
    ("reconstruct", {"n_theta": 8, "n_phi": 16, "chart_mode": "single+cap", "cap": 3.0}),
    ("converge", {"chart_mode": "single+cap", "cap": 3.5}),
    ("reconstruct", {"chart_mode": "double"}),
    ("converge", {"cap": 0.0}),
], ids=["above-pi", "negative", "nonzero-under-double", "nonzero-under-default",
        "drops-every-ring", "converge-above-pi", "chart_mode-alone", "converge-zero"])
def test_unusable_cap_exits_2_naming_it(tmp_path, capsys, command, quadrature):
    cfg = _rec_config(quadrature=quadrature)
    if command == "converge":
        cfg["q"] = cfg["q"][0]
        cfg["levels"] = [[8, 16]]
    code = _run(command, _write(tmp_path, "c.json", cfg), tmp_path / "out")
    assert code == 2
    err = capsys.readouterr().err
    if command == "converge":
        assert "unknown converge keys ['quadrature']" in err
    else:
        assert "unknown quadrature keys" in err
        assert all(repr(key) in err for key in quadrature if key in ("chart_mode", "cap"))


@pytest.mark.parametrize("s_values, key", [([0.8, 0], "s_values[1]"),
                                           ([-0.5], "s_values[0]")],
                         ids=["zero", "negative"])
def test_non_positive_s_value_exits_2_naming_it(tmp_path, capsys, s_values, key):
    cfg = {**_CONSTRAINTS, "s_values": s_values}
    assert _run("constraints", _write(tmp_path, "c.json", cfg), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert key in err and "positive" in err


def test_constraints_reads_every_column_and_the_evaluators_phi_0(tmp_path, monkeypatch):
    seen = {}
    real = oracles.plane_wave_cone_fn

    def recording(spec, p0, columns=None):
        fn, fn_dr0 = real(spec, p0, columns)

        def fn_seen(r0, omega, o_up, iota_up):
            vals = fn(r0, omega, o_up, iota_up)
            seen.setdefault(command, set()).add(vals.shape[1])
            return vals

        return fn_seen, fn_dr0

    monkeypatch.setattr(oracles, "plane_wave_cone_fn", recording)
    valence = 3
    evaluator = _rec_config(valence=valence)
    evaluator.pop("tolerance")
    configs = {
        "constraints": {**_CONSTRAINTS, "valence": valence},
        "reconstruct": evaluator,
        "converge": {**_CONVERGE, "valence": valence},
    }
    for command, cfg in configs.items():
        assert _run(command, _write(tmp_path, "c.json", cfg), tmp_path / "out") == 0
    assert seen == {"constraints": {valence + 1}, "reconstruct": {1}, "converge": {1}}


def test_parser_is_built_once(tmp_path, monkeypatch):
    def no_parser(*args, **kwargs):
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli.argparse, "ArgumentParser", no_parser)
    cfg = _rec_config(q=[[1, 0, 0, 0]], quadrature={"n_theta": 8, "n_phi": 16})
    cfg.pop("tolerance")
    assert _run("reconstruct", _write(tmp_path, "c.json", cfg), tmp_path / "out") == 0


@pytest.mark.parametrize("command, cfg, key", [
    ("reconstruct", _rec_config(p0=[0, 0, 1e308, 0]), "p0"),
    ("reconstruct", _rec_config(q=[[1, 0, 0, 0], [1e308, 0, 0, 0]]), "q[1]"),
    ("converge", {**_CONVERGE, "p0": [0, -1e308, 0, 0]}, "p0"),
    ("converge", {**_CONVERGE, "q": [1.5, 0.4, 1e308, 0.2]}, "q"),
    ("constraints", {**_CONSTRAINTS, "s_values": [0.8, -1e308]}, "s_values[1]"),
    ("curved-transport", {**_TRANSPORT, "rays": [{**_RAY, "p": [0, 0, 0, 1e308]}]},
     "rays[0].p"),
], ids=["reconstruct-p0", "reconstruct-q", "converge-p0", "converge-q",
        "constraints-s_values", "curved-transport-ray-p"])
def test_coordinate_overflow_exits_2_naming_it(tmp_path, capsys, command, cfg, key):
    # the section geometry squares the separation: 1e308 overflowed (exit 5)
    assert _run(command, _write(tmp_path, "c.json", cfg), tmp_path / "out") == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, key", [
    ("reconstruct", _rec_config(quadrature={"n_theta": 1e308}), "quadrature.n_theta"),
    ("reconstruct", _rec_config(quadrature={"n_phi": MAX_GRID + 2}),
     "quadrature.n_phi"),
    ("converge", {**_CONVERGE, "levels": [[8, 16], [1e308, 16]]}, "levels[1][0]"),
    ("constraints", {**_CONSTRAINTS, "levels": [[8, MAX_GRID + 1]]},
     "levels[0][1]"),
    ("curved-transport", {**_TRANSPORT, "frame": {"steps": 1e308}}, "frame.steps"),
    ("curved-transport", {**_TRANSPORT, "k_steps": cli._MAX_STEPS + 1}, "k_steps"),
    ("constraints", {**_CONSTRAINTS, "valence": 1e308}, "valence"),
    ("constraints", {**_CONSTRAINTS, "valence": MAX_VALENCE + 1}, "valence"),
    ("verify", {"suites": ["algebra"], "cases": 1e308}, "cases"),
], ids=["n_theta-huge", "n_phi-above", "levels-huge", "levels-above",
        "frame-steps-huge", "k_steps-above", "constraints-valence-huge",
        "constraints-valence-above", "cases-huge"])
def test_count_above_its_bound_exits_2_naming_it(tmp_path, capsys, command, cfg, key):
    # 1e308 overflowed in leggauss, looped without end (frame.steps) or
    # allocated until the memory ran out (constraints valence)
    assert _run(command, _write(tmp_path, "c.json", cfg), tmp_path / "out") == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg", [
    ("reconstruct", _rec_config(valence=MAX_VALENCE + 1)),
    ("reconstruct", _rec_config(valence=MAX_VALENCE + 1,
                                chart={"name": "conformal", "eps": 1e-3})),
    ("converge", {**_CONVERGE, "valence": MAX_VALENCE + 1}),
], ids=["reconstruct", "reconstruct-curved", "converge"])
def test_valence_above_cap_exits_2_before_evaluating_data(tmp_path, capsys,
                                                           monkeypatch, command,
                                                           cfg):
    def never(*args):
        raise AssertionError("data evaluated before the valence check")

    monkeypatch.setattr(oracles, "plane_wave_cone_fn", lambda *a: (never, never))
    assert _run(command, _write(tmp_path, "c.json", cfg), tmp_path / "out") == 2
    assert "valence" in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg", [
    ("reconstruct", _rec_config(valence=MAX_VALENCE)),
    ("converge", {**_CONVERGE, "valence": MAX_VALENCE, "levels": [[24, 48]],
                  "tolerance": 1e-12}),
    ("constraints", {**_CONSTRAINTS, "valence": MAX_VALENCE}),
], ids=["reconstruct", "converge", "constraints"])
def test_valence_at_cap_runs(tmp_path, command, cfg):
    assert _run(command, _write(tmp_path, "c.json", cfg), tmp_path / "out") == 0


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_literal_is_config_error(tmp_path, capsys, literal):
    # json.load accepts these; a NaN tolerance would never fail its gate
    text = json.dumps(_rec_config(tolerance="X")).replace('"X"', literal)
    path = tmp_path / "c.json"
    path.write_text(text)
    assert _run("reconstruct", str(path), tmp_path / "rec.json") == 2
    assert "tolerance" in capsys.readouterr().err
    assert not (tmp_path / "rec.json").exists()


def _nan_data(monkeypatch):
    """Make every data value and radial derivative on a section NaN."""
    evaluate_on = nulldata.ConeData.evaluate_on
    monkeypatch.setattr(nulldata.ConeData, "evaluate_on", lambda data, section: tuple(
        np.full_like(a, np.nan) for a in evaluate_on(data, section)))


def test_nan_oracle_error_fails_the_tolerance_gate(tmp_path, monkeypatch):
    _nan_data(monkeypatch)
    cfg = _rec_config(quadrature={"n_theta": 8, "n_phi": 16})
    out = tmp_path / "rec.json"
    assert _run("reconstruct", _write(tmp_path, "c.json", cfg), out) == 1
    assert all(rec["within_tolerance"] is False
               for rec in json.loads(out.read_text())["records"])


def test_nan_result_is_written_as_null(tmp_path, capsys, monkeypatch):
    # strict JSON has no NaN token; without a tolerance the run still fails
    _nan_data(monkeypatch)
    cfg = _rec_config(quadrature={"n_theta": 8, "n_phi": 16})
    cfg.pop("tolerance")
    out = tmp_path / "rec.json"
    assert _run("reconstruct", _write(tmp_path, "c.json", cfg), out) == 1

    def no_constant(token):
        raise ValueError(f"bare {token} token in the output")

    doc = json.loads(out.read_text(), parse_constant=no_constant)
    assert all(rec["oracle_error"] is None for rec in doc["records"])
    assert "output.records[0]" in capsys.readouterr().err


def test_converge_nan_result_fails_without_tolerance(tmp_path, monkeypatch):
    _nan_data(monkeypatch)
    cfg = {"p0": [0, 0, 0, 0], "q": [1.5, 0.4, 0.3, 0.2], "valence": 1,
           "data": {"family": "plane-wave", "alpha": ALPHA},
           "levels": [[8, 16]]}
    out = tmp_path / "cv.csv"
    assert _run("converge", _write(tmp_path, "c.json", cfg), out) == 1
    rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
    assert rows[0]["rel_error"] == "nan"


def test_constraints_nan_result_fails_without_tolerance(tmp_path, monkeypatch):
    def residual(data, p0, s_values, grid):
        return {0: float("nan"), 1: 1e-3}

    monkeypatch.setattr(nulldata, "constraint_residual", residual)
    cfg = {"p0": [0, 0, 0, 0], "valence": 1, "s_values": [0.8],
           "data": {"family": "plane-wave", "alpha": ALPHA},
           "levels": [[12, 24], [24, 48]]}
    out = tmp_path / "con.csv"
    assert _run("constraints", _write(tmp_path, "c.json", cfg), out) == 1
    assert "nan" in out.read_text()


@pytest.mark.parametrize("data, key", [
    ({"alpha": [[1e160, 0], [1e160, 0]]}, "data.alpha[0] real part"),
    ({"alpha": ALPHA, "amplitude": 1e308}, "data.amplitude"),
], ids=["alpha", "amplitude"])
def test_plane_wave_parameter_past_the_bound_exits_2_naming_it(tmp_path, capsys, data, key):
    # both overflowed to an all-null record (exit 1) before the bound
    cfg = _rec_config(data={"family": "plane-wave", **data})
    assert _run("reconstruct", _write(tmp_path, "c.json", cfg), tmp_path / "rec.json") == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "rec.json").exists()


def test_plane_wave_at_the_bound_stays_finite(tmp_path):
    top = cli._MAX_WAVE
    spin = {"family": "plane-wave", "alpha": [[top, top], [top, -top]],
            "amplitude": [top, -top]}
    dirac = {**spin, "family": "plane-wave-dirac", "psi_amplitude": [-top, top]}
    base = {"p0": [0, 0, 0, 0], "valence": MAX_VALENCE, "data": spin}
    q, levels = [1.5, 0.4, 0.3, 0.2], [[8, 16]]
    for command, cfg in (
            ("reconstruct", {**base, "q": [q], "quadrature": {"n_theta": 8, "n_phi": 16}}),
            ("converge", {**base, "q": q, "levels": levels}),
            ("constraints", {**base, "s_values": [0.8], "levels": levels}),
            ("converge", {**base, "valence": 1, "kind": "dirac", "data": dirac, "q": q,
                          "levels": levels})):
        assert _run(command, _write(tmp_path, "c.json", cfg), tmp_path / "out") == 0, cfg


def test_unmapped_exception_is_internal_error(tmp_path, monkeypatch, capsys):
    def broken(cfg, out, seed):
        raise RuntimeError("invariant broken\nsecond line")

    monkeypatch.setitem(cli._COMMANDS, "verify", (broken, "json"))
    code = _run("verify", _write(tmp_path, "c.json", {}), tmp_path / "vf.json")
    assert code == cli.EXIT_INTERNAL == 5
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: invariant broken second line\n"


def test_reconstruct_n_phi_not_a_multiple_of_four(tmp_path):
    # the half-resolution estimate must keep n_phi even: 18 halves to 8, not 9
    cfg = _rec_config(quadrature={"n_theta": 16, "n_phi": 18})
    cfg.pop("tolerance")
    assert _run("reconstruct", _write(tmp_path, "c.json", cfg),
                tmp_path / "rec.json") == 0


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
           "levels": [[16, 32], [32, 64]]}
    out = tmp_path / "cv.csv"
    assert _run("converge", _write(tmp_path, "c.json", cfg), out) == 0
    lines = out.read_text().splitlines()
    rows = list(csv.DictReader(lines[1:]))
    assert [r["n_theta"] for r in rows] == ["16", "32"]
    assert all(float(r["rel_error"]) < 1e-3 for r in rows)


def test_converge_order_is_blank_where_both_errors_are_roundoff(tmp_path):
    # valence 2 resolves to roundoff by 16x32: the default levels' errors
    # are all within 100 ulp, where a log2 ratio reads noise as an order;
    # a level whose error is above that floor keeps its order
    floor = 100 * np.finfo(float).eps
    cfg = {"p0": [0, 0, 0, 0], "q": [1.5, 0.4, 0.3, 0.2], "valence": 2,
           "data": {"family": "plane-wave", "alpha": ALPHA}}
    for name, levels in (("default", None), ("coarse", [[8, 16], [16, 32], [32, 64]])):
        out = tmp_path / f"{name}.csv"
        level_cfg = cfg if levels is None else {**cfg, "levels": levels}
        assert _run("converge", _write(tmp_path, f"{name}.json", level_cfg), out) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
        errors = [float(r["rel_error"]) for r in rows]
        assert rows[0]["order"] == ""
        for prev, cur, row in zip(errors, errors[1:], rows[1:]):
            if max(prev, cur) < floor:
                assert row["order"] == ""
            else:
                assert float(row["order"]) == pytest.approx(np.log2(prev / cur), abs=1e-3)
        if levels is None:
            assert max(errors) < floor and [r["order"] for r in rows] == ["", "", ""]
        else:
            assert errors[0] > floor and float(rows[1]["order"]) > 10.0 and rows[2]["order"] == ""


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


def test_curved_transport_narrow_bump_is_resolved(tmp_path):
    # a gaussian of width 0.1 across a t = 3 ray through its centre: the
    # kernel halves its segments around the bump, and k_ode meets the
    # resolved chord integral within 1e-3 (measured 5.9e-4; what is left is
    # the 32-node chord rule of the connecting velocity, not the shoot)
    from conerec import transport
    d = np.array([0.3, 0.5, 0.8])
    p = np.concatenate([[-1.5], -1.5 * d / np.linalg.norm(d)])
    cfg = {"chart": {"name": "conformal", "eps": 0.5, "width": 0.1},
           "rays": [{"p": p.tolist(), "direction": d.tolist(), "t": 3.0}],
           "k_steps": 1, "van_vleck": False}
    out = tmp_path / "ct.json"
    assert _run("curved-transport", _write(tmp_path, "c.json", cfg), out) == 0
    rec = json.loads(out.read_text())["records"][0]
    assert rec["diagnostics"]["null_connect"]["segments"] > 8
    chart = transport.make_chart("conformal", eps=0.5, width=0.1)
    nodes, weights = np.polynomial.legendre.leggauss(20)
    u = ((np.arange(400)[:, None] + 0.5 * (nodes + 1.0)) / 400).ravel()
    q = np.array(rec["q"])
    chord = np.tile(weights, 400) / 800.0 @ chart.omega(q + u[:, None] * (p - q)) ** 2
    exact = chord / (2.0 * np.pi * chart.omega(p) * chart.omega(q))
    assert abs(rec["k_ode"] - exact) <= 1e-3 * exact


def test_curved_transport_work_counters_repeat(tmp_path):
    cfg = {"chart": {"name": "conformal", "eps": 1e-2},
           "rays": [{"p": [0.1, 0.25, -0.15, 0.2],
                     "direction": [0.3, 0.5, 0.8], "t": 1.1}],
           "k_steps": 1, "van_vleck": True}
    cfg_path = _write(tmp_path, "c.json", cfg)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.json"
        code = subprocess.run(
            [sys.executable, "-m", "conerec.cli", "curved-transport",
             "--config", cfg_path, "--out", str(out)],
            capture_output=True).returncode
        assert code == 0
        outs.append(_strip_stamp(out))
    assert outs[0] == outs[1]
    diag = json.loads(outs[0])["records"][0]["diagnostics"]
    connect = diag["null_connect"]
    assert sorted(connect) == ["landing_error", "nodes", "picard_iterations",
                               "picard_update", "segments", "shoots"]
    assert connect["shoots"] == 1 and connect["nodes"] == 16 and connect["segments"] >= 1
    assert connect["picard_iterations"] >= 2 * connect["segments"]
    assert 0.0 <= connect["picard_update"] <= 1e-15
    assert 0.0 <= connect["landing_error"] < 1e-11
    work = diag["van_vleck"]
    assert sorted(work) == ["connect_iterations", "nodes", "picard_iterations",
                            "picard_update", "segments", "shoots",
                            "world_function_calls", "worst_connect_residual"]
    assert work["shoots"] == work["connect_iterations"] >= 1
    assert work["nodes"] == 16 and work["segments"] >= 1
    assert work["picard_iterations"] >= work["shoots"] and 0.0 <= work["picard_update"] <= 1e-15
    assert 0.0 <= work["worst_connect_residual"] < 1e-12
    assert diag["world_function_calls"] == 1
    assert "worst_connect_residual" not in diag


@pytest.mark.parametrize("tiny", [1e-170, 1e-320])
def test_curved_transport_tiny_direction_is_a_direction(tmp_path, tiny):
    # the norm of a tiny direction underflows unless it is scaled first
    records = []
    for tag, direction in (("unit", [1, 0, 0]), ("tiny", [tiny, 0, 0])):
        out = tmp_path / f"{tag}.json"
        cfg = _transport_config(rays=[{"p": [0, 0, 0, 0], "direction": direction,
                                       "t": 1.2}])
        assert _run("curved-transport", _write(tmp_path, "c.json", cfg), out) == 0
        records.append(json.loads(out.read_text())["records"])
    assert records[0] == records[1]


def test_curved_transport_reports_k_steps_nodes(tmp_path):
    out = tmp_path / "ct.json"
    cfg = _write(tmp_path, "c.json", _transport_config(k_steps=4))
    assert _run("curved-transport", cfg, out) == 0
    rec = json.loads(out.read_text())["records"][0]
    assert len(rec["k_nodes"]) == 5
    assert rec["k_nodes"][0] == 1.0 / (2.0 * np.pi)
    assert rec["k_nodes"][-1] == rec["k_ode"]


def test_curved_transport_non_finite_k_is_geometry_error(tmp_path, monkeypatch, capsys):
    from conerec import transport
    accel = transport._acceleration
    # a NaN imaginary part on the complex-step rows leaves the geodesic
    # finite and the propagator's X and U blocks, and so k, NaN; the jet
    # divides by the NaN rows without a RuntimeWarning
    monkeypatch.setattr(transport, "_acceleration", lambda chart, x, u: (
        accel(chart, x, u) + complex(0.0, np.nan) if np.iscomplexobj(x) else accel(chart, x, u)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _run("curved-transport", _write(tmp_path, "c.json", _transport_config()),
                    tmp_path / "ct.json")
    assert code == cli.EXIT_GEOMETRY == 3
    assert "rays[0]: transport coefficient is not finite" in capsys.readouterr().err


def test_curved_transport_non_finite_van_vleck_is_geometry_error(tmp_path, capsys):
    # p +- h e_b rounds to p, so the differenced gradient is 0/0 and Delta
    # NaN: it once passed the positivity check, k_van_vleck was written as
    # null and route_spread left it out; now no RuntimeWarning is raised either
    cfg = _transport_config(van_vleck=True, van_vleck_h=1e-200, tolerance=1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _run("curved-transport", _write(tmp_path, "c.json", cfg),
                    tmp_path / "ct.json")
    assert code == cli.EXIT_GEOMETRY == 3
    assert ("rays[0]: van Vleck determinant nan is not a positive finite number"
            in capsys.readouterr().err)
    assert not (tmp_path / "ct.json").exists()


@pytest.mark.parametrize("h", [1e-9, 1e-7, 1e-5, 2e-2])
def test_curved_transport_van_vleck_bound_holds(tmp_path, h):
    # from the roundoff floor of h to a step 2e4 times the short ray, the
    # reported bound holds against the closed form
    ray = _transport_config()["rays"][0]
    cfg = _transport_config(van_vleck=True, van_vleck_h=h,
                            rays=[{**ray, "t": 1e-6}, ray])
    out = tmp_path / "ct.json"
    assert _run("curved-transport", _write(tmp_path, "c.json", cfg), out) == 0
    for rec in json.loads(out.read_text())["records"]:
        err = abs(rec["k_van_vleck"] - rec["k_closed_form"])
        assert err <= rec["k_van_vleck_error_bound"] < 1e-6


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


# q = p + t (1, d) rounds at the scale of |p| = 0.55: on the parent t = 1e-9
# left a timelike chord (exit 3) and t = 1e-200 no chord at all
@pytest.mark.parametrize("t", [1e-9, 1e-200])
def test_curved_transport_ray_too_short_for_p_exits_2_naming_t(tmp_path, capsys, t):
    ray = {"p": [0.1, 0.2, 0.3, 0.4], "direction": [0.3, 0.5, 0.8], "t": t}
    code = _run("curved-transport", _write(tmp_path, "c.json",
                                           _transport_config(rays=[ray])),
                tmp_path / "ct.json")
    assert code == 2
    err = capsys.readouterr().err
    assert "rays[0].t" in err and "too short" in err


def test_curved_transport_short_ray_resolved_at_p_runs(tmp_path):
    ray = {"p": [0.1, 0.2, 0.3, 0.4], "direction": [0.3, 0.5, 0.8], "t": 1e-5}
    assert _run("curved-transport", _write(tmp_path, "c.json",
                                           _transport_config(rays=[ray])),
                tmp_path / "ct.json") == 0


def test_curved_transport_coarse_frame_keeps_products_at_roundoff(tmp_path):
    # the legs are closed form along the chord, so 10 frame steps cannot
    # drift the tetrad off normalization
    cfg = _transport_config(frame={"theta": 0.7, "phi": 1.3, "steps": 10})
    out = tmp_path / "ct.json"
    assert _run("curved-transport", _write(tmp_path, "c.json", cfg), out) == 0
    assert json.loads(out.read_text())["records"][0]["frame"]["product_drift"] <= 1e-14


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
    ("converge", {**_CONVERGE, "levels": [[8, 16], [16, 32]]}, "csv"),
    ("curved-transport", {**_TRANSPORT, "chart": {"name": "conformal", "eps": 1e-2},
                          "van_vleck": True, "frame": {"steps": 50}}, "json"),
    ("verify", {"cases": 100, "seed": 7,
                "suites": ["algebra", "geometry", "constraints", "curved"]}, "json"),
    # the curved evaluator reads the section's lazily derived p and l
    ("reconstruct", {k: v for k, v in _rec_config(chart={"name": "conformal", "eps": 1e-3}).items()
                     if k != "tolerance"}, "json"),
    ("reconstruct", _rec_config(kind="dirac", data={**_DIRAC_DATA, "psi_amplitude": [0.5, -0.1]}),
     "json"),
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


@pytest.mark.parametrize("command, cfg", [
    ("reconstruct", _rec_config(quadrature={"n_theta": 8, "n_phi": 16}, tolerance=1e-2)),
    ("verify", {"cases": 10, "suites": ["algebra"]}),
    ("curved-transport", _TRANSPORT),
])
def test_meta_holds_deterministic_provenance(tmp_path, monkeypatch, command, cfg):
    from conerec import __version__, _backend
    for var in cli._THREAD_VARS:
        monkeypatch.setenv(var, "1")
    cfg_path = _write(tmp_path, "c.json", cfg)
    metas = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([command, "--config", cfg_path, "--out", str(out), "--seed", "5"]) == 0
        meta = json.loads(out.read_text())["meta"]
        assert meta.pop("generated_at")
        metas.append(meta)
    assert metas[0] == metas[1] == {"version": __version__, "backend": _backend.BACKEND,
                                    "numpy": np.__version__, "seed": 5, "threads": 1}


@pytest.mark.parametrize("env, flag, want", [
    ({}, ["--threads", "3"], 3),
    (dict.fromkeys(cli._THREAD_VARS, "2"), ["--threads", "3"], 3),
    (dict.fromkeys(cli._THREAD_VARS, "2"), [], 2),
    ({**dict.fromkeys(cli._THREAD_VARS, "2"), "MKL_NUM_THREADS": "4"}, [], None),
    (dict.fromkeys(cli._THREAD_VARS[1:], "2"), [], None),
    (dict.fromkeys(cli._THREAD_VARS, "two"), [], None),
    (dict.fromkeys(cli._THREAD_VARS, "0"), [], None),
    ({}, [], None),
])
def test_meta_threads_is_the_pin_of_the_run(tmp_path, monkeypatch, env, flag, want):
    # --threads wins; else the five variables' common value; else null
    for var in cli._THREAD_VARS:
        monkeypatch.setenv(var, "")      # restored after the test, as --threads sets them
        monkeypatch.delenv(var)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    cfg_path = _write(tmp_path, "c.json", {"cases": 10, "suites": ["algebra"]})
    out = tmp_path / "v.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--config", cfg_path, "--out", str(out), *flag]) == 0
    assert json.loads(out.read_text())["meta"]["threads"] == want


def test_cli_imports_no_numpy():
    # --threads pins the BLAS pool in the environment, which only works
    # if numpy loads after the arguments are parsed
    code = ("import sys; import conerec.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_flat_reconstruct_leaves_transport_unloaded(tmp_path):
    # only a chart brings the geodesic machinery in
    cfg_path = _write(tmp_path, "c.json", _rec_config(quadrature={"n_theta": 8, "n_phi": 16},
                                                      tolerance=1e-3))
    code = ("import sys; from conerec import cli; "
            f"code = cli.main(['reconstruct', '--config', {cfg_path!r}, "
            f"'--out', {str(tmp_path / 'o.json')!r}]); "
            "print(code, 'conerec.reconstruct' in sys.modules, "
            "'conerec.transport' in sys.modules)")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.splitlines()[-1].split() == ["0", "True", "False"]


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


def _console_script(name):
    """The target of [project.scripts] name in the repository's
    pyproject.toml, imported."""
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, _, attr = target.partition(":")
    return getattr(importlib.import_module(module), attr)


def test_console_entry_point(tmp_path, capsys):
    # the installed script when it is on PATH, else the target pyproject.toml
    # declares for it, run in process
    cfg_path = _write(tmp_path, "c.json", {"cases": 20, "suites": ["algebra"]})
    argv = ["verify", "--config", cfg_path, "--out", str(tmp_path / "vf.json")]
    exe = shutil.which("conerec")
    if exe is not None:
        proc = subprocess.run([exe, *argv], capture_output=True, text=True)
        code, stdout = proc.returncode, proc.stdout
    else:
        code = _console_script("conerec")(argv)
        stdout = capsys.readouterr().out
    assert code == 0
    assert "algebra.clifford_relation" in stdout


# -- property: every leaf of a full config, mutated, ends in a documented exit

_QUADRATURE_FULL = {"n_theta": 8, "n_phi": 16}
_CHART_FULL = {"name": "conformal", "eps": 1e-3, "profile": "gaussian", "width": 2.0,
               "center": [0, 0, 0, 0], "halfwidth": 10.0}


def _full_configs(data_file):
    """One config per command naming every key of every block it reads;
    between them the data blocks cover every source."""
    main = {"seed": 1, "out": "unused.out"}
    return {
        "reconstruct": {**main, "p0": [0, 0, 0, 0], "q": [[1.0, 0.1, 0.0, 0.0]],
                        "kind": "spin", "valence": 1, "quadrature": _QUADRATURE_FULL,
                        "chart": _CHART_FULL,
                        "data": {"file": data_file}, "tolerance": 1e-2},
        "constraints": {**main, "p0": [0, 0, 0, 0], "valence": 1, "s_values": [0.8],
                        "data": {"family": "plane-wave", "alpha": ALPHA,
                                 "amplitude": [0.9, 0.2]},
                        "levels": [[8, 16]], "tolerance": 1e-2},
        "converge": {**main, "p0": [0, 0, 0, 0], "q": [1.5, 0.4, 0.3, 0.2],
                     "kind": "dirac", "valence": 1,
                     "data": {"family": "plane-wave-dirac", "alpha": ALPHA,
                              "amplitude": [0.9, 0.2], "psi_amplitude": [0.5, -0.1]},
                     "levels": [[8, 16]],
                     "tolerance": 1e-2},
        "verify": {**main, "suites": ["algebra"], "cases": 20,
                   "thresholds": {"algebra.clifford_relation": 1e-12}},
        "curved-transport": {**main, "chart": _CHART_FULL, "rays": [_RAY],
                             "k_steps": 1, "van_vleck": True, "van_vleck_h": 2e-2,
                             "tolerance": 1e-2,
                             "frame": {"steps": 50, "theta": 0.4, "phi": 1.1,
                                       "s_end": 1.0}},
    }


_EVERY_TABLE = [*cli._TABLES.values(), cli._QUADRATURE, cli._CHART, cli._FRAME, cli._RAY,
                *cli._DATA.values()]


def _tables(command, cfg):
    """(path, table) of each block of cfg that a config table reads."""
    yield (), cli._TABLES[command]
    for key, table in (("quadrature", cli._QUADRATURE), ("chart", cli._CHART),
                       ("frame", cli._FRAME)):
        if key in cfg:
            yield (key,), table
    if "data" in cfg:
        data = cfg["data"]
        yield ("data",), cli._DATA["file" if "file" in data else data["family"]]
    for i in range(len(cfg.get("rays", []))):
        yield ("rays", i), cli._RAY


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _leaves(node, path=()):
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _leaves(value, path + (key,))


def _mutants(command, cfg):
    """(what, config) pairs: each leaf swapped for a value of another type
    (a string or number, an object, null), a NaN literal, zero, negative,
    1e308 and an empty list; per block, each required key dropped and an
    unknown key added."""
    def edited(path, edit):
        new = copy.deepcopy(cfg)
        edit(_at(new, path[:-1]), path[-1])
        return new

    for path in _leaves(cfg):
        swapped = 5 if isinstance(_at(cfg, path), str) else "x"
        for value in (swapped, {}, None, float("nan"), 0, -1, 1e308, []):
            yield (path, value), edited(path, lambda n, k: n.__setitem__(k, value))
    for path, table in _tables(command, cfg):
        for key, entry in table.items():
            if entry.default is cli._REQUIRED:
                yield (path, "drop", key), edited(path + (key,),
                                                  lambda n, k: n.pop(k))
        new = copy.deepcopy(cfg)
        _at(new, path)["unknown_key"] = 1
        yield (path, "add"), new


def _strict_output(path, command):
    text = Path(path).read_text()
    if cli._COMMANDS[command][1] == "csv":
        lines = text.splitlines()
        rows = list(csv.reader(lines[1:]))
        return lines[0].startswith("# generated_at=") and len(rows) > 1 \
            and len({len(r) for r in rows}) == 1

    def no_constant(token):
        raise ValueError(token)

    try:
        return isinstance(json.loads(text, parse_constant=no_constant), dict)
    except ValueError:
        return False


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_every_config_leaf_mutation_ends_in_a_documented_exit_code(tmp_path, monkeypatch):
    configs = _full_configs(_grid_data_file(tmp_path, 0.3, 0.8, grid_shape=(8, 16),
                                            columns=2))
    cfg_path, out = tmp_path / "c.json", tmp_path / "out"
    read, descriptors = [], []

    def read_descriptor(desc, table, *args):
        descriptors.append((desc, table))
        return cli._read(desc, table, *args)

    monkeypatch.setattr(nulldata, "_read", read_descriptor)
    for command, cfg in configs.items():
        assert _run(command, _write(tmp_path, "c.json", cfg), out) == 0, command
        for path, table in _tables(command, cfg):
            assert set(_at(cfg, path)) == set(table), (command, path)
            read.append(table)
    monkeypatch.undo()
    for desc, table in descriptors:  # the data file names every descriptor key
        assert set(desc) == set(table)
        read.append(table)
    assert all(any(t is r for r in read) for t in (*_EVERY_TABLE, nulldata._DESCRIPTOR))
    bad = []
    for command, cfg in configs.items():
        for what, mutant in _mutants(command, cfg):
            cfg_path.write_text(json.dumps(mutant))
            if out.exists():
                out.unlink()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = _run(command, str(cfg_path), out)
            if code not in {0, 1, 2, 3, 4} \
                    or code == 0 and not _strict_output(out, command):
                bad.append((command, what, code, err.getvalue().strip()))
    assert not bad, "\n".join(map(repr, bad))


def _readme_configs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("\n### Configs\n", 1)[1].split("\n## ", 1)[0]


def test_readme_configs_section_names_every_key_and_bound():
    section = _readme_configs()
    missing = sorted({key for table in _EVERY_TABLE for key in table
                      if f"`{key}`" not in section and f'"{key}"' not in section})
    assert not missing
    bounds = (MAX_GRID, cli._MAX_STEPS, cli._MAX_CASES, MAX_VALENCE)
    assert all(f"at most {b}" in section for b in bounds)
    assert f"{cli._MAX_COORDINATE:.0e}".replace("+", "") in section
    assert f"at most {cli._MAX_WAVE:.0e}".replace("+0", "") in section


@pytest.mark.parametrize("block, table", [("quadrature", cli._QUADRATURE),
                                          ("chart", cli._CHART), ("frame", cli._FRAME)],
                         ids=["quadrature", "chart", "frame"])
def test_readme_block_example_has_exactly_the_accepted_keys(block, table):
    # the example object is the first one quoted in the block's bullet, so a
    # key removed from the table cannot linger there
    bullet = _readme_configs().split(f"\n- `{block}`", 1)[1].split("\n- ", 1)[0]
    example = json.loads(re.search(r"`(\{.*?\})`", bullet, re.S).group(1))
    assert set(example) == set(table)


_SMALL = st.one_of(st.integers(-3, 40), st.floats(-50.0, 50.0))
_WRONG = st.one_of(
    _SMALL, st.text(max_size=4), st.none(), st.booleans(),
    st.lists(_SMALL, max_size=3),
    st.dictionaries(st.text(max_size=2), _SMALL, max_size=2))


# every descriptor key of a tiny 8x16 data file, and one of its r0 nodes
@given(leaf=st.sampled_from([(key,) for key in nulldata._DESCRIPTOR] + [("r0_nodes", 3)]),
       value=_WRONG)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_mistyped_descriptor_leaf_ends_in_a_documented_exit_code(leaf, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = _grid_data_file(Path(tmp), 0.3, 0.8, grid_shape=(8, 16))
        with open(path) as fh:
            desc = json.load(fh)
        node = desc
        for key in leaf[:-1]:
            node = node[key]
        node[leaf[-1]] = value
        with open(path, "w") as fh:
            json.dump(desc, fh)
        cfg = _rec_config(q=[[1, 0, 0, 0]], data={"file": path},
                          quadrature={"n_theta": 8, "n_phi": 16})
        cfg_path = os.path.join(tmp, "c.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        code = cli.main(["reconstruct", "--config", cfg_path,
                         "--out", os.path.join(tmp, "out")])
    assert code in {0, 1, 2, 3, 4}


# -- property: whole configs drawn from the valid ranges, small grids and
# at most two points or rays, end in strict output or a documented exit
# naming a key or record

_UNIT = st.floats(-1.0, 1.0)
_POINTS = st.tuples(st.floats(-0.5, 2.5), _UNIT, _UNIT, _UNIT).map(list)
_PART = st.floats(-3.0, 3.0)
_WAVE = st.tuples(_PART, _PART).map(list)
# the grids the quadrature rule takes, up to 16 x 32
_GRID = st.tuples(st.integers(4, 16), st.integers(4, 16).map(lambda half: 2 * half))
_GRIDS = st.lists(_GRID.map(list), min_size=1, max_size=2)
_CHARTS = st.one_of(st.just({"name": "flat"}), st.fixed_dictionaries({
    "name": st.just("conformal"), "eps": st.floats(-0.99, 0.99),
    "profile": st.sampled_from(["gaussian", "sine"]), "width": st.floats(0.1, 4.0)}))


@st.composite
def _spin_or_dirac(draw, dirac=st.booleans()):
    """kind, valence and a plane-wave data block that fits them."""
    data = {"alpha": [draw(_WAVE), draw(_WAVE)], "amplitude": draw(_WAVE)}
    if not draw(dirac):
        return {"kind": "spin", "valence": draw(st.integers(1, 16)),
                "data": {"family": "plane-wave", **data}}
    return {"kind": "dirac", "valence": 1,
            "data": {"family": "plane-wave-dirac", **data, "psi_amplitude": draw(_WAVE)}}


@st.composite
def _whole_config(draw):
    command = draw(st.sampled_from(["reconstruct", "reconstruct-curved", "converge",
                                    "constraints", "curved-transport"]))
    p0 = draw(_POINTS)
    level = dict(zip(("n_theta", "n_phi"), draw(_GRID)))
    if command == "curved-transport":
        rays = st.fixed_dictionaries({
            "p": _POINTS, "direction": st.tuples(_UNIT, _UNIT, _UNIT).map(list),
            "t": st.floats(0.1, 2.0)})
        cfg = {"chart": draw(_CHARTS), "rays": draw(st.lists(rays, min_size=1, max_size=2)),
               "k_steps": draw(st.integers(1, 4)), "van_vleck": draw(st.booleans())}
        if draw(st.booleans()):
            cfg["frame"] = {"steps": draw(st.integers(1, 50)), "s_end": draw(st.floats(0.1, 2.0))}
        return command, cfg
    if command == "constraints":
        return command, {"p0": p0, "valence": draw(st.integers(1, 16)),
                         "s_values": draw(st.lists(st.floats(0.1, 2.5), min_size=1,
                                                   max_size=2)),
                         "data": {"family": "plane-wave", "alpha": [draw(_WAVE), draw(_WAVE)]},
                         "levels": draw(_GRIDS)}
    # q - p0 = t (1, w) with |w| up to 1.2: mostly inside the cone of p0
    lean = st.floats(-0.7, 0.7)
    offsets = st.tuples(st.floats(0.1, 2.5), lean, lean, lean).map(
        lambda o: [o[0], *(o[0] * w for w in o[1:])])
    qs = [[a + b for a, b in zip(p0, offset)]
          for offset in draw(st.lists(offsets, min_size=1, max_size=2))]
    if command == "converge":
        return command, {"p0": p0, "q": qs[0], **draw(_spin_or_dirac()),
                         "levels": draw(_GRIDS)}
    if command == "reconstruct-curved":
        return "reconstruct", {"p0": p0, "q": qs, **draw(_spin_or_dirac(st.just(False))),
                               "quadrature": level, "chart": draw(_CHARTS)}
    return command, {"p0": p0, "q": qs, **draw(_spin_or_dirac()), "quadrature": level}


def _names_a_key_or_record(err, cfg):
    words = {key for path in _leaves(cfg) for key in path
             if isinstance(key, str) and len(key) > 1}
    return bool(re.search(r"\b(q|rays)\[\d+\]", err)) or any(
        re.search(rf"\b{re.escape(word)}\b", err) for word in words)


@given(drawn=_whole_config())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_whole_config_from_the_valid_ranges_ends_in_a_documented_way(drawn):
    command, cfg = drawn
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = os.path.join(tmp, "c.json"), os.path.join(tmp, "out")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", cfg_path, "--out", out])
        err = err.getvalue()
        if code in {0, 1}:
            assert _strict_output(out, command), err
        else:
            assert code in {2, 3, 4} and _names_a_key_or_record(err, cfg), (code, err)


@pytest.mark.parametrize("edit", ["truncate", "pad", "non-finite"])
@given(index=st.integers(0, 10 ** 6), pad=st.binary(min_size=1, max_size=40),
       value=st.sampled_from([float("nan"), float("inf"), float("-inf")]))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_damaged_blob_is_config_error_naming_blob(edit, index, pad, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = _grid_data_file(Path(tmp), 0.3, 0.8, grid_shape=(8, 16))
        blob = Path(path[:-len(".json")] + ".bin")
        raw = blob.read_bytes()
        if edit == "truncate":
            raw = raw[:index % len(raw)]
        elif edit == "pad":
            raw += pad
        else:
            parts = np.frombuffer(raw, dtype="<f8").copy()
            parts[index % parts.size] = value
            raw = parts.tobytes()
        blob.write_bytes(raw)
        cfg = _rec_config(q=[[1, 0, 0, 0]], data={"file": path},
                          quadrature={"n_theta": 8, "n_phi": 16})
        cfg_path = os.path.join(tmp, "c.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["reconstruct", "--config", cfg_path,
                             "--out", os.path.join(tmp, "out")])
    assert code == 2
    assert "blob" in err.getvalue()


def _ray_error(tmp_path, capsys, cfg):
    code = _run("curved-transport", _write(tmp_path, "c.json", cfg),
                tmp_path / "ct.json")
    return code, capsys.readouterr().err


def test_curved_transport_connect_failure_names_the_ray(tmp_path, capsys):
    # p = (0, 1.49, 0, 0) sits within van_vleck_h of the box face, so the
    # van Vleck connect targets p + h e_1 reach past it
    ray = {"p": [0, 1.49, 0, 0], "direction": [-1, 0, 0], "t": 1.0}
    cfg = _transport_config(chart={"name": "conformal", "eps": 1e-2, "halfwidth": 1.5},
                            rays=[_transport_config()["rays"][0], ray], van_vleck=True)
    code, err = _ray_error(tmp_path, capsys, cfg)
    assert code == 3
    assert "geometry error: rays[1]: connection target" in err


def test_curved_transport_frame_exit_names_the_ray(tmp_path, capsys):
    cfg = _transport_config(chart={"name": "conformal", "eps": 1e-2, "halfwidth": 1.5},
                            frame={"s_end": 3.0})
    code, err = _ray_error(tmp_path, capsys, cfg)
    assert code == 3
    assert "geometry error: rays[0]: " in err and "left the chart domain" in err


def test_curved_transport_endpoint_outside_names_the_ray(tmp_path, capsys):
    ray = {"p": [0, 0, 0, 0], "direction": [1, 0, 0], "t": 20.0}
    code, err = _ray_error(tmp_path, capsys, _transport_config(rays=[ray]))
    assert code == 3
    assert "geometry error: rays[0]: endpoint" in err


def test_curved_transport_shoots_through_the_traced_kernel(tmp_path, monkeypatch):
    # the benchmark's tracer wraps transport.kernels.shoot_endpoint and
    # counts its last positional argument as steps: every shoot of a ray
    # must pass through that attribute, and every world function shoot
    from conerec import transport
    shoot, world_function = transport.kernels.shoot_endpoint, transport.world_function
    calls, per_world_function = [], []

    def traced_shoot(*args, **kwargs):
        shot = shoot(*args, **kwargs)
        calls.append((args[-1], shot))
        return shot

    def traced_world_function(*args, **kwargs):
        before = len(calls)
        result = world_function(*args, **kwargs)
        per_world_function.append(len(calls) - before)
        return result

    monkeypatch.setattr(transport.kernels, "shoot_endpoint", traced_shoot)
    monkeypatch.setattr(transport, "world_function", traced_world_function)
    out = tmp_path / "ct.json"
    cfg = _transport_config(van_vleck=True, frame={"steps": 100})
    assert _run("curved-transport", _write(tmp_path, "c.json", cfg), out) == 0
    rec = json.loads(out.read_text())["records"][0]
    diag = rec["diagnostics"]
    stages = (diag["null_connect"], diag["van_vleck"])
    # one more shoot: the frame; the last positional argument is the node
    # count a segment, so the tracer's steps count Chebyshev nodes
    assert len(calls) == sum(w["shoots"] for w in stages) + 1
    assert all(type(last) is int and last == 16 for last, _ in calls)
    assert sum(shot.iterations for _, shot in calls[:-1]) == sum(
        w["picard_iterations"] for w in stages)
    # the frame block reports the frame shoot's work, so every shoot of a
    # ray is counted in its record
    frame_shot = calls[-1][1]
    assert (rec["frame"]["segments"], rec["frame"]["picard_iterations"]) == (
        frame_shot.segments, frame_shot.iterations)
    assert frame_shot.segments >= 1 and frame_shot.iterations >= 2
    assert per_world_function and min(per_world_function) >= 1
