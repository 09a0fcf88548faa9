"""Reference corpus: committed configs and the outputs they must reproduce.

    python tests/corpus.py --diff             largest deviation per corpus file
    python tests/corpus.py --write NAME...    regenerate the named outputs

--diff goes through every file: one whose output differs in anything but
its floats prints the path of the first mismatch, and the exit status
is 1 if any file mismatches or deviates by more than TOL.

tests/corpus/<name>.cfg.json holds {"command", "config"} and, for file
data, "data_file": the plane-wave family that save_cone_data samples and
writes before the run, so no blob is committed, with "columns" spin
components (phi_0 only when absent; all n + 1 for a constraints run);
the config's data.file names that file inside the run's directory.
<name>.out.json holds the exit code and the JSON output with meta
dropped, the run's directory written as $TMP.  A CSV output
(constraints, converge) is held as its rows, the generated_at line
skipped: integer cells as integers, other numeric cells as floats, the
rest as strings.  A run matches when every key, string, integer, bool
and null is equal and every float lies within TOL of the output's
field scale, the largest magnitude of its field components (all its
floats when it has none; per column in a CSV), which leaves room for
another BLAS.

Regenerating the corpus changes what the tests check: say which files
moved, and by how much (--diff before --write), with the change.  --write
takes the names to write, so adding one entry rewrites no other output.

Run as a script, the helper sets every BLAS pool variable to 1 before
numpy loads, so --diff reads the same sums the committed outputs were
written with: a byte-identity claim (0.000e+00) needs that pin, since the
64x128 Dirac quadrature sums its dot products in a thread-dependent
order (reconstruct-flat-dirac reads 6.9e-15 on two threads).  Imported,
as the tests import it, it leaves the environment alone.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus"
sys.path.insert(0, str(HERE.parent / "src"))

from conerec import cli  # noqa: E402  (loads no numpy)

if __name__ == "__main__":
    os.environ.update(dict.fromkeys(cli._THREAD_VARS, "1"))

import numpy as np  # noqa: E402

from conerec import cone, nulldata, oracles  # noqa: E402

TOL = 1e-13
MAX_BYTES = 200_000
FIELD_KEYS = ("components", "phi", "psi")


def names():
    return sorted(p.name[:-len(".cfg.json")] for p in CORPUS.glob("*.cfg.json"))


def _write_data_file(directory, block):
    """Sample a plane-wave family on its grid and save it as conedata-v1."""
    alpha = [complex(*z) for z in block["alpha"]]
    spec = oracles.PlaneWaveSpec(block["valence"], alpha, complex(*block["amplitude"]))
    p0 = np.asarray(block["p0"], dtype=float)
    dirac = block["family"] == "plane-wave-dirac"
    fn = (oracles.plane_wave_dirac_cone_fn(spec, p0, complex(*block["psi_amplitude"]))
          if dirac else oracles.plane_wave_cone_fn(spec, p0, block.get("columns", 1)))[0]
    grid = cone.SphereGrid(*block["grid"])
    theta, phi, _, chart = grid.angles()
    omega = cone.unit_directions(theta, phi)
    o_up, iota_up = cone.spin_basis_field(theta, phi, chart)
    r0_nodes = np.linspace(*block["r0_nodes"])
    values = np.array([fn(np.full(theta.size, r0), omega, o_up, iota_up)
                       for r0 in r0_nodes])
    data = nulldata.ConeData(block["valence"], kind="dirac" if dirac else "spin",
                             grid=grid, r0_nodes=r0_nodes, values=values)
    nulldata.save_cone_data(str(Path(directory) / block["name"]), data)


def run(name, directory):
    """{"exit", "output"} of one corpus config, run in process in directory."""
    entry = json.loads((CORPUS / f"{name}.cfg.json").read_text())
    cfg = entry["config"]
    if "data_file" in entry:
        _write_data_file(directory, entry["data_file"])
        cfg = {**cfg, "data": {"file": str(Path(directory) / cfg["data"]["file"])}}
    cfg_path, out = Path(directory) / "cfg.json", Path(directory) / "out.json"
    cfg_path.write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([entry["command"], "--config", str(cfg_path), "--out", str(out)])
    text = out.read_text() if out.exists() else "null"
    if out.exists() and cli._COMMANDS[entry["command"]][1] == "csv":
        return {"exit": code, "output": _csv_rows(text)}
    doc = json.loads(text.replace(json.dumps(str(directory))[1:-1], "$TMP"))
    if isinstance(doc, dict):
        doc.pop("meta", None)
    return {"exit": code, "output": doc}


def _csv_rows(text):
    """The rows of a CSV output, its generated_at line skipped."""
    lines = [line for line in text.splitlines() if not line.startswith("# generated_at=")]
    return [[_cell(c) for c in row] for row in csv.reader(lines)]


def _cell(text):
    for kind in (int, float):
        with contextlib.suppress(ValueError):
            return kind(text)
    return text


def expected(name):
    return json.loads((CORPUS / f"{name}.out.json").read_text())


def _floats(node, keys=None):
    """The floats of node; with keys, only those under one of the keys."""
    if isinstance(node, dict):
        return [x for k, v in node.items()
                for x in _floats(v, None if keys is None or k in keys else keys)]
    if isinstance(node, list):
        return [x for v in node for x in _floats(v, keys)]
    return [node] if isinstance(node, float) and keys is None else []


def field_scale(doc):
    """The largest field component magnitude of an output (outputs are strict
    JSON, so every float is finite), else its largest float magnitude."""
    return max(map(abs, _floats(doc, FIELD_KEYS) or _floats(doc) or [1e-300]))


def deviation(got, want, scale, where="$"):
    """Largest float deviation over scale; AssertionError on any other difference."""
    assert type(got) is type(want), f"{where}: {got!r} is not like {want!r}"
    if isinstance(want, float):
        return abs(got - want) / scale
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys {sorted(got)} != {sorted(want)}"
        return max([deviation(got[k], want[k], scale, f"{where}.{k}") for k in want] + [0.0])
    if isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        return max([deviation(g, w, scale, f"{where}[{i}]")
                    for i, (g, w) in enumerate(zip(got, want))] + [0.0])
    assert got == want, f"{where}: {got!r} != {want!r}"
    return 0.0


def compare(name, directory):
    """Largest deviation of name's run from its committed output."""
    want = expected(name)
    got, table = run(name, directory), want["output"]
    if not isinstance(table, list):
        return deviation(got, want, field_scale(table))
    # CSV rows: compared whole for their shape, then each column at its scale
    deviation(got, want, 1.0)
    return max(deviation(list(g), list(w), field_scale(list(w)))
               for g, w in zip(zip(*got["output"]), zip(*table)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--diff", action="store_true", help="print the largest deviation per file")
    mode.add_argument("--write", nargs="+", metavar="NAME",
                      help="regenerate the committed outputs of the named configs")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.write or ()) - set(names()))
    if unknown:
        parser.error(f"no corpus config named {', '.join(unknown)}")
    failed = False
    for name in args.write or names():
        with tempfile.TemporaryDirectory() as tmp:
            if args.write:
                doc = run(name, tmp)
                (CORPUS / f"{name}.out.json").write_text(
                    json.dumps(doc, indent=1, sort_keys=True) + "\n")
                print(f"{name}: written (exit {doc['exit']})")
                continue
            try:
                dev = compare(name, tmp)
            except AssertionError as exc:
                print(f"{name}: MISMATCH at {exc}")
                failed = True
                continue
            print(f"{name}: largest deviation {dev:.3e} of the field scale"
                  + (f", above TOL {TOL:.0e}" if dev > TOL else ""))
            failed |= dev > TOL
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
