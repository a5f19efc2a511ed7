"""Every output byte of two campaigns, against the manifests in tests/data.

The pinned synthetic campaign's files are checked in the acceptance suite,
which already runs that campaign. The small real-shape campaign runs here:
co2-, spx_vol- and IMS-shaped datasets through the CSV loaders, the full
registry at seed 1 and offset 0. It is the only campaign with token widths
4 and 6 and with 40-token windows. The bytes hold on one SIMD dispatch
level, which the manifests name; at another level the same campaign is
checked as values, within a relative tolerance, against
``tests/data/real_shape_values``. ``tests/data/make_manifests.py``
regenerates both manifests and those values.
"""

import csv
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent / "data" / "make_manifests.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("make_manifests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MANIFESTS = _load_script()


def test_real_shape_campaign_bytes(tmp_path):
    csv_dir = tmp_path / "csv"
    csv_dir.mkdir()
    shapes = {ds.name: ds.shape for ds in MANIFESTS.real_shape_datasets(csv_dir)}
    assert shapes == {"co2": (170, 30, 3), "spx_vol": (215, 40, 6), "ims": (176, 24, 4)}
    results, _ = MANIFESTS.run_real_shape_campaign(tmp_path / "out", csv_dir)
    assert len(results) == 3 * 25
    differences = MANIFESTS.manifest_differences(MANIFESTS.REAL_SHAPE_MANIFEST, tmp_path / "out")
    assert not differences, "real-shape campaign bytes moved:\n" + "\n".join(differences)


def test_manifest_names_each_difference(tmp_path):
    tree = tmp_path / "tree"
    (tree / "models").mkdir(parents=True)
    (tree / "results.csv").write_text("a\n")
    (tree / "models" / "m.txt").write_text("b\n")
    (tree / "audit_summary.csv").write_text("not pinned\n")
    manifest = tmp_path / "manifest.json"
    MANIFESTS.write_manifest(manifest, tree)
    assert set(json.loads(manifest.read_text())["files"]) == {"results.csv", "models/m.txt"}
    assert MANIFESTS.manifest_differences(manifest, tree) == []

    (tree / "results.csv").write_text("a2\n")
    (tree / "models" / "m.txt").unlink()
    (tree / "selected.csv").write_text("c\n")
    lines = MANIFESTS.manifest_differences(manifest, tree)
    assert [line.split(":")[0] for line in lines] == ["models/m.txt", "results.csv", "selected.csv"]

    # another numpy version fails, whatever the files
    other = json.loads(manifest.read_text())
    other["numpy"] = "0.0.0"
    manifest.write_text(json.dumps(other))
    lines = MANIFESTS.manifest_differences(manifest, tree)
    assert lines[0].startswith(f"numpy {np.__version__} here, but manifest.json was made with numpy 0.0.0")

    # so does another SIMD dispatch set
    other = json.loads(manifest.read_text())
    other["numpy"], other["dispatch"] = np.__version__, ["X86_V3", "NOT_A_FEATURE"]
    manifest.write_text(json.dumps(other))
    lines = MANIFESTS.manifest_differences(manifest, tree)
    here = " ".join(MANIFESTS.dispatch()) or "none"
    assert lines[0].startswith(f"SIMD dispatch {here} here, but manifest.json was made with X86_V3 NOT_A_FEATURE")
    assert [line.split(":")[0] for line in lines[1:]] == ["models/m.txt", "results.csv", "selected.csv"]


def read_rows(path) -> list[list[str]]:
    with Path(path).open(newline="") as fh:
        return list(csv.reader(fh))


def write_rows(path, rows) -> None:
    with Path(path).open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_value_differences_name_each_difference(tmp_path):
    values = MANIFESTS.REAL_SHAPE_VALUES
    for name in MANIFESTS.VALUE_FILES:
        write_rows(tmp_path / name, read_rows(values / name))
    assert MANIFESTS.value_differences(values, tmp_path) == []

    # a relative move of 1e-12 passes, one of 1e-8 is named; ledger hashes are not compared
    results = read_rows(values / "results.csv")
    column = {c: i for i, c in enumerate(results[0])}
    first, last = results[1], results[-1]
    first[column["val_rmse"]] = repr(float(first[column["val_rmse"]]) * (1 + 1e-12))
    first[column["ledger_hash"]] = "0" * 64
    last[column["test_rmse"]] = repr(float(last[column["test_rmse"]]) * (1 + 1e-8))
    write_rows(tmp_path / "results.csv", results)
    key = tuple(last[column[c]] for c in ("dataset", "mode", "seed", "split_offset"))
    assert MANIFESTS.value_differences(values, tmp_path) == [
        f"results.csv {key} test_rmse: {last[column['test_rmse']]} against the pinned "
        f"{read_rows(values / 'results.csv')[-1][column['test_rmse']]}"
    ]

    # another selected mode and a missing cell are named too
    selected = read_rows(values / "selected.csv")
    mode = selected[0].index("selected_mode")
    pinned_mode, selected[1][mode] = selected[1][mode], "no_such_mode"
    write_rows(tmp_path / "selected.csv", selected[:-1])
    assert MANIFESTS.value_differences(values, tmp_path)[1:] == [
        f"selected.csv {tuple(selected[1][:3])} selected_mode: no_such_mode against the pinned {pinned_mode}",
        f"selected.csv {tuple(selected[-1][:3])}: missing",
    ]


def test_real_shape_values_at_another_dispatch_level(tmp_path):
    """The real-shape campaign rerun with numpy's AVX-512 kernels turned off,
    where the host dispatches them, writes the pinned rows, file names and
    selected modes, and every value within VALUE_RTOL of the pinned one.

    ``NPY_DISABLE_CPU_FEATURES`` names only features this host dispatches:
    numpy ignores a name outside its dispatch list (with an ImportWarning)
    and refuses to import when a name is part of its baseline. On a host
    without AVX-512 the rerun runs at the host's own level, which is already
    another level than the pinned one; only when that equals the pinned
    level is there nothing to compare, and the test skips.
    """
    pinned = json.loads(MANIFESTS.REAL_SHAPE_MANIFEST.read_text())
    off = [f for f in MANIFESTS.dispatch() if f == "X86_V4" or f.startswith("AVX512")]
    level = [f for f in MANIFESTS.dispatch() if f not in off]
    if level == pinned["dispatch"]:
        pytest.skip(f"this host dispatches {' '.join(level) or 'no SIMD group'} without AVX-512, "
                    "the level the values were made at: no second level to compare with")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(off),
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    # the script pins BLAS to one thread before it imports numpy
    code = (
        "import importlib.util, json, sys\n"
        "spec = importlib.util.spec_from_file_location('make_manifests', sys.argv[1])\n"
        "m = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(m)\n"
        "m.run_real_shape_campaign(sys.argv[2] + '/out', sys.argv[2])\n"
        "print(json.dumps(m.dispatch()))\n"
    )
    run = subprocess.run([sys.executable, "-c", code, str(SCRIPT), str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == level
    out = tmp_path / "out"
    assert sorted(MANIFESTS.tree_digests(out)) == sorted(pinned["files"])
    differences = MANIFESTS.value_differences(MANIFESTS.REAL_SHAPE_VALUES, out)
    assert not differences, f"at dispatch {' '.join(level)}:\n" + "\n".join(differences)
