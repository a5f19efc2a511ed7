"""Every output byte of two campaigns, against the manifests in tests/data.

The pinned synthetic campaign's files are checked in the acceptance suite,
which already runs that campaign. The small real-shape campaign runs here:
co2-, spx_vol- and IMS-shaped datasets through the CSV loaders, the full
registry at seed 1 and offset 0. It is the only campaign with token widths
4 and 6 and with 40-token windows. ``tests/data/make_manifests.py``
regenerates both manifests.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

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
