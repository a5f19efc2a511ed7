"""Regenerate the sha256 manifests that pin every output byte of two campaigns.

    PYTHONPATH=src python tests/data/make_manifests.py

- ``pinned_campaign.json``: the pinned synthetic campaign (stress, cyclic
  and shell x seeds 1-3 x offsets -5%/0/+5% x the 25 registry modes),
  83 files.
- ``real_shape_campaign.json``: co2-, spx_vol- and IMS-shaped datasets,
  built through the CSV loaders from series that :func:`real_shape_csvs`
  draws from a fixed seed, full registry at seed 1 and offset 0.
- ``real_shape_values/``: that campaign's ``results.csv`` and
  ``selected.csv`` as written, the values a run at another SIMD dispatch
  level is compared with, within :data:`VALUE_RTOL` (:func:`value_differences`).

Each manifest holds the numpy version and the SIMD dispatch set
(:func:`dispatch`) it was made with, because the bytes depend on numpy's
summation order and SIMD paths: with its AVX-512 kernels off, numpy moves
every file of the real-shape campaign by a few ulps. BLAS runs one thread
here and in Tier-1, because the bits of the Zeng baseline's wide Ridge
predictions depend on OpenBLAS's thread count. The Tier-1 tests compare a
fresh tree with the manifests through :func:`manifest_differences`, which
reports another numpy version or another dispatch set as a difference of
its own. A change that moves a byte regenerates both manifests and the
values with this script and says which files moved and why.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, as in Tier-1 (tests/conftest.py)

import numpy as np  # noqa: E402
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__  # noqa: E402

from topoattn.datasets import (  # noqa: E402
    SPLIT_OFFSETS,
    build_co2_windows,
    build_volatility_windows,
    gen_cyclic_h1,
    gen_higher_topology,
    gen_shell_h2,
    load_ims_set,
    load_series_csv,
)
from topoattn.protocol import run_campaign  # noqa: E402

HERE = Path(__file__).resolve().parent
PINNED_MANIFEST = HERE / "pinned_campaign.json"
REAL_SHAPE_MANIFEST = HERE / "real_shape_campaign.json"
REAL_SHAPE_VALUES = HERE / "real_shape_values"
#: the files checked in as values, each with the columns that key its rows
VALUE_FILES = {"results.csv": ("dataset", "mode", "seed", "split_offset"),
               "selected.csv": ("dataset", "seed", "split_offset")}
#: relative tolerance of every value a run at another dispatch level writes
VALUE_RTOL = 1e-9
PINNED_SOURCES = (gen_higher_topology, gen_cyclic_h1, gen_shell_h2)  # as the acceptance fixture runs them
PINNED_SEEDS = (1, 2, 3)
REAL_SHAPE_SEED = 20260  # draws the three real-shape series
#: files the audit writes beside a campaign's outputs; no manifest pins them
AUDIT_FILES = ("audit_summary.csv", "audit_by_dataset.csv", "audit_bars.svg", "paired_units.json")


def _write_rows(path: Path, header, rows) -> Path:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)
    return path


def real_shape_csvs(csv_dir) -> dict[str, Path]:
    """Write the three real-shape series as loader CSVs into ``csv_dir``:
    200 monthly CO2 values, 260 daily prices and 200 IMS snapshots of one
    channel."""
    csv_dir = Path(csv_dir)
    rng = np.random.default_rng(REAL_SHAPE_SEED)
    months = np.arange(200)
    co2 = 315.0 + 0.12 * months + 3.0 * np.sin(2 * np.pi * months / 12.0) + rng.normal(0.0, 0.3, 200)
    days = np.arange(260)
    daily_sd = 0.01 * (1.0 + 0.6 * np.sin(2 * np.pi * days / 90.0) ** 2)
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, daily_sd)))
    snaps = np.arange(200)
    wear = np.linspace(0.0, 1.0, 200) ** 2
    ims = np.stack([
        1.0 + wear + rng.normal(0.0, 0.05, 200),
        0.5 + 0.6 * wear + rng.normal(0.0, 0.05, 200),
        3.0 + 0.8 * wear + rng.normal(0.0, 0.1, 200),
    ], axis=1)
    return {
        "co2": _write_rows(csv_dir / "co2.csv", ("timestamp", "value"), zip(months.tolist(), co2.tolist())),
        "prices": _write_rows(csv_dir / "prices.csv", ("timestamp", "value"), zip(days.tolist(), prices.tolist())),
        "ims": _write_rows(
            csv_dir / "ims.csv", ("snapshot", "channel", "rms", "std", "kurt"),
            ((s, 1, *row) for s, row in zip(snaps.tolist(), ims.tolist())),
        ),
    }


def real_shape_datasets(csv_dir) -> list:
    """co2 (170, 30, 3), spx_vol (215, 40, 6) and ims (176, 24, 4) windows,
    each through its CSV loader."""
    paths = real_shape_csvs(csv_dir)
    return [
        build_co2_windows(load_series_csv(paths["co2"])),
        build_volatility_windows(load_series_csv(paths["prices"])),
        load_ims_set(paths["ims"], [(1,)]),
    ]


def run_real_shape_campaign(out_dir, csv_dir):
    return run_campaign(real_shape_datasets(csv_dir), seeds=(1,), offsets=(0.0,), out_dir=out_dir)


def tree_digests(root) -> dict[str, str]:
    """sha256 of every campaign file under ``root``, by POSIX relative path."""
    root = Path(root)
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name not in AUDIT_FILES
    }


def dispatch() -> list[str]:
    """The SIMD feature groups numpy dispatches kernels to on this host: the
    entries of its dispatch list that the CPU supports and that
    ``NPY_DISABLE_CPU_FEATURES`` did not turn off, in numpy's order."""
    return [feature for feature in __cpu_dispatch__ if __cpu_features__.get(feature)]


def write_manifest(path, root) -> None:
    manifest = {"numpy": np.__version__, "dispatch": dispatch(), "files": tree_digests(root)}
    Path(path).write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


def manifest_differences(path, root) -> list[str]:
    """One line per way the tree under ``root`` differs from the manifest at
    ``path``: another numpy version, another SIMD dispatch set, and each
    changed, missing or extra file."""
    manifest = json.loads(Path(path).read_text())
    pinned, found = manifest["files"], tree_digests(root)
    lines = []
    if manifest["numpy"] != np.__version__:
        lines.append(f"numpy {np.__version__} here, but {Path(path).name} was made with numpy "
                     f"{manifest['numpy']}: regenerate it with {Path(__file__).name}")
    if manifest["dispatch"] != dispatch():
        lines.append(f"SIMD dispatch {' '.join(dispatch()) or 'none'} here, but {Path(path).name} was "
                     f"made with {' '.join(manifest['dispatch']) or 'none'}: the bytes hold on one "
                     f"dispatch level; compare values with value_differences")
    for rel in sorted(pinned.keys() | found.keys()):
        if rel not in found:
            lines.append(f"{rel}: missing")
        elif rel not in pinned:
            lines.append(f"{rel}: not in the manifest")
        elif found[rel] != pinned[rel]:
            lines.append(f"{rel}: sha256 {found[rel]} differs from the pinned {pinned[rel]}")
    return lines


def _rows(path, key_columns) -> dict[tuple, dict]:
    with Path(path).open(newline="") as fh:
        return {tuple(row[c] for c in key_columns): row for row in csv.DictReader(fh)}


def _numbers(cell: str) -> dict:
    """A results cell of numbers by name: a JSON object of floats (the
    strengths), one float under "", or nothing for an empty cell."""
    if cell.startswith("{"):
        return json.loads(cell)
    return {"": float(cell)} if cell else {}


def _moved(pinned: str, found: str) -> bool:
    """Whether two cells of numbers name other numbers, or one that moved
    by more than :data:`VALUE_RTOL`, relative."""
    a, b = _numbers(pinned), _numbers(found)
    return a.keys() != b.keys() or any(
        not math.isclose(a[k], b[k], rel_tol=VALUE_RTOL, abs_tol=0.0) for k in a
    )


def value_differences(values_dir, root) -> list[str]:
    """One line per way the ``results.csv`` and ``selected.csv`` under
    ``root`` differ from the ones in ``values_dir`` as values: a missing or
    extra row, another selected mode, and each number that moved by more
    than :data:`VALUE_RTOL`, relative. Ledger hashes are not compared: the
    ledgers' bytes move with the dispatch level."""
    lines = []
    for name, key_columns in VALUE_FILES.items():
        pinned, found = _rows(Path(values_dir) / name, key_columns), _rows(Path(root) / name, key_columns)
        for key in sorted(pinned.keys() | found.keys()):
            if key not in found or key not in pinned:
                lines.append(f"{name} {key}: {'missing' if key not in found else 'not in the values'}")
                continue
            for column, value in pinned[key].items():
                if column in key_columns or column == "ledger_hash":
                    continue
                moved = (value != found[key][column] if column == "selected_mode"
                         else _moved(value, found[key][column]))
                if moved:
                    lines.append(f"{name} {key} {column}: {found[key][column]} against the pinned {value}")
    return lines


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        # two workers: the pinned campaign's blocks write the same bytes in a pool
        run_campaign(list(PINNED_SOURCES), seeds=PINNED_SEEDS, offsets=SPLIT_OFFSETS,
                     out_dir=tmp / "pinned", n_workers=2)
        write_manifest(PINNED_MANIFEST, tmp / "pinned")
        (tmp / "csv").mkdir()
        run_real_shape_campaign(tmp / "real_shape", tmp / "csv")
        write_manifest(REAL_SHAPE_MANIFEST, tmp / "real_shape")
        REAL_SHAPE_VALUES.mkdir(exist_ok=True)
        for name in VALUE_FILES:
            shutil.copyfile(tmp / "real_shape" / name, REAL_SHAPE_VALUES / name)
    for path in (PINNED_MANIFEST, REAL_SHAPE_MANIFEST):
        count = len(json.loads(path.read_text())["files"])
        print(f"{path.name}: {count} files, numpy {np.__version__}, dispatch {' '.join(dispatch())}")


if __name__ == "__main__":
    main()
