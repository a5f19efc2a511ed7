"""Regenerate the sha256 manifests that pin every output byte of two campaigns.

    PYTHONPATH=src python tests/data/make_manifests.py

- ``pinned_campaign.json``: the pinned synthetic campaign (stress, cyclic
  and shell x seeds 1-3 x offsets -5%/0/+5% x the 25 registry modes),
  83 files.
- ``real_shape_campaign.json``: co2-, spx_vol- and IMS-shaped datasets,
  built through the CSV loaders from series that :func:`real_shape_csvs`
  draws from a fixed seed, full registry at seed 1 and offset 0.

Each manifest holds the numpy version it was made with, because the bytes
depend on numpy's summation order and SIMD paths; BLAS runs one thread
here and in Tier-1, because the bits of the Zeng baseline's wide Ridge
predictions depend on OpenBLAS's thread count. The Tier-1 tests compare
a fresh tree with the manifests through :func:`manifest_differences`, which
reports another numpy version as a difference of its own. A change that
moves a byte regenerates both manifests with this script and says which
files moved and why.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, as in Tier-1 (tests/conftest.py)

import numpy as np  # noqa: E402

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


def write_manifest(path, root) -> None:
    manifest = {"numpy": np.__version__, "files": tree_digests(root)}
    Path(path).write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


def manifest_differences(path, root) -> list[str]:
    """One line per way the tree under ``root`` differs from the manifest at
    ``path``: another numpy version, and each changed, missing or extra file."""
    manifest = json.loads(Path(path).read_text())
    pinned, found = manifest["files"], tree_digests(root)
    lines = []
    if manifest["numpy"] != np.__version__:
        lines.append(f"numpy {np.__version__} here, but {Path(path).name} was made with numpy "
                     f"{manifest['numpy']}: regenerate it with {Path(__file__).name}")
    for rel in sorted(pinned.keys() | found.keys()):
        if rel not in found:
            lines.append(f"{rel}: missing")
        elif rel not in pinned:
            lines.append(f"{rel}: not in the manifest")
        elif found[rel] != pinned[rel]:
            lines.append(f"{rel}: sha256 {found[rel]} differs from the pinned {pinned[rel]}")
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
    for path in (PINNED_MANIFEST, REAL_SHAPE_MANIFEST):
        count = len(json.loads(path.read_text())["files"])
        print(f"{path.name}: {count} files, numpy {np.__version__}")


if __name__ == "__main__":
    main()
