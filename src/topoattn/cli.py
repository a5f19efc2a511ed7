"""Command-line interface: generate benchmark data, run campaigns, audit results.

Exit codes: 0 success, 1 runtime failure, 2 usage error. The worker count
for `run` comes from --workers or the config key `workers` (default 1).
`run` writes its outputs after each (dataset, offset) block, so a rerun
into the same --out resumes an interrupted campaign; the rows found there
keep their ledger, because each cell is calibrated for their modes too.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from .datasets import (
    SPLIT_OFFSETS,
    SYNTHETIC_GENERATORS,
    build_co2_windows,
    build_volatility_windows,
    export_dataset,
    load_ims_set,
    load_series_csv,
)
from .errors import TopoAttnError

IMS1_GROUPS = ((1, 2), (3, 4), (5, 6), (7, 8))
IMS2_GROUPS = ((1,), (2,), (3,), (4,))
#: Real dataset name -> (config key of its CSV, the CSV it needs, loader).
REAL_DATASETS = {
    "co2": ("co2_csv", "'timestamp,value', monthly values in chronological order",
            lambda path: build_co2_windows(load_series_csv(path))),
    "spx_vol": ("spx_csv", "'timestamp,value', daily index levels in chronological order",
                lambda path: build_volatility_windows(load_series_csv(path))),
    "ims1": ("ims1_csv", "'snapshot,channel,rms,std,kurt', channels 1-8",
             lambda path: load_ims_set(path, IMS1_GROUPS, name="ims1")),
    "ims2": ("ims2_csv", "'snapshot,channel,rms,std,kurt', channels 1-4",
             lambda path: load_ims_set(path, IMS2_GROUPS, name="ims2")),
}


def _comma_list(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


def _int_list(value: str) -> list[int]:
    return [int(v) for v in _comma_list(value)]


def _float_list(value: str) -> list[float]:
    return [float(v) for v in _comma_list(value)]


#: Parser of every config key that is not a plain string; the config file
#: and the `run` flags both go through it.
CONFIG_PARSERS = {
    "datasets": _comma_list,
    "modes": _comma_list,
    "seeds": _int_list,
    "offsets": _float_list,
    "dataset_seed": int,
    "workers": int,
}


@dataclass
class ExperimentConfig:
    """Campaign configuration; every field has a usable default.

    File format: one `key = value` per line, `#` comments, lists
    comma-separated. Flags override file values.
    """

    datasets: list[str] = field(default_factory=lambda: ["stress", "cyclic", "shell"])
    modes: list[str] = field(default_factory=list)  # empty = whole registry
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3])
    offsets: list[float] = field(default_factory=lambda: list(SPLIT_OFFSETS))
    out: str = "runs"
    dataset_seed: int | None = None  # None: regenerate synthetics per campaign seed
    workers: int | None = None
    co2_csv: str = ""
    spx_csv: str = ""
    ims1_csv: str = ""
    ims2_csv: str = ""

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        cfg = cls()
        for line_num, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_num}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in {f.name for f in fields(cls)}:
                raise ValueError(f"{path}:{line_num}: unknown config key {key!r}")
            try:
                setattr(cfg, key, CONFIG_PARSERS.get(key, str)(value))
            except ValueError as exc:
                raise ValueError(f"{path}:{line_num}: bad value for {key!r}: {exc}") from None
        return cfg


def _build_datasets(cfg: ExperimentConfig) -> list:
    """Synthetic datasets as builders (or pinned by dataset_seed), real ones loaded."""
    out: list = []
    for name in cfg.datasets:
        if name in SYNTHETIC_GENERATORS:
            builder = SYNTHETIC_GENERATORS[name]
            out.append(builder if cfg.dataset_seed is None else builder(cfg.dataset_seed))
        elif name in REAL_DATASETS:
            key, needs, load = REAL_DATASETS[name]
            path = getattr(cfg, key)
            if not path:
                raise TopoAttnError(f"dataset {name} needs {key}=<path> (CSV with header {needs})")
            out.append(load(path))
        else:
            known = sorted(list(SYNTHETIC_GENERATORS) + list(REAL_DATASETS))
            raise _UsageError(f"unknown dataset {name!r}; known datasets: {', '.join(known)}")
    return out


class _UsageError(Exception):
    pass


def cmd_generate(args) -> int:
    if args.dataset not in SYNTHETIC_GENERATORS:
        known = ", ".join(sorted(SYNTHETIC_GENERATORS))
        raise _UsageError(f"unknown dataset {args.dataset!r}; synthetic datasets: {known}")
    ds = SYNTHETIC_GENERATORS[args.dataset](args.seed)
    manifest = export_dataset(ds, args.out, seed=args.seed)
    print(f"wrote {ds.name} {manifest['shape']} to {args.out}")
    return 0


def cmd_run(args) -> int:
    from .protocol import MODE_ORDER, parse_results_csv, run_campaign

    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name, None)  # the *_csv keys have no flag
        if value not in (None, "", []):  # an empty flag keeps the file's value
            setattr(cfg, f.name, value)

    unknown_modes = [m for m in cfg.modes if m not in MODE_ORDER]
    if unknown_modes:
        raise _UsageError(f"unknown modes {unknown_modes}; known: {', '.join(MODE_ORDER)}")
    datasets = _build_datasets(cfg)

    out_dir = Path(cfg.out)
    existing = None
    results_path = out_dir / "results.csv"
    if results_path.exists():
        existing = parse_results_csv(results_path)
        print(f"resuming: {len(existing)} completed rows found in {results_path}")
    results, _ledgers = run_campaign(
        datasets,
        seeds=cfg.seeds,
        offsets=cfg.offsets,
        mode_ids=cfg.modes or None,
        out_dir=out_dir,
        n_workers=cfg.workers,
        existing=existing,
    )
    print(f"campaign complete: {len(results)} result rows in {results_path}")
    return 0


def cmd_audit(args) -> int:
    from .audit import audit_results_dir

    results_dir = Path(args.results)
    if not (results_dir / "results.csv").exists():
        raise _UsageError(f"no results.csv under {results_dir}")
    summary, breakdown = audit_results_dir(results_dir, out_dir=args.out or results_dir)
    print(
        f"{summary.architecture}: {summary.units} units, "
        f"{summary.improved}/{summary.worsened}/{summary.tied} improved/worsened/tied, "
        f"mean relative reduction {summary.mean_relative_reduction:.1%}, "
        f"95% CI [{summary.ci_lo:.1%}, {summary.ci_hi:.1%}], "
        f"d_z {summary.d_z:.3f}, randomization p {summary.p_value:.2e}"
    )
    for row in breakdown:
        print(
            f"  {row['dataset']}: baseline {row['baseline_rmse']:.4f} -> "
            f"guarded {row['guarded_rmse']:.4f} ({row['mean_relative_reduction']:.1%})"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topoattn",
        description="Topology-aware attention forecasting: data generation, campaigns, audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset to CSV + manifest")
    gen.add_argument("dataset", help=f"one of: {', '.join(sorted(SYNTHETIC_GENERATORS))}")
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--out", default="data")
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="run the no-leakage campaign grid")
    run.add_argument("--config", default="", help="key = value config file")
    run.add_argument("--datasets", type=CONFIG_PARSERS["datasets"], help="comma list (default: stress,cyclic,shell)")
    run.add_argument("--modes", type=CONFIG_PARSERS["modes"], help="comma list of registry mode ids (default: all)")
    run.add_argument("--seeds", type=CONFIG_PARSERS["seeds"], help="comma list (default: 1,2,3)")
    run.add_argument("--offsets", type=CONFIG_PARSERS["offsets"], help="comma list (default: -0.05,0,0.05)")
    run.add_argument("--out", help="output directory (default: runs)")
    run.add_argument("--workers", type=CONFIG_PARSERS["workers"], help="worker pool size (default: 1)")
    run.add_argument(
        "--dataset-seed", type=CONFIG_PARSERS["dataset_seed"],
        help="fix synthetic data to this generator seed (default: regenerate per campaign seed)",
    )
    run.set_defaults(func=cmd_run)

    audit = sub.add_parser("audit", help="paired effect-size audit of a campaign directory")
    audit.add_argument("--results", required=True, help="directory containing results.csv")
    audit.add_argument("--out", default="", help="output directory (default: --results)")
    audit.set_defaults(func=cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TopoAttnError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
