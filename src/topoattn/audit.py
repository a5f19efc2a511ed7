"""Paired empirical effect-size audit over the repeated seed/split grid.

Each (dataset, seed, split) cell contributes one paired unit: the
classical baseline's test RMSE against the validation-selected guarded
model's test RMSE. Summaries: improved/worsened/tied counts, mean
relative RMSE reduction with a bootstrap interval, paired d_z, and a
sign-flip randomization p-value (exact enumeration for small n).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import InvalidInput
from .protocol import _replace_file, _selected_cells, parse_results_csv, write_csv

#: Name of the audited architecture in audit_summary.csv.
ARCHITECTURE = "lightweight_attention_ridge"
#: Mode every paired unit compares the validation-selected mode against.
BASELINE_MODE = "classical"
TIE_BAND = 1e-12
BOOTSTRAP_B = 10000
SIGNFLIP_B = 100000
MAX_EXACT_N = 20


@dataclass(frozen=True)
class PairedUnit:
    dataset: str
    seed: int
    split_offset: float
    baseline_rmse: float
    guarded_rmse: float


@dataclass
class AuditSummary:
    architecture: str
    units: int
    improved: int
    worsened: int
    tied: int
    mean_relative_reduction: float
    ci_lo: float
    ci_hi: float
    d_z: float
    p_value: float


def is_tied(unit: PairedUnit) -> bool:
    return abs(unit.baseline_rmse - unit.guarded_rmse) <= TIE_BAND


def relative_reduction(unit: PairedUnit) -> float:
    """(baseline - guarded) / baseline; exact-tie units count as 0."""
    if is_tied(unit):
        return 0.0
    return (unit.baseline_rmse - unit.guarded_rmse) / max(unit.baseline_rmse, TIE_BAND)


def unit_counts(units) -> tuple[int, int, int]:
    improved = worsened = tied = 0
    for u in units:
        if is_tied(u):
            tied += 1
        elif u.guarded_rmse < u.baseline_rmse:
            improved += 1
        else:
            worsened += 1
    return improved, worsened, tied


def bootstrap_ci(units, seed: int = 0) -> tuple[float, float]:
    """Percentile 95% interval of the mean relative reduction over
    :data:`BOOTSTRAP_B` resamples of the units."""
    reductions = np.array([relative_reduction(u) for u in units], dtype=np.float64)
    n = len(reductions)
    if n == 0:
        raise InvalidInput("bootstrap needs at least one paired unit")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(BOOTSTRAP_B, n))
    means = reductions[idx].mean(axis=1)
    lo, hi = np.percentile(means, [2.5, 97.5])
    return float(lo), float(hi)


def effect_size_dz(improvements) -> float:
    """Paired effect size: mean improvement / sample std of improvements.

    ``improvements`` holds each unit's baseline minus guarded RMSE.
    Zero-variance improvement vectors return a signed infinity sentinel
    (0 when the improvements are identically zero) with a warning.
    """
    d = np.asarray(improvements, dtype=np.float64)
    if len(d) < 2:
        raise InvalidInput("d_z needs at least two paired units")
    sd = float(d.std(ddof=1))
    mean = float(d.mean())
    if sd < 1e-12:
        warnings.warn("zero-variance improvements; reporting infinite d_z sentinel")
        if mean == 0.0:
            return 0.0
        return float(np.sign(mean) * np.inf)
    return mean / sd


def signflip_p(improvements, max_exact_n: int = MAX_EXACT_N, n_resamples: int = SIGNFLIP_B, seed: int = 0) -> float:
    """Two-sided paired sign-flip randomization test on the mean signed improvement.

    All 2^n sign assignments are enumerated when n <= ``max_exact_n``;
    otherwise a seeded Monte Carlo with add-one smoothing keeps the
    p-value in (0, 1]. A 1e-12 relative slack on the comparison absorbs
    floating-point summation noise. ``improvements`` holds each unit's
    baseline minus guarded RMSE.
    """
    d = np.asarray(improvements, dtype=np.float64)
    n = len(d)
    if n == 0:
        raise InvalidInput("sign-flip test needs at least one paired unit")
    observed = float(d.mean())
    slack = 1e-12 * max(1.0, abs(observed))

    def exceeds(stats: np.ndarray) -> np.ndarray:
        return np.abs(stats) >= abs(observed) - slack

    if n <= max_exact_n:
        total = 1 << n
        count = 0
        bit_positions = np.arange(n, dtype=np.uint64)
        chunk = 1 << 16
        for start in range(0, total, chunk):
            masks = np.arange(start, min(start + chunk, total), dtype=np.uint64)
            signs = (((masks[:, None] >> bit_positions) & 1) * 2.0 - 1.0)
            stats = signs @ d / n
            count += int(exceeds(stats).sum())
        return count / total

    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(n_resamples, n)) * 2.0 - 1.0
    stats = signs @ d / n
    count = int(exceeds(stats).sum())
    return (1 + count) / (n_resamples + 1)


# ---------------------------------------------------------------------------
# pairing + reports


def pair_units(results) -> list[PairedUnit]:
    """One paired unit per (dataset, seed, offset): :data:`BASELINE_MODE` vs
    the validation-selected mode."""
    units: list[PairedUnit] = []
    for (ds, seed, offset), rows, chosen in _selected_cells(results):
        baseline = [r for r in rows if r.mode_id == BASELINE_MODE]
        if not baseline:
            raise InvalidInput(f"cell ({ds}, {seed}, {offset}) lacks the {BASELINE_MODE} baseline")
        units.append(
            PairedUnit(
                dataset=ds,
                seed=seed,
                split_offset=offset,
                baseline_rmse=baseline[0].test_rmse,
                guarded_rmse=chosen.test_rmse,
            )
        )
    return units


def audit_units(units) -> AuditSummary:
    improved, worsened, tied = unit_counts(units)
    reductions = np.array([relative_reduction(u) for u in units])
    improvements = np.array([u.baseline_rmse - u.guarded_rmse for u in units], dtype=np.float64)
    lo, hi = bootstrap_ci(units)
    return AuditSummary(
        architecture=ARCHITECTURE,
        units=len(units),
        improved=improved,
        worsened=worsened,
        tied=tied,
        mean_relative_reduction=float(reductions.mean()),
        ci_lo=lo,
        ci_hi=hi,
        d_z=effect_size_dz(improvements),
        p_value=signflip_p(improvements),
    )


def per_dataset_breakdown(units) -> list[dict]:
    by_ds: dict[str, list[PairedUnit]] = {}
    for u in units:
        by_ds.setdefault(u.dataset, []).append(u)
    rows = []
    for ds in sorted(by_ds):
        group = by_ds[ds]
        improved, worsened, tied = unit_counts(group)
        rows.append(
            {
                "dataset": ds,
                "units": len(group),
                "improved": improved,
                "worsened": worsened,
                "tied": tied,
                "baseline_rmse": float(np.mean([u.baseline_rmse for u in group])),
                "guarded_rmse": float(np.mean([u.guarded_rmse for u in group])),
                "mean_relative_reduction": float(np.mean([relative_reduction(u) for u in group])),
            }
        )
    return rows


def render_bar_svg(path, rows: list[dict]) -> None:
    """Static 640x360 baseline-vs-guarded RMSE bar chart, one dataset per group."""
    path = Path(path)
    width, height = 640, 360
    margin_left, margin_bottom, margin_top = 60, 60, 20
    plot_w = width - margin_left - 20
    plot_h = height - margin_top - margin_bottom
    max_val = max([max(r["baseline_rmse"], r["guarded_rmse"]) for r in rows] or [1.0])
    max_val = max(max_val, 1e-9)
    group_w = plot_w / max(len(rows), 1)
    bar_w = min(group_w * 0.35, 40.0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<style>text{font-family:sans-serif;font-size:11px}</style>',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin_left}" y1="{margin_top}" x2="{margin_left}" '
        f'y2="{margin_top + plot_h}" stroke="black"/>',
        f'<line x1="{margin_left}" y1="{margin_top + plot_h}" '
        f'x2="{margin_left + plot_w}" y2="{margin_top + plot_h}" stroke="black"/>',
        f'<text x="{margin_left}" y="{margin_top - 6}">test RMSE (mean over units); '
        f'baseline=gray, guarded=steelblue</text>',
    ]
    for tick in range(5):
        val = max_val * tick / 4
        y = margin_top + plot_h - plot_h * tick / 4
        parts.append(f'<line x1="{margin_left - 4}" y1="{y:.1f}" x2="{margin_left}" y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="4" y="{y + 4:.1f}">{val:.3g}</text>')
    for i, row in enumerate(rows):
        cx = margin_left + group_w * (i + 0.5)
        for j, (key, color) in enumerate([("baseline_rmse", "#999999"), ("guarded_rmse", "#4682b4")]):
            h = plot_h * row[key] / max_val
            x = cx - bar_w + j * bar_w
            y = margin_top + plot_h - h
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" height="{h:.1f}" fill="{color}"/>'
            )
        parts.append(
            f'<text x="{cx:.1f}" y="{margin_top + plot_h + 16}" text-anchor="middle">{row["dataset"]}</text>'
        )
    parts.append("</svg>")
    _replace_file(path, "\n".join(parts) + "\n")


def audit_results_dir(results_dir, out_dir=None):
    """Full audit of a campaign directory: summary CSVs, the paired units
    and the SVG chart, each replaced atomically. Returns (summary, breakdown)."""
    results_dir = Path(results_dir)
    results_path = results_dir / "results.csv"
    if not results_path.exists():
        raise InvalidInput(f"no results.csv under {results_dir}")
    rows = parse_results_csv(results_path)
    if not rows:
        raise InvalidInput(f"{results_path} contains no result rows")
    units = pair_units(rows)
    summary = audit_units(units)
    breakdown = per_dataset_breakdown(units)
    out_dir = Path(out_dir) if out_dir is not None else results_dir
    write_csv(out_dir / "audit_summary.csv", [f.name for f in fields(summary)], [astuple(summary)])
    write_csv(out_dir / "audit_by_dataset.csv", list(breakdown[0]), [row.values() for row in breakdown])
    render_bar_svg(out_dir / "audit_bars.svg", breakdown)
    _replace_file(out_dir / "paired_units.json", json.dumps([asdict(u) for u in units], indent=1) + "\n")
    return summary, breakdown
