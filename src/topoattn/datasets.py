"""Benchmark construction: synthetic generators, real-series ingestion,
windowing, chronological splits, and train-only scaling.

All generators are deterministic functions of their seed. Real loaders
build targets strictly from indices after each window's last input index.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DatasetSkipped, InvalidInput

#: Chronological train/validation/test fractions; an offset shifts both boundaries.
SPLIT_FRACTIONS = (0.70, 0.15, 0.15)
SPLIT_OFFSETS = (-0.05, 0.0, 0.05)
#: Real-series windows: CO2 months; volatility days, target horizon days and
#: trailing-statistics days; IMS snapshots.
CO2_WINDOW = 30
VOL_WINDOW, VOL_HORIZON, VOL_ROLL = 40, 5, 5
IMS_WINDOW = 24
#: Share of a bearing's windows whose snapshots fit its IMS z-scores: the
#: training prefix that every split offset shares,
#: SPLIT_FRACTIONS[0] + min(SPLIT_OFFSETS).
IMS_FIT_FRACTION = 0.65
HI_WEIGHTS = (0.55, 0.25, 0.20)  # RMS, STD, KURT
HI_MEDIAN_WINDOW = 5
HI_ROLLING_WINDOW = 7


@dataclass
class WindowedDataset:
    """W windows of N tokens x p features plus one target per window."""

    name: str
    windows: np.ndarray
    targets: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        self.windows = np.asarray(self.windows, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.windows.ndim != 3:
            raise InvalidInput(f"windows must be W x N x p, got shape {self.windows.shape}")
        if len(self.targets) != len(self.windows):
            raise InvalidInput("one target per window required")
        for label, values in (("windows", self.windows), ("targets", self.targets)):
            bad = np.argwhere(~np.isfinite(values))
            if len(bad):
                raise InvalidInput(f"{self.name}: {label}{bad[0].tolist()} is not finite")

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(self.windows.shape)


@dataclass
class ScalerState:
    """Per-feature mean/std fitted on training windows only."""

    mean: np.ndarray
    std: np.ndarray


# ---------------------------------------------------------------------------
# synthetic generators


def gen_higher_topology(
    seed: int,
    n_windows: int = 300,
    n_tokens: int = 32,
    noise: float = 0.05,
    label_noise: float = 0.05,
) -> WindowedDataset:
    """Higher-topology stress test: coherent loops vs marginal-matched scrambles.

    Positive windows sample a unit circle; negative windows independently
    permute the second coordinate, destroying the loop while preserving
    coordinate marginals. All windows are randomly rotated, centered,
    standardized coordinate-wise, noise-perturbed and token-permuted. The
    target is the loop-class indicator plus Gaussian label noise.
    """
    rng = np.random.default_rng(np.random.SeedSequence([101, seed]))
    labels = np.zeros(n_windows)
    labels[: n_windows // 2] = 1.0
    rng.shuffle(labels)
    windows = np.empty((n_windows, n_tokens, 2))
    for w in range(n_windows):
        theta = rng.uniform(0.0, 2.0 * np.pi, n_tokens)
        x = np.cos(theta)
        y = np.sin(theta)
        if labels[w] == 0.0:
            y = y[rng.permutation(n_tokens)]
        pts = np.stack([x, y], axis=1)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        pts = pts @ rot.T
        pts -= pts.mean(axis=0)
        pts /= np.maximum(pts.std(axis=0), 1e-8)
        pts += rng.normal(0.0, noise, pts.shape)
        windows[w] = pts[rng.permutation(n_tokens)]
    targets = labels + rng.normal(0.0, label_noise, n_windows)
    return WindowedDataset("stress", windows, targets, provenance=f"synthetic(seed={seed})")


def gen_cyclic_h1(seed: int, n_windows: int = 260, n_tokens: int = 24, noise: float = 0.05) -> WindowedDataset:
    """Cyclic benchmark: epicyclic sinusoidal trajectories.

    Each window superimposes a slow primary circle (the forecast target's
    component) and a faster small epicycle with its own randomized
    amplitude, frequency and phase, plus a weak auxiliary channel and
    Gaussian coordinate noise. The target is the next value of the primary
    sinusoidal component only, so the fast interferer contaminates raw
    last-value features while local window geometry still determines the
    primary state.
    """
    rng = np.random.default_rng(np.random.SeedSequence([102, seed]))
    windows = np.empty((n_windows, n_tokens, 3))
    targets = np.empty(n_windows)
    t = np.arange(n_tokens, dtype=np.float64)
    for w in range(n_windows):
        amp = rng.uniform(0.5, 1.5)
        freq = rng.uniform(0.25, 0.45)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        phase_aux = rng.uniform(0.0, 2.0 * np.pi)
        epi_amp = amp * rng.uniform(0.3, 0.6)
        epi_freq = rng.uniform(2.2, 2.9)
        epi_phase = rng.uniform(0.0, 2.0 * np.pi)
        eps = rng.normal(0.0, noise, (n_tokens, 3))
        windows[w, :, 0] = amp * np.sin(freq * t + phase) + epi_amp * np.sin(epi_freq * t + epi_phase) + eps[:, 0]
        windows[w, :, 1] = amp * np.cos(freq * t + phase) + epi_amp * np.cos(epi_freq * t + epi_phase) + eps[:, 1]
        windows[w, :, 2] = 0.15 * amp * np.sin(0.5 * freq * t + phase_aux) + eps[:, 2]
        targets[w] = amp * np.sin(freq * n_tokens + phase)
    return WindowedDataset("cyclic", windows, targets, provenance=f"synthetic(seed={seed})")


def gen_shell_h2(seed: int, n_windows: int = 260, n_tokens: int = 24, noise: float = 0.05) -> WindowedDataset:
    """Shell/void benchmark: noisy unit shells vs radially contracted balls."""
    rng = np.random.default_rng(np.random.SeedSequence([103, seed]))
    windows = np.empty((n_windows, n_tokens, 3))
    targets = np.empty(n_windows)
    for w in range(n_windows):
        is_shell = rng.random() < 0.5
        dirs = rng.normal(size=(n_tokens, 3))
        norms = np.linalg.norm(dirs, axis=1, keepdims=True)
        norms[norms < 1e-12] = 1.0
        dirs /= norms
        if is_shell:
            radii = np.ones(n_tokens)
        else:
            radii = rng.uniform(0.0, 1.0, n_tokens) ** (1.0 / 3.0)
        pts = dirs * radii[:, None] + rng.normal(0.0, noise, (n_tokens, 3))
        windows[w] = pts
        targets[w] = 1.0 if is_shell else 0.0
    return WindowedDataset("shell", windows, targets, provenance=f"synthetic(seed={seed})")


SYNTHETIC_GENERATORS = {
    "stress": gen_higher_topology,
    "cyclic": gen_cyclic_h1,
    "shell": gen_shell_h2,
}


# ---------------------------------------------------------------------------
# real-series ingestion


def load_series_csv(path) -> np.ndarray:
    """Parse a timestamp,value CSV; reject unsorted or non-numeric rows.

    Timestamps may be numeric or sortable strings (ISO dates). Errors name
    the offending 1-based data row.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise InvalidInput(f"{path}: empty file")
        ts_col, val_col = "timestamp", "value"
        for col in (ts_col, val_col):
            if col not in reader.fieldnames:
                raise InvalidInput(f"{path}: missing required column '{col}' (found {reader.fieldnames})")
        timestamps: list = []
        values: list[float] = []
        for row_num, row in enumerate(reader, start=1):
            raw_ts = row[ts_col]
            try:
                ts = float(raw_ts)
            except (TypeError, ValueError):
                ts = raw_ts
            else:
                if not np.isfinite(ts):
                    raise InvalidInput(f"{path}: row {row_num}: timestamp '{raw_ts}' is not finite")
            try:
                val = float(row[val_col])
            except (TypeError, ValueError):
                raise InvalidInput(f"{path}: row {row_num}: value '{row[val_col]}' is not numeric")
            if not np.isfinite(val):
                raise InvalidInput(f"{path}: row {row_num}: value is not finite")
            if timestamps and type(ts) is not type(timestamps[-1]):
                raise InvalidInput(f"{path}: row {row_num}: mixed timestamp types")
            if timestamps and ts <= timestamps[-1]:
                raise InvalidInput(f"{path}: row {row_num}: timestamp out of order")
            timestamps.append(ts)
            values.append(val)
    return np.asarray(values, dtype=np.float64)


def build_co2_windows(series) -> WindowedDataset:
    """Monthly-value windows with seasonal sine/cosine coordinates.

    Token j of the window starting at month s carries
    [value, sin(2 pi (s+j)/12), cos(2 pi (s+j)/12)]; the target is the
    value at month s + CO2_WINDOW.
    """
    window = CO2_WINDOW
    series = np.asarray(series, dtype=np.float64)
    n = len(series)
    if n <= window:
        raise InvalidInput(f"series of length {n} too short for {window}-month windows")
    months = np.arange(n)
    tokens = np.stack([series, np.sin(2 * np.pi * months / 12.0), np.cos(2 * np.pi * months / 12.0)], axis=1)
    windows = _rolling_windows(tokens, window, n - window)
    return WindowedDataset("co2", windows, series[window:].copy(), provenance="csv")


def build_volatility_windows(prices) -> WindowedDataset:
    """Return-derived feature windows and VOL_HORIZON-day-ahead annualized volatility.

    Windows span VOL_WINDOW days. Features per day: return, |return|, and
    trailing rolling mean/std/min/max of the returns (VOL_ROLL days,
    warm-up partial). The target ends strictly after the window:
    Y = sqrt(mean of the next VOL_HORIZON squared returns * 252).
    """
    window, horizon, roll = VOL_WINDOW, VOL_HORIZON, VOL_ROLL
    prices = np.asarray(prices, dtype=np.float64)
    if np.any(prices <= 0.0):
        raise InvalidInput("prices must be strictly positive for log returns")
    returns = np.diff(np.log(prices))
    n = len(returns)
    if n < window + horizon:
        raise InvalidInput(f"{n} returns too short for window {window} + horizon {horizon}")
    feats = np.empty((n, 6))
    feats[:, 0] = returns
    feats[:, 1] = np.abs(returns)
    for t in range(n):
        lo = max(0, t - roll + 1)
        seg = returns[lo : t + 1]
        feats[t, 2] = seg.mean()
        feats[t, 3] = seg.std()
        feats[t, 4] = seg.min()
        feats[t, 5] = seg.max()
    n_windows = n - horizon - window + 1
    windows = _rolling_windows(feats, window, n_windows)
    future = _rolling_windows(returns[window:] ** 2, horizon, n_windows)
    targets = np.sqrt(np.mean(future, axis=-1) * 252.0)
    return WindowedDataset("spx_vol", windows, targets, provenance="csv")


def _rolling_windows(tokens: np.ndarray, window: int, n_windows: int) -> np.ndarray:
    """Windows ``tokens[k : k + window]`` for ``k < n_windows``, stacked on a
    new axis 0, as a C-contiguous copy: a strided view would change how
    later reductions over the windows run."""
    view = np.moveaxis(sliding_window_view(tokens, window, axis=0), -1, 1)
    return np.ascontiguousarray(view[:n_windows])


def _trailing_median(x: np.ndarray, window: int) -> np.ndarray:
    out = np.empty_like(x)
    for i in range(len(x)):
        out[i] = np.median(x[max(0, i - window + 1) : i + 1])
    return out


def _trailing_mean(x: np.ndarray, window: int) -> np.ndarray:
    out = np.empty_like(x)
    csum = np.concatenate([[0.0], np.cumsum(x)])
    for i in range(len(x)):
        lo = max(0, i - window + 1)
        out[i] = (csum[i + 1] - csum[lo]) / (i + 1 - lo)
    return out


def ims_health_indicator(rms: np.ndarray, std: np.ndarray, kurt: np.ndarray, name: str = "ims_bearing") -> WindowedDataset:
    """IMS_WINDOW-snapshot windows and next-snapshot targets of one bearing.

    The RMS, STD and KURT z-scores are fitted on the snapshots of the first
    floor(IMS_FIT_FRACTION * W) windows and their targets (the first
    IMS_WINDOW + floor(IMS_FIT_FRACTION * W) snapshots, W = n - IMS_WINDOW),
    the training prefix of every split offset, and applied to all. The
    health indicator weighs their channel averages by HI_WEIGHTS, takes the
    trailing median over HI_MEDIAN_WINDOW and the trailing mean over
    HI_ROLLING_WINDOW snapshots, and gets a nonnegative trend via the
    cumulative max of the positive part. So no token or target reads a
    later snapshot, and no window or target inside the prefix reads one
    after it. Raises :class:`DatasetSkipped` when the target variance is
    below 1e-6 (near-degenerate bearing).
    """
    rms = np.atleast_2d(np.asarray(rms, dtype=np.float64).T).T
    std = np.atleast_2d(np.asarray(std, dtype=np.float64).T).T
    kurt = np.atleast_2d(np.asarray(kurt, dtype=np.float64).T).T
    n = len(rms)
    window = IMS_WINDOW
    if n <= window:
        raise DatasetSkipped(f"{name}: only {n} snapshots for window {window}")
    fit = window + int(IMS_FIT_FRACTION * (n - window))
    z_rms, z_std, z_kurt = (apply_scaler(fit_scaler(x[:fit]), x) for x in (rms, std, kurt))
    hi = (
        HI_WEIGHTS[0] * z_rms.mean(axis=1)
        + HI_WEIGHTS[1] * z_std.mean(axis=1)
        + HI_WEIGHTS[2] * z_kurt.mean(axis=1)
    )
    hi = _trailing_median(hi, HI_MEDIAN_WINDOW)
    hi = _trailing_mean(hi, HI_ROLLING_WINDOW)
    hi = np.maximum.accumulate(np.maximum(hi, 0.0))

    tokens = np.concatenate([hi[:, None], z_rms, z_std, z_kurt], axis=1)
    windows = _rolling_windows(tokens, window, n - window)
    targets = hi[window:].copy()
    var = float(np.var(targets))
    if var < 1e-6:
        raise DatasetSkipped(f"{name}: target variance {var:.3e} below 1e-6, RMSE comparison misleading")
    return WindowedDataset(name, windows, targets, provenance="csv")


def load_ims_set(path, groups, name: str = "ims") -> WindowedDataset:
    """Build one IMS set from a snapshot,channel,rms,std,kurt feature CSV.

    ``groups`` lists the channel tuples forming each bearing. Windows from
    the surviving groups are interleaved in snapshot-time order so the
    chronological split respects the shared recording clock; degenerate
    groups are skipped (all degenerate raises :class:`DatasetSkipped`).
    """
    path = Path(path)
    table: dict[int, dict[int, tuple[float, float, float]]] = {}
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        required = ("snapshot", "channel", "rms", "std", "kurt")
        if reader.fieldnames is None or any(c not in reader.fieldnames for c in required):
            raise InvalidInput(f"{path}: expected columns {required}, found {reader.fieldnames}")
        for row_num, row in enumerate(reader, start=1):
            try:
                snap = int(row["snapshot"])
                chan = int(row["channel"])
                vals = (float(row["rms"]), float(row["std"]), float(row["kurt"]))
            except (TypeError, ValueError):
                raise InvalidInput(f"{path}: row {row_num}: non-numeric entry")
            if not np.all(np.isfinite(vals)):
                raise InvalidInput(f"{path}: row {row_num}: rms/std/kurt are not all finite")
            if chan in table.setdefault(snap, {}):
                raise InvalidInput(f"{path}: row {row_num}: snapshot {snap} has a second row for channel {chan}")
            table[snap][chan] = vals
    snaps = sorted(table)
    for s in snaps:
        missing = [c for chans in groups for c in chans if c not in table[s]]
        if missing:
            raise InvalidInput(f"{path}: snapshot {s} has no row for channel {missing[0]}")
    per_group: list[WindowedDataset] = []
    skips: list[str] = []
    for gi, chans in enumerate(groups):
        rms = np.array([[table[s][c][0] for c in chans] for s in snaps])
        stdv = np.array([[table[s][c][1] for c in chans] for s in snaps])
        kurt = np.array([[table[s][c][2] for c in chans] for s in snaps])
        try:
            per_group.append(ims_health_indicator(rms, stdv, kurt, name=f"{name}_b{gi + 1}"))
        except DatasetSkipped as exc:
            skips.append(str(exc))
    if not per_group:
        raise DatasetSkipped(f"{name}: all bearing groups degenerate: {'; '.join(skips)}")
    n_windows = min(len(g.targets) for g in per_group)
    windows = np.stack([g.windows[:n_windows] for g in per_group], axis=1)
    targets = np.stack([g.targets[:n_windows] for g in per_group], axis=1)
    windows = windows.reshape(-1, *per_group[0].windows.shape[1:])
    targets = targets.reshape(-1)
    return WindowedDataset(name, windows, targets, provenance=f"csv({path.name})")


# ---------------------------------------------------------------------------
# splitting and scaling


def chronological_split(n: int, offset: float):
    """Contiguous ordered (train, val, test) index ranges of ``n`` windows:
    :data:`SPLIT_FRACTIONS`, both boundaries shifted by ``offset * n``."""
    shift = int(round(offset * n))
    train_end = int(round(SPLIT_FRACTIONS[0] * n)) + shift
    val_end = int(round((SPLIT_FRACTIONS[0] + SPLIT_FRACTIONS[1]) * n)) + shift
    if not 0 < train_end < val_end < n:
        raise InvalidInput(f"split boundaries ({train_end}, {val_end}) invalid for {n} windows")
    return range(0, train_end), range(train_end, val_end), range(val_end, n)


def fit_scaler(train_windows: np.ndarray) -> ScalerState:
    """Per-feature standardization statistics from training windows only."""
    # C order first: the column sums run in memory order, so another layout
    # of the same values would give other bits
    pooled = np.ascontiguousarray(train_windows, dtype=np.float64).reshape(-1, train_windows.shape[-1])
    return ScalerState(mean=pooled.mean(axis=0), std=np.maximum(pooled.std(axis=0), 1e-8))


def apply_scaler(state: ScalerState, windows: np.ndarray) -> np.ndarray:
    """Apply fitted statistics; never refits."""
    return (np.asarray(windows, dtype=np.float64) - state.mean) / state.std


# ---------------------------------------------------------------------------
# export


def export_dataset(ds: WindowedDataset, out_dir, seed: int | None = None) -> dict:
    """Write windows/targets CSVs plus a JSON manifest; returns the manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    w, n, p = ds.shape
    win_path = out_dir / f"{ds.name}_windows.csv"
    with win_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window", "token"] + [f"f{j}" for j in range(p)])
        for wi in range(w):
            for ti in range(n):
                writer.writerow([wi, ti] + [repr(float(v)) for v in ds.windows[wi, ti]])
    tgt_path = out_dir / f"{ds.name}_targets.csv"
    with tgt_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window", "target"])
        for wi in range(w):
            writer.writerow([wi, repr(float(ds.targets[wi]))])
    manifest = {
        "name": ds.name,
        "shape": [w, n, p],
        "n_targets": w,
        "provenance": ds.provenance,
    }
    if seed is not None:
        manifest["seed"] = seed
    with (out_dir / f"{ds.name}_manifest.json").open("w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
