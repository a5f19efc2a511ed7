"""No-leakage experiment orchestration.

Calibrations (scalers, AET parameters, kernel scales, local projections)
are fit on training windows only and frozen into a hashed ledger before
any validation or test evaluation. Hyperparameters (ridge penalty,
topology strengths, blend weights) are selected on the validation split;
the test split enters metric computation only. The fit path never
receives test targets.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .attention import (
    STRENGTH_GRID,
    TopologyMode,
    attention_logits_batch,
    forward_features,
    init_attention_params,
    ridge_fit,
    ridge_predict,
    train_temperatures,
)
# kept only so that bench/tracer.py can wrap protocol.biased_logits,
# protocol.row_softmax and protocol.attention_feature_matrix
from .attention import attention_feature_matrix, biased_logits, row_softmax  # noqa: F401
from .datasets import (
    SPLIT_OFFSETS,
    ScalerState,
    SplitSpec,
    WindowedDataset,
    apply_scaler,
    chronological_split,
    fit_scaler,
)
from .errors import CalibrationMissing, InvalidInput, TopoAttnError
from .geometry import KernelSpec, pairwise_euclidean
from .local_residual import (
    LocalProjection,
    assemble_local_features,
    build_cover,
    contrast_features,
    fit_local_head,
    fit_local_projection,
    guarded_blend,
    local_block_tensor,
    local_representation_matrix,
    zeng_features,
)
from .topo_bias import AetParams, CHANNELS, EUCLIDEAN_CHANNELS, RKHS_CHANNELS, aet_calibrate, bias_stacks

ARCHITECTURE = "lightweight_attention_ridge"
RESULT_HEADER = (
    "dataset,mode,seed,split_offset,val_rmse,test_rmse,test_mae,"
    "alpha_loc,lambda,strengths_json,ledger_hash"
)
DEFAULT_SEEDS = (1, 2, 3)
BANDWIDTH_FACTORS = (0.5, 1.0, 2.0)
DEFAULT_DATASET_SEED = 7


# ---------------------------------------------------------------------------
# mode registry


def build_mode_registry() -> list[TopologyMode]:
    """Fixed-order mode list; classical is entry 0.

    Base modes: classical, zeng_local_h0, seven static single-channel
    modes, static_hybrid, and the three learned-eta families; every mode
    except zeng also appears in a guarded-residual variant.
    """
    modes: list[TopologyMode] = [
        TopologyMode("classical", (), "none"),
        TopologyMode("zeng_local_h0", (), "none"),
    ]
    for channel in CHANNELS:
        modes.append(TopologyMode(f"static_{channel.lower()}", (channel,), "static-grid"))
    modes.append(TopologyMode("static_hybrid", CHANNELS, "static-grid"))
    modes.append(TopologyMode("learned_eta_euclidean", EUCLIDEAN_CHANNELS, "learned-eta"))
    modes.append(TopologyMode("learned_eta_rkhs", RKHS_CHANNELS, "learned-eta"))
    modes.append(TopologyMode("learned_eta_hybrid", CHANNELS, "learned-eta"))
    residual = [
        TopologyMode(m.mode_id + "_resid", m.channels, m.strength_source, with_residual=True)
        for m in modes
        if m.mode_id != "zeng_local_h0"
    ]
    registry = modes + residual
    ids = [m.mode_id for m in registry]
    if len(ids) != len(set(ids)):
        raise InvalidInput("duplicate mode ids in registry")
    return registry


MODE_REGISTRY = build_mode_registry()
MODE_ORDER = {m.mode_id: i for i, m in enumerate(MODE_REGISTRY)}


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class RunResult:
    dataset: str
    mode_id: str
    seed: int
    split_offset: float
    val_rmse: float
    test_rmse: float
    test_mae: float
    alpha_loc: float | None
    penalty: float
    strengths: dict
    ledger_hash: str

    def key(self) -> tuple:
        return (self.dataset, self.mode_id, self.seed, self.split_offset)

    def to_csv_fields(self) -> list[str]:
        return [
            self.dataset,
            self.mode_id,
            str(self.seed),
            repr(self.split_offset),
            repr(self.val_rmse),
            repr(self.test_rmse),
            repr(self.test_mae),
            "" if self.alpha_loc is None else repr(self.alpha_loc),
            repr(self.penalty),
            json.dumps(self.strengths, sort_keys=True),
            self.ledger_hash,
        ]


def parse_results_csv(path) -> list[RunResult]:
    """Read a results.csv written by :func:`write_results_csv`."""
    import csv as _csv

    rows: list[RunResult] = []
    with Path(path).open(newline="") as fh:
        reader = _csv.DictReader(fh)
        for row in reader:
            rows.append(
                RunResult(
                    dataset=row["dataset"],
                    mode_id=row["mode"],
                    seed=int(row["seed"]),
                    split_offset=float(row["split_offset"]),
                    val_rmse=float(row["val_rmse"]),
                    test_rmse=float(row["test_rmse"]),
                    test_mae=float(row["test_mae"]),
                    alpha_loc=float(row["alpha_loc"]) if row["alpha_loc"] else None,
                    penalty=float(row["lambda"]),
                    strengths=json.loads(row["strengths_json"]),
                    ledger_hash=row["ledger_hash"],
                )
            )
    return rows


def write_results_csv(path, results: list[RunResult]) -> None:
    """Canonically sorted results file with the fixed header."""
    import csv as _csv

    ordered = sorted(
        results,
        key=lambda r: (r.dataset, MODE_ORDER.get(r.mode_id, 99), r.seed, r.split_offset),
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(RESULT_HEADER.split(","))
        for r in ordered:
            writer.writerow(r.to_csv_fields())


# ---------------------------------------------------------------------------
# calibration


def _array_payload(a: np.ndarray):
    return [repr(float(v)) for v in np.asarray(a, dtype=np.float64).ravel()]


@dataclass
class CellCalibration:
    """Train-only calibrations for one (dataset, seed, offset) cell.

    Only the artifacts the requested modes need are populated: AET
    parameters when an AET channel is active, the kernel scale when KH
    channels or local features are in play, and the local projection
    (whose feature mean/std are the persistent-homology normalizers) for
    guarded-residual modes. Everything is fit before any validation or
    test evaluation and hashed into the ledger.
    """

    dataset: str
    seed: int
    offset: float
    scaler: ScalerState
    kernel_bandwidth: float | None = None
    bandwidth_grid: tuple = ()
    aet: AetParams | None = None
    local_projection: LocalProjection | None = None
    content_hash: str = ""

    def serialize(self) -> str:
        payload = {
            "dataset": self.dataset,
            "seed": self.seed,
            "offset": repr(self.offset),
            "scaler_mean": _array_payload(self.scaler.mean),
            "scaler_std": _array_payload(self.scaler.std),
        }
        if self.kernel_bandwidth is not None:
            payload["kernel_bandwidth"] = repr(self.kernel_bandwidth)
            payload["bandwidth_grid"] = [repr(b) for b in self.bandwidth_grid]
        if self.aet is not None:
            payload["aet_directions"] = _array_payload(self.aet.directions)
            payload["aet_thresholds"] = _array_payload(self.aet.thresholds)
            payload["aet_temperature"] = repr(self.aet.temperature)
            payload["aet_adjacency_scale"] = repr(self.aet.adjacency_scale)
        if self.local_projection is not None:
            payload["ph_normalizer_mean"] = _array_payload(self.local_projection.feature_mean)
            payload["ph_normalizer_std"] = _array_payload(self.local_projection.feature_std)
            payload["local_projection"] = _array_payload(self.local_projection.proj)
            payload["local_query"] = _array_payload(self.local_projection.query)
            payload["local_position_scores"] = _array_payload(self.local_projection.position_scores)
        return json.dumps(payload, sort_keys=True, indent=1)

    def compute_hash(self) -> str:
        return hashlib.sha256(self.serialize().encode()).hexdigest()


class SplitContext:
    """Per (dataset, offset) working state: scaled windows and lazy caches.

    Everything cached here is a function of the window tensors alone
    (never of any target), so contexts are shared across seeds and across
    leakage-mutation reruns.
    """

    def __init__(self, ds: WindowedDataset, offset: float):
        self.ds = ds
        self.offset = offset
        spec = SplitSpec(offset=offset)
        self.train_range, self.val_range, self.test_range = chronological_split(ds, spec)
        self.scaler = fit_scaler(ds.windows[list(self.train_range)])
        self.scaled = apply_scaler(self.scaler, ds.windows)
        train_scaled = self.scaled[list(self.train_range)]
        sigmas = [pairwise_euclidean(w).sigma for w in train_scaled]
        self.pooled_sigma = max(float(np.median(sigmas)), 1e-6)
        self.kernel_bandwidth = self.pooled_sigma
        self.bandwidth_grid = tuple(f * self.pooled_sigma for f in BANDWIDTH_FACTORS)
        self.cover = build_cover(ds.windows.shape[1])
        self._stacks: dict = {}
        self._blocks = None
        self._stats = None
        self._aet: dict[int, AetParams] = {}
        self._local_phi = None

    # -- bias stacks -------------------------------------------------------
    def stack_for(self, channel: str, seed: int, bandwidth: float | None = None) -> np.ndarray:
        if channel == "AET":
            key = ("AET", seed)
            if key not in self._stacks:
                self._stacks[key] = bias_stacks(
                    self.scaled, ("AET",), aet_params=self.aet_params(seed)
                )["AET"]
            return self._stacks[key]
        if channel in RKHS_CHANNELS:
            bw = self.kernel_bandwidth if bandwidth is None else bandwidth
            key = (channel, round(bw, 12))
            if key not in self._stacks:
                built = bias_stacks(self.scaled, (channel,), kernel_spec=KernelSpec(bw))
                self._stacks[key] = built[channel]
            return self._stacks[key]
        if channel not in self._stacks:
            self._stacks[channel] = bias_stacks(self.scaled, (channel,))[channel]
        return self._stacks[channel]

    def stacks_for(self, channels, seed: int, bandwidth: float | None = None) -> dict:
        return {c: self.stack_for(c, seed, bandwidth) for c in channels}

    # -- train-only calibrations -------------------------------------------
    def aet_params(self, seed: int) -> AetParams:
        if seed not in self._aet:
            train_scaled = self.scaled[list(self.train_range)]
            self._aet[seed] = aet_calibrate(list(train_scaled), seed=seed)
        return self._aet[seed]

    def local_blocks(self):
        if self._blocks is None:
            spec = KernelSpec(self.kernel_bandwidth)
            self._blocks, self._stats = local_block_tensor(self.scaled, self.cover, spec)
        return self._blocks, self._stats

    def local_phi(self):
        if self._local_phi is None:
            blocks, stats = self.local_blocks()
            self._local_phi = assemble_local_features(blocks, stats)
        return self._local_phi


def _calibration_needs(modes: list[TopologyMode]) -> tuple[bool, bool, bool]:
    """(needs_aet, needs_kernel_scale, needs_local_projection) of a mode set."""
    needs_aet = any("AET" in m.channels for m in modes)
    needs_local = any(m.with_residual for m in modes)
    uses_blocks = needs_local or any(m.mode_id.startswith("zeng") for m in modes)
    needs_kernel = uses_blocks or any(c in RKHS_CHANNELS for m in modes for c in m.channels)
    return needs_aet, needs_kernel, needs_local


def calibrate_cell(ctx: SplitContext, seed: int, modes: list[TopologyMode] | None = None) -> CellCalibration:
    """Fit and hash the train-only calibrations one cell's modes require."""
    if modes is None:
        modes = MODE_REGISTRY
    needs_aet, needs_kernel, needs_local = _calibration_needs(modes)
    projection = None
    if needs_local:
        phi = ctx.local_phi()
        train_idx = list(ctx.train_range)
        projection = fit_local_projection(phi[train_idx], ctx.ds.targets[train_idx], seed=seed)
    calib = CellCalibration(
        dataset=ctx.ds.name,
        seed=seed,
        offset=ctx.offset,
        scaler=ctx.scaler,
        kernel_bandwidth=ctx.kernel_bandwidth if needs_kernel else None,
        bandwidth_grid=ctx.bandwidth_grid if needs_kernel else (),
        aet=ctx.aet_params(seed) if needs_aet else None,
        local_projection=projection,
    )
    calib.content_hash = calib.compute_hash()
    return calib


# ---------------------------------------------------------------------------
# mode execution


def _rmse(pred, y) -> float:
    return float(np.sqrt(np.mean((np.asarray(pred) - np.asarray(y)) ** 2)))


def _mae(pred, y) -> float:
    return float(np.mean(np.abs(np.asarray(pred) - np.asarray(y))))


def _fit_static(ctx: SplitContext, base, mode: TopologyMode, seed: int, train_idx, val_idx, train_y, val_y):
    """Greedy per-channel strength search, then a joint grid on the best pair."""
    def evaluate(strengths: dict, bandwidth=None):
        stacks = ctx.stacks_for([c for c, s in strengths.items() if s != 0.0], seed, bandwidth)
        feats = forward_features(ctx.scaled, base, stacks, strengths)
        ridge = ridge_fit(feats[train_idx], train_y, feats[val_idx], val_y)
        return ridge.val_rmse, feats, ridge

    zero_rmse, zero_feats, zero_ridge = evaluate({})
    per_channel = {}
    for channel in mode.channels:
        bandwidths = ctx.bandwidth_grid if (channel in RKHS_CHANNELS and len(mode.channels) == 1) else (None,)
        best = (zero_rmse, 0.0, None)
        for bw in bandwidths:
            for s in STRENGTH_GRID:
                if s == 0.0:
                    continue
                rmse, _, _ = evaluate({channel: s}, bw)
                if rmse < best[0]:
                    best = (rmse, s, bw)
        per_channel[channel] = best

    if len(mode.channels) == 1:
        channel = mode.channels[0]
        rmse, s, bw = per_channel[channel]
        strengths = {channel: s} if s != 0.0 else {}
        _, feats, ridge = evaluate(strengths, bw)
        return strengths, bw, feats, ridge

    ranked = sorted(mode.channels, key=lambda c: (per_channel[c][0], mode.channels.index(c)))
    c1, c2 = ranked[0], ranked[1]
    best = (zero_rmse, {}, zero_feats, zero_ridge)
    for s1 in STRENGTH_GRID:
        for s2 in STRENGTH_GRID:
            strengths = {}
            if s1 != 0.0:
                strengths[c1] = s1
            if s2 != 0.0:
                strengths[c2] = s2
            if not strengths:
                continue
            rmse, feats, ridge = evaluate(strengths)
            if rmse < best[0]:
                best = (rmse, strengths, feats, ridge)
    _, strengths, feats, ridge = best
    return strengths, None, feats, ridge


def _fit_global_stage(ctx: SplitContext, mode: TopologyMode, seed: int, train_idx, val_idx, train_y, val_y):
    """Global attention + ridge fit of a mode, independent of the residual flag."""
    attn = init_attention_params(ctx.scaled.shape[2], seed)
    base = attention_logits_batch(ctx.scaled, attn)
    strengths: dict = {}
    alpha_raw: dict = {}
    if mode.strength_source == "static-grid":
        strengths, _bandwidth, feats, ridge = _fit_static(
            ctx, base, mode, seed, train_idx, val_idx, train_y, val_y
        )
    elif mode.strength_source == "learned-eta":
        channels = mode.channels
        stacks = ctx.stacks_for(channels, seed)
        temps, attn, _info = train_temperatures(
            ctx.scaled[train_idx], train_y, ctx.scaled[val_idx], val_y,
            {c: stacks[c][train_idx] for c in channels},
            {c: stacks[c][val_idx] for c in channels},
            channels, seed,
        )
        strengths = temps.eta()
        alpha_raw = temps.raw
        base = attention_logits_batch(ctx.scaled, attn)
        feats = forward_features(ctx.scaled, base, stacks, strengths)
        ridge = ridge_fit(feats[train_idx], train_y, feats[val_idx], val_y)
    else:  # classical
        feats = forward_features(ctx.scaled, base, {}, {})
        ridge = ridge_fit(feats[train_idx], train_y, feats[val_idx], val_y)
    return strengths, feats, ridge, alpha_raw


def run_mode_detailed(
    ctx: SplitContext,
    mode: TopologyMode,
    seed: int,
    calibration: CellCalibration | None,
    test_targets: np.ndarray | None = None,
    global_cache: dict | None = None,
    force_guard_reject: bool = False,
    model_sink: dict | None = None,
):
    """Like :func:`run_mode` but also returns the final test predictions.

    ``global_cache`` (keyed by the residual-stripped mode id) lets residual
    variants reuse their base mode's global fit; ``force_guard_reject`` is
    the preservation audit hook: it forces the residual guard to reject so
    the output must be bit-identical to the global pipeline's predictions.
    When ``model_sink`` is given, the fitted model state (head weights,
    temperatures, strengths, predictions) is stored under the mode id.
    """
    if calibration is None:
        raise CalibrationMissing(f"no calibration ledger entry for {ctx.ds.name} seed {seed}")
    train_idx = list(ctx.train_range)
    val_idx = list(ctx.val_range)
    test_idx = list(ctx.test_range)
    targets = ctx.ds.targets
    train_y, val_y = targets[train_idx], targets[val_idx]
    if test_targets is None:
        test_targets = targets[test_idx]

    if mode.mode_id.startswith("zeng"):
        # controlled baseline: flat D0+/D0- path blocks, nothing else
        blocks, _stats = ctx.local_blocks()
        ridge = fit_local_head(blocks[train_idx], train_y, blocks[val_idx], val_y)
        feats = zeng_features(blocks)
        strengths, alpha_raw = {}, {}
    else:
        base_id = mode.mode_id[: -len("_resid")] if mode.with_residual else mode.mode_id
        cache_key = (base_id, seed)
        if global_cache is not None and cache_key in global_cache:
            strengths, feats, ridge, alpha_raw = global_cache[cache_key]
        else:
            strengths, feats, ridge, alpha_raw = _fit_global_stage(
                ctx, mode, seed, train_idx, val_idx, train_y, val_y
            )
            if global_cache is not None:
                global_cache[cache_key] = (strengths, feats, ridge, alpha_raw)

    y_val = ridge_predict(ridge, feats[val_idx])
    y_test = ridge_predict(ridge, feats[test_idx])
    val_rmse = ridge.val_rmse
    alpha_loc: float | None = None
    local_ridge = None

    if mode.with_residual:
        if calibration.local_projection is None:
            raise CalibrationMissing(
                f"mode {mode.mode_id} needs a local projection absent from the ledger"
            )
        blocks, stats = ctx.local_blocks()
        phi = ctx.local_phi()
        scores, cstats = contrast_features(blocks)
        rep = local_representation_matrix(phi, calibration.local_projection, scores, cstats)
        local_ridge = ridge_fit(rep[train_idx], train_y, rep[val_idx], val_y)
        y_local_val = ridge_predict(local_ridge, rep[val_idx])
        y_local_test = ridge_predict(local_ridge, rep[test_idx])
        state, y_test = guarded_blend(
            y_val, y_local_val, val_y, y_test, y_local_test, force_reject=force_guard_reject
        )
        alpha_loc = state.alpha_loc
        if state.accepted:
            val_rmse = state.val_rmse_blend

    result = RunResult(
        dataset=ctx.ds.name,
        mode_id=mode.mode_id,
        seed=seed,
        split_offset=ctx.offset,
        val_rmse=val_rmse,
        test_rmse=_rmse(y_test, test_targets),
        test_mae=_mae(y_test, test_targets),
        alpha_loc=alpha_loc,
        penalty=ridge.penalty,
        strengths={k: float(v) for k, v in strengths.items()},
        ledger_hash=calibration.content_hash,
    )
    if model_sink is not None:
        payload = {
            "lambda": ridge.penalty,
            "head_weights": [float(v) for v in ridge.weights],
            "head_intercept": float(ridge.intercept),
            "strengths": {k: float(v) for k, v in strengths.items()},
            "alpha_raw": {k: float(v) for k, v in alpha_raw.items()},
            "test_indices": list(test_idx),
            "y_test_pred": [float(v) for v in y_test],
        }
        if local_ridge is not None:
            payload["local_lambda"] = local_ridge.penalty
            payload["local_head_weights"] = [float(v) for v in local_ridge.weights]
            payload["local_head_intercept"] = float(local_ridge.intercept)
        model_sink[mode.mode_id] = payload
    return result, y_test


def run_mode(
    ctx: SplitContext,
    mode: TopologyMode,
    seed: int,
    calibration: CellCalibration | None,
    test_targets: np.ndarray | None = None,
    global_cache: dict | None = None,
) -> RunResult:
    """Fit one mode on train, select on validation, report test metrics once.

    The fit/selection path sees train and validation targets only;
    ``test_targets`` enter metric computation at the very end (the
    leakage-mutation hook passes a corrupted copy here).
    """
    result, _predictions = run_mode_detailed(ctx, mode, seed, calibration, test_targets, global_cache)
    return result


def select_by_validation(results: list[RunResult]) -> RunResult:
    """Argmin validation RMSE; ties break by registry order (classical first)."""
    if not results:
        raise InvalidInput("no candidate results to select from")
    return min(results, key=lambda r: (r.val_rmse, MODE_ORDER.get(r.mode_id, 99)))


def target_sanity_check(ds: WindowedDataset) -> tuple[bool, str]:
    """Reject near-degenerate targets before any run touches the dataset."""
    var = float(np.var(ds.targets))
    if var < 1e-6:
        return False, f"target variance {var:.3e} below 1e-6"
    spread = float(np.ptp(ds.targets))
    scale = max(abs(float(np.median(ds.targets))), 1e-12)
    if spread < 1e-4 * scale:
        return False, f"target range {spread:.3e} below 1e-4 of median magnitude {scale:.3e}"
    return True, ""


# ---------------------------------------------------------------------------
# campaign


class CampaignCache:
    """Reusable per-(dataset, seed, offset) split contexts."""

    def __init__(self):
        self.contexts: dict[tuple, SplitContext] = {}

    def context(self, ds: WindowedDataset, seed: int, offset: float) -> SplitContext:
        key = (ds.name, ds.provenance, seed, offset)
        if key not in self.contexts:
            self.contexts[key] = SplitContext(ds, offset)
        return self.contexts[key]


class ConstantBuilder:
    """Wraps a fixed dataset (real data) as a seed-independent builder."""

    def __init__(self, ds: WindowedDataset):
        self.ds = ds

    def __call__(self, seed: int) -> WindowedDataset:
        return self.ds


def _normalize_dataset_specs(datasets):
    """Accepts WindowedDataset objects or (name, builder(seed)) pairs."""
    specs = []
    for item in datasets:
        if isinstance(item, WindowedDataset):
            specs.append((item.name, ConstantBuilder(item)))
        else:
            name, builder = item
            specs.append((name, builder))
    return specs


def resolve_workers(n_workers: int | None) -> int:
    """Requested workers, hard-capped by the TOPOATTN_THREADS env var."""
    cap = None
    env = os.environ.get("TOPOATTN_THREADS")
    if env:
        try:
            cap = max(1, int(env))
        except ValueError:
            warnings.warn(f"ignoring non-integer TOPOATTN_THREADS={env!r}")
    requested = int(n_workers) if n_workers is not None else (cap if cap is not None else 1)
    requested = max(1, requested)
    if cap is not None:
        requested = min(requested, cap)
    return requested


def _run_split_block(
    name: str,
    builder,
    offset: float,
    seeds,
    mode_ids,
    corrupt_test_targets: bool,
    cache: CampaignCache | None = None,
    skip_rows: dict | None = None,
):
    """All (seed, mode) runs for one (dataset, offset) split.

    Synthetic datasets are rebuilt per campaign seed so the seed dimension
    of the paired audit covers independent draws; fixed datasets come from
    a :class:`ConstantBuilder`.
    """
    modes = [m for m in MODE_REGISTRY if m.mode_id in mode_ids]
    results: list[RunResult] = []
    ledgers: dict[tuple, CellCalibration] = {}
    skipped: dict[str, str] = {}
    selected_payloads: dict[tuple, dict] = {}
    for seed in seeds:
        ds = builder(seed)
        ok, reason = target_sanity_check(ds)
        if not ok:
            skipped[f"{name}(seed={seed})"] = reason
            warnings.warn(f"dataset {name} (seed {seed}) skipped: {reason}")
            continue
        ctx = cache.context(ds, seed, offset) if cache is not None else SplitContext(ds, offset)
        calibration = calibrate_cell(ctx, seed, modes)
        ledgers[(name, seed, offset)] = calibration
        test_targets = ctx.ds.targets[list(ctx.test_range)]
        if corrupt_test_targets:
            test_targets = np.zeros(len(ctx.test_range))
        global_cache: dict = {}
        sink: dict = {}
        cell_rows: list[RunResult] = []
        for mode in modes:
            key = (name, mode.mode_id, seed, offset)
            prior = skip_rows.get(key) if skip_rows else None
            if prior is not None and prior.ledger_hash == calibration.content_hash:
                cell_rows.append(prior)
                continue
            result, _ = run_mode_detailed(
                ctx, mode, seed, calibration, test_targets=test_targets,
                global_cache=global_cache, model_sink=sink,
            )
            results.append(result)
            cell_rows.append(result)
        if cell_rows:
            chosen = select_by_validation(cell_rows)
            if chosen.mode_id not in sink:
                # the selected mode's rows were resumed from disk; regenerate
                # its model state and predictions for the output tree
                mode = next(m for m in modes if m.mode_id == chosen.mode_id)
                run_mode_detailed(
                    ctx, mode, seed, calibration, test_targets=test_targets,
                    global_cache=global_cache, model_sink=sink,
                )
            payload = dict(sink[chosen.mode_id])
            payload["y_test_true"] = [float(v) for v in test_targets]
            selected_payloads[(name, seed, offset)] = payload
        # ledger immutability: the hash recorded before the runs must still
        # describe the calibration after them
        if calibration.compute_hash() != calibration.content_hash:
            raise TopoAttnError(
                f"calibration of {name} seed {seed} offset {offset!r} mutated during runs"
            )
    return results, ledgers, skipped, selected_payloads


def _parallel_block(args):
    name, builder, offset, seeds, mode_ids, corrupt = args
    results, ledgers, skipped, payloads = _run_split_block(name, builder, offset, seeds, mode_ids, corrupt)
    return results, {k: (v.serialize(), v.content_hash) for k, v in ledgers.items()}, skipped, payloads


def run_campaign(
    datasets,
    seeds=DEFAULT_SEEDS,
    offsets=SPLIT_OFFSETS,
    mode_ids=None,
    out_dir=None,
    corrupt_test_targets: bool = False,
    cache: CampaignCache | None = None,
    n_workers: int | None = None,
    existing: list[RunResult] | None = None,
):
    """Run the full (dataset x seed x offset x mode) grid.

    ``datasets`` may mix fixed :class:`WindowedDataset` objects and
    (name, builder(seed)) pairs; builders are invoked once per campaign
    seed. Returns (results, ledger_payloads) where ledger_payloads maps
    (dataset, seed, offset) to the serialized calibration and its hash.
    ``corrupt_test_targets`` zeroes each cell's test targets before metric
    computation (leakage audit hook); ``existing`` rows are kept and their
    cells skipped when the ledger hash still matches.
    """
    if mode_ids is None:
        mode_ids = [m.mode_id for m in MODE_REGISTRY]
    mode_ids = list(mode_ids)
    unknown = [m for m in mode_ids if m not in MODE_ORDER]
    if unknown:
        raise InvalidInput(f"unknown mode ids {unknown}; known: {sorted(MODE_ORDER)}")
    specs = _normalize_dataset_specs(datasets)

    skip_rows = {r.key(): r for r in existing} if existing else None
    fresh: list[RunResult] = []
    ledger_payloads: dict[tuple, tuple[str, str]] = {}
    skipped: dict[str, str] = {}
    selected_payloads: dict[tuple, dict] = {}
    workers = resolve_workers(n_workers)

    blocks = [(name, builder, offset) for name, builder in specs for offset in offsets]
    if workers > 1 and len(blocks) > 1 and cache is None and skip_rows is None:
        tasks = [
            (name, builder, offset, tuple(seeds), tuple(mode_ids), corrupt_test_targets)
            for name, builder, offset in blocks
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for block_results, payloads, block_skipped, block_selected in pool.map(_parallel_block, tasks):
                fresh.extend(block_results)
                ledger_payloads.update(payloads)
                skipped.update(block_skipped)
                selected_payloads.update(block_selected)
    else:
        for name, builder, offset in blocks:
            block_results, ledgers, block_skipped, block_selected = _run_split_block(
                name, builder, offset, seeds, mode_ids, corrupt_test_targets,
                cache=cache, skip_rows=skip_rows,
            )
            fresh.extend(block_results)
            skipped.update(block_skipped)
            selected_payloads.update(block_selected)
            for k, calib in ledgers.items():
                ledger_payloads[k] = (calib.serialize(), calib.content_hash)

    merged: dict[tuple, RunResult] = {r.key(): r for r in existing} if existing else {}
    for r in fresh:
        merged[r.key()] = r  # rerun rows replace stale ones
    results = list(merged.values())

    if out_dir is not None:
        _write_campaign_outputs(Path(out_dir), results, ledger_payloads, skipped, selected_payloads)
    return results, ledger_payloads


def _write_campaign_outputs(out_dir: Path, results, ledger_payloads, skipped, selected_payloads) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_results_csv(out_dir / "results.csv", results)
    ledger_dir = out_dir / "ledgers"
    ledger_dir.mkdir(exist_ok=True)
    for (ds, seed, offset), (payload, _hash) in sorted(ledger_payloads.items()):
        name = f"{ds}_s{seed}_o{_offset_tag(offset)}.json"
        (ledger_dir / name).write_text(payload + "\n")
    if skipped:
        with (out_dir / "skipped.json").open("w") as fh:
            json.dump(skipped, fh, indent=2, sort_keys=True)
            fh.write("\n")
    _write_selected(out_dir, results, selected_payloads)


def _offset_tag(offset: float) -> str:
    return format(offset, "+.2f").replace("+", "p").replace("-", "m").replace(".", "_")


def _write_selected(out_dir: Path, results: list[RunResult], selected_payloads: dict) -> None:
    """Per-cell validation-selected mode summary, model state, predictions.

    Model state goes to models/<cell>.txt as documented key = value lines;
    the selected mode's test predictions go to predictions/<cell>.csv.
    """
    cells: dict[tuple, list[RunResult]] = {}
    for r in results:
        cells.setdefault((r.dataset, r.seed, r.split_offset), []).append(r)
    model_dir = out_dir / "models"
    model_dir.mkdir(exist_ok=True)
    pred_dir = out_dir / "predictions"
    pred_dir.mkdir(exist_ok=True)
    lines = ["dataset,seed,split_offset,selected_mode,val_rmse,test_rmse"]
    for (ds, seed, offset), rows in sorted(cells.items()):
        chosen = select_by_validation(rows)
        lines.append(
            f"{ds},{seed},{offset!r},{chosen.mode_id},{chosen.val_rmse!r},{chosen.test_rmse!r}"
        )
        payload = selected_payloads.get((ds, seed, offset))
        tag = f"{ds}_s{seed}_o{_offset_tag(offset)}"
        state = [
            f"dataset = {ds}",
            f"seed = {seed}",
            f"split_offset = {offset!r}",
            f"mode = {chosen.mode_id}",
            f"lambda = {chosen.penalty!r}",
            f"alpha_loc = {'' if chosen.alpha_loc is None else repr(chosen.alpha_loc)}",
            f"strengths = {json.dumps(chosen.strengths, sort_keys=True)}",
            f"ledger_hash = {chosen.ledger_hash}",
        ]
        if payload is not None:
            state += [
                f"alpha_raw = {json.dumps(payload['alpha_raw'], sort_keys=True)}",
                f"head_intercept = {payload['head_intercept']!r}",
                "head_weights = " + ",".join(repr(v) for v in payload["head_weights"]),
            ]
            if "local_head_weights" in payload:
                state += [
                    f"local_lambda = {payload['local_lambda']!r}",
                    f"local_head_intercept = {payload['local_head_intercept']!r}",
                    "local_head_weights = " + ",".join(repr(v) for v in payload["local_head_weights"]),
                ]
            pred_lines = ["window,y_true,y_pred"]
            for idx, y_true, y_pred in zip(
                payload["test_indices"], payload["y_test_true"], payload["y_test_pred"]
            ):
                pred_lines.append(f"{idx},{y_true!r},{y_pred!r}")
            (pred_dir / f"{tag}.csv").write_text("\n".join(pred_lines) + "\n")
        (model_dir / f"{tag}.txt").write_text("\n".join(state) + "\n")
    (out_dir / "selected.csv").write_text("\n".join(lines) + "\n")
