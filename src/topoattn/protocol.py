"""No-leakage experiment orchestration.

Calibrations (scalers, AET parameters, kernel scales, local projections)
are fit on training windows only and frozen into a hashed ledger before
any validation or test evaluation. Hyperparameters (ridge penalty,
topology strengths, blend weights) are selected on the validation split;
test targets enter metric computation and the predictions file only.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields
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
    rmse,
    train_temperatures,
    window_summary,
)
# kept only so that bench/tracer.py can wrap protocol.biased_logits,
# protocol.row_softmax and protocol.attention_feature_matrix
from .attention import attention_feature_matrix, biased_logits, row_softmax  # noqa: F401
from .datasets import (
    SPLIT_OFFSETS,
    ScalerState,
    WindowedDataset,
    apply_scaler,
    chronological_split,
    fit_scaler,
)
from .errors import CalibrationMissing, InvalidInput, TopoAttnError
from .geometry import KernelSpec, pairwise_euclidean, pooled_sigma, stacked_euclidean, window_sigma
from .local_residual import (
    LocalProjection,
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

RESULT_HEADER = (
    "dataset,mode,seed,split_offset,val_rmse,test_rmse,test_mae,"
    "alpha_loc,lambda,strengths_json,ledger_hash"
)
DEFAULT_SEEDS = (1, 2, 3)
BANDWIDTH_FACTORS = (0.5, 1.0, 2.0)


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
        return [_cell(getattr(self, f.name)) for f in fields(self)]


def parse_results_csv(path) -> list[RunResult]:
    """Read a results.csv written by :func:`write_results_csv`.

    A missing column raises :class:`InvalidInput` naming the file and the
    columns; a bad value names the file and its 1-based data row.
    """
    path = Path(path)
    rows: list[RunResult] = []
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in RESULT_HEADER.split(",") if c not in (reader.fieldnames or ())]
        if missing:
            raise InvalidInput(f"{path}: missing columns {', '.join(missing)}")
        for row_num, row in enumerate(reader, start=1):
            try:
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
            except (TypeError, ValueError) as exc:
                raise InvalidInput(f"{path}: row {row_num}: {exc}") from None
    return rows


def _cell(value) -> str:
    """One output value as text: None -> "", dict -> sorted JSON, str as is,
    anything else (a Python int or float) -> repr."""
    if value is None:
        return ""
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return value if isinstance(value, str) else repr(value)


def _replace_file(path: Path, text: str) -> None:
    """Write ``text`` to a temporary sibling and rename it over ``path``, so
    a reader sees the old file or the new one, never half of one."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_csv(path, header, rows) -> None:
    """A CSV table (CRLF lines) of ``header`` and ``rows``, each value
    formatted by :func:`_cell`, replaced atomically."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)
    _replace_file(Path(path), buf.getvalue())


def write_results_csv(path, results: list[RunResult]) -> None:
    """Canonically sorted results file with the fixed header."""
    ordered = sorted(
        results,
        key=lambda r: (r.dataset, MODE_ORDER.get(r.mode_id, 99), r.seed, r.split_offset),
    )
    write_csv(path, RESULT_HEADER.split(","), (r.to_csv_fields() for r in ordered))


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
    (never of any target), so the seeds of a fixed dataset share one
    context within a campaign block. Bias stacks can also leave the cache:
    a single-KH static-grid search drops each of its stacks at the two
    bandwidths other than the train kernel scale as soon as it has scored
    it (:meth:`drop_stack`), since no later mode reads them, so each seed
    of a fixed dataset builds those again.
    """

    def __init__(self, ds: WindowedDataset, offset: float):
        self.ds = ds
        self.offset = offset
        # the train, validation and test rows as slices: chronological
        # splits are contiguous, so every fit reads views, never row copies
        self.train_rows, self.val_rows, self.test_rows = (
            slice(r.start, r.stop) for r in chronological_split(len(ds.targets), offset)
        )
        self.scaler = fit_scaler(ds.windows[self.train_rows])
        self.scaled = apply_scaler(self.scaler, ds.windows)
        self.kernel_bandwidth = pooled_sigma(pairwise_euclidean(self.scaled[self.train_rows]))
        self.bandwidth_grid = tuple(f * self.kernel_bandwidth for f in BANDWIDTH_FACTORS)
        self.cover = build_cover(ds.windows.shape[1])
        # the Euclidean distance tensor and window sigmas every bias stack
        # starts from, read-only. Built here, not at the first stack: made
        # there and kept among a fit's temporaries, it raised the peak RSS
        # of the predict-stream set-up by about 5 MB.
        d = stacked_euclidean(self.scaled)
        sigma = window_sigma(d)
        d.flags.writeable = sigma.flags.writeable = False
        self.euclidean = d, sigma
        # the attention-free feature columns of every window, read-only
        self.summary = window_summary(self.scaled)
        self.summary.flags.writeable = False
        self._stacks: dict = {}
        self._aet: dict[int, AetParams] = {}
        self._local_phi = None

    # -- bias stacks -------------------------------------------------------
    def stack_key(self, channel: str, seed: int, bandwidth: float | None = None) -> tuple:
        """(channel, seed if AET, bandwidth if KH): what one channel's bias
        stack depends on; ``bandwidth`` defaults to the train kernel scale,
        which the grid's 1.0 x bandwidth equals bit for bit."""
        bw = self.kernel_bandwidth if bandwidth is None else bandwidth
        return (channel, seed if channel == "AET" else None, bw if channel in RKHS_CHANNELS else None)

    def stack_for(self, channel: str, seed: int, bandwidth: float | None = None) -> np.ndarray:
        """One channel's bias stack, cached by :meth:`stack_key`."""
        key = self.stack_key(channel, seed, bandwidth)
        if key not in self._stacks:
            bw = self.kernel_bandwidth if bandwidth is None else bandwidth
            self._stacks[key] = bias_stacks(
                self.scaled, (channel,),
                aet_params=self.aet_params(seed) if channel == "AET" else None,
                kernel_spec=KernelSpec(bw) if channel in RKHS_CHANNELS else None,
                euclidean=self.euclidean,
            )[channel]
        return self._stacks[key]

    def stacks_for(self, channels, seed: int, bandwidth: float | None = None) -> dict:
        return {c: self.stack_for(c, seed, bandwidth) for c in channels}

    def drop_stack(self, channel: str, seed: int, bandwidth: float) -> None:
        """Forget ``channel``'s cached stack at ``bandwidth``, unless that is
        the train kernel scale, whose stack later modes read."""
        key = self.stack_key(channel, seed, bandwidth)
        if key != self.stack_key(channel, seed):
            self._stacks.pop(key, None)

    # -- train-only calibrations -------------------------------------------
    def aet_params(self, seed: int) -> AetParams:
        if seed not in self._aet:
            self._aet[seed] = aet_calibrate(self.scaled[self.train_rows], seed=seed)
        return self._aet[seed]

    def local_phi(self) -> np.ndarray:
        """Per-element local features of every window, (W, M, 63 + 5p)."""
        if self._local_phi is None:
            spec = KernelSpec(self.kernel_bandwidth)
            self._local_phi = local_block_tensor(self.scaled, self.cover, spec)
        return self._local_phi


def calibrate_cell(ctx: SplitContext, seed: int, modes: list[TopologyMode] | None = None) -> CellCalibration:
    """Fit and hash the train-only calibrations one cell's modes require:
    AET parameters for an AET channel, the local projection for a residual
    mode, and the kernel scale for a KH channel or the local features."""
    if modes is None:
        modes = MODE_REGISTRY
    needs_aet = any("AET" in m.channels for m in modes)
    needs_local = any(m.with_residual for m in modes)
    needs_kernel = needs_local or any(
        m.mode_id.startswith("zeng") or any(c in RKHS_CHANNELS for c in m.channels) for m in modes
    )
    tr = ctx.train_rows
    projection = fit_local_projection(ctx.local_phi()[tr], ctx.ds.targets[tr], seed=seed) if needs_local else None
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


def _mae(pred, y) -> float:
    return float(np.mean(np.abs(np.asarray(pred) - np.asarray(y))))


def _ridge_head(ctx: SplitContext, x: np.ndarray, ridge=None):
    """(ridge, validation predictions, test predictions) of a Ridge head on
    the feature matrix ``x``. Unless ``ridge`` is given, it is fitted on the
    train rows with lambda picked on the validation rows."""
    tr, va, y = ctx.train_rows, ctx.val_rows, ctx.ds.targets
    if ridge is None:
        ridge = ridge_fit(x[tr], y[tr], x[va], y[va])
    return ridge, ridge_predict(ridge, x[va]), ridge_predict(ridge, x[ctx.test_rows])


def _fit_head(ctx: SplitContext, base, stacks: dict, strengths: dict):
    """Forward pass over every window, then the Ridge head of
    :func:`_ridge_head`: (ridge, validation predictions, test predictions)."""
    return _ridge_head(ctx, forward_features(ctx.scaled, base, stacks, strengths, summary=ctx.summary))


def _fit_static(ctx: SplitContext, mode: TopologyMode, seed: int, fits: dict):
    """Greedy per-channel strength search, then a joint grid on the best pair.

    A mode with no channels (classical) gets the zero-strength fit. Returns
    (strengths, head fit) of the validation winner. Each grid point's head
    fit is kept in the cell cache ``fits`` under the (stack key, strength)
    of each channel in the order the logits add them, so a point that
    another mode or another stage of this search already fitted is not
    fitted again.
    """
    base = None

    def evaluate(strengths: dict, bandwidth=None):
        nonlocal base
        key = tuple((ctx.stack_key(c, seed, bandwidth), s) for c, s in strengths.items())
        if key not in fits:
            if base is None:
                base = attention_logits_batch(ctx.scaled, init_attention_params(ctx.scaled.shape[2], seed))
            stacks = ctx.stacks_for([c for c, s in strengths.items() if s != 0.0], seed, bandwidth)
            fit = _fit_head(ctx, base, stacks, strengths)
            fits[key] = fit[0].val_rmse, strengths, fit
        return fits[key]

    zero = evaluate({})
    if not mode.channels:
        return zero[1:]
    per_channel = {}
    for channel in mode.channels:
        single_kh = channel in RKHS_CHANNELS and len(mode.channels) == 1
        best = zero
        for bw in ctx.bandwidth_grid if single_kh else (None,):
            for s in STRENGTH_GRID:
                if s == 0.0:
                    continue
                candidate = evaluate({channel: s}, bw)
                if candidate[0] < best[0]:
                    best = candidate
            if single_kh:
                # only this search reads a single KH channel at the other
                # bandwidths, so at most two of its stacks exist at a time
                ctx.drop_stack(channel, seed, bw)
        per_channel[channel] = best
    if len(mode.channels) == 1:
        return per_channel[mode.channels[0]][1:]

    ranked = sorted(mode.channels, key=lambda c: (per_channel[c][0], mode.channels.index(c)))
    c1, c2 = ranked[0], ranked[1]
    best = zero
    for s1 in STRENGTH_GRID:
        for s2 in STRENGTH_GRID:
            strengths = {c: s for c, s in ((c1, s1), (c2, s2)) if s != 0.0}
            if not strengths:
                continue
            candidate = evaluate(strengths)
            if candidate[0] < best[0]:
                best = candidate
    return best[1:]


def _fit_global_stage(ctx: SplitContext, mode: TopologyMode, seed: int, fits: dict):
    """Global attention + ridge fit of a mode, independent of the residual
    flag: (strengths, head fit, raw learned temperatures). ``fits`` is the
    cell cache: the static grid's points (see :func:`_fit_static`) and,
    under ("learned-eta", channels), each learned-eta stage."""
    if mode.strength_source != "learned-eta":
        return (*_fit_static(ctx, mode, seed, fits), {})
    key = ("learned-eta", mode.channels)
    if key not in fits:
        stacks = ctx.stacks_for(mode.channels, seed)
        tr, va, y = ctx.train_rows, ctx.val_rows, ctx.ds.targets
        alpha, attn, _info = train_temperatures(
            ctx.scaled[tr], y[tr], ctx.scaled[va], y[va],
            {c: b[tr] for c, b in stacks.items()}, {c: b[va] for c, b in stacks.items()},
            mode.channels, seed,
        )
        strengths = {c: float(np.logaddexp(0.0, a)) for c, a in alpha.items()}
        fits[key] = strengths, _fit_head(ctx, attention_logits_batch(ctx.scaled, attn), stacks, strengths), alpha
    return fits[key]


def run_mode_detailed(
    ctx: SplitContext,
    mode: TopologyMode,
    seed: int,
    calibration: CellCalibration | None,
    global_cache: dict | None = None,
    model_sink: dict | None = None,
):
    """Fit one mode on train, select on validation, report test metrics once.

    Returns (RunResult, final test predictions). Test targets enter the
    metrics only, at the very end.

    ``global_cache`` is one cell's cache, for one seed and calibration. It
    keeps each head fit that the cell's modes share, as (ridge, validation
    predictions, test predictions), under what the fit depends on: a static
    grid point under its (stack key, strength) pairs, a learned-eta stage
    under ("learned-eta", channels), and the residual stage (the local
    representation's head) under "residual". So a mode's residual variant
    re-enters its global search and finds every fit there, and each
    residual mode runs only its own guard. When ``model_sink`` is given,
    the fitted model state (head weights, temperatures, strengths,
    predictions) is stored under the mode id.
    """
    if calibration is None:
        raise CalibrationMissing(f"no calibration ledger entry for {ctx.ds.name} seed {seed}")
    targets = ctx.ds.targets
    cache = {} if global_cache is None else global_cache

    if mode.mode_id.startswith("zeng"):
        # controlled baseline: flat D0+/D0- path blocks, nothing else
        phi, tr, va = ctx.local_phi(), ctx.train_rows, ctx.val_rows
        fit = _ridge_head(ctx, zeng_features(phi), fit_local_head(phi[tr], targets[tr], phi[va], targets[va]))
        strengths, alpha_raw = {}, {}
    else:
        strengths, fit, alpha_raw = _fit_global_stage(ctx, mode, seed, cache)
    ridge, y_val, y_test = fit
    val_rmse = ridge.val_rmse
    alpha_loc: float | None = None
    local_ridge = None

    if mode.with_residual:
        if calibration.local_projection is None:
            raise CalibrationMissing(f"mode {mode.mode_id} needs a local projection absent from the ledger")
        if "residual" not in cache:
            scores, cstats = contrast_features(ctx.local_phi())
            rep = local_representation_matrix(ctx.local_phi(), calibration.local_projection, scores, cstats)
            cache["residual"] = _ridge_head(ctx, rep)
        local_ridge, y_local_val, y_local_test = cache["residual"]
        state, y_test = guarded_blend(y_val, y_local_val, targets[ctx.val_rows], y_test, y_local_test)
        alpha_loc = state.alpha_loc
        if state.accepted:
            val_rmse = state.val_rmse_blend

    result = RunResult(
        dataset=ctx.ds.name,
        mode_id=mode.mode_id,
        seed=seed,
        split_offset=ctx.offset,
        val_rmse=val_rmse,
        test_rmse=rmse(y_test, targets[ctx.test_rows]),
        test_mae=_mae(y_test, targets[ctx.test_rows]),
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
            "test_indices": list(range(ctx.test_rows.start, ctx.test_rows.stop)),
            "y_test_pred": [float(v) for v in y_test],
        }
        if local_ridge is not None:
            payload["local_lambda"] = local_ridge.penalty
            payload["local_head_weights"] = [float(v) for v in local_ridge.weights]
            payload["local_head_intercept"] = float(local_ridge.intercept)
        model_sink[mode.mode_id] = payload
    return result, y_test


def select_by_validation(results: list[RunResult]) -> RunResult:
    """Argmin validation RMSE; ties break by registry order (classical first)."""
    if not results:
        raise InvalidInput("no candidate results to select from")
    return min(results, key=lambda r: (r.val_rmse, MODE_ORDER.get(r.mode_id, 99)))


def _selected_cells(results) -> list[tuple[tuple, list[RunResult], RunResult]]:
    """((dataset, seed, offset), its rows, the validation-selected row) of
    every cell in ``results``, in sorted cell order."""
    cells: dict[tuple, list[RunResult]] = {}
    for r in results:
        cells.setdefault((r.dataset, r.seed, r.split_offset), []).append(r)
    return [(cell, rows, select_by_validation(rows)) for cell, rows in sorted(cells.items())]


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


def _run_split_block(
    source,
    offset: float,
    seeds,
    mode_ids,
    skip_rows: dict | None = None,
):
    """All (seed, mode) runs for one (dataset, offset) split.

    ``source`` is a fixed :class:`WindowedDataset` or a builder(seed); a
    builder is called once per campaign seed so the seed dimension of the
    paired audit covers independent draws, while the seeds of a fixed
    dataset share one split context, built here. Every key and file name
    comes from the built dataset's ``name``. Each cell is calibrated for
    the requested modes and for the modes of its rows in ``skip_rows``, so
    the ledger hash does not depend on which modes a rerun asks for; a
    mode whose row is missing or carries another hash is fitted. Returns
    (results, ledgers, skipped, files): ledgers map (dataset, seed, offset)
    to the serialized calibration and its hash, and files map a path
    relative to the output directory to its text, the model and
    predictions of each cell whose selected mode was fitted here.
    """
    results: list[RunResult] = []
    ledgers: dict[tuple, tuple[str, str]] = {}
    skipped: dict[str, str] = {}
    files: dict[str, str] = {}
    ctx = None
    for seed in seeds:
        ds = source(seed) if callable(source) else source
        ok, reason = target_sanity_check(ds)
        if not ok:
            skipped[f"{ds.name}(seed={seed})"] = reason
            warnings.warn(f"dataset {ds.name} (seed {seed}) skipped: {reason}")
            continue
        if ctx is None or callable(source):
            ctx = SplitContext(ds, offset)
        kept = {
            key[1]: row for key, row in (skip_rows or {}).items()
            if (key[0], key[2], key[3]) == (ds.name, seed, offset)
        }
        modes = [m for m in MODE_REGISTRY if m.mode_id in mode_ids or m.mode_id in kept]
        calibration = calibrate_cell(ctx, seed, modes)
        global_cache: dict = {}
        sink: dict = {}
        cell_rows = dict(kept)
        for mode in modes:
            prior = kept.get(mode.mode_id)
            if prior is not None and prior.ledger_hash == calibration.content_hash:
                continue
            result, _ = run_mode_detailed(ctx, mode, seed, calibration, global_cache=global_cache, model_sink=sink)
            results.append(result)
            cell_rows[mode.mode_id] = result
        chosen = select_by_validation(list(cell_rows.values())) if cell_rows else None
        if chosen is not None and chosen.mode_id not in sink and chosen.mode_id in mode_ids:
            # the selected mode's row was resumed from disk; regenerate its
            # model state and predictions for the output tree
            mode = next(m for m in modes if m.mode_id == chosen.mode_id)
            run_mode_detailed(ctx, mode, seed, calibration, global_cache=global_cache, model_sink=sink)
        if chosen is not None and chosen.mode_id in sink:
            # a narrower rerun that did not fit the selected mode keeps the earlier files
            files.update(_selected_files(chosen, sink[chosen.mode_id], ctx.ds.targets[ctx.test_rows]))
        # ledger immutability: the hash recorded before the runs must still
        # describe the calibration after them
        if calibration.compute_hash() != calibration.content_hash:
            raise TopoAttnError(
                f"calibration of {ds.name} seed {seed} offset {offset!r} mutated during runs"
            )
        ledgers[(ds.name, seed, offset)] = (calibration.serialize(), calibration.content_hash)
    return results, ledgers, skipped, files


def _lines(rows) -> str:
    """LF-terminated comma-joined lines, each value formatted by :func:`_cell`."""
    return "".join(",".join(map(_cell, row)) + "\n" for row in rows)


def _selected_files(chosen: RunResult, payload: dict, test_targets) -> dict[str, str]:
    """models/<cell>.txt (documented key = value lines) and
    predictions/<cell>.csv of a cell's selected mode, from its row, its
    ``model_sink`` payload and the cell's test targets."""
    state = [
        ("dataset", chosen.dataset),
        ("seed", chosen.seed),
        ("split_offset", chosen.split_offset),
        ("mode", chosen.mode_id),
        ("lambda", chosen.penalty),
        ("alpha_loc", chosen.alpha_loc),
        ("strengths", chosen.strengths),
        ("ledger_hash", chosen.ledger_hash),
        ("alpha_raw", payload["alpha_raw"]),
        ("head_intercept", payload["head_intercept"]),
        ("head_weights", ",".join(map(repr, payload["head_weights"]))),
    ]
    if "local_head_weights" in payload:
        state += [
            ("local_lambda", payload["local_lambda"]),
            ("local_head_intercept", payload["local_head_intercept"]),
            ("local_head_weights", ",".join(map(repr, payload["local_head_weights"]))),
        ]
    tag = _cell_tag(chosen.dataset, chosen.seed, chosen.split_offset)
    predictions = zip(payload["test_indices"], map(float, test_targets), payload["y_test_pred"])
    return {
        f"models/{tag}.txt": "".join(f"{key} = {_cell(value)}\n" for key, value in state),
        f"predictions/{tag}.csv": _lines([("window", "y_true", "y_pred"), *predictions]),
    }


def run_campaign(
    datasets,
    seeds=DEFAULT_SEEDS,
    offsets=SPLIT_OFFSETS,
    mode_ids=None,
    out_dir=None,
    n_workers: int | None = None,
    existing: list[RunResult] | None = None,
):
    """Run the full (dataset x seed x offset x mode) grid.

    Each entry of ``datasets`` is a fixed :class:`WindowedDataset` or a
    builder(seed) -> WindowedDataset, called once per campaign seed.
    Returns (results, ledger_payloads) where ledger_payloads maps
    (dataset, seed, offset) to the serialized calibration and its hash.
    ``existing`` rows are kept and their mode fits skipped when the ledger
    hash still matches; the calibrations are still recomputed to check
    that hash, and each cell is calibrated for the modes of its existing
    rows too, so those rows keep their ledger. An existing row of a mode
    the registry does not have raises :class:`InvalidInput`, as an
    unknown id in ``mode_ids`` does. The (dataset, offset)
    blocks run in a pool of ``n_workers`` processes when that is above 1,
    else in this process; each block builds its own split contexts, so
    no state carries from one call to the next. Repeated seeds, offsets
    equal as numbers (0.0 and -0.0 too) or sharing a file tag, and two
    datasets with one name raise :class:`InvalidInput`; the last is seen
    when a block returns a cell an earlier block returned, before its
    outputs are written.

    With ``out_dir``, outputs are written after each block, every file
    replaced atomically: ``results.csv`` and ``selected.csv`` from all
    rows so far, and the ledgers, models and predictions of that block's
    cells. An interrupted run thus leaves every finished block on disk for
    a rerun with ``existing``.
    """
    mode_ids = tuple(m.mode_id for m in MODE_REGISTRY) if mode_ids is None else tuple(mode_ids)
    unknown = [m for m in mode_ids if m not in MODE_ORDER]
    if unknown:
        raise InvalidInput(f"unknown mode ids {unknown}; known: {sorted(MODE_ORDER)}")
    stale = sorted({r.mode_id for r in existing or ()} - MODE_ORDER.keys())
    if stale:
        raise InvalidInput(f"existing rows of unknown mode ids {stale}; known: {sorted(MODE_ORDER)}")
    workers = max(1, n_workers or 1)
    seeds = tuple(int(s) for s in seeds)  # file names and CSV cells print Python ints
    if len(set(seeds)) != len(seeds):
        raise InvalidInput(f"seeds {list(seeds)} repeat a seed; each cell would be fitted twice")
    if len(set(offsets)) != len(offsets):
        raise InvalidInput(f"offsets {list(offsets)} repeat an offset; each cell would be fitted twice")
    tags = [_cell_tag("", 0, offset) for offset in offsets]
    if len(set(tags)) != len(tags):
        raise InvalidInput(
            f"offsets {list(offsets)} would share output files: two round to one 2-decimal tag"
        )

    prior = {r.key(): r for r in existing or ()}
    tasks = [
        (source, offset, seeds, mode_ids, prior)
        for source in datasets
        for offset in offsets
    ]
    merged = dict(prior)  # rerun rows replace stale ones
    ledger_payloads: dict[tuple, tuple[str, str]] = {}
    skipped: dict[str, str] = {}
    parallel = workers > 1 and len(tasks) > 1
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) if parallel else nullcontext() as pool:
        runner = pool.map if parallel else map
        # with no blocks, one empty block still writes the outputs once
        blocks = runner(_run_split_block, *zip(*tasks)) if tasks else [([], {}, {}, {})]
        for block_results, ledgers, block_skipped, files in blocks:
            repeated = sorted(ledgers.keys() & ledger_payloads.keys())
            if repeated:
                ds, seed, offset = repeated[0]
                raise InvalidInput(
                    f"two datasets are named {ds!r}: both gave cell seed {seed} offset {offset!r}"
                )
            merged.update((r.key(), r) for r in block_results)
            ledger_payloads.update(ledgers)
            skipped.update(block_skipped)
            if out_dir is not None:
                _write_campaign_outputs(Path(out_dir), list(merged.values()), ledgers, skipped, files)
    return list(merged.values()), ledger_payloads


def _write_campaign_outputs(out_dir: Path, results, ledger_payloads, skipped, files) -> None:
    """Checkpoint: results.csv and selected.csv from ``results``, plus the
    given cells' ledgers and the block's rendered ``files``."""
    write_results_csv(out_dir / "results.csv", results)
    for cell, (payload, _hash) in sorted(ledger_payloads.items()):
        _replace_file(out_dir / "ledgers" / f"{_cell_tag(*cell)}.json", payload + "\n")
    if skipped:
        _replace_file(out_dir / "skipped.json", json.dumps(skipped, indent=2, sort_keys=True) + "\n")
    for rel, text in sorted(files.items()):
        _replace_file(out_dir / rel, text)
    selected = [("dataset", "seed", "split_offset", "selected_mode", "val_rmse", "test_rmse")]
    for (ds, seed, offset), _rows, chosen in _selected_cells(results):
        selected.append((ds, seed, offset, chosen.mode_id, chosen.val_rmse, chosen.test_rmse))
    _replace_file(out_dir / "selected.csv", _lines(selected))


def _cell_tag(ds: str, seed: int, offset: float) -> str:
    """File stem of one (dataset, seed, offset) cell in ledgers/, models/ and predictions/."""
    return f"{ds}_s{seed}_o" + format(offset, "+.2f").replace("+", "p").replace("-", "m").replace(".", "_")
