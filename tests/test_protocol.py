"""Protocol orchestration: registry, calibration ledger, leakage discipline."""

import json
import tracemalloc
from collections import Counter
from dataclasses import fields as dataclass_fields, is_dataclass, replace
from functools import partial

import numpy as np
import pytest

from topoattn.attention import ridge_fit, ridge_predict
from topoattn.datasets import (
    SPLIT_OFFSETS, chronological_split, gen_cyclic_h1, gen_higher_topology, gen_shell_h2, WindowedDataset,
)
from topoattn.errors import CalibrationMissing, InvalidInput, TopoAttnError
from topoattn.local_residual import zeng_features
from topoattn.persistence import DIAGRAM_VECTOR_LEN
from topoattn.protocol import (
    MODE_REGISTRY,
    RESULT_HEADER,
    RunResult,
    SplitContext,
    calibrate_cell,
    parse_results_csv,
    run_campaign,
    run_mode_detailed,
    select_by_validation,
    target_sanity_check,
    write_results_csv,
)

BY_ID = {m.mode_id: m for m in MODE_REGISTRY}


def restricted_phi_refit(ctx: SplitContext) -> np.ndarray:
    """Containment reference: the local residual's own feature tensor Phi,
    restricted to its D0+/D0- columns, flattened and refit with Ridge.

    Returns test predictions, which the Zeng-style baseline must reproduce.
    """
    phi = ctx.local_phi()[:, :, : 2 * DIAGRAM_VECTOR_LEN]
    x = phi.reshape(phi.shape[0], -1)
    tr, va, te = ctx.train_rows, ctx.val_rows, ctx.test_rows
    y = ctx.ds.targets
    ridge = ridge_fit(x[tr], y[tr], x[va], y[va])
    return ridge_predict(ridge, x[te])


def leakage_differences() -> list[str]:
    """Run a small campaign twice, the second time on the same windows with
    every test target zeroed; one line per ledger, selection or validation
    value that moved. The test metrics must move, or the rerun proves
    nothing."""
    ds = gen_cyclic_h1(3, n_windows=80, n_tokens=16)
    targets = ds.targets.copy()
    targets[chronological_split(len(targets), 0.0)[2]] = 0.0
    mutated = WindowedDataset(ds.name, ds.windows, targets)
    kwargs = dict(seeds=(1,), offsets=(0.0,), mode_ids=("static_h0", "static_h0_resid"))
    clean_rows, clean_ledgers = run_campaign([ds], **kwargs)
    rows, ledgers = run_campaign([mutated], **kwargs)
    lines = [f"ledger changed for {key}" for key in clean_ledgers if ledgers.get(key) != clean_ledgers[key]]
    clean = {r.key(): r for r in clean_rows}
    for row in rows:
        for field in ("val_rmse", "penalty", "strengths", "alpha_loc", "ledger_hash"):
            if getattr(row, field) != getattr(clean[row.key()], field):
                lines.append(f"{field} changed for {row.key()}")
    assert all(row.test_rmse != clean[row.key()].test_rmse for row in rows), "zeroed test targets moved no metric"
    return lines


@pytest.fixture(scope="module")
def small_ctx():
    ds = gen_cyclic_h1(3, n_windows=80, n_tokens=16)
    return SplitContext(ds, 0.0)


@pytest.fixture(scope="module")
def small_calib(small_ctx):
    return calibrate_cell(small_ctx, seed=1)


class TestRegistry:
    def test_classical_first_and_unique(self):
        assert MODE_REGISTRY[0].mode_id == "classical"
        ids = [m.mode_id for m in MODE_REGISTRY]
        assert len(ids) == len(set(ids)) == 25

    def test_families_present(self):
        ids = set(m.mode_id for m in MODE_REGISTRY)
        assert {"zeng_local_h0", "static_h0", "static_aet", "static_kh2", "static_hybrid",
                "learned_eta_euclidean", "learned_eta_rkhs", "learned_eta_hybrid"} <= ids
        assert "classical_resid" in ids and "zeng_local_h0_resid" not in ids

    def test_residual_flags(self):
        for m in MODE_REGISTRY:
            assert m.with_residual == m.mode_id.endswith("_resid")


class TestSplit:
    def test_three_slices_tile_the_windows(self, small_ctx):
        split = (small_ctx.train_rows, small_ctx.val_rows, small_ctx.test_rows)
        assert all(isinstance(rows, slice) and rows.step is None for rows in split)
        n = len(small_ctx.ds.targets)
        assert [range(n)[rows] for rows in split] == list(chronological_split(n, small_ctx.offset))
        assert [i for rows in split for i in range(n)[rows]] == list(range(n))  # in order, no gap or overlap
        assert not any(hasattr(small_ctx, name) for name in ("train_idx", "val_idx", "test_idx"))

    def test_fits_read_views(self, monkeypatch):
        # every row selection a fit receives is a view of the array it was
        # cut from, never a copy made by indexing with a list of rows
        from topoattn import protocol

        ctx = SplitContext(gen_cyclic_h1(3, n_windows=80, n_tokens=16), 0.0)
        calls = []

        def capture(name):
            fit = getattr(protocol, name)

            def wrapped(*args, **kwargs):
                out = fit(*args, **kwargs)
                calls.append((name, args, out))
                return out
            monkeypatch.setattr(protocol, name, wrapped)

        for name in ("ridge_fit", "fit_local_projection", "fit_local_head", "zeng_features"):
            capture(name)
        modes = [BY_ID["classical"], BY_ID["zeng_local_h0"], BY_ID["classical_resid"]]
        calibration = calibrate_cell(ctx, 1, modes)
        cache: dict = {}
        for mode in modes:
            run_mode_detailed(ctx, mode, 1, calibration, global_cache=cache)
        assert Counter(name for name, _, _ in calls) == {
            "ridge_fit": 2, "fit_local_projection": 1, "fit_local_head": 1, "zeng_features": 1,
        }
        (zeng_x,) = [out for name, _, out in calls if name == "zeng_features"]
        for name, args, _ in calls:
            if name == "zeng_features":
                continue
            rows = [a for a in args if isinstance(a, np.ndarray)]
            assert len(rows) == (2 if name == "fit_local_projection" else 4)
            assert all(a.base is not None for a in rows), f"{name} received a row copy"
            assert all(np.shares_memory(a, ctx.ds.targets) for a in rows if a.ndim == 1)
            if name == "fit_local_projection":
                assert rows[0].ndim == 3 and np.shares_memory(rows[0], ctx.local_phi())
            if name == "fit_local_head":
                # the train and validation rows are two views of the one Zeng matrix
                x_rows = [a for a in rows if a.ndim == 2]
                assert len(x_rows) == 2 and all(np.shares_memory(a, zeng_x) for a in x_rows)


class TestRunMode:
    def test_classical_finite_no_alpha(self, small_ctx, small_calib):
        r = run_mode_detailed(small_ctx, BY_ID["classical"], 1, small_calib)[0]
        assert np.isfinite(r.val_rmse) and np.isfinite(r.test_rmse) and np.isfinite(r.test_mae)
        assert r.alpha_loc is None and r.strengths == {}
        assert r.penalty in (0.001, 0.01, 0.1, 1.0, 10.0, 50.0, 100.0)

    def test_rerun_identical(self, small_ctx, small_calib):
        a = run_mode_detailed(small_ctx, BY_ID["static_h1"], 1, small_calib)[0]
        b = run_mode_detailed(small_ctx, BY_ID["static_h1"], 1, small_calib)[0]
        assert a == b

    def test_missing_calibration(self, small_ctx):
        with pytest.raises(CalibrationMissing):
            run_mode_detailed(small_ctx, BY_ID["classical"], 1, None)

    def test_residual_needs_projection(self, small_ctx):
        calib = calibrate_cell(small_ctx, 1, modes=[BY_ID["classical"]])
        with pytest.raises(CalibrationMissing):
            run_mode_detailed(small_ctx, BY_ID["classical_resid"], 1, calib)

    def test_leakage_mutation(self):
        assert leakage_differences() == []

    def test_leakage_check_sees_a_head_fitted_on_test_rows(self, monkeypatch):
        # negative control: a head fit that also reads the test rows must
        # make the check above fail
        from topoattn import protocol
        from topoattn.attention import forward_features

        def leaky(ctx, base, stacks, strengths):
            feats = forward_features(ctx.scaled, base, stacks, strengths, summary=ctx.summary)
            rows, y = np.r_[ctx.train_rows, ctx.test_rows], ctx.ds.targets
            ridge = ridge_fit(feats[rows], y[rows], feats[ctx.val_rows], y[ctx.val_rows])
            return ridge, ridge_predict(ridge, feats[ctx.val_rows]), ridge_predict(ridge, feats[ctx.test_rows])

        monkeypatch.setattr(protocol, "_fit_head", leaky)
        assert any(line.startswith("val_rmse changed") for line in leakage_differences())


class TestZeng:
    def test_exactly_two_blocks_per_element(self, small_ctx, small_calib):
        phi = small_ctx.local_phi()
        m = phi.shape[1]
        assert zeng_features(phi).shape == (phi.shape[0], m * 2 * 9)

    def test_containment_restriction(self, small_ctx, small_calib):
        base = run_mode_detailed(small_ctx, BY_ID["zeng_local_h0"], 1, small_calib)[0]
        restricted = restricted_phi_refit(small_ctx)
        y = small_ctx.ds.targets[small_ctx.test_rows]
        zeng_rmse = float(np.sqrt(np.mean((restricted - y) ** 2)))
        assert abs(zeng_rmse - base.test_rmse) <= 1e-12

    def test_one_zeng_matrix_per_fit(self, small_ctx, small_calib, monkeypatch):
        from topoattn import local_residual, protocol

        calls = []

        def counted(phi):
            calls.append(phi.shape)
            return zeng_features(phi)
        for module in (protocol, local_residual):
            monkeypatch.setattr(module, "zeng_features", counted)
        run_mode_detailed(small_ctx, BY_ID["zeng_local_h0"], 1, small_calib)
        assert calls == [small_ctx.local_phi().shape]

    def test_deterministic(self, small_ctx, small_calib):
        zeng = BY_ID["zeng_local_h0"]
        first, _ = run_mode_detailed(small_ctx, zeng, 1, small_calib)
        second, _ = run_mode_detailed(small_ctx, zeng, 1, small_calib)
        assert first == second


class TestSelection:
    def make(self, mode_id, val):
        return RunResult("d", mode_id, 1, 0.0, val, 0.5, 0.4, None, 1.0, {}, "h")

    def test_single_candidate(self):
        row = self.make("static_h1", 0.5)
        assert select_by_validation([row]) is row

    def test_tie_prefers_classical(self):
        rows = [self.make("static_h1", 0.4), self.make("classical", 0.4)]
        assert select_by_validation(rows).mode_id == "classical"

    def test_argmin(self):
        rows = [self.make("classical", 0.5), self.make("static_h1", 0.3), self.make("static_h2", 0.45)]
        chosen = select_by_validation(rows)
        assert all(chosen.val_rmse <= r.val_rmse for r in rows)

    def test_empty(self):
        with pytest.raises(InvalidInput):
            select_by_validation([])


class TestSanityCheck:
    def test_constant_target_skipped(self):
        ds = WindowedDataset("flat", np.zeros((20, 8, 2)), np.full(20, 1.0))
        ok, reason = target_sanity_check(ds)
        assert not ok and "variance" in reason and "e" in reason

    def test_stress_passes(self):
        from topoattn.datasets import gen_higher_topology

        ok, reason = target_sanity_check(gen_higher_topology(1, n_windows=40, n_tokens=12))
        assert ok and reason == ""


class TestCalibration:
    def test_hash_stability_and_ledger_shape(self, small_ctx):
        a = calibrate_cell(small_ctx, seed=2)
        b = calibrate_cell(small_ctx, seed=2)
        assert a.content_hash == b.content_hash
        payload = json.loads(a.serialize())
        assert {"scaler_mean", "scaler_std", "kernel_bandwidth", "aet_directions",
                "ph_normalizer_mean", "local_projection", "local_position_scores"} <= set(payload)

    def test_classical_only_ledger_has_no_topology_artifacts(self, small_ctx):
        calib = calibrate_cell(small_ctx, seed=1, modes=[BY_ID["classical"]])
        payload = json.loads(calib.serialize())
        assert "scaler_mean" in payload
        assert "aet_directions" not in payload
        assert "kernel_bandwidth" not in payload
        assert "local_projection" not in payload

    def test_different_seeds_different_aet(self, small_ctx):
        a = calibrate_cell(small_ctx, seed=1)
        b = calibrate_cell(small_ctx, seed=2)
        assert not np.array_equal(a.aet.directions, b.aet.directions)


class TestCampaign:
    def test_small_campaign_outputs(self, tmp_path):
        datasets = [gen_cyclic_h1(3, n_windows=60, n_tokens=16)]
        results, ledgers = run_campaign(
            datasets,
            seeds=(1,),
            offsets=(0.0,),
            mode_ids=["classical", "zeng_local_h0", "static_h1"],
            out_dir=tmp_path,
        )
        assert len(results) == 3
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert lines[0] == RESULT_HEADER
        assert len(lines) == 4
        assert (tmp_path / "selected.csv").exists()
        ledger_files = list((tmp_path / "ledgers").glob("*.json"))
        assert len(ledger_files) == 1
        model_files = list((tmp_path / "models").glob("*.txt"))
        assert len(model_files) == 1
        assert "head_weights = " in model_files[0].read_text()
        pred_files = list((tmp_path / "predictions").glob("*.csv"))
        assert len(pred_files) == 1
        assert pred_files[0].read_text().splitlines()[0] == "window,y_true,y_pred"
        parsed = parse_results_csv(tmp_path / "results.csv")
        assert {r.mode_id for r in parsed} == {"classical", "zeng_local_h0", "static_h1"}
        assert parsed[0].ledger_hash == results[0].ledger_hash

    def test_resume_skips_completed_rows(self, tmp_path):
        datasets = [gen_cyclic_h1(3, n_windows=60, n_tokens=16)]
        kwargs = dict(seeds=(1,), offsets=(0.0,), mode_ids=["classical", "static_h0"])
        first, _ = run_campaign(datasets, out_dir=tmp_path, **kwargs)
        second, _ = run_campaign(datasets, out_dir=tmp_path, existing=first, **kwargs)
        assert sorted(r.key() for r in second) == sorted(r.key() for r in first)
        assert len(second) == len(first)

    def test_degenerate_dataset_skipped_with_warning(self, tmp_path):
        flat = WindowedDataset("flat", np.zeros((40, 12, 2)), np.ones(40))
        good = gen_cyclic_h1(4, n_windows=60, n_tokens=16)
        with pytest.warns(UserWarning, match="flat"):
            results, _ = run_campaign(
                [flat, good], seeds=(1,), offsets=(0.0,), mode_ids=["classical"], out_dir=tmp_path
            )
        assert {r.dataset for r in results} == {"cyclic"}
        skipped = json.loads((tmp_path / "skipped.json").read_text())
        assert list(skipped) == ["flat(seed=1)"]

    def test_per_seed_builders_give_distinct_data(self):
        results, _ = run_campaign(
            [lambda seed: gen_cyclic_h1(seed, n_windows=60, n_tokens=16)],
            seeds=(1, 2), offsets=(0.0,), mode_ids=["classical"],
        )
        by_seed = {r.seed: r for r in results}
        assert by_seed[1].test_rmse != by_seed[2].test_rmse

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidInput):
            run_campaign([gen_cyclic_h1(1, n_windows=60, n_tokens=16)], mode_ids=["nope"])

    def test_existing_rows_of_unknown_mode_rejected(self, tmp_path, monkeypatch):
        # a resumed row of a mode no registry entry produced would be kept
        # unchecked and could win its cell's selection
        from topoattn import protocol

        kwargs = dict(seeds=(1,), offsets=(0.0,), mode_ids=["classical", "static_h0"], out_dir=tmp_path)
        rows, _ = run_campaign([SMALL_CYCLIC], **kwargs)
        stray = replace(rows[0], mode_id="static_h9", val_rmse=0.0, ledger_hash="0" * 64)
        before = _tree_bytes(tmp_path)
        fits = []
        monkeypatch.setattr(protocol, "run_mode_detailed", lambda *a, **k: fits.append(a[1]))
        with pytest.raises(InvalidInput, match=r"existing rows of unknown mode ids \['static_h9'\]"):
            run_campaign([SMALL_CYCLIC], existing=[*rows, stray], **kwargs)
        assert fits == [] and _tree_bytes(tmp_path) == before

    def test_two_runs_give_equal_rows(self):
        datasets = [gen_shell_h2(2, n_windows=60, n_tokens=12)]
        kwargs = dict(seeds=(1,), offsets=(0.0,), mode_ids=["classical", "static_h2"])
        a, _ = run_campaign(datasets, **kwargs)
        b, _ = run_campaign(datasets, **kwargs)
        assert sorted(map(lambda r: r.to_csv_fields(), a)) == sorted(map(lambda r: r.to_csv_fields(), b))

    def test_csv_roundtrip_preserves_rows(self, tmp_path):
        rows = [
            RunResult("d", "static_hybrid", 1, -0.05, 0.5, 0.4, 0.3, 0.25, 10.0,
                      {"H0": 0.5, "KH1": 0.1}, "abc123"),
            RunResult("d", "classical", 1, -0.05, 0.6, 0.5, 0.4, None, 0.001, {}, "abc123"),
        ]
        write_results_csv(tmp_path / "r.csv", rows)
        parsed = parse_results_csv(tmp_path / "r.csv")
        assert parsed[0].mode_id == "classical"  # canonical registry order
        by_mode = {r.mode_id: r for r in parsed}
        assert by_mode["static_hybrid"].strengths == {"H0": 0.5, "KH1": 0.1}
        assert by_mode["static_hybrid"].alpha_loc == 0.25
        assert by_mode["classical"].alpha_loc is None


def test_ledger_mutation_raises(monkeypatch):
    from topoattn import protocol

    original = protocol.run_mode_detailed

    def mutating(ctx, mode, seed, calibration, *args, **kwargs):
        out = original(ctx, mode, seed, calibration, *args, **kwargs)
        calibration.scaler.mean[0] += 1.0  # a run must never touch its ledger
        return out

    monkeypatch.setattr(protocol, "run_mode_detailed", mutating)
    datasets = [gen_cyclic_h1(3, n_windows=60, n_tokens=16)]
    with pytest.raises(TopoAttnError, match="mutated"):
        run_campaign(datasets, seeds=(1,), offsets=(0.0,), mode_ids=["classical"], n_workers=1)
    # the block runner itself raises, so a pool worker never returns a mutated ledger
    builder = lambda seed: gen_cyclic_h1(3, n_windows=60, n_tokens=16)  # noqa: E731
    with pytest.raises(TopoAttnError, match="mutated"):
        protocol._run_split_block(builder, 0.0, (1,), ("classical",))


def test_cell_fit_cache_shares_static_grid_points(monkeypatch):
    from topoattn import protocol

    ds = gen_cyclic_h1(3, n_windows=60, n_tokens=16)
    modes = [m for m in MODE_REGISTRY if not m.with_residual and m.mode_id != "zeng_local_h0"]
    assert len(modes) == 12
    fit_head = protocol._fit_head
    calls = []

    def counting(ctx, base, stacks, strengths):
        calls.append(tuple(strengths.items()))
        return fit_head(ctx, base, stacks, strengths)

    monkeypatch.setattr(protocol, "_fit_head", counting)
    results, *_ = protocol._run_split_block(ds, 0.0, (1,), tuple(m.mode_id for m in modes))
    # static grid: 1 zero fit + 16 Euclidean singles (4 channels x 4 strengths)
    # + 36 KH singles (3 bandwidths x 4 strengths x 3 channels) + 16 joint
    # pairs; then one head fit per learned-eta mode (113 + 3 without the cache)
    assert len(calls) == 69 + 3
    assert sum(len(c) == 2 for c in calls) == 16

    # with no cache passed, one call still fits each distinct point once:
    # static_hybrid's joint grid repeats 8 of its single-channel points
    ctx = SplitContext(ds, 0.0)
    calibration = calibrate_cell(ctx, 1, modes)
    calls.clear()
    run_mode_detailed(ctx, BY_ID["static_hybrid"], 1, calibration)
    assert len(calls) == 1 + 7 * 4 + 16

    # each row is what the mode gives run alone with a fresh cache
    for result in results:
        alone, _ = run_mode_detailed(ctx, BY_ID[result.mode_id], 1, calibration, global_cache={})
        assert alone.to_csv_fields() == result.to_csv_fields()


def _arrays(value):
    """Every numpy array inside a cache value: tuples, dicts and dataclasses
    (the Ridge heads) are searched."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)
    elif is_dataclass(value):
        for f in dataclass_fields(value):
            yield from _arrays(getattr(value, f.name))


def test_cell_cache_keeps_predictions_not_features(monkeypatch):
    # one cache for a cell's 12 global modes and their 12 residual twins
    # holds each head fit as its ridge and its validation and test
    # predictions, never a feature matrix with a row per window; each
    # learned-eta stage trains once for the mode and its twin
    from topoattn import protocol

    ds = gen_cyclic_h1(3, n_windows=60, n_tokens=16)
    ctx = SplitContext(ds, 0.0)
    modes = [m for m in MODE_REGISTRY if not m.mode_id.startswith("zeng")]
    assert len(modes) == 24
    calibration = calibrate_cell(ctx, 1, modes)
    train, trained = protocol.train_temperatures, []
    monkeypatch.setattr(protocol, "train_temperatures", lambda *a: trained.append(a[-2]) or train(*a))
    cache: dict = {}
    for mode in modes:
        run_mode_detailed(ctx, mode, 1, calibration, global_cache=cache)
    assert len(trained) == 3 and len(set(trained)) == 3
    held = [a for value in cache.values() for a in _arrays(value)]
    assert held and all(a.ndim == 1 and len(a) != len(ds.targets) for a in held)


def test_residual_stage_runs_once_per_cell(monkeypatch):
    from topoattn import protocol

    ds = gen_cyclic_h1(3, n_windows=60, n_tokens=16)
    mode_ids = ("classical", "static_h0", "classical_resid", "static_h0_resid", "static_kh1_resid")
    stages, guards = [], []
    for name, log in (("contrast_features", stages), ("guarded_blend", guards)):
        original = getattr(protocol, name)
        monkeypatch.setattr(protocol, name, lambda *a, log=log, original=original: log.append(1) or original(*a))
    results, _ = run_campaign([ds], seeds=(1, 2), offsets=(0.0,), mode_ids=mode_ids)
    assert len(results) == 10
    # one residual stage per (cell, seed); every residual mode runs its own guard
    assert len(stages) == 2 and len(guards) == 6
    ctx = SplitContext(ds, 0.0)
    for result in results:
        calibration = calibrate_cell(ctx, result.seed, [BY_ID[m] for m in mode_ids])
        alone, _ = run_mode_detailed(ctx, BY_ID[result.mode_id], result.seed, calibration, global_cache={})
        assert alone.to_csv_fields() == result.to_csv_fields()


def test_fixed_dataset_shares_one_context_across_seeds(monkeypatch):
    from topoattn import protocol

    tensor = protocol.local_block_tensor
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return tensor(*args, **kwargs)

    monkeypatch.setattr(protocol, "local_block_tensor", counting)
    ds = gen_cyclic_h1(3, n_windows=40, n_tokens=16)
    results, _ = run_campaign([ds], seeds=(1, 2, 3), offsets=(0.0,), mode_ids=["zeng_local_h0"])
    assert len(results) == 3
    assert len(calls) == 1


def test_shared_context_rows_match_fresh_contexts():
    # AET stacks depend on the seed; a context shared by two seeds keys them by it
    ds = gen_cyclic_h1(3, n_windows=40, n_tokens=16)
    modes = ["static_aet", "learned_eta_euclidean"]
    shared, _ = run_campaign([ds], seeds=(1, 2), offsets=(0.0,), mode_ids=modes)
    for result in shared:
        ctx = SplitContext(ds, 0.0)
        calibration = calibrate_cell(ctx, result.seed, [BY_ID[m] for m in modes])
        fresh, _ = run_mode_detailed(ctx, BY_ID[result.mode_id], result.seed, calibration, global_cache={})
        assert fresh.to_csv_fields() == result.to_csv_fields()


def test_single_kh_search_drops_its_extra_bandwidth_stacks(monkeypatch):
    # a shared context forgets the off-default KH0 stacks after each seed's
    # static_kh0 search and builds them again for the next seed; the
    # default-bandwidth stack, which static_hybrid reads, stays
    from topoattn import protocol

    stacks, tensor = protocol.bias_stacks, protocol.local_block_tensor
    built, tensors = [], []

    def counting_stacks(windows, channels, **kwargs):
        spec = kwargs.get("kernel_spec")
        built.append((channels, None if spec is None else spec.bandwidth))
        return stacks(windows, channels, **kwargs)

    # KH0 stacks already cached when another one is built: each off-default
    # stack is dropped once scored, so at most two exist at a time
    stack_for, live = SplitContext.stack_for, []

    def watching_stack_for(self, channel, seed, bandwidth=None):
        if channel == "KH0" and self.stack_key(channel, seed, bandwidth) not in self._stacks:
            live.append(sum(key[0] == channel for key in self._stacks))
        return stack_for(self, channel, seed, bandwidth)

    monkeypatch.setattr(protocol, "bias_stacks", counting_stacks)
    monkeypatch.setattr(protocol, "local_block_tensor", lambda *a, **k: tensors.append(1) or tensor(*a, **k))
    monkeypatch.setattr(SplitContext, "stack_for", watching_stack_for)
    ds = gen_cyclic_h1(3, n_windows=40, n_tokens=16)
    modes = ["static_kh0", "static_kh0_resid", "static_hybrid"]
    shared, shared_ledgers = run_campaign([ds], seeds=(1, 2), offsets=(0.0,), mode_ids=modes)
    low, default, high = SplitContext(ds, 0.0).bandwidth_grid
    assert Counter(bw for channels, bw in built if channels == ("KH0",)) == {low: 2, default: 1, high: 2}
    assert len(live) == 5 and max(live) == 1
    assert len(tensors) == 1

    monkeypatch.undo()
    rows, ledgers = [], {}
    for seed in (1, 2):
        seed_rows, seed_ledgers = run_campaign([ds], seeds=(seed,), offsets=(0.0,), mode_ids=modes)
        rows += seed_rows
        ledgers.update(seed_ledgers)
    assert sorted(r.to_csv_fields() for r in shared) == sorted(r.to_csv_fields() for r in rows)
    assert shared_ledgers == ledgers


def test_global_modes_peak_memory_bounded():
    # the 12 global modes on one stress cell: every bias stack, forward pass
    # and learned-eta step works one window block at a time, and the
    # single-KH searches drop each extra-bandwidth stack once scored; with
    # whole-stack temporaries and every stack kept, the traced peak was
    # 53 MiB, and with a whole-array trainer step and both extra stacks
    # kept to the end of the search, 31.4 MiB
    ds = gen_higher_topology(1)
    modes = [m.mode_id for m in MODE_REGISTRY if not m.with_residual and not m.mode_id.startswith("zeng")]
    assert len(modes) == 12
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        run_campaign([ds], seeds=(1,), offsets=(0.0,), mode_ids=modes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 30 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


SMALL_CYCLIC = partial(gen_cyclic_h1, n_windows=60, n_tokens=16)


def test_parallel_worker_pool(tmp_path):
    datasets = [SMALL_CYCLIC, gen_shell_h2(2, n_windows=60, n_tokens=12)]
    serial, _ = run_campaign(datasets, seeds=(1,), offsets=(0.0, 0.05), mode_ids=["classical"], n_workers=1)
    parallel, _ = run_campaign(datasets, seeds=(1,), offsets=(0.0, 0.05), mode_ids=["classical"], n_workers=2)
    assert sorted(r.to_csv_fields() for r in serial) == sorted(r.to_csv_fields() for r in parallel)


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_parallel_resume_matches_serial(tmp_path):
    kwargs = dict(seeds=(1,), offsets=(0.0, 0.05))
    serial, _ = run_campaign(
        [SMALL_CYCLIC], mode_ids=["classical", "static_h0"], out_dir=tmp_path / "serial", n_workers=1, **kwargs
    )
    first, _ = run_campaign([SMALL_CYCLIC], mode_ids=["classical"], **kwargs)
    resumed, _ = run_campaign(
        [SMALL_CYCLIC], mode_ids=["classical", "static_h0"], out_dir=tmp_path / "pool",
        n_workers=2, existing=first, **kwargs,
    )
    assert sorted(r.to_csv_fields() for r in resumed) == sorted(r.to_csv_fields() for r in serial)
    assert _tree_bytes(tmp_path / "pool") == _tree_bytes(tmp_path / "serial")


def test_pool_capped_at_block_count(monkeypatch):
    # an in-process stand-in records the pool size; no process is started
    from topoattn import protocol

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(protocol, "ProcessPoolExecutor", RecordingPool)
    rows, _ = run_campaign([SMALL_CYCLIC], seeds=(1,), offsets=(0.0, 0.05), mode_ids=["classical"], n_workers=64)
    assert sizes == [2]
    assert len(rows) == 2


def test_offsets_sharing_a_file_tag_rejected(tmp_path, monkeypatch):
    from topoattn import protocol

    fits = []
    monkeypatch.setattr(protocol, "run_mode_detailed", lambda *a, **k: fits.append(a[1]))
    # 0.0 and -0.0 have two tags (p0_00, m0_00) but are one offset: one cell key
    for offsets in ((0.025, 0.03), (0.05, 0.05), (0.0, -0.0)):
        with pytest.raises(InvalidInput, match="offsets"):
            run_campaign([SMALL_CYCLIC], seeds=(1,), offsets=offsets, mode_ids=["classical"], out_dir=tmp_path)
    assert fits == [] and not tmp_path.joinpath("results.csv").exists()
    tags = [protocol._cell_tag("cyclic", 1, offset) for offset in SPLIT_OFFSETS]
    assert tags == ["cyclic_s1_om0_05", "cyclic_s1_op0_00", "cyclic_s1_op0_05"]


def test_repeated_seeds_rejected(tmp_path, monkeypatch):
    from topoattn import protocol

    fits = []
    monkeypatch.setattr(protocol, "run_mode_detailed", lambda *a, **k: fits.append(a[1]))
    with pytest.raises(InvalidInput, match=r"seeds \[1, 1\] repeat a seed"):
        run_campaign([SMALL_CYCLIC], seeds=(1, 1), offsets=(0.0,), mode_ids=["classical"], out_dir=tmp_path)
    assert fits == [] and not tmp_path.joinpath("results.csv").exists()


def test_datasets_sharing_a_name_rejected(tmp_path):
    # builders reveal their name only when called, so the second block is the first to see it
    sources = [SMALL_CYCLIC, partial(gen_cyclic_h1, n_windows=80, n_tokens=16)]
    kwargs = dict(seeds=(1,), offsets=(0.0,), mode_ids=["classical"])
    run_campaign(sources[:1], out_dir=tmp_path / "first", **kwargs)
    with pytest.raises(InvalidInput, match="two datasets are named 'cyclic': both gave cell seed 1 offset 0.0"):
        run_campaign(sources, out_dir=tmp_path / "both", **kwargs)
    # the second block raised before it wrote anything
    assert _tree_bytes(tmp_path / "both") == _tree_bytes(tmp_path / "first")


def test_builder_outputs_named_from_dataset(tmp_path):
    renamed = lambda seed: replace(SMALL_CYCLIC(seed), name="loop")  # noqa: E731
    run_campaign([renamed], seeds=(1,), offsets=(0.0,), mode_ids=["classical"], out_dir=tmp_path)
    stems = {
        sub: [p.stem for p in (tmp_path / sub).iterdir()] for sub in ("ledgers", "models", "predictions")
    }
    assert stems == {sub: ["loop_s1_op0_00"] for sub in stems}
    assert "head_weights = " in (tmp_path / "models" / "loop_s1_op0_00.txt").read_text()


def test_interrupted_campaign_resumes(tmp_path, monkeypatch):
    from topoattn import protocol

    datasets = [SMALL_CYCLIC, partial(gen_shell_h2, n_windows=60, n_tokens=12)]
    kwargs = dict(seeds=(1,), offsets=(0.0,), mode_ids=["classical", "static_h0"])
    run_campaign(datasets, out_dir=tmp_path / "whole", **kwargs)

    original = protocol.run_mode_detailed

    def interrupted(ctx, *args, **kwargs):
        if ctx.ds.name == "shell":
            raise KeyboardInterrupt
        return original(ctx, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(protocol, "run_mode_detailed", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(datasets, out_dir=tmp_path / "cut", **kwargs)
    done = parse_results_csv(tmp_path / "cut" / "results.csv")
    assert sorted((r.dataset, r.mode_id) for r in done) == [("cyclic", "classical"), ("cyclic", "static_h0")]
    assert sorted(_tree_bytes(tmp_path / "cut")) == [
        "ledgers/cyclic_s1_op0_00.json", "models/cyclic_s1_op0_00.txt",
        "predictions/cyclic_s1_op0_00.csv", "results.csv", "selected.csv",
    ]
    run_campaign(datasets, out_dir=tmp_path / "cut", existing=done, **kwargs)
    assert _tree_bytes(tmp_path / "cut") == _tree_bytes(tmp_path / "whole")


def test_narrower_rerun_keeps_one_ledger_hash(tmp_path, monkeypatch):
    import hashlib

    from topoattn import protocol

    kwargs = dict(seeds=(1,), offsets=(0.0,), out_dir=tmp_path)
    first, _ = run_campaign([SMALL_CYCLIC], mode_ids=["classical", "static_kh0"], **kwargs)
    fits = []
    original = protocol.run_mode_detailed
    monkeypatch.setattr(protocol, "run_mode_detailed", lambda *a, **k: fits.append(a[1]) or original(*a, **k))
    run_campaign([SMALL_CYCLIC], mode_ids=["classical"], existing=first, **kwargs)
    assert fits == []
    ledger = (tmp_path / "ledgers" / "cyclic_s1_op0_00.json").read_text()
    expected = hashlib.sha256(ledger[:-1].encode()).hexdigest()
    assert {r.ledger_hash for r in parse_results_csv(tmp_path / "results.csv")} == {expected}
    model = (tmp_path / "models" / "cyclic_s1_op0_00.txt").read_text().splitlines()
    assert [line for line in model if line.startswith("ledger_hash")] == [f"ledger_hash = {expected}"]
