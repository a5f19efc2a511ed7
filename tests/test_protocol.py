"""Protocol orchestration: registry, calibration ledger, leakage discipline."""

import json

import numpy as np
import pytest

from topoattn.attention import ridge_fit, ridge_predict
from topoattn.datasets import gen_cyclic_h1, gen_shell_h2, WindowedDataset
from topoattn.errors import CalibrationMissing, InvalidInput, TopoAttnError
from topoattn.local_residual import zeng_features
from topoattn.persistence import DIAGRAM_VECTOR_LEN
from topoattn.protocol import (
    CampaignCache,
    MODE_REGISTRY,
    RESULT_HEADER,
    RunResult,
    SplitContext,
    calibrate_cell,
    parse_results_csv,
    run_campaign,
    run_mode,
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
    tr, va, te = list(ctx.train_range), list(ctx.val_range), list(ctx.test_range)
    y = ctx.ds.targets
    ridge = ridge_fit(x[tr], y[tr], x[va], y[va])
    return ridge_predict(ridge, x[te])


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


class TestRunMode:
    def test_classical_finite_no_alpha(self, small_ctx, small_calib):
        r = run_mode(small_ctx, BY_ID["classical"], 1, small_calib)
        assert np.isfinite(r.val_rmse) and np.isfinite(r.test_rmse) and np.isfinite(r.test_mae)
        assert r.alpha_loc is None and r.strengths == {}
        assert r.penalty in (0.001, 0.01, 0.1, 1.0, 10.0, 50.0, 100.0)

    def test_rerun_identical(self, small_ctx, small_calib):
        a = run_mode(small_ctx, BY_ID["static_h1"], 1, small_calib)
        b = run_mode(small_ctx, BY_ID["static_h1"], 1, small_calib)
        assert a == b

    def test_missing_calibration(self, small_ctx):
        with pytest.raises(CalibrationMissing):
            run_mode(small_ctx, BY_ID["classical"], 1, None)

    def test_residual_needs_projection(self, small_ctx):
        calib = calibrate_cell(small_ctx, 1, modes=[BY_ID["classical"]])
        with pytest.raises(CalibrationMissing):
            run_mode(small_ctx, BY_ID["classical_resid"], 1, calib)

    def test_leakage_mutation(self, small_ctx, small_calib):
        clean = run_mode(small_ctx, BY_ID["static_h0_resid"], 1, small_calib)
        zeros = np.zeros(len(small_ctx.test_range))
        corrupted = run_mode(small_ctx, BY_ID["static_h0_resid"], 1, small_calib, test_targets=zeros)
        assert corrupted.val_rmse == clean.val_rmse
        assert corrupted.penalty == clean.penalty
        assert corrupted.strengths == clean.strengths
        assert corrupted.alpha_loc == clean.alpha_loc
        assert corrupted.ledger_hash == clean.ledger_hash
        assert corrupted.test_rmse != clean.test_rmse


class TestZeng:
    def test_exactly_two_blocks_per_element(self, small_ctx, small_calib):
        blocks, _ = small_ctx.local_blocks()
        m = blocks.shape[1]
        assert zeng_features(blocks).shape == (blocks.shape[0], m * 2 * 9)

    def test_containment_restriction(self, small_ctx, small_calib):
        base = run_mode(small_ctx, BY_ID["zeng_local_h0"], 1, small_calib)
        restricted = restricted_phi_refit(small_ctx)
        te = list(small_ctx.test_range)
        y = small_ctx.ds.targets[te]
        zeng_rmse = float(np.sqrt(np.mean((restricted - y) ** 2)))
        assert abs(zeng_rmse - base.test_rmse) <= 1e-12

    def test_deterministic(self, small_ctx, small_calib):
        zeng = BY_ID["zeng_local_h0"]
        assert run_mode(small_ctx, zeng, 1, small_calib) == run_mode(small_ctx, zeng, 1, small_calib)


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
            [("cyclic", lambda seed: gen_cyclic_h1(seed, n_windows=60, n_tokens=16))],
            seeds=(1, 2), offsets=(0.0,), mode_ids=["classical"],
        )
        by_seed = {r.seed: r for r in results}
        assert by_seed[1].test_rmse != by_seed[2].test_rmse

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidInput):
            run_campaign([gen_cyclic_h1(1, n_windows=60, n_tokens=16)], mode_ids=["nope"])

    def test_cache_reuse_consistent(self, tmp_path):
        datasets = [gen_shell_h2(2, n_windows=60, n_tokens=12)]
        cache = CampaignCache()
        kwargs = dict(seeds=(1,), offsets=(0.0,), mode_ids=["classical", "static_h2"])
        a, _ = run_campaign(datasets, cache=cache, **kwargs)
        b, _ = run_campaign(datasets, cache=cache, **kwargs)
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
    # the worker-pool task runs the same check
    task = ("cyclic", lambda seed: gen_cyclic_h1(3, n_windows=60, n_tokens=16), 0.0, (1,), ("classical",), False)
    with pytest.raises(TopoAttnError, match="mutated"):
        protocol._parallel_block(task)


def test_parallel_worker_pool(tmp_path):
    from functools import partial

    datasets = [
        ("cyclic", partial(gen_cyclic_h1, n_windows=60, n_tokens=16)),
        gen_shell_h2(2, n_windows=60, n_tokens=12),
    ]
    serial, _ = run_campaign(datasets, seeds=(1,), offsets=(0.0, 0.05), mode_ids=["classical"], n_workers=1)
    parallel, _ = run_campaign(datasets, seeds=(1,), offsets=(0.0, 0.05), mode_ids=["classical"], n_workers=2)
    assert sorted(r.to_csv_fields() for r in serial) == sorted(r.to_csv_fields() for r in parallel)


def test_worker_env_cap(monkeypatch):
    from topoattn.protocol import resolve_workers

    monkeypatch.delenv("TOPOATTN_THREADS", raising=False)
    assert resolve_workers(None) == 1
    assert resolve_workers(4) == 4
    monkeypatch.setenv("TOPOATTN_THREADS", "2")
    assert resolve_workers(None) == 2
    assert resolve_workers(8) == 2  # env caps explicit requests
    assert resolve_workers(1) == 1
    monkeypatch.setenv("TOPOATTN_THREADS", "nope")
    with pytest.warns(UserWarning):
        assert resolve_workers(3) == 3
