"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[criterion N] PASS` line on success (run with
`pytest tests/test_acceptance.py -v -s` to see them live). The full
synthetic campaign runs once, on two worker processes, and is shared.
The leakage criterion reruns it from scratch, one campaign per split
offset, on datasets whose test targets at that offset are zeroed, so
every calibration, selection and feature is recomputed from the mutated
data. Criteria 03-05 build their own offset-0 split contexts, once per
(builder, seed).
"""

import functools
import time
from dataclasses import replace

import numpy as np
import pytest

from topoattn.audit import bootstrap_ci, signflip_p
from topoattn.datasets import (
    SPLIT_OFFSETS,
    build_co2_windows,
    build_volatility_windows,
    chronological_split,
    gen_cyclic_h1,
    gen_higher_topology,
    gen_shell_h2,
    ims_health_indicator,
)
from topoattn import local_residual
from topoattn.attention import TRAIN_PARAMS, temperature_loss_and_grads, init_attention_params
from topoattn.persistence import capped_exact_diagrams
from topoattn.protocol import (
    MODE_REGISTRY,
    SplitContext,
    calibrate_cell,
    run_campaign,
    run_mode_detailed,
    select_by_validation,
)
from topoattn.topo_bias import CHANNELS

from test_manifests import MANIFESTS
from test_persistence import euclidean_matrix, naive_reduction_oracle
from test_protocol import restricted_phi_refit

SEEDS = (1, 2, 3)
BUILDERS = [
    ("stress", gen_higher_topology),
    ("cyclic", gen_cyclic_h1),
    ("shell", gen_shell_h2),
]
BY_ID = {m.mode_id: m for m in MODE_REGISTRY}
TOPOLOGY_MODE_IDS = [
    m.mode_id for m in MODE_REGISTRY if m.mode_id not in ("classical", "zeng_local_h0")
]


def report(criterion: int, message: str) -> None:
    print(f"\n[criterion {criterion:02d}] PASS - {message}")


@functools.cache
def offset0_context(builder, seed) -> SplitContext:
    """The offset-0 split context of ``builder(seed)``, built once and
    shared by criteria 03-05."""
    return SplitContext(builder(seed), 0.0)


def zeroed_test_targets(builder, offset, seed):
    """``builder(seed)`` with the targets of its test rows at ``offset``
    set to zero. Module-level, so a worker process can unpickle it."""
    ds = builder(seed)
    targets = ds.targets.copy()
    targets[chronological_split(len(targets), offset)[2]] = 0.0
    return replace(ds, targets=targets)


@pytest.fixture(scope="session")
def campaign_state(tmp_path_factory):
    """Clean full-registry synthetic campaign on two workers, timed."""
    out_dir = tmp_path_factory.mktemp("campaign")
    start = time.perf_counter()
    results, ledgers = run_campaign(
        [b for _, b in BUILDERS], seeds=SEEDS, offsets=SPLIT_OFFSETS, out_dir=out_dir, n_workers=2
    )
    elapsed = time.perf_counter() - start
    return {
        "results": results,
        "ledgers": ledgers,
        "elapsed": elapsed,
        "out_dir": out_dir,
    }


def test_criterion_01_persistence_oracle_equivalence():
    rng = np.random.default_rng(1234)
    start = time.perf_counter()
    for trial in range(200):
        n = int(rng.integers(3, 9))
        p = int(rng.choice([2, 3]))
        d = euclidean_matrix(rng.normal(size=(n, p)))
        ours = capped_exact_diagrams(d).bars
        oracle = naive_reduction_oracle(d)
        assert ours == oracle, f"bar mismatch on trial {trial} (n={n}, p={p})"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"
    report(1, f"200 clouds match the naive GF(2) oracle bar-for-bar in {elapsed:.1f}s")


def test_criterion_02_known_shape_diagrams():
    square = euclidean_matrix([[0, 0], [1, 0], [1, 1], [0, 1]])
    h1 = capped_exact_diagrams(square).in_dim(1).bars
    assert len(h1) == 1
    assert abs(h1[0][0] - 1.0) <= 1e-9 and abs(h1[0][1] - np.sqrt(2.0)) <= 1e-9

    two = euclidean_matrix([[0.0], [0.37]])
    h0 = capped_exact_diagrams(two).bars
    assert h0 == [(0.0, 0.37, 0), (0.0, np.inf, 0)]

    triangle = euclidean_matrix([[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]])
    assert capped_exact_diagrams(triangle).in_dim(1).bars == []
    report(2, "unit square H1=(1, sqrt2), two-point H0, empty equilateral H1")


def test_criterion_03_preservation_bit_identical(monkeypatch):
    # no blend can beat an infinite margin, so every guard rejects
    monkeypatch.setattr(local_residual, "DELTA_LOC", np.inf)
    checked = 0
    for name, builder in BUILDERS:
        for seed in SEEDS:
            ctx = offset0_context(builder, seed)
            calibration = calibrate_cell(ctx, seed)
            global_cache: dict = {}
            for base_id in ("classical", "static_h1"):
                _, y_global = run_mode_detailed(
                    ctx, BY_ID[base_id], seed, calibration, global_cache=global_cache
                )
                result, y_forced = run_mode_detailed(
                    ctx, BY_ID[base_id + "_resid"], seed, calibration, global_cache=global_cache
                )
                assert result.alpha_loc == 0.0
                assert y_forced.tobytes() == y_global.tobytes(), (
                    f"{name} seed {seed} {base_id}: forced-reject output differs from global"
                )
                checked += 1
    report(3, f"{checked} forced-rejection runs bit-identical to the global pipeline")


def test_criterion_04_containment_reproduces_zeng():
    for name, builder in BUILDERS:
        ctx = offset0_context(builder, 1)
        calibration = calibrate_cell(ctx, 1)
        _, zeng_pred = run_mode_detailed(ctx, BY_ID["zeng_local_h0"], 1, calibration)
        restricted = restricted_phi_refit(ctx)
        gap = float(np.max(np.abs(zeng_pred - restricted)))
        assert gap <= 1e-8, f"{name}: containment gap {gap:.2e}"
    report(4, "restricting the residual's Phi to the D0+/- columns reproduces the Zeng baseline (max-abs <= 1e-8)")


def test_criterion_05_temperature_gradients():
    ctx = offset0_context(gen_higher_topology, 1)
    rng = np.random.default_rng(55)
    train = ctx.train_rows
    idx = rng.choice(train.stop - train.start, size=20, replace=False)
    windows = ctx.scaled[train][idx]
    targets = ctx.ds.targets[train][idx]
    stacks_full = ctx.stacks_for(CHANNELS, seed=1)
    stacks = {c: stacks_full[c][train][idx] for c in CHANNELS}
    attn = init_attention_params(windows.shape[2], seed=1)
    alpha = rng.normal(scale=0.4, size=len(CHANNELS))
    head_w = rng.normal(scale=0.1, size=5 * windows.shape[2])
    head_b = float(rng.normal())
    params = dict(zip(TRAIN_PARAMS, (alpha, attn.w_query, attn.w_key, head_w, head_b)))

    _, grads = temperature_loss_and_grads(windows, targets, stacks, CHANNELS, params)
    h = 1e-5
    worst = 0.0
    for c in range(len(CHANNELS)):
        up, down = alpha.copy(), alpha.copy()
        up[c] += h
        down[c] -= h
        l_up, _ = temperature_loss_and_grads(windows, targets, stacks, CHANNELS, {**params, "alpha": up})
        l_dn, _ = temperature_loss_and_grads(windows, targets, stacks, CHANNELS, {**params, "alpha": down})
        fd = (l_up - l_dn) / (2 * h)
        rel = abs(grads["alpha"][c] - fd) / max(abs(fd), abs(grads["alpha"][c]), 1e-8)
        worst = max(worst, rel)
        assert rel <= 1e-4, f"alpha[{CHANNELS[c]}] gradient off by rel {rel:.2e}"
    report(5, f"all 7 alpha gradients match central differences (worst rel {worst:.2e})")


def test_criterion_06_no_leakage_mutation(campaign_state):
    clean_results = {r.key(): r for r in campaign_state["results"]}
    clean_ledgers = campaign_state["ledgers"]
    # the test rows depend on the offset, so each offset gets its own fresh
    # campaign on datasets whose test targets there are zero; a fit that
    # read a test target would then move a validation-side number below
    mutated_results, mutated_ledgers = [], {}
    for offset in SPLIT_OFFSETS:
        rows, ledgers = run_campaign(
            [functools.partial(zeroed_test_targets, b, offset) for _, b in BUILDERS],
            seeds=SEEDS, offsets=(offset,), n_workers=2,
        )
        mutated_results += rows
        mutated_ledgers.update(ledgers)
    assert set(clean_ledgers) == set(mutated_ledgers)
    assert len(mutated_results) == len(clean_results)
    for key in clean_ledgers:
        assert clean_ledgers[key][0] == mutated_ledgers[key][0], f"ledger bytes changed for {key}"
        assert clean_ledgers[key][1] == mutated_ledgers[key][1], f"ledger hash changed for {key}"
    changed_metrics = 0
    for r in mutated_results:
        clean = clean_results[r.key()]
        assert r.val_rmse == clean.val_rmse, f"val RMSE changed for {r.key()}"
        assert r.penalty == clean.penalty, f"selected lambda changed for {r.key()}"
        assert r.strengths == clean.strengths, f"selected strengths changed for {r.key()}"
        assert r.alpha_loc == clean.alpha_loc, f"alpha_loc changed for {r.key()}"
        assert r.ledger_hash == clean.ledger_hash
        if r.test_rmse != clean.test_rmse:
            changed_metrics += 1
    assert changed_metrics > 0, "zeroing test targets should change test metrics"
    report(6, f"calibrations/selections byte-stable under test-target zeroing "
              f"({len(mutated_results)} rows, {changed_metrics} test metrics moved)")


def test_pinned_campaign_bytes(campaign_state):
    differences = MANIFESTS.manifest_differences(MANIFESTS.PINNED_MANIFEST, campaign_state["out_dir"])
    assert not differences, "pinned campaign bytes moved:\n" + "\n".join(differences)


def test_criterion_07_directional_reproduction(campaign_state):
    results = campaign_state["results"]
    elapsed = campaign_state["elapsed"]
    bars = {"stress": 0.50, "cyclic": 0.10}
    lines = []
    for dataset, bar in bars.items():
        for seed in SEEDS:
            cell = [r for r in results if r.dataset == dataset and r.seed == seed and r.split_offset == 0.0]
            classical = next(r for r in cell if r.mode_id == "classical")
            topo = [r for r in cell if r.mode_id in TOPOLOGY_MODE_IDS]
            chosen = select_by_validation(topo)
            reduction = (classical.test_rmse - chosen.test_rmse) / classical.test_rmse
            lines.append(f"{dataset} seed {seed}: {chosen.mode_id} {reduction:+.1%}")
            assert reduction >= bar, (
                f"{dataset} seed {seed}: best topology mode {chosen.mode_id} reduction "
                f"{reduction:.1%} below the {bar:.0%} bar (classical {classical.test_rmse:.4f}, "
                f"selected {chosen.test_rmse:.4f})"
            )
    assert elapsed < 600.0, f"campaign took {elapsed:.0f}s"
    report(7, f"campaign {elapsed:.0f}s; " + "; ".join(lines))


def test_criterion_08_audit_statistics():
    p_exact = signflip_p(np.full(10, 1.0))
    assert abs(p_exact - 2.0 / 1024.0) <= 1e-15

    rng = np.random.default_rng(12)
    d = rng.normal(0.5, 1.0, size=12)
    exact = signflip_p(d)
    mc = signflip_p(d, max_exact_n=0, n_resamples=100000, seed=3)
    se = np.sqrt(max(exact * (1 - exact), 1e-12) / 100000)
    assert abs(mc - exact) <= 3 * se + 2.0 / 100000

    from topoattn.audit import PairedUnit

    units = [PairedUnit("d", i, 0.0, 1.0, 0.75) for i in range(9)]
    ci_a = bootstrap_ci(units, seed=4)
    ci_b = bootstrap_ci(units, seed=4)
    assert ci_a == ci_b
    assert ci_a[0] == ci_a[1] == pytest.approx(0.25, abs=1e-12)
    report(8, f"exact p=2/1024 ({p_exact:.6g}), MC within 3 SE, bootstrap deterministic/zero-width")


def test_criterion_09_shape_contract(tmp_path):
    assert gen_higher_topology(1).shape == (300, 32, 2)
    assert gen_cyclic_h1(1).shape == (260, 24, 3)
    assert gen_shell_h2(1).shape == (260, 24, 3)

    co2 = build_co2_windows(np.linspace(310.0, 340.0, 120))
    assert co2.windows.shape[1:] == (30, 3)

    rng = np.random.default_rng(5)
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, 200)))
    vol = build_volatility_windows(prices)
    assert vol.windows.shape[1:] == (40, 6)

    n = 120
    trend = np.linspace(0.0, 2.0, n)
    ims = ims_health_indicator(
        trend + rng.normal(0, 0.05, n) + 1.0,
        0.5 * trend + rng.normal(0, 0.05, n) + 1.0,
        3.0 + 0.2 * trend + rng.normal(0, 0.05, n),
        name="ims1_b1",
    )
    assert ims.windows.shape[1] == 24
    ims2 = ims_health_indicator(
        trend + rng.normal(0, 0.05, n) + 1.0,
        0.5 * trend + rng.normal(0, 0.05, n) + 1.0,
        3.0 + 0.2 * trend + rng.normal(0, 0.05, n),
        name="ims2_b1",
    )
    assert ims2.windows.shape[1] == 24
    report(9, "tensor shapes [300,32,2], [260,24,3], [260,24,3]; window lengths 30/40/24/24")


def test_criterion_10_table_schema_emission(campaign_state):
    from topoattn.audit import audit_results_dir
    from topoattn.protocol import RESULT_HEADER

    out_dir = campaign_state["out_dir"]
    header = (out_dir / "results.csv").read_text().splitlines()[0]
    assert header == RESULT_HEADER
    summary, breakdown = audit_results_dir(out_dir)
    audit_header = (out_dir / "audit_summary.csv").read_text().splitlines()[0]
    assert audit_header == (
        "architecture,units,improved,worsened,tied,mean_relative_reduction,ci_lo,ci_hi,d_z,p_value"
    )
    dataset_header = (out_dir / "audit_by_dataset.csv").read_text().splitlines()[0]
    assert dataset_header == (
        "dataset,units,improved,worsened,tied,baseline_rmse,guarded_rmse,mean_relative_reduction"
    )
    assert summary.units == len(breakdown) * 9  # 3 datasets x 3 seeds x 3 splits
    assert summary.improved + summary.worsened + summary.tied == summary.units
    assert (out_dir / "audit_bars.svg").exists()
    report(10, f"result/audit schemas emitted; {summary.units} paired units, "
               f"mean reduction {summary.mean_relative_reduction:.1%}, p={summary.p_value:.2e}")
