"""Paired audit statistics: exactness, determinism, invariances."""

import json

import numpy as np
import pytest

from topoattn import audit
from topoattn.audit import (
    PairedUnit,
    audit_results_dir,
    audit_units,
    bootstrap_ci,
    effect_size_dz,
    pair_units,
    per_dataset_breakdown,
    relative_reduction,
    signflip_p,
    unit_counts,
)
from topoattn.errors import InvalidInput


def unit(baseline, guarded, dataset="d", seed=1, offset=0.0):
    return PairedUnit(dataset, seed, offset, baseline, guarded)


class TestRelativeReduction:
    def test_halving(self):
        assert relative_reduction(unit(0.5, 0.25)) == 0.5

    def test_tie(self):
        u = unit(0.3, 0.3)
        assert relative_reduction(u) == 0.0
        improved, worsened, tied = unit_counts([u])
        assert (improved, worsened, tied) == (0, 0, 1)

    def test_counts_sum(self):
        rng = np.random.default_rng(0)
        units = [unit(b, g) for b, g in rng.uniform(0.1, 1.0, (25, 2))]
        units.append(unit(0.4, 0.4))
        improved, worsened, tied = unit_counts(units)
        assert improved + worsened + tied == len(units)


class TestBootstrap:
    def test_zero_width_on_constant_units(self):
        units = [unit(1.0, 0.8) for _ in range(10)]
        lo, hi = bootstrap_ci(units, seed=3)
        assert lo == hi == pytest.approx(0.2, abs=1e-12)

    def test_contains_point_estimate(self):
        rng = np.random.default_rng(1)
        units = [unit(b, g) for b, g in rng.uniform(0.2, 1.0, (30, 2))]
        point = np.mean([relative_reduction(u) for u in units])
        lo, hi = bootstrap_ci(units, seed=0)
        assert lo <= point <= hi

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        units = [unit(b, g) for b, g in rng.uniform(0.2, 1.0, (12, 2))]
        assert bootstrap_ci(units, seed=7) == bootstrap_ci(units, seed=7)
        assert bootstrap_ci(units, seed=7) != bootstrap_ci(units, seed=8)

    def test_half_b_same_seed_prefix_close(self, monkeypatch):
        rng = np.random.default_rng(3)
        units = [unit(b, g) for b, g in rng.uniform(0.2, 1.0, (40, 2))]
        full = bootstrap_ci(units, seed=0)  # BOOTSTRAP_B = 10000
        monkeypatch.setattr(audit, "BOOTSTRAP_B", 5000)
        half = bootstrap_ci(units, seed=0)
        assert full != half
        for a, b in zip(full, half):
            assert abs(a - b) <= 0.005 * max(1.0, abs(a))

    def test_empty_units(self):
        with pytest.raises(InvalidInput):
            bootstrap_ci([])


class TestEffectSize:
    def test_zero_variance_sentinel(self):
        with pytest.warns(UserWarning):
            assert effect_size_dz(np.full(5, 0.5)) == np.inf

    def test_plus_minus_one(self):
        assert effect_size_dz(np.array([1.0, -1.0])) == 0.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(4)
        imps = rng.normal(size=12)
        assert effect_size_dz(imps) == pytest.approx(-effect_size_dz(-imps))


class TestSignFlip:
    def test_exact_all_positive_equal(self):
        p = signflip_p(np.full(10, 0.3))
        assert abs(p - 2.0 / 1024.0) <= 1e-15

    def test_symmetric_pair(self):
        assert signflip_p(np.array([0.4, -0.4])) == 1.0

    def test_monte_carlo_close_to_exact(self):
        rng = np.random.default_rng(5)
        d = rng.normal(0.4, 1.0, size=12)
        exact = signflip_p(d)
        mc = signflip_p(d, max_exact_n=0, n_resamples=100000, seed=1)
        se = np.sqrt(exact * (1 - exact) / 100000)
        assert abs(mc - exact) <= 3 * se + 2.0 / 100000

    def test_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for n in (1, 3, 10, 25):
            d = rng.normal(size=n)
            p = signflip_p(d, seed=2)
            assert 0.0 < p <= 1.0

    def test_scale_invariant(self):
        rng = np.random.default_rng(7)
        d = rng.normal(size=11)
        assert signflip_p(d) == signflip_p(17.0 * d)


class TestReports:
    def make_rows(self):
        from topoattn.protocol import RunResult

        rows = []
        rng = np.random.default_rng(8)
        for ds in ("a", "b"):
            for seed in (1, 2):
                for offset in (0.0, 0.05):
                    base = float(rng.uniform(0.5, 1.0))
                    rows.append(RunResult(ds, "classical", seed, offset, 0.5, base, base, None, 1.0, {}, "h"))
                    rows.append(RunResult(ds, "static_h1", seed, offset, 0.4, base * 0.7, base * 0.7, None, 1.0, {"H1": 0.5}, "h"))
        return rows

    def test_pair_units_and_summary(self):
        rows = self.make_rows()
        units = pair_units(rows)
        assert len(units) == 8
        summary = audit_units(units)
        assert summary.architecture == "lightweight_attention_ridge"
        assert summary.units == 8
        assert summary.improved == 8
        assert summary.mean_relative_reduction == pytest.approx(0.3)

    def test_missing_baseline(self):
        rows = [r for r in self.make_rows() if r.mode_id != "classical"]
        with pytest.raises(InvalidInput):
            pair_units(rows)

    def test_breakdown_and_writers(self, tmp_path):
        from topoattn.protocol import write_results_csv

        rows = self.make_rows()
        units = pair_units(rows)
        breakdown = per_dataset_breakdown(units)
        assert [r["dataset"] for r in breakdown] == ["a", "b"]
        assert all(r["units"] == 4 for r in breakdown)
        write_results_csv(tmp_path / "results.csv", rows)
        summary, written = audit_results_dir(tmp_path)
        assert summary == audit_units(units) and written == breakdown
        lines = (tmp_path / "audit_summary.csv").read_bytes().decode().split("\r\n")
        assert lines[0] == (
            "architecture,units,improved,worsened,tied,mean_relative_reduction,ci_lo,ci_hi,d_z,p_value"
        )
        assert lines[1].split(",") == [
            "lightweight_attention_ridge", "8", "8", "0", "0",
            *map(repr, (summary.mean_relative_reduction, summary.ci_lo, summary.ci_hi, summary.d_z, summary.p_value)),
        ]
        lines = (tmp_path / "audit_by_dataset.csv").read_bytes().decode().split("\r\n")
        assert lines[0] == "dataset,units,improved,worsened,tied,baseline_rmse,guarded_rmse,mean_relative_reduction"
        assert lines[1].split(",")[:5] == ["a", "4", "4", "0", "0"]
        assert lines[1].split(",")[5] == repr(breakdown[0]["baseline_rmse"]) and lines[3] == ""
        paired = json.loads((tmp_path / "paired_units.json").read_text())
        assert paired[0] == {"dataset": "a", "seed": 1, "split_offset": 0.0,
                             "baseline_rmse": units[0].baseline_rmse, "guarded_rmse": units[0].guarded_rmse}
        svg = (tmp_path / "audit_bars.svg").read_text()
        assert svg.startswith("<svg") and "rect" in svg
        assert not list(tmp_path.glob("*.tmp"))
