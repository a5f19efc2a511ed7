"""Generators, real loaders, splits, scaling: shapes, determinism, leakage."""

import csv
import functools
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from topoattn.datasets import (
    CO2_WINDOW,
    HI_MEDIAN_WINDOW,
    HI_ROLLING_WINDOW,
    HI_WEIGHTS,
    IMS_FIT_FRACTION,
    IMS_WINDOW,
    VOL_HORIZON,
    VOL_ROLL,
    VOL_WINDOW,
    ScalerState,
    SPLIT_FRACTIONS,
    SPLIT_OFFSETS,
    WindowedDataset,
    _trailing_mean,
    _trailing_median,
    apply_scaler,
    build_co2_windows,
    build_volatility_windows,
    chronological_split,
    export_dataset,
    fit_scaler,
    gen_cyclic_h1,
    gen_higher_topology,
    gen_shell_h2,
    ims_health_indicator,
    load_ims_set,
    load_series_csv,
)
from topoattn.errors import DatasetSkipped, InvalidInput
from topoattn.protocol import run_campaign


class TestStress:
    def test_shape(self):
        assert gen_higher_topology(1).shape == (300, 32, 2)

    def test_deterministic_bytes(self):
        a, b = gen_higher_topology(4), gen_higher_topology(4)
        assert a.windows.tobytes() == b.windows.tobytes()
        assert a.targets.tobytes() == b.targets.tobytes()
        c = gen_higher_topology(5)
        assert a.windows.tobytes() != c.windows.tobytes()

    def test_marginal_matching_over_seeds(self):
        # per-coordinate means/stds of the two classes agree within 0.1
        gaps_mean, gaps_std = [], []
        for seed in range(20):
            ds = gen_higher_topology(seed)
            labels = np.round(ds.targets)
            loop = ds.windows[labels == 1].reshape(-1, 2)
            scram = ds.windows[labels == 0].reshape(-1, 2)
            gaps_mean.append(np.abs(loop.mean(0) - scram.mean(0)).max())
            gaps_std.append(np.abs(loop.std(0) - scram.std(0)).max())
        assert max(gaps_mean) < 0.1 and max(gaps_std) < 0.1

    def test_loop_class_rounder_than_scramble(self):
        ds = gen_higher_topology(2, noise=0.0, label_noise=0.0)

        def radius_cv(windows):
            radii = np.linalg.norm(windows - windows.mean(axis=1, keepdims=True), axis=2)
            return radii.std(axis=1) / radii.mean(axis=1)

        loop_cv = radius_cv(ds.windows[ds.targets == 1.0])
        scram_cv = radius_cv(ds.windows[ds.targets == 0.0])
        # standardized circles stay ring-like; scrambles fill the plane
        assert np.median(loop_cv) < 0.2
        assert np.median(loop_cv) < 0.5 * np.median(scram_cv)

    def test_balanced_classes(self):
        labels = np.round(gen_higher_topology(3, label_noise=0.0).targets)
        assert labels.sum() == 150


class TestCyclic:
    def test_shape(self):
        assert gen_cyclic_h1(1).shape == (260, 24, 3)

    def test_target_is_analytic_primary_next_value(self):
        # replicate the generator's draw order to obtain the analytic
        # parameters, then check the target formula exactly
        seed = 6
        ds = gen_cyclic_h1(seed, noise=0.0)
        rng = np.random.default_rng(np.random.SeedSequence([102, seed]))
        t = np.arange(24, dtype=np.float64)
        for w in range(10):
            amp = rng.uniform(0.5, 1.5)
            freq = rng.uniform(0.25, 0.45)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            rng.uniform(0.0, 2.0 * np.pi)  # auxiliary phase
            epi_amp = amp * rng.uniform(0.3, 0.6)
            epi_freq = rng.uniform(2.2, 2.9)
            epi_phase = rng.uniform(0.0, 2.0 * np.pi)
            rng.normal(0.0, 0.0, (24, 3))  # noise draw keeps the stream aligned
            assert np.isclose(ds.targets[w], amp * np.sin(freq * 24 + phase), atol=1e-12)
            expected_primary = amp * np.sin(freq * t + phase) + epi_amp * np.sin(epi_freq * t + epi_phase)
            assert np.allclose(ds.windows[w, :, 0], expected_primary, atol=1e-12)

    def test_deterministic(self):
        assert gen_cyclic_h1(9).windows.tobytes() == gen_cyclic_h1(9).windows.tobytes()


class TestShell:
    def test_shape(self):
        assert gen_shell_h2(1).shape == (260, 24, 3)

    def test_shell_radius_exceeds_ball(self):
        ds = gen_shell_h2(2)
        radii = np.linalg.norm(ds.windows, axis=2).mean(axis=1)
        assert radii[ds.targets == 1.0].mean() > radii[ds.targets == 0.0].mean()

    def test_class_balance_over_seeds(self):
        fractions = [gen_shell_h2(seed).targets.mean() for seed in range(20)]
        assert 0.45 <= np.mean(fractions) <= 0.55


class TestSeriesCsv:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("timestamp,value\n1,10.5\n2,11.0\n3,12.25\n")
        assert np.array_equal(load_series_csv(path), [10.5, 11.0, 12.25])

    def test_out_of_order_names_row(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("timestamp,value\n1,10\n3,11\n2,12\n")
        with pytest.raises(InvalidInput, match="row 3"):
            load_series_csv(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_timestamp_names_row(self, tmp_path, bad):
        # a NaN compares false both ways, so the row after it would skip the order check
        path = tmp_path / "series.csv"
        path.write_text(f"timestamp,value\n1,10\n{bad},11\n0,12\n")
        with pytest.raises(InvalidInput, match=f"row 2: timestamp '{bad}' is not finite"):
            load_series_csv(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("time,value\n1,10\n")
        with pytest.raises(InvalidInput, match="timestamp"):
            load_series_csv(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("timestamp,value\n1,10\n2,oops\n")
        with pytest.raises(InvalidInput, match="row 2"):
            load_series_csv(path)


    def test_iso_dates_load_in_order(self, tmp_path):
        # string timestamps are compared as strings, which orders ISO dates
        path = tmp_path / "series.csv"
        path.write_text("timestamp,value\n2024-01-30,1.5\n2024-02-01,2.5\n2024-02-15,3.5\n")
        assert np.array_equal(load_series_csv(path), [1.5, 2.5, 3.5])


class TestCo2Windows:
    def test_shape_and_season(self):
        series = np.linspace(300.0, 360.0, 90)
        ds = build_co2_windows(series)
        assert ds.shape == (60, 30, 3)
        season_sq = ds.windows[..., 1] ** 2 + ds.windows[..., 2] ** 2
        assert np.allclose(season_sq, 1.0, atol=1e-12)

    def test_target_follows_window(self):
        series = np.arange(50, dtype=np.float64)
        ds = build_co2_windows(series)
        for k in range(len(ds.targets)):
            assert ds.targets[k] == series[k + 30]
            assert ds.windows[k, -1, 0] == series[k + 29]

    def test_too_short(self):
        with pytest.raises(InvalidInput):
            build_co2_windows(np.ones(20))


class TestVolatilityWindows:
    def test_constant_returns_analytic_target(self):
        r = 0.01
        prices = 100.0 * np.exp(r * np.arange(80))
        ds = build_volatility_windows(prices)
        assert np.allclose(ds.targets, abs(r) * np.sqrt(252.0), atol=1e-12)

    def test_shape(self):
        rng = np.random.default_rng(0)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 120)))
        ds = build_volatility_windows(prices)
        assert ds.shape == (120 - 1 - 39 - 5, 40, 6)

    def test_future_mutation_leaves_train_features(self):
        rng = np.random.default_rng(1)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 120)))
        base = build_volatility_windows(prices)
        mutated_prices = prices.copy()
        mutated_prices[100:] *= rng.uniform(1.5, 2.0, 20)
        mutated = build_volatility_windows(mutated_prices)
        # windows ending before the mutation point are untouched
        assert np.array_equal(base.windows[:40], mutated.windows[:40])

    def test_nonpositive_prices(self):
        with pytest.raises(InvalidInput):
            build_volatility_windows(np.array([1.0, -2.0, 3.0] * 30))


class TestIms:
    def make_features(self, n=120, trend=True, seed=0):
        rng = np.random.default_rng(seed)
        base = np.linspace(0.0, 3.0, n) if trend else np.zeros(n)
        rms = base + rng.normal(0, 0.1, n) + 1.0
        std = 0.5 * base + rng.normal(0, 0.1, n) + 1.0
        kurt = 3.0 + 0.2 * base + rng.normal(0, 0.1, n)
        return rms, std, kurt

    def test_windows_and_target_chain(self):
        rms, std, kurt = self.make_features()
        ds = ims_health_indicator(rms, std, kurt, name="b1")
        assert ds.windows.shape[1] == 24
        assert ds.windows.shape[2] == 1 + 3  # HI + z-features for one channel
        # replicate the documented HI chain as an oracle: z-scores fitted on
        # the snapshots of the first 65% of windows, then trailing filters
        fit = 24 + int(0.65 * (len(rms) - 24))

        def z(x):
            return (x - x[:fit].mean()) / max(x[:fit].std(), 1e-8)

        hi = 0.55 * z(rms) + 0.25 * z(std) + 0.20 * z(kurt)
        sm = np.array([np.median(hi[max(0, i - 4): i + 1]) for i in range(len(hi))])
        roll = np.array([sm[max(0, i - 6): i + 1].mean() for i in range(len(sm))])
        trend = np.maximum.accumulate(np.maximum(roll, 0.0))
        assert np.allclose(ds.targets, trend[24:], atol=1e-12)

    def test_no_window_reads_a_later_snapshot(self):
        # perturbing every raw snapshot after window k's target moves
        # neither window k's tokens nor its target, for each k whose target
        # is at or after the last snapshot the z-scores are fitted on
        rms, std, kurt = self.make_features(n=150)
        ds = ims_health_indicator(rms, std, kurt, name="b1")
        n_windows = len(ds.targets)
        fit = IMS_WINDOW + int(IMS_FIT_FRACTION * n_windows)
        rng = np.random.default_rng(5)
        moved_later = []
        for k in range(fit - IMS_WINDOW - 1, n_windows - 1):
            later = slice(k + IMS_WINDOW + 1, None)
            moved = [x.copy() for x in (rms, std, kurt)]
            for x in moved:
                x[later] *= rng.uniform(1.5, 3.0, len(x[later]))
            perturbed = ims_health_indicator(*moved, name="b1")
            assert perturbed.windows[k].tobytes() == ds.windows[k].tobytes(), k
            assert perturbed.targets[k] == ds.targets[k], k
            moved_later.append(not np.array_equal(perturbed.targets[k + 1 :], ds.targets[k + 1 :]))
        assert sum(moved_later) > len(moved_later) // 2  # the perturbations reach later targets

    def test_training_rows_ignore_the_last_snapshots(self, tmp_path):
        # the snapshots after the z-score prefix (the targets of the last
        # 35% of windows) move no training row of the earliest split
        # offset of an interleaved two-bearing set
        assert IMS_FIT_FRACTION == pytest.approx(SPLIT_FRACTIONS[0] + min(SPLIT_OFFSETS))
        n_snapshots = len(IMS_ROWS) // 4
        fit = IMS_WINDOW + int(IMS_FIT_FRACTION * (n_snapshots - IMS_WINDOW))
        rng = np.random.default_rng(8)
        moved = [
            row[:2] + [repr(float(v) * rng.uniform(1.5, 3.0)) for v in row[2:]] if int(row[0]) >= fit else row
            for row in IMS_ROWS
        ]
        clean = load_two_bearings(write_ims_csv(tmp_path / "clean.csv", IMS_ROWS))
        perturbed = load_two_bearings(write_ims_csv(tmp_path / "moved.csv", moved))
        train = chronological_split(len(clean.targets), min(SPLIT_OFFSETS))[0]
        rows = slice(train.start, train.stop)
        assert perturbed.windows[rows].tobytes() == clean.windows[rows].tobytes()
        assert perturbed.targets[rows].tobytes() == clean.targets[rows].tobytes()
        assert not np.array_equal(perturbed.targets, clean.targets)

    def test_zero_variance_feature_contributes_nothing(self):
        rms, std, kurt = self.make_features()
        flat = np.full_like(std, 2.0)
        with_flat = ims_health_indicator(rms, flat, kurt, name="b")
        # z-score of the constant column is identically zero
        assert np.allclose(with_flat.windows[..., 2], 0.0, atol=1e-12)

    def test_degenerate_target_skipped(self):
        rms, std, kurt = self.make_features(trend=False)
        flat = np.full(120, 1.0)
        with pytest.raises(DatasetSkipped, match="variance"):
            ims_health_indicator(flat, flat, flat, name="dead_bearing")

    def test_load_ims_set(self, tmp_path):
        rng = np.random.default_rng(3)
        lines = ["snapshot,channel,rms,std,kurt"]
        n = 80
        for snap in range(n):
            for chan in (1, 2, 3, 4):
                level = snap / n * (2.0 if chan <= 2 else 0.0)
                lines.append(
                    f"{snap},{chan},{1 + level + rng.normal(0, 0.05):.6f},"
                    f"{1 + 0.5 * level + rng.normal(0, 0.05):.6f},"
                    f"{3 + 0.2 * level + rng.normal(0, 0.05):.6f}"
                )
        path = tmp_path / "ims.csv"
        path.write_text("\n".join(lines) + "\n")
        ds = load_ims_set(path, groups=((1, 2), (3, 4)), name="ims_toy")
        assert ds.windows.shape[1] == 24
        assert ds.windows.shape[2] == 1 + 3 * 2  # HI + z features for 2 channels

    def test_load_ims_set_missing_channel(self, tmp_path):
        lines = ["snapshot,channel,rms,std,kurt"]
        for snap in range(60):
            for chan in (1, 2):
                if (snap, chan) != (17, 2):
                    lines.append(f"{snap},{chan},{1 + snap / 60:.4f},1.0,3.0")
        path = tmp_path / "gap.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidInput, match="snapshot 17 has no row for channel 2"):
            load_ims_set(path, groups=((1,), (2,)), name="gap")

    def test_load_ims_set_duplicate_row(self, tmp_path):
        rms, std, kurt = (x.tolist() for x in self.make_features(n=80))
        lines = ["snapshot,channel,rms,std,kurt"]
        lines += [f"{snap},1,{rms[snap]!r},{std[snap]!r},{kurt[snap]!r}" for snap in range(80)]
        clean = tmp_path / "clean.csv"
        clean.write_text("\n".join(lines) + "\n")
        load_ims_set(clean, groups=((1,),), name="clean")  # loads without the extra row
        lines.append(f"5,1,{rms[5] + 1.0!r},{std[5]!r},{kurt[5]!r}")
        path = tmp_path / "dup.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidInput, match=r"dup.csv: row 81: snapshot 5 has a second row for channel 1"):
            load_ims_set(path, groups=((1,),), name="dup")

    def test_load_ims_set_non_finite(self, tmp_path):
        for bad in ("nan", "inf", "-inf"):
            lines = ["snapshot,channel,rms,std,kurt"]
            for snap in range(60):
                for chan in (1, 2):
                    kurt = bad if (snap, chan) == (10, 2) else "3.0"
                    lines.append(f"{snap},{chan},{1 + snap / 60:.4f},1.0,{kurt}")
            path = tmp_path / "nonfinite.csv"
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(InvalidInput, match="row 22: rms/std/kurt are not all finite"):
                load_ims_set(path, groups=((1,), (2,)), name="nonfinite")

    def test_load_ims_set_all_degenerate(self, tmp_path):
        lines = ["snapshot,channel,rms,std,kurt"]
        for snap in range(60):
            for chan in (1,):
                lines.append(f"{snap},{chan},1.0,1.0,3.0")
        path = tmp_path / "flat.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetSkipped):
            load_ims_set(path, groups=((1,),), name="flat")


# Input checks of the loaders and builders, one case each. The loaders name
# the file, and the 1-based data row where their docstrings promise it.
load_one_bearing = functools.partial(load_ims_set, groups=((1,),))
LOADER_CHECKS = {
    "series_empty_file": (load_series_csv, "", "empty file"),
    "series_iso_out_of_order": (
        load_series_csv, "timestamp,value\n2024-01-01,1\n2024-01-03,2\n2024-01-02,3\n",
        "row 3: timestamp out of order",
    ),
    "series_non_finite_value": (load_series_csv, "timestamp,value\n1,10\n2,inf\n", "row 2: value is not finite"),
    "series_mixed_timestamps": (
        load_series_csv, "timestamp,value\n1,10\n2024-01-01,11\n", "row 2: mixed timestamp types",
    ),
    "ims_missing_columns": (load_one_bearing, "snapshot,channel,rms\n0,1,1.0\n", "expected columns"),
    "ims_non_numeric_entry": (
        load_one_bearing, "snapshot,channel,rms,std,kurt\n0,1,1.0,1.0,3.0\n1,1,1.0,x,3.0\n",
        "row 2: non-numeric entry",
    ),
}


@pytest.mark.parametrize(("load", "body", "message"), LOADER_CHECKS.values(), ids=LOADER_CHECKS)
def test_loader_input_checks(tmp_path, load, body, message):
    path = tmp_path / "input.csv"
    path.write_text(body)
    with pytest.raises(InvalidInput, match="^" + re.escape(f"{path}: {message}")):
        load(path)


BUILDER_CHECKS = {
    "windows_not_3d": (lambda: WindowedDataset("d", np.zeros((4, 3)), np.zeros(4)), InvalidInput,
                       "windows must be W x N x p"),
    "target_count": (lambda: WindowedDataset("d", np.zeros((4, 3, 2)), np.zeros(3)), InvalidInput,
                     "one target per window required"),
    "too_few_returns": (lambda: build_volatility_windows(np.exp(np.linspace(0.0, 1.0, VOL_WINDOW + VOL_HORIZON))),
                        InvalidInput, f"{VOL_WINDOW + VOL_HORIZON - 1} returns too short"),
    "too_few_snapshots": (lambda: ims_health_indicator(*[np.linspace(1.0, 2.0, IMS_WINDOW)] * 3, name="short"),
                          DatasetSkipped, f"short: only {IMS_WINDOW} snapshots"),
}


@pytest.mark.parametrize(("build", "error", "message"), BUILDER_CHECKS.values(), ids=BUILDER_CHECKS)
def test_builder_input_checks(build, error, message):
    with pytest.raises(error, match="^" + re.escape(message)):
        build()


IMS_COLUMNS = ("snapshot", "channel", "rms", "std", "kurt")


def two_bearing_ims_rows(n=60):
    """Data rows of a valid IMS CSV of ``n`` snapshots and channels 1-4:
    channels 1 and 2 wear fast, 3 and 4 slowly."""
    rng = np.random.default_rng(12)
    rows = []
    for snap in range(n):
        for chan in (1, 2, 3, 4):
            level = snap / n * (2.0 if chan <= 2 else 0.5)
            values = (1 + level, 1 + 0.5 * level, 3 + 0.2 * level) + rng.normal(0.0, 0.05, 3)
            rows.append([str(snap), str(chan), *map(repr, values.tolist())])
    return rows


def write_ims_csv(path, rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(IMS_COLUMNS)
        writer.writerows(rows)
    return path


IMS_ROWS = two_bearing_ims_rows()
load_two_bearings = functools.partial(load_ims_set, groups=((1, 2), (3, 4)), name="ims_pair")


def _not_a_float(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


@pytest.fixture(scope="module")
def ims_pair(tmp_path_factory):
    """A temporary directory and the set the clean rows load to."""
    directory = tmp_path_factory.mktemp("ims_pair")
    return directory, load_two_bearings(write_ims_csv(directory / "clean.csv", IMS_ROWS))


class TestImsLoaderProperties:
    @given(order=st.permutations(range(len(IMS_ROWS))))
    def test_any_row_order_loads_the_same_set(self, ims_pair, order):
        directory, clean = ims_pair
        ds = load_two_bearings(write_ims_csv(directory / "shuffled.csv", [IMS_ROWS[i] for i in order]))
        assert ds.windows.tobytes() == clean.windows.tobytes()
        assert ds.targets.tobytes() == clean.targets.tobytes()

    @given(
        row=st.integers(0, len(IMS_ROWS) - 1),
        column=st.integers(0, len(IMS_COLUMNS) - 1),
        entry=st.one_of(
            st.text(st.characters(codec="ascii"), max_size=5).filter(_not_a_float),
            st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"]),
        ),
    )
    def test_one_corrupted_row_is_named(self, ims_pair, row, column, entry):
        # a non-numeric entry in any column, or a non-finite rms/std/kurt
        directory, _ = ims_pair
        rows = [list(r) for r in IMS_ROWS]
        rows[row][column] = entry
        path = write_ims_csv(directory / "corrupted.csv", rows)
        with pytest.raises(InvalidInput, match="^" + re.escape(f"{path}: row {row + 1}: ")):
            load_two_bearings(path)


class TestSplits:
    def test_canonical_split(self):
        tr, va, te = chronological_split(100, 0.0)
        assert (tr, va, te) == (range(0, 70), range(70, 85), range(85, 100))

    def test_offsets_distinct(self):
        sizes = set()
        for offset in SPLIT_OFFSETS:
            tr, _, _ = chronological_split(100, offset)
            sizes.add(len(tr))
        assert len(sizes) == 3

    def test_ordering(self):
        tr, va, te = chronological_split(137, 0.05)
        assert max(tr) < min(va) < max(va) < min(te)

    def test_invalid_boundaries(self):
        with pytest.raises(InvalidInput):
            chronological_split(3, 0.5)


class TestScaler:
    def test_train_standardization(self):
        rng = np.random.default_rng(4)
        windows = rng.normal(3.0, 2.5, size=(40, 10, 3))
        state = fit_scaler(windows)
        scaled = apply_scaler(state, windows).reshape(-1, 3)
        assert np.allclose(scaled.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(scaled.std(axis=0), 1.0, atol=1e-10)

    def test_mutating_test_windows_leaves_state(self):
        rng = np.random.default_rng(5)
        windows = rng.normal(size=(40, 8, 2))
        state = fit_scaler(windows[:28])
        before = (state.mean.copy(), state.std.copy())
        windows[28:] += 100.0
        assert np.array_equal(state.mean, before[0]) and np.array_equal(state.std, before[1])

    def test_constant_feature_scales_to_zero(self):
        windows = np.zeros((10, 4, 2))
        windows[..., 0] = 7.0
        state = fit_scaler(windows)
        scaled = apply_scaler(state, windows)
        assert np.all(scaled[..., 0] == 0.0)

    def test_apply_never_refits(self):
        state = ScalerState(mean=np.array([1.0]), std=np.array([2.0]))
        out = apply_scaler(state, np.full((3, 2, 1), 5.0))
        assert np.all(out == 2.0)

    @staticmethod
    def layouts(x):
        """The same values C-ordered, Fortran-ordered and as a transposed view."""
        return (np.ascontiguousarray(x), np.asfortranarray(x), np.ascontiguousarray(x.T).T)

    @pytest.mark.parametrize("shape", [(500, 3), (40, 10, 3), (120, 1)])
    def test_statistics_do_not_depend_on_memory_layout(self, shape):
        x = np.random.default_rng(6).normal(2.0, 3.0, shape)
        states = [fit_scaler(v) for v in self.layouts(x)]
        for state in states[1:]:
            assert state.mean.tobytes() == states[0].mean.tobytes()
            assert state.std.tobytes() == states[0].std.tobytes()

    def test_ims_indicator_does_not_depend_on_memory_layout(self):
        rng = np.random.default_rng(9)
        n, channels = 500, 3
        level = np.linspace(0.0, 3.0, n)[:, None]
        features = (1.0 + level + rng.normal(0, 0.1, (n, channels)),
                    1.0 + 0.5 * level + rng.normal(0, 0.1, (n, channels)),
                    3.0 + 0.2 * level + rng.normal(0, 0.1, (n, channels)))
        built = [ims_health_indicator(*arrays) for arrays in zip(*(self.layouts(f) for f in features))]
        for ds in built[1:]:
            assert ds.windows.tobytes() == built[0].windows.tobytes()
            assert ds.targets.tobytes() == built[0].targets.tobytes()


def test_export_dataset_roundtrip(tmp_path):
    ds = gen_shell_h2(1, n_windows=6, n_tokens=5)
    manifest = export_dataset(ds, tmp_path, seed=1)
    assert manifest["shape"] == [6, 5, 3]
    assert (tmp_path / "shell_windows.csv").exists()
    assert (tmp_path / "shell_targets.csv").exists()
    assert (tmp_path / "shell_manifest.json").exists()


# ---------------------------------------------------------------------------
# the loaders with one loop iteration per window, and the column z-score
# written out: byte oracles for the rolling-window helper and for the train
# scaler as the IMS z-score


def co2_oracle(series):
    window = CO2_WINDOW
    series = np.asarray(series, dtype=np.float64)
    n = len(series)
    months = np.arange(n)
    season = np.stack([np.sin(2 * np.pi * months / 12.0), np.cos(2 * np.pi * months / 12.0)], axis=1)
    n_windows = n - window
    windows = np.empty((n_windows, window, 3))
    targets = np.empty(n_windows)
    for k in range(n_windows):
        windows[k, :, 0] = series[k : k + window]
        windows[k, :, 1:] = season[k : k + window]
        targets[k] = series[k + window]
    return windows, targets


def volatility_oracle(prices):
    window, horizon, roll = VOL_WINDOW, VOL_HORIZON, VOL_ROLL
    returns = np.diff(np.log(np.asarray(prices, dtype=np.float64)))
    n = len(returns)
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
    ends = np.arange(window - 1, n - horizon)
    windows = np.empty((len(ends), window, 6))
    targets = np.empty(len(ends))
    for k, e in enumerate(ends):
        windows[k] = feats[e - window + 1 : e + 1]
        future = returns[e + 1 : e + 1 + horizon]
        targets[k] = np.sqrt(np.mean(future**2) * 252.0)
    return windows, targets


def zscore_columns_oracle(x, fit_rows=None):
    """Column z-scores of ``x`` with the mean and std of its first
    ``fit_rows`` rows (all by default)."""
    mean = x[:fit_rows].mean(axis=0)
    std = x[:fit_rows].std(axis=0)
    std = np.maximum(std, 1e-8)
    return (x - mean) / std


def ims_oracle(rms, std, kurt):
    fit = IMS_WINDOW + int(IMS_FIT_FRACTION * (len(rms) - IMS_WINDOW))
    z_rms, z_std, z_kurt = (zscore_columns_oracle(np.atleast_2d(x.T).T, fit) for x in (rms, std, kurt))
    hi = HI_WEIGHTS[0] * z_rms.mean(axis=1) + HI_WEIGHTS[1] * z_std.mean(axis=1) + HI_WEIGHTS[2] * z_kurt.mean(axis=1)
    hi = _trailing_median(hi, HI_MEDIAN_WINDOW)
    hi = _trailing_mean(hi, HI_ROLLING_WINDOW)
    hi = np.maximum.accumulate(np.maximum(hi, 0.0))
    n = len(hi)
    window = IMS_WINDOW
    tokens = np.concatenate([hi[:, None], z_rms, z_std, z_kurt], axis=1)
    n_windows = n - window
    windows = np.empty((n_windows, window, tokens.shape[1]))
    targets = np.empty(n_windows)
    for k in range(n_windows):
        windows[k] = tokens[k : k + window]
        targets[k] = hi[k + window]
    return windows, targets


def assert_same_bytes(ds, windows, targets):
    assert ds.windows.flags.c_contiguous and ds.targets.flags.c_contiguous
    assert ds.windows.shape == windows.shape and ds.targets.shape == targets.shape
    assert ds.windows.tobytes() == windows.tobytes()
    assert ds.targets.tobytes() == targets.tobytes()


class TestRollingWindowOracles:
    @pytest.mark.parametrize("n", [CO2_WINDOW + 1, 90, 400])
    def test_co2_matches_loop(self, n):
        series = 315.0 + np.cumsum(np.random.default_rng(n).normal(0.1, 0.5, n))
        assert_same_bytes(build_co2_windows(series), *co2_oracle(series))

    @pytest.mark.parametrize("n_prices", [VOL_WINDOW + VOL_HORIZON + 1, 120, 600])
    def test_volatility_matches_loop(self, n_prices):
        # the first windows hold the partial warm-up rows (fewer than
        # VOL_ROLL trailing returns)
        rng = np.random.default_rng(n_prices)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, n_prices)))
        ds = build_volatility_windows(prices)
        windows, targets = volatility_oracle(prices)
        assert_same_bytes(ds, windows, targets)
        assert not np.array_equal(ds.windows[0, 0, 2:], ds.windows[0, VOL_ROLL, 2:])

    @pytest.mark.parametrize("channels", [1, 2, 4])
    def test_ims_matches_loop(self, channels):
        rng = np.random.default_rng(channels)
        n = 150
        level = np.linspace(0.0, 3.0, n)[:, None]
        rms = 1.0 + level + rng.normal(0, 0.1, (n, channels))
        std = 1.0 + 0.5 * level + rng.normal(0, 0.1, (n, channels))
        kurt = 3.0 + 0.2 * level + rng.normal(0, 0.1, (n, channels))
        assert_same_bytes(ims_health_indicator(rms, std, kurt), *ims_oracle(rms, std, kurt))

    def test_ims_set_of_two_bearings_matches_loop(self, tmp_path):
        rng = np.random.default_rng(7)
        n = 90
        groups = ((1, 2), (3, 4))
        values = {c: [] for g in groups for c in g}
        lines = ["snapshot,channel,rms,std,kurt"]
        for snap in range(n):
            for chan in values:
                row = (1 + chan * snap / n + rng.normal(0, 0.05), 1 + 0.5 * snap / n + rng.normal(0, 0.05),
                       3 + rng.normal(0, 0.05))
                values[chan].append(row)
                lines.append(f"{snap},{chan}," + ",".join(repr(v) for v in row))
        path = tmp_path / "ims.csv"
        path.write_text("\n".join(lines) + "\n")
        per_group = []
        for chans in groups:
            table = np.array([[values[c][snap] for c in chans] for snap in range(n)])  # (snapshots, channels, 3)
            per_group.append(ims_oracle(*(np.ascontiguousarray(table[:, :, j]) for j in range(3))))
        windows = np.stack([w for w, _ in per_group], axis=1).reshape(-1, IMS_WINDOW, per_group[0][0].shape[-1])
        targets = np.stack([t for _, t in per_group], axis=1).reshape(-1)
        ds = load_ims_set(path, groups=groups, name="ims_toy")
        assert ds.windows.shape[0] == 2 * (n - IMS_WINDOW)
        assert_same_bytes(ds, windows, targets)

    @pytest.mark.parametrize("columns", [1, 2, 4])
    def test_train_scaler_is_the_column_zscore(self, columns):
        x = np.random.default_rng(columns).normal(2.0, 3.0, (120, columns))
        x[:, 0] = 5.0  # a constant column takes the 1e-8 floor
        assert apply_scaler(fit_scaler(x), x).tobytes() == zscore_columns_oracle(x).tobytes()

    def test_targets_do_not_alias_the_series(self):
        series = np.linspace(300.0, 360.0, 90)
        ds = build_co2_windows(series)
        ds.targets[0] = -1.0
        assert series[CO2_WINDOW] != -1.0


class TestNonFiniteValues:
    @pytest.mark.parametrize(
        "array, index, value",
        [("targets", (5,), np.nan), ("targets", (55,), np.nan), ("windows", (50, 3, 0), np.inf)],
        ids=["val_target_nan", "test_target_nan", "window_inf"],
    )
    def test_rejected_before_any_fit_or_write(self, tmp_path, array, index, value):
        clean = gen_cyclic_h1(1, n_windows=60, n_tokens=16)
        arrays = {"windows": clean.windows.copy(), "targets": clean.targets.copy()}
        arrays[array][index] = value
        message = re.escape(f"cyclic: {array}{list(index)} is not finite")
        with pytest.raises(InvalidInput, match=message):
            WindowedDataset("cyclic", arrays["windows"], arrays["targets"])
        # a campaign whose builder meets the bad value fits and writes nothing
        out = tmp_path / "out"
        with pytest.raises(InvalidInput, match=message):
            run_campaign([lambda seed: WindowedDataset("cyclic", arrays["windows"], arrays["targets"])],
                         seeds=(1,), offsets=(0.0,), mode_ids=["classical"], out_dir=out)
        assert not out.exists() or not any(out.rglob("*"))
