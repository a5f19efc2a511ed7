"""CLI: exit codes, determinism, config parsing, end-to-end run/audit."""

import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from topoattn.cli import ExperimentConfig, main
from topoattn.protocol import RESULT_HEADER


def run_cli(*args):
    return main(list(args))


class TestGenerate:
    def test_manifest_shape(self, tmp_path, capsys):
        assert run_cli("generate", "stress", "--seed", "1", "--out", str(tmp_path)) == 0
        manifest = json.loads((tmp_path / "stress_manifest.json").read_text())
        assert manifest["shape"] == [300, 32, 2]
        assert manifest["seed"] == 1

    def test_repeat_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("generate", "shell", "--seed", "2", "--out", str(a))
        run_cli("generate", "shell", "--seed", "2", "--out", str(b))
        for name in ("shell_windows.csv", "shell_targets.csv", "shell_manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_exported_values_are_plain_floats(self, tmp_path):
        run_cli("generate", "cyclic", "--seed", "1", "--out", str(tmp_path))
        body = (tmp_path / "cyclic_windows.csv").read_text()
        assert "np.float" not in body
        first_value = body.splitlines()[1].split(",")[2]
        float(first_value)  # parses as a number

    def test_unknown_dataset_exit_2(self, tmp_path, capsys):
        assert run_cli("generate", "nope", "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "stress" in err and "cyclic" in err and "shell" in err


class TestRun:
    def test_classical_only_run(self, tmp_path, capsys):
        out = tmp_path / "runs"
        code = run_cli(
            "run", "--datasets", "stress", "--modes", "classical",
            "--seeds", "1", "--offsets", "0.0", "--out", str(out),
        )
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 2
        # classical-only: ledger carries scalers but no topology calibrations
        ledger = json.loads(next((out / "ledgers").glob("*.json")).read_text())
        assert "scaler_mean" in ledger and "aet_directions" not in ledger

    def test_config_file_and_resume(self, tmp_path, capsys):
        out = tmp_path / "campaign"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "# comment line\n"
            "datasets = stress\n"
            "modes = classical, zeng_local_h0\n"
            "seeds = 1\n"
            "offsets = 0.0\n"
            f"out = {out}\n"
        )
        assert run_cli("run", "--config", str(cfg)) == 0
        first = (out / "results.csv").read_text()
        assert run_cli("run", "--config", str(cfg)) == 0
        assert "resuming" in capsys.readouterr().out
        assert (out / "results.csv").read_text() == first

    def test_narrower_rerun_keeps_model_files(self, tmp_path, capsys):
        out = tmp_path / "runs"
        args = ("run", "--datasets", "shell", "--offsets", "0.0", "--out", str(out))
        assert run_cli(*args, "--modes", "classical,static_h0", "--seeds", "1,2") == 0
        models = {seed: out / "models" / f"shell_s{seed}_op0_00.txt" for seed in (1, 2)}
        before = {seed: path.read_bytes() for seed, path in models.items()}
        assert b"head_weights = " in before[2]
        assert b"mode = static_h0" in before[1]  # selected over classical, which the rerun refits
        assert run_cli(*args, "--modes", "classical", "--seeds", "1") == 0
        assert {seed: path.read_bytes() for seed, path in models.items()} == before
        assert len((out / "selected.csv").read_text().splitlines()) == 3  # header + both cells

    def test_malformed_int_flags_exit_2(self, tmp_path, capsys):
        assert run_cli("run", "--workers", "two", "--out", str(tmp_path)) == 2
        assert run_cli("run", "--dataset-seed", "1.5", "--out", str(tmp_path)) == 2

    def test_unknown_mode_exit_2(self, tmp_path, capsys):
        assert run_cli("run", "--modes", "bogus", "--out", str(tmp_path)) == 2

    def test_real_dataset_without_csv_fails_actionably(self, tmp_path, capsys):
        code = run_cli("run", "--datasets", "co2", "--out", str(tmp_path))
        assert code == 1
        assert "timestamp,value" in capsys.readouterr().err

    def test_ims_snapshot_missing_channel_fails_actionably(self, tmp_path, capsys):
        csv = tmp_path / "ims2.csv"
        rows = [f"{snap},{chan},1.0,1.0,3.0" for snap in range(40) for chan in (1, 2, 3, 4)]
        rows.remove("7,3,1.0,1.0,3.0")
        csv.write_text("snapshot,channel,rms,std,kurt\n" + "\n".join(rows) + "\n")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"datasets = ims2\nims2_csv = {csv}\nout = {tmp_path / 'runs'}\n")
        assert run_cli("run", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "snapshot 7 has no row for channel 3" in err

    def test_ims_non_finite_row_fails_actionably(self, tmp_path, capsys):
        csv = tmp_path / "ims2.csv"
        rows = [f"{snap},{chan},{1 + snap / 40:.4f},1.0,3.0" for snap in range(40) for chan in (1, 2, 3, 4)]
        rows[10 * 4 + 1] = "10,2,nan,1.0,3.0"
        csv.write_text("snapshot,channel,rms,std,kurt\n" + "\n".join(rows) + "\n")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"datasets = ims2\nims2_csv = {csv}\nout = {tmp_path / 'runs'}\n")
        assert run_cli("run", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "ims2.csv: row 42: rms/std/kurt are not all finite" in err

    def test_resume_into_results_without_column_exit_1(self, tmp_path, capsys):
        out = write_results(tmp_path / "runs", *NO_OFFSET)
        code = run_cli(
            "run", "--datasets", "stress", "--modes", "classical",
            "--seeds", "1", "--offsets", "0.0", "--out", str(out),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "missing columns split_offset" in err

    def test_resume_with_row_of_unknown_mode_exit_1(self, tmp_path, capsys):
        out = tmp_path / "runs"
        args = ("run", "--datasets", "cyclic", "--modes", "classical,static_h0",
                "--seeds", "1", "--offsets", "0.0", "--out", str(out))
        assert run_cli(*args) == 0
        results = out / "results.csv"
        results.write_text(results.read_text() + "cyclic,static_h9,1,0.0,0.0,0.0,0.0,,1.0,{}," + "0" * 64 + "\r\n")
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert run_cli(*args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: existing rows of unknown mode ids ['static_h9']")
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize(("config", "flags", "code", "message"), [
        ("datasets = stress\nseeds 1\n", (), 1, "{config}:2: expected 'key = value'"),
        ("", ("--datasets", "nope"), 2, "unknown dataset 'nope'"),
    ], ids=["line_without_equals", "unknown_dataset"])
    def test_bad_input_exits_before_running(self, tmp_path, capsys, config, flags, code, message):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(config)
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "runs"), *flags) == code
        assert capsys.readouterr().err.startswith("error: " + message.format(config=cfg))
        assert not (tmp_path / "runs").exists()

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("nonsense = 1\n")
        assert run_cli("run", "--config", str(cfg)) == 1


def write_results(out, header, *rows):
    out.mkdir()
    (out / "results.csv").write_text("\n".join((header, *rows)) + "\n")
    return out


#: A results.csv header and row without the split_offset column.
NO_OFFSET = (RESULT_HEADER.replace("split_offset,", ""), "stress,classical,1,0.5,0.6,0.4,,1.0,{},h")


class TestAudit:
    def test_missing_results_exit_2(self, tmp_path, capsys):
        assert run_cli("audit", "--results", str(tmp_path)) == 2

    def test_results_without_column_exit_1(self, tmp_path, capsys):
        out = write_results(tmp_path / "runs", *NO_OFFSET)
        assert run_cli("audit", "--results", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert str(out / "results.csv") in err and "missing columns split_offset" in err

    def test_results_bad_value_names_row(self, tmp_path, capsys):
        rows = ("stress,classical,1,0.0,0.5,0.6,0.4,,1.0,{},h", "stress,classical,2,0.0,0.5,0.6,0.4,,1.0,{bad,h")
        out = write_results(tmp_path / "runs", RESULT_HEADER, *rows)
        assert run_cli("audit", "--results", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{out / 'results.csv'}: row 2:" in err

    def test_audit_after_run(self, tmp_path, capsys):
        out = tmp_path / "runs"
        assert run_cli(
            "run", "--datasets", "stress", "--modes", "classical,static_h0",
            "--seeds", "1,2", "--offsets", "0.0", "--out", str(out),
        ) == 0
        assert run_cli("audit", "--results", str(out)) == 0
        summary = (out / "audit_summary.csv").read_text().splitlines()
        assert summary[0].startswith("architecture,units,improved")
        fields = summary[1].split(",")
        assert int(fields[1]) == 2  # 1 dataset x 2 seeds x 1 offset
        assert (out / "audit_by_dataset.csv").exists()
        assert (out / "audit_bars.svg").exists()
        assert (out / "paired_units.json").exists()


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.datasets == ["stress", "cyclic", "shell"]
        assert cfg.seeds == [1, 2, 3]
        assert cfg.offsets == [-0.05, 0.0, 0.05]

    def test_file_parsing(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "datasets = cyclic, shell\nseeds = 4,5\noffsets = 0.0\n"
            "dataset_seed = 11\nworkers = 2\nco2_csv = /tmp/x.csv\n"
        )
        cfg = ExperimentConfig.from_file(path)
        assert cfg.datasets == ["cyclic", "shell"]
        assert cfg.seeds == [4, 5]
        assert cfg.dataset_seed == 11
        assert cfg.workers == 2
        assert cfg.co2_csv == "/tmp/x.csv"

    def test_readme_example_lists_every_key(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        after_intro = readme.split("`run` accepts `--config FILE`", 1)[1]
        block = after_intro.split("```\n", 2)[1]
        keys = {line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line}
        assert keys == {f.name for f in fields(ExperimentConfig)}
        path = tmp_path / "cfg.txt"
        path.write_text(block)
        ExperimentConfig.from_file(path)  # the example parses as written

    def test_bad_value_names_file_and_line(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("datasets = stress\nseeds = 1, x\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:2: bad value for 'seeds'")):
            ExperimentConfig.from_file(path)

    def test_unknown_key_raises(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("mystery = 1\n")
        with pytest.raises(ValueError, match="mystery"):
            ExperimentConfig.from_file(path)


def test_help_exits_zero(capsys):
    assert run_cli("--help") == 0
    assert "generate" in capsys.readouterr().out
