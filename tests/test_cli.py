"""End-to-end command-line pipeline on a miniature configuration."""

import csv
import re
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from siad import parametric
from siad.cli import (EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, RunConfig,
                      _parse_value, main)
from siad.fileio import read_noise, read_result_rows, read_threshold, write_map

TINY_CONFIG = """
[cohort]
n_train = 12
n_test = 6
n_inference = 10
n_variance = 4
n_diseased = 6
side = 8
seed = 5
signal_amplitude = 4.0
signal_size = 2

[model]
channels = 4
latent = 2

[train]
epochs = 2
batch_size = 6

[detect]
quantile = 0.95
noise_source = known

[experiment]
n_null = 10
workers = 1
"""


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """generate -> train -> calibrate once; the commands under test reuse it."""
    out = tmp_path_factory.mktemp("run")
    config = out / "config.ini"
    config.write_text(TINY_CONFIG)
    base = ["--config", str(config), "--out", str(out)]
    assert main(["generate", *base]) == EXIT_OK
    assert main(["train", *base]) == EXIT_OK
    assert main(["calibrate", *base]) == EXIT_OK
    return out, base


def _summary_text(out):
    """The FDR summary a run left in ``out``, or None."""
    path = out / "fdr_summary.csv"
    return path.read_text() if path.exists() else None


class TestUsageAndErrors:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("command,flag,value", [
        ("experiment-null", "--alpha", "0.1,x"),
        ("experiment-power", "--amplitudes", "3,,4"),
    ])
    def test_bad_number_list_is_usage_error(self, tmp_path, capsys, command, flag, value):
        assert main([command, flag, value, "--out", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["1.5,-2,nan", "0.05,nan", "0", "1"])
    def test_alpha_outside_unit_interval_is_usage_error(self, pipeline_dir, capsys, value):
        out, base = pipeline_dir
        before = _summary_text(out)
        assert main(["experiment-fdr", *base, "--alpha", value]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
        assert "--alpha" in captured.err and "Traceback" not in captured.err
        assert "reject" not in captured.out and _summary_text(out) == before

    def test_config_alphas_outside_unit_interval_is_data_error(self, pipeline_dir, tmp_path,
                                                                capsys):
        out, base = pipeline_dir
        config = tmp_path / "config.ini"
        config.write_text(TINY_CONFIG + "alphas = 0.05, 1.5\n")
        before = _summary_text(out)
        assert main(["experiment-fdr", "--config", str(config), "--out", str(out)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
        assert "alphas" in captured.err and "Traceback" not in captured.err
        assert "reject" not in captured.out and _summary_text(out) == before

    @pytest.mark.parametrize("command,old,new", [
        ("train", "batch_size = 6", "batch_size = 0"),
        ("train", "batch_size = 6", "batch_size = -4"),
        ("generate", "seed = 5", "seed = -1"),
        ("generate", "seed = 5", f"seed = {2 ** 64}"),
        ("generate", "seed = 5", "seed = 5\nsigma2 = inf"),
        ("generate", "seed = 5", "seed = 5\nsigma2 = 0"),
        ("experiment-null", "seed = 5", "seed = 5\nsigma2 = -1"),
        ("experiment-null", "seed = 5", "seed = 5\nsigma2 = nan"),
        # values that only a later command reads stop every command
        ("generate", "quantile = 0.95", "quantile = 1.5"),
        ("generate", "n_null = 10", "n_null = -5"),
        ("generate", "epochs = 2", "epochs = 2\nlr = nan"),
        ("generate", "epochs = 2", "epochs = 2\nlr = -1"),
        ("generate", "epochs = 2", "epochs = -2"),
        ("generate", "batch_size = 6", "batch_size = 0"),
        ("train", "quantile = 0.95", "quantile = 0.95\nroi_fraction = 1.5"),
    ], ids=["batch_size-0", "batch_size-neg", "seed-neg", "seed-2**64", "sigma2-inf",
            "sigma2-0", "null-sigma2-neg", "null-sigma2-nan", "generate-quantile-1.5",
            "generate-n_null-neg", "generate-lr-nan", "generate-lr-neg", "generate-epochs-neg",
            "generate-batch_size-0", "train-roi_fraction-1.5"])
    def test_unusable_config_value_is_data_error(self, pipeline_dir, tmp_path, capsys,
                                                 command, old, new):
        out = tmp_path / "run" if command == "generate" else pipeline_dir[0]
        config = tmp_path / "config.ini"
        config.write_text(TINY_CONFIG.replace(old, new))
        key = new.split("\n")[-1].split(" = ")[0]
        before = {p.name: p.read_bytes() for p in out.glob("*") if p.is_file()}
        assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
        assert key in captured.err and "Traceback" not in captured.err
        assert {p.name: p.read_bytes() for p in out.glob("*") if p.is_file()} == before
        assert command != "generate" or not out.exists()

    def test_key_in_wrong_section_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[model]\nepochs = 2\n")
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "[train]" in err and "epochs" in err

    def test_missing_manifest_is_data_error(self, tmp_path, capsys):
        assert main(["train", "--out", str(tmp_path)]) == EXIT_DATA
        capsys.readouterr()

    def test_unknown_config_key_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[cohort]\nnonsense = 1\n")
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_DATA
        capsys.readouterr()

    @pytest.mark.parametrize("section,key", [
        pytest.param(section, key, id=key) for section, key in [
            ("detect", "window_sigmas"), ("detect", "max_pieces"),
            ("cohort", "age_min"), ("cohort", "age_max"), ("cohort", "gap_min"),
            ("cohort", "gap_max"), ("model", "kernel"), ("train", "patience"),
            ("train", "min_delta"), ("train", "holdout_fraction"),
            ("experiment", "bins")]])
    def test_fixed_scan_settings_are_unknown_keys(self, tmp_path, capsys, section, key):
        """Settings with one value in use are constants, not config keys."""
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[{section}]\n{key} = 4\n")
        out = tmp_path / "run"
        assert main(["generate", "--config", str(bad), "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unknown config key" in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("channels", ["0", "8, 0", "-1, 4"])
    def test_channel_count_below_one_writes_nothing(self, tmp_path, capsys, channels):
        bad = tmp_path / "bad.ini"
        bad.write_text(TINY_CONFIG.replace("channels = 4", f"channels = {channels}"))
        out = tmp_path / "run"
        assert main(["generate", "--config", str(bad), "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "channels" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("side", ["0", "-16"])
    def test_side_below_one_writes_nothing(self, tmp_path, capsys, side):
        bad = tmp_path / "bad.ini"
        bad.write_text(TINY_CONFIG.replace("side = 8", f"side = {side}"))
        out = tmp_path / "run"
        assert main(["generate", "--config", str(bad), "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "side must be" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_flag_outside_uint64_writes_nothing(self, tmp_path, capsys, seed):
        out = tmp_path / "run"
        assert main(["generate", "--seed", seed, "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "seed" in err
        assert not out.exists()

    def test_non_utf8_manifest_is_data_error(self, pipeline_dir, tmp_path, capsys):
        out, _ = pipeline_dir
        run = tmp_path / "run"
        run.mkdir()
        manifest = (out / "manifest.csv").read_bytes().splitlines(keepends=True)
        (run / "manifest.csv").write_bytes(manifest[0] + b"\xff" + manifest[1])
        assert main(["train", "--out", str(run)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "manifest.csv" in err
        assert "Traceback" not in err and sorted(p.name for p in run.iterdir()) == ["manifest.csv"]

    @pytest.mark.parametrize("text", [
        "n_train = 3\n",
        "[cohort]\nseed = 1\nseed = 2\n",
        "[cohort]\nseed = 1\njunk line\n",
        "[cohort]\nseed = \xff\n",
    ], ids=["no-section-header", "duplicate-key", "junk-line", "not-utf8"])
    def test_malformed_config_file_is_data_error(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(text.encode("latin-1"))
        out = tmp_path / "run"
        assert main(["generate", "--config", str(bad), "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "bad.ini" in err
        assert not out.exists()

    def test_out_naming_a_file_is_data_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["report", "--out", str(taken)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "taken" in err

    @pytest.mark.parametrize("setting", ["signal_shape = bogus", "signal_size = 0",
                                         "signal_size = -2", "signal_size = 100"])
    def test_bad_signal_setting_writes_nothing(self, tmp_path, capsys, setting):
        bad = tmp_path / "bad.ini"
        bad.write_text(TINY_CONFIG.replace("signal_size = 2", setting))
        out = tmp_path / "run"
        assert main(["generate", "--config", str(bad), "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("size", ["0", "5", "20"])
    def test_power_sweep_refuses_a_signal_wider_than_the_roi(self, pipeline_dir, tmp_path,
                                                             capsys, size):
        """The 8-pixel side's ROI is 4 pixels wide; a wider block would be
        planted partly or wholly outside it."""
        out, _ = pipeline_dir
        bad = tmp_path / "bad.ini"
        bad.write_text(TINY_CONFIG.replace("signal_size = 2", f"signal_size = {size}"))
        before = {p.name: p.read_bytes() for p in out.glob("*") if p.is_file()}
        assert main(["experiment-power", "--amplitudes", "3", "--config", str(bad),
                     "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "signal_size" in err
        assert "Traceback" not in err
        assert {p.name: p.read_bytes() for p in out.glob("*") if p.is_file()} == before

    def test_command_failing_on_a_fresh_out_creates_nothing(self, tmp_path, capsys):
        out = tmp_path / "fresh"
        assert main(["train", "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    def test_generate_refuses_overwrite_without_force(self, pipeline_dir, capsys):
        out, base = pipeline_dir
        assert main(["generate", *base]) == EXIT_DATA
        capsys.readouterr()


def _readme_schema():
    """{section: [(key, default text), ...]} from README's ``ini`` block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    schema = {}
    for line in block.splitlines():
        header = re.fullmatch(r"\[(\w+)\]", line.strip())
        if header:
            keys = schema.setdefault(header.group(1), [])
        else:
            keys.extend(re.findall(r"(\w+) \(([^)]*)\)", line))
    return schema


class TestConfigSchema:
    def test_readme_lists_each_field_under_its_section(self):
        expected = {}
        for f in fields(RunConfig):
            expected.setdefault(f.metadata["section"], []).append(f.name)
        listed = {section: [key for key, _ in keys]
                  for section, keys in _readme_schema().items()}
        assert listed == expected

    def test_readme_defaults_match_run_config(self):
        defaults = {f.name: f.default for f in fields(RunConfig)}
        for keys in _readme_schema().values():
            for key, text in keys:
                first_choice = text.split("|")[0]
                assert _parse_value(key, first_choice, defaults[key]) == defaults[key], key


class TestGenerate:
    def test_outputs_exist(self, pipeline_dir):
        out, _ = pipeline_dir
        assert (out / "manifest.csv").exists()
        assert (out / "roi.bin").exists()
        assert (out / "images" / "train-0000.bin").exists()

    def test_force_regeneration_is_idempotent(self, pipeline_dir, capsys):
        out, base = pipeline_dir
        before = (out / "images" / "train-0000.bin").read_bytes()
        assert main(["generate", *base, "--force"]) == EXIT_OK
        after = (out / "images" / "train-0000.bin").read_bytes()
        assert before == after
        capsys.readouterr()


class TestTrainCommand:
    def test_training_curve_written(self, pipeline_dir):
        out, _ = pipeline_dir
        with open(out / "training_curve.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["epoch"] == "0"
        best = [float(r["holdout_loss"]) for r in rows]
        # running best never increases
        running = np.minimum.accumulate(best)
        assert all(running[i + 1] <= running[i] for i in range(len(running) - 1))


class TestCalibrateCommand:
    def test_threshold_and_noise_recorded(self, pipeline_dir):
        out, _ = pipeline_dir
        thr = read_threshold(out / "threshold.json")
        assert thr.source_quantile == 0.95
        noise = read_noise(out / "noise.json")
        assert noise.provenance == "known-by-construction"
        assert noise.sigma2 == 1.0

    def test_estimated_noise_mode(self, pipeline_dir, tmp_path, capsys):
        out, base = pipeline_dir
        config = tmp_path / "config.ini"
        config.write_text(TINY_CONFIG.replace("noise_source = known",
                                              "noise_source = estimated"))
        assert main(["calibrate", "--config", str(config), "--out", str(out)]) == EXIT_OK
        noise = read_noise(out / "noise.json")
        assert noise.provenance == "estimated"
        assert 0.5 < noise.sigma2 < 1.5
        capsys.readouterr()
        # restore the known-noise calibration for the remaining tests
        assert main(["calibrate", *base]) == EXIT_OK

    def test_unknown_noise_source_writes_nothing(self, pipeline_dir, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(pipeline_dir[0], run)
        for name in ("threshold.json", "noise.json"):
            (run / name).unlink()
        config = tmp_path / "config.ini"
        config.write_text(TINY_CONFIG.replace("noise_source = known",
                                              "noise_source = guessed"))
        assert main(["calibrate", "--config", str(config), "--out", str(run)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "noise_source" in err
        assert not (run / "threshold.json").exists() and not (run / "noise.json").exists()


class TestTestCommand:
    def test_single_subject_outputs(self, pipeline_dir, capsys):
        out, base = pipeline_dir
        assert main(["test", *base, "--subject", "inference-0000"]) == EXIT_OK
        capsys.readouterr()
        rows = read_result_rows(out / "result_inference-0000.csv")
        assert len(rows) == 1 and rows[0][0] == "inference-0000"
        assert (out / "mask_inference-0000.csv").exists()
        assert (out / "mask_inference-0000.bin").exists()

    def test_rerun_is_identical(self, pipeline_dir, capsys):
        out, base = pipeline_dir
        assert main(["test", *base, "--subject", "inference-0001"]) == EXIT_OK
        first = (out / "result_inference-0001.csv").read_bytes()
        assert main(["test", *base, "--subject", "inference-0001"]) == EXIT_OK
        assert (out / "result_inference-0001.csv").read_bytes() == first
        capsys.readouterr()

    def test_unknown_subject(self, pipeline_dir, capsys):
        _, base = pipeline_dir
        assert main(["test", *base, "--subject", "nobody"]) == EXIT_DATA
        capsys.readouterr()

    @pytest.mark.parametrize("bad_map", [np.zeros((4, 4)), np.full((8, 8), np.nan)],
                             ids=["wrong-size", "nan"])
    def test_map_of_the_wrong_size_is_data_error(self, pipeline_dir, tmp_path, capsys,
                                                 bad_map):
        """A map that is not side x side, or not finite, stops the command
        with one error line that names its file."""
        run = tmp_path / "run"
        shutil.copytree(pipeline_dir[0], run)
        write_map(run / "images" / "inference-0000.bin", bad_map)
        assert main(["test", "--config", str(run / "config.ini"), "--out", str(run),
                     "--subject", "inference-0000"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "Traceback" not in err
        assert "inference-0000.bin" in err


class TestExperiments:
    def test_null_experiment_outputs(self, pipeline_dir, capsys):
        out, base = pipeline_dir
        assert main(["experiment-null", *base]) == EXIT_OK
        capsys.readouterr()
        rows = read_result_rows(out / "null_pvalues.csv")
        assert len(rows) == 10
        for row in rows:
            if row[-1] == "tested":
                assert float(row[5]) >= float(row[4])  # bonferroni >= naive
        with open(out / "null_histogram.csv", newline="") as fh:
            hist = list(csv.DictReader(fh))
        assert len(hist) == 20
        with open(out / "null_ks.csv", newline="") as fh:
            ks = list(csv.DictReader(fh))
        assert {r["method"] for r in ks} == {"naive", "selective"}

    def test_null_rows_do_not_depend_on_the_null_count(self, pipeline_dir, tmp_path, capsys):
        """Null i's image and conditions are drawn at its own index, so the
        first rows of a short run are those of a long one."""
        run = tmp_path / "run"
        shutil.copytree(pipeline_dir[0], run)
        config = run / "config.ini"
        rows = {}
        for n_null in (4, 10):
            config.write_text(TINY_CONFIG.replace("n_null = 10", f"n_null = {n_null}"))
            assert main(["experiment-null", "--config", str(config), "--out", str(run)]) == EXIT_OK
            rows[n_null] = read_result_rows(run / "null_pvalues.csv")
        capsys.readouterr()
        assert len(rows[4]) == 4 and rows[10][:4] == rows[4]

    def test_fdr_experiment_row_sums(self, pipeline_dir, capsys):
        out, base = pipeline_dir
        assert main(["experiment-fdr", *base]) == EXIT_OK
        capsys.readouterr()
        with open(out / "fdr_summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 + 3  # naive, bonferroni, selective at three levels
        for row in rows:
            total = (int(row["rejections"]) + int(row["failures"])
                     + int(row["degenerate_skips"]))
            assert total == 10  # n_inference

    def test_power_experiment_and_report(self, pipeline_dir, capsys):
        out, base = pipeline_dir
        assert main(["experiment-power", *base]) == EXIT_OK
        assert main(["report", *base]) == EXIT_OK
        capsys.readouterr()
        with open(out / "table1.csv", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            labels = [row[0] for row in reader]
        assert header == ["method", "reject_the_null", "failed_to_reject", "fdr"]
        assert labels[0] == "Naive" and labels[1] == "Bonferroni"
        assert any(label.startswith("SI [alpha=0.05]") for label in labels)
        assert (out / "table2.csv").exists()
        assert (out / "histogram.dat").exists()

    def test_report_without_experiments_is_data_error(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path)]) == EXIT_DATA
        capsys.readouterr()

    @pytest.mark.parametrize("name, text", [
        ("fdr_summary.csv", "method,alpha\nnaive,0.05\n"),
        ("fdr_summary.csv", "method,alpha,rejections,failures,degenerate_skips,proportion\n"
                            "naive,0.05,1,2\n"),
        ("fdr_summary.csv", "method,alpha,rejections,failures,degenerate_skips,proportion\n"
                            "naive,0.05,1,2,0,lots\n"),
        ("fdr_summary.csv", "method,alpha,rejections,failures,degenerate_skips,proportion\n"
                            "guess,0.05,1,2,0,0.3\n"),
        ("power_summary.csv", "amplitude,method,alpha,rejections,failures,"
                              "degenerate_skips,proportion\nbig,naive,0.05,1,2,0,0.3\n"),
        ("null_histogram.csv", "bin_lo,bin_hi,naive\n0.0,0.05,3\n"),
        ("null_histogram.csv", "bin_lo,bin_hi,naive,selective\n0.0,0.05,3,x\n"),
    ], ids=["fdr-two-columns", "fdr-short-row", "fdr-non-numeric", "fdr-unknown-method",
            "power-non-numeric", "histogram-three-columns", "histogram-non-numeric"])
    def test_report_on_malformed_summary_is_data_error(self, tmp_path, capsys, name, text):
        (tmp_path / name).write_text(text)
        assert main(["report", "--out", str(tmp_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and name in err

    def test_failed_report_writes_nothing(self, tmp_path, capsys):
        (tmp_path / "fdr_summary.csv").write_text(
            "method,alpha,rejections,failures,degenerate_skips,proportion\n"
            "naive,0.05,1,2,0,0.3333333333333333\n")
        (tmp_path / "power_summary.csv").write_text("amplitude,method\n4.0,naive\n")
        assert main(["report", "--out", str(tmp_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "power_summary.csv" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fdr_summary.csv",
                                                               "power_summary.csv"]

    def test_piece_cap_maps_to_numerical_exit_code(self, pipeline_dir, monkeypatch, capsys):
        _, base = pipeline_dir
        monkeypatch.setattr(parametric, "PIECE_CAP", 1)
        codes = set()
        # a planted-anomaly subject is certain to reach the parametric search
        for sid in ("diseased-0000", "diseased-0001", "diseased-0002"):
            codes.add(main(["test", *base, "--subject", sid]))
        capsys.readouterr()
        assert EXIT_NUMERICAL in codes
