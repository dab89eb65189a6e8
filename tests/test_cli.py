"""Exit codes, console output, and artifact determinism of the CLI."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hra_forge
from conftest import count_calls, noise_ccd
from hra_forge import ann, dataset, pipeline, rsm
from hra_forge.cli import build_parser, main
from hra_forge.errors import NumericalError

REPO_ROOT = Path(__file__).resolve().parents[1]

FAST_CONFIG = "epochs=3000\nreplications=3\n"


def tree_bytes(root):
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            with open(path, "rb") as handle:
                out[rel] = handle.read()
    return out


def parsed_defaults():
    """(alpha, power, max iterations, center runs) as screen, pipeline and
    design parse them when the options are left out."""
    parse = build_parser().parse_args
    screen, run, design = parse(["screen"]), parse(["pipeline", "--out", "r"]), parse(["design"])
    assert (screen.alpha, screen.power) == (run.alpha, run.power)
    return run.alpha, run.power, run.max_iterations, design.center


class TestParserDefaults:
    def test_options_default_to_the_loop_config_and_rsm(self):
        config = pipeline.PipelineConfig()
        assert parsed_defaults() == (config.alpha, config.response_power,
                                     config.max_iterations, rsm.DEFAULT_CENTER_RUNS)
        # anova without --power keeps the power of its --model text
        assert build_parser().parse_args(["anova"]).power is None

    def test_options_follow_a_changed_default(self, monkeypatch):
        for name, value in (("alpha", 0.01), ("response_power", 2.0), ("max_iterations", 4)):
            monkeypatch.setattr(pipeline.PipelineConfig, name, value)
        monkeypatch.setattr(rsm, "DEFAULT_CENTER_RUNS", 3)
        assert parsed_defaults() == (0.01, 2.0, 4, 3)


class TestQuantify:
    def test_all_nominal(self, capsys):
        assert main(["quantify", "--tally", "10/20"]) == 0
        out = capsys.readouterr().out
        assert "nominal_hep = 0.5" in out
        assert "psf_total = 1" in out
        assert "composite_hep = 0.5" in out

    def test_expansive_time_diagnosis(self, capsys):
        code = main(
            ["quantify", "--tally", "10/20", "--psf", "A=Expansive time",
             "--mode", "diagnosis"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "psf_total = 0.01" in out
        assert "composite_hep = 0.0099009900990099011" in out

    def test_failure_certain(self, capsys):
        code = main(["quantify", "--tally", "10/20", "--psf", "A=Inadequate Time"])
        assert code == 0
        out = capsys.readouterr().out
        assert "psf_total = FAILURE_CERTAIN" in out
        assert "composite_hep = 1" in out

    def test_numeric_psf_values(self, capsys):
        code = main(["quantify", "--tally", "1/100", "--psf", "B=5", "--psf", "C=5"])
        assert code == 0
        assert "psf_total = 25" in capsys.readouterr().out

    def test_unknown_label_exit_2(self, capsys):
        code = main(["quantify", "--tally", "10/20", "--psf", "A=Never heard of it"])
        assert code == 2
        assert "Never heard of it" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "psfs, total",
        [(["A=1e308", "B=10"], "inf"), (["A=1e-200", "B=1e-200"], "0.0")],
    )
    def test_impact_out_of_range_exit_2(self, capsys, psfs, total):
        argv = ["quantify", "--tally", "1/2"]
        for assignment in psfs:
            argv += ["--psf", assignment]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: total PSF impact (the product of the multipliers) is not a "
            f"finite positive number: {total}\n"
        )

    def test_bad_tally_exit_2(self, capsys):
        assert main(["quantify", "--tally", "10-20"]) == 2
        assert main(["quantify", "--tally", "30/20"]) == 2
        capsys.readouterr()


class TestTrainCommand:
    def test_train_writes_predictor(self, tmp_path, capsys):
        out = tmp_path / "net.txt"
        cfg = tmp_path / "train.cfg"
        cfg.write_text(FAST_CONFIG)
        code = main(["train", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "ensemble mse" in stdout
        assert out.is_file()
        from hra_forge.ann import load_predictor

        pred = load_predictor(out)
        assert len(pred.members) == 3

    def test_epoch_cap_far_above_the_epochs_run(self, tmp_path, capsys):
        # the loss trace follows the epochs run, not the cap
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs=1000000000000\nreplications=2\n")
        assert main(["train", "--config", str(cfg)]) == 0
        assert "ensemble mse" in capsys.readouterr().out

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epohcs=10\n")
        assert main(["train", "--config", str(cfg)]) == 2
        capsys.readouterr()

    def test_negative_seed_flag_exit_2(self, capsys):
        assert main(["train", "--seed", "-1"]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    def test_negative_seed_in_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("seed=-4\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "seed must be >= 0, got -4" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["dir", "no/p.txt"], ids=["directory", "missing-dir"])
    def test_unwritable_out_fails_before_training(self, tmp_path, capsys, monkeypatch, target):
        def must_not_run(*args):
            raise AssertionError("train_replicated called")

        monkeypatch.setattr(ann, "train_replicated", must_not_run)
        (tmp_path / "dir").mkdir()
        out = tmp_path / target
        assert main(["train", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert not [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")]

    def test_header_only_observations_exit_2(self, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        obs.write_text(
            "id,available_time,stress,complexity,experience_training,"
            "procedures,ergonomics,fitness_for_duty,work_process,hep\n"
        )
        assert main(["train", "--observations", str(obs)]) == 2
        assert "empty observation set" in capsys.readouterr().err


class TestDesignCommand:
    def test_generate_writes_header_and_rows(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = main(["design", "--generate", "--factors", "3", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "std,run,A,B,C,reliability"
        assert len(lines) == 1 + 8 + 6 + 6

    def test_requires_generate(self, capsys):
        assert main(["design", "--factors", "3"]) == 2
        capsys.readouterr()

    def test_factor_bounds(self, capsys):
        assert main(["design", "--generate", "--factors", "1"]) == 2
        assert main(["design", "--generate", "--factors", "9"]) == 2
        capsys.readouterr()

    def test_center_cap(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        over = str(rsm.MAX_CENTER_RUNS + 1)
        assert main(["design", "--generate", "--center", over, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--center" in err and f"at most {rsm.MAX_CENTER_RUNS} " in err
        assert not out.exists()


class TestAnovaCommand:
    def test_prints_table_and_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "anova.csv"
        code = main(["anova", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "Model" in stdout
        assert "Lack of Fit" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "source,sum_of_squares,df,mean_square,f_value,p_value"

    def test_custom_model_spec(self, capsys):
        code = main(["anova", "--model", "1, A, D, AD; power=3"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "AD" in stdout

    def test_model_power_kept_without_power_flag(self, tmp_path, capsys):
        model = ["anova", "--model", "1, A, D, AD; power=1"]
        paths = [tmp_path / f"{i}.csv" for i in range(3)]
        assert main([*model, "--out", str(paths[0])]) == 0
        assert main([*model, "--power", "1", "--out", str(paths[1])]) == 0
        assert main([*model, "--power", "3", "--out", str(paths[2])]) == 0
        capsys.readouterr()
        texts = [p.read_text() for p in paths]
        assert texts[0] == texts[1] != texts[2]

    def test_bad_model_exit_2(self, capsys):
        assert main(["anova", "--model", "1, AD; power=3"]) == 2
        capsys.readouterr()

    def test_missing_design_file_exit_2(self, capsys):
        assert main(["anova", "--design", "/nonexistent/d.csv"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("power", ["100", "200"])
    def test_overflowing_power_exit_4(self, power, capsys):
        assert main(["anova", "--power", power]) == 4
        captured = capsys.readouterr()
        assert f"response power {power} overflows" in captured.err
        assert "nan" not in captured.out


    def test_constant_transformed_response_exit_4(self, capsys):
        assert main(["anova", "--power", "1e-20"]) == 4
        captured = capsys.readouterr()
        assert "power 1e-20 is constant" in captured.err
        assert "Model" not in captured.out


class TestScreenCommand:
    def test_screen_reports_eliminated(self, tmp_path, capsys):
        out = tmp_path / "screen.txt"
        code = main(["screen", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "Procedures: eliminated" in text
        stdout = capsys.readouterr().out
        assert "reduced model" in stdout

    def test_default_power_is_the_pipelines(self, capsys):
        assert main(["screen"]) == 0
        default = capsys.readouterr().out
        assert main(["screen", "--power", "3"]) == 0
        assert capsys.readouterr().out == default
        assert "; power=3\n" in default

    def test_screen_fits_full_and_reduced_spec_once(self, monkeypatch, capsys):
        # one fit of the full spec in the trail, then one fit and one ANOVA
        # of the reduced spec
        calls = count_calls(monkeypatch, ("fit", "anova"), rsm)
        assert main(["screen"]) == 0
        removed = [l for l in capsys.readouterr().out.splitlines() if l.startswith("removed ")]
        assert int(removed[0].split()[1]) > 0
        assert calls == {"fit": 2, "anova": 1}

    @pytest.mark.parametrize("power", ["100", "200"])
    def test_overflowing_power_exit_4(self, power, capsys):
        assert main(["screen", "--power", power]) == 4
        captured = capsys.readouterr()
        assert f"response power {power} overflows" in captured.err
        assert "retained" not in captured.out


    def test_constant_transformed_response_exit_4(self, capsys):
        assert main(["screen", "--power", "1e-20"]) == 4
        captured = capsys.readouterr()
        assert "power 1e-20 is constant" in captured.err
        assert "retained" not in captured.out


class TestAllInertDesign:
    """Pure-noise designs, on which elimination removes every term."""

    @pytest.fixture(scope="class")
    def designs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("noise")
        (root / "train.cfg").write_text(FAST_CONFIG)
        for name, letters, seed in (("noise.csv", "ABC", 0), ("noise8.csv", "ABCDEFGH", 4)):
            dataset.save_design(noise_ccd(list(letters), seed)[1], root / name)
        return root

    def test_screen_eliminates_every_factor(self, designs, capsys):
        assert main(["screen", "--design", str(designs / "noise.csv"), "--power", "1"]) == 0
        out = capsys.readouterr().out
        assert "reduced model: 1; power=1" in out
        assert "retained: (none)" in out
        assert "eliminated: AvailableTime, Stress, Complexity" in out

    def test_anova_of_intercept_only_model(self, designs, tmp_path, capsys):
        out = tmp_path / "anova.csv"
        code = main(["anova", "--design", str(designs / "noise.csv"),
                     "--model", "1; power=1", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        source, _, df, ms, f, p = out.read_text().splitlines()[1].split(",")
        assert (source, df, ms, f, p) == ("Model", "0", "0", "", "")

    def test_pipeline_stops_at_min_psfs_and_reports(self, designs, tmp_path, capsys):
        out = tmp_path / "res"
        code = main(["pipeline", "--design", str(designs / "noise8.csv"),
                     "--config", str(designs / "train.cfg"), "--out", str(out)])
        assert code == 0
        assert "1 iteration(s); stop reason: min-psfs" in capsys.readouterr().out
        assert (out / "iterations" / "01" / "model.txt").read_text() == "1; power=3\n"
        assert main(["report", "--result", str(out)]) == 0
        capsys.readouterr()
        assert len(list(out.glob("*_01.svg"))) == 4


class TestPipelineCommand:
    def run_pipeline(self, tmp_path, name, extra=()):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(FAST_CONFIG)
        out = tmp_path / name
        code = main(
            ["pipeline", "--config", str(cfg), "--out", str(out), *extra]
        )
        return code, out

    def test_byte_identical_reruns(self, tmp_path, capsys):
        code_a, dir_a = self.run_pipeline(tmp_path, "a")
        code_b, dir_b = self.run_pipeline(tmp_path, "b")
        capsys.readouterr()
        assert code_a == code_b == 0
        assert tree_bytes(dir_a) == tree_bytes(dir_b)

    def test_byte_identical_across_interpreters(self, tmp_path):
        # PsfId hashes by identity, so a set of them iterates in an order
        # that depends on memory addresses; string hashing depends on the
        # hash seed. Neither may reach the result tree.
        cfg = tmp_path / "train.cfg"
        cfg.write_text(FAST_CONFIG)
        src = str(Path(hra_forge.__file__).resolve().parents[1])
        trees = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"seed{hash_seed}"
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-m", "hra_forge.cli", "pipeline",
                 "--config", str(cfg), "--out", str(out)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            trees.append(tree_bytes(out))
        assert trees[0] and trees[0] == trees[1]

    def test_exit_3_at_iteration_cap(self, tmp_path, capsys):
        code, out = self.run_pipeline(tmp_path, "capped", ["--max-iterations", "1"])
        capsys.readouterr()
        assert code == 3
        summary = (out / "summary.csv").read_text()
        assert summary.strip().endswith("max-iterations")

    def test_abort_writes_completed_iterations(self, tmp_path, capsys, monkeypatch):
        real = pipeline._run_iteration

        def fail_second(observations, config, active, iteration):
            if iteration == 2:
                raise NumericalError("planted failure")
            return real(observations, config, active, iteration)

        monkeypatch.setattr(pipeline, "_run_iteration", fail_second)
        code, out = self.run_pipeline(tmp_path, "aborted")
        assert code == 4
        assert "planted failure" in capsys.readouterr().err
        assert sorted(os.listdir(out / "iterations")) == ["01"]
        assert (out / "summary.csv").read_text().strip().endswith(",aborted")

    def test_max_iterations_zero_exit_2(self, tmp_path, capsys):
        code, _ = self.run_pipeline(tmp_path, "zero", ["--max-iterations", "0"])
        capsys.readouterr()
        assert code == 2

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        code, out = self.run_pipeline(tmp_path, "negative", ["--seed", "-3"])
        assert code == 2
        assert "seed must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("power", ["inf", "nan"])
    def test_non_finite_power_exits_2_before_training(self, tmp_path, capsys, monkeypatch, power):
        def must_not_run(*args):
            raise AssertionError("train_replicated called")

        monkeypatch.setattr(ann, "train_replicated", must_not_run)
        monkeypatch.setattr(pipeline, "train_replicated", must_not_run)
        code, out = self.run_pipeline(tmp_path, "nonfinite", ["--power", power])
        assert code == 2
        assert "response power must be a positive real" in capsys.readouterr().err
        assert not out.exists()

    def test_out_that_is_a_file_fails_before_training(self, tmp_path, capsys, monkeypatch):
        def must_not_run(observations, config):
            raise AssertionError("pipeline.run called")

        monkeypatch.setattr(pipeline, "run", must_not_run)
        out = tmp_path / "file"
        out.write_text("keep\n")
        assert main(["pipeline", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert out.read_text() == "keep\n"

    def test_missing_observations_exit_2(self, tmp_path, capsys):
        code, _ = self.run_pipeline(
            tmp_path, "noobs", ["--observations", "/nonexistent/obs.csv"]
        )
        capsys.readouterr()
        assert code == 2


class TestReportCommand:
    @pytest.fixture()
    def result_dir(self, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(FAST_CONFIG)
        out = tmp_path / "res"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        return out

    def test_four_svgs_per_iteration(self, result_dir, tmp_path, capsys):
        plots = tmp_path / "plots"
        code = main(["report", "--result", str(result_dir), "--out", str(plots)])
        assert code == 0
        capsys.readouterr()
        n_iter = len(list((result_dir / "iterations").iterdir()))
        svgs = sorted(p.name for p in plots.glob("*.svg"))
        assert len(svgs) == 4 * n_iter
        for kind in (
            "hep_observed_vs_predicted",
            "residuals_normal",
            "residuals_vs_predicted",
            "reliability_observed_vs_predicted",
        ):
            assert any(s.startswith(kind) for s in svgs)

    def test_svg_output_deterministic(self, result_dir, tmp_path, capsys):
        a, b = tmp_path / "p1", tmp_path / "p2"
        assert main(["report", "--result", str(result_dir), "--out", str(a)]) == 0
        assert main(["report", "--result", str(result_dir), "--out", str(b)]) == 0
        capsys.readouterr()
        assert tree_bytes(a) == tree_bytes(b)

    def test_svgs_are_wellformed_xml(self, result_dir, tmp_path, capsys):
        import xml.etree.ElementTree as ET

        plots = tmp_path / "plots"
        main(["report", "--result", str(result_dir), "--out", str(plots)])
        capsys.readouterr()
        for svg in plots.glob("*.svg"):
            root = ET.fromstring(svg.read_text())
            assert root.tag.endswith("svg")

    def test_missing_artifacts_listed(self, tmp_path, capsys):
        code = main(["report", "--result", str(tmp_path / "nope")])
        assert code == 2
        err = capsys.readouterr().err
        assert "summary.csv" in err

    def test_partial_tree_lists_missing_file(self, result_dir, capsys):
        victim = result_dir / "iterations" / "01" / "rsm_fit.csv"
        victim.unlink()
        code = main(["report", "--result", str(result_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert "rsm_fit.csv" in err


METRICS_HEADER = "id,observed_hep,predicted_hep,squared_error\n"
RSM_FIT_HEADER = "std,run,response,transformed,fitted,residual,predicted_response\n"


class TestReportShortCsv:
    @pytest.fixture()
    def result_dir(self, tmp_path):
        sub = tmp_path / "res" / "iterations" / "01"
        sub.mkdir(parents=True)
        (tmp_path / "res" / "summary.csv").write_text("iteration\n1\n")
        (sub / "metrics.csv").write_text(
            METRICS_HEADER + "I1,0.1,0.12,0.0004\nI2,0.2,0.18,0.0004\n"
        )
        (sub / "rsm_fit.csv").write_text(
            RSM_FIT_HEADER + "1,1,50,125000,124000,1000,49.9\n"
            "2,2,60,216000,217000,-1000,60.1\n"
        )
        return tmp_path / "res"

    def test_well_formed_tree_reports(self, result_dir, capsys):
        assert main(["report", "--result", str(result_dir)]) == 0
        capsys.readouterr()

    def test_columns_are_found_by_name(self, result_dir, tmp_path, capsys):
        assert main(["report", "--result", str(result_dir), "--out", str(tmp_path / "a")]) == 0
        metrics = result_dir / "iterations" / "01" / "metrics.csv"
        rows = [line.split(",") for line in metrics.read_text().splitlines()]
        metrics.write_text("".join(",".join(r[::-1]) + "\n" for r in rows))
        assert main(["report", "--result", str(result_dir), "--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
        assert {"observed_hep", "predicted_hep"} <= set(pipeline.METRICS_COLUMNS)

    @pytest.mark.parametrize(
        "low, high", [("0", "5e-324"), ("1", "1.0000000000000002")], ids=["subnormal", "one-ulp"]
    )
    def test_span_too_small_for_ticks_reports(self, result_dir, capsys, low, high):
        # drawn as a point, not a log10(0) error or an endless tick loop
        (result_dir / "iterations" / "01" / "metrics.csv").write_text(
            METRICS_HEADER + f"I1,{low},{low},0.0004\nI2,{high},{high},0.0004\n"
        )
        assert main(["report", "--result", str(result_dir)]) == 0
        capsys.readouterr()

    def test_stray_directory_exit_2(self, result_dir, capsys):
        stray = result_dir / "iterations" / "notes"
        shutil.copytree(result_dir / "iterations" / "01", stray)
        assert main(["report", "--result", str(result_dir)]) == 2
        err = capsys.readouterr().err
        assert str(stray) in err and "not an iteration directory" in err

    @pytest.mark.parametrize(
        "name, text, where",
        [
            ("metrics.csv", "", "metrics.csv"),
            ("metrics.csv", METRICS_HEADER, "metrics.csv"),
            ("metrics.csv", METRICS_HEADER + "I1,0.1,0.12,0.0004\nI2,0.2\n", "row 2"),
            ("metrics.csv", METRICS_HEADER + "I1,abc,0.12,0.0004\n", "'observed_hep'"),
            ("rsm_fit.csv", "", "rsm_fit.csv"),
            ("rsm_fit.csv", RSM_FIT_HEADER, "rsm_fit.csv"),
            ("rsm_fit.csv", RSM_FIT_HEADER + "1,1,50\n", "row 1"),
            ("rsm_fit.csv", "std,run\n1,1\n", "header"),
            ("metrics.csv", METRICS_HEADER + "I1,nan,0.12,0.0004\n", "row 1: column"),
            ("rsm_fit.csv", RSM_FIT_HEADER + "1,1,50,1,1,inf,49.9\n", "not finite: 'inf'"),
            ("metrics.csv", METRICS_HEADER + "I1,1e308,0.12,0.0004\nI2,-1e308,0.18,0.0004\n",
             "row 1: column 'observed_hep' is beyond ±1e+150: '1e308'"),
        ],
        ids=[
            "metrics-empty", "metrics-header-only", "metrics-short-row",
            "metrics-non-numeric", "rsm_fit-empty", "rsm_fit-header-only",
            "rsm_fit-short-row", "rsm_fit-short-header", "metrics-nan",
            "rsm_fit-inf", "metrics-beyond-plot-range",
        ],
    )
    def test_short_csv_exit_2(self, result_dir, capsys, name, text, where):
        (result_dir / "iterations" / "01" / name).write_text(text)
        assert main(["report", "--result", str(result_dir)]) == 2
        err = capsys.readouterr().err
        assert name in err and where in err


def run_console_script(*args):
    """Run the ``hra-forge`` console script as its own process.

    An installed script on PATH is run as is. In a checkout with nothing
    installed, the target declared under ``[project.scripts]`` in
    ``pyproject.toml`` is run the way pip's generated wrapper runs it,
    against the same ``hra_forge`` tree this test imported.
    """
    script = shutil.which("hra-forge")
    if script is not None:
        return subprocess.run([script, *args], capture_output=True, text=True)
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["hra-forge"]
    module, func = target.split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    env = dict(os.environ, PYTHONPATH=str(Path(hra_forge.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env
    )


HEADER_ONLY_DESIGN = "std,run,A,B,C,D,E,F,G,H,reliability\n"


class TestHeaderOnlyDesign:
    @pytest.mark.parametrize("command", ["anova", "screen", "pipeline"])
    def test_exit_2_naming_the_file(self, tmp_path, capsys, command):
        design = tmp_path / "hdr.csv"
        design.write_text(HEADER_ONLY_DESIGN)
        argv = [command, "--design", str(design)]
        if command == "pipeline":
            argv += ["--out", str(tmp_path / "res")]
        assert main(argv) == 2
        assert f"{design}: design has no runs" in capsys.readouterr().err


# no row repeats, so no center run to infer the coding from
UNREPLICATED_DESIGN = (
    "std,run,A,B,C,D,E,F,G,H,reliability\n"
    "1,1,0.2,0.2,0.2,0.2,0.2,0.2,0.2,0.2,90\n"
    "2,2,0.8,0.8,0.8,0.8,0.8,0.8,0.8,0.8,80\n"
)


class TestChecksAfterLoadingNameTheFile:
    @pytest.mark.parametrize("command", ["anova", "screen", "pipeline"])
    def test_unreplicated_design(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(pipeline, "run", None)
        design = tmp_path / "short.csv"
        design.write_text(UNREPLICATED_DESIGN)
        argv = [command, "--design", str(design)]
        if command == "pipeline":
            argv += ["--out", str(tmp_path / "res")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {design}: design has no replicated center row")

    @pytest.mark.parametrize("command", ["train", "pipeline"])
    def test_header_only_observations(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(pipeline, "run", None)
        obs = tmp_path / "obs.csv"
        obs.write_text(
            "id,available_time,stress,complexity,experience_training,"
            "procedures,ergonomics,fitness_for_duty,work_process,hep\n"
        )
        assert len(dataset.load_observations(str(obs))) == 0
        argv = [command, "--observations", str(obs)]
        if command == "pipeline":
            argv += ["--out", str(tmp_path / "res")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {obs}: empty observation set")
        assert not (tmp_path / "res").exists()


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("id,stress\ncafé,1\n".encode("latin-1"))
    return str(path)


class TestUnreadableInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--observations", "{bad}"],
            ["train", "--config", "{bad}"],
            ["anova", "--design", "{bad}"],
            ["screen", "--design", "{bad}"],
            ["quantify", "--table", "{bad}", "--tally", "1/10"],
            ["pipeline", "--design", "{bad}", "--out", "{tmp}/res"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[1]}",
    )
    def test_not_utf8_exits_2_naming_the_file(self, tmp_path, capsys, argv):
        bad = _not_utf8(tmp_path)
        argv = [a.format(bad=bad, tmp=tmp_path) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec")

    @pytest.mark.parametrize("name", ["metrics.csv", "rsm_fit.csv"])
    def test_report_of_not_utf8_csv_exits_2(self, tmp_path, capsys, name):
        sub = tmp_path / "res" / "iterations" / "01"
        sub.mkdir(parents=True)
        (tmp_path / "res" / "summary.csv").write_text("iteration\n1\n")
        (sub / "metrics.csv").write_text(METRICS_HEADER + "I1,0.1,0.12,0.0004\n")
        (sub / "rsm_fit.csv").write_text(RSM_FIT_HEADER + "1,1,50,125000,124000,1000,49.9\n")
        (sub / name).write_bytes((sub / name).read_bytes() + "é\n".encode("latin-1"))
        assert main(["report", "--result", str(tmp_path / "res")]) == 2
        assert f"cannot read {sub / name}" in capsys.readouterr().err


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = run_console_script("quantify", "--tally", "10/20")
        assert proc.returncode == 0
        assert "composite_hep = 0.5" in proc.stdout

    def test_no_subcommand_exits_2(self):
        proc = run_console_script()
        assert proc.returncode == 2


class TestTrainingCaps:
    """Each work-size cap at cap + 1 only: rejected, exit 2, before any
    training and before ``pipeline`` makes its result directory."""

    @pytest.fixture(autouse=True)
    def no_training(self, monkeypatch):
        def must_not_run(*args):
            raise AssertionError("training ran")

        monkeypatch.setattr(ann, "train_replicated", must_not_run)
        monkeypatch.setattr(pipeline, "train_replicated", must_not_run)

    @pytest.mark.parametrize("command", ["train", "pipeline"])
    def test_replications_flag(self, tmp_path, capsys, command):
        out = tmp_path / "result"
        argv = [command, "--replications", str(ann.MAX_REPLICATIONS + 1)]
        argv += ["--out", str(out)] if command == "pipeline" else []
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert (f"flag --replications) must be at most {ann.MAX_REPLICATIONS}, "
                f"got {ann.MAX_REPLICATIONS + 1}") in err
        assert not out.exists()

    @pytest.mark.parametrize("key, cap", [
        ("replications", ann.MAX_REPLICATIONS),
        ("hidden_nodes", ann.MAX_HIDDEN_NODES),
    ])
    @pytest.mark.parametrize("command", ["train", "pipeline"])
    def test_config_keys(self, tmp_path, capsys, command, key, cap):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"{key}={cap + 1}\n")
        out = tmp_path / "result"
        argv = [command, "--config", str(cfg)]
        argv += ["--out", str(out)] if command == "pipeline" else []
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"(config key {key}" in err
        assert f") must be at most {cap}, got {cap + 1}" in err
        assert not out.exists()
