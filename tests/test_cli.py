"""Exit codes, console output, and artifact determinism of the CLI."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hra_forge
from conftest import count_calls
from hra_forge import rsm
from hra_forge.cli import main

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

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epohcs=10\n")
        assert main(["train", "--config", str(cfg)]) == 2
        capsys.readouterr()

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

    def test_bad_model_exit_2(self, capsys):
        assert main(["anova", "--model", "1, AD; power=3"]) == 2
        capsys.readouterr()

    def test_missing_design_file_exit_2(self, capsys):
        assert main(["anova", "--design", "/nonexistent/d.csv"]) == 2
        capsys.readouterr()


class TestScreenCommand:
    def test_screen_reports_eliminated(self, tmp_path, capsys):
        out = tmp_path / "screen.txt"
        code = main(["screen", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "Procedures: eliminated" in text
        stdout = capsys.readouterr().out
        assert "reduced model" in stdout

    def test_screen_reuses_elimination_fit_and_anova(self, monkeypatch, capsys):
        calls = count_calls(monkeypatch, ("fit", "anova"), rsm)
        assert main(["screen"]) == 0
        removed = [l for l in capsys.readouterr().out.splitlines() if l.startswith("removed ")]
        steps = int(removed[0].split()[1])
        assert calls == {"fit": steps + 1, "anova": steps + 1}


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

    def test_exit_3_at_iteration_cap(self, tmp_path, capsys):
        code, out = self.run_pipeline(tmp_path, "capped", ["--max-iterations", "1"])
        capsys.readouterr()
        assert code == 3
        summary = (out / "summary.csv").read_text()
        assert summary.strip().endswith("max-iterations")

    def test_max_iterations_zero_exit_2(self, tmp_path, capsys):
        code, _ = self.run_pipeline(tmp_path, "zero", ["--max-iterations", "0"])
        capsys.readouterr()
        assert code == 2

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
        ],
        ids=[
            "metrics-empty", "metrics-header-only", "metrics-short-row",
            "metrics-non-numeric", "rsm_fit-empty", "rsm_fit-header-only",
            "rsm_fit-short-row", "rsm_fit-short-header",
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


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = run_console_script("quantify", "--tally", "10/20")
        assert proc.returncode == 0
        assert "composite_hep = 0.5" in proc.stdout

    def test_no_subcommand_exits_2(self):
        proc = run_console_script()
        assert proc.returncode == 2
