"""The screening loop, its invariants, and the before/after comparison."""
import os
from dataclasses import replace

import numpy as np
import pytest

from conftest import count_calls, planted_observations
from hra_forge import pipeline, rsm
from hra_forge.ann import TrainingConfig, train_replicated
from hra_forge.cli import main
from hra_forge.dataset import bundled_case_study, bundled_refit_comparison, bundled_table4
from hra_forge.errors import InputError, PipelineAbortedError
from hra_forge.pipeline import (
    ITERATION_FILES,
    PipelineConfig,
    REASON_CONVERGED,
    REASON_MAX_ITERATIONS,
    compare_before_after,
    comparison_csv_text,
    run,
    save_result,
    summary_csv_text,
)
from hra_forge.psf import PSF_ORDER, PsfId

FAST = TrainingConfig(n_replications=3, max_epochs=3000)


def reference_config(**overrides):
    defaults = dict(
        training=TrainingConfig(),
        initial_design=tuple(bundled_table4()),
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


@pytest.fixture(scope="module")
def reference_result():
    return run(bundled_case_study(), reference_config())


class TestReferenceRun:
    @pytest.fixture
    def result(self, reference_result):
        return reference_result

    def test_first_iteration_eliminates_procedures(self, result):
        eliminated = result.iterations[0].screening.eliminated
        assert PsfId.Procedures in eliminated

    def test_second_iteration_shrinks(self, result):
        assert len(result.iterations) >= 2
        first, second = result.iterations[0], result.iterations[1]
        assert second.active == first.screening.retained
        assert len(second.active) < 8

    def test_converges(self, result):
        assert result.reason == REASON_CONVERGED
        assert result.iterations[-1].screening.eliminated == ()
        assert result.final_retained == result.iterations[-1].screening.retained

    def test_monotone_shrinkage(self, result):
        sizes = [len(rec.active) for rec in result.iterations]
        assert sizes == sorted(sizes, reverse=True)
        for prev, cur in zip(result.iterations, result.iterations[1:]):
            assert set(cur.active) <= set(prev.active)

    def test_iteration_indices_contiguous(self, result):
        assert [rec.index for rec in result.iterations] == list(
            range(1, len(result.iterations) + 1)
        )

    def test_summary_lists_procedures_in_iteration_one(self, result):
        text = summary_csv_text(result)
        first_row = text.splitlines()[1].split(",")
        assert first_row[0] == "1"
        assert "Procedures" in first_row[3].split(";")
        last_row = text.splitlines()[-1].split(",")
        assert last_row[-1] == REASON_CONVERGED

    def test_final_predictor_is_last_iterations(self, result):
        assert result.final_predictor is result.iterations[-1].predictor
        assert result.final_predictor.active_psfs == result.iterations[-1].active


class TestLoopControl:
    def test_max_iterations_one(self):
        result = run(bundled_case_study(), reference_config(training=FAST, max_iterations=1))
        assert len(result.iterations) == 1
        assert result.reason in (REASON_MAX_ITERATIONS, REASON_CONVERGED)

    def test_replay_identical_serialization(self, tmp_path):
        cfg = reference_config(training=FAST)
        obs = bundled_case_study()
        a = run(obs, cfg)
        b = run(obs, cfg)
        assert summary_csv_text(a) == summary_csv_text(b)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        save_result(a, obs, dir_a)
        save_result(b, obs, dir_b)
        files_a = sorted(p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes()

    def test_iteration_reuses_elimination_fit_and_anova(self, monkeypatch):
        # the reduced spec's fit and ANOVA come from elimination's last pass
        calls = count_calls(monkeypatch, ("fit", "anova"), rsm, pipeline)
        result = run(bundled_case_study(), reference_config(
            training=TrainingConfig(n_replications=1, max_epochs=200), max_iterations=1,
        ))
        steps = len(result.iterations[0].elimination_steps)
        assert steps > 0
        assert calls == {"fit": steps + 1, "anova": steps + 1}

    def test_initial_design_letter_mismatch(self):
        rows = bundled_table4()
        partial = [
            type(rows[0])(r.std_order, r.run_order,
                          {k: v for k, v in r.levels.items() if k != "H"},
                          r.response)
            for r in rows
        ]
        with pytest.raises(InputError):
            run(bundled_case_study(), reference_config(initial_design=tuple(partial)))

    def test_abort_attaches_partial_trail(self):
        # duplicating a factor column makes the quadratic fit rank deficient
        rows = bundled_table4()
        broken = [
            type(r)(r.std_order, r.run_order,
                    dict(r.levels, H=r.levels["A"]), r.response)
            for r in rows
        ]
        cfg = reference_config(training=FAST, initial_design=tuple(broken))
        with pytest.raises(PipelineAbortedError) as err:
            run(bundled_case_study(), cfg)
        assert err.value.iteration == 1
        assert err.value.completed == ()
        assert "rank deficient" in str(err.value)

    def test_config_validation(self):
        with pytest.raises(InputError):
            PipelineConfig(alpha=0.0)
        with pytest.raises(InputError):
            PipelineConfig(max_iterations=0)
        with pytest.raises(InputError):
            PipelineConfig(response_power=-1.0)


class TestPlantedFactors:
    def test_inert_psfs_eliminated_within_eight_iterations(self):
        obs = planted_observations()
        cfg = PipelineConfig(
            training=TrainingConfig(n_replications=5, max_epochs=20000),
            max_iterations=8,
        )
        result = run(obs, cfg)
        eliminated = set()
        for rec in result.iterations:
            eliminated |= set(rec.screening.eliminated)
        inert = set(PSF_ORDER) - {PsfId.AvailableTime, PsfId.ExperienceTraining}
        assert inert <= eliminated
        assert PsfId.AvailableTime in result.final_retained
        assert PsfId.ExperienceTraining in result.final_retained


class TestComparison:
    def test_reference_columns(self):
        observed, before, after = bundled_refit_comparison()

        class _Fixed:
            def __init__(self, values):
                self.values = np.asarray(values, dtype=float)

            def predict_instances(self, obs):
                return self.values

        report = compare_before_after(
            bundled_case_study(), _Fixed(before), _Fixed(after)
        )
        assert report.mse_before == pytest.approx(5.2316e-4, abs=1e-8)
        assert report.mse_after == pytest.approx(2.2119967382450503e-4, rel=1e-12)
        assert report.mse_delta < 0.0
        assert len(report.rows) == 15

    def test_identical_predictors_zero_delta(self):
        obs = bundled_case_study()
        X, maxima = obs.normalized(PSF_ORDER)
        pred = train_replicated(X, obs.targets(), FAST, PSF_ORDER, maxima)
        report = compare_before_after(obs, pred, pred)
        assert all(r.delta == 0.0 for r in report.rows)
        assert report.mse_delta == 0.0

    def test_csv_shape(self):
        observed, before, after = bundled_refit_comparison()

        class _Fixed:
            def __init__(self, values):
                self.values = np.asarray(values, dtype=float)

            def predict_instances(self, obs):
                return self.values

        report = compare_before_after(bundled_case_study(), _Fixed(before), _Fixed(after))
        text = comparison_csv_text(report)
        lines = text.splitlines()
        assert lines[0].startswith("id,observed_hep,predicted_before")
        assert len(lines) == 16


class TestSavedTree:
    def test_directory_layout(self, tmp_path):
        obs = bundled_case_study()
        result = run(obs, reference_config(training=FAST))
        out = tmp_path / "res"
        save_result(result, obs, out)
        assert (out / "summary.csv").is_file()
        for rec in result.iterations:
            sub = out / "iterations" / f"{rec.index:02d}"
            for name in (
                "metrics.csv",
                "anova.csv",
                "screening.txt",
                "predictor.txt",
                "design.csv",
                "model.txt",
                "rsm_fit.csv",
                "elimination.csv",
            ):
                assert (sub / name).is_file(), name

    def test_metrics_rows_match_instances(self, tmp_path):
        obs = bundled_case_study()
        result = run(obs, reference_config(training=FAST, max_iterations=1))
        out = tmp_path / "res"
        save_result(result, obs, out)
        lines = (out / "iterations" / "01" / "metrics.csv").read_text().splitlines()
        assert len(lines) == 16
        assert lines[1].split(",")[0] == "Ins 1"

    def test_shorter_rerun_removes_stale_artifacts(self, reference_result, tmp_path, capsys):
        obs = bundled_case_study()
        out = tmp_path / "res"
        save_result(reference_result, obs, out)
        assert main(["report", "--result", str(out)]) == 0
        assert len(list(out.glob("*_02.svg"))) == 4
        shorter = replace(reference_result, iterations=reference_result.iterations[:1])
        save_result(shorter, obs, out)
        assert os.listdir(out / "iterations") == ["01"]
        assert sorted(os.listdir(out / "iterations" / "01")) == sorted(ITERATION_FILES)
        assert list(out.glob("*.svg")) == []
        assert main(["report", "--result", str(out)]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in out.glob("*.svg")) == [
            "hep_observed_vs_predicted_01.svg",
            "reliability_observed_vs_predicted_01.svg",
            "residuals_normal_01.svg",
            "residuals_vs_predicted_01.svg",
        ]

    def test_rerun_keeps_files_it_did_not_write(self, reference_result, tmp_path):
        obs = bundled_case_study()
        out = tmp_path / "res"
        save_result(reference_result, obs, out)
        foreign = [
            out / "iterations" / "02" / "notes.txt",
            out / "iterations" / "draft",
            out / "my_plot_02.svg",
            out / "residuals_normal_final.svg",
        ]
        foreign[1].mkdir()
        for path in (foreign[0], foreign[2], foreign[3]):
            path.write_text("kept\n")
        shorter = replace(reference_result, iterations=reference_result.iterations[:1])
        save_result(shorter, obs, out)
        assert all(path.exists() for path in foreign)
        assert os.listdir(out / "iterations" / "02") == ["notes.txt"]
