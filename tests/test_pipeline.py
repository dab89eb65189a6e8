"""The screening loop, its invariants, and the before/after comparison."""
import dataclasses
import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import count_calls, planted_observations
from hra_forge import dataset, pipeline, rsm
from hra_forge.ann import TrainingConfig, train_replicated
from hra_forge.cli import main
from hra_forge.dataset import (
    ObservationSet,
    bundled_case_study,
    bundled_refit_comparison,
    bundled_table4,
)
from hra_forge.errors import InputError, PipelineAbortedError
from hra_forge.pipeline import (
    ITERATION_FILES,
    PipelineConfig,
    REASON_CONVERGED,
    REASON_MAX_ITERATIONS,
    ComparisonReport,
    ComparisonRow,
    compare_before_after,
    comparison_csv_text,
    run,
    save_result,
    summary_csv_text,
)
from hra_forge.ioutil import FULL, fmt_full
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

    def test_iteration_fits_full_and_reduced_spec_once(self, monkeypatch):
        # elimination fits the full spec; the iteration fits and tabulates the
        # reduced spec once
        calls = count_calls(monkeypatch, ("fit", "anova"), rsm, pipeline)
        result = run(bundled_case_study(), reference_config(
            training=TrainingConfig(n_replications=1, max_epochs=200), max_iterations=1,
        ))
        steps = len(result.iterations[0].elimination_steps)
        assert steps > 0
        assert calls == {"fit": 2, "anova": 1}

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

    def test_overflowing_power_aborts(self):
        cfg = reference_config(
            training=TrainingConfig(n_replications=1, max_epochs=200), response_power=200.0
        )
        with pytest.raises(PipelineAbortedError) as err:
            run(bundled_case_study(), cfg)
        assert err.value.iteration == 1
        assert err.value.completed == ()
        assert "response power 200 overflows" in str(err.value)

    def test_config_validation(self):
        with pytest.raises(InputError):
            PipelineConfig(alpha=0.0)
        with pytest.raises(InputError):
            PipelineConfig(max_iterations=0)
        with pytest.raises(InputError):
            PipelineConfig(response_power=-1.0)

    @pytest.mark.parametrize("power", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_power_rule_shared_with_model_spec(self, power):
        message = "^response power must be a positive real$"
        with pytest.raises(InputError, match=message):
            PipelineConfig(response_power=power)
        with pytest.raises(InputError, match=message):
            rsm.full_quadratic("ABC", power)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, math.nan, math.inf])
    def test_alpha_rule_shared_with_elimination(self, alpha):
        message = "^" + re.escape(f"alpha must be in (0, 1), got {alpha}") + "$"
        with pytest.raises(InputError, match=message):
            PipelineConfig(alpha=alpha)
        rows = bundled_table4()
        full = rsm.full_quadratic(sorted(rows[0].levels), 3.0)
        with pytest.raises(InputError, match=message):
            rsm.backward_eliminate(rows, full, alpha, rsm.infer_coding(rows))

    def test_empty_initial_design_rejected(self):
        with pytest.raises(InputError, match="initial design has no runs"):
            PipelineConfig(initial_design=())


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


class _Fixed:
    """A stand-in predictor that returns fixed predictions."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def predict_instances(self, obs):
        return self.values


def legacy_comparison(observations, predictor_before, predictor_after):
    """Reference comparison, one row at a time.

    Each squared error is a numpy scalar raised to the power 2 (libm pow),
    each MSE the mean of Python floats squared the same way. Returns
    ``(rows, mse_before, mse_after, csv_text)`` with one tuple
    (id, observed, predicted_before, predicted_after, se_before, se_after)
    per row.
    """
    before = predictor_before.predict_instances(observations)
    after = predictor_after.predict_instances(observations)
    y = observations.targets()
    rows = [
        (inst.id, float(obs), float(pb), float(pa),
         float((pb - obs) ** 2), float((pa - obs) ** 2))
        for inst, obs, pb, pa in zip(observations, y, before, after)
    ]
    mse_before = float(np.mean([(r[2] - r[1]) ** 2 for r in rows]))
    mse_after = float(np.mean([(r[3] - r[1]) ** 2 for r in rows]))
    lines = ["id,observed_hep,predicted_before,predicted_after,se_before,se_after,delta"]
    for r in rows:
        lines.append(",".join([r[0]] + [fmt_full(v) for v in r[1:]] + [fmt_full(r[5] - r[4])]))
    return rows, mse_before, mse_after, "\n".join(lines) + "\n"


def whole_list_comparison_csv_text(report):
    """Reference writer: every row's line in one list, joined at the end."""
    template = "%s," + ",".join([FULL] * 6)
    lines = ["id,observed_hep,predicted_before,predicted_after,se_before,se_after,delta"]
    delta = report.se_after - report.se_before
    lines += [
        template % cells
        for cells in zip(
            report.ids,
            report.observed.tolist(),
            report.predicted_before.tolist(),
            report.predicted_after.tolist(),
            report.se_before.tolist(),
            report.se_after.tolist(),
            delta.tolist(),
        )
    ]
    return "\n".join(lines) + "\n"


class TestComparison:
    def test_reference_columns(self):
        observed, before, after = bundled_refit_comparison()

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

        report = compare_before_after(bundled_case_study(), _Fixed(before), _Fixed(after))
        text = comparison_csv_text(report)
        lines = text.splitlines()
        assert lines[0].startswith("id,observed_hep,predicted_before")
        assert len(lines) == 16

    @pytest.mark.parametrize(
        "n", [0, 1, dataset._BLOCK_ROWS - 1, dataset._BLOCK_ROWS, dataset._BLOCK_ROWS + 1,
              2 * dataset._BLOCK_ROWS + 1]
    )
    def test_csv_blocks_match_whole_list_writer(self, n):
        rng = np.random.default_rng(n)
        observed = rng.uniform(0.0, 1.0, n)
        before, after = rng.uniform(0.0, 1.0, (2, n))
        # cells that print in every length, up to 24 characters
        special = [0.0, 1.0, 0.1, 5e-324, 1 / 3, 2.5e-17, 1e-300]
        before[: len(special)] = special[:n]
        report = ComparisonReport(
            tuple(f"T{i}" + "x" * (i % 5) for i in range(n)),
            observed, before, after, (before - observed) ** 2, (after - observed) ** 2,
            mse_before=0.0, mse_after=0.0,
        )
        text = comparison_csv_text(report)
        assert text == whole_list_comparison_csv_text(report)
        assert text.count("\n") == n + 1

    def test_rows_are_slotted_and_match_the_columns(self):
        observed, before, after = bundled_refit_comparison()
        report = compare_before_after(bundled_case_study(), _Fixed(before), _Fixed(after))
        rows = report.rows
        assert ComparisonRow.__slots__ == (
            "id", "observed", "predicted_before", "predicted_after", "se_before", "se_after"
        )
        assert not any(hasattr(r, "__dict__") for r in rows)
        assert [dataclasses.astuple(r) for r in rows] == list(zip(
            report.ids,
            report.observed.tolist(),
            report.predicted_before.tolist(),
            report.predicted_after.tolist(),
            report.se_before.tolist(),
            report.se_after.tolist(),
        ))
        assert [r.delta for r in rows] == (report.se_after - report.se_before).tolist()
        again = ComparisonRow(*dataclasses.astuple(rows[0]))
        assert again == rows[0] and hash(again) == hash(rows[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            rows[0].observed = 0.0

    @pytest.mark.parametrize("n", [0, 1, dataset._BLOCK_ROWS, 2 * dataset._BLOCK_ROWS + 1])
    def test_rows_view_matches_an_eager_tuple(self, n):
        rng = np.random.default_rng(n)
        observed, before, after = rng.uniform(0.0, 1.0, (3, n))
        report = ComparisonReport(
            tuple(f"T{i}" for i in range(n)),
            observed, before, after, (before - observed) ** 2, (after - observed) ** 2,
            mse_before=0.0, mse_after=0.0,
        )
        oracle = tuple(
            ComparisonRow(*cells)
            for cells in zip(
                report.ids, observed.tolist(), before.tolist(), after.tolist(),
                report.se_before.tolist(), report.se_after.tolist(),
            )
        )
        rows = report.rows
        assert len(rows) == n
        assert tuple(rows) == oracle
        assert [rows[i] for i in range(-n, n)] == list(oracle * 2)
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                rows[i]
        with pytest.raises(TypeError):
            rows[0] = None

    def test_matches_legacy_where_pow_and_multiply_round_apart(self):
        rng = np.random.default_rng(6)
        n = 5000
        obs = ObservationSet(
            tuple(f"T{i:04d}" for i in range(n)),
            rng.uniform(0.5, 5.0, (n, 8)),
            rng.uniform(0.01, 0.3, n),
            (None,) * n,
        )
        before = _Fixed(rng.uniform(0.01, 0.5, n))
        after = _Fixed(rng.uniform(0.01, 0.5, n))
        # the set must hold rows where pow(d, 2) and d * d differ in the
        # last ulp, or it could not tell the two squarings apart
        for predictor in (before, after):
            diffs = (predictor.values - obs.hep).tolist()
            assert any(d ** 2 != d * d for d in diffs)
        rows, mse_before, mse_after, text = legacy_comparison(obs, before, after)
        report = compare_before_after(obs, before, after)
        assert comparison_csv_text(report) == text
        assert report.mse_before.hex() == mse_before.hex()
        assert report.mse_after.hex() == mse_after.hex()
        got = [
            (r.id, r.observed, r.predicted_before, r.predicted_after, r.se_before, r.se_after)
            for r in report.rows
        ]
        assert got == rows


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

    def test_rsm_fit_rows_match_the_fit(self, reference_result, tmp_path):
        save_result(reference_result, bundled_case_study(), tmp_path)
        for rec in reference_result.iterations:
            text = (tmp_path / "iterations" / f"{rec.index:02d}" / "rsm_fit.csv").read_text()
            lines = text.splitlines()[1:]
            assert len(lines) == len(rec.design)
            for line, z in zip(lines, rec.rsm_fit.transformed.tolist()):
                transformed, fitted, residual = map(float, line.split(",")[3:6])
                assert transformed == z
                assert transformed - fitted == residual

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
