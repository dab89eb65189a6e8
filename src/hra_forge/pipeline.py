"""The iterate-until-convergence screening loop.

Each iteration: normalize the active PSF columns, train the replicated
network ensemble, evaluate a screening design through it (or use the
supplied first-iteration design), fit the full hierarchical quadratic to the
transformed response, backward-eliminate, and screen factors. Factors no
surviving term involves are dropped and the loop repeats on the survivors.
The loop stops when an iteration eliminates nothing, when fewer than two
factors would remain, or at the iteration cap.
"""
from __future__ import annotations

import operator
import os
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ann import (
    MetricReport,
    TrainedPredictor,
    TrainingConfig,
    metrics,
    save_predictor,
    train_replicated,
)
from .dataset import _BLOCK_ROWS, DesignRow, ObservationSet, save_design
from .errors import InputError, NumericalError, PipelineAbortedError
from .ioutil import FULL, atomic_write_text, csv_text
from .psf import PSF_ORDER, PsfId
from .rsm import (
    AnovaTable,
    EliminationStep,
    FitResult,
    ScreeningReport,
    anova,
    anova_csv_text,
    back_transform,
    backward_eliminate,
    check_alpha,
    check_response_power,
    evaluate_design,
    fit,
    full_quadratic,
    generate_ccd,
    infer_coding,
    screen_psfs,
    screening_text,
    uniform_coding,
)

REASON_CONVERGED = "no-elimination"
REASON_MAX_ITERATIONS = "max-iterations"
REASON_MIN_PSFS = "min-psfs"
REASON_ABORTED = "aborted"  # the partial trail of a failed run


@dataclass(frozen=True)
class PipelineConfig:
    """Loop parameters.

    ``training`` sets the network; its hidden width is ``training.hidden_nodes``.
    ``initial_design`` supplies evaluated rows for the first iteration (the
    bundled 60-run table in the reference workflow); its coding is inferred
    from the rows. Later iterations, and the first when no design is given,
    evaluate through the freshly trained ensemble a central composite design
    with ``rsm.generate_ccd``'s defaults under ``rsm.uniform_coding``.
    """

    training: TrainingConfig = TrainingConfig()
    alpha: float = 0.05
    response_power: float = 3.0
    initial_design: Optional[tuple[DesignRow, ...]] = None
    max_iterations: int = 10

    def __post_init__(self):
        check_alpha(self.alpha)
        if self.max_iterations < 1:
            raise InputError("max_iterations must be >= 1")
        check_response_power(self.response_power)
        if self.initial_design is not None:
            if not self.initial_design:
                raise InputError("initial design has no runs")
            object.__setattr__(self, "initial_design", tuple(self.initial_design))


@dataclass(frozen=True)
class IterationRecord:
    index: int
    active: tuple[PsfId, ...]
    predictor: TrainedPredictor
    predicted: tuple[float, ...]
    metric_report: MetricReport
    design: tuple[DesignRow, ...]
    rsm_fit: FitResult
    anova_table: AnovaTable
    elimination_steps: tuple[EliminationStep, ...]
    screening: ScreeningReport


@dataclass(frozen=True)
class PipelineResult:
    iterations: tuple[IterationRecord, ...]
    reason: str

    @property
    def final_predictor(self) -> TrainedPredictor:
        return self.iterations[-1].predictor

    @property
    def final_retained(self) -> tuple[PsfId, ...]:
        return self.iterations[-1].screening.retained


def run(observations: ObservationSet, config: PipelineConfig) -> PipelineResult:
    """Execute the screening loop; deterministic for a fixed config."""
    if len(observations) == 0:
        raise InputError("cannot run the pipeline on an empty observation set")
    active: list[PsfId] = list(PSF_ORDER)
    records: list[IterationRecord] = []
    iteration = 0
    while True:
        iteration += 1
        try:
            record = _run_iteration(observations, config, active, iteration)
        except NumericalError as exc:
            raise PipelineAbortedError(iteration, exc, records) from exc
        records.append(record)
        screening = record.screening
        if not screening.eliminated:
            reason = REASON_CONVERGED
            break
        active = [p for p in active if p in screening.retained]
        if len(active) < 2:
            reason = REASON_MIN_PSFS
            break
        if iteration >= config.max_iterations:
            reason = REASON_MAX_ITERATIONS
            break
    return PipelineResult(tuple(records), reason)


def _run_iteration(
    observations: ObservationSet,
    config: PipelineConfig,
    active: Sequence[PsfId],
    iteration: int,
) -> IterationRecord:
    X, maxima = observations.normalized(active)
    y = observations.targets()
    predictor = train_replicated(X, y, config.training, active, maxima)
    predicted = predictor.predict_normalized(X)
    report = metrics(predicted, y)

    letters = [p.letter for p in active]
    if iteration == 1 and config.initial_design is not None:
        rows = list(config.initial_design)
        have = sorted(rows[0].levels)
        if have != sorted(letters):
            raise InputError(
                f"initial design factors {have} do not match the active "
                f"PSF letters {sorted(letters)}"
            )
        if any(r.response is None for r in rows):
            rows = evaluate_design(rows, predictor)
        coding = infer_coding(rows)
    else:
        coding = uniform_coding(letters)
        rows = generate_ccd(letters, coding)
        rows = evaluate_design(rows, predictor)

    full = full_quadratic(letters, config.response_power)
    reduced, steps = backward_eliminate(rows, full, config.alpha, coding)
    reduced_fit = fit(rows, reduced, coding)
    table = anova(reduced_fit, rows)
    screening = screen_psfs(reduced, active, table.term_pvalues())

    return IterationRecord(
        index=iteration,
        active=tuple(active),
        predictor=predictor,
        predicted=tuple(float(v) for v in predicted),
        metric_report=report,
        design=tuple(rows),
        rsm_fit=reduced_fit,
        anova_table=table,
        elimination_steps=tuple(steps),
        screening=screening,
    )


# --- before/after comparison --------------------------------------------------

@dataclass(frozen=True, slots=True)
class ComparisonRow:
    id: str
    observed: float
    predicted_before: float
    predicted_after: float
    se_before: float
    se_after: float

    @property
    def delta(self) -> float:
        return self.se_after - self.se_before


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Per-instance columns of a before/after comparison, one entry per row.

    ``observed``, ``predicted_before``, ``predicted_after``, ``se_before``
    and ``se_after`` are float arrays aligned with ``ids``.
    """

    ids: tuple[str, ...]
    observed: np.ndarray
    predicted_before: np.ndarray
    predicted_after: np.ndarray
    se_before: np.ndarray
    se_after: np.ndarray
    mse_before: float
    mse_after: float

    @property
    def mse_delta(self) -> float:
        return self.mse_after - self.mse_before

    @property
    def rows(self) -> "ComparisonRows":
        return ComparisonRows(self)


class ComparisonRows(Sequence):
    """A read-only view of a ComparisonReport as one ComparisonRow per row.

    Each row is built from the report's columns when it is read, and none is
    kept; iteration converts ``_BLOCK_ROWS`` rows of the columns at a time.
    """

    __slots__ = ("_report",)

    def __init__(self, report: ComparisonReport):
        self._report = report

    def _columns(self):
        r = self._report
        return r.observed, r.predicted_before, r.predicted_after, r.se_before, r.se_after

    def __len__(self) -> int:
        return len(self._report.ids)

    def __getitem__(self, index: int) -> ComparisonRow:
        i = range(len(self))[operator.index(index)]
        return ComparisonRow(self._report.ids[i], *(c[i].item() for c in self._columns()))

    def __iter__(self) -> Iterator[ComparisonRow]:
        for start in range(0, len(self), _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            yield from map(
                ComparisonRow,
                self._report.ids[rows],
                *(c[rows].tolist() for c in self._columns()),
            )


def _squared_errors(predicted, observed) -> np.ndarray:
    # Python's float ** 2 is libm pow(), which can differ from the x * x
    # that an array ** 2 computes in the last ulp; the saved comparison
    # keeps pow()'s rounding
    return np.array([d ** 2 for d in (predicted - observed).tolist()])


def compare_before_after(
    observations: ObservationSet,
    predictor_before: TrainedPredictor,
    predictor_after: TrainedPredictor,
) -> ComparisonReport:
    """Per-instance squared errors of two predictors on the same observations."""
    before = predictor_before.predict_instances(observations)
    after = predictor_after.predict_instances(observations)
    y = observations.targets()
    se_before = _squared_errors(before, y)
    se_after = _squared_errors(after, y)
    return ComparisonReport(
        observations.ids,
        y,
        before,
        after,
        se_before,
        se_after,
        mse_before=float(np.mean(se_before)),
        mse_after=float(np.mean(se_after)),
    )


def comparison_csv_text(report: ComparisonReport) -> str:
    # one %-template per row: csv_text's per-cell dispatch takes about 1.6x
    # as long (+0.1 s) on a 40k-row comparison. Rows are formatted
    # _BLOCK_ROWS at a time, so only one block's cells are Python objects.
    template = "%s," + ",".join([FULL] * 6) + "\n"
    columns = (
        report.observed,
        report.predicted_before,
        report.predicted_after,
        report.se_before,
        report.se_after,
        report.se_after - report.se_before,
    )
    blocks = ["id,observed_hep,predicted_before,predicted_after,se_before,se_after,delta\n"]
    for start in range(0, len(report.ids), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        blocks.append("".join([
            template % cells
            for cells in zip(report.ids[rows], *(column[rows].tolist() for column in columns))
        ]))
    return "".join(blocks)


# --- result directory serialization --------------------------------------------

#: The header of each iteration's metrics.csv and rsm_fit.csv; ``hra-forge
#: report`` finds the columns it plots by these names.
METRICS_COLUMNS = ("id", "observed_hep", "predicted_hep", "squared_error")
RSM_FIT_COLUMNS = ("std", "run", "response", "transformed", "fitted", "residual",
                   "predicted_response")


def _metrics_csv_text(record: IterationRecord, observations: ObservationSet) -> str:
    return csv_text(METRICS_COLUMNS, zip(
        observations.ids,
        observations.hep.tolist(),
        record.predicted,
        record.metric_report.se,
    ))


def _rsm_fit_csv_text(record: IterationRecord) -> str:
    rsm_fit = record.rsm_fit
    power = rsm_fit.spec.response_power
    return csv_text(RSM_FIT_COLUMNS, (
        [row.std_order, row.run_order, row.response, z, fitted, resid,
         back_transform(float(fitted), power)[0]]
        for row, z, fitted, resid in zip(
            record.design, rsm_fit.transformed, rsm_fit.fitted, rsm_fit.residuals
        )
    ))


def _elimination_csv_text(steps: Sequence[EliminationStep]) -> str:
    rows = ([i, str(s.term), s.p_value, s.sse_after] for i, s in enumerate(steps, start=1))
    return csv_text(["step", "term", "p_value", "sse_after"], rows)


def _names(psfs: Sequence[PsfId]) -> str:
    return ";".join(p.name for p in psfs)


def summary_csv_text(result: PipelineResult) -> str:
    header = ("iteration", "n_active", "active", "eliminated", "retained",
              "ensemble_mse", "r_squared", "stop_reason")
    last = len(result.iterations)
    return csv_text(header, (
        [
            rec.index,
            len(rec.active),
            _names(rec.active),
            _names(rec.screening.eliminated),
            _names(rec.screening.retained),
            rec.metric_report.mse,
            rec.metric_report.r2,
            result.reason if rec.index == last else None,
        ]
        for rec in result.iterations
    ))


#: The files save_result writes into each ``iterations/NN`` directory.
ITERATION_FILES = (
    "metrics.csv",
    "anova.csv",
    "screening.txt",
    "predictor.txt",
    "design.csv",
    "model.txt",
    "rsm_fit.csv",
    "elimination.csv",
)

#: The plots ``hra-forge report`` draws per iteration, as ``<kind>_NN.svg``.
REPORT_PLOTS = (
    "hep_observed_vs_predicted",
    "residuals_normal",
    "residuals_vs_predicted",
    "reliability_observed_vs_predicted",
)


def is_iteration_name(name: str) -> bool:
    """Whether a directory name under ``iterations/`` is an iteration number."""
    return name.isascii() and name.isdigit()


def _remove_stale(outdir: str, kept: set) -> None:
    """Delete what an earlier run left in outdir that this run does not rewrite.

    That is every iteration directory not in ``kept`` and every report plot,
    since the plots describe the earlier run. Only names this program writes
    are removed; an iteration directory left holding other files stays.
    """
    iter_root = os.path.join(outdir, "iterations")
    if os.path.isdir(iter_root):
        for d in os.listdir(iter_root):
            sub = os.path.join(iter_root, d)
            if d in kept or not is_iteration_name(d) or not os.path.isdir(sub):
                continue
            for name in ITERATION_FILES:
                path = os.path.join(sub, name)
                if os.path.isfile(path):
                    os.remove(path)
            if not os.listdir(sub):
                os.rmdir(sub)
    for name in os.listdir(outdir):
        kind, _, number = name.rpartition("_")
        if (kind in REPORT_PLOTS and number.endswith(".svg")
                and is_iteration_name(number[:-4])):
            os.remove(os.path.join(outdir, name))


def save_result(result: PipelineResult, observations: ObservationSet, outdir) -> None:
    """Write the result directory: per-iteration artifacts plus summary.csv.

    Saving into a directory that holds an earlier result first removes that
    result's iteration directories that this one does not rewrite and the
    report plots drawn from it, so old and new artifacts never mix.
    """
    outdir = os.fspath(outdir)
    os.makedirs(outdir, exist_ok=True)
    _remove_stale(outdir, {f"{rec.index:02d}" for rec in result.iterations})
    for rec in result.iterations:
        subdir = os.path.join(outdir, "iterations", f"{rec.index:02d}")
        os.makedirs(subdir, exist_ok=True)
        save_predictor(rec.predictor, os.path.join(subdir, "predictor.txt"))
        save_design(rec.design, os.path.join(subdir, "design.csv"))
        texts = {
            "metrics.csv": _metrics_csv_text(rec, observations),
            "anova.csv": anova_csv_text(rec.anova_table),
            "screening.txt": screening_text(rec.screening),
            "model.txt": rec.rsm_fit.spec.to_text() + "\n",
            "rsm_fit.csv": _rsm_fit_csv_text(rec),
            "elimination.csv": _elimination_csv_text(rec.elimination_steps),
        }
        for name, text in texts.items():
            atomic_write_text(os.path.join(subdir, name), text)
    atomic_write_text(os.path.join(outdir, "summary.csv"), summary_csv_text(result))
