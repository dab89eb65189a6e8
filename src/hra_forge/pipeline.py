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

import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .ann import (
    MetricReport,
    TrainedPredictor,
    TrainingConfig,
    metrics,
    save_predictor,
)
from .ann import train_replicated
from .dataset import DesignRow, ObservationSet, save_design
from .errors import InputError, NumericalError, PipelineAbortedError
from .ioutil import atomic_write_text, fmt_full
from .psf import PSF_ORDER, PsfId
from .rsm import (
    DEFAULT_AXIAL,
    AnovaTable,
    EliminationStep,
    FactorCoding,
    FitResult,
    ModelSpec,
    ScreeningReport,
    _eliminate,
    anova_csv_text,
    evaluate_design,
    full_quadratic,
    generate_ccd,
    infer_coding,
    screen_psfs,
    screening_text,
    uniform_coding,
)
# Not called here; kept as module names because perfbench/spans.py wraps
# them in this namespace when tracing.
from .rsm import anova, backward_eliminate, fit  # noqa: F401

REASON_CONVERGED = "no-elimination"
REASON_MAX_ITERATIONS = "max-iterations"
REASON_MIN_PSFS = "min-psfs"


@dataclass(frozen=True)
class PipelineConfig:
    """Loop parameters.

    ``initial_design`` supplies evaluated rows for the first iteration (the
    bundled 60-run table in the reference workflow); its coding is inferred
    from the rows. Later iterations, and the first when no design is given,
    generate a central composite design on the normalized scale with the
    uniform coding (center 0.5, half range 0.3) and evaluate it through the
    freshly trained ensemble.
    """

    training: TrainingConfig = TrainingConfig()
    alpha: float = 0.05
    response_power: float = 3.0
    initial_design: Optional[tuple[DesignRow, ...]] = None
    n_center: int = 6
    axial: float = DEFAULT_AXIAL
    coding_center: float = 0.5
    coding_half: float = 0.3
    max_iterations: int = 10

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise InputError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.max_iterations < 1:
            raise InputError("max_iterations must be >= 1")
        if not self.response_power > 0:
            raise InputError("response power must be positive")
        if self.initial_design is not None:
            object.__setattr__(self, "initial_design", tuple(self.initial_design))


@dataclass(frozen=True)
class IterationRecord:
    index: int
    active: tuple[PsfId, ...]
    predictor: TrainedPredictor
    predicted: tuple[float, ...]
    metric_report: MetricReport
    design: tuple[DesignRow, ...]
    coding: FactorCoding
    reduced_spec: ModelSpec
    rsm_fit: FitResult
    anova_table: AnovaTable
    elimination_steps: tuple[EliminationStep, ...]
    screening: ScreeningReport


@dataclass(frozen=True)
class PipelineResult:
    iterations: tuple[IterationRecord, ...]
    final_predictor: TrainedPredictor
    final_retained: tuple[PsfId, ...]
    reason: str


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
    return PipelineResult(
        iterations=tuple(records),
        final_predictor=records[-1].predictor,
        final_retained=records[-1].screening.retained,
        reason=reason,
    )


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
        coding = uniform_coding(letters, config.coding_center, config.coding_half)
        rows = generate_ccd(active, coding, config.n_center, config.axial)
        rows = evaluate_design(rows, predictor)

    full = full_quadratic(letters, config.response_power)
    reduced, steps, reduced_fit, table = _eliminate(rows, full, config.alpha, coding)
    screening = screen_psfs(reduced, active, table.term_pvalues())

    return IterationRecord(
        index=iteration,
        active=tuple(active),
        predictor=predictor,
        predicted=tuple(float(v) for v in predicted),
        metric_report=report,
        design=tuple(rows),
        coding=coding,
        reduced_spec=reduced,
        rsm_fit=reduced_fit,
        anova_table=table,
        elimination_steps=tuple(steps),
        screening=screening,
    )


# --- before/after comparison --------------------------------------------------

@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[ComparisonRow, ...]
    mse_before: float
    mse_after: float

    @property
    def mse_delta(self) -> float:
        return self.mse_after - self.mse_before


def compare_before_after(
    observations: ObservationSet,
    predictor_before: TrainedPredictor,
    predictor_after: TrainedPredictor,
) -> ComparisonReport:
    """Per-instance squared errors of two predictors on the same observations."""
    before = predictor_before.predict_instances(observations)
    after = predictor_after.predict_instances(observations)
    y = observations.targets()
    rows = tuple(
        ComparisonRow(
            id=inst.id,
            observed=float(obs),
            predicted_before=float(pb),
            predicted_after=float(pa),
            se_before=float((pb - obs) ** 2),
            se_after=float((pa - obs) ** 2),
        )
        for inst, obs, pb, pa in zip(observations, y, before, after)
    )
    return ComparisonReport(
        rows,
        mse_before=float(np.mean([(r.predicted_before - r.observed) ** 2 for r in rows])),
        mse_after=float(np.mean([(r.predicted_after - r.observed) ** 2 for r in rows])),
    )


def comparison_csv_text(report: ComparisonReport) -> str:
    lines = ["id,observed_hep,predicted_before,predicted_after,se_before,se_after,delta"]
    for r in report.rows:
        lines.append(
            ",".join(
                [
                    r.id,
                    fmt_full(r.observed),
                    fmt_full(r.predicted_before),
                    fmt_full(r.predicted_after),
                    fmt_full(r.se_before),
                    fmt_full(r.se_after),
                    fmt_full(r.delta),
                ]
            )
        )
    return "\n".join(lines) + "\n"


# --- result directory serialization --------------------------------------------

def _metrics_csv_text(record: IterationRecord, observations: ObservationSet) -> str:
    lines = ["id,observed_hep,predicted_hep,squared_error"]
    for inst, pred, se in zip(
        observations, record.predicted, record.metric_report.se
    ):
        lines.append(
            ",".join(
                [
                    inst.id,
                    fmt_full(float(inst.observed_hep)),
                    fmt_full(pred),
                    fmt_full(se),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _rsm_fit_csv_text(record: IterationRecord) -> str:
    power = record.reduced_spec.response_power
    lines = ["std,run,response,transformed,fitted,residual,predicted_response"]
    for row, fitted, resid in zip(
        record.design, record.rsm_fit.fitted, record.rsm_fit.residuals
    ):
        z = row.response ** power
        back = 0.0 if fitted < 0 else min(float(fitted) ** (1.0 / power), 100.0)
        lines.append(
            ",".join(
                [
                    str(row.std_order),
                    str(row.run_order),
                    fmt_full(row.response),
                    fmt_full(z),
                    fmt_full(fitted),
                    fmt_full(resid),
                    fmt_full(back),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _elimination_csv_text(steps: Sequence[EliminationStep]) -> str:
    lines = ["step,term,p_value,sse_after"]
    for i, step in enumerate(steps, start=1):
        lines.append(
            ",".join([str(i), str(step.term), fmt_full(step.p_value), fmt_full(step.sse_after)])
        )
    return "\n".join(lines) + "\n"


def _names(psfs: Sequence[PsfId]) -> str:
    return ";".join(p.name for p in psfs)


def summary_csv_text(result: PipelineResult) -> str:
    lines = [
        "iteration,n_active,active,eliminated,retained,ensemble_mse,r_squared,stop_reason"
    ]
    last = len(result.iterations)
    for rec in result.iterations:
        r2 = rec.metric_report.r2
        lines.append(
            ",".join(
                [
                    str(rec.index),
                    str(len(rec.active)),
                    _names(rec.active),
                    _names(rec.screening.eliminated),
                    _names(rec.screening.retained),
                    fmt_full(rec.metric_report.mse),
                    "" if r2 is None else fmt_full(r2),
                    result.reason if rec.index == last else "",
                ]
            )
        )
    return "\n".join(lines) + "\n"


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
        atomic_write_text(
            os.path.join(subdir, "metrics.csv"), _metrics_csv_text(rec, observations)
        )
        atomic_write_text(
            os.path.join(subdir, "anova.csv"), anova_csv_text(rec.anova_table)
        )
        atomic_write_text(
            os.path.join(subdir, "screening.txt"), screening_text(rec.screening)
        )
        save_predictor(rec.predictor, os.path.join(subdir, "predictor.txt"))
        save_design(rec.design, os.path.join(subdir, "design.csv"))
        atomic_write_text(
            os.path.join(subdir, "model.txt"), rec.reduced_spec.to_text() + "\n"
        )
        atomic_write_text(os.path.join(subdir, "rsm_fit.csv"), _rsm_fit_csv_text(rec))
        atomic_write_text(
            os.path.join(subdir, "elimination.csv"),
            _elimination_csv_text(rec.elimination_steps),
        )
    atomic_write_text(os.path.join(outdir, "summary.csv"), summary_csv_text(result))
