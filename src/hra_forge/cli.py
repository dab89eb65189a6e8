"""Command-line front end.

Subcommands: quantify, train, design, anova, screen, pipeline, report.
Exit codes: 0 success, 2 input error (a file that cannot be read or
written included), 3 pipeline stopped at the iteration cap, 4 numerical
failure. Output files are written atomically and contain no timestamps, so
identical inputs give byte-identical outputs.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from statistics import NormalDist

import numpy as np

from . import ann, dataset, pipeline, rsm, svg
from .errors import InputError, NumericalError, PipelineAbortedError
from .ioutil import atomic_write_text, check_writable, csv_rows, fmt_console, fmt_full
from .ioutil import load, naming, parse_float
from .psf import (
    FAILURE_CERTAIN,
    PSF_ORDER,
    ErrorTally,
    Mode,
    PsfId,
    bundled_multiplier_tables,
    composite_hep,
    load_multiplier_config,
    nominal_hep,
    resolve_levels,
    total_psf_impact,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_CONVERGED = 3
EXIT_NUMERICAL = 4


def _parse_tally(text: str) -> ErrorTally:
    occurred, sep, potential = text.partition("/")
    if not sep:
        raise InputError(f"tally must look like OCCURRED/POTENTIAL, got {text!r}")
    try:
        return ErrorTally(int(occurred), int(potential))
    except ValueError:
        raise InputError(f"tally counts must be integers, got {text!r}") from None


def _parse_psf_assignment(text: str):
    letter, sep, value = text.partition("=")
    if not sep or len(letter) != 1:
        raise InputError(f"--psf expects LETTER=VALUE_OR_LABEL, got {text!r}")
    psf = PsfId.from_letter(letter)
    try:
        return psf, float(value)
    except ValueError:
        return psf, value


def cmd_quantify(args) -> int:
    tables = (
        load_multiplier_config(args.table)
        if args.table
        else bundled_multiplier_tables()
    )
    assignments = dict(_parse_psf_assignment(a) for a in args.psf or [])
    mode = Mode.Action if args.mode == "action" else Mode.Diagnosis
    tally = _parse_tally(args.tally)
    nominal = nominal_hep(tally)
    vector = resolve_levels(tables, assignments, mode)
    # everything is computed before the first print, so a failing run writes
    # nothing to stdout
    total, composite = "FAILURE_CERTAIN", "1"
    if vector is not FAILURE_CERTAIN:
        impact = total_psf_impact(vector)
        total, composite = fmt_full(impact), fmt_full(float(composite_hep(nominal, impact)))
    print(f"nominal_hep = {fmt_full(float(nominal))}")
    print(f"psf_total = {total}")
    print(f"composite_hep = {composite}")
    return EXIT_OK


def _load_observations_arg(path):
    obs = dataset.load_observations(path) if path else dataset.bundled_case_study()
    if not len(obs):
        raise InputError(f"{path}: empty observation set: no rows after the header")
    return obs


def _training_config(args) -> ann.TrainingConfig:
    config = (
        ann.load_training_config(args.config) if args.config else ann.TrainingConfig()
    )
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "replications", None) is not None:
        overrides["n_replications"] = args.replications
    if overrides:
        config = replace(config, **overrides)
    return config


def cmd_train(args) -> int:
    obs = _load_observations_arg(args.observations)
    config = _training_config(args)
    if args.out:
        check_writable(args.out)  # before the training, not after it
    X, maxima = obs.normalized(PSF_ORDER)
    y = obs.targets()
    predictor = ann.train_replicated(X, y, config, PSF_ORDER, maxima)
    report = ann.metrics(predictor.predict_normalized(X), y)
    for member in predictor.members:
        print(f"seed {member.seed}: loss {fmt_console(member.final_loss)}")
    if predictor.dropped_seeds:
        print(f"dropped diverged seeds: {predictor.dropped_seeds}", file=sys.stderr)
    print(f"ensemble mse = {fmt_console(report.mse)}")
    print(
        "ensemble r2 = "
        + ("undefined" if report.r2 is None else fmt_console(report.r2))
    )
    if args.out:
        ann.save_predictor(predictor, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_design(args) -> int:
    if not args.generate:
        raise InputError("design requires --generate (loading is a no-op)")
    if not 2 <= args.factors <= 8:
        raise InputError(f"--factors must be in 2..8, got {args.factors}")
    letters = [p.letter for p in PSF_ORDER[: args.factors]]
    coding = rsm.uniform_coding(letters)
    rows = rsm.generate_ccd(letters, coding, args.center, args.axial)
    if args.out:
        dataset.save_design(rows, args.out)
        print(f"wrote {args.out} ({len(rows)} runs)")
    else:
        dataset.save_design(rows, sys.stdout)
    return EXIT_OK


def _print_anova(table: rsm.AnovaTable) -> None:
    print(f"{'source':<16} {'sum_sq':>12} {'df':>4} {'mean_sq':>12} "
          f"{'F':>10} {'p':>10}")
    for row in table.rows:
        ms = "" if row.ms is None else fmt_console(row.ms)
        f = "" if row.f is None else fmt_console(row.f)
        p = "" if row.p is None else fmt_console(row.p)
        print(f"{row.source:<16} {fmt_console(row.ss):>12} {row.df:>4} "
              f"{ms:>12} {f:>10} {p:>10}")


def _load_design_arg(path):
    """The design at path (default: bundled) and the coding it was built with."""
    rows = dataset.load_design(path) if path else dataset.bundled_table4()
    with naming(path):
        return rows, rsm.infer_coding(rows)


def cmd_anova(args) -> int:
    rows, coding = _load_design_arg(args.design)
    if args.model:
        spec = rsm.parse_model_spec(args.model)
    else:
        spec = rsm.full_quadratic(sorted(rows[0].levels), pipeline.PipelineConfig.response_power)
    if args.power is not None:
        spec = replace(spec, response_power=args.power)
    fit_result = rsm.fit(rows, spec, coding)
    table = rsm.anova(fit_result, rows)
    _print_anova(table)
    print(f"r2 = {fmt_console(fit_result.r2)}")
    if args.out:
        atomic_write_text(args.out, rsm.anova_csv_text(table))
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_screen(args) -> int:
    rows, coding = _load_design_arg(args.design)
    letters = sorted(rows[0].levels)
    full = rsm.full_quadratic(letters, args.power)
    reduced, steps = rsm.backward_eliminate(rows, full, args.alpha, coding)
    table = rsm.anova(rsm.fit(rows, reduced, coding), rows)
    active = [PsfId.from_letter(l) for l in letters]
    report = rsm.screen_psfs(reduced, active, table.term_pvalues())
    print(f"reduced model: {reduced.to_text()}")
    print(f"removed {len(steps)} terms at alpha {args.alpha:g}")
    sys.stdout.write(rsm.screening_text(report))
    if args.out:
        atomic_write_text(args.out, rsm.screening_text(report))
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    obs = _load_observations_arg(args.observations)
    initial = None if args.generate else tuple(_load_design_arg(args.design)[0])
    config = pipeline.PipelineConfig(
        training=_training_config(args),
        alpha=args.alpha,
        response_power=args.power,
        initial_design=initial,
        max_iterations=args.max_iterations,
    )
    # an --out that cannot be a directory fails before the training
    os.makedirs(args.out, exist_ok=True)
    try:
        result = pipeline.run(obs, config)
    except PipelineAbortedError as exc:
        # persist whatever completed so the failure can be inspected
        if exc.completed:
            partial = pipeline.PipelineResult(exc.completed, pipeline.REASON_ABORTED)
            pipeline.save_result(partial, obs, args.out)
            print(f"wrote partial trail to {args.out}", file=sys.stderr)
        raise
    pipeline.save_result(result, obs, args.out)
    print(f"{len(result.iterations)} iteration(s); stop reason: {result.reason}")
    print(
        "retained: "
        + (", ".join(p.name for p in result.final_retained) or "(none)")
    )
    print(f"wrote {args.out}")
    if result.reason == pipeline.REASON_MAX_ITERATIONS:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


#: The largest magnitude ``report`` plots: spans, paddings and the residuals'
#: summed squares stay finite for values within it, up to 4e7 rows.
_PLOT_LIMIT = 1e150


def _read_csv(path, names) -> list[list[float]]:
    """The numeric columns of a result CSV with the given header names."""
    rows = load(path, csv_rows)
    with naming(path):
        if len(rows) < 2:
            raise InputError("expected a header row and at least one data row")
        header = rows[0]
        for name in names:
            if name not in header:
                raise InputError(f"header has no column {name!r}")
        at = [header.index(name) for name in names]
        values = [[] for _ in names]
        for rowno, cells in enumerate(rows[1:], start=1):
            if len(cells) != len(header):
                raise InputError(f"row {rowno}: expected {len(header)} cells, got {len(cells)}")
            for out, i, name in zip(values, at, names):
                value = parse_float(cells[i], rowno, name)
                if not abs(value) <= _PLOT_LIMIT:
                    what = f"beyond ±{_PLOT_LIMIT:g}" if math.isfinite(value) else "not finite"
                    raise InputError(f"row {rowno}: column {name!r} is {what}: {cells[i]!r}")
                out.append(value)
    return values


def cmd_report(args) -> int:
    result_dir = args.result
    outdir = args.out or result_dir
    iter_root = os.path.join(result_dir, "iterations")
    required = [os.path.join(result_dir, "summary.csv"), iter_root]
    missing = [p for p in required if not os.path.exists(p)]
    subdirs = []
    if os.path.isdir(iter_root):
        subdirs = sorted(
            d for d in os.listdir(iter_root)
            if os.path.isdir(os.path.join(iter_root, d))
        )
        if not subdirs:
            missing.append(os.path.join(iter_root, "<iteration dirs>"))
        for d in subdirs:
            if not pipeline.is_iteration_name(d):
                raise InputError(
                    f"{os.path.join(iter_root, d)}: not an iteration directory "
                    "(expected a number such as 01)"
                )
            for name in ("metrics.csv", "rsm_fit.csv"):
                p = os.path.join(iter_root, d, name)
                if not os.path.exists(p):
                    missing.append(p)
    if missing:
        raise InputError("missing result artifacts: " + ", ".join(missing))
    os.makedirs(outdir, exist_ok=True)
    # the plotted columns, by the names save_result writes them under
    _, observed_col, predicted_col, _ = pipeline.METRICS_COLUMNS
    _, _, response_col, _, fitted_col, residual_col, back_col = pipeline.RSM_FIT_COLUMNS
    written = []
    for d in subdirs:
        sub = os.path.join(iter_root, d)
        observed, predicted = _read_csv(
            os.path.join(sub, "metrics.csv"), (observed_col, predicted_col)
        )
        response, fitted, residual, back = _read_csv(
            os.path.join(sub, "rsm_fit.csv"),
            (response_col, fitted_col, residual_col, back_col),
        )
        res = np.array(residual)
        order = np.sort(res)
        n = len(order)
        quantile = NormalDist().inv_cdf
        theo = [quantile((i - 0.5) / n) for i in range(1, n + 1)]
        mu = float(res.mean())
        sigma = float(res.std())
        # one plot per kind, in the order of pipeline.REPORT_PLOTS
        plots = (
            svg.scatter_svg(
                list(zip(observed, predicted)),
                title=f"Observed vs predicted HEP (iteration {int(d)})",
                xlabel="observed HEP",
                ylabel="predicted HEP",
                ref_line=(1.0, 0.0),
            ),
            svg.scatter_svg(
                list(zip(theo, order.tolist())),
                title=f"Normal quantile plot of residuals (iteration {int(d)})",
                xlabel="theoretical quantile",
                ylabel="residual",
                ref_line=(sigma, mu),
            ),
            svg.scatter_svg(
                list(zip(fitted, residual)),
                title=f"Residuals vs predicted (iteration {int(d)})",
                xlabel="predicted transformed response",
                ylabel="residual",
                ref_line=(0.0, 0.0),
            ),
            svg.scatter_svg(
                list(zip(response, back)),
                title=f"Observed vs predicted reliability (iteration {int(d)})",
                xlabel="reliability from the network",
                ylabel="reliability from the surface",
                ref_line=(1.0, 0.0),
            ),
        )
        for kind, text in zip(pipeline.REPORT_PLOTS, plots):
            path = os.path.join(outdir, f"{kind}_{d}.svg")
            atomic_write_text(path, text)
            written.append(path)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hra-forge",
        description="Human error probability estimation and PSF screening.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quantify", help="closed-form composite HEP from a tally and PSF levels")
    p.add_argument("--table", help="multiplier config file (default: bundled)")
    p.add_argument("--tally", required=True, help="OCCURRED/POTENTIAL error counts")
    p.add_argument("--psf", action="append", metavar="LETTER=VALUE",
                   help="PSF level label or numeric multiplier; repeatable")
    p.add_argument("--mode", choices=("action", "diagnosis"), default="action")
    p.set_defaults(func=cmd_quantify)

    p = sub.add_parser("train", help="train the replicated network ensemble")
    p.add_argument("--observations", help="observations CSV (default: bundled)")
    p.add_argument("--config", help="training config file (key=value lines)")
    p.add_argument("--seed", type=int)
    p.add_argument("--replications", type=int)
    p.add_argument("--out", help="write the trained predictor here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("design", help="generate a central composite design")
    p.add_argument("--generate", action="store_true")
    p.add_argument("--factors", type=int, default=8)
    p.add_argument("--center", type=int, default=rsm.DEFAULT_CENTER_RUNS)
    p.add_argument("--axial", type=float, default=rsm.DEFAULT_AXIAL)
    p.add_argument("--out", help="design CSV destination (default: stdout)")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("anova", help="fit a model to a design and print the ANOVA")
    p.add_argument("--design", help="design CSV (default: bundled)")
    p.add_argument("--model", help="model spec text, e.g. '1, A, B, AD; power=3'")
    p.add_argument("--power", type=float, help="response transform exponent")
    p.add_argument("--out", help="ANOVA CSV destination")
    p.set_defaults(func=cmd_anova)

    p = sub.add_parser("screen", help="backward-eliminate the full quadratic and screen factors")
    p.add_argument("--design", help="design CSV (default: bundled)")
    p.add_argument("--alpha", type=float, default=pipeline.PipelineConfig.alpha)
    p.add_argument("--power", type=float, default=pipeline.PipelineConfig.response_power,
                   help="response transform exponent")
    p.add_argument("--out", help="screening report destination")
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("pipeline", help="run the full screening loop")
    p.add_argument("--observations", help="observations CSV (default: bundled)")
    p.add_argument("--design", help="first-iteration design CSV (default: bundled)")
    p.add_argument("--generate", action="store_true",
                   help="generate the first-iteration design instead")
    p.add_argument("--config", help="training config file")
    p.add_argument("--alpha", type=float, default=pipeline.PipelineConfig.alpha)
    p.add_argument("--power", type=float, default=pipeline.PipelineConfig.response_power)
    p.add_argument("--seed", type=int)
    p.add_argument("--replications", type=int)
    p.add_argument("--max-iterations", type=int, default=pipeline.PipelineConfig.max_iterations)
    p.add_argument("--out", required=True, help="result directory")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("report", help="emit SVG plots from a pipeline result directory")
    p.add_argument("--result", required=True, help="pipeline result directory")
    p.add_argument("--out", help="plot destination directory (default: result dir)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        # a file the command writes (reads fail as InputError, in ioutil)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
