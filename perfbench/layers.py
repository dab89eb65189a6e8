"""Per-layer metrics computed from the spans of one traced run.

Counts (epochs, calls, steps, iterations) are totals over the traced set-up
plus the first traced pass of each group, and every later traced pass of a
group must repeat its counts exactly. Time shares of a pass are means over
the traced passes; per-call times and row rates pool every traced span. A
layer a workload never calls reports 0.
"""
from __future__ import annotations

import statistics

PIPELINE_STAGES = {
    "pipeline.train_s": ("pipeline.train_replicated",),
    "pipeline.evaluate_s": ("pipeline.evaluate_design",),
    # the elimination stage includes the pipeline's final fit and ANOVA
    "pipeline.eliminate_s": ("pipeline.backward_eliminate", "pipeline.fit", "pipeline.anova"),
    "pipeline.save_s": ("pipeline.save_result",),
    "cli.report_s": ("cli.report",),
}
FITS = ("rsm.fit", "pipeline.fit")
ANOVAS = ("rsm.anova", "pipeline.anova")
ELIMINATIONS = ("rsm.backward_eliminate", "pipeline.backward_eliminate")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _counts(spans, indices) -> dict:
    calls: dict = {}
    n: dict = {}
    for i in indices:
        name = spans[i][0]
        calls[name] = calls.get(name, 0) + 1
        n[name] = n.get(name, 0) + spans[i][4]

    def total(table, names):
        return sum(table.get(x, 0) for x in names)

    return {
        "ann.epochs": total(n, ("ann.train_one",)),
        "ann.members_dropped": total(n, ("ann.train_replicated", "pipeline.train_replicated")),
        "rsm.elimination_steps": total(n, ELIMINATIONS),
        "rsm.eliminations": total(calls, ELIMINATIONS),
        "rsm.fit_calls": total(calls, FITS),
        "rsm.anova_calls": total(calls, ANOVAS),
        "pipeline.iterations": total(n, ("pipeline.run",)),
    }


def per_layer(tracer, setup_root: int, traced: list, overhead: list):
    """Return (metrics, counts, problems) for the traced passes.

    ``traced`` holds (group, span index of the pass root) per traced pass and
    ``overhead`` the traced/untraced time ratio minus 1 of each pass pair.
    """
    spans = tracer.spans
    setup = tracer.descendants(setup_root)
    pass_spans = [[root] + tracer.descendants(root) for _, root in traced]
    first: dict = {}
    problems = []
    for (group, _), indices in zip(traced, pass_spans):
        got = _counts(spans, indices)
        want = first.setdefault(group, got)
        if got != want:
            problems.append(f"traced pass counts {got} differ from {want} for group {group}")
    counts = _counts(spans, setup)
    for per_pass in first.values():
        counts = {k: v + per_pass[k] for k, v in counts.items()}

    everything = setup + [j for s in pass_spans for j in s]
    busy: dict = {}
    rows: dict = {}
    for i in everything:
        name = spans[i][0]
        busy[name] = busy.get(name, 0.0) + spans[i][2] - spans[i][1]
        rows[name] = rows.get(name, 0) + spans[i][4]
    pooled = _counts(spans, everything)

    pass_roots = [root for _, root in traced]
    n_passes = len(pass_roots)
    in_passes: dict = {}
    for i in [j for s in pass_spans for j in s]:
        name = spans[i][0]
        in_passes[name] = in_passes.get(name, 0.0) + spans[i][2] - spans[i][1]

    def per_pass(*names) -> float:
        return sum(in_passes.get(x, 0.0) for x in names) / n_passes

    inside_elimination = 0
    for i in everything:
        if spans[i][0] in ELIMINATIONS:
            inside_elimination += sum(1 for j in tracer.descendants(i) if spans[j][0] in FITS)

    pass_s = sum(spans[r][2] - spans[r][1] for r in pass_roots) / n_passes
    metrics = {
        "ann.epochs": counts["ann.epochs"],
        "ann.us_per_epoch": 1e6 * _ratio(busy.get("ann.train_one", 0.0), pooled["ann.epochs"]),
        "ann.members_dropped": counts["ann.members_dropped"],
        "ann.predict_rows_per_s": _ratio(
            rows.get("ann.predict_normalized", 0), busy.get("ann.predict_normalized", 0.0)
        ),
        "rsm.eliminate_s": per_pass(*ELIMINATIONS),
        "rsm.elimination_steps": counts["rsm.elimination_steps"],
        "rsm.fit_calls": counts["rsm.fit_calls"],
        "rsm.anova_calls": counts["rsm.anova_calls"],
        "rsm.fit_ms": 1e3 * _ratio(sum(busy.get(x, 0.0) for x in FITS), pooled["rsm.fit_calls"]),
        "rsm.anova_ms": 1e3 * _ratio(sum(busy.get(x, 0.0) for x in ANOVAS), pooled["rsm.anova_calls"]),
        "rsm.fits_per_step": _ratio(
            inside_elimination, pooled["rsm.elimination_steps"] + pooled["rsm.eliminations"]
        ),
        "dataset.load_rows_per_s": _ratio(
            rows.get("dataset.load_observations", 0), busy.get("dataset.load_observations", 0.0)
        ),
        "dataset.matrix_s": per_pass("dataset.matrix"),
        "psf.composite_rows_per_s": _ratio(rows.get("psf.composite", 0), busy.get("psf.composite", 0.0)),
        "pipeline.compare_s": per_pass("pipeline.compare_before_after"),
        "pipeline.iterations": counts["pipeline.iterations"],
        "trace.pass_s": pass_s,
        "trace.overhead_frac": statistics.median(overhead),
    }
    for metric, names in PIPELINE_STAGES.items():
        metrics[metric] = per_pass(*names)
    metrics["pipeline.self_s"] = pass_s - sum(metrics[m] for m in PIPELINE_STAGES)
    if metrics["pipeline.self_s"] < 0:
        problems.append("pipeline stage spans overlap: they add up to more than the pass")
    return metrics, counts, problems
