"""The benchmark's tracing contract: every name perfbench/spans.py wraps exists.

``spans.instrument`` patches functions and methods of hra_forge by name, so
renaming or deleting one of them breaks the traced benchmark run. The test
loads the module from its file and leaves everything under perfbench/ as it
is.
"""
import importlib.util
from pathlib import Path

import hra_forge
from hra_forge import ann, dataset, pipeline, rsm
from hra_forge.dataset import bundled_table4
from hra_forge.rsm import full_quadratic, infer_coding

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped_names():
    """(owner, attribute) pairs whose value is a function or method."""
    owners = (ann, dataset, pipeline, rsm, ann.TrainedPredictor, dataset.ObservationSet)
    return {
        (owner, name): value
        for owner in owners
        for name, value in vars(owner).items()
        if callable(value)
    }


def test_instrument_wraps_traces_and_undoes():
    spans = load_spans()
    before = wrapped_names()
    tracer = spans.Tracer()
    undo = spans.instrument(tracer, hra_forge)  # a missing name raises KeyError
    try:
        changed = {
            key for key, value in wrapped_names().items() if before.get(key) is not value
        }
        assert changed, "instrument wrapped nothing"
        for owner, name in changed:
            assert getattr(owner, name).__wrapped__ is before[(owner, name)]
        # the screen workload's pass: the trail, then the reduced spec's table
        rows = bundled_table4()
        coding = infer_coding(rows)
        reduced, _ = rsm.backward_eliminate(
            rows, full_quadratic(sorted(rows[0].levels), 3.0), 0.05, coding
        )
        rsm.anova(rsm.fit(rows, reduced, coding), rows)
    finally:
        undo()
    names = [span[0] for span in tracer.spans]
    assert names == ["rsm.backward_eliminate", "rsm.fit", "rsm.fit", "rsm.anova"]
    assert wrapped_names() == before


def test_pipeline_elimination_is_traced():
    """A traced pipeline iteration records its elimination stage: the trail
    and the reduced spec's fit and table, through the pipeline's own names."""
    spans = load_spans()
    tracer = spans.Tracer()
    undo = spans.instrument(tracer, hra_forge)
    try:
        result = pipeline.run(dataset.bundled_case_study(), pipeline.PipelineConfig(
            training=ann.TrainingConfig(n_replications=1, max_epochs=200),
            initial_design=tuple(bundled_table4()),
            max_iterations=1,
        ))
    finally:
        undo()
    steps = len(result.iterations[0].elimination_steps)
    assert steps > 0
    recorded = {}
    for name, _, _, _, n in tracer.spans:
        if name.startswith("pipeline."):
            recorded.setdefault(name, []).append(n)
    assert recorded["pipeline.backward_eliminate"] == [steps]
    assert len(recorded["pipeline.fit"]) == 1
    assert len(recorded["pipeline.anova"]) == 1
