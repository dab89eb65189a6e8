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
        rows = bundled_table4()
        rsm.backward_eliminate(
            rows, full_quadratic(sorted(rows[0].levels), 3.0), 0.05, infer_coding(rows)
        )
    finally:
        undo()
    names = [span[0] for span in tracer.spans]
    assert names[0] == "rsm.backward_eliminate"
    assert "rsm.fit" in names and "rsm.anova" in names
    assert wrapped_names() == before
