"""In-memory spans around the public calls of hra_forge, recorded from outside.

A span is (name, start, end, parent, n): ``parent`` indexes the span that was
open when this one started (-1 for a root) and ``n`` is one count the call
reports (epochs trained, rows read, elimination steps, ...). Spans stay in a
list until the run ends; nothing is written while a pass is timed.

``instrument`` swaps wrappers in where each caller looks a name up:
``pipeline`` imports ``train_replicated``, ``evaluate_design``,
``backward_eliminate``, ``fit`` and ``anova`` by name, so those are patched
in the ``pipeline`` namespace; ``backward_eliminate`` looks up ``rsm.fit``
and ``rsm.anova``; ``train_replicated`` looks up ``ann.train_one``. Methods
are patched on their class. The undo function puts every original back.
"""
from __future__ import annotations

import contextlib
import functools
import time


class Tracer:
    """Tracing on: every span is kept in ``spans`` in start order."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span; the body may set ``rec[4]`` to the call's count."""
        parent = self._open[-1] if self._open else -1
        rec = [name, time.perf_counter(), 0.0, parent, 0]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def descendants(self, root: int) -> list[int]:
        """Indices of every span under ``root`` (spans are in start order)."""
        inside = {root}
        out = []
        end = self.spans[root][2]
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][1] > end:
                break
            if self.spans[i][3] in inside:
                inside.add(i)
                out.append(i)
        return out


class NullTracer:
    """Tracing off: the benchmark's own span sites cost one no-op context."""

    def span(self, name: str):
        return contextlib.nullcontext([name, 0.0, 0.0, -1, 0])


def _wrap(tracer: Tracer, name: str, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as rec:
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if count is not None:
                    rec[4] = count(None, args, exc)
                raise
            if count is not None:
                rec[4] = count(result, args, None)
            return result

    return wrapper


def _epochs(result, args, exc):
    # train_one returns (weights, loss trace) with one entry per epoch run;
    # a diverged member raises TrainingDivergedError at the epoch whose loss
    # was not finite
    return len(result[1]) if exc is None else getattr(exc, "epoch", -1) + 1


def _dropped(result, args, exc):
    return 0 if exc is not None else len(result.dropped_seeds)


def _steps(result, args, exc):
    return 0 if exc is not None else len(result[1])


def _rows_returned(result, args, exc):
    return 0 if exc is not None else len(result)


def _rows_in(result, args, exc):
    # predict_normalized(self, X)
    return len(args[1])


def instrument(tracer: Tracer, hra):
    """Install span wrappers on the hra_forge modules in ``hra``; return undo."""
    ann, dataset, pipeline, rsm = hra.ann, hra.dataset, hra.pipeline, hra.rsm
    targets = [
        (ann, "train_one", "ann.train_one", _epochs),
        (ann, "train_replicated", "ann.train_replicated", _dropped),
        (ann.TrainedPredictor, "predict_normalized", "ann.predict_normalized", _rows_in),
        (rsm, "fit", "rsm.fit", None),
        (rsm, "anova", "rsm.anova", None),
        (rsm, "backward_eliminate", "rsm.backward_eliminate", _steps),
        (pipeline, "train_replicated", "pipeline.train_replicated", _dropped),
        (pipeline, "evaluate_design", "pipeline.evaluate_design", None),
        (pipeline, "backward_eliminate", "pipeline.backward_eliminate", _steps),
        (pipeline, "fit", "pipeline.fit", None),
        (pipeline, "anova", "pipeline.anova", None),
        (dataset, "load_observations", "dataset.load_observations", _rows_returned),
        (dataset.ObservationSet, "matrix", "dataset.matrix", None),
    ]
    saved = []
    for owner, attr, name, count in targets:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, name, original, count))

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo
