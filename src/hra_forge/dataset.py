"""Observation and design-table ingestion, validation, and bundled fixtures.

Two CSV shapes are understood:

* observations: ``id,available_time,stress,complexity,experience_training,
  procedures,ergonomics,fitness_for_duty,work_process,hep[,trials]``
* designs: ``std,run,<factor letters>,reliability`` where the factor letters
  are a subset of A..H in alphabetical order (the bundled design uses all
  eight; reduced designs produced after factor elimination use fewer).

An observation file named by path is read through ``ioutil.load_lines``, about
1 MiB of text at a time, and its lines are parsed in blocks of ``_BLOCK_ROWS``
rows, each checked in one pass over its columns. So a load holds one chunk's
text and lines and one block's cells at a time. The error still names the
earliest faulty row of the file and, within it, the first failed rule of: the
cell count; each PSF cell, then hep, is a number; hep is in [0, 1]; trials is
empty or an integer; each multiplier is finite and > 0; trials >= 1. Duplicate
ids are reported only when no row is faulty.

The bundled fixtures are the 15-instance case study and the 60-run
eight-factor screening design; ``ioutil`` checks their digests at load.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import InputError
from .ioutil import atomic_write_text, bundled_text, csv_lines, csv_rows, csv_text, load
from .ioutil import load_lines, parse_float, parse_int
from .psf import PSF_ORDER, Probability, PsfId, PsfVector

_OBS_COLUMNS = tuple(["id"] + [p.column for p in PSF_ORDER] + ["hep"])
_OBS_COLUMNS_TRIALS = _OBS_COLUMNS + ("trials",)


@dataclass(frozen=True, slots=True)
class Instance:
    """One observed work instance: raw PSF multipliers and the measured HEP."""

    id: str
    psfs: PsfVector
    observed_hep: Probability
    trials: Optional[int] = None

    def __post_init__(self):
        if self.trials is not None and self.trials < 1:
            raise InputError(
                f"instance {self.id!r}: trials must be >= 1, got {self.trials}"
            )


# The slot setters of the three row value objects, bound once. Iterating an
# ObservationSet builds each row's objects with object.__new__ and one setter
# call per field: the set checked its columns when it was built.
_SET_ID, _SET_PSFS, _SET_HEP, _SET_TRIALS = (
    Instance.__dict__[name].__set__ for name in ("id", "psfs", "observed_hep", "trials")
)
_SET_MULTIPLIERS = PsfVector.__dict__["multipliers"].__set__
_SET_VALUE = Probability.__dict__["value"].__set__

# Rows parsed at a time by the loader, and converted from the columns at a
# time while iterating: a whole-file pass would hold every cell as a Python
# str, and a whole-set conversion every multiplier as a Python float, at once.
_BLOCK_ROWS = 1024


@dataclass(frozen=True, eq=False)
class ObservationSet:
    """An ordered collection of instances, stored as columns.

    ``ids`` holds one id per row, ``psfs`` the (n, 8) raw multipliers in
    ``PSF_ORDER``, ``hep`` the observed HEPs and ``trials`` one trial count
    (or None) per row. Every PSF is finite and > 0, every HEP in [0, 1],
    every trial count >= 1 and every id unique. The arrays are read-only.

    Iterating the set yields a fresh ``Instance`` per row and caches nothing:
    two passes yield equal but not identical instances. ``instances`` is the
    cached tuple of them.
    """

    ids: tuple[str, ...]
    psfs: np.ndarray
    hep: np.ndarray
    trials: tuple[Optional[int], ...]

    def __post_init__(self):
        ids, trials = tuple(self.ids), tuple(self.trials)
        n = len(ids)
        psfs = np.array(self.psfs, dtype=float, order="C")
        hep = np.array(self.hep, dtype=float)
        if psfs.shape != (n, len(PSF_ORDER)) or hep.shape != (n,) or len(trials) != n:
            raise InputError(
                f"observation columns disagree: {n} ids, PSFs of shape "
                f"{psfs.shape}, {hep.size} HEPs, {len(trials)} trial counts"
            )
        if not ((psfs > 0.0) & (psfs < math.inf)).all():
            raise InputError("PSF multipliers must be finite and > 0")
        if not ((hep >= 0.0) & (hep <= 1.0)).all():
            raise InputError("observed HEPs must be in [0, 1]")
        if any(t is not None and t < 1 for t in trials):
            raise InputError("trial counts must be >= 1")
        dupes = sorted(i for i, k in Counter(ids).items() if k > 1)
        if dupes:
            raise InputError(f"duplicate instance ids: {', '.join(dupes)}")
        for arr in (psfs, hep):
            arr.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "psfs", psfs)
        object.__setattr__(self, "hep", hep)
        object.__setattr__(self, "trials", trials)

    @classmethod
    def from_instances(cls, instances: Sequence[Instance]) -> "ObservationSet":
        """The set of the given instances, in order."""
        return cls(
            tuple(inst.id for inst in instances),
            np.array(
                [inst.psfs.as_tuple() for inst in instances], dtype=float
            ).reshape(len(instances), len(PSF_ORDER)),
            [float(inst.observed_hep) for inst in instances],
            tuple(inst.trials for inst in instances),
        )

    @cached_property
    def instances(self) -> tuple[Instance, ...]:
        """One Instance per row, built on first use and kept."""
        return tuple(self)

    def __len__(self):
        return len(self.ids)

    def __iter__(self) -> Iterator[Instance]:
        """A fresh Instance per row, built from the checked columns; nothing is
        kept, so a loop that drops each row holds one row's objects at a time."""
        new = object.__new__
        for start in range(0, len(self.ids), _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            for i, multipliers, h, t in zip(
                self.ids[rows],
                zip(*self.psfs[rows].T.tolist()),
                self.hep[rows].tolist(),
                self.trials[rows],
            ):
                psfs = new(PsfVector)
                _SET_MULTIPLIERS(psfs, multipliers)
                hep = new(Probability)
                _SET_VALUE(hep, h)
                inst = new(Instance)
                _SET_ID(inst, i)
                _SET_PSFS(inst, psfs)
                _SET_HEP(inst, hep)
                _SET_TRIALS(inst, t)
                yield inst

    def matrix(self, active: Sequence[PsfId]):
        """Raw multiplier matrix restricted to the given PSFs, row per instance."""
        return self.psfs.take([PSF_ORDER.index(p) for p in active], axis=1)

    def normalized(self, active: Sequence[PsfId]):
        """Scale each active PSF column by its maximum over the set.

        Returns ``(X, maxima)``: the scaled matrix, row per instance, whose
        columns each peak at 1, and the per-PSF denominators, which a
        predictor stores so later instances share the same scaling.
        """
        if not len(self):
            raise InputError("cannot normalize an empty observation set")
        raw = self.matrix(active)
        maxima = raw.max(axis=0)
        return raw / maxima, dict(zip(active, maxima.tolist()))

    def targets(self):
        return self.hep.copy()


@dataclass(frozen=True)
class DesignRow:
    """One experimental run: factor levels plus the reliability response."""

    std_order: int
    run_order: int
    levels: dict[str, float]
    response: Optional[float] = None

    def __post_init__(self):
        for letter, value in self.levels.items():
            if not math.isfinite(value):
                raise InputError(
                    f"design std {self.std_order}: level {letter} is not finite"
                )
        if self.response is not None and not math.isfinite(self.response):
            raise InputError(f"design std {self.std_order}: response is not finite")


def _validate_design(rows: Sequence[DesignRow]) -> None:
    stds = [r.std_order for r in rows]
    runs = [r.run_order for r in rows]
    if len(set(stds)) != len(stds):
        raise InputError("duplicate std orders in design")
    if len(set(runs)) != len(runs):
        raise InputError("duplicate run orders in design")
    letters = set(rows[0].levels) if rows else set()
    for r in rows:
        if set(r.levels) != letters:
            raise InputError(
                f"design std {r.std_order}: factor letters differ between rows"
            )


def load_observations(source) -> ObservationSet:
    """Load an observation CSV from a path, text, or file object.

    Errors name the file (for a path), row and column. Row order is preserved.
    A path is read a chunk at a time, through ``ioutil.load_lines``.
    """
    text = _source_text(source)
    if text is None:
        return load_lines(str(source), _parse_observation_columns)
    return _parse_observation_columns([csv_lines(text)])


def _parse_observation_columns(chunks: Iterable[list[str]]) -> ObservationSet:
    """Observations from a file's non-blank lines, given as lists of lines in
    file order, parsed column by column with Python ``float`` in blocks of
    ``_BLOCK_ROWS`` rows. Blocks run in row order and the first that holds a
    fault raises it, so the fault raised is the first one."""
    lines = itertools.chain.from_iterable(chunks)
    first = next(lines, None)
    if first is None:
        raise InputError("observations file is empty (expected a header row)")
    header = tuple(cell.strip() for cell in first.split(","))
    if header not in (_OBS_COLUMNS, _OBS_COLUMNS_TRIALS):
        raise InputError(
            f"unknown observations header: expected {','.join(_OBS_COLUMNS)} (optionally "
            f"with a trailing trials column), got {','.join(header)}"
        )
    blocks, ids, trials = [], [], []
    while block := list(itertools.islice(lines, _BLOCK_ROWS)):
        numbers = np.empty((9, len(block)))
        block_ids, block_trials = _parse_block(block, len(ids), len(header), numbers)
        blocks.append(numbers)
        ids += block_ids
        trials += block_trials
    numbers = np.concatenate(blocks, axis=1) if blocks else np.empty((9, 0))
    del blocks  # freed before the set copies the columns
    return ObservationSet(ids, numbers[:8].T, numbers[8], trials)


def _parse_block(lines: list[str], offset: int, width: int, numbers: np.ndarray):
    """The ids and trial counts of file rows ``offset + 1`` on, one per line;
    their PSFs, then hep, go into the first ``len(lines)`` columns of
    ``numbers``. Each row rule of the module docstring runs, in order, on the
    rows before the earliest fault found so far, so the fault raised at the
    end is the block's first one."""
    n = next((i for i, raw in enumerate(lines) if raw.count(",") != width - 1), len(lines))
    fault = n < len(lines) and (
        f"row {offset + n + 1}: expected {width} cells, got {lines[n].count(',') + 1}"
    )
    cells = ",".join(lines[:n]).split(",") if n else []
    for j, name in enumerate(_OBS_COLUMNS[1:10]):
        try:
            numbers[j, :n] = list(map(float, cells[j + 1 : n * width : width]))
        except ValueError:
            values, fault = _parse_cells(cells[j + 1 : n * width : width], parse_float, name, offset)
            n = len(values)
            numbers[j, :n] = values
    hep_ok = (numbers[8, :n] >= 0.0) & (numbers[8, :n] <= 1.0)
    if not hep_ok.all():
        n = int(np.argmin(hep_ok))
        fault = f"row {offset + n + 1}: hep {float(numbers[8, n])} outside [0, 1]"
    block_trials = [None] * n
    if width > 10:
        try:
            values = list(map(float, cells[10 : n * width : width]))
            whole = all(map(float.is_integer, values))  # false for nan and +-inf
        except ValueError:
            whole = False
        if whole:
            block_trials = list(map(int, values))
        else:  # an empty or faulty cell: parse cell by cell to the first fault
            block_trials, fault = _parse_cells(
                cells[10 : n * width : width], _parse_trials, "trials", offset, fault
            )
            n = len(block_trials)
    psf_ok = (numbers[:8, :n] > 0.0) & (numbers[:8, :n] < math.inf)
    if not psf_ok.all():
        n = int(np.argmin(psf_ok.all(axis=0)))
        j = int(np.argmin(psf_ok[:, n]))
        fault = (
            f"row {offset + n + 1}: multiplier for {PSF_ORDER[j].name} must be a positive "
            f"real, got {float(numbers[j, n])!r}"
        )
    low = next((i for i, t in zip(range(n), block_trials) if t is not None and t < 1), n)
    if low < n:
        fault = (
            f"row {offset + low + 1}: instance {cells[low * width].strip()!r}: "
            f"trials must be >= 1, got {block_trials[low]}"
        )
    if fault:
        raise InputError(fault)
    return list(map(str.strip, cells[0::width])), block_trials


def _parse_cells(cells: list[str], parse, column: str, offset: int,
                 fault=None) -> tuple[list, Optional[str]]:
    """Each stripped cell's ``parse(cell, rowno, column)``, rows numbered from
    ``offset + 1``, up to the first that raises InputError, and that error's
    message (``fault`` if none raises)."""
    values = []
    for rowno, cell in enumerate(map(str.strip, cells), start=offset + 1):
        try:
            values.append(parse(cell, rowno, column))
        except InputError as exc:
            return values, str(exc)
    return values, fault


def _parse_trials(cell: str, rowno: int, column: str) -> Optional[int]:
    return None if cell == "" else parse_int(cell, rowno, column)


def save_observations(obs: ObservationSet, sink) -> None:
    """Write an observation CSV; numeric cells carry full double precision."""
    has_trials = any(t is not None for t in obs.trials)
    header = _OBS_COLUMNS_TRIALS if has_trials else _OBS_COLUMNS
    columns = [obs.ids, *obs.psfs.T.tolist(), obs.hep.tolist()]
    if has_trials:
        columns.append(obs.trials)
    _emit(sink, csv_text(header, zip(*columns)))


def load_design(source) -> list[DesignRow]:
    """Load a design CSV. Factor columns are letters A..H (any subset, in order)."""
    return _slurp(source, _parse_design)


def _parse_design(text: str) -> list[DesignRow]:
    lines = csv_rows(text)
    if not lines:
        raise InputError("design file is empty (expected a header row)")
    header = lines[0]
    if len(header) < 4 or header[0] != "std" or header[1] != "run" or header[-1] != "reliability":
        raise InputError(
            "unknown design header: expected std,run,<factor letters>,reliability; got "
            + ",".join(header)
        )
    letters = header[2:-1]
    valid = [p.letter for p in PSF_ORDER]
    if not letters or any(l not in valid for l in letters) or letters != sorted(letters):
        raise InputError(
            "design factor columns must be letters among "
            + "".join(valid)
            + " in alphabetical order, got "
            + ",".join(letters)
        )
    rows = []
    for rowno, cells in enumerate(lines[1:], start=1):
        if len(cells) != len(header):
            raise InputError(
                f"row {rowno}: expected {len(header)} cells, got {len(cells)}"
            )
        std = parse_int(cells[0], rowno, "std")
        run = parse_int(cells[1], rowno, "run")
        levels = {
            letter: parse_float(cells[2 + i], rowno, letter)
            for i, letter in enumerate(letters)
        }
        resp_cell = cells[-1]
        response = None if resp_cell == "" else parse_float(resp_cell, rowno, "reliability")
        rows.append(DesignRow(std, run, levels, response))
    if not rows:
        raise InputError("design has no runs")
    _validate_design(rows)
    return rows


def save_design(rows: Sequence[DesignRow], sink) -> None:
    """Write a design CSV (empty reliability cell for unevaluated rows)."""
    if not rows:
        raise InputError("refusing to write an empty design")
    _validate_design(rows)
    letters = sorted(rows[0].levels)
    cells = (
        [r.std_order, r.run_order, *(r.levels[l] for l in letters), r.response]
        for r in rows
    )
    _emit(sink, csv_text(["std", "run", *letters, "reliability"], cells))


def _slurp(source, parse):
    """``parse`` of the text of a file object, of CSV text, or of a path's file,
    read through ``ioutil.load`` so its errors name it."""
    text = _source_text(source)
    return load(str(source), parse) if text is None else parse(text)


def _source_text(source) -> Optional[str]:
    """The text of a file object or of CSV text; None for a path. A string is
    CSV text only when it holds a line break (LF or CR): a path may hold commas."""
    if hasattr(source, "read"):
        data = source.read()
        return data.decode("utf-8") if isinstance(data, bytes) else data
    text = str(source)
    return text if "\n" in text or "\r" in text else None


def _emit(sink, text: str) -> None:
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        atomic_write_text(sink, text)


def bundled_table2() -> ObservationSet:
    """The 15-instance case study, values exactly as published.

    Note: the published per-instance HEP column disagrees in places with the
    squared-error bookkeeping of the reference fit; see
    :func:`bundled_case_study` for the reconciled values used for training.
    """
    return load_observations(bundled_text("table2.csv"))


# Observed HEP per instance, reconciled with the reference fit's squared
# errors (those are only consistent with these values, not with the raw
# case-study column for several instances).
_CASE_STUDY_HEP = (
    0.155, 0.132, 0.151, 0.046, 0.223, 0.098, 0.032, 0.136,
    0.165, 0.182, 0.112, 0.193, 0.172, 0.153, 0.164,
)

# Reference network fit on the case study: per-instance predicted HEP.
_REFERENCE_PREDICTED = (
    0.134, 0.161, 0.162, 0.064, 0.263, 0.0851, 0.046, 0.112,
    0.175, 0.154, 0.127, 0.175, 0.196, 0.186, 0.142,
)

# Predicted HEP after the screening loop dropped the inert factor and the
# network was retrained on the seven survivors.
_REFIT_PREDICTED = (
    0.141409178, 0.149928035, 0.158017965, 0.055952861, 0.250007036,
    0.089366754, 0.042212003, 0.11851672, 0.170615192, 0.161680555,
    0.121836516, 0.183575021, 0.186279252, 0.17487524, 0.152283547,
)


def bundled_case_study() -> ObservationSet:
    """The case study with the reconciled observed-HEP column.

    PSF multipliers are identical to :func:`bundled_table2`; only the
    observed HEP per instance differs, where the published table rounded or
    misprinted values that the accompanying error arithmetic pins exactly.
    """
    return replace(bundled_table2(), hep=_CASE_STUDY_HEP)


def bundled_reference_fit() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(observed, predicted) HEP columns of the published reference fit."""
    return _CASE_STUDY_HEP, _REFERENCE_PREDICTED


def bundled_refit_comparison():
    """(observed, predicted before, predicted after) columns of the published
    before/after screening comparison."""
    return _CASE_STUDY_HEP, _REFERENCE_PREDICTED, _REFIT_PREDICTED


def bundled_table4() -> list[DesignRow]:
    """The 60-run eight-factor screening design with evaluated responses."""
    return load_design(bundled_text("table4.csv"))
