"""Observation and design files, plus the bundled fixtures."""
import io
import itertools
import math
import re
import time
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hra_forge import dataset, ioutil
from hra_forge.dataset import (
    DesignRow,
    Instance,
    ObservationSet,
    bundled_case_study,
    bundled_refit_comparison,
    bundled_reference_fit,
    bundled_table2,
    bundled_table4,
    load_design,
    load_observations,
    save_design,
    save_observations,
)
from hra_forge.errors import InputError
from hra_forge.psf import PSF_ORDER, Probability, PsfId, PsfVector

OBS_HEADER = (
    "id,available_time,stress,complexity,experience_training,"
    "procedures,ergonomics,fitness_for_duty,work_process,hep"
)


def _legacy_float(cell, rowno, column):
    try:
        return float(cell)
    except ValueError:
        raise InputError(
            f"row {rowno}: column {column!r} is not numeric: {cell!r}"
        ) from None


def _legacy_int(cell, rowno, column):
    value = _legacy_float(cell, rowno, column)
    if not (math.isfinite(value) and value.is_integer()):
        raise InputError(
            f"row {rowno}: column {column!r} is not an integer: {cell!r}"
        )
    return int(value)


def legacy_load_observations(text):
    """Reference loader: one Instance per row, each cell parsed on its own.

    The columnar loader must accept exactly what this accepts, with the same
    values, and reject the rest with the same message. Returns the list of
    instances.
    """
    lines = [
        [cell.strip() for cell in raw.split(",")]
        for raw in text.splitlines()
        if raw.strip() != ""
    ]
    header = tuple(lines[0])
    columns = tuple(OBS_HEADER.split(","))
    assert header in (columns, columns + ("trials",))
    instances = []
    for rowno, cells in enumerate(lines[1:], start=1):
        if len(cells) != len(header):
            raise InputError(
                f"row {rowno}: expected {len(header)} cells, got {len(cells)}"
            )
        values = {
            psf: _legacy_float(cells[1 + i], rowno, psf.column)
            for i, psf in enumerate(PSF_ORDER)
        }
        hep_cell = _legacy_float(cells[9], rowno, "hep")
        if not 0.0 <= hep_cell <= 1.0:
            raise InputError(f"row {rowno}: hep {hep_cell} outside [0, 1]")
        trials = None
        if len(header) > 10 and cells[10] != "":
            trials = _legacy_int(cells[10], rowno, "trials")
        try:
            inst = Instance(cells[0], PsfVector(values), Probability(hep_cell), trials)
        except InputError as exc:
            raise InputError(f"row {rowno}: {exc}") from None
        instances.append(inst)
    ids = [inst.id for inst in instances]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise InputError(f"duplicate instance ids: {', '.join(dupes)}")
    return instances


def _rows_of(instances):
    """Each instance as (id, PSF bits, HEP bits, trials), floats by their hex."""
    return [
        (
            inst.id,
            tuple(v.hex() for v in inst.psfs.as_tuple()),
            float(inst.observed_hep).hex(),
            inst.trials,
        )
        for inst in instances
    ]


def _outcome(load, text):
    """("ok", rows) for an accepted text, ("error", message) for a rejected one."""
    try:
        return "ok", _rows_of(load(text))
    except InputError as exc:
        return "error", str(exc)


def _columnar_instances(text):
    """The instances of ``text`` loaded from a file object."""
    return _loaded_instances(io.StringIO(text))


def _loaded_instances(source):
    """The loaded set's instances, checked against the set's own columns."""
    obs = load_observations(source)
    rows = _rows_of(obs.instances)
    columns = [
        (i, tuple(v.hex() for v in psfs), h.hex(), t)
        for i, psfs, h, t in zip(obs.ids, obs.psfs.tolist(), obs.hep.tolist(), obs.trials)
    ]
    assert columns == rows
    assert all(t is None or type(t) is int for t in obs.trials)
    return obs.instances


_positive = st.floats(min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False)
_probability = st.floats(min_value=0.0, max_value=1.0)
_number_text = st.sampled_from([repr, "{:.3g}".format, "{:e}".format, "{:.17g}".format])
_pad = st.sampled_from(["", " ", "  ", "\t", " \t "])


@st.composite
def valid_observation_csv(draw):
    """Observation CSV text the legacy loader accepts, in varied spellings."""
    has_trials = draw(st.booleans())
    ids = draw(
        st.lists(
            st.text(alphabet="Ins 019_-", min_size=1, max_size=6).map(str.strip),
            max_size=8,
            unique=True,
        )
    )
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    header = OBS_HEADER + (",trials" if has_trials else "")
    lines = [header]
    for id_ in ids:
        psfs = draw(st.lists(_positive, min_size=8, max_size=8))
        cells = [id_] + [draw(_number_text)(v) for v in psfs]
        cells.append(draw(_number_text)(draw(_probability)))
        if has_trials:
            trials = draw(st.one_of(st.none(), st.integers(1, 10**6)))
            spell = draw(st.sampled_from([str, "{}.0".format, "{:e}".format]))
            cells.append("" if trials is None else spell(trials))
        lines.append(",".join(draw(_pad) + c + draw(_pad) for c in cells))
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
    lead = draw(st.sampled_from(["", eol, " " + eol]))
    return lead + eol.join(lines) + draw(st.sampled_from(["", eol]))


_GOOD_CELLS = ["1", "2", "0.5", "3", "4", "1.5", "1", "2", "0.25", "40"]


def _trials_text(*faults):
    """Three rows under the trials header; each fault is (row, column, cell).

    ``column`` indexes the cells after the id (0-7 PSFs, 8 hep, 9 trials);
    a cell of None drops the column, a list appends extra cells.
    """
    lines = [OBS_HEADER + ",trials"]
    for row in (1, 2, 3):
        cells = list(_GOOD_CELLS)
        for at, column, cell in faults:
            if at != row:
                continue
            if cell is None:
                del cells[column:]
            elif isinstance(cell, list):
                cells += cell
            else:
                cells[column] = cell
        lines.append(",".join([f"I{row}"] + cells))
    return "\n".join(lines) + "\n"


OBSERVATION_EDGE_CASES = {
    **{
        f"non-numeric {name}": _trials_text((1, k, "abc"))
        for k, name in enumerate([p.column for p in PSF_ORDER] + ["hep", "trials"])
    },
    **{
        f"psf {cell!r}": _trials_text((1, 2, cell))
        for cell in ["nan", "inf", "-inf", "1e400", "0", "-0", "-2.5", ""]
    },
    **{f"hep {cell!r}": _trials_text((1, 8, cell)) for cell in ["-0.1", "1.5", "nan", ""]},
    **{
        f"trials {cell!r}": _trials_text((1, 9, cell))
        for cell in ["0", "-0", "-3", "1.5", "nan", "inf", "", "  ", "1e3", "7.0"]
    },
    "short row": _trials_text((1, 4, None)),
    "long row": _trials_text((1, 0, ["9"])),
    "no trials column, long row": OBS_HEADER + "\nI1,1,1,1,1,1,1,1,1,0.5,40\n",
    "bad row after good ones": _trials_text((3, 5, "x")),
    "two bad rows": _trials_text((3, 0, "0"), (2, 8, "2")),
    "two faults in one row": _trials_text((2, 8, "2"), (2, 3, "y")),
    "short row before a bad cell": _trials_text((3, 1, "z"), (2, 4, None)),
    "zero psf before a non-numeric one": _trials_text((1, 0, "0"), (1, 7, "q")),
    "bad trials before a zero psf": _trials_text((1, 9, "2.5"), (1, 1, "0")),
    "hep out of range before bad trials": _trials_text((1, 8, "nan"), (1, 9, "abc")),
    "duplicate ids": OBS_HEADER + "\nB,1,1,1,1,1,1,1,1,0.5\nA,1,1,1,1,1,1,1,1,0.5\n"
    + "B,1,1,1,1,1,1,1,1,0.5\nA,1,1,1,1,1,1,1,1,0.5\n",
    "duplicate ids and a bad row": OBS_HEADER + "\nI1,1,1,1,1,1,1,1,1,0.5\n"
    + "I1,1,1,1,1,1,1,1,1,0.5\nI2,1,1,1,1,1,1,1,1,7\n",
    "no rows": OBS_HEADER + "\n",
}


_BAD_CELLS = ["abc", "", "nan", "inf", "1e400", "0", "-0", "-2.5", "1.5", "7.0"]


@st.composite
def faulty_observation_csv(draw):
    """Up to three valid rows, with or without trials, given 1-3 faults.

    A fault is a cell from ``_BAD_CELLS`` in a PSF, the hep or the trials
    column, a short row, a long row or an id repeated from another row. Hep
    and trials each take a third of the bad cells, so that faults of
    neighbouring rule ranks often share a row.
    """
    width = draw(st.sampled_from([10, 11]))
    rows = [
        [f"I{r}"] + _GOOD_CELLS[: width - 1]
        for r in range(1, draw(st.integers(1, 3)) + 1)
    ]
    fields = ["psf", "hep", "trials"][: width - 8]
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.sampled_from(rows))
        kind = draw(st.sampled_from(["cell", "cell", "cell", "short", "long", "id"]))
        if kind == "cell":
            field = draw(st.sampled_from(fields))
            column = {"hep": 9, "trials": 10}.get(field) or draw(st.integers(1, 8))
            if column < len(row):
                row[column] = draw(st.sampled_from(_BAD_CELLS))
        elif kind == "short":
            del row[draw(st.integers(2, width - 1)) :]
        elif kind == "long":
            row += ["9"] * draw(st.integers(1, 2))
        else:
            row[0] = draw(st.sampled_from(rows))[0]
    header = OBS_HEADER + (",trials" if width == 11 else "")
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


FAULTY = settings(max_examples=1000, derandomize=True, deadline=None, database=None)


class TestColumnarLoaderMatchesLegacy:
    @settings(max_examples=150, deadline=None)
    @given(valid_observation_csv())
    def test_valid_files(self, text):
        expected = _outcome(legacy_load_observations, text)
        assert expected[0] == "ok"
        assert _outcome(_columnar_instances, text) == expected

    @pytest.mark.parametrize("name", sorted(OBSERVATION_EDGE_CASES))
    def test_edge_cases(self, name):
        text = OBSERVATION_EDGE_CASES[name]
        assert _outcome(_columnar_instances, text) == _outcome(
            legacy_load_observations, text
        )

    def test_edge_cases_accepted(self):
        accepted = {
            name
            for name, text in OBSERVATION_EDGE_CASES.items()
            if _outcome(legacy_load_observations, text)[0] == "ok"
        }
        assert accepted == {"trials ''", "trials '  '", "trials '1e3'", "trials '7.0'", "no rows"}

    def test_duplicate_in_40k_rows(self):
        n = 40_000
        row = ",1,2,3,1,4,1.5,2,2,0.25"
        lines = [OBS_HEADER] + [f"T{i:06d}{row}" for i in range(n)]
        lines[n // 2] = lines[7]
        t0 = time.perf_counter()
        with pytest.raises(InputError) as err:
            load_observations("\n".join(lines) + "\n")
        assert str(err.value) == "duplicate instance ids: T000006"
        # one counting pass; a list.count scan per id takes tens of seconds
        # at this size
        assert time.perf_counter() - t0 < 5.0


class TestFaultyObservationFiles:
    @FAULTY
    @given(faulty_observation_csv())
    def test_faulty_files(self, text):
        assert _outcome(_columnar_instances, text) == _outcome(
            legacy_load_observations, text
        )

    @pytest.mark.parametrize("width", [10, 11])
    def test_every_two_bad_cells(self, width):
        """Every two bad cells of the pool, in one row or in rows 1 and 2."""
        header = OBS_HEADER + (",trials" if width == 11 else "")
        faults = itertools.product(range(1, width), _BAD_CELLS)
        for (a, x), (b, y) in itertools.permutations(faults, 2):
            for same_row in (False, True) if a < b else (False,):
                rows = [[f"I{r}"] + _GOOD_CELLS[: width - 1] for r in (1, 2)]
                rows[0][a] = x
                rows[0 if same_row else 1][b] = y
                text = "\n".join([header] + [",".join(row) for row in rows]) + "\n"
                assert _outcome(_columnar_instances, text) == _outcome(
                    legacy_load_observations, text
                ), text

    @pytest.mark.parametrize(
        "column, cell, message",
        [
            (2, "abc", "column 'stress' is not numeric: 'abc'"),
            (9, "1.5", "hep 1.5 outside [0, 1]"),
            (10, "0", "instance 'T039989': trials must be >= 1, got 0"),
        ],
    )
    def test_faulty_load_builds_no_row_objects(self, monkeypatch, column, cell, message):
        built = Counter()
        for cls, method in [
            (PsfVector, "__init__"),
            (Probability, "__init__"),
            (Instance, "__post_init__"),
        ]:
            real = getattr(cls, method)

            def counted(self, *args, _real=real, _name=cls.__name__, **kwargs):
                built[_name] += 1
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(cls, method, counted)
        lines = [OBS_HEADER + ",trials"]
        lines += [",".join([f"T{i:06d}"] + _GOOD_CELLS) for i in range(40_000)]
        bad = lines[39_990].split(",")
        bad[column] = cell
        lines[39_990] = ",".join(bad)
        with pytest.raises(InputError) as err:
            load_observations("\n".join(lines) + "\n")
        assert str(err.value) == f"row 39990: {message}"
        assert not built
        PsfVector(dict.fromkeys(PSF_ORDER, 1.0))
        assert built == {"PsfVector": 1}


B = dataset._BLOCK_ROWS

# One fault of each kind: the cell that replaces cell ``column`` of a row
# (cells after the id count from 1), or None to drop the row's last cell.
_BOUNDARY_FAULTS = {
    "bad number": (3, "x3"),
    "bad cell count": (None, None),
    "hep out of range": (9, "1.5"),
    "trials < 1": (10, "0"),
    "multiplier <= 0": (5, "-2"),
}


def _block_lines(n, trials=True):
    """The header and ``n`` valid rows, each row's cells set by its number."""
    lines = [OBS_HEADER + (",trials" if trials else "")]
    for r in range(1, n + 1):
        cells = [f"R{r}"] + [repr(1.0 + (r * 7 + k) % 13 / 8) for k in range(8)]
        cells.append(repr(r % 97 / 96))
        if trials:
            cells.append(str(1 + r % 50))
        lines.append(",".join(cells))
    return lines


def _doctored(lines, faults):
    """``lines`` with each (row, kind) fault of ``_BOUNDARY_FAULTS`` applied;
    row r is ``lines[r]``, and a dropped cell goes after the other faults."""
    lines = list(lines)
    for row, kind in sorted(faults, key=lambda f: _BOUNDARY_FAULTS[f[1]][0] is None):
        cells = lines[row].split(",")
        column, cell = _BOUNDARY_FAULTS[kind]
        if column is None:
            del cells[-1]
        else:
            cells[column] = cell
        lines[row] = ",".join(cells)
    return lines


def _text(lines):
    return "\n".join(lines) + "\n"


def _path_outcome(path):
    """The outcome of loading the file at ``path``, its error message without
    the ``"PATH: "`` prefix a path's errors carry."""
    kind, got = _outcome(_loaded_instances, str(path))
    return kind, got.removeprefix(f"{path}: ") if kind == "error" else got


def _every_source_outcome(text, tmp_path):
    """The outcome of ``text`` loaded as a file object, which every other
    source must match: the text itself and a file holding it."""
    expected = _outcome(_columnar_instances, text)
    path = tmp_path / "obs.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert _path_outcome(path) == expected
    if "\n" in text:  # a string with no newline is a path
        assert _outcome(_loaded_instances, text) == expected
    return expected


class TestBlockBoundaries:
    """Files around the loader's block size, against the legacy loader."""

    @pytest.mark.parametrize("trials", [False, True])
    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 1])
    def test_valid_files(self, tmp_path, n, trials):
        text = _text(_block_lines(n, trials))
        expected = _outcome(legacy_load_observations, text)
        assert expected[0] == "ok" and len(expected[1]) == n
        assert _every_source_outcome(text, tmp_path) == expected

    @pytest.mark.parametrize("kind", sorted(_BOUNDARY_FAULTS))
    @pytest.mark.parametrize("row", [B - 1, B, B + 1, 2 * B])
    def test_one_fault(self, tmp_path, row, kind):
        text = _text(_doctored(_block_lines(2 * B + 1), [(row, kind)]))
        expected = _outcome(legacy_load_observations, text)
        assert expected[0] == "error" and expected[1].startswith(f"row {row}: ")
        assert _every_source_outcome(text, tmp_path) == expected

    def test_two_faults(self, tmp_path):
        """Every two of the faults, in one row or in two of rows B-1, B, B+1, 2B."""
        lines = _block_lines(2 * B + 1)
        faults = itertools.product([B - 1, B, B + 1, 2 * B], sorted(_BOUNDARY_FAULTS))
        for pair in itertools.combinations(faults, 2):
            text = _text(_doctored(lines, pair))
            assert _every_source_outcome(text, tmp_path) == _outcome(
                legacy_load_observations, text
            ), pair

    @pytest.mark.parametrize("fault_row", [None, B, B + 1])
    @pytest.mark.parametrize("blank_before_row", [B - 1, B, B + 1, B + 2])
    def test_blank_lines_near_a_boundary(self, tmp_path, blank_before_row, fault_row):
        lines = _block_lines(2 * B + 1)
        if fault_row is not None:
            lines = _doctored(lines, [(fault_row, "hep out of range")])
        # row numbers count non-blank lines only
        lines[blank_before_row:blank_before_row] = ["", "  ", "\t"]
        text = _text(lines)
        expected = _outcome(legacy_load_observations, text)
        if fault_row is None:
            assert expected[0] == "ok" and len(expected[1]) == 2 * B + 1
        else:
            assert expected == ("error", f"row {fault_row}: hep 1.5 outside [0, 1]")
        assert _every_source_outcome(text, tmp_path) == expected

    def test_40k_row_load_peak_memory(self, tasks_40k):
        # The score workload's task file: 40k rows with a trials column,
        # 7 MB of text. Bound: a tracemalloc peak below 35 MB. Measured about
        # 29 MB when parsed in blocks, 59 MB with every cell a str at once.
        path, raw = tasks_40k
        obs, peak = _traced_load(path)
        assert len(obs) == 40_000
        assert obs.psfs.tolist() == raw.tolist()
        assert peak < 35_000_000


@pytest.fixture(scope="module")
def tasks_40k(tmp_path_factory):
    """The score workload's task file, 40k rows with a trials column, and
    its (n, 8) multipliers."""
    tmp_path = tmp_path_factory.mktemp("tasks")
    n = 40_000
    rng = np.random.default_rng(18)
    raw = rng.uniform(0.05, 5.0, size=(n, len(PSF_ORDER)))
    trials = rng.integers(20, 2000, size=n)
    hep = rng.binomial(trials, 0.15) / trials
    path = tmp_path / "tasks.csv"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(OBS_HEADER + ",trials\n")
        for i, (psfs, h, t) in enumerate(zip(raw.tolist(), hep.tolist(), trials.tolist())):
            handle.write(",".join([f"T{i + 1:06d}", *map(repr, psfs), repr(h), str(t)]) + "\n")
    assert path.stat().st_size > 7_000_000
    return path, raw


def _traced_load(path):
    """The set loaded from ``path`` and the load's tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        obs = load_observations(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return obs, peak


# Line breaks that str.splitlines knows, each written as the file's only one.
_EOLS = ["\n", "\r\n", "\r", "\x0c", "\x85", "\u2028"]


class TestStreamedLoader:
    """A path is read ``ioutil._CHUNK_CHARS`` characters at a time; the lines
    the chunks give must be the text's, wherever the chunks end."""

    @pytest.mark.parametrize("fault", [None, "hep out of range", "bad cell count"])
    @pytest.mark.parametrize("ending", ["none", "one", "blank lines"])
    @pytest.mark.parametrize("eol", _EOLS, ids=repr)
    def test_every_chunk_size(self, tmp_path, monkeypatch, eol, ending, fault):
        lines = _block_lines(4)
        if fault:
            lines = _doctored(lines, [(2, fault)])
        # blank lines inside, so some fall on a chunk edge
        lines[3:3] = ["", "  ", "\t"]
        text = eol.join(lines) + {"none": "", "one": eol, "blank lines": eol + " " + eol * 2}[ending]
        expected = _outcome(legacy_load_observations, text)
        assert expected[0] == ("error" if fault else "ok")
        assert _outcome(_columnar_instances, text) == expected
        path = tmp_path / "obs.csv"
        path.write_text(text, encoding="utf-8", newline="")
        # size 1 puts a chunk edge everywhere, so every break straddles one
        for size in [1, 2, 3, 5, 8, 13, 64, len(text) - 1, len(text), 1 << 20]:
            monkeypatch.setattr(ioutil, "_CHUNK_CHARS", size)
            assert _path_outcome(path) == expected, size

    @pytest.mark.parametrize(
        "bad", [b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\xe2\x82"], ids=repr
    )
    def test_bad_byte_after_a_row_fault(self, tmp_path, bad):
        """A bad byte past the first chunk beats an earlier faulty row, with
        the message of a whole-file decode: its position counts from the file's
        start."""
        lines = _doctored(_block_lines(20_000), [(2, "hep out of range")])
        raw = _text(lines).encode("utf-8")
        assert len(raw) > 1.2 * ioutil._CHUNK_CHARS
        raw = raw + bad + b",1\n" if bad != b"\xe2\x82" else raw + bad
        path = tmp_path / "obs.csv"
        path.write_bytes(raw)
        with pytest.raises(UnicodeDecodeError) as whole:
            raw.decode("utf-8")
        assert whole.value.start > ioutil._CHUNK_CHARS
        with pytest.raises(InputError) as err:
            load_observations(str(path))
        assert str(err.value) == f"cannot read {path}: {whole.value}"

    def test_40k_row_load_peak_memory(self, tasks_40k):
        # Measured 11.9 MB with the file read in 1 MiB chunks; 28.6 MB when the
        # whole text and its lines were held while parsing.
        path, raw = tasks_40k
        obs, peak = _traced_load(path)
        assert obs.psfs.tolist() == raw.tolist()
        assert peak <= 18_000_000


class TestObservationSetColumns:
    def test_from_instances_round_trip(self):
        obs = bundled_table2()
        again = ObservationSet.from_instances(obs.instances)
        assert again.ids == obs.ids
        assert np.array_equal(again.psfs, obs.psfs)
        assert np.array_equal(again.hep, obs.hep)
        assert again.trials == obs.trials

    def test_columns_are_read_only_and_slices_are_copies(self):
        obs = bundled_table2()
        with pytest.raises(ValueError):
            obs.psfs[0, 0] = 2.0
        raw = obs.matrix(PSF_ORDER)
        assert raw.flags["C_CONTIGUOUS"] and raw.flags["WRITEABLE"]
        raw[0, 0] = -1.0
        y = obs.targets()
        y[0] = -1.0
        assert obs.psfs[0, 0] > 0 and obs.hep[0] > 0

    def test_instances_built_once(self):
        obs = bundled_table2()
        assert obs.instances is obs.instances
        assert list(obs) == list(obs.instances)

    def test_instances_match_validated_construction(self):
        obs = replace(bundled_table2(), trials=(None,) * 14 + (7,))
        for i, inst in enumerate(obs):
            built = Instance(
                obs.ids[i],
                PsfVector(dict(zip(PSF_ORDER, obs.psfs[i].tolist()))),
                Probability(float(obs.hep[i])),
                obs.trials[i],
            )
            assert inst == built and hash(inst) == hash(built)
            assert hash(inst.psfs) == hash(built.psfs)
            assert hash(inst.observed_hep) == hash(built.observed_hep)
        assert len(set(obs.instances)) == len(obs)

    def test_iteration_streams_fresh_instances(self):
        obs = bundled_table2()
        first, second = list(obs), list(obs)
        assert "instances" not in vars(obs)
        assert first == second
        assert all(a is not b for a, b in zip(first, second))
        assert first == list(obs.instances)
        assert "instances" in vars(obs)

    @pytest.mark.parametrize("extra", [-1, 0, 1, dataset._BLOCK_ROWS + 1])
    def test_iteration_across_row_blocks(self, extra):
        n = dataset._BLOCK_ROWS + extra
        rng = np.random.default_rng(n)
        obs = ObservationSet(
            tuple(f"T{i}" for i in range(n)),
            rng.uniform(0.1, 10.0, size=(n, len(PSF_ORDER))),
            rng.uniform(0.0, 1.0, size=n),
            tuple(int(t) if t % 3 else None for t in rng.integers(1, 100, size=n)),
        )
        columns = [
            (i, tuple(v.hex() for v in psfs), h.hex(), t)
            for i, psfs, h, t in zip(obs.ids, obs.psfs.tolist(), obs.hep.tolist(), obs.trials)
        ]
        assert _rows_of(obs) == columns
        assert len(list(obs)) == n

    def test_streamed_loop_holds_one_row_at_a_time(self):
        # The score workload's task shape: 40k rows with a trials column.
        # Bound: a loop that drops each instance peaks below a tenth of the
        # size of the cached tuple (about 18 MB), with 1024-row blocks
        # converted from the columns at a time (about 0.3 MB measured).
        n = 40_000
        rng = np.random.default_rng(40)
        obs = ObservationSet(
            tuple(f"T{i + 1:06d}" for i in range(n)),
            rng.uniform(0.05, 10.0, size=(n, len(PSF_ORDER))),
            rng.uniform(0.0, 0.3, size=n),
            tuple(rng.integers(20, 2000, size=n).tolist()),
        )
        tracemalloc.start()
        try:
            for inst in obs:
                pass
            del inst
            _, streamed_peak = tracemalloc.get_traced_memory()
            base = tracemalloc.get_traced_memory()[0]
            cached = obs.instances
            cached_size = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(cached) == n
        assert cached_size > 10_000_000
        assert streamed_peak * 10 < cached_size

    def test_instances_cannot_be_changed(self):
        obs = bundled_table2()
        inst = obs.instances[0]
        for value in (99.0, -1.0):
            with pytest.raises(TypeError):
                inst.psfs.values[PsfId.Stress] = value
        assert inst.psfs[PsfId.Stress] == obs.psfs[0, 1] == 2.0
        with pytest.raises(AttributeError):
            inst.trials = 3

    def test_instances_have_no_per_object_dict(self):
        inst = bundled_table2().instances[0]
        for obj in (inst, inst.psfs, inst.observed_hep):
            assert not hasattr(obj, "__dict__")

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(hep=[0.5] * 14 + [1.5]), "[0, 1]"),
            (dict(trials=(None,) * 14 + (0,)), ">= 1"),
            (dict(trials=(None,) * 14), "disagree"),
            (dict(ids=("Ins 1",) * 15), "duplicate instance ids: Ins 1"),
        ],
    )
    def test_constructor_checks(self, change, message):
        with pytest.raises(InputError, match=re.escape(message)):
            replace(bundled_table2(), **change)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_constructor_rejects_bad_multiplier(self, bad):
        obs = bundled_table2()
        psfs = obs.psfs.copy()
        psfs[3, 5] = bad
        with pytest.raises(InputError, match="finite and > 0"):
            replace(obs, psfs=psfs)


class TestBundledObservations:
    def test_counts(self):
        assert len(bundled_table2().instances) == 15
        assert len(bundled_case_study().instances) == 15

    def test_printed_hep_column(self):
        obs = bundled_table2()
        by_id = {i.id: float(i.observed_hep) for i in obs.instances}
        assert by_id["Ins 5"] == 0.2
        assert by_id["Ins 7"] == 0.03
        assert by_id["Ins 1"] == 0.155

    def test_reconciled_hep_column(self):
        obs = bundled_case_study()
        got = tuple(float(i.observed_hep) for i in obs.instances)
        assert got == (
            0.155, 0.132, 0.151, 0.046, 0.223, 0.098, 0.032, 0.136,
            0.165, 0.182, 0.112, 0.193, 0.172, 0.153, 0.164,
        )
        # the reconciled column is the observed column of the reference fit
        assert got == bundled_reference_fit()[0]

    def test_psf_columns_shared(self):
        a = bundled_table2()
        b = bundled_case_study()
        for x, y in zip(a.instances, b.instances):
            assert x.psfs.as_tuple() == y.psfs.as_tuple()

    def test_maxima(self):
        raw = bundled_table2().matrix(PSF_ORDER)
        assert tuple(raw.max(axis=0)) == (10.0, 5.0, 5.0, 3.0, 50.0, 10.0, 5.0, 5.0)

    def test_reference_fit_columns(self):
        observed, predicted = bundled_reference_fit()
        assert len(observed) == len(predicted) == 15
        assert observed[0] == 0.155
        assert predicted[0] == 0.134
        assert predicted[4] == 0.263

    def test_refit_comparison_columns(self):
        observed, before, after = bundled_refit_comparison()
        assert len(observed) == len(before) == len(after) == 15
        assert before == bundled_reference_fit()[1]
        assert after[0] == pytest.approx(0.141409178)


class TestBundledDesign:
    def test_shape(self):
        rows = bundled_table4()
        assert len(rows) == 60
        assert sorted(r.std_order for r in rows) == list(range(1, 61))
        assert sorted(r.run_order for r in rows) == list(range(1, 61))

    def test_known_row(self):
        rows = bundled_table4()
        first = rows[0]
        assert first.run_order == 1
        assert first.std_order == 22
        assert first.response == 83.47

    def test_center_replicates(self):
        rows = bundled_table4()
        from collections import Counter

        counts = Counter(tuple(sorted(r.levels.items())) for r in rows)
        assert max(counts.values()) == 6

    def test_letters(self):
        rows = bundled_table4()
        assert sorted(rows[0].levels) == list("ABCDEFGH")

    def test_responses_all_present(self):
        assert all(r.response is not None for r in bundled_table4())


class TestObservationIo:
    def test_roundtrip(self):
        obs = bundled_table2()
        buf = io.StringIO()
        save_observations(obs, buf)
        again = load_observations(buf.getvalue())
        assert len(again.instances) == 15
        for a, b in zip(obs.instances, again.instances):
            assert a.id == b.id
            assert a.psfs.as_tuple() == b.psfs.as_tuple()
            assert float(a.observed_hep) == float(b.observed_hep)

    def test_trials_column_optional(self):
        text = OBS_HEADER + ",trials\nI1,1,1,1,1,1,1,1,1,0.5,40\n"
        obs = load_observations(text)
        assert obs.instances[0].trials == 40
        buf = io.StringIO()
        save_observations(obs, buf)
        assert "trials" in buf.getvalue().splitlines()[0]

    def test_header_rejected(self):
        with pytest.raises(InputError) as err:
            load_observations("id,foo\nI1,1\n")
        assert "header" in str(err.value)

    def test_bad_cell_names_row_and_column(self):
        text = OBS_HEADER + "\nI1,1,1,1,1,1,1,1,abc,0.5\n"
        with pytest.raises(InputError) as err:
            load_observations(text)
        msg = str(err.value)
        assert "row 1" in msg and "work_process" in msg

    def test_hep_out_of_range(self):
        text = OBS_HEADER + "\nI1,1,1,1,1,1,1,1,1,1.5\n"
        with pytest.raises(InputError) as err:
            load_observations(text)
        assert "hep" in str(err.value)

    def test_duplicate_ids(self):
        row = "I1,1,1,1,1,1,1,1,1,0.5\n"
        with pytest.raises(InputError) as err:
            load_observations(OBS_HEADER + "\n" + row + row)
        assert "I1" in str(err.value)

    def test_short_row(self):
        with pytest.raises(InputError) as err:
            load_observations(OBS_HEADER + "\nI1,1,1,1\n")
        assert "row 1" in str(err.value)

    @pytest.mark.parametrize("eol", ["\r", "\r\n", "\n"], ids=repr)
    def test_text_with_any_line_break(self, eol):
        # text whose only breaks are "\r" is text, not a path to open
        text = eol.join([OBS_HEADER, "I1,1,1,1,1,1,1,1,1,0.5", "I2,2,1,1,1,1,1,1,1,0.25"])
        obs = load_observations(text)
        assert [i.id for i in obs.instances] == ["I1", "I2"]
        assert [float(i.observed_hep) for i in obs.instances] == [0.5, 0.25]

    def test_string_without_line_break_is_a_path(self, tmp_path):
        path = tmp_path / "dir,x" / "obs.csv"
        path.parent.mkdir()
        path.write_text(OBS_HEADER + "\rI1,1,1,1,1,1,1,1,1,0.5\r", newline="")
        assert [i.id for i in load_observations(str(path)).instances] == ["I1"]
        missing = tmp_path / "missing,obs.csv"
        with pytest.raises(InputError, match=f"cannot read {re.escape(str(missing))}: "):
            load_observations(str(missing))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400", "1.5"])
    def test_trials_must_be_an_integer(self, cell):
        text = OBS_HEADER + f",trials\nI1,1,1,1,1,1,1,1,1,0.5,{cell}\n"
        with pytest.raises(InputError) as err:
            load_observations(text)
        msg = str(err.value)
        assert "row 1" in msg and "'trials'" in msg


class TestDesignIo:
    def test_roundtrip(self):
        rows = bundled_table4()
        buf = io.StringIO()
        save_design(rows, buf)
        again = load_design(buf.getvalue())
        assert len(again) == 60
        for a, b in zip(rows, again):
            assert a.std_order == b.std_order
            assert a.run_order == b.run_order
            assert a.levels == b.levels
            assert a.response == b.response

    def test_empty_response_cell(self):
        text = "std,run,A,B,reliability\n1,1,0.2,0.2,\n2,2,0.8,0.2,55.5\n"
        rows = load_design(text)
        assert rows[0].response is None
        assert rows[1].response == 55.5

    def test_letter_subset(self):
        text = "std,run,A,C,H,reliability\n1,1,0.2,0.5,0.8,\n"
        rows = load_design(text)
        assert sorted(rows[0].levels) == ["A", "C", "H"]

    @pytest.mark.parametrize("column", ["std", "run"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400", "1.5"])
    def test_orders_must_be_integers(self, column, cell):
        cells = {"std": "1", "run": "1", column: cell}
        text = f"std,run,A,reliability\n{cells['std']},{cells['run']},0.2,50\n"
        with pytest.raises(InputError) as err:
            load_design(text)
        msg = str(err.value)
        assert "row 1" in msg and repr(column) in msg

    def test_integral_float_order_accepted(self):
        rows = load_design("std,run,A,reliability\n2.0,3,0.2,50\n")
        assert (rows[0].std_order, rows[0].run_order) == (2, 3)

    def test_unknown_letter_rejected(self):
        with pytest.raises(InputError):
            load_design("std,run,A,Q,reliability\n1,1,0.2,0.2,\n")

    def test_path_with_comma(self, tmp_path):
        path = tmp_path / "dir,x" / "t4.csv"
        path.parent.mkdir()
        save_design(bundled_table4(), path)
        for source in (path, str(path)):
            rows = load_design(source)
            assert [r.levels for r in rows] == [r.levels for r in bundled_table4()]

    @pytest.mark.parametrize("eol", ["\r", "\r\n", "\n"], ids=repr)
    def test_text_with_any_line_break(self, eol):
        text = eol.join(["std,run,A,reliability", "1,1,0.2,50", "2,2,0.8,60.5"])
        rows = load_design(text)
        assert [(r.std_order, r.levels, r.response) for r in rows] == [
            (1, {"A": 0.2}, 50.0), (2, {"A": 0.8}, 60.5),
        ]

    def test_none_response_written_empty(self):
        rows = [DesignRow(1, 1, {"A": 0.5}, None)]
        buf = io.StringIO()
        save_design(rows, buf)
        assert buf.getvalue().splitlines()[1].endswith(",")


class TestNormalizeObservations:
    def test_unit_scale(self):
        X, _ = bundled_table2().normalized(PSF_ORDER)
        assert X.max(axis=0).tolist() == [1.0] * 8
        assert tuple(X[0]) == (0.01, 0.4, 1.0, 1.0, 0.4, 0.05, 1.0, 0.1)

    def test_maxima_recorded(self):
        _, maxima = bundled_table2().normalized(PSF_ORDER)
        assert maxima[PsfId.Procedures] == 50.0

    def test_active_subset(self):
        active = (PsfId.Stress, PsfId.Procedures)
        X, maxima = bundled_table2().normalized(active)
        full, _ = bundled_table2().normalized(PSF_ORDER)
        assert X.shape == (15, 2)
        assert list(maxima) == list(active)
        assert np.array_equal(X, full[:, [1, 4]])
