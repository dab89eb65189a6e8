"""Mutated input files end in exit 0, 2, 3 or 4 through ``cli.main``, never a traceback.

Each test mutates one bundled or generated file in one way (truncate it,
drop or add a cell, put nan, inf or an empty string in a cell, prepend a
BOM, switch to CRLF, keep only its first line, insert bytes that are not
UTF-8) and runs the subcommand that reads it. Hypothesis is derandomized,
so the examples are the same on every run.
"""
import contextlib
import io
import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hra_forge import ann, dataset
from hra_forge.cli import main
from hra_forge.errors import InputError
from hra_forge.ioutil import bundled_text

SMALL_CONFIG = "epochs=50\nreplications=2\n"
CASE_STUDY = dataset.bundled_case_study()
EXIT_CODES = {0, 2, 3, 4}

_ROW = st.integers(0, 10_000)
_CELL = st.integers(0, 100)
MUTATIONS = {
    "truncate": st.tuples(st.integers(0, 100)),
    "drop-cell": st.tuples(_ROW, _CELL),
    "add-cell": st.tuples(_ROW, _CELL),
    "inject": st.tuples(_ROW, _CELL, st.sampled_from(["nan", "inf", "-inf", ""])),
    "bom": st.just(()),
    "crlf": st.just(()),
    "header-only": st.just(()),
    "not-utf8": st.tuples(st.integers(0, 100)),
}


def mutate(data: bytes, kind: str, params: tuple, sep: str) -> bytes:
    """``data`` with one mutation applied; ``sep`` separates a line's cells."""
    if kind == "truncate":
        return data[: len(data) * params[0] // 100]
    if kind == "bom":
        return b"\xef\xbb\xbf" + data
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    if kind == "header-only":
        return data.split(b"\n", 1)[0] + b"\n"
    if kind == "not-utf8":
        at = len(data) * params[0] // 100
        return data[:at] + b"\xff\xfe" + data[at:]
    lines = data.decode("utf-8").split("\n")
    filled = [i for i, line in enumerate(lines) if line.strip()]
    row = filled[params[0] % len(filled)]
    cells = lines[row].split(sep)
    at = params[1] % len(cells)
    if kind == "drop-cell":
        del cells[at]
    elif kind == "add-cell":
        cells.insert(at, "0.5")
    else:
        cells[at] = params[2]
    lines[row] = sep.join(cells)
    return "\n".join(lines).encode("utf-8")


def run_cli(argv):
    """(exit code, stderr) of one ``cli.main`` call; an escaping exception fails."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class Sources(dict):
    """File name -> unmutated bytes, plus the paths of the shared files."""

    def __repr__(self):  # keeps hypothesis's failure report short
        return "Sources(...)"


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """The unmutated bytes of every fuzzed file, and a small result tree."""
    root = tmp_path_factory.mktemp("fuzz")
    config = root / "train.cfg"
    config.write_text(SMALL_CONFIG)
    result = root / "result"
    assert run_cli(["pipeline", "--config", str(config), "--out", str(result)])[0] == 0
    first = result / "iterations" / "01"
    return Sources({
        "config": str(config),
        "result": str(result),
        "table2.csv": bundled_text("table2.csv").encode("utf-8"),
        "table4.csv": bundled_text("table4.csv").encode("utf-8"),
        "multipliers.csv": bundled_text("multipliers.csv").encode("utf-8"),
        "train.cfg": SMALL_CONFIG.encode("utf-8"),
        "metrics.csv": (first / "metrics.csv").read_bytes(),
        "rsm_fit.csv": (first / "rsm_fit.csv").read_bytes(),
        "predictor.txt": (first / "predictor.txt").read_bytes(),
    })


def _report(path, scratch, sources):
    return ["report", "--result", f"{scratch}/result", "--out", f"{scratch}/plots"]


# target -> (file mutated, cell separator, argv from the mutated file's path,
# the scratch directory and the sources); a report target's file lies in a
# copy of the result tree at <scratch>/result
TARGETS = {
    "train-observations": (
        "table2.csv", ",",
        lambda p, d, s: ["train", "--observations", p, "--config", s["config"]],
    ),
    "train-config": ("train.cfg", "=", lambda p, d, s: ["train", "--config", p]),
    "anova-design": ("table4.csv", ",", lambda p, d, s: ["anova", "--design", p]),
    "screen-design": ("table4.csv", ",", lambda p, d, s: ["screen", "--design", p]),
    "quantify-table": (
        "multipliers.csv", ",",
        lambda p, d, s: ["quantify", "--table", p, "--tally", "1/10", "--psf", "A=Extra time"],
    ),
    "report-metrics": ("metrics.csv", ",", _report),
    "report-rsm-fit": ("rsm_fit.csv", ",", _report),
}

FUZZ = settings(
    max_examples=6,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.mark.parametrize("kind", MUTATIONS)
@pytest.mark.parametrize("target", TARGETS)
@FUZZ
@given(data=st.data())
def test_cli_survives_mutation(sources, target, kind, data):
    name, sep, argv = TARGETS[target]
    params = data.draw(MUTATIONS[kind], label="params")
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, name)
        if target.startswith("report"):
            shutil.copytree(sources["result"], os.path.join(scratch, "result"))
            path = os.path.join(scratch, "result", "iterations", "01", name)
        with open(path, "wb") as handle:
            handle.write(mutate(sources[name], kind, params, sep))
        code, err = run_cli(argv(path, scratch, sources))
    assert code in EXIT_CODES
    if code == 2:
        assert err.startswith("error: ")


@pytest.mark.parametrize("kind", MUTATIONS)
@FUZZ
@given(data=st.data())
def test_mutated_predictor_loads_or_is_input_error(sources, kind, data):
    params = data.draw(MUTATIONS[kind], label="params")
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "predictor.txt")
        with open(path, "wb") as handle:
            handle.write(mutate(sources["predictor.txt"], kind, params, " "))
        try:
            predictor = ann.load_predictor(path)
        except InputError as exc:
            assert path in str(exc)
        else:
            assert predictor.predict_instances(CASE_STUDY).shape == (len(CASE_STUDY),)


OUT_CASES = {
    "train-missing-dir": lambda t, s: ["train", "--config", s["config"], "--out", f"{t}/no/p.txt"],
    "anova-missing-dir": lambda t, s: ["anova", "--out", f"{t}/no/a.csv"],
    "screen-missing-dir": lambda t, s: ["screen", "--out", f"{t}/no/s.txt"],
    "design-missing-dir": lambda t, s: ["design", "--generate", "--out", f"{t}/no/d.csv"],
    "train-dir": lambda t, s: ["train", "--config", s["config"], "--out", f"{t}/dir"],
    "anova-dir": lambda t, s: ["anova", "--out", f"{t}/dir"],
    "screen-dir": lambda t, s: ["screen", "--out", f"{t}/dir"],
    "design-dir": lambda t, s: ["design", "--generate", "--out", f"{t}/dir"],
    "pipeline-file": lambda t, s: ["pipeline", "--config", s["config"], "--out", f"{t}/file"],
    "report-file": lambda t, s: ["report", "--result", s["result"], "--out", f"{t}/file"],
    "report-under-file": lambda t, s: ["report", "--result", s["result"], "--out", f"{t}/file/x"],
}


@pytest.mark.parametrize("case", OUT_CASES)
def test_unwritable_out_exits_2_naming_it(sources, tmp_path, case):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("keep\n")
    argv = OUT_CASES[case](tmp_path, sources)
    code, err = run_cli(argv)
    assert code == 2
    assert err.startswith("error: ") and argv[-1] in err
    assert (tmp_path / "file").read_text() == "keep\n"
    assert not [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")]
