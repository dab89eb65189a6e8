"""The file boundary: every loader names the file it could not read or parse."""
import ast
import builtins
import io
import os
from pathlib import Path

import numpy as np
import pytest

import hra_forge
from hra_forge import ann, cli, dataset, ioutil, psf
from hra_forge.errors import InputError, UnknownLevelError
from hra_forge.ioutil import (
    atomic_write_text,
    csv_rows,
    csv_text,
    load,
    parse_float,
    parse_int,
)

SRC = Path(hra_forge.__file__).resolve().parent

LOADERS = {
    "observations": dataset.load_observations,
    "design": dataset.load_design,
    "training-config": ann.load_training_config,
    "multiplier-config": psf.load_multiplier_config,
    "predictor": ann.load_predictor,
    "report-csv": lambda path: cli._read_csv(path, ("observed_hep", "predicted_hep")),
}


def _missing(tmp_path):
    return tmp_path / "missing.csv"


def _directory(tmp_path):
    (tmp_path / "adir").mkdir()
    return tmp_path / "adir"


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("id,stress\ncafé,1\n".encode("latin-1"))
    return path


class TestUnreadableFile:
    @pytest.mark.parametrize("loader", LOADERS.values(), ids=LOADERS.keys())
    @pytest.mark.parametrize("make", [_missing, _directory, _not_utf8],
                             ids=["missing", "directory", "not-utf8"])
    def test_input_error_names_the_path(self, tmp_path, loader, make):
        path = make(tmp_path)
        with pytest.raises(InputError, match="cannot read") as info:
            loader(str(path))
        assert str(path) in str(info.value)


BAD_DESIGN = "std,run,A,B,reliability\n1,1,x,0.5,0.9\n"


class TestContentErrorPrefix:
    def test_path_gains_prefix(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(BAD_DESIGN)
        with pytest.raises(InputError) as info:
            dataset.load_design(str(path))
        assert str(info.value) == f"{path}: row 1: column 'A' is not numeric: 'x'"

    @pytest.mark.parametrize("wrap", [str, io.StringIO], ids=["text", "file-object"])
    def test_text_and_file_object_have_none(self, wrap):
        with pytest.raises(InputError) as info:
            dataset.load_design(wrap(BAD_DESIGN))
        assert str(info.value) == "row 1: column 'A' is not numeric: 'x'"

    def test_training_config(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("epochs=x\n")
        with pytest.raises(InputError) as info:
            ann.load_training_config(str(path))
        assert str(info.value) == f"{path}: training config line 1: cannot parse 'x'"
        with pytest.raises(InputError) as info:
            ann.parse_training_config("epochs=x\n")
        assert str(info.value) == "training config line 1: cannot parse 'x'"

    def test_predictor_keeps_its_wording(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("not a predictor\n")
        with pytest.raises(InputError) as info:
            ann.load_predictor(str(path))
        assert str(info.value) == f"{path}: not a recognized predictor file"
        path.write_text("hra-forge predictor v1\ntopology 1\n")
        with pytest.raises(InputError, match=r"^.*net\.txt: malformed predictor file: "):
            ann.load_predictor(str(path))

    def test_error_keeps_its_type(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("A,Nominal,1,1\n")

        def parse(text):
            raise UnknownLevelError("AvailableTime", "Nope")

        with pytest.raises(UnknownLevelError) as info:
            load(path, parse)
        assert info.value.label == "Nope"
        assert str(info.value).startswith(f"{path}: unknown level 'Nope'")

    def test_parse_sees_the_decoded_text(self, tmp_path):
        path = tmp_path / "crlf.cfg"
        path.write_bytes(b"epochs=7\r\n")
        assert load(path, str) == "epochs=7\n"


class TestCsvDialect:
    def test_cell_rules(self):
        text = csv_text(
            ("s", "none", "int", "float", "np.float64", "np.int64"),
            [["a b", None, 7, 0.1, np.float64(1) / 3, np.int64(5)],
             ["", None, -12, 2.0, np.float64("1e-300"), np.int64(0)]],
        )
        assert text == (
            "s,none,int,float,np.float64,np.int64\n"
            "a b,,7,0.10000000000000001,0.33333333333333331,5\n"
            ",,-12,2,1e-300,0\n"
        )

    def test_float_cells_round_trip_exactly(self):
        values = [0.1, 1 / 3, 2.0 ** -1074, 1.7976931348623157e308, -0.0]
        (row,) = csv_rows(csv_text(["x"] * len(values), [values]))[1:]
        assert [float(c) for c in row] == values

    def test_header_only(self):
        assert csv_text(["a", "b"], []) == "a,b\n"

    def test_rows_are_numbered_from_1_after_the_header(self):
        rows = csv_rows("\n a , b \n\n1,x\n   \r\n2,3,\n")
        assert rows == [["a", "b"], ["1", "x"], ["2", "3", ""]]
        with pytest.raises(InputError) as info:
            parse_float(rows[1][1], 1, rows[0][1])
        assert str(info.value) == "row 1: column 'b' is not numeric: 'x'"
        assert parse_int(rows[2][1], 2, "b") == 3
        with pytest.raises(InputError) as info:
            parse_int("2.5", 2, "b")
        assert str(info.value) == "row 2: column 'b' is not an integer: '2.5'"

    def test_empty_text_has_no_rows(self):
        assert csv_rows("") == [] and csv_rows(" \n\n") == []


class TestBundledFixtures:
    def test_every_fixture_is_checked(self):
        assert set(ioutil._FIXTURE_SHA256) == {"table2.csv", "table4.csv", "multipliers.csv"}
        assert dataset.bundled_table2() and dataset.bundled_table4()
        assert psf.bundled_multiplier_tables()

    def test_corrupt_multipliers_digest_is_input_error(self, monkeypatch):
        monkeypatch.setitem(ioutil._FIXTURE_SHA256, "multipliers.csv", "0" * 64)
        with pytest.raises(InputError, match="multipliers.csv fails its checksum"):
            psf.bundled_multiplier_tables()


class TestAtomicWriteFailure:
    def test_missing_directory_names_the_target(self, tmp_path):
        target = tmp_path / "nodir" / "out.txt"
        with pytest.raises(FileNotFoundError) as info:
            atomic_write_text(target, "x\n")
        assert info.value.filename == str(target)
        assert str(target) in str(info.value)

    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "adir"
        target.mkdir()
        with pytest.raises(OSError) as info:
            atomic_write_text(target, "x\n")
        assert str(target) in str(info.value)
        assert sorted(os.listdir(tmp_path)) == ["adir"]
        assert os.listdir(target) == []


class TestAtomicWriteMode:
    """A written file has the mode a plain ``open(path, "w")`` gives it."""

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_mode_matches_plain_open(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "plain.txt", "w") as handle:
                handle.write("x\n")
            atomic_write_text(tmp_path / "new.txt", "x\n")
            # an overwrite of a file made under the same umask keeps its mode
            with open(tmp_path / "old.txt", "w") as handle:
                handle.write("x\n")
            atomic_write_text(tmp_path / "old.txt", "y\n")
        finally:
            os.umask(old)
        want = (tmp_path / "plain.txt").stat().st_mode
        assert want & 0o777 == 0o666 & ~umask
        assert (tmp_path / "new.txt").stat().st_mode == want
        assert (tmp_path / "old.txt").stat().st_mode == want
        assert (tmp_path / "old.txt").read_text() == "y\n"


def _src_trees():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _is_open_call(node):
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "open") or (
        isinstance(func, ast.Attribute) and func.attr == "open"
    )


# OSError and its aliases and subclasses, and the Unicode errors
_IO_ERRORS = {
    name for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, (OSError, UnicodeError))
}


def _names(expr):
    if expr is None:
        return set()
    nodes = expr.elts if isinstance(expr, ast.Tuple) else [expr]
    return {n.id if isinstance(n, ast.Name) else ast.unparse(n) for n in nodes}


class TestBoundaryStaysInOnePlace:
    def test_open_is_called_only_in_ioutil(self):
        callers = {
            name
            for name, tree in _src_trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _is_open_call(node)
        }
        assert callers == {"ioutil.py"}

    def test_io_errors_are_caught_only_in_ioutil_and_cli_main(self):
        found = set()
        for name, tree in _src_trees():
            for scope in ast.walk(tree):
                if not isinstance(scope, (ast.Module, ast.FunctionDef, ast.ClassDef)):
                    continue
                # handlers directly in this scope, not in nested functions
                stack = list(ast.iter_child_nodes(scope))
                while stack:
                    node = stack.pop()
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Lambda)):
                        continue
                    if isinstance(node, ast.ExceptHandler) and _names(node.type) & _IO_ERRORS:
                        found.add((name, getattr(scope, "name", "<module>")))
                    stack.extend(ast.iter_child_nodes(node))
        assert {f for f, _ in found} == {"ioutil.py", "cli.py"}
        assert {s for f, s in found if f == "cli.py"} == {"main"}

    def test_fmt_full_is_called_only_by_the_csv_writer_predictor_and_quantify(self):
        callers = set()
        for name, tree in _src_trees():
            for scope in ast.walk(tree):
                if not isinstance(scope, (ast.Module, ast.FunctionDef)):
                    continue
                for node in ast.walk(scope):
                    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                            and node.func.id == "fmt_full"):
                        callers.add((name, getattr(scope, "name", "<module>")))
        assert {c for c in callers if c[1] != "<module>"} == {
            ("ioutil.py", "_cell"),
            ("ann.py", "save_predictor"),
            ("cli.py", "cmd_quantify"),
        }

    def test_cli_reaches_into_no_private_dataset_name(self):
        tree = dict(_src_trees())["cli.py"]
        private = {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "dataset" and node.attr.startswith("_")
        }
        assert private == set()
