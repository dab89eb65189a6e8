"""tools/equivalence.py: a tree against itself reads identical, and one
doctored CSV cell is reported."""
import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "equivalence", ROOT / "tools" / "equivalence.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_tree_identical_and_doctored_cell_reported(tmp_path, capsys):
    tool = load_tool()
    short = [entry for entry in tool.CATALOGUE if entry[0] in ("screen", "anova")]
    assert tool.main([str(ROOT), str(ROOT), str(tmp_path / "out")], short) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "identical    anova/anova.csv" in lines
    assert "identical    screen/screening.txt" in lines
    assert "identical    screen/console/1.exit" in lines
    assert all(line.startswith("identical ") for line in lines)

    doctored = tmp_path / "doctored"
    shutil.copytree(tmp_path / "out" / "new", doctored)
    table = doctored / "anova" / "anova.csv"
    header, first, *rest = table.read_text().splitlines()
    cells = first.split(",")  # the Model row: source, SS, df, ...
    cells[2] = str(int(cells[2]) + 1)
    table.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    assert tool.check(tmp_path / "out" / "old", doctored) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.startswith("identical ")] == [
        "differs      anova/anova.csv"
    ]


def test_unusable_arguments_exit_2(tmp_path, capsys):
    tool = load_tool()
    assert tool.main([str(tmp_path), str(ROOT), str(tmp_path / "out")]) == 2
    (tmp_path / "full").mkdir()
    (tmp_path / "full" / "stale.csv").write_text("x\n")
    assert tool.main([str(ROOT), str(ROOT), str(tmp_path / "full")]) == 2
    err = capsys.readouterr().err
    assert "no hra_forge sources" in err and "missing or empty" in err
