"""Old-vs-new equivalence check: run one fixed catalogue of CLI commands
from two source trees and compare every artifact byte for byte.

    python3 tools/equivalence.py OLD NEW OUT

OLD and NEW are checkouts of this repository (each holding
``src/hra_forge``). OUT must be missing or empty; it receives ``OUT/old``
and ``OUT/new``, one directory per catalogue entry. Each command runs in a
fresh interpreter with ``PYTHONPATH=<tree>/src`` and BLAS pinned to one
thread, inside its entry's directory, so relative ``--out`` paths land
there and the console output names the same paths for both trees. An
entry's artifacts are every file its commands write plus, per command,
its standard output, standard error and exit status.

Prints one line per artifact: ``identical``, ``differs``, or ``only in
old``/``only in new``. Exits 0 when every artifact is identical, 1 when any
is not, and 2 when an argument is unusable. The catalogue is bit-exact by
design: use it for changes that keep the arithmetic, and state and check a
tolerance by other means where the arithmetic changes.
"""
from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
from pathlib import Path

#: (entry name, the CLI argument lists it runs in order, in one directory).
CATALOGUE = (
    ("screen", (["screen", "--out", "screening.txt"],)),
    ("screen-alpha-0.1", (["screen", "--alpha", "0.1", "--out", "screening.txt"],)),
    ("anova", (["anova", "--out", "anova.csv"],)),
    ("pipeline-seed-1", (["pipeline", "--seed", "1", "--out", "result"],
                         ["report", "--result", "result"])),
    ("pipeline-seed-11", (["pipeline", "--seed", "11", "--out", "result"],
                          ["report", "--result", "result"])),
)

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_catalogue(tree: Path, dest: Path, catalogue=CATALOGUE) -> None:
    """Run every catalogue entry from ``tree``'s sources into ``dest/<entry>``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    for name, commands in catalogue:
        cwd = dest / name
        console = cwd / "console"
        console.mkdir(parents=True)
        for i, argv in enumerate(commands, start=1):
            done = subprocess.run(
                [sys.executable, "-m", "hra_forge.cli", *argv],
                cwd=cwd, env=env, capture_output=True, timeout=600,
            )
            (console / f"{i}.stdout").write_bytes(done.stdout)
            (console / f"{i}.stderr").write_bytes(done.stderr)
            (console / f"{i}.exit").write_text(f"{done.returncode}\n")


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def check(old: Path, new: Path) -> int:
    """Print one line per artifact under ``old`` and ``new``; 0 when every
    artifact is in both and identical, else 1."""
    old_files, new_files = _files(old), _files(new)
    same = True
    for rel in sorted(old_files | new_files):
        if rel not in new_files:
            status = "only in old"
        elif rel not in old_files:
            status = "only in new"
        elif filecmp.cmp(old / rel, new / rel, shallow=False):
            status = "identical"
        else:
            status = "differs"
        same = same and status == "identical"
        print(f"{status:<12} {rel}")
    return 0 if same else 1


def main(argv=None, catalogue=CATALOGUE) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="source tree of the old version")
    parser.add_argument("new", type=Path, help="source tree of the new version")
    parser.add_argument("out", type=Path, help="artifact directory, missing or empty")
    args = parser.parse_args(argv)
    for tree in (args.old, args.new):
        if not (tree / "src" / "hra_forge" / "__init__.py").is_file():
            print(f"error: no hra_forge sources under {tree / 'src'}", file=sys.stderr)
            return 2
    if args.out.exists() and (not args.out.is_dir() or any(args.out.iterdir())):
        print(f"error: {args.out} must be a missing or empty directory", file=sys.stderr)
        return 2
    for side, tree in (("old", args.old), ("new", args.new)):
        run_catalogue(tree.resolve(), args.out / side, catalogue)
    return check(args.out / "old", args.out / "new")


if __name__ == "__main__":
    sys.exit(main())
