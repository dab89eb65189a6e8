"""The file boundary: user files and bundled fixtures in, output files out.

A user-named file is read through :func:`load`, or through
:func:`load_lines` when its parser takes the lines a chunk at a time, so an
unreadable or undecodable file, and any fault its parser finds, is an
InputError naming it. Bundled fixtures are checksummed at load, so an
accidental edit fails loudly. Output is written to a temporary name and
renamed into place, so readers never see a half-written file. CSV tables
have one dialect, written by :func:`csv_text` and read by :func:`csv_rows`:
no quoting, numbers at 17 significant digits (exact double round-trip), an
empty cell for a missing value, data rows numbered from 1 after the header.
Console output carries 4.
"""
import contextlib
import errno
import hashlib
import importlib.resources
import math
import os
import tempfile

from .errors import InputError

_FIXTURE_SHA256 = {
    "table2.csv": "b5d9a7d37c5c9a6258906a8ba81ccf92968c79288009900c640ae35920f8737c",
    "table4.csv": "142b409cf3aab3d4bea3e49a793a8a67e1de76aca3644593ca588a0068ca737c",
    "multipliers.csv": "46ae2593b74d3c54a0dcb3d2d98f4d67e9d0e1df753c9535fb554b2737d91b81",
}


# Characters read at a time by load_lines: about 1 MiB of ASCII text.
_CHUNK_CHARS = 1 << 20

# The line breaks of str.splitlines other than "\r" (a text stream read
# with universal newlines has none left).
_LINE_BREAKS = "\n\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

#: The %-format of a number in a CSV cell: 17 significant digits.
FULL = "%.17g"


def fmt_full(x) -> str:
    """Format a float at 17 significant digits (exact double round-trip)."""
    return FULL % float(x)


def fmt_console(x) -> str:
    """Format a float at 4 significant digits for human-facing output."""
    return f"{float(x):.4g}"


def csv_text(header, rows) -> str:
    """CSV text of a header and rows of cells.

    A ``str`` cell is written as is, ``None`` as an empty cell, an ``int``
    in decimal and any other number through :func:`fmt_full`.
    """
    lines = [",".join(header)]
    lines += [",".join(map(_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    return str(value) if isinstance(value, (str, int)) else fmt_full(value)


def csv_lines(text: str) -> list[str]:
    """The non-blank lines of CSV text: the header, then data rows 1, 2, ..."""
    return list(filter(str.strip, text.splitlines()))


def csv_rows(text: str) -> list[list[str]]:
    """The stripped cells of each non-blank line: the header, then data rows 1, 2, ..."""
    return [[cell.strip() for cell in raw.split(",")] for raw in csv_lines(text)]


def parse_float(cell: str, rowno: int, column: str) -> float:
    """The number in one CSV cell; an InputError names its row and column."""
    try:
        return float(cell)
    except ValueError:
        raise InputError(f"row {rowno}: column {column!r} is not numeric: {cell!r}") from None


def parse_int(cell: str, rowno: int, column: str) -> int:
    """The integer in one CSV cell; an InputError names its row and column."""
    value = parse_float(cell, rowno, column)
    if not (math.isfinite(value) and value.is_integer()):
        raise InputError(f"row {rowno}: column {column!r} is not an integer: {cell!r}")
    return int(value)


def load(path, parse):
    """``parse`` of the UTF-8 text of the file at ``path``.

    An unreadable file is ``InputError("cannot read PATH: ...")``; an
    InputError from ``parse`` is named as in :func:`naming`.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    with naming(path):
        return parse(text)


def load_lines(path, parse):
    """``parse`` of the non-blank lines of the UTF-8 file at ``path``, read
    ``_CHUNK_CHARS`` characters at a time.

    ``parse`` takes an iterable of lists of lines, in file order, which
    together are the :func:`csv_lines` of the file's text, so the file is
    never held whole. Errors read as :func:`load`'s, with the same
    precedence: a byte that is not UTF-8 anywhere in the file is "cannot
    read PATH: ..." even when ``parse`` has failed on an earlier line.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                with naming(path):
                    return parse(_line_chunks(handle))
            except InputError:
                while handle.read(_CHUNK_CHARS):  # a later bad byte wins
                    pass
                raise
    except UnicodeDecodeError:
        # the codec counts the bad byte's position from the start of its
        # chunk; reading the file whole gives load's message, with the
        # position counted from the start of the file
        return load(path, lambda text: parse([csv_lines(text)]))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _line_chunks(handle):
    """The :func:`csv_lines` of a text stream, one list per chunk read. The
    stream reads with universal newlines, so every line break left is one
    character, and a line cut by a chunk's end is carried into the next."""
    carry = ""
    while chunk := handle.read(_CHUNK_CHARS):
        lines = chunk.splitlines()
        lines[0] = carry + lines[0]
        carry = "" if chunk[-1] in _LINE_BREAKS else lines.pop()
        yield list(filter(str.strip, lines))
    if carry.strip():
        yield [carry]


@contextlib.contextmanager
def naming(path):
    """An InputError raised in the block keeps its type and gains a ``"PATH: "`` prefix."""
    try:
        yield
    except InputError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def bundled_text(name: str) -> str:
    """The text of a bundled fixture under ``data/``, checked against its digest."""
    raw = importlib.resources.files(__package__).joinpath(f"data/{name}").read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != _FIXTURE_SHA256[name]:
        raise InputError(
            f"bundled fixture {name} fails its checksum (got {digest}); "
            f"the installation is corrupt"
        )
    return raw.decode("utf-8")


def _temp_beside(path: str):
    """A new temporary file in path's directory: (fd, temp path)."""
    directory = os.path.dirname(path) or "."
    try:
        return tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    except OSError as exc:  # name the target, not the temp file
        raise OSError(exc.errno, exc.strerror, path) from exc


def check_writable(path) -> None:
    """Fail before any work with the OSError a later ``atomic_write_text``
    to path would raise: path is a directory, or its directory is missing
    or cannot take a new file."""
    path = os.fspath(path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    fd, tmp = _temp_beside(path)
    os.close(fd)
    os.unlink(tmp)


def atomic_write_text(path, text: str) -> None:
    """Write text to path atomically (temp file + rename, same directory).

    The file gets mode ``0o666 & ~umask``, as a new file from ``open`` does,
    also when it replaces an existing file.
    """
    path = os.fspath(path)
    fd, tmp = _temp_beside(path)
    try:
        # mkstemp makes the file 0600; give it the mode open(path, "w") gives
        # a new file
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
