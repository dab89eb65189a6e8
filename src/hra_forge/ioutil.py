"""The file boundary: user files and bundled fixtures in, output files out.

A user-named file is read through :func:`load`, so an unreadable or
undecodable file, and any fault its parser finds, is an InputError naming
it. Bundled fixtures are checksummed at load, so an accidental edit fails
loudly. Output is written to a temporary name and renamed into place, so
readers never see a half-written file. Machine-facing CSV cells carry 17
significant digits (exact double round-trip); console output carries 4.
"""
import hashlib
import importlib.resources
import os
import tempfile

from .errors import InputError

_FIXTURE_SHA256 = {
    "table2.csv": "b5d9a7d37c5c9a6258906a8ba81ccf92968c79288009900c640ae35920f8737c",
    "table4.csv": "142b409cf3aab3d4bea3e49a793a8a67e1de76aca3644593ca588a0068ca737c",
    "multipliers.csv": "46ae2593b74d3c54a0dcb3d2d98f4d67e9d0e1df753c9535fb554b2737d91b81",
}


def fmt_full(x) -> str:
    """Format a float at 17 significant digits (exact double round-trip)."""
    return f"{float(x):.17g}"


def fmt_console(x) -> str:
    """Format a float at 4 significant digits for human-facing output."""
    return f"{float(x):.4g}"


def load(path, parse):
    """``parse`` of the UTF-8 text of the file at ``path``.

    An unreadable file is ``InputError("cannot read PATH: ...")``; an
    InputError from ``parse`` keeps its type and gains a ``"PATH: "`` prefix.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(text)
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


def atomic_write_text(path, text: str) -> None:
    """Write text to path atomically (temp file + rename, same directory)."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    except OSError as exc:  # name the target, not the temp file
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
