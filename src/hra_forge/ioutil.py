"""Small I/O helpers: atomic file writes and the two numeric text formats.

Files are written to a temporary name in the target directory and renamed
into place, so readers never observe a half-written file. All machine-facing
CSV output uses 17 significant digits (round-trips double precision exactly);
console output uses 4.
"""
import os
import tempfile


def fmt_full(x) -> str:
    """Format a float at 17 significant digits (exact double round-trip)."""
    return f"{float(x):.17g}"


def fmt_console(x) -> str:
    """Format a float at 4 significant digits for human-facing output."""
    return f"{float(x):.4g}"


def atomic_write_text(path, text: str) -> None:
    """Write text to path atomically (temp file + rename, same directory)."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
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
