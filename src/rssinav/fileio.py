"""The file layer: every output path is written atomically (a unique temp
file beside it, renamed into place on success, so a failed write leaves any
old file untouched), every input path is read here, and the world, map,
dataset and scan text formats are decoded from UTF-8 here, with errors that
name the file.  format_number and finite_floats are the number codec the
text formats share: exact round-trip text out, finite floats in."""

from __future__ import annotations

import contextlib
import csv
import math
import os
import tempfile
from pathlib import Path

from .errors import InvalidParameter


@contextlib.contextmanager
def atomic_output(path, binary: bool = False):
    """Write to a unique temp file next to ``path`` (mode 0o666 less the umask) and rename on success."""
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    except OSError as exc:  # the error names the target, not the temp file
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    umask = os.umask(0)
    os.umask(umask)
    mode = "wb" if binary else "w"
    try:
        with open(fd, mode, encoding=None if binary else "utf-8", newline=None if binary else "") as fh:
            os.chmod(tmp, 0o666 & ~umask)
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def open_sink(sink, binary: bool = False):
    """A context manager writing to ``sink``: a path through atomic_output, an open file as is."""
    return atomic_output(sink, binary) if isinstance(sink, (str, Path)) else contextlib.nullcontext(sink)


def write_rows(sink, header, rows) -> None:
    """Write a CSV of a header and rows to an open file or, atomically, a path;
    csv writes a float (numpy's float64 too) as its float repr, so it
    round-trips, and None as an empty cell."""
    with open_sink(sink) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_bytes(source) -> bytes:
    """The bytes of a path, or what an open binary file reads."""
    if not isinstance(source, (str, Path)):
        return source.read()
    with open(source, "rb") as fh:
        return fh.read()


def read_text(source, error, what: str | None) -> str:
    """The UTF-8 text of a path, line endings as written, or what an open
    text file reads, less one leading byte-order mark; text that is not UTF-8
    raises ``error`` naming ``what`` and the file (neither if it is None)."""
    is_path = isinstance(source, (str, Path))
    try:
        text = read_bytes(source).decode("utf-8") if is_path else source.read()
    except UnicodeDecodeError as exc:
        name = source if is_path else getattr(source, "name", "stream")
        raise error(f"{what} {name} is not UTF-8 text: {exc}" if what else f"not UTF-8 text: {exc}") from exc
    return text.removeprefix("\ufeff")


def format_number(v: float) -> str:
    """Decimal text that round-trips exactly (integers rendered bare)."""
    f = float(v)
    if f.is_integer():
        return str(int(f))
    return repr(f)


def finite_floats(cells) -> list[float]:
    """Parse text cells as floats; ValueError names the first that is not a finite number."""
    values = [float(cell) for cell in cells]
    for cell, value in zip(cells, values):
        if not math.isfinite(value):
            raise InvalidParameter(f"non-finite number {cell!r}")
    return values
