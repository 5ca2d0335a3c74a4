"""Atomic tabular output.

Every artifact is written to a temporary file in the destination
directory and moved into place with ``os.replace``, so an interrupted
run never leaves a partial file under the final name.  CSV tables
start with a ``# config-hash:`` comment tying the rows to the resolved
configuration, followed by a header row.  Floats are serialized with
17 significant digits, enough to reproduce the double exactly.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile

__all__ = [
    "format_value",
    "atomic_write_text",
    "render_csv",
    "write_summary",
]


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` so that no partial file is ever visible."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def render_csv(config_hash: str, header, rows) -> str:
    buf = io.StringIO()
    buf.write(f"# config-hash: {config_hash}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_value(v) for v in row])
    return buf.getvalue()


def write_summary(path: str, pairs) -> None:
    """Plain-text ``key = value`` lines, one per entry."""
    lines = [f"{key} = {format_value(value)}" for key, value in pairs]
    atomic_write_text(path, "\n".join(lines) + "\n")
