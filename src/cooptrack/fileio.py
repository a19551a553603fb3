"""Every file the package writes or reads back: atomic text writes and the
one CSV format (optional `#` comment line, header row, floats with six
decimals)."""

import contextlib
import csv
import io
import json
import math
import os

from .errors import DataError


@contextlib.contextmanager
def _replacing(path):
    """Text handle on a temporary file that replaces path once closed."""
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        yield fh
    os.replace(tmp, path)


def write_text(path, text):
    """Replace the content of path atomically."""
    with _replacing(path) as fh:
        fh.write(text)


def write_json(path, payload):
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cell(value):
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def write_csv(path, header, rows, comment=None):
    """`# comment` line if given, header, then rows; floats (numpy float64
    included) as `:.6f`, anything else through str."""
    with _replacing(path) as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(value) for value in row] for row in rows)


def read_text(path):
    """Whole content of a text file; DataError if it cannot be read."""
    try:
        with open(path, newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def read_csv(path, header, types=None):
    """Data rows of a CSV with the given header, as tuples.

    Blank lines and lines starting with `#` are skipped.  Each cell is
    parsed by the matching callable in types (float for every column by
    default) and must be finite.  Any deviation raises DataError naming the
    file and line.
    """
    header = tuple(header)
    types = types or (float,) * len(header)
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        table = list(reader)
    except csv.Error as exc:
        raise DataError(f"{path} line {reader.line_num}: {exc}") from exc
    rows = []
    header_seen = False
    for lineno, row in enumerate(table, start=1):
        if not row or row[0].startswith("#"):
            continue
        if not header_seen:
            if tuple(row) != header:
                raise DataError(f"{path} line {lineno}: expected header "
                                f"{','.join(header)}")
            header_seen = True
            continue
        if len(row) != len(header):
            raise DataError(f"{path} line {lineno}: expected "
                            f"{len(header)} columns, got {len(row)}")
        try:
            values = tuple(parse(cell) for parse, cell in zip(types, row))
        except ValueError as exc:
            raise DataError(f"{path} line {lineno}: {exc}") from exc
        if not all(math.isfinite(v) for v in values):
            raise DataError(f"{path} line {lineno}: non-finite value")
        rows.append(values)
    if not header_seen:
        raise DataError(f"{path} line 1: missing header")
    return rows
