"""Reading and writing traces, sweep tables and fit results.

CSV conventions, chosen so reruns are byte-identical and values round-trip
exactly: UTF-8, LF line endings, metadata as leading ``# key=value`` lines
with the keys sorted, then a header row, then data rows.  Floats are written
with ``repr``, the shortest string that parses back to the same double.

The ``render_*`` functions return text; :func:`write_outputs` is the one
writer, used by the ``save_*`` functions and by every CLI command.  It
stages each regular file beside its target and renames it into place only
once every output of the call is staged, so a failed write leaves no
regular file half-written.
"""

from __future__ import annotations

import ast
import contextlib
import itertools
import json
import operator
import os
import stat
import sys

import numpy as np

from .dynamics import TransientTrace

__all__ = [
    "render_trace",
    "save_trace",
    "load_trace",
    "render_table",
    "render_fit",
    "save_fit",
    "write_outputs",
]

TRACE_COLUMNS = ("time", "w", "b")


def _format_value(value) -> str:
    """Value -> string that ``ast.literal_eval`` (or float()) restores exactly."""
    if isinstance(value, (bool, np.bool_)):
        return repr(bool(value))
    if isinstance(value, (int, np.integer)):
        return repr(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        return repr(complex(value))
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(_format_value(v) for v in value) + ("," if len(value) == 1 else "") + ")"
    return repr(str(value)) if isinstance(value, str) else str(value)


def _meta_lines(meta: dict) -> list:
    return [f"# {key}={_format_value(meta[key])}" for key in sorted(meta)]


def _format_cell(value) -> str:
    # unlike metadata values, table cells write strings bare
    return value if isinstance(value, str) else _format_value(value)


#: what ``_format_cell`` does to a cell of exactly this type, where equal values have equal text
_PLAIN_FORMATS = {int: int.__repr__, str: str}


def _format_column(cells) -> list:
    """``_format_cell`` of every cell; a column of one plain type formats each distinct value
    once, telling floats apart by their bits (so 0.0 and -0.0 stay distinct)."""
    if isinstance(cells, np.ndarray) and cells.dtype.kind in "iu":  # an integer array, by value
        values, inverse = np.unique(cells, return_inverse=True)
        return np.array(list(map(int.__repr__, values.tolist())), dtype=object)[inverse].tolist()
    if isinstance(cells, np.ndarray) and cells.dtype != float:
        cells = cells.tolist()
    kinds = {float} if isinstance(cells, np.ndarray) else set(map(type, cells))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is float:
        bits, inverse = np.unique(np.asarray(cells, dtype=float).view(np.int64), return_inverse=True)
        texts = np.array(list(map(float.__repr__, bits.view(float).tolist())), dtype=object)
        return texts[inverse].tolist()
    if kind in _PLAIN_FORMATS:
        texts = {cell: _PLAIN_FORMATS[kind](cell) for cell in set(cells)}
        return list(map(texts.__getitem__, cells))
    return [_format_cell(cell) for cell in cells]


def render_table(names, columns, meta: dict | None = None) -> str:
    """Generic numeric CSV: sorted ``#`` metadata, header, repr-formatted rows.

    ``columns`` holds one list, tuple or 1-D array of cells per name, each formatted
    at once, and a value repeated in a column is formatted once; columns of unequal
    length raise ValueError.
    """
    lines = _meta_lines(meta or {})
    lines.append(",".join(names))
    lines.extend(map(",".join, zip(*map(_format_column, columns), strict=True)))
    return "\n".join(lines) + "\n"


def render_trace(trace: TransientTrace) -> str:
    return render_table(TRACE_COLUMNS, (trace.times, trace.w, trace.b), trace.meta)


def save_trace(trace: TransientTrace, path) -> None:
    write_outputs((render_trace(trace), path))


def _floats(rows, width: int):
    """The cells of rows of ``width`` cells each as ``width`` columns, converted in one call, and
    how many rows those hold: all, or the rows before the first with a cell ``float`` refuses."""
    cells = iter(",".join(rows).split(","))
    try:
        values = np.fromiter(map(float, cells), float, len(rows) * width)
    except ValueError:  # the refused cell is the last one taken from ``cells``
        count = (len(rows) * width - operator.length_hint(cells) - 1) // width
        return _floats(rows[:count], width)[0], count
    return np.ascontiguousarray(values.reshape(len(rows), width).T), len(rows)


def load_trace(path) -> TransientTrace:
    """Read a trace CSV back into a :class:`TransientTrace`.

    Accepts the files written by :func:`save_trace` and minimal external
    files: a ``time`` column, a signal column named ``w`` or ``signal`` and
    an optional field column ``b``.  Each line is read by its stripped text:
    blank and ``#`` lines are skipped, ``# key=value`` ones above the header
    read as metadata.  Malformed input raises ``ValueError`` naming the
    offending 1-based line number.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            lines = handle.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None

    meta = {}
    for header_index, line in enumerate(map(str.strip, lines)):
        if line.startswith("#"):
            key, equals, value = (part.strip() for part in line[1:].partition("="))
            if equals:
                try:
                    meta[key] = ast.literal_eval(value)
                except (ValueError, SyntaxError, RecursionError, MemoryError):  # deep nesting too
                    meta[key] = value
        elif line:
            break
    else:
        raise ValueError(f"{path}: no header row found")

    header = [name.strip().lower() for name in lines[header_index].split(",")]
    if "time" not in header:
        raise ValueError(f"{path}:{header_index + 1}: missing 'time' column")
    signal_name = "w" if "w" in header else ("signal" if "signal" in header else None)
    if signal_name is None:
        raise ValueError(f"{path}:{header_index + 1}: missing signal column ('w' or 'signal')")

    rows = lines[header_index + 1:]
    numbers = np.arange(header_index + 2, len(lines) + 1)
    width = len(header)
    commas = np.fromiter(map(str.count, rows, itertools.repeat(",")), int, len(rows))
    # rows of numbers have width - 1 commas and no "#", so a file of such rows skips this filter
    if (commas != width - 1).any() or "#" in "".join(rows):
        kept = [row.lstrip()[:1] not in ("", "#") for row in rows]
        rows, numbers, commas = list(itertools.compress(rows, kept)), numbers[kept], commas[kept]
    if not rows:
        raise ValueError(f"{path}: no data rows")

    # the first faulty row, named by the first check it fails: width, numeric, finite, time order
    first = int(np.append(commas != width - 1, True).argmax())
    fault = f"expected {width} columns, got {commas[first] + 1}" if first < len(rows) else None
    columns, numeric = _floats(rows[:first], width)
    if numeric < first:
        first, fault = numeric, "non-numeric value"
    times = columns[header.index("time")]
    non_finite = ~np.isfinite(columns).all(axis=0)
    faulty = np.flatnonzero(non_finite | np.append(False, times[1:] <= times[:-1]))
    if faulty.size:
        first = faulty[0]
        fault = "non-finite value" if non_finite[first] else "time values must be strictly increasing"
    if fault:
        raise ValueError(f"{path}:{numbers[first]}: {fault}")
    b = columns[header.index("b")] if "b" in header else np.zeros(len(rows))
    return TransientTrace(times, columns[header.index(signal_name)], b, meta)


def render_fit(result) -> str:
    """Fit result as a deterministic JSON document (key order fixed)."""
    payload = {
        "model": result.kind,
        "params": {k: result.params[k] for k in sorted(result.params)},
        "uncertainties": {k: result.uncertainties[k] for k in sorted(result.uncertainties)},
        "rms": result.rms,
        "converged": result.converged,
        "iterations": result.iterations,
        "seeds": {k: result.seeds[k] for k in sorted(result.seeds)},
        "degenerate": result.degenerate,
    }
    return json.dumps(payload, indent=2) + "\n"


def save_fit(result, path) -> None:
    write_outputs((render_fit(result), path))


def write_outputs(*outputs) -> None:
    """Write each (text, path) pair; a path of None or "-" means stdout.

    A path that is absent or names a regular file is first written to a
    temporary file beside it, which is renamed into place with
    ``os.replace`` only once every output has been written, so a failure
    leaves no regular output file written or truncated; a replaced file
    keeps its permission bits.  Any other path (a symlink, a device such as
    ``os.devnull``, a FIFO) is written through directly, after the regular
    files are staged.  Standard output is written last.

    Raises
    ------
    ValueError
        Before anything is written, when two paths resolve to the same
        regular or absent file.
    OSError
        When a path cannot be examined or written; the temporary files are
        removed first.
    """
    staged, direct, files = [], [], set()
    for text, path in outputs:
        if path in (None, "-"):
            continue
        real = os.path.realpath(path)
        if real in files and (os.path.isfile(real) or not os.path.exists(real)):
            raise ValueError(f"two outputs name the same file {path}")
        files.add(real)
        try:
            mode = os.lstat(path).st_mode
        except FileNotFoundError:
            mode = None
        if mode is None or stat.S_ISREG(mode):
            staged.append((text, path, mode))
        else:
            direct.append((text, path))
    temps = []
    try:
        for index, (text, path, mode) in enumerate(staged):
            directory, name = os.path.split(os.path.abspath(path))
            temp = os.path.join(directory, f".{name}.{os.getpid()}.{index}.tmp")
            temps.append(temp)
            with open(temp, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
            if mode is not None:
                os.chmod(temp, stat.S_IMODE(mode))
        for text, path in direct:
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        for temp, (_, path, _) in zip(temps, staged):
            os.replace(temp, path)
    except OSError:
        for temp in temps:
            with contextlib.suppress(OSError):
                os.remove(temp)
        raise
    for text, path in outputs:
        if path in (None, "-"):
            sys.stdout.write(text)
