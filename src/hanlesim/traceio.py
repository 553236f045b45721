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
import math
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
    return repr(value) if isinstance(value, str) else str(value)


def _meta_lines(meta: dict) -> list:
    return [f"# {key}={_format_value(meta[key])}" for key in sorted(meta)]


def _format_cell(value) -> str:
    # unlike metadata values, table cells write strings bare
    return value if isinstance(value, str) else _format_value(value)


#: what ``_format_cell`` does to a cell of exactly this type
_PLAIN_FORMATS = {float: float.__repr__, int: int.__repr__, str: str}


def _format_column(cells) -> list:
    """``_format_cell`` of every cell, a whole column at once when it holds one plain type."""
    kinds = set(map(type, cells))
    plain = _PLAIN_FORMATS.get(kinds.pop()) if len(kinds) == 1 else None
    if plain is None:
        return [_format_cell(cell) for cell in cells]
    return list(map(plain, cells))


def render_table(names, columns, meta: dict | None = None) -> str:
    """Generic numeric CSV: sorted ``#`` metadata, header, repr-formatted rows.

    ``columns`` holds one sequence of cells per name, each formatted at once;
    columns of unequal length raise ValueError.
    """
    lines = _meta_lines(meta or {})
    lines.append(",".join(names))
    lines.extend(map(",".join, zip(*map(_format_column, columns), strict=True)))
    return "\n".join(lines) + "\n"


def render_trace(trace: TransientTrace) -> str:
    columns = (trace.times.tolist(), trace.w.tolist(), trace.b.tolist())
    return render_table(TRACE_COLUMNS, columns, trace.meta)


def save_trace(trace: TransientTrace, path) -> None:
    write_outputs((render_trace(trace), path))


def _parse_meta_value(text: str):
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError, RecursionError, MemoryError):  # deep nesting too
        return text


def _columns(rows, width: int, time_col: int):
    """The data rows as columns, parsed in one pass; None where the line loop must run.

    The loop names a faulty row's line and skips blank and ``#`` rows, whose
    comma count or ``float`` fails here.
    """
    if set(map(str.count, rows, itertools.repeat(","))) != {width - 1}:
        return None
    try:
        values = np.array(list(map(float, ",".join(rows).split(","))))
    except ValueError:
        return None
    columns = np.ascontiguousarray(values.reshape(len(rows), width).T)
    times = columns[time_col]
    if np.isfinite(values).all() and (times[1:] > times[:-1]).all():
        return columns
    return None


def load_trace(path) -> TransientTrace:
    """Read a trace CSV back into a :class:`TransientTrace`.

    Accepts the files written by :func:`save_trace` and minimal external
    files: a ``time`` column, a signal column named ``w`` or ``signal`` and
    an optional field column ``b``.  Malformed input raises ``ValueError``
    naming the offending 1-based line number.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None

    meta = {}
    header_index = None
    for index, line in enumerate(lines):
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = _parse_meta_value(value.strip())
            continue
        if line.strip():
            header_index = index
            break
    if header_index is None:
        raise ValueError(f"{path}: no header row found")

    header = [name.strip().lower() for name in lines[header_index].split(",")]
    if "time" not in header:
        raise ValueError(f"{path}:{header_index + 1}: missing 'time' column")
    signal_name = "w" if "w" in header else ("signal" if "signal" in header else None)
    if signal_name is None:
        raise ValueError(f"{path}:{header_index + 1}: missing signal column ('w' or 'signal')")
    time_col = header.index("time")
    signal_col = header.index(signal_name)
    b_col = header.index("b") if "b" in header else None

    columns = _columns(lines[header_index + 1:], len(header), time_col)
    if columns is not None:
        b = columns[b_col] if b_col is not None else np.zeros(columns.shape[1])
        return TransientTrace(columns[time_col], columns[signal_col], b, meta)

    times, w, b = [], [], []
    for index in range(header_index + 1, len(lines)):
        line = lines[index].strip()
        lineno = index + 1
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(
                f"{path}:{lineno}: expected {len(header)} columns, got {len(cells)}"
            )
        try:
            row = [float(cell) for cell in cells]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric value") from None
        if any(not math.isfinite(value) for value in row):
            raise ValueError(f"{path}:{lineno}: non-finite value")
        if times and row[time_col] <= times[-1]:
            raise ValueError(f"{path}:{lineno}: time values must be strictly increasing")
        times.append(row[time_col])
        w.append(row[signal_col])
        b.append(row[b_col] if b_col is not None else 0.0)

    if not times:
        raise ValueError(f"{path}: no data rows")
    return TransientTrace(
        times=np.array(times), w=np.array(w), b=np.array(b), meta=meta,
    )


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
