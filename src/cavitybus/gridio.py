"""File formats: CSV spectrum grids and tables, JSON fit results and reports.

Grid files are UTF-8 CSV with comment lines carrying provenance (tool
version, config hash, fixed sweep coordinates), a header line

    # sweep_kind=<angle|magnitude|none>, rows=<n>, cols=<m>

then one line of probe frequencies and one line per sweep value holding
the sweep value followed by the |S21| row.  Floats are written with 9
significant digits, so read(write(grid)) reproduces |S21| to 1e-8
relative, as float64.  All writes go through a temp file plus rename.
A JSON document (a fit result, the mode report) comes from `json_document`,
whose `meta` object carries the version and config hash.

The writers format a block of rows at a time.  Cells in [1e-4, 1),
nearly every |S21| cell, are converted together by numpy arithmetic;
every other cell, and the rare one whose rounding is a tie or carries
into the next decade, by Python's %-format.  A block whose cells are
mostly outside that range takes one %-format per row.  Either way the
bytes are those of `config.format_float`.
"""

from __future__ import annotations

import functools
import json
import os
import re
import tempfile
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .config import FLOAT_SPEC
from .dispersive import PumpProbeSignal
from .errors import GridFormatError
from .fitting import FitResult
from .transmission import SpectrumGrid, _row_blocks

__all__ = [
    "GridMeta",
    "write_grid",
    "read_grid",
    "write_signal",
    "write_table",
    "write_fit_json",
    "atomic_write_text",
]

_HEADER_RE = re.compile(
    r"#\s*sweep_kind=(?P<kind>\w+),\s*rows=(?P<rows>\d+),\s*cols=(?P<cols>\d+)\s*$"
)


@dataclass
class GridMeta:
    """Provenance carried in a grid file's comment lines."""

    version: str | None = None
    config_hash: str | None = None
    extra: dict = field(default_factory=dict)


def atomic_write_text(path, text: str) -> None:
    """Write text via a temporary file in the target directory plus
    rename, so readers never observe a partial file."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cavitybus-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _provenance_lines(config_hash: str | None, extra: dict | None) -> list:
    lines = [f"# cavitybus {__version__}"]
    lines.append(f"# config_hash={config_hash if config_hash else 'none'}")
    for key in sorted(extra or {}):
        lines.append(f"# {key}={extra[key]}")
    return lines


# The vectorized writer.  A cell x in [1e-4, 1) with e = floor(log10 x)
# is written "0." + (-e-1) zeros + the digits of D = round(Y),
# Y = x * 10**(_DIGITS-1-e), with trailing zeros stripped.  The power of
# ten is exact, so y = fl(Y) carries one rounding (below 2**-24, as
# y < 2**30) and rint(y) = D unless y lies within 1e-6 of a tie; those
# cells, and those where D = 10**_DIGITS (a carry into the next decade),
# are slow cells, as is every cell outside the range.  The decade comes
# from comparisons with 1e-3, 1e-2 and 1e-1, each of which as a double
# lies just above its power of ten.  A cell fills a 16-byte frame of
# four native words: (unused, separator, "0."), then D right-aligned in
# three 4-digit groups, whose leading pad zeros double as the decimal
# zeros (so _DIGITS <= 9).  A boolean mask per (decade, digits kept)
# picks the bytes to keep, only the separator for a slow cell, whose
# %-format is then spliced in after it.
_FORMAT = "%" + FLOAT_SPEC
_DIGITS = int(FLOAT_SPEC.strip(".g"))


@functools.cache
def _frame_tables() -> tuple:
    """(scales, quads, trailing, masks, lengths, lead) for the vectorized
    writer, built on the first write, so that a process that writes no
    file pays nothing for them at import:
    - scales[decade] = 10**(_DIGITS+3-decade), exact, for the cells in
      [10**(decade-4), 10**(decade-3));
    - quads[n], the ASCII digits of 0 <= n < 10000 as one native word,
      and trailing[n], the trailing zeros of those four digits;
    - masks[decade * (_DIGITS+1) + kept], the frame bytes of a cell in
      that decade with `kept` significant digits, masks[0] the separator
      of a slow cell, and lengths their byte counts;
    - lead, the first word of a frame: (unused, ",", "0.")."""
    scales = (10 ** np.arange(_DIGITS + 3, _DIGITS - 1, -1)).astype(float)
    groups = np.arange(10000)[:, None]
    digits = groups // [1000, 100, 10, 1] % 10 + ord("0")
    quads = digits.astype(np.uint8).view(np.uint32).ravel()
    trailing = (groups % [10, 100, 1000, 10000] == 0).sum(axis=1)
    decade = np.arange(4)[:, None, None]
    kept = np.arange(_DIGITS + 1)[None, :, None]
    slot = np.arange(16)
    first = 16 - _DIGITS  # slot of the leading digit
    masks = (slot >= 1) & (slot < 4) | (slot >= first - 3 + decade) & (slot < first + kept)
    masks = (masks & (kept > 0)).reshape(-1, 16)
    masks[0] = slot == 1
    lead = np.frombuffer(b"\0,0.", np.uint32)[0]
    return scales, quads, trailing, masks, masks.sum(axis=1), lead


def _format_rows(table: np.ndarray) -> str:
    """The CSV lines of the 2-D float array `table`, each led by a
    newline and byte-equal to joining `format_float` of every cell.
    Cells in [1e-4, 1) are formatted together with numpy (see above);
    the rest are %-formatted one by one and spliced in.  A table whose
    cells mostly lie outside that range, such as a frequency table,
    takes one %-format per row instead, which is faster there."""
    scales, quads, trailing, masks, lengths, lead = _frame_tables()
    width = table.shape[1]
    x = table.ravel()
    fast = (x >= 1e-4) & (x < 1.0)
    if 2 * np.count_nonzero(fast) < x.size:
        row_format = "\n" + ",".join([_FORMAT] * width)
        return "".join(row_format % tuple(row) for row in table.tolist())
    x_fast = np.where(fast, x, 0.5)
    decade = (x_fast >= 1e-3).astype(np.intp) + (x_fast >= 1e-2) + (x_fast >= 1e-1)
    y = x_fast * scales[decade]
    rounded = np.rint(y)
    fast &= (np.abs(y - rounded) < 0.5 - 1e-6) & (rounded < 10.0**_DIGITS)
    digits = rounded.astype(np.int32)
    low = digits % 10000
    mid = digits // 10000 % 10000
    kept = _DIGITS - trailing[low] - (low == 0) * trailing[mid]
    code = np.where(fast, decade * (_DIGITS + 1) + kept, 0)

    frame = np.empty((x.size, 4), np.uint32)
    frame[:, 0] = lead
    frame[:, 1] = quads[digits // 100000000]
    frame[:, 2] = quads[mid]
    frame[:, 3] = quads[low]
    frame = frame.view(np.uint8)
    frame[::width, 1] = ord("\n")
    text = frame[np.take(masks, code, axis=0)].tobytes().decode("ascii")

    slow = np.flatnonzero(~fast)
    cuts = [0, *np.cumsum(lengths[code])[slow].tolist(), len(text)]
    pieces = [""] * (2 * slow.size + 1)
    pieces[::2] = [text[a:b] for a, b in zip(cuts, cuts[1:])]
    pieces[1::2] = map(_FORMAT.__mod__, x[slow].tolist())
    return "".join(pieces)


def grid_to_text(
    grid: SpectrumGrid, config_hash: str | None = None, extra: dict | None = None
) -> str:
    rows, cols = grid.amplitudes.shape
    lines = _provenance_lines(config_hash, extra)
    lines.append(f"# sweep_kind={grid.sweep_kind}, rows={rows}, cols={cols}")
    parts = ["\n".join(lines)]
    if cols:
        parts.append(_format_rows(grid.probe_frequencies[np.newaxis]))
    for block in _row_blocks(rows, cols + 1):
        cells = np.column_stack((grid.sweep_values[block], grid.amplitudes[block]))
        parts.append(_format_rows(cells))
    parts.append("\n")
    return "".join(parts)


def write_grid(
    path,
    grid: SpectrumGrid,
    config_hash: str | None = None,
    extra: dict | None = None,
) -> None:
    atomic_write_text(path, grid_to_text(grid, config_hash, extra))


def _parse_comments(handle, source):
    """GridMeta and the header match from the comment lines that lead
    the open grid file, which is left just past the header line."""
    meta = GridMeta()
    for line in iter(handle.readline, ""):
        line = line.rstrip("\n")
        if not line.startswith("#"):
            break
        match = _HEADER_RE.match(line)
        if match:
            return meta, match
        content = line.lstrip("#").strip()
        if content.startswith("cavitybus "):
            meta.version = content.split(None, 1)[1]
        elif "=" in content:
            key, value = content.split("=", 1)
            if key.strip() == "config_hash":
                meta.config_hash = value.strip()
            else:
                meta.extra[key.strip()] = value.strip()
    raise GridFormatError(f"{source}: missing '# sweep_kind=...' header line")


def read_grid(path) -> tuple:
    """Read a grid file; returns (SpectrumGrid of float64 |S21|, GridMeta).

    The data rows go through numpy's text parser, which rounds each
    cell exactly as float() does.  A body that it rejects or that fails
    a check is parsed again row by row, so every error names its row.
    """
    source = os.fspath(path)
    try:
        with open(source, "r", encoding="utf-8") as handle:
            meta, header = _parse_comments(handle, source)
            rows = int(header.group("rows"))
            cols = int(header.group("cols"))
            if cols == 0:
                probe = np.array([])
            else:
                line = next((ln for ln in iter(handle.readline, "") if ln.strip()), None)
                if line is None:
                    raise GridFormatError(f"{source}: missing probe-frequency line")
                probe = _parse_row(line.rstrip("\n"), cols, source, "probe line")
                if np.any(np.diff(probe) <= 0):
                    raise GridFormatError(f"{source}: probe frequencies are not strictly increasing")
            start = handle.tell()
            table = _load_table(handle, (rows, cols + 1))
            if table is None:
                handle.seek(start)
                table = _parse_table(handle.read().splitlines(), rows, cols + 1, source)
        # the amplitudes are a view of the table, the sweep values a contiguous copy
        return SpectrumGrid(probe, table[:, 0].copy(), table[:, 1:], header.group("kind")), meta
    except OSError as exc:
        raise GridFormatError(f"cannot read grid {source}: {exc}") from exc
    except ValueError as exc:  # a byte that is not UTF-8, or an unknown sweep kind
        raise GridFormatError(f"{source}: {exc}") from exc


def _load_table(handle, shape):
    """The rest of the file as a float array of the given shape, or None
    when numpy's parser rejects it or a cell is not finite."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty body warns
            table = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2)
    except (ValueError, UserWarning):
        return None
    if table.shape != shape or not np.isfinite(table).all():
        return None
    return table


def _parse_table(lines, rows, width, source):
    """Row-by-row parse of the non-blank data lines, raising
    GridFormatError at the first row that is wrong."""
    data_lines = [ln for ln in lines if ln.strip()]
    if len(data_lines) != rows:
        raise GridFormatError(
            f"{source}: expected {rows} data rows, found {len(data_lines)}"
        )
    table = np.empty((rows, width))
    for k, line in enumerate(data_lines):
        table[k] = _parse_row(line, width, source, f"data row {k}")
    return table


def _parse_row(line, expected, source, label):
    cells = line.split(",")
    if len(cells) != expected:
        raise GridFormatError(
            f"{source}: ragged {label}: expected {expected} fields, got {len(cells)}"
        )
    try:
        row = np.array(cells, dtype=float)
    except ValueError as exc:
        raise GridFormatError(f"{source}: non-numeric value in {label}") from exc
    if not np.isfinite(row).all():
        raise GridFormatError(f"{source}: non-finite value in {label}")
    return row


def write_signal(
    path, signal: PumpProbeSignal, config_hash: str | None = None, extra: dict | None = None
) -> None:
    """Two-column CSV of a pump-probe cavity-shift trace."""
    columns = {"pump_mhz": signal.pump_frequencies, "shift_mhz": signal.shift}
    write_table(path, columns, config_hash, extra)


def write_table(
    path,
    columns: dict,
    config_hash: str | None = None,
    extra: dict | None = None,
) -> None:
    """CSV table from named equal-length columns (insertion order)."""
    names = list(columns)
    arrays = [np.asarray(columns[name], dtype=float) for name in names]
    length = arrays[0].size
    if any(a.size != length for a in arrays):
        raise ValueError("all columns must have equal length")
    lines = _provenance_lines(config_hash, extra)
    lines.append("# columns=" + ",".join(names))
    table = np.column_stack(arrays)
    parts = ["\n".join(lines)]
    parts.extend(_format_rows(table[block]) for block in _row_blocks(*table.shape))
    parts.append("\n")
    atomic_write_text(path, "".join(parts))


def json_document(payload: dict, config_hash: str | None = None) -> str:
    """JSON text of `payload` plus `meta`: indent 2, sorted keys, final newline."""
    meta = {"tool": "cavitybus", "version": __version__, "config_hash": config_hash or "none"}
    return json.dumps({**payload, "meta": meta}, indent=2, sort_keys=True) + "\n"


def write_fit_json(
    path, result: FitResult, config_hash: str | None = None, provenance: dict | None = None
) -> None:
    """Serialize a FitResult without its history; `provenance` (run
    metadata such as the input file) is written alongside it."""
    payload = asdict(result)
    del payload["history"]
    payload["provenance"] = provenance or {}
    atomic_write_text(path, json_document(payload, config_hash))
