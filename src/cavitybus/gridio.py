"""File formats: CSV spectrum grids and tables, JSON fit results and reports.

Grid files are UTF-8 CSV with comment lines carrying provenance (tool
version, config hash, fixed sweep coordinates), a header line

    # sweep_kind=<angle|magnitude|none>, rows=<n>, cols=<m>

then one line of probe frequencies and one line per sweep value holding
the sweep value followed by the |S21| row.  Floats are written with 9
significant digits, so read(write(grid)) reproduces |S21| to 1e-8
relative, as float64.  A table file has the same comment lines, a
`# columns=<names>` header and one line per row.  All writes go
through a temp file in the target directory plus rename, and the file
gets the mode that `open` would give a new one.  A grid or table is
streamed into its temp file one formatted block of rows at a time, so
no file-sized text or array is ever held.
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
import itertools
import json
import os
import re
import tempfile
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .config import FLOAT_SPEC
from .errors import GridFormatError, ValidationError
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


def _write_atomic(path, chunks) -> None:
    """Write the byte strings of the iterable `chunks` via a temporary
    file in the target directory plus rename, so readers never observe a
    partial file; if `chunks` raises, the target keeps its old bytes.
    The file gets mode 0o666 less the umask, as `open` gives a new file.
    A path that cannot be written raises ValidationError."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    umask = os.umask(0)  # reading the umask means setting it
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cavitybus-", suffix=".tmp")
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):  # gone once renamed
            os.unlink(tmp)


def atomic_write_text(path, text: str) -> None:
    """Write `text` as UTF-8 through `_write_atomic`."""
    _write_atomic(path, [text.encode("utf-8")])


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
_FORMAT = b"%" + FLOAT_SPEC.encode("ascii")
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


def _format_rows(table: np.ndarray) -> bytes:
    """The ASCII CSV lines of the 2-D float array `table`, each led by a
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
        row_format = b"\n" + b",".join([_FORMAT] * width)
        return b"".join(row_format % tuple(row) for row in table.tolist())
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
    text = frame[np.take(masks, code, axis=0)].tobytes()

    slow = np.flatnonzero(~fast)
    cuts = [0, *np.cumsum(lengths[code])[slow].tolist(), len(text)]
    pieces = [b""] * (2 * slow.size + 1)
    pieces[::2] = [text[a:b] for a, b in zip(cuts, cuts[1:])]
    pieces[1::2] = map(_FORMAT.__mod__, x[slow].tolist())
    return b"".join(pieces)


def _csv_chunks(header: str, blocks, config_hash: str | None, extra: dict | None):
    """The bytes of a grid or table file, one piece at a time: the
    provenance comments and the `header` comment, the CSV lines of each
    2-D block of `blocks` and a final newline."""
    lines = [f"# cavitybus {__version__}", f"# config_hash={config_hash or 'none'}"]
    lines.extend(f"# {key}={extra[key]}" for key in sorted(extra or {}))
    lines.append(header)
    yield "\n".join(lines).encode("utf-8")
    yield from map(_format_rows, blocks)
    yield b"\n"


def _grid_layout(grid: SpectrumGrid) -> tuple:
    """The header comment and the 2-D blocks of a grid file: the probe
    line, then the rows a block at a time, each led by its sweep value."""
    rows, cols = grid.amplitudes.shape
    probe = [grid.probe_frequencies[np.newaxis]] if cols else []
    cells = (
        np.column_stack((grid.sweep_values[block], grid.amplitudes[block]))
        for block in _row_blocks(rows, cols + 1)
    )
    header = f"# sweep_kind={grid.sweep_kind}, rows={rows}, cols={cols}"
    return header, itertools.chain(probe, cells)


def grid_to_text(
    grid: SpectrumGrid, config_hash: str | None = None, extra: dict | None = None
) -> str:
    """The text that `write_grid` writes."""
    return b"".join(_csv_chunks(*_grid_layout(grid), config_hash, extra)).decode("utf-8")


def write_grid(
    path,
    grid: SpectrumGrid,
    config_hash: str | None = None,
    extra: dict | None = None,
) -> None:
    """Stream the grid file into place, one block of rows at a time."""
    _write_atomic(path, _csv_chunks(*_grid_layout(grid), config_hash, extra))


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
    path, pump, shift, config_hash: str | None = None, extra: dict | None = None
) -> None:
    """Two-column CSV of a pump-probe cavity-shift trace."""
    write_table(path, {"pump_mhz": pump, "shift_mhz": shift}, config_hash, extra)


def write_table(
    path,
    columns: dict,
    config_hash: str | None = None,
    extra: dict | None = None,
) -> None:
    """CSV table from named equal-length columns (insertion order)."""
    arrays = [np.asarray(column, dtype=float) for column in columns.values()]
    length = arrays[0].size
    if any(a.size != length for a in arrays):
        raise ValueError("all columns must have equal length")
    blocks = (
        np.column_stack([a[rows] for a in arrays]) for rows in _row_blocks(length, len(arrays))
    )
    _write_atomic(path, _csv_chunks("# columns=" + ",".join(columns), blocks, config_hash, extra))


def json_document(payload: dict, config_hash: str | None = None) -> str:
    """JSON text of `payload` plus `meta`: indent 2, sorted keys, final newline."""
    meta = {"tool": "cavitybus", "version": __version__, "config_hash": config_hash or "none"}
    return json.dumps({**payload, "meta": meta}, indent=2, sort_keys=True) + "\n"


def write_fit_json(
    path, result, config_hash: str | None = None, provenance: dict | None = None
) -> None:
    """Serialize a `fitting.FitResult` without its history; `provenance`
    (run metadata such as the input file) is written alongside it."""
    payload = asdict(result)
    del payload["history"]
    payload["provenance"] = provenance or {}
    atomic_write_text(path, json_document(payload, config_hash))
