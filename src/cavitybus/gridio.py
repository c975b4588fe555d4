"""File formats: CSV spectrum grids and tables, JSON fit results.

Grid files are UTF-8 CSV with comment lines carrying provenance (tool
version, config hash, fixed sweep coordinates), a header line

    # sweep_kind=<angle|magnitude|none>, rows=<n>, cols=<m>

then one line of probe frequencies and one line per sweep value holding
the sweep value followed by the |S21| row.  Floats are written with 9
significant digits, so read(write(grid)) reproduces |S21| to 1e-8
relative, as float64.  All writes go through a temp file plus rename.
"""

from __future__ import annotations

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
from .transmission import SpectrumGrid

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


def _format_rows(table: np.ndarray, lead: np.ndarray | None = None) -> list:
    """One CSV line per row of the 2-D float array `table`, led by
    `lead[k]` when given.  Each line is a single %-format of the row's
    Python floats, byte-equal to joining `format_float` of every cell;
    rows are converted one at a time to keep the working set small."""
    fmt = ",".join(["%" + FLOAT_SPEC] * (table.shape[1] + (lead is not None)))
    if lead is None:
        return [fmt % tuple(row.tolist()) for row in table]
    return [fmt % (value, *row.tolist()) for value, row in zip(lead.tolist(), table)]


def grid_to_text(
    grid: SpectrumGrid, config_hash: str | None = None, extra: dict | None = None
) -> str:
    rows, cols = grid.amplitudes.shape
    lines = _provenance_lines(config_hash, extra)
    lines.append(f"# sweep_kind={grid.sweep_kind}, rows={rows}, cols={cols}")
    if cols:
        lines.extend(_format_rows(grid.probe_frequencies[np.newaxis]))
    lines.extend(_format_rows(grid.magnitudes, lead=grid.sweep_values))
    return "\n".join(lines) + "\n"


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
            start = handle.tell()
            table = _load_table(handle, (rows, cols + 1))
            if table is None:
                handle.seek(start)
                table = _parse_table(handle.read().splitlines(), rows, cols + 1, source)
    except OSError as exc:
        raise GridFormatError(f"cannot read grid {source}: {exc}") from exc

    # the amplitudes are a view of the table, the sweep values a contiguous copy
    return SpectrumGrid(probe, table[:, 0].copy(), table[:, 1:], header.group("kind")), meta


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
    lines.extend(_format_rows(np.column_stack(arrays)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_fit_json(path, result: FitResult, config_hash: str | None = None) -> None:
    """Serialize a FitResult; tool version and config hash ride along in
    the meta object (JSON carries no comments)."""
    payload = asdict(result)
    del payload["history"]
    payload["meta"] = {
        "tool": "cavitybus",
        "version": __version__,
        "config_hash": config_hash if config_hash else "none",
    }
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
