"""File formats: CSV spectrum grids and tables, JSON fit results.

Grid files are UTF-8 CSV with comment lines carrying provenance (tool
version, config hash, fixed sweep coordinates), a header line

    # sweep_kind=<angle|magnitude|none>, rows=<n>, cols=<m>

then one line of probe frequencies and one line per sweep value holding
the sweep value followed by the |S21| row.  Floats are written with 9
significant digits, so read(write(grid)) reproduces values to 1e-8
relative.  All writes go through a temp file plus rename.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
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


def _parse_comments(lines, source):
    meta = GridMeta()
    header = None
    body_start = None
    for idx, line in enumerate(lines):
        if not line.startswith("#"):
            body_start = idx
            break
        match = _HEADER_RE.match(line)
        if match:
            header = match
            body_start = idx + 1
            break
        content = line.lstrip("#").strip()
        if content.startswith("cavitybus "):
            meta.version = content.split(None, 1)[1]
        elif "=" in content:
            key, value = content.split("=", 1)
            if key.strip() == "config_hash":
                meta.config_hash = value.strip()
            else:
                meta.extra[key.strip()] = value.strip()
    if header is None:
        raise GridFormatError(f"{source}: missing '# sweep_kind=...' header line")
    return meta, header, body_start


def read_grid(path) -> tuple:
    """Read a grid file; returns (SpectrumGrid, GridMeta)."""
    source = os.fspath(path)
    try:
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise GridFormatError(f"cannot read grid {source}: {exc}") from exc

    meta, header, body_start = _parse_comments(lines, source)
    kind = header.group("kind")
    rows = int(header.group("rows"))
    cols = int(header.group("cols"))
    body = [ln for ln in lines[body_start:] if ln.strip()]

    if cols == 0:
        probe = np.array([])
        data_lines = body
    else:
        if not body:
            raise GridFormatError(f"{source}: missing probe-frequency line")
        probe = _parse_row(body[0], cols, source, "probe line")
        data_lines = body[1:]
    if len(data_lines) != rows:
        raise GridFormatError(
            f"{source}: expected {rows} data rows, found {len(data_lines)}"
        )
    sweep_values = np.empty(rows)
    amplitudes = np.empty((rows, cols))
    for k, line in enumerate(data_lines):
        cells = _parse_row(line, cols + 1, source, f"data row {k}")
        sweep_values[k] = cells[0]
        amplitudes[k] = cells[1:]
    grid = SpectrumGrid(probe, sweep_values, amplitudes.astype(complex), kind)
    return grid, meta


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
