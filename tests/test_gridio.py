import json
import math
import tracemalloc

import numpy as np
import pytest

from cavitybus import __version__, gridio
from cavitybus.config import FLOAT_SPEC, format_float
from cavitybus.dispersive import PumpProbeSignal
from cavitybus.errors import GridFormatError
from cavitybus.fitting import FitResult
from cavitybus.gridio import (
    grid_to_text,
    read_grid,
    write_fit_json,
    write_grid,
    write_signal,
    write_table,
)
from cavitybus.transmission import SpectrumGrid


def sample_grid():
    rng = np.random.default_rng(2)
    probe = np.linspace(2740.0, 2760.0, 11)
    sweep_values = np.array([20.0, 21.0, 22.0])
    amplitudes = rng.uniform(0.001, 1.0, size=(3, 11))
    return SpectrumGrid(probe, sweep_values, amplitudes, "angle")


def test_roundtrip_precision(tmp_path):
    grid = sample_grid()
    path = tmp_path / "grid.csv"
    write_grid(path, grid, config_hash="abc123", extra={"fixed_magnitude_mt": "7.5"})
    back, meta = read_grid(path)
    rel = np.abs(back.magnitudes - grid.magnitudes) / grid.magnitudes
    assert np.max(rel) < 1e-8
    np.testing.assert_allclose(back.probe_frequencies, grid.probe_frequencies, rtol=1e-8)
    np.testing.assert_allclose(back.sweep_values, grid.sweep_values, rtol=1e-8)
    assert back.sweep_kind == "angle"
    assert meta.version == __version__
    assert meta.config_hash == "abc123"
    assert meta.extra["fixed_magnitude_mt"] == "7.5"


def test_header_format(tmp_path):
    grid = sample_grid()
    text = grid_to_text(grid, "deadbeef")
    lines = text.splitlines()
    assert lines[0] == f"# cavitybus {__version__}"
    assert lines[1] == "# config_hash=deadbeef"
    assert lines[2] == "# sweep_kind=angle, rows=3, cols=11"
    assert len(lines) == 3 + 1 + 3


def test_empty_grid_roundtrip(tmp_path):
    grid = SpectrumGrid(np.array([]), np.array([]), np.zeros((0, 0)), "none")
    path = tmp_path / "empty.csv"
    write_grid(path, grid)
    back, meta = read_grid(path)
    assert back.amplitudes.shape == (0, 0)
    assert meta.config_hash == "none"


def test_read_grid_is_bit_identical_to_a_per_cell_float_parse(tmp_path):
    rng = np.random.default_rng(5)
    probe = np.linspace(2719.1, 2779.1, 301)
    sweep_values = np.linspace(0.0, 90.0, 41)
    amplitudes = rng.uniform(1e-4, 1.0, size=(41, 301)) ** 3
    path = tmp_path / "grid.csv"
    write_grid(path, SpectrumGrid(probe, sweep_values, amplitudes, "angle"))
    lines = path.read_text().splitlines()
    # blank and CRLF-terminated lines are skipped as before
    assert lines[2].startswith("# sweep_kind=")
    path.write_text("\n".join(lines[:4]) + "\n\n   \n" + "\r\n".join(lines[4:]) + "\r\n")
    table = [[float(cell) for cell in line.split(",")] for line in lines[3:]]
    back, _ = read_grid(path)
    assert np.array_equal(back.probe_frequencies, np.array(table[0]))
    assert np.array_equal(back.sweep_values, np.array([row[0] for row in table[1:]]))
    assert np.array_equal(back.magnitudes, np.array([row[1:] for row in table[1:]]))
    assert back.sweep_values.flags.c_contiguous


def test_read_grid_holds_float64_magnitudes(tmp_path):
    path = tmp_path / "grid.csv"
    write_grid(path, sample_grid())
    back, _ = read_grid(path)
    assert back.amplitudes.dtype == np.float64


def test_read_grid_peak_memory_stays_near_its_table(tmp_path):
    # the default sweep-angle grid: 901 sweep values x 1201 probes
    rows, cols = 901, 1201
    rng = np.random.default_rng(3)
    probe = np.linspace(2719.1, 2779.1, cols)
    sweep_values = np.linspace(0.0, 90.0, rows)
    path = tmp_path / "grid.csv"
    write_grid(path, SpectrumGrid(probe, sweep_values, rng.uniform(size=(rows, cols)), "angle"))
    table_bytes = rows * (cols + 1) * 8
    tracemalloc.start()
    try:
        back, _ = read_grid(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.amplitudes.shape == (rows, cols)
    assert peak <= 1.5 * table_bytes


@pytest.mark.parametrize(
    "body, message",
    [
        ("20,1,2\n21,1\n", "ragged data row 1: expected 3 fields, got 2"),
        ("20,1,2,3\n21,1,2,3\n", "ragged data row 0: expected 3 fields, got 4"),
        ("20,1,nan\n21,1\n", "non-finite value in data row 0"),
        ("20,1,1e400\n21,1,2\n", "non-finite value in data row 0"),
        ("20,1,2\n# note\n", "ragged data row 1: expected 3 fields, got 1"),
        ("20,1,2\n21,1,x\n", "non-numeric value in data row 1"),
        ("", "expected 2 data rows, found 0"),
        ("20,1,2\n21,1,2\n22,1,2\n", "expected 2 data rows, found 3"),
    ],
)
def test_first_bad_data_row_is_named(tmp_path, body, message):
    # numpy's parser rejects some of these bodies, warns on the empty one
    # and accepts the wide, 1e400 and extra-row ones; each must end in
    # the row-by-row parse's message for the first bad row.
    path = tmp_path / "grid.csv"
    path.write_text("# sweep_kind=angle, rows=2, cols=2\n2740,2741\n" + body)
    with pytest.raises(GridFormatError) as info:
        read_grid(path)
    assert str(info.value) == f"{path}: {message}"


def test_ragged_row_reports_index(tmp_path):
    grid = sample_grid()
    path = tmp_path / "grid.csv"
    write_grid(path, grid)
    lines = path.read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GridFormatError, match="data row 1"):
        read_grid(path)


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "bogus.csv"
    path.write_text("# cavitybus 0.0.0\n1,2,3\n")
    with pytest.raises(GridFormatError, match="sweep_kind"):
        read_grid(path)


def test_bytes_that_are_not_utf8_rejected(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_bytes(b"# sweep_kind=angle, rows=1, cols=2\n2740,2741\n20,\xff,1\n")
    with pytest.raises(GridFormatError, match="can't decode byte 0xff"):
        read_grid(path)


def test_nonnumeric_value_rejected(tmp_path):
    grid = sample_grid()
    path = tmp_path / "grid.csv"
    write_grid(path, grid)
    text = path.read_text().replace("21,", "oops,", 1)
    path.write_text(text)
    with pytest.raises(GridFormatError, match="non-numeric"):
        read_grid(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("line, label", [(3, "probe line"), (5, "data row 1")])
def test_non_finite_value_rejected(tmp_path, value, line, label):
    grid = sample_grid()
    path = tmp_path / "grid.csv"
    write_grid(path, grid)
    lines = path.read_text().splitlines()
    cells = lines[line].split(",")
    cells[4] = value
    lines[line] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GridFormatError, match=f"non-finite value in {label}"):
        read_grid(path)


def test_wrong_row_count_rejected(tmp_path):
    grid = sample_grid()
    path = tmp_path / "grid.csv"
    write_grid(path, grid)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(GridFormatError, match="expected 3 data rows"):
        read_grid(path)


def test_signal_writer(tmp_path):
    signal = PumpProbeSignal(np.array([2700.0, 2701.0]), np.array([-0.5, -0.25]))
    path = tmp_path / "signal.csv"
    write_signal(path, signal, config_hash="cafe")
    lines = path.read_text().splitlines()
    assert lines[1] == "# config_hash=cafe"
    assert lines[2] == "# columns=pump_mhz,shift_mhz"
    assert lines[3] == "2700,-0.5"


def test_table_writer(tmp_path):
    path = tmp_path / "table.csv"
    write_table(path, {"angle": [0.0, 1.0], "value": [2.5, 3.5]})
    lines = path.read_text().splitlines()
    assert lines[2] == "# columns=angle,value"
    assert lines[3] == "0,2.5"
    with pytest.raises(ValueError):
        write_table(path, {"a": [0.0, 1.0], "b": [1.0]})


def test_fit_json(tmp_path):
    result = FitResult(
        parameters={"g": 7.5},
        standard_errors={"g": 0.01},
        residual_norm=0.1,
        iterations=9,
        converged=True,
    )
    path = tmp_path / "fit.json"
    write_fit_json(path, result, config_hash="beef", provenance={"seed": 3})
    payload = json.loads(path.read_text())
    assert payload["parameters"]["g"] == 7.5
    assert payload["standard_errors"]["g"] == 0.01
    assert payload["converged"] is True
    assert payload["meta"]["version"] == __version__
    assert payload["meta"]["config_hash"] == "beef"
    assert payload["provenance"]["seed"] == 3


def test_write_is_deterministic(tmp_path):
    grid = sample_grid()
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_grid(a, grid, "x")
    write_grid(b, grid, "x")
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# batched writers against a per-value reference

AWKWARD = [
    -0.0, 5e-324, 1e-300, 123456789.125, 2.0**53 + 1, math.nan, math.inf, -math.inf,
]


def reference_text(header, rows):
    """Per-value `format_float` join: the writers' byte-level contract."""
    lines = [f"# cavitybus {__version__}", "# config_hash=none", header]
    lines.extend(",".join(format_float(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def random_doubles(n):
    # Arbitrary finite bit patterns: subnormals, huge and tiny exponents.
    bits = np.random.default_rng(7).integers(0, 2**63 - 1, size=n, dtype=np.int64)
    values = bits.view(np.float64)
    return values[np.isfinite(values)]


def parsed_cells(text):
    """Per-cell float() parse of a grid file's body lines."""
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return [np.array([float(c) for c in ln.split(",")]) for ln in body]


def awkward_grids(values=AWKWARD):
    # the signed values go through the probe and sweep columns, their
    # moduli through the |S21| cells
    values = np.array(values)
    square = np.abs([np.roll(values, k) for k in range(len(values))])
    return {
        "full": SpectrumGrid(values, values, square, "angle"),
        "no-columns": SpectrumGrid(np.array([]), values, np.zeros((values.size, 0)), "none"),
        "one-row": SpectrumGrid(values, values[:1], square[:1], "magnitude"),
    }


@pytest.mark.parametrize("name", ["full", "no-columns", "one-row"])
def test_grid_text_matches_per_value_reference(tmp_path, name):
    grid = awkward_grids()[name]
    rows, cols = grid.amplitudes.shape
    body = [grid.probe_frequencies] if cols else []
    body += [[s, *m] for s, m in zip(grid.sweep_values, grid.magnitudes)]
    expected = reference_text(
        f"# sweep_kind={grid.sweep_kind}, rows={rows}, cols={cols}", body
    )
    assert grid_to_text(grid) == expected

    path = tmp_path / "grid.csv"
    write_grid(path, grid)
    assert path.read_bytes() == expected.encode("utf-8")
    # NaN and infinite cells are written as they are but not read back.
    with pytest.raises(GridFormatError, match="non-finite value"):
        read_grid(path)

    grid = awkward_grids([v for v in AWKWARD if math.isfinite(v)])[name]
    rows, cols = grid.amplitudes.shape
    write_grid(path, grid)
    back, _ = read_grid(path)
    cells = parsed_cells(path.read_text())
    if cols:
        assert back.probe_frequencies.tobytes() == cells.pop(0).tobytes()
    table = np.array(cells).reshape(rows, cols + 1)
    assert back.sweep_values.tobytes() == table[:, 0].tobytes()
    assert back.amplitudes.real.copy().tobytes() == table[:, 1:].tobytes()
    assert not back.amplitudes.imag.any()


def test_table_and_signal_match_per_value_reference(tmp_path):
    first = np.concatenate([AWKWARD, random_doubles(200)])
    second = -first[::-1]
    columns = {"a": first, "b": second, "c": first * 0.5}

    path = tmp_path / "table.csv"
    write_table(path, columns)
    expected = reference_text("# columns=a,b,c", zip(*columns.values()))
    assert path.read_bytes() == expected.encode("utf-8")

    path = tmp_path / "signal.csv"
    write_signal(path, PumpProbeSignal(first, second))
    expected = reference_text("# columns=pump_mhz,shift_mhz", zip(first, second))
    assert path.read_bytes() == expected.encode("utf-8")


def mostly_slow_table(slow_share, width):
    """A table whose cells outside [1e-4, 1) are `slow_share` of all,
    with fast-range cells that round to ties and carries among them."""
    rng = np.random.default_rng(13)
    slow = np.concatenate([AWKWARD, random_doubles(400), rng.uniform(2000.0, 3800.0, 400)])
    fast = np.concatenate([
        [0.09999999995, 0.9999999995, 0.00999999995, 0.12345678950, 1e-4],
        10 ** rng.uniform(-4.0, -1e-9, 800),
    ])
    shape = (60, width)
    return np.where(rng.random(shape) < slow_share, rng.choice(slow, shape), rng.choice(fast, shape))


@pytest.mark.parametrize("slow_share", [1.0, 0.6])
@pytest.mark.parametrize("width", [1, 5, 300])
def test_mostly_slow_tables_match_per_value_reference(tmp_path, slow_share, width):
    # Tables of frequencies are %-formatted a row at a time; the bytes
    # are the per-value reference's.
    table = mostly_slow_table(slow_share, width)
    assert 2 * np.count_nonzero((table >= 1e-4) & (table < 1.0)) < table.size
    path = tmp_path / "table.csv"
    write_table(path, {f"c{k}": table[:, k] for k in range(width)})
    expected = reference_text("# columns=" + ",".join(f"c{k}" for k in range(width)), table)
    assert path.read_bytes().splitlines(True) == expected.encode("utf-8").splitlines(True)


# ---------------------------------------------------------------------------
# the vectorized fast path (1e-4 <= x < 1) against the per-value reference


def ulps_around(centres, n=3000):
    """n doubles on either side of each centre, one ulp apart."""
    bits = np.array(centres)[:, None].view(np.int64) + np.arange(-n, n + 1)
    return bits.view(np.float64).ravel()


FAST_PATH_VALUES = {
    "dense": 10 ** np.random.default_rng(11).uniform(-4.5, 0.1, size=60000),
    # rounding to 9 digits carries into the next decade, or leaves the range
    "carry-edges": ulps_around([0.09999999995, 0.9999999995, 1e-4, 0.00999999995, 1e-3]),
    # exact decimals; those in [0.1, 1) with odd k are ties at the 10th digit
    "decimals": np.arange(200000, 2000000000, 29989) * 5e-10,
    # long fallback strings between fast cells, wider than the 16-byte frame
    "mixed": np.tile(
        [0.5, -1.23456789e-100, 0.000123456789, 1.0, 0.25, -0.0, math.nan, 0.1, 1e-5, 5e-324],
        30,
    ),
}


@pytest.mark.parametrize("name", sorted(FAST_PATH_VALUES))
@pytest.mark.parametrize("width", [1, 7, 300])
def test_fast_path_matches_per_value_reference(tmp_path, name, width):
    values = FAST_PATH_VALUES[name]
    values = values[: values.size // width * width].reshape(-1, width)
    rows = values.shape[0]
    # a grid holds |S21|, so the signed cells go through the sweep column
    grid = SpectrumGrid(np.arange(1.0, width + 1.0), values[:, 0], np.abs(values), "angle")
    expected = reference_text(
        f"# sweep_kind=angle, rows={rows}, cols={width}",
        [grid.probe_frequencies, *([s, *m] for s, m in zip(values[:, 0], grid.amplitudes))],
    )
    # compared as lists of lines, so that a failure names its first line quickly
    assert grid_to_text(grid).splitlines(True) == expected.splitlines(True)

    path = tmp_path / "table.csv"
    write_table(path, {f"c{k}": values[:, k] for k in range(width)})
    expected = reference_text("# columns=" + ",".join(f"c{k}" for k in range(width)), values)
    assert path.read_bytes().splitlines(True) == expected.encode("utf-8").splitlines(True)


def test_fast_path_implements_the_float_spec():
    # The frame holds at most 9 digits: three 4-digit groups whose
    # three pad zeros double as the decimal zeros of x < 1e-3.
    assert FLOAT_SPEC == ".9g"


def test_write_grid_peak_memory_stays_near_two_texts(tmp_path):
    # the default sweep-angle grid of float64 |S21|, as `sweep` makes it
    rows, cols = 901, 1201
    amplitudes = np.random.default_rng(4).uniform(size=(rows, cols))
    grid = SpectrumGrid(
        np.linspace(2719.1, 2779.1, cols), np.linspace(0.0, 90.0, rows), amplitudes, "angle"
    )
    path = tmp_path / "grid.csv"
    tracemalloc.start()
    try:
        write_grid(path, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the joined text and its encoded bytes while writing
    assert peak <= 2.25 * path.stat().st_size


def test_write_grid_formats_then_writes_one_str(tmp_path, monkeypatch):
    # perfbench's tracer times these two calls by name as the format and
    # write spans, and takes len() of the text.
    calls = []

    def spy(name, function):
        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            calls.append((name, args, result))
            return result

        monkeypatch.setattr(gridio, name, wrapper)

    spy("grid_to_text", gridio.grid_to_text)
    spy("atomic_write_text", gridio.atomic_write_text)
    path = tmp_path / "grid.csv"
    write_grid(path, sample_grid(), "abc")
    (format_name, _, text), (write_name, write_args, _) = calls
    assert (format_name, write_name) == ("grid_to_text", "atomic_write_text")
    assert type(text) is str
    assert write_args == (path, text)
    assert path.read_text() == text
