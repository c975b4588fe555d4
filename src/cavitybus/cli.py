"""Command-line front end.

Subcommands: transitions, spectrum, sweep-angle, sweep-field,
dispersive, fit, calibrate, selftest.  Exit codes: 0 success, 2
validation error, 3 numerical failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys

import numpy as np

from . import __version__
from .calibrate import calibrate_geometry
from .config import (
    ExperimentConfig,
    default_config,
    format_float,
    load_config,
    range_values,
)
from .dispersive import build_dispersive_model, dispersive_spin_modes, drive_weights, pump_probe_signal
from .errors import NumericalError, ValidationError
from .fitting import SpinTuning, fit_avoided_crossing, fit_full_transmission, fit_lorentzian
from .gridio import atomic_write_text, read_grid, write_fit_json, write_grid, write_signal, write_table
from .spin import FieldSetting, _solve
from .transmission import sweep
from . import acceptance

__all__ = ["main"]

log = logging.getLogger("cavitybus.cli")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cavitybus", description=__doc__)
    parser.add_argument("--version", action="version", version=f"cavitybus {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="experiment config file (built-in defaults when omitted)")
        return p

    p = add("transitions", "spin transition tables versus field angle or magnitude")
    p.add_argument("--angles", help="angle range start:stop:step (deg)")
    p.add_argument("--b-mag", type=float, help="field magnitude (mT) for angle sweeps")
    p.add_argument("--b-mags", help="magnitude range start:stop:step (mT)")
    p.add_argument("--angle", type=float, help="field angle (deg) for magnitude sweeps")
    p.add_argument("--out", required=True)

    p = add("spectrum", "single transmission row at a fixed field")
    p.add_argument("--angle", type=float, required=True)
    p.add_argument("--b-mag", type=float)
    p.add_argument("--probe", help="probe range start:stop:step (MHz)")
    p.add_argument("--out", required=True)

    p = add("sweep-angle", "transmission grid versus field angle")
    p.add_argument("--angles", help="angle range start:stop:step (deg)")
    p.add_argument("--b-mag", type=float)
    p.add_argument("--probe", help="probe range start:stop:step (MHz)")
    p.add_argument("--out", required=True)

    p = add("sweep-field", "transmission grid versus field magnitude")
    p.add_argument("--angle", type=float, required=True)
    p.add_argument("--b-mags", help="magnitude range start:stop:step (mT)")
    p.add_argument("--probe", help="probe range start:stop:step (MHz)")
    p.add_argument("--out", required=True)

    p = add("dispersive", "pump-probe cavity-shift signal and mode report")
    p.add_argument("--angle", type=float, required=True)
    p.add_argument("--b-mag", type=float, help="override the dispersive field magnitude")
    p.add_argument("--pump", help="pump range start:stop:step (MHz)")
    p.add_argument("--width", type=float, help="response HWHM override (MHz)")
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="write the mode report as JSON here")

    p = add("fit", "parameter extraction from a grid file")
    p.add_argument("mode", choices=("lorentzian", "avoided-crossing", "full"))
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--row", type=int, default=0, help="row index for lorentzian fits")
    p.add_argument("--ensemble", choices=("i", "ii"), default="i",
                   help="spin tuning curve for avoided-crossing fits")
    p.add_argument("--force", action="store_true",
                   help="accept grids written by a different tool version")

    p = add("calibrate", "derive field magnitude and azimuths from the resonance angles")
    p.add_argument("--out", required=True, help="write the updated config here")
    p.add_argument("--scan-step", type=float, default=0.25)

    add("selftest", "run the acceptance criteria")

    return parser


def _load(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    log.info("no --config given; using built-in defaults")
    return default_config()


def _range_from(args_value, config, key):
    text = args_value if args_value else config.get(key)
    return range_values(text, key=key)


def _cmd_transitions(args, config) -> int:
    if args.b_mags is not None or args.angle is not None:
        if args.angle is None:
            raise ValidationError("--b-mags sweeps need --angle")
        values = _range_from(args.b_mags, config, "sweep.magnitudes_mt")
        mags, angles = values, np.full_like(values, args.angle)
        kind = "magnitude"
        extra = {"fixed_angle_deg": format_float(args.angle)}
    else:
        values = _range_from(args.angles, config, "sweep.angles_deg")
        magnitude = args.b_mag if args.b_mag is not None else config.get("field.magnitude_mt")
        mags, angles = np.full_like(values, magnitude), values
        kind = "angle"
        extra = {"fixed_magnitude_mt": format_float(magnitude)}

    columns = {kind: values}
    for which in ("i", "ii"):
        levels = _solve(config.nv(which), config.orientation(which), mags, angles)
        columns[f"{which}_minus_mhz"] = levels[:, 1]
        columns[f"{which}_plus_mhz"] = levels[:, 2]
    write_table(args.out, columns, config.hash, extra)
    log.info("wrote %s (%d rows)", args.out, values.size)
    return EXIT_OK


def _fields(kind, values, fixed):
    if kind == "angle":
        return [FieldSetting(fixed, a) for a in values]
    return [FieldSetting(m, fixed) for m in values]


def _cmd_spectrum(args, config) -> int:
    probe = _range_from(args.probe, config, "sweep.probe_mhz")
    magnitude = args.b_mag if args.b_mag is not None else config.get("field.magnitude_mt")
    ensembles = [config.ensemble("i"), config.ensemble("ii")]
    grid = sweep(config.cavity(), ensembles, [FieldSetting(magnitude, args.angle)], probe, "none")
    write_grid(args.out, grid, config.hash, {
        "fixed_angle_deg": format_float(args.angle),
        "fixed_magnitude_mt": format_float(magnitude),
    })
    return EXIT_OK


def _cmd_sweep(args, config, kind) -> int:
    probe = _range_from(args.probe, config, "sweep.probe_mhz")
    ensembles = [config.ensemble("i"), config.ensemble("ii")]
    if kind == "angle":
        values = _range_from(args.angles, config, "sweep.angles_deg")
        fixed = args.b_mag if args.b_mag is not None else config.get("field.magnitude_mt")
        extra = {"fixed_magnitude_mt": format_float(fixed)}
    else:
        values = _range_from(args.b_mags, config, "sweep.magnitudes_mt")
        fixed = args.angle
        extra = {"fixed_angle_deg": format_float(fixed)}
    grid = sweep(config.cavity(), ensembles, _fields(kind, values, fixed), probe, kind)
    write_grid(args.out, grid, config.hash, extra)
    log.info("wrote %s (%d x %d)", args.out, values.size, probe.size)
    return EXIT_OK


def _cmd_dispersive(args, config) -> int:
    cavity = config.cavity()
    ens_i = config.ensemble("i")
    ens_ii = config.ensemble("ii")
    magnitude = args.b_mag if args.b_mag is not None else config.get("field.dispersive_magnitude_mt")
    field = FieldSetting(magnitude, args.angle)
    floor = config.get("dispersive.floor_mhz")
    enforce = config.get("dispersive.enforce_floor")

    model = build_dispersive_model(cavity, ens_i, ens_ii, field, floor, enforce)
    bright, dark = dispersive_spin_modes(model)
    if args.pump:
        pump = range_values(args.pump, key="--pump")
    else:
        lo = min(bright[0], dark[0]) - 40.0
        hi = max(bright[0], dark[0]) + 40.0
        pump = np.arange(lo, hi + 1e-9, 0.02)
    signal = pump_probe_signal(
        cavity, ens_i, ens_ii, field, pump, width=args.width, floor=floor, enforce=enforce
    )
    write_signal(args.out, signal, config.hash, {
        "fixed_angle_deg": format_float(args.angle),
        "fixed_magnitude_mt": format_float(magnitude),
    })

    report = {
        "angle_deg": args.angle,
        "magnitude_mt": magnitude,
        "chi_i_mhz": model.chi_i,
        "chi_ii_mhz": model.chi_ii,
        "detuning_i_mhz": model.detuning_i,
        "detuning_ii_mhz": model.detuning_ii,
        "u_coupling_mhz": model.u_coupling,
        "bright": {
            "frequency_mhz": bright[0],
            "vector": [float(x) for x in bright[1]],
            "drive_weight": drive_weights(model.g_i, model.g_ii, model.antinode_signs, bright[1]),
        },
        "dark": {
            "frequency_mhz": dark[0],
            "vector": [float(x) for x in dark[1]],
            "drive_weight": drive_weights(model.g_i, model.g_ii, model.antinode_signs, dark[1]),
        },
        "meta": {"tool": "cavitybus", "version": __version__, "config_hash": config.hash},
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.report:
        atomic_write_text(args.report, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _fixed_coordinate(grid, meta) -> float:
    if grid.sweep_kind == "angle":
        key = "fixed_magnitude_mt"
    elif grid.sweep_kind == "magnitude":
        key = "fixed_angle_deg"
    else:
        raise ValidationError(f"cannot fit a grid with sweep_kind={grid.sweep_kind!r}")
    fixed = meta.extra.get(key)
    if fixed is None:
        raise ValidationError(
            f"grid lacks a {key} comment; cannot build the spin tuning curve"
        )
    return float(fixed)


def _spin_tuning_from_meta(args, config, grid, meta) -> SpinTuning:
    ensemble = config.ensemble(args.ensemble)
    return SpinTuning.from_ensemble(ensemble, grid.sweep_kind, _fixed_coordinate(grid, meta))


def _cmd_fit(args, config) -> int:
    grid, meta = read_grid(args.infile)
    if meta.version != __version__ and not args.force:
        raise ValidationError(
            f"grid {args.infile} was written by cavitybus "
            f"{meta.version or '<unknown>'}, this is {__version__}; "
            f"pass --force to fit it anyway"
        )
    prominence = config.get("fit.peak_prominence")
    max_iter = config.get("fit.max_iterations")

    if args.mode == "lorentzian":
        if not 0 <= args.row < grid.sweep_values.size:
            raise ValidationError(f"row {args.row} outside grid with {grid.sweep_values.size} rows")
        power = grid.magnitudes[args.row] ** 2
        result = fit_lorentzian(grid.probe_frequencies, power, max_iter=max_iter)
    elif args.mode == "avoided-crossing":
        tuning = _spin_tuning_from_meta(args, config, grid, meta)
        result = fit_avoided_crossing(grid, tuning, prominence=prominence, max_iter=max_iter)
    else:
        fixed = _fixed_coordinate(grid, meta)
        tun_i = SpinTuning.from_ensemble(config.ensemble("i"), grid.sweep_kind, fixed)
        tun_ii = SpinTuning.from_ensemble(config.ensemble("ii"), grid.sweep_kind, fixed)
        result = fit_full_transmission(grid, tun_i, tun_ii, max_iter=max_iter)

    result = dataclasses.replace(result, provenance={"input": str(args.infile), "mode": args.mode})
    write_fit_json(args.out, result, config.hash)
    if not result.converged:
        log.warning("fit did not converge after %d iterations", result.iterations)
        return EXIT_NUMERICAL
    log.info("wrote %s", args.out)
    return EXIT_OK


def _cmd_calibrate(args, config) -> int:
    result = calibrate_geometry(config, scan_step=args.scan_step)
    updated = config.with_updates(result.config_updates())
    atomic_write_text(args.out, updated.dump())
    sys.stdout.write(
        "calibration: azimuth_i=%s deg, azimuth_ii=%s deg, "
        "magnitude=%s mT, dispersive_magnitude=%s mT\n"
        % (
            format_float(result.azimuth_i),
            format_float(result.azimuth_ii),
            format_float(result.magnitude),
            format_float(result.dispersive_magnitude),
        )
    )
    sys.stdout.write(
        "degeneracy: angle=%s deg at transition=%s MHz\n"
        % (
            format_float(result.degeneracy_angle),
            format_float(result.degeneracy_transition),
        )
    )
    return EXIT_OK


def _cmd_selftest(args, config) -> int:
    results = acceptance.run_all(config)
    for result in results:
        sys.stdout.write(result.line() + "\n")
    failed = [r for r in results if not r.passed]
    sys.stdout.write(
        f"{len(results) - len(failed)}/{len(results)} criteria passed\n"
    )
    return EXIT_OK if not failed else EXIT_NUMERICAL


def run(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if args.command is None:
        raise UsageError("missing subcommand")
    config = _load(args)
    if args.command == "transitions":
        return _cmd_transitions(args, config)
    if args.command == "spectrum":
        return _cmd_spectrum(args, config)
    if args.command == "sweep-angle":
        return _cmd_sweep(args, config, "angle")
    if args.command == "sweep-field":
        return _cmd_sweep(args, config, "magnitude")
    if args.command == "dispersive":
        return _cmd_dispersive(args, config)
    if args.command == "fit":
        return _cmd_fit(args, config)
    if args.command == "calibrate":
        return _cmd_calibrate(args, config)
    if args.command == "selftest":
        return _cmd_selftest(args, config)
    raise UsageError(f"unknown subcommand {args.command!r}")  # pragma: no cover


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        return run(list(argv))
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except SystemExit as exc:  # argparse --version/--help
        code = exc.code if isinstance(exc.code, int) else 0
        return code


if __name__ == "__main__":
    sys.exit(main())
