"""Command-line front end.

Subcommands: transitions, spectrum, sweep-angle, sweep-field,
dispersive, fit, calibrate, selftest.  Exit codes: 0 success, 2
validation error, 3 numerical failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import os
import sys

import numpy as np

from . import __version__
from .config import ExperimentConfig, default_config, format_float, load_config, range_values
from .errors import NumericalError, ValidationError
from .spin import FieldSetting, _solve, sweep_fields

# Each command imports the modules it runs in its own body.  Every CLI
# call is a fresh process, and importing all of them at start-up made
# `import cavitybus.cli; default_config()` 30% slower than importing
# the few that argument parsing and config loading need (0.102 against
# 0.078 s, the benchmark's `setup_s`, 2-vCPU VM).

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


@functools.cache
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
                   help="avoided-crossing fits: the ensemble whose coupling is written "
                        "as g (the other one's is g_other)")
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


def _range_from(flag_text, flag, config, key, nonnegative=False):
    name, text = (flag, flag_text) if flag_text else (key, config.get(key))
    values = range_values(text, key=name)
    if nonnegative and values[0] < 0:
        raise ValidationError(f"{name} must be >= 0, got start {values[0]:g}")
    return values


# Float flags a subcommand may take -> (argparse dest, requirement, check).
_FLOAT_FLAGS = (
    ("--angle", "angle", "finite", math.isfinite),
    ("--b-mag", "b_mag", "finite and >= 0", lambda v: 0.0 <= v < math.inf),
    ("--width", "width", "finite and > 0", lambda v: 0.0 < v < math.inf),
)


def _check_float_flags(args) -> None:
    for flag, dest, requirement, ok in _FLOAT_FLAGS:
        value = getattr(args, dest, None)
        if value is not None and not ok(value):
            raise ValidationError(f"{flag} must be {requirement}, got {value:g}")


# The provenance key naming the field coordinate each sweep kind holds
# fixed; `fit` reads it back to rebuild the spin tuning curves.
_FIXED_KEY = {"angle": "fixed_magnitude_mt", "magnitude": "fixed_angle_deg"}


def _sweep_axis(args, config, kind) -> tuple:
    """(values, fixed, extra) of an angle or magnitude sweep: the swept
    range, the coordinate held fixed, and its provenance entry."""
    if kind == "angle":
        values = _range_from(args.angles, "--angles", config, "sweep.angles_deg")
        fixed = args.b_mag if args.b_mag is not None else config.get("field.magnitude_mt")
    else:
        values = _range_from(args.b_mags, "--b-mags", config, "sweep.magnitudes_mt", nonnegative=True)
        fixed = args.angle
    return values, fixed, {_FIXED_KEY[kind]: format_float(fixed)}


def _field_point(args, config, magnitude_key) -> tuple:
    """The single field of `spectrum` and `dispersive`, and its
    provenance: both coordinates are fixed."""
    magnitude = args.b_mag if args.b_mag is not None else config.get(magnitude_key)
    extra = {
        _FIXED_KEY["magnitude"]: format_float(args.angle),
        _FIXED_KEY["angle"]: format_float(magnitude),
    }
    return FieldSetting(magnitude, args.angle), extra


def _cmd_transitions(args, config) -> int:
    from .gridio import write_table
    from .transmission import _row_blocks

    by_angle = [f for f, v in (("--angles", args.angles), ("--b-mag", args.b_mag)) if v is not None]
    by_mag = [f for f, v in (("--b-mags", args.b_mags), ("--angle", args.angle)) if v is not None]
    if by_angle and by_mag:
        raise ValidationError(f"{by_angle[0]} (angle sweep) cannot be combined with {by_mag[0]}")
    if by_mag and args.angle is None:
        raise ValidationError("--b-mags sweeps need --angle")
    kind = "magnitude" if by_mag else "angle"
    values, fixed, extra = _sweep_axis(args, config, kind)
    mags, angles = np.broadcast_arrays(*sweep_fields(kind, values, fixed))

    ensembles = ("i", "ii")
    nvs = [config.nv(w) for w in ensembles]
    orientations = [config.orientation(w) for w in ensembles]
    # both ensembles in one solve per block of the rows write_table streams
    blocks = _row_blocks(values.size, 2 * len(ensembles) + 1)
    levels = np.concatenate(
        [_solve(nvs, orientations, mags[None, r], angles[None, r]) for r in blocks], axis=1
    )
    columns = {kind: values}
    for which, level in zip(ensembles, levels):
        columns[f"{which}_minus_mhz"] = level[:, 1]
        columns[f"{which}_plus_mhz"] = level[:, 2]
    write_table(args.out, columns, config.hash, extra)
    log.info("wrote %s (%d rows)", args.out, values.size)
    return EXIT_OK


def _cmd_spectrum(args, config) -> int:
    from .gridio import write_grid
    from .transmission import sweep

    probe = _range_from(args.probe, "--probe", config, "sweep.probe_mhz")
    field, extra = _field_point(args, config, "field.magnitude_mt")
    ensembles = [config.ensemble("i"), config.ensemble("ii")]
    grid = sweep(config.cavity(), ensembles, [field], probe, "none")
    write_grid(args.out, grid, config.hash, extra)
    return EXIT_OK


def _cmd_sweep(args, config, kind) -> int:
    from .gridio import write_grid
    from .transmission import sweep

    probe = _range_from(args.probe, "--probe", config, "sweep.probe_mhz")
    ensembles = [config.ensemble("i"), config.ensemble("ii")]
    values, fixed, extra = _sweep_axis(args, config, kind)
    fields = [FieldSetting(m, a) for m, a in np.broadcast(*sweep_fields(kind, values, fixed))]
    grid = sweep(config.cavity(), ensembles, fields, probe, kind)
    write_grid(args.out, grid, config.hash, extra)
    log.info("wrote %s (%d x %d)", args.out, values.size, probe.size)
    return EXIT_OK


def _cmd_dispersive(args, config) -> int:
    from .dispersive import (build_dispersive_model, derived_pump_range, dispersive_spin_modes,
                             pump_probe_signal)
    from .gridio import atomic_write_text, json_document, write_signal

    ens_i = config.ensemble("i")
    ens_ii = config.ensemble("ii")
    field, extra = _field_point(args, config, "field.dispersive_magnitude_mt")
    floor = config.get("dispersive.floor_mhz")
    model = build_dispersive_model(config.cavity(), ens_i, ens_ii, field, floor)
    modes = dispersive_spin_modes(model)
    pump = range_values(args.pump, key="--pump") if args.pump else derived_pump_range(modes)
    shift = pump_probe_signal(model, (ens_i.spin_hwhm, ens_ii.spin_hwhm), pump, width=args.width)

    report = {
        "angle_deg": field.angle,
        "magnitude_mt": field.magnitude,
        "chi_i_mhz": model.chi_i,
        "chi_ii_mhz": model.chi_ii,
        "detuning_i_mhz": model.detuning_i,
        "detuning_ii_mhz": model.detuning_ii,
        "u_coupling_mhz": model.u_coupling,
    }
    for label, (frequency, vector, weight) in zip(("bright", "dark"), modes):
        report[label] = {
            "frequency_mhz": frequency,
            "vector": [float(x) for x in vector],
            "drive_weight": weight,
        }
    text = json_document(report, config.hash)
    write_signal(args.out, pump, shift, config.hash, extra)
    if not args.report:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        atomic_write_text(args.report, text)
    except ValidationError:
        os.remove(args.out)  # an exit-2 run leaves no output file
        raise
    return EXIT_OK


def _tunings(config, grid, meta, ensembles) -> list:
    """Spin tuning curves of the named ensembles along a grid's sweep,
    at the fixed coordinate its provenance records."""
    from .fitting import SpinTuning

    key = _FIXED_KEY.get(grid.sweep_kind)
    if key is None:
        raise ValidationError(f"cannot fit a grid with sweep_kind={grid.sweep_kind!r}")
    try:
        fixed = float(meta.extra[key])
    except (KeyError, ValueError):
        fixed = math.nan
    if not math.isfinite(fixed):
        raise ValidationError(
            f"grid lacks a finite {key} comment; cannot build the spin tuning curve"
        )
    return [
        SpinTuning.from_ensemble(config.ensemble(which), grid.sweep_kind, fixed)
        for which in ensembles
    ]


def _cmd_fit(args, config) -> int:
    from .fitting import fit_avoided_crossing, fit_full_transmission, fit_lorentzian
    from .gridio import read_grid, write_fit_json

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
        power = grid.amplitudes[args.row] ** 2
        result = fit_lorentzian(grid.probe_frequencies, power, max_iter=max_iter)
    elif args.mode == "avoided-crossing":
        other = "ii" if args.ensemble == "i" else "i"
        tuning, other_tuning = _tunings(config, grid, meta, (args.ensemble, other))
        result = fit_avoided_crossing(
            grid, tuning, other_tuning, prominence=prominence, max_iter=max_iter
        )
    else:
        # the full model ties the external width to the total width
        cavity = config.cavity()
        if cavity.external_hwhm != cavity.total_hwhm:
            raise ValidationError(
                "fit full needs cavity.external_hwhm_mhz equal to cavity.total_hwhm_mhz, "
                f"got {cavity.external_hwhm:g} and {cavity.total_hwhm:g}"
            )
        tun_i, tun_ii = _tunings(config, grid, meta, ("i", "ii"))
        result = fit_full_transmission(
            grid, tun_i, tun_ii, prominence=prominence, max_iter=max_iter
        )

    write_fit_json(args.out, result, config.hash, {"input": str(args.infile), "mode": args.mode})
    if not result.converged:
        log.warning("fit did not converge after %d iterations", result.iterations)
        return EXIT_NUMERICAL
    log.info("wrote %s", args.out)
    return EXIT_OK


def _cmd_calibrate(args, config) -> int:
    from .calibrate import calibrate_geometry
    from .gridio import atomic_write_text

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
    from . import acceptance

    results = acceptance.run_all(config)
    for result in results:
        sys.stdout.write(result.line() + "\n")
    failed = [r for r in results if not r.passed]
    sys.stdout.write(
        f"{len(results) - len(failed)}/{len(results)} criteria passed\n"
    )
    return EXIT_OK if not failed else EXIT_NUMERICAL


_COMMANDS = {
    "transitions": _cmd_transitions,
    "spectrum": _cmd_spectrum,
    "sweep-angle": functools.partial(_cmd_sweep, kind="angle"),
    "sweep-field": functools.partial(_cmd_sweep, kind="magnitude"),
    "dispersive": _cmd_dispersive,
    "fit": _cmd_fit,
    "calibrate": _cmd_calibrate,
    "selftest": _cmd_selftest,
}


def run(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # the level is set on every call: basicConfig acts only on the first
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("cavitybus").setLevel(logging.INFO if args.verbose else logging.WARNING)
    if args.command is None:
        raise UsageError("missing subcommand")
    _check_float_flags(args)
    config = _load(args)
    return _COMMANDS[args.command](args, config)


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
