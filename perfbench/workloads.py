"""The benchmark's three workloads: inputs made from the seed, one timed
pass, and the checks that every output is correct.

All three are single-process and closed-loop: each operation starts when
the previous one returns.  The program is driven only through public
functions and the in-process CLI entry point `cavitybus.cli.main`, always
looked up on the module at call time so that the tracer's wrappers are
used when it is installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import reference

import cavitybus.cli as cli
import cavitybus.config as config_mod
import cavitybus.fitting as fitting
import cavitybus.gridio as gridio
import cavitybus.spin as spin
import cavitybus.transmission as transmission

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "spec.json")) as _f:
    SPEC = json.load(_f)
TOL = SPEC["tolerances"]


@dataclass
class Op:
    """One operation of a pass: a CLI command or a fit."""

    name: str
    seconds: float
    ok: bool = True
    detail: str = ""
    known: bool = False
    converged: bool | None = None
    errors: list = field(default_factory=list)
    is_fit: bool = False


def _fail(op, detail):
    op.ok = False
    op.detail = (op.detail + "; " if op.detail else "") + detail


def _call(name, fn, *args, **kwargs):
    """Run one operation and time it; an exception fails the operation."""
    t0 = perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # the benchmark must keep running and report it
        op = Op(name, perf_counter() - t0)
        _fail(op, f"raised {type(exc).__name__}: {exc}")
        return op, None
    return Op(name, perf_counter() - t0), result


def _run_cli(name, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        op, code = _call(name, lambda: cli.main(argv))
    if op.ok and code != 0:
        _fail(op, f"exit code {code}")
    return op, out.getvalue()


def _truth(config):
    return {
        "g_i": config.get("ensemble_i.coupling_mhz"),
        "g_ii": config.get("ensemble_ii.coupling_mhz"),
        "kappa": config.get("cavity.total_hwhm_mhz"),
        "gamma_i": config.get("ensemble_i.spin_hwhm_mhz"),
        "gamma_ii": config.get("ensemble_ii.spin_hwhm_mhz"),
        "nu_c": config.get("cavity.center_mhz"),
        "offset": 0.0,
    }


def _perturbed_init(truth):
    """The perturbed-truth start of acceptance criterion 9."""
    names = ("g_i", "g_ii", "kappa", "gamma_i", "gamma_ii", "nu_c", "offset")
    init = np.array([truth[k] for k in names]) * np.array([1.2, 0.8, 1.2, 0.8, 1.2, 1.0, 1.0])
    init[6] = 0.3
    return init


def _check_fit(op, parameters, converged, expected):
    """Compare fitted parameters against the generating truth;
    `expected` maps parameter name -> (true value, relative tolerance)."""
    op.converged = bool(converged)
    for key, (true_value, tol) in expected.items():
        value = parameters.get(key)
        err = math.inf if value is None or not math.isfinite(value) else abs(value - true_value) / true_value
        op.errors.append(err)
        if not err <= tol:
            _fail(op, f"{key}={value!r} vs truth {true_value} (rel err {err:.3g} > {tol})")


def _noisy(grid, rng, level):
    noisy = grid.magnitudes * (1.0 + level * rng.standard_normal(grid.amplitudes.shape))
    return transmission.SpectrumGrid(grid.probe_frequencies, grid.sweep_values, noisy, grid.sweep_kind)


def _angle_sweep(config, ensembles, angles, probe):
    magnitude = config.get("field.magnitude_mt")
    fields = [spin.FieldSetting(magnitude, a) for a in angles]
    return transmission.sweep(config.cavity(), ensembles, fields, probe, "angle")


def _label(tracer, op_name):
    """Tag the spans that follow with an operation id when tracing."""
    if tracer is not None:
        tracer.op = op_name


def _csv_rows(path):
    with open(path) as handle:
        return np.array([[float(x) for x in ln.split(",")] for ln in handle if not ln.startswith("#")])


def _file_digest(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class Workload:
    name = ""
    # |S21| grid points one pass writes (forward) or fits (fit workloads).
    points_per_pass = 0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.config = config_mod.default_config()

    def path(self, name):
        return os.path.join(self.workdir, name)

    def prepare(self):
        """Make the inputs; not timed."""

    def run_pass(self, tracer=None):
        """One timed pass; returns its Ops."""
        raise NotImplementedError

    def after_pass(self, ops):
        """Checks after each pass, outside the timed region."""

    def final_checks(self):
        """Checks once all passes ran; returns {op name: failure detail}
        for ops whose outputs failed."""
        return {}


# ---------------------------------------------------------------------------


class Forward(Workload):
    """The figure pipeline through the CLI with default config ranges."""

    name = "forward"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        c = self.config
        self.angles = config_mod.range_values(c.get("sweep.angles_deg"))
        self.mags = config_mod.range_values(c.get("sweep.magnitudes_mt"))
        self.probe = config_mod.range_values(c.get("sweep.probe_mhz"))
        self.commands = [
            ("calibrate", ["calibrate", "--out", self.path("calibrated.cfg")]),
            ("transitions-angle", ["transitions", "--out", self.path("levels_angle.csv")]),
            ("transitions-magnitude", ["transitions", "--angle", "79", "--out", self.path("levels_mag.csv")]),
            ("sweep-angle", ["sweep-angle", "--out", self.path("grid_angle.csv")]),
            ("sweep-field", ["sweep-field", "--angle", "79", "--out", self.path("grid_field.csv")]),
            ("spectrum", ["spectrum", "--angle", "48.1", "--out", self.path("row.csv")]),
            ("dispersive", ["dispersive", "--angle", "23", "--out", self.path("shift.csv"),
                            "--report", self.path("modes.json")]),
        ]
        self.points_per_pass = (self.angles.size + self.mags.size + 1) * self.probe.size
        self.digests = None
        self.stdout = {}

    def outputs(self, argv):
        return [argv[i + 1] for i, a in enumerate(argv) if a in ("--out", "--report")]

    def run_pass(self, tracer=None):
        ops = []
        for name, argv in self.commands:
            _label(tracer, name)
            op, text = _run_cli(name, argv)
            self.stdout[name] = text
            ops.append(op)
        return ops

    def after_pass(self, ops):
        # Determinism contract: every pass writes identical bytes.
        digests = {}
        for op, (name, argv) in zip(ops, self.commands):
            try:
                digests[name] = [_file_digest(p) for p in self.outputs(argv)]
            except OSError as exc:
                _fail(op, f"output missing: {exc}")
        if self.digests is None:
            self.digests = digests
            return
        for op in ops:
            if op.name in digests and digests[op.name] != self.digests.get(op.name):
                _fail(op, "output bytes differ from the first pass")

    # -- output checks against the independent reference ------------------

    def final_checks(self):
        c = self.config
        cavity = reference.Cavity(c)
        ens = [reference.Ensemble(c, "i"), reference.Ensemble(c, "ii")]
        magnitude = c.get("field.magnitude_mt")
        failures = {}
        checks = {
            "calibrate": self._check_calibrate,
            "transitions-angle": lambda: self._check_table(
                "levels_angle.csv", ens, lambda v: (magnitude, v), self.angles),
            "transitions-magnitude": lambda: self._check_table(
                "levels_mag.csv", ens, lambda v: (v, 79.0), self.mags),
            "sweep-angle": lambda: self._check_grid(
                "grid_angle.csv", cavity, ens, "angle", self.angles, lambda v: (magnitude, v)),
            "sweep-field": lambda: self._check_grid(
                "grid_field.csv", cavity, ens, "magnitude", self.mags, lambda v: (v, 79.0)),
            "spectrum": lambda: self._check_grid(
                "row.csv", cavity, ens, "none", np.array([0.0]), lambda v: (magnitude, 48.1)),
            "dispersive": lambda: self._check_dispersive(cavity, ens),
        }
        for name, check in checks.items():
            try:
                problem = check()
            except Exception as exc:  # a malformed output fails its check
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                failures[name] = problem
        return failures

    def _sample(self, n):
        return sorted(set(np.linspace(0, n - 1, min(n, 19)).round().astype(int).tolist()))

    def _check_grid(self, filename, cavity, ens, kind, sweep_values, field_of):
        grid, meta = gridio.read_grid(self.path(filename))
        if grid.sweep_kind != kind:
            return f"sweep_kind {grid.sweep_kind!r}, expected {kind!r}"
        if grid.amplitudes.shape != (sweep_values.size, self.probe.size):
            return f"shape {grid.amplitudes.shape}"
        if reference.max_rel_error(grid.probe_frequencies, self.probe) > TOL["file_rel"]:
            return "probe axis differs from the configured range"
        if reference.max_rel_error(grid.sweep_values, sweep_values) > TOL["file_rel"]:
            return "sweep axis differs from the configured range"
        worst = 0.0
        for k in self._sample(sweep_values.size):
            b, angle = field_of(grid.sweep_values[k])
            want = reference.s21_row(grid.probe_frequencies, cavity, ens, b, angle)
            worst = max(worst, reference.max_rel_error(grid.magnitudes[k], want))
        if worst > TOL["file_rel"]:
            return f"|S21| rows differ from the reference by {worst:.3g} relative"
        return None

    def _check_table(self, filename, ens, field_of, values):
        table = _csv_rows(self.path(filename))
        if table.shape != (values.size, 5):
            return f"table shape {table.shape}"
        worst = reference.max_rel_error(table[:, 0], values)
        for k in self._sample(values.size):
            b, angle = field_of(table[k, 0])
            want = [*ens[0].transitions(b, angle), *ens[1].transitions(b, angle)]
            worst = max(worst, reference.max_rel_error(table[k, 1:], want))
        if worst > TOL["file_rel"]:
            return f"transition table differs from the reference by {worst:.3g} relative"
        return None

    def _check_calibrate(self):
        text = self.stdout.get("calibrate", "")
        if not text.startswith("calibration: azimuth_i="):
            return f"unexpected calibrate output {text[:60]!r}"
        values = {}
        with open(self.path("calibrated.cfg")) as handle:
            for line in handle:
                if "=" in line and not line.startswith("#"):
                    key, value = line.split("=", 1)
                    values[key.strip()] = value.strip()
        c = self.config
        ens_i = reference.Ensemble(c, "i").with_azimuth(float(values["ensemble_i.azimuth_deg"]))
        ens_ii = reference.Ensemble(c, "ii").with_azimuth(float(values["ensemble_ii.azimuth_deg"]))
        magnitude = float(values["field.magnitude_mt"])
        dispersive_mt = float(values["field.dispersive_magnitude_mt"])
        target = c.get("cavity.center_mhz")
        misses = [
            ens_i.transitions(magnitude, c.get("calibration.resonance_angle_i_deg"))[0] - target,
            ens_ii.transitions(magnitude, c.get("calibration.resonance_angle_ii_deg"))[0] - target,
            ens_ii.transitions(dispersive_mt, c.get("calibration.resonance_angle_ii_deg"))[0]
            - (target - c.get("calibration.dispersive_margin_mhz")),
        ]
        worst = max(abs(m) for m in misses)
        if worst > TOL["calibrate_mhz"]:
            return f"calibrated geometry misses its targets by {worst:.3g} MHz"
        return None

    def _check_dispersive(self, cavity, ens):
        with open(self.path("modes.json")) as handle:
            report = json.load(handle)
        b = report["magnitude_mt"]
        if b != self.config.get("field.dispersive_magnitude_mt"):
            return f"dispersive magnitude {b}"
        for which, e in (("i", ens[0]), ("ii", ens[1])):
            delta = cavity.center - e.transitions(b, 23.0)[0]
            if abs(report[f"detuning_{which}_mhz"] - delta) > TOL["calibrate_mhz"]:
                return f"detuning_{which} {report[f'detuning_{which}_mhz']} vs {delta}"
            chi = e.g**2 / delta
            if abs(report[f"chi_{which}_mhz"] - chi) > TOL["file_rel"] * abs(chi) + 1e-12:
                return f"chi_{which} {report[f'chi_{which}_mhz']} vs {chi}"
        shift = _csv_rows(self.path("shift.csv"))
        if shift.ndim != 2 or shift.shape[0] < 2 or not np.all(np.isfinite(shift)):
            return "pump-probe signal is empty or not finite"
        return None


# ---------------------------------------------------------------------------


class FitMC(Workload):
    """Acceptance criterion 9's Monte-Carlo round trips, on noise drawn
    from the benchmark seed: 100 avoided-crossing fits on a 65x401
    single-ensemble grid and 100 full-transmission fits on an 81x241
    two-ensemble grid, all in memory."""

    name = "fit-mc"
    realizations = 100

    def prepare(self):
        c = self.config
        cavity = c.cavity()
        ens_i, ens_ii = c.ensemble("i"), c.ensemble("ii")
        magnitude = c.get("field.magnitude_mt")
        self.tun_i = fitting.SpinTuning.from_ensemble(ens_i, "angle", magnitude)
        self.tun_ii = fitting.SpinTuning.from_ensemble(ens_ii, "angle", magnitude)
        crossing = _angle_sweep(
            c, [ens_i], np.arange(71.0, 87.0 + 1e-9, 0.25),
            np.arange(cavity.center - 20.0, cavity.center + 20.0 + 1e-9, 0.1))
        full = _angle_sweep(
            c, [ens_i, ens_ii], np.arange(10.0, 90.0 + 1e-9, 1.0),
            np.arange(cavity.center - 30.0, cavity.center + 30.0 + 1e-9, 0.25))
        level = TOL["noise_level"]
        self.crossing = [_noisy(crossing, np.random.default_rng([self.seed, k, 0]), level)
                         for k in range(self.realizations)]
        self.full = [_noisy(full, np.random.default_rng([self.seed, k, 1]), level)
                     for k in range(self.realizations)]
        self.points_per_pass = self.realizations * (crossing.amplitudes.size + full.amplitudes.size)
        self.truth = _truth(c)
        self.init = _perturbed_init(self.truth)

    def run_pass(self, tracer=None):
        calls = []
        for k in range(self.realizations):
            _label(tracer, f"avoided-crossing-{k}")
            calls.append(_call("avoided-crossing", fitting.fit_avoided_crossing, self.crossing[k], self.tun_i))
            _label(tracer, f"full-{k}")
            calls.append(_call("full", fitting.fit_full_transmission, self.full[k], self.tun_i,
                               self.tun_ii, init=self.init))
        self.results = [result for _, result in calls]
        return [op for op, _ in calls]

    def after_pass(self, ops):
        t = self.truth
        for op, result in zip(ops, self.results):
            op.is_fit = True
            if result is None:
                continue
            if op.name == "avoided-crossing":
                expected = {"g": (t["g_i"], TOL["avoided_crossing_rel"])}
            else:
                expected = {k: (t[k], TOL["full_rel"]) for k in ("g_i", "g_ii", "kappa")}
            _check_fit(op, result.parameters, result.converged, expected)
        self.results = None


# ---------------------------------------------------------------------------


class FitGrid(Workload):
    """Three file-in/JSON-out fits on noisy grids written during set-up:
    (a) `fit full` cold start on a 91x601 grid over 0-90 deg, (b) `fit
    avoided-crossing` on the default 901x1201 grid, (c) read_grid, then
    fit_full_transmission from the perturbed-truth start, then
    write_fit_json on a default-size grid."""

    name = "fit-grid"
    known_failures = frozenset(SPEC["known_failures"]["fit-grid"])

    def prepare(self):
        c = self.config
        ens = [c.ensemble("i"), c.ensemble("ii")]
        magnitude = c.get("field.magnitude_mt")
        level = TOL["noise_level"]
        coarse = _angle_sweep(c, ens, np.arange(0.0, 90.0 + 1e-9, 1.0), np.arange(2720.0, 2780.0 + 1e-9, 0.1))
        default = _angle_sweep(c, ens, config_mod.range_values(c.get("sweep.angles_deg")),
                               config_mod.range_values(c.get("sweep.probe_mhz")))
        extra = {"fixed_magnitude_mt": config_mod.format_float(magnitude)}
        # LM paths on these grids are chaotic in the noise: over noise
        # seeds, (a) ran 107-200 iterations and (c) 8-20 model
        # evaluations.  So (a) and (c) fit one fixed realization, which
        # keeps pass time independent of --seed; (b) fits noise drawn
        # from --seed.  Every realization tried puts (a) in a wrong basin.
        fixed = SPEC["fixed_noise_seed"]
        grids = (
            ("coarse.csv", coarse, [fixed, 0]),
            ("default_fixed.csv", default, [fixed, 1]),
            ("default_seeded.csv", default, [self.seed, 1]),
        )
        for filename, grid, noise_seed in grids:
            gridio.write_grid(self.path(filename), _noisy(grid, np.random.default_rng(noise_seed), level),
                              c.hash, extra)
        self.points_per_pass = coarse.amplitudes.size + 2 * default.amplitudes.size
        self.truth = _truth(c)
        self.init = _perturbed_init(self.truth)
        self.tun_i = fitting.SpinTuning.from_ensemble(ens[0], "angle", magnitude)
        self.tun_ii = fitting.SpinTuning.from_ensemble(ens[1], "angle", magnitude)

    def run_pass(self, tracer=None):
        ops = []
        _label(tracer, "fit-full-cold")
        ops.append(_run_cli("fit-full-cold", ["fit", "full", "--in", self.path("coarse.csv"),
                                              "--out", self.path("fit_cold.json")])[0])
        _label(tracer, "fit-avoided-crossing-default")
        ops.append(_run_cli("fit-avoided-crossing-default",
                            ["fit", "avoided-crossing", "--in", self.path("default_seeded.csv"),
                             "--out", self.path("fit_crossing.json")])[0])
        _label(tracer, "fit-full-init")
        ops.append(_call("fit-full-init", self._read_fit_write)[0])
        return ops

    def _read_fit_write(self):
        grid, _ = gridio.read_grid(self.path("default_fixed.csv"))
        result = fitting.fit_full_transmission(grid, self.tun_i, self.tun_ii, init=self.init)
        gridio.write_fit_json(self.path("fit_init.json"), result, self.config.hash)

    def after_pass(self, ops):
        t = self.truth
        expected = {
            "fit-full-cold": ("fit_cold.json", {k: (t[k], TOL["full_rel"]) for k in ("g_i", "g_ii", "kappa")}),
            "fit-avoided-crossing-default": ("fit_crossing.json", {"g": (t["g_i"], TOL["avoided_crossing_rel"])}),
            "fit-full-init": ("fit_init.json", {k: (t[k], TOL["full_rel"]) for k in ("g_i", "g_ii", "kappa")}),
        }
        for op in ops:
            op.is_fit = True
            op.known = op.name in self.known_failures
            filename, want = expected[op.name]
            path = self.path(filename)
            if not os.path.exists(path):
                if op.ok:
                    _fail(op, "no fit JSON written")
                continue
            try:
                with open(path) as handle:
                    payload = json.load(handle)
            except ValueError as exc:
                _fail(op, f"unreadable fit JSON: {exc}")
                continue
            finally:
                os.unlink(path)
            _check_fit(op, payload["parameters"], payload["converged"], want)


WORKLOADS = {w.name: w for w in (Forward, FitMC, FitGrid)}
