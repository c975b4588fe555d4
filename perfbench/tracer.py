"""Outside-in span tracer for cavitybus.

The tracer wraps public functions in every cavitybus module that binds
them, so calls the package makes internally are seen as well as the
benchmark's own calls (for example `transition_minus` is replaced in
`spin`, `coupled` and `calibrate`).  Nothing in the package is edited;
`uninstall` puts the original functions back.

A span is (name, start, end, parent, operation id, bytes).  Spans are
kept in memory and written out by the caller at the end of the run.
Counts are taken at the same boundaries.  Calls run on one thread: the
package only starts sweep worker threads when CAVITYBUS_THREADS > 1,
and the benchmark leaves that variable unset.
"""

from __future__ import annotations

import collections
import functools
import importlib
import os
import sys
from time import perf_counter

# Span name -> layer kind.  Spans of one kind nested in each other count
# once toward the kind's inclusive time.
KINDS = {
    "config.default_config": "config.load",
    "config.load_config": "config.load",
    "spin.transition_frequencies": "spin.scalar",
    "spin.transition_minus": "spin.scalar",
    "spin.transition_batch": "spin.batch",
    "spin.transition_minus_derivative": "spin.batch",
    "transmission.sweep": "transmission.sweep",
    "transmission.s21": "transmission.sweep",
    "transmission.peak_positions": "transmission.peak",
    "dispersive.build_dispersive_model": "dispersive",
    "dispersive.dispersive_spin_modes": "dispersive",
    "dispersive.pump_probe_signal": "dispersive",
    "dispersive.drive_weights": "dispersive",
    "calibrate.calibrate_geometry": "calibrate",
    "fitting.fit_avoided_crossing": "fitting.fit",
    "fitting.fit_full_transmission": "fitting.fit",
    "fitting.fit_lorentzian": "fitting.fit",
    "fitting.levenberg_marquardt": "fitting.lm",
    "fitting.initial_guess_full": "fitting.init",
    "fitting.extract_branches": "fitting.branches",
    "fitting.model": "fitting.model",
    "gridio.grid_to_text": "gridio.format",
    "gridio.write_table": "gridio.format",
    "gridio.write_signal": "gridio.format",
    "gridio.write_fit_json": "gridio.format",
    "gridio.atomic_write_text": "gridio.write",
    "gridio.read_grid": "gridio.parse",
}

# Factories whose returned closure is the model the LM loop evaluates.
MODEL_FACTORIES = ("transmission_model", "avoided_crossing_model", "lorentzian_model")

CLI_COMMANDS = (
    "calibrate",
    "transitions",
    "sweep-angle",
    "sweep-field",
    "spectrum",
    "dispersive",
    "fit-full",
    "fit-avoided-crossing",
)


def _cli_name(args, kwargs):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if not argv:
        return "cli.none"
    if argv[0] == "fit" and len(argv) > 1:
        return f"cli.fit-{argv[1]}"
    return f"cli.{argv[0]}"


class Tracer:
    """Span recorder; `install()` patches the package, `uninstall()`
    restores it."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.op = None
        self._stack = []
        self._patches = []

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    # -- recording -------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.op, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _exit(self, rec):
        rec[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, on_return=None, name_fn=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._enter(name_fn(args, kwargs) if name_fn else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(rec)
            if on_return is not None:
                on_return(rec, args, result)
            return result

        return wrapper

    # -- per-function counters -------------------------------------------

    def _hooks(self):
        c = self.counts

        def scalar_solve(rec, args, result):
            c["spin.scalar_calls"] += 1

        def batch(rec, args, result):
            c["spin.batch_points"] += int(getattr(result, "size", 1))

        def sweep(rec, args, result):
            c["transmission.sweep_rows"] += int(result.amplitudes.shape[0])

        def s21(rec, args, result):
            c["transmission.s21_points"] += int(getattr(result, "size", 1))

        def peak(rec, args, result):
            c["transmission.peak_calls"] += 1

        def calibrate(rec, args, result):
            c["calibrate.runs"] += 1

        def fit(rec, args, result):
            c["fitting.fits"] += 1

        def lm(rec, args, result):
            c["fitting.lm_iterations"] += int(result.iterations)
            c["fitting.accepted_steps"] += max(len(result.history) - 1, 0)

        def grid_text(rec, args, result):
            rec[5] = len(result)

        def write(rec, args, result):
            rec[5] = len(args[1])

        def parse(rec, args, result):
            rec[5] = os.path.getsize(args[0])

        def cli(rec, args, result):
            if result != 0:
                c["cli.nonzero_exits"] += 1

        return {
            "spin.transition_frequencies": scalar_solve,
            "spin.transition_batch": batch,
            "spin.transition_minus_derivative": batch,
            "transmission.sweep": sweep,
            "transmission.s21": s21,
            "transmission.peak_positions": peak,
            "calibrate.calibrate_geometry": calibrate,
            "fitting.fit_avoided_crossing": fit,
            "fitting.fit_full_transmission": fit,
            "fitting.fit_lorentzian": fit,
            "fitting.levenberg_marquardt": lm,
            "gridio.grid_to_text": grid_text,
            "gridio.atomic_write_text": write,
            "gridio.read_grid": parse,
            "cli.main": cli,
        }

    def _model_factory(self, factory):
        tracer = self
        c = self.counts

        def on_eval(rec, args, result):
            values, jac = result
            c["fitting.model_evals"] += 1
            c["fitting.model_points"] += int(values.size)
            nbytes = int(values.nbytes + jac.nbytes)
            c["fitting.model_bytes"] = max(c["fitting.model_bytes"], nbytes)

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return tracer._wrap(factory(*args, **kwargs), "fitting.model", on_eval)

        return wrapper

    # -- patching --------------------------------------------------------

    def install(self):
        """Replace each traced function in every cavitybus module that
        binds it."""
        if self._patches:
            return
        hooks = self._hooks()
        targets = []
        for span_name in list(KINDS) + ["cli.main"]:
            module_name, _, attr = span_name.partition(".")
            if span_name == "fitting.model":
                continue
            module = importlib.import_module(f"cavitybus.{module_name}")
            original = getattr(module, attr)
            if span_name == "cli.main":
                wrapper = self._wrap(original, span_name, hooks[span_name], _cli_name)
            else:
                wrapper = self._wrap(original, span_name, hooks.get(span_name))
            targets.append((original, wrapper))
        fitting = importlib.import_module("cavitybus.fitting")
        for attr in MODEL_FACTORIES:
            original = getattr(fitting, attr)
            targets.append((original, self._model_factory(original)))

        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cavitybus" or name.startswith("cavitybus."))
        ]
        for original, wrapper in targets:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    # -- analysis --------------------------------------------------------

    def metrics(self):
        """Per-layer metrics over the spans and counts recorded since the
        last reset."""
        spans = self.spans
        n = len(spans)
        duration = [s[2] - s[1] for s in spans]
        child_time = [0.0] * n
        child_bytes = [0] * n
        for i, s in enumerate(spans):
            parent = s[3]
            if parent >= 0:
                child_time[parent] += duration[i]
                child_bytes[parent] += s[5]
        self_time = [duration[i] - child_time[i] for i in range(n)]
        kind = [KINDS.get(s[0]) or s[0].partition(".")[0] for s in spans]

        def ancestors(i):
            parent = spans[i][3]
            while parent >= 0:
                yield parent
                parent = spans[parent][3]

        inclusive = collections.Counter()
        self_by_kind = collections.Counter()
        cli_by_command = collections.Counter()
        calibrate_solves = 0
        for i in range(n):
            k = kind[i]
            self_by_kind[k] += self_time[i]
            if all(kind[a] != k for a in ancestors(i)):
                inclusive[k] += duration[i]
            if k == "cli":
                cli_by_command[spans[i][0]] += duration[i]
            if spans[i][0] == "spin.transition_frequencies" and any(
                kind[a] == "calibrate" for a in ancestors(i)
            ):
                calibrate_solves += 1

        formatted = sum(
            spans[i][5] if spans[i][0] == "gridio.grid_to_text" else child_bytes[i]
            for i in range(n)
            if kind[i] == "gridio.format"
        )
        bytes_out = sum(s[5] for s in spans if s[0] == "gridio.atomic_write_text")
        bytes_in = sum(s[5] for s in spans if s[0] == "gridio.read_grid")
        c = self.counts

        def rate(num_bytes, seconds):
            return num_bytes / seconds / 1e6 if seconds > 0 else 0.0

        out = {
            "config.load_s": inclusive["config.load"],
            "spin.scalar_calls": c["spin.scalar_calls"],
            "spin.scalar_s": inclusive["spin.scalar"],
            "spin.batch_points": c["spin.batch_points"],
            "spin.batch_s": inclusive["spin.batch"],
            "transmission.sweep_rows": c["transmission.sweep_rows"],
            "transmission.s21_points": c["transmission.s21_points"],
            "transmission.sweep_self_s": self_by_kind["transmission.sweep"],
            "transmission.peak_calls": c["transmission.peak_calls"],
            "transmission.peak_s": inclusive["transmission.peak"],
            "dispersive.s": inclusive["dispersive"],
            "calibrate.runs": c["calibrate.runs"],
            "calibrate.self_s": self_by_kind["calibrate"],
            "calibrate.spin_calls": calibrate_solves,
            "fitting.fits": c["fitting.fits"],
            "fitting.lm_iterations": c["fitting.lm_iterations"],
            "fitting.model_evals": c["fitting.model_evals"],
            "fitting.model_points": c["fitting.model_points"],
            "fitting.model_s": inclusive["fitting.model"],
            "fitting.lm_self_s": self_by_kind["fitting.lm"],
            "fitting.accepted_ratio": (
                c["fitting.accepted_steps"] / c["fitting.model_evals"]
                if c["fitting.model_evals"]
                else 0.0
            ),
            "fitting.init_s": inclusive["fitting.init"],
            "fitting.branches_s": inclusive["fitting.branches"],
            "fitting.model_bytes": c["fitting.model_bytes"],
            "gridio.format_s": self_by_kind["gridio.format"],
            "gridio.format_mb_per_s": rate(formatted, self_by_kind["gridio.format"]),
            "gridio.write_s": inclusive["gridio.write"],
            "gridio.bytes_out": bytes_out,
            "gridio.parse_s": inclusive["gridio.parse"],
            "gridio.parse_mb_per_s": rate(bytes_in, inclusive["gridio.parse"]),
            "gridio.bytes_in": bytes_in,
            "cli.self_s": self_by_kind["cli"],
            "cli.nonzero_exits": c["cli.nonzero_exits"],
        }
        for command in CLI_COMMANDS:
            out[f"cli.{command.replace('-', '_')}_s"] = cli_by_command[f"cli.{command}"]
        return out
