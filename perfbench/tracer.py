"""Layer spans for a traced round, taken from outside the package.

Each layer boundary is a module-level function; the tracer replaces the name
its caller looks up with a wrapper that records a span (id, parent, layer,
start, end).  A layer's self time is its spans' time minus the time of the
spans they caused.  ``eval_forcing`` is only counted, because it is called
millions of times and a span per call would swamp what it measures.
"""

from __future__ import annotations

import json
from collections import defaultdict
from importlib import import_module
from time import perf_counter

# import_module, because the package re-exports a function named calibrate
# over its submodule of that name
calibrate, cli, euler, events = (import_module(f"stickslip.{name}") for name in
                                 ("calibrate", "cli", "euler", "events"))

# (module whose global the caller reads, name, layer)
SPANS = [
    (cli, "run_calibrate", "cli.run_calibrate"),
    (cli, "_load_record", "cli.parse"),
    (cli, "_load_bounds", "cli.parse"),
    (cli, "load_temperature_series", "cli.parse"),
    (cli, "ou_path", "noise.ou_path"),
    (cli, "calibrate", "calibrate.calibrate"),
    (calibrate, "objective", "calibrate.objective"),
    (calibrate, "stick_levels_on_grid", "quasistatic.stick_levels"),
    (cli, "simulate_events", "events.simulate"),
    (events, "next_departure", "events.departure"),
    (events, "dynamic_subphase", "events.subphase_duhamel"),
    (events, "dynamic_subphase_generic", "events.subphase_rk4"),
    (cli, "simulate_euler", "euler.simulate"),
    (cli, "write_trajectory", "cli.write"),
    (cli, "write_events", "cli.write"),
    (cli, "write_split_segments", "cli.write"),
]
COUNTED = [(events, "eval_forcing"), (euler, "eval_forcing")]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # [span id, time of child spans]
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.forcing_calls = 0
        self.event_count = 0
        self.euler_steps = 0

    def install(self) -> None:
        for module, name, layer in SPANS:
            setattr(module, name, self._span(layer, getattr(module, name)))
        for module, name in COUNTED:
            setattr(module, name, self._count(getattr(module, name)))

    def _span(self, layer: str, fn):
        def wrapped(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else None
            frame = [len(self.spans), 0.0]
            self.spans.append(None)
            self.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                dt = t1 - t0
                if self.stack:
                    self.stack[-1][1] += dt
                self.total[layer] += dt
                self.self_time[layer] += dt - frame[1]
                self.calls[layer] += 1
                self.spans[frame[0]] = (frame[0], parent, layer, t0, t1)
            if layer == "events.simulate":
                self.event_count += len(result.events)
            elif layer == "euler.simulate":
                self.euler_steps += args[3].n_steps
            return result
        return wrapped

    def _count(self, fn):
        def counted(*args):
            self.forcing_calls += 1
            return fn(*args)
        return counted

    def layers(self) -> dict[str, float]:
        T, S, C = self.total, self.self_time, self.calls
        return {
            "quasistatic.stick_levels_s": T["quasistatic.stick_levels"],
            "quasistatic.stick_levels_calls": C["quasistatic.stick_levels"],
            "calibrate.objective_self_s": S["calibrate.objective"],
            "calibrate.de_self_s": S["calibrate.calibrate"],
            "calibrate.objective_calls": C["calibrate.objective"],
            "events.subphase_rk4_s": T["events.subphase_rk4"],
            "events.subphase_duhamel_s": T["events.subphase_duhamel"],
            "events.subphase_calls":
                C["events.subphase_rk4"] + C["events.subphase_duhamel"],
            "events.departure_s": T["events.departure"],
            "events.departure_calls": C["events.departure"],
            "events.recorder_self_s": S["events.simulate"],
            "events.event_count": self.event_count,
            "euler.simulate_s": T["euler.simulate"],
            "euler.steps": self.euler_steps,
            # run_calibrate's own time is its inline writes of the fit files
            "cli.write_s": T["cli.write"] + S["cli.run_calibrate"],
            "cli.parse_s": T["cli.parse"],
            "noise.ou_path_s": T["noise.ou_path"],
            "model.eval_forcing_calls": self.forcing_calls,
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, layer, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "layer": layer,
                                     "start": t0, "end": t1}) + "\n")
