"""The four workloads: the command each round runs, and the checks on its output.

Every check compares the files a command wrote with a computation made
outside the package (``oracles.py``) or with a property the method must have.
``WORKLOADS`` maps each name to its command and to a check that returns
(problems, units of work done, units of work until the answer met its check);
no problems means the output is right.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from oracles import (
    NoisyTemperature,
    ShawOscillator,
    calibration_objective,
    ou_recursion,
    thermal_subphase_end,
)

# %.9g keeps 9 significant digits: a written y is within 5e-9 |y| of the value.
REL_DIGITS = 5e-9

# The paper's benchmark (Shaw 1986): m=1, f_d=1, f_s=1.2, beta=6, Omega=1/4, x0=6.
SHAW = dict(m=1.0, fd=1.0, fs=1.2, beta=6.0, omega=0.25, x0=6.0)
SHAW_T_END = 650.0
EULER_T_END = 65.0
EULER_H = 1e-3
# Departures of the Euler scheme lag the exact ones by O(h); this multiple of
# h bounds the lag over the whole EULER_T_END horizon.
EULER_DEPARTURE_H = 10.0

THERMAL = dict(K=1.0, beta=6.0, fd=1.0, fs=1.2, x0=6.0, omega=0.25, rho=0.25)
THERMAL_T_END = 300.0
OU_DT = 0.01  # the CLI's noise spacing for the events solver
THERMAL_SUBSET = 8  # sub-phases integrated independently per check
THERMAL_TOL = 1e-7  # on the end time and position of those sub-phases

RECORD = Path("data/demo_record.csv")
BOUNDS = Path("data/demo_bounds.txt")
CAL_BUDGET = 16000
CAL_KBP = 5e6
FIT_FACTOR = 1.01  # evals_to_fit: best residual <= 1.01 x objective at the truth


def _flags(params: dict) -> list[str]:
    return [arg for key, value in params.items() for arg in (f"--{key}", repr(value))]


def _events_text(events) -> str:
    return "".join(f"{t:.9g} {kind} {x:.9g} {eps:d}\n" for t, kind, x, eps in events)


def _load_events(out: Path, prefix: str, problems: list[str]):
    """Full-precision events, after checking they are what the events file holds."""
    events = json.loads((out / "events.full.json").read_text())
    if (out / f"{prefix}.events.txt").read_text() != _events_text(events):
        problems.append("events file differs from the solver's events")
    return events


def _subphases(events):
    """(start event, end event) of every slip sub-phase that ended in time."""
    return [(a, b) for a, b in zip(events, events[1:])
            if a[1] in ("enter_dynamic", "subphase_boundary")]


def _check_rows(rows: np.ndarray, events, f_d: float, f_s: float,
                problems: list[str]) -> None:
    """Sample rows against the phase each lies in.

    Inside a sub-phase the velocity is nonzero with the sub-phase's sign and
    the friction is sign(v) f_d; inside a stick v = 0, friction = b and
    |b| <= f_s.  Rows within the written precision of an event are skipped.
    """
    t, x, v, fr, b = rows.T
    margin = 2 * REL_DIGITS * np.abs(t) + 1e-12
    ends = [e[0] for e in events[1:]] + [math.inf]
    for (t0, kind, _, eps), t1 in zip(events, ends):
        inside = (t > t0 + margin) & (t < t1 - margin)
        if kind == "enter_static":
            bad = inside & ((v != 0.0) | (fr != b)
                            | (np.abs(b) > f_s * (1 + REL_DIGITS)))
            what = "stick sample with v != 0, friction != b or |b| > f_s"
        else:
            bad = inside & ((np.sign(v) != eps) | (fr != eps * f_d))
            what = f"slip sample whose velocity sign is not {eps:+d}"
        if np.any(bad):
            problems.append(f"{what} at t={t[bad][0]:.9g}")
            return


def _check_forcing(rows: np.ndarray, force, slope: float, stiffness: float,
                   problems: list[str]) -> None:
    """The b column equals the forcing at the row's own t and x."""
    t, x, _, _, b = rows.T
    tol = REL_DIGITS * (slope * np.abs(t) + stiffness * np.abs(x) + np.abs(b)) + 1e-12
    err = np.abs(b - force(x, t))
    if np.any(err > tol):
        i = int(np.argmax(err - tol))
        problems.append(f"b column off the forcing at t={t[i]:.9g} by {err[i]:.3g}")


# --------------------------------------------------------------------------
# shaw-events
# --------------------------------------------------------------------------

def shaw_oscillator() -> ShawOscillator:
    return ShawOscillator(SHAW["m"], SHAW["fd"], SHAW["fs"], SHAW["beta"],
                          SHAW["omega"])


def shaw_events_argv(seed: int, prefix: Path) -> list[str]:
    return ["simulate", "--solver", "events", "--forcing", "shaw", *_flags(SHAW),
            "--t-end", repr(SHAW_T_END), "--out", str(prefix), "--split-phases"]


def shaw_events_check(out: Path, prefix: str, seed: int) -> list[str]:
    problems: list[str] = []
    osc = shaw_oscillator()
    f_s = SHAW["fs"]
    events = _load_events(out, prefix, problems)

    chain = osc.chain(SHAW["x0"], SHAW_T_END)
    if [e[1] for e in chain] != [e[1] for e in events]:
        problems.append(f"{len(events)} events where the closed-form chain has "
                        f"{len(chain)}, or of other kinds")
    elif max(abs(c[0] - e[0]) + abs(c[2] - e[2]) for c, e in zip(chain, events)) > 1e-6:
        problems.append("event times or positions more than 1e-6 off the "
                        "closed-form chain")
    for a, b in _subphases(events):
        (t0, _, x0, eps), (t1, _, x1, _) = a, b
        x, v = osc.subphase(t0, x0, eps)
        if abs(float(x(t1)) - x1) > 1e-6 or abs(float(v(t1))) > 1e-6:
            problems.append(f"sub-phase from t={t0!r} ends off the closed form: "
                            f"dx={float(x(t1)) - x1:.3g}, v={float(v(t1)):.3g}")
    stick_start = None
    for t, kind, x, eps in events:
        bval = float(osc.force(x, t))
        if kind == "enter_static":
            stick_start = t
            if abs(bval) > f_s + 1e-9:
                problems.append(f"stick entered at t={t!r} with |b|={abs(bval)!r}")
        elif kind == "enter_dynamic":
            if abs(abs(bval) - f_s) > 1e-6:
                problems.append(f"departure at t={t!r}: |b|-f_s={abs(bval) - f_s:.3g}")
            if stick_start is not None and \
                    osc.departure(x, stick_start, t) < t - 1e-6:
                problems.append(f"departure at t={t!r} misses an earlier one")
        elif abs(bval) <= f_s or eps != (1 if bval >= 0 else -1):
            problems.append(f"sub-phase boundary at t={t!r} with b={bval!r}")

    traj = out / f"{prefix}.txt"
    rows = np.loadtxt(traj, ndmin=2)
    _check_forcing(rows, osc.force, SHAW["beta"] * SHAW["omega"], 1.0, problems)
    _check_rows(rows, events, SHAW["fd"], f_s, problems)
    if abs(rows[-1, 0] - SHAW_T_END) > REL_DIGITS * SHAW_T_END:
        problems.append(f"trajectory ends at t={rows[-1, 0]!r}")

    # --split-phases: s1, d1, s2, d2, ... concatenate to the trajectory file
    tags = ["s", "d"] if events[0][1] == "enter_static" else ["d", "s"]
    pieces, count = [], {"s": 0, "d": 0}
    n_files = len(list(out.glob(f"{prefix}_[sd]*.txt")))
    for k in range(n_files):
        tag = tags[k % 2]
        count[tag] += 1
        path = out / f"{prefix}_{tag}{count[tag]}.txt"
        if not path.exists():
            problems.append(f"split file {path.name} missing")
            break
        pieces.append(path.read_bytes())
    if b"".join(pieces) != traj.read_bytes():
        problems.append("split files do not concatenate to the trajectory file")
    return problems


# --------------------------------------------------------------------------
# euler-fine
# --------------------------------------------------------------------------

def euler_fine_argv(seed: int, prefix: Path) -> list[str]:
    return ["simulate", "--solver", "euler", "--h", repr(EULER_H), "--forcing",
            "shaw", *_flags(SHAW), "--t-end", repr(EULER_T_END), "--out", str(prefix)]


def euler_fine_check(out: Path, prefix: str, seed: int) -> list[str]:
    problems: list[str] = []
    h, m, f_d, f_s = EULER_H, SHAW["m"], SHAW["fd"], SHAW["fs"]
    osc = shaw_oscillator()
    rows = np.loadtxt(out / f"{prefix}.txt", ndmin=2)
    t, x, v, fr, b = rows.T
    n_steps = round(EULER_T_END / h)
    if len(rows) != n_steps + 1:
        problems.append(f"{len(rows)} rows for {n_steps} steps")
        return problems
    if np.any(np.abs(t - h * np.arange(len(t))) > REL_DIGITS * np.abs(t) + 1e-12):
        problems.append("time column is not n h")
    _check_forcing(rows, osc.force, SHAW["beta"] * SHAW["omega"], 1.0, problems)

    ux = REL_DIGITS * np.abs(x)
    uv = REL_DIGITS * np.abs(v)
    err_x = np.abs(x[1:] - (x[:-1] + h * v[:-1]))
    if np.any(err_x > ux[1:] + ux[:-1] + h * uv[:-1] + 1e-14):
        i = int(np.argmax(err_x))
        problems.append(f"x' != x + h v after t={t[i]:.9g}")

    # soft threshold: v' = 0 if |u| <= (h/m) f_s, else u - sign(u) (h/m) f_d
    hm = h / m
    u = v[:-1] + hm * b[:-1]
    du = uv[:-1] + hm * REL_DIGITS * np.abs(b[:-1]) + 1e-14
    slip = u - np.sign(u) * hm * f_d
    as_stick = v[1:] == 0.0
    as_slip = np.abs(v[1:] - slip) <= du + uv[1:]
    must_stick = np.abs(u) < hm * f_s - du
    must_slip = np.abs(u) > hm * f_s + du
    bad = (must_stick & ~as_stick) | (must_slip & ~as_slip) | ~(as_stick | as_slip)
    if np.any(bad):
        i = int(np.argmax(bad))
        problems.append(f"velocity update is not the soft threshold after t={t[i]:.9g}")

    # departures against Shaw's closed-form chain
    got = [float(line.split()[0]) for line in
           (out / f"{prefix}.events.txt").read_text().splitlines()
           if line.split()[1] == "enter_dynamic"]
    want = [e[0] for e in osc.chain(SHAW["x0"], EULER_T_END) if e[1] == "enter_dynamic"]
    lag = EULER_DEPARTURE_H * h
    want = [tw for tw in want if tw < EULER_T_END - lag]
    got = got[:len(want)]
    if len(got) != len(want):
        problems.append(f"{len(got)} departures where the closed form has {len(want)}")
    else:
        worst = max((abs(g - w) for g, w in zip(got, want)), default=0.0)
        if worst > lag:
            problems.append(f"departure {worst / h:.1f} h off the closed form")
    return problems


# --------------------------------------------------------------------------
# thermal-noisy
# --------------------------------------------------------------------------

def thermal_temperature(seed: int) -> NoisyTemperature:
    n = int(math.ceil(THERMAL_T_END / OU_DT)) + 2
    noise = ou_recursion(np.random.default_rng(seed), n, OU_DT)
    return NoisyTemperature(THERMAL["omega"], THERMAL["rho"], noise, OU_DT)


def thermal_noisy_argv(seed: int, prefix: Path) -> list[str]:
    return ["simulate", "--solver", "events", "--forcing", "thermal",
            *_flags(THERMAL), "--seed", str(seed), "--t-end", repr(THERMAL_T_END),
            "--out", str(prefix)]


def thermal_noisy_check(out: Path, prefix: str, seed: int) -> list[str]:
    problems: list[str] = []
    K, beta, f_d, f_s = THERMAL["K"], THERMAL["beta"], THERMAL["fd"], THERMAL["fs"]
    T = thermal_temperature(seed)

    def force(x, t):
        return K * (beta * T(t) - x)

    events = _load_events(out, prefix, problems)
    for t, kind, x, eps in events:
        bval = float(force(x, t))
        if kind == "enter_dynamic" and abs(abs(bval) - f_s) > 1e-6:
            problems.append(f"departure at t={t!r}: |b|-f_s={abs(bval) - f_s:.3g}")
        elif kind == "enter_static" and abs(bval) > f_s + 1e-9:
            problems.append(f"stick entered at t={t!r} with |b|={abs(bval)!r}")
        elif kind == "subphase_boundary" and \
                (abs(bval) <= f_s or eps != (1 if bval >= 0 else -1)):
            problems.append(f"sub-phase boundary at t={t!r} with b={bval!r}")

    rows = np.loadtxt(out / f"{prefix}.txt", ndmin=2)
    _check_forcing(rows, force, K * beta * T.lipschitz(), K, problems)
    _check_rows(rows, events, f_d, f_s, problems)

    subs = _subphases(events)
    picks = sorted(set(np.linspace(0, len(subs) - 1, THERMAL_SUBSET).round().astype(int)))
    for i in picks if subs else []:
        (t0, _, x0, eps), (t1, _, x1, _) = subs[i]
        end = thermal_subphase_end(T, K, beta, 1.0, f_d, t0, x0, eps, t1 + 1.0)
        if end is None or abs(end[0] - t1) > THERMAL_TOL or abs(end[1] - x1) > THERMAL_TOL:
            problems.append(f"sub-phase from t={t0!r} ends at {(t1, x1)!r}, "
                            f"independent integration gives {end!r}")
    return problems


# --------------------------------------------------------------------------
# calibrate-demo
# --------------------------------------------------------------------------

def calibrate_argv(seed: int, prefix: Path) -> list[str]:
    return ["calibrate", "--data", str(RECORD), "--bounds", str(BOUNDS),
            "--budget", str(CAL_BUDGET), "--restarts", "1", "--seed", str(seed),
            "--kbp", repr(CAL_KBP), "--out", str(prefix)]


def _record():
    """(times, temps, z_obs, generating parameters) of the demo record."""
    text = RECORD.read_text()
    header = next(line for line in text.splitlines() if "generating parameters" in line)
    truth = {k: float(v) for k, v in re.findall(r"(\w+)=([-+.\deE]+)", header)}
    times, temps, z = np.loadtxt(RECORD, delimiter=",", comments="#", unpack=True)
    return times, temps, z, truth


def _name_values(path: Path) -> dict[str, float]:
    return {k: float(v) for k, v in
            (line.split("=", 1) for line in path.read_text().splitlines())}


def calibrate_check(out: Path, prefix: str, seed: int):
    """(problems, evaluations, evals_to_fit), the last being the 1-based
    evaluation at which the best residual first reaches FIT_FACTOR x the
    objective at the generating parameters."""
    problems: list[str] = []
    times, temps, z, truth = _record()
    best = _name_values(out / f"{prefix}.best.txt")
    names = ("z0", "K", "beta", "f_d", "f_s")
    fitted = [best[n] for n in names]

    own = calibration_objective(fitted, times, temps, z, CAL_KBP)
    if abs(own - best["residual"]) > 1e-6 * best["residual"]:
        problems.append(f"residual {best['residual']!r} but objective at the "
                        f"fitted parameters is {own!r}")
    for n in ("K", "beta", "f_d", "f_s"):
        if abs(best[n] - truth[n]) > 0.05 * truth[n]:
            problems.append(f"{n}={best[n]!r} more than 5% off {truth[n]!r}")
    if abs(best["z0"] - truth["z0"]) > 0.1 * float(np.ptp(z)):
        problems.append(f"z0={best['z0']!r} more than 10% of the range off")

    history = np.loadtxt(out / f"{prefix}.history.txt", ndmin=2)[:, 1]
    if len(history) != best["evaluations"] or len(history) != CAL_BUDGET:
        problems.append(f"{len(history)} history lines for "
                        f"{best['evaluations']:.0f} evaluations")
    if np.any(np.diff(history) > 0):
        problems.append("history increases")
    if history[-1] != best["residual"]:
        problems.append("history does not end at the residual")
    fit_row = (out / f"{prefix}.fit.txt").read_text().split()
    if len(fit_row) != 7 or float(fit_row[-1]) != best["residual"]:
        problems.append("fit file does not hold the one restart's residual")

    target = FIT_FACTOR * calibration_objective([truth[n] for n in names],
                                                times, temps, z, CAL_KBP)
    reached = np.nonzero(history <= target)[0]
    if len(reached) == 0:
        problems.append(f"best residual never reached {target!r}")
        return problems, len(history), None
    return problems, len(history), int(reached[0]) + 1


def _simulation(check):
    """A simulation's unit of work is one trajectory row, and the checked
    answer needs all of them: (problems, rows, rows)."""
    def checked(out: Path, prefix: str, seed: int):
        with open(out / f"{prefix}.txt", "rb") as fh:
            rows = sum(1 for _ in fh)
        return check(out, prefix, seed), rows, rows
    return checked


# name -> (command arguments for a seed and output prefix, check)
WORKLOADS = {
    "calibrate-demo": (calibrate_argv, calibrate_check),
    "shaw-events": (shaw_events_argv, _simulation(shaw_events_check)),
    "thermal-noisy": (thermal_noisy_argv, _simulation(thermal_noisy_check)),
    "euler-fine": (euler_fine_argv, _simulation(euler_fine_check)),
}
