"""Every flag applies or is refused.

The walk reads the flags of each command from ``build_parser()``.  For each
flag and each base command of that command, it runs the base and the base
with that one flag changed, in-process.  The changed run must write other
bytes, or exit 2 with one line.  A flag that is inert in a base on purpose
is listed in ``INERT`` with its reason; a new flag fails the walk until it
is wired in or listed.
"""

import argparse
import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

from stickslip.cli import EXIT_CONFIG, EXIT_OK, build_parser, main

DATA = Path(__file__).resolve().parent.parent / "data"

# (command, base, flag) -> why the flag changes nothing there
INERT = {
    **{("simulate", base, "--seed"): "at --rho 0 the drive reads no noise path"
       for base in ("events", "euler", "quasistatic", "shaw")},
    ("simulate", "record", "--seed"): "a --temps drive reads no noise path",
    **{("simulate", base, "--forcing"): "at --rho 0 and without --temps the "
       "thermal drive is the cosine alone, which is what shaw names"
       for base in ("events", "euler", "quasistatic", "shaw")},
    **{(command, base, "--out"): "it names the files, not their bytes"
       for command, bases in (("simulate", ("events", "euler", "quasistatic",
                                            "shaw", "noisy", "record")),
                              ("calibrate", ("demo",)), ("ou-gen", ("path",)))
       for base in bases},
}

SIM = {"--forcing": "thermal", "--x0": "6", "--t-end": "20"}
BASES = {
    "simulate": {
        "events": {"--solver": "events", **SIM},
        "euler": {"--solver": "euler", "--h": "0.01", **SIM},
        "quasistatic": {"--solver": "quasistatic", **SIM},
        "shaw": {"--solver": "events", **SIM, "--forcing": "shaw"},
        "noisy": {"--solver": "events", **SIM, "--rho": "0.25"},
        "record": {"--solver": "events", **SIM, "--temps": "{temps}"},
    },
    "calibrate": {
        "demo": {"--data": str(DATA / "demo_record.csv"),
                 "--bounds": str(DATA / "demo_bounds.txt"), "--budget": "120",
                 "--kbp": "5e6"},
    },
    "ou-gen": {"path": {"--n": "100", "--dt": "0.1"}},
}
# the changed value of a flag whose default is unset or zero, or a path
CHANGED = {"--h": "0.005", "--ou-dt": "0.05", "--alpha": "0.05", "--rho": "0.1", "--omega": "0.3",
           "--kbp": "1e6", "--temps": "{temps2}", "--data": "{record}",
           "--bounds": "{bounds}", "--config": "{config}", "--out": "{out2}"}
CONFIG = {"simulate": "alpha = 0.05\n", "calibrate": "seed = 4\n", "ou-gen": "seed = 4\n"}


def _flags(command: str) -> list[argparse.Action]:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices[command]._actions
            if a.option_strings and a.dest != "help"]


def _changed(action: argparse.Action, base: dict) -> dict:
    flag = action.option_strings[0]
    value = base.get(flag, action.default)
    new = dict(base)
    if isinstance(action, argparse._StoreTrueAction):
        new[flag] = True
    elif flag in CHANGED:
        new[flag] = CHANGED[flag]
    elif action.choices:
        new[flag] = next(c for c in action.choices if c != value)
    elif action.type is int:
        new[flag] = str(int(value) + 1)
    else:
        new[flag] = repr(0.9 * float(value))
    return new


def _files(tmp: Path, command: str) -> dict:
    temps, temps2 = tmp / "T.csv", tmp / "T2.csv"
    t = np.linspace(0.0, 40.0, 81)
    for path, omega in ((temps, 0.25), (temps2, 0.3)):
        path.write_text("".join(f"{a},{b}\n" for a, b in zip(t.tolist(),
                                                           np.cos(omega * t).tolist())))
    record = tmp / "record.csv"  # the demo record's first 3 000 samples
    record.write_text("".join((DATA / "demo_record.csv").read_text()
                              .splitlines(keepends=True)[:3000]))
    bounds = tmp / "bounds.txt"
    bounds.write_text(_narrowed_bounds())
    config = tmp / "cfg.txt"  # a flag each base leaves at its default
    config.write_text(CONFIG[command])
    return {"temps": temps, "temps2": temps2, "record": record, "bounds": bounds,
            "config": config}


def _narrowed_bounds() -> str:
    """The demo bounds with every box halved about its middle."""
    lines = []
    for raw in (DATA / "demo_bounds.txt").read_text().splitlines():
        parts = raw.split("#", 1)[0].split()
        if len(parts) == 3:
            lo, hi = float(parts[1]), float(parts[2])
            mid, half = (lo + hi) / 2, (hi - lo) / 4
            raw = f"{parts[0]} {mid - half!r} {mid + half!r}"
        lines.append(raw)
    return "\n".join(lines) + "\n"


def _run(command: str, args: dict, files: dict, out: Path):
    fill = {**files, "out2": out.parent / "renamed"}
    argv = [command]
    for flag, value in args.items():
        if value is True:
            argv.append(flag)
        elif value is not None:
            argv += [flag, value.format(**fill)]
    argv += ["--out", str(out)] if "--out" not in args else []
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    prefix = Path(fill["out2"] if args.get("--out") else out).name
    written = {p.name[len(prefix):]: p.read_bytes()
               for p in sorted(out.parent.iterdir())}
    return rc, err.getvalue().splitlines(), written


@pytest.mark.parametrize("command", list(BASES))
def test_every_flag_applies_or_is_refused(tmp_path, command):
    files = _files(tmp_path, command)
    inert = set()
    for name, base in BASES[command].items():
        run_dir = tmp_path / f"{name}-base"
        run_dir.mkdir()
        rc, err, want = _run(command, base, files, run_dir / "run")
        assert (rc, err) == (EXIT_OK, []), (name, err)
        for action in _flags(command):
            flag = action.option_strings[0]
            run_dir = tmp_path / f"{name}{flag}"
            run_dir.mkdir()
            rc, err, got = _run(command, _changed(action, base), files, run_dir / "run")
            if rc == EXIT_CONFIG and len(err) == 1 and not got:
                continue  # refused
            assert (rc, err) == (EXIT_OK, []), (name, flag, err)
            if got == want:
                inert.add((command, name, flag))
    listed = {key for key in INERT if key[0] == command}
    assert inert == listed
