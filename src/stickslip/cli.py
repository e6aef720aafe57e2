"""Command-line frontend.

Three commands: ``simulate`` runs one of the solvers and writes plottable
column files, ``calibrate`` fits model parameters to a measured record, and
``ou-gen`` writes a noise path.  Numbers are emitted as ``%.9g`` (see
``_rows``), whitespace-separated, so seeded runs are byte-reproducible.

Trajectory files carry columns (t, x, v, friction, b) at indices 0-4;
``--split-phases`` additionally writes one file per stick/slip segment
(``<prefix>_s1.txt``, ``<prefix>_d1.txt``, ...) cut from the unsplit file's
text, so their concatenation equals it.
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import islice
from pathlib import Path

import numpy as np

from ._rows import _FMT, write_rows
from .calibrate import _DE_POP_PER_DIM, PARAM_NAMES, CalibrationProblem, calibrate
from .euler import EulerConfig, simulate_euler
from .events import _scan_step, simulate_events
from .model import (
    Drive,
    FrictionParams,
    PhaseLabel,
    SolverCapError,
    TemperatureSpringForcing,
    Trajectory,
    horizon,
)
from .noise import SeriesParseError, _parse_columns, load_temperature_series, \
    ou_path, perturbed_temperature
from .quasistatic import simulate_quasistatic

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SOLVER = 4

# the most Euler steps, scan steps or noise samples one command may ask for,
# checked before anything of that size is allocated or stepped
MAX_SAMPLES = 10_000_000
# the least value of each counting flag; a --budget fills the DE's population,
# and numpy's generators take no negative --seed
_LEAST = {"restarts": 1, "record_every": 1, "n": 2, "seed": 0,
          "budget": _DE_POP_PER_DIM * (len(PARAM_NAMES) - 1)}


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Parse errors as one-line config errors; subparsers share the class."""

    def error(self, message):
        raise ConfigError(message)


# --------------------------------------------------------------------------
# Trajectory / event file IO
# --------------------------------------------------------------------------

def write_trajectory(path: Path, traj: Trajectory, header: bool = False) -> None:
    with open(path, "wb") as fh:
        if header:
            fh.write(b"# t x v friction b\n")
        write_rows(fh, (traj.t, traj.x, traj.v, traj.friction, traj.b))


def write_events(path: Path, traj: Trajectory, header: bool = False) -> None:
    with open(path, "w") as fh:
        if header:
            fh.write("# time kind position epsilon\n")
        for e in traj.events:
            fh.write(f"{_FMT % e.time} {e.kind.value} {_FMT % e.position} "
                     f"{e.epsilon:d}\n")


def write_split_segments(prefix: Path, traj: Trajectory, text: Path,
                         header: bool = False) -> list[Path]:
    """One file per consecutive same-phase segment, numbered per phase: its
    lines of ``text``, the file write_trajectory wrote for traj."""
    paths = []
    counts = {PhaseLabel.STATIC.value: 0, PhaseLabel.DYNAMIC.value: 0}
    tag = {PhaseLabel.STATIC.value: "s", PhaseLabel.DYNAMIC.value: "d"}
    cuts = [0, *(np.flatnonzero(np.diff(traj.phase)) + 1).tolist(), len(traj.phase)]
    with open(text, "rb") as rows:
        head = rows.readline() if header else b""
        for start, end in zip(cuts, cuts[1:]):
            phase = int(traj.phase[start])
            counts[phase] += 1
            path = prefix.with_name(f"{prefix.name}_{tag[phase]}{counts[phase]}.txt")
            with open(path, "wb") as fh:
                fh.write(head)
                fh.writelines(islice(rows, end - start))
            paths.append(path)
    return paths


# --------------------------------------------------------------------------
# Argument handling
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stickslip",
        description="Stick/slip friction oscillator simulation and calibration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a solver and write column files")
    sim.add_argument("--config", type=Path, help="key=value defaults file")
    sim.add_argument("--solver", choices=("euler", "events", "quasistatic"),
                     default="events")
    sim.add_argument("--forcing", choices=("shaw", "thermal"), default="thermal",
                     help="the drive T: the cosine alone (shaw), or the --temps "
                          "record or the cosine plus --rho noise (thermal)")
    sim.add_argument("--m", type=float, default=1.0)
    sim.add_argument("--fd", type=float, default=1.0)
    sim.add_argument("--fs", type=float, default=1.2)
    sim.add_argument("--alpha", type=float, default=0.0,
                     help="viscous damping c = 2*alpha, for either drive")
    sim.add_argument("--beta", type=float, default=6.0,
                     help="dilatation: the spring pulls toward beta*T")
    sim.add_argument("--K", type=float, default=1.0,
                     help="spring stiffness, for either drive")
    sim.add_argument("--omega", type=float,
                     help="angular frequency of the cosine drive (default 0.25)")
    sim.add_argument("--x0", type=float, default=0.0)
    sim.add_argument("--t-end", type=float, required=True)
    sim.add_argument("--h", type=float, help="step size (--solver euler only)")
    sim.add_argument("--rho", type=float, default=0.0,
                     help="noise amplitude on the thermal cosine")
    sim.add_argument("--ou-dt", type=float,
                     help="noise step at rho != 0 (default: euler's h, else 0.01)")
    sim.add_argument("--temps", type=Path,
                     help="sampled temperature file (time, temperature)")
    sim.add_argument("--record-every", type=int, default=1,
                     help="record every n-th step (--solver euler only)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", type=Path, required=True)
    sim.add_argument("--split-phases", action="store_true")
    sim.add_argument("--header", action="store_true")

    cal = sub.add_parser("calibrate", help="fit parameters to a record")
    cal.add_argument("--config", type=Path)
    cal.add_argument("--data", type=Path, nargs="+", required=True,
                     help="3-column (t, T, z) file, or two 2-column files")
    cal.add_argument("--bounds", type=Path, required=True,
                     help="file of lines: name lo hi")
    cal.add_argument("--budget", type=int, default=20000)
    cal.add_argument("--restarts", type=int, default=1)
    cal.add_argument("--seed", type=int, default=0)
    cal.add_argument("--kbp", type=float,
                     help="bearing-point shear stiffness (default 2e6)")
    cal.add_argument("--shear-force", choices=("friction", "zero"),
                     default="friction", help="zero: a rigid bearing, no --kbp")
    cal.add_argument("--out", type=Path, required=True)
    cal.add_argument("--header", action="store_true")

    ou = sub.add_parser("ou-gen", help="write an Ornstein-Uhlenbeck path")
    ou.add_argument("--config", type=Path)
    ou.add_argument("--n", type=int, required=True)
    ou.add_argument("--dt", type=float, required=True)
    ou.add_argument("--seed", type=int, default=0)
    ou.add_argument("--out", type=Path, required=True)
    ou.add_argument("--header", action="store_true")
    return parser


def _check_numbers(args) -> None:
    """Reject a non-finite number in any float flag, a --t-end, --h, --ou-dt,
    --dt or --kbp that is not positive, and a counting flag below its _LEAST
    value."""
    for name, value in vars(args).items():
        flag = "--" + name.replace("_", "-")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
        if name in ("t_end", "h", "ou_dt", "dt", "kbp") and value is not None \
                and value <= 0:
            raise ConfigError(f"{flag} must be positive, got {value}")
        least = _LEAST.get(name)
        if least is not None and value < least:
            raise ConfigError(f"{flag} must be at least {least}, got {value}")


def _check_size(flags: str, size: float, what: str) -> None:
    """Reject a request for more than MAX_SAMPLES steps or samples."""
    if size > MAX_SAMPLES:
        raise ConfigError(f"{flags}: {size:.3g} {what} requested, above the "
                          f"cap of {MAX_SAMPLES}")


def _noise_path(flag: str, n: int, dt: float, seed: int) -> Drive:
    """:func:`ou_path`, with a step it refuses reported against ``flag``."""
    try:
        return ou_path(n, dt, seed)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def _merge_config(argv: list[str]) -> list[str]:
    """Prepend key=value file entries as flags; explicit flags win.  argparse
    finds the path, so every spelling it accepts applies the file:
    ``--config FILE``, ``--config=FILE`` or ``--conf FILE``."""
    find = _Parser(add_help=False)
    find.add_argument("--config", type=Path)
    cfg_path = find.parse_known_args(argv)[0].config
    if cfg_path is None:
        return argv
    if not cfg_path.exists():
        raise ConfigError(f"config file not found: {cfg_path}")
    extra: list[str] = []
    for raw in cfg_path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"malformed config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if value.lower() in ("true", "yes", "1") and key in (
                "split-phases", "split_phases", "header"):
            extra.append(flag)
        elif value.lower() in ("false", "no", "0") and key in (
                "split-phases", "split_phases", "header"):
            continue
        else:
            extra.extend([flag, value])
    return [argv[0]] + extra + argv[1:]


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def _drive(args) -> Drive:
    """The temperature drive: the --temps record, or cos(omega t) + rho v(t)
    with v a noise path; ``--forcing shaw`` is the cosine alone."""
    if args.forcing == "shaw" and (args.temps is not None or args.rho != 0.0):
        raise ConfigError("--forcing shaw is the cosine drive alone: it takes "
                          "no --temps and no --rho")
    if args.ou_dt is not None and (args.temps is not None or args.rho == 0.0):
        raise ConfigError("--ou-dt spaces the noise of a nonzero --rho, not --temps")
    if args.temps is not None and (args.rho != 0.0 or args.omega is not None):
        raise ConfigError("--temps is the whole drive: it takes no --rho and no --omega")
    if args.temps is not None:
        if not args.temps.exists():
            raise SeriesParseError(f"temperature file not found: {args.temps}")
        with open(args.temps) as fh:
            T = load_temperature_series(fh)
        if T.knots[0] > 0:
            raise SeriesParseError(f"{args.temps}: the record starts at "
                                   f"t = {T.knots[0]:g}, after t = 0")
        return T
    path = None  # at rho = 0 the drive reads no noise
    if args.rho != 0.0:
        ou_dt, flag = args.ou_dt, "--ou-dt"
        if ou_dt is None:
            ou_dt = args.h or 0.01  # only an Euler run takes an --h
            flag = "--ou-dt (an Euler run takes --h as its default)"
        _check_size("--t-end and --ou-dt", args.t_end / ou_dt + 2, "noise samples")
        n = int(math.ceil(args.t_end / ou_dt)) + 2
        path = _noise_path(flag, n, ou_dt, args.seed)
    return perturbed_temperature(0.25 if args.omega is None else args.omega,
                                 args.rho, path)


def _check_scan(forcing: TemperatureSpringForcing, p: FrictionParams,
                t_end: float, stick_rows: bool) -> None:
    """Reject a run whose scan grid has more than MAX_SAMPLES points: the
    event engine's stick rows, or the departure grid of a drive that is not a
    bare table (a table alone is scanned at its knots).  Both step by
    :func:`_scan_step` at the run's mass."""
    if stick_rows or forcing.T.terms or forcing.T.knots is None:
        _check_size("--t-end, --m, --K and --omega",
                    horizon(t_end, forcing.T) / _scan_step(forcing, p),
                    "scan steps")


def _check_finite(traj: Trajectory) -> None:
    """Refuse a solution that holds a non-finite number, as a force overflowed
    by large flags gives; one column at a time, so no copy of the record is
    made."""
    rows = [int(ok.argmin()) for ok in map(np.isfinite, (
        traj.t, traj.x, traj.v, traj.friction, traj.b)) if not ok.all()]
    times = [float(traj.t[min(rows)])] if rows else []
    times += [e.time for e in traj.events
              if not (math.isfinite(e.time) and math.isfinite(e.position))]
    if times:
        raise SolverCapError(f"the solution is not finite from t = {min(times):.9g}; "
                             f"reduce --K, --beta or --x0")


def run_simulate(args) -> int:
    for flag, value, default in (("--record-every", args.record_every, 1),
                                 ("--h", args.h, None)):
        if args.solver != "euler" and value != default:
            raise ConfigError(f"{flag} applies to --solver euler only, got "
                              f"{value} with --solver {args.solver}")
    p = FrictionParams(m=args.m, f_d=args.fd, f_s=args.fs)
    forcing = TemperatureSpringForcing(K=args.K, beta=args.beta, T=_drive(args),
                                       c=2.0 * args.alpha)

    # an overflowing force is refused after the solve, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        if args.solver == "euler":
            if not args.h:
                raise ConfigError("euler solver requires --h")
            # the most steps that stay within the horizon; the relative slack
            # keeps a whole quotient such as 65/1e-3 whole under rounding
            steps = horizon(args.t_end, forcing.T) / args.h * (1 + 1e-9)
            _check_size("--t-end and --h", steps + 1, "Euler steps")
            n_steps = math.floor(steps)
            if n_steps * args.h > forcing.T.t_max:  # keep the last step on the record
                n_steps -= 1
            if n_steps < 1:
                raise ConfigError(f"--h {args.h} is longer than the run's horizon")
            cfg = EulerConfig(h=args.h, n_steps=n_steps,
                              record_every=args.record_every)
            traj = simulate_euler(args.x0, forcing, p, cfg)
        elif args.solver == "events":
            _check_scan(forcing, p, args.t_end, stick_rows=True)
            traj = simulate_events(args.x0, forcing, p, args.t_end)
        else:
            _check_scan(forcing, p, args.t_end, stick_rows=False)
            traj = simulate_quasistatic(args.x0, forcing, p, args.t_end)
    _check_finite(traj)

    out: Path = args.out
    text = out.with_name(out.name + ".txt")
    write_trajectory(text, traj, header=args.header)
    write_events(out.with_name(out.name + ".events.txt"), traj,
                 header=args.header)
    if args.split_phases:
        write_split_segments(out, traj, text, header=args.header)
    return EXIT_OK


def _load_record(paths: list[Path]) -> tuple[Drive, np.ndarray]:
    """The temperature record as a drive's table, and the displacements."""
    for path in paths:
        if not path.exists():
            raise SeriesParseError(f"data file not found: {path}")
    if len(paths) == 1:
        with open(paths[0]) as fh:
            t, temp, z = _parse_columns(fh, 3)
    elif len(paths) == 2:
        with open(paths[0]) as fh:
            t, temp = _parse_columns(fh, 2)
        with open(paths[1]) as fh:
            t_z, z = _parse_columns(fh, 2)
        if not np.array_equal(t, t_z):
            raise SeriesParseError("temperature and displacement times differ")
    else:
        raise ConfigError("--data takes one 3-column file or two 2-column files")
    return Drive(knots=t, values=temp), z


def _load_bounds(path: Path) -> dict[str, tuple[float, float]]:
    if not path.exists():
        raise SeriesParseError(f"bounds file not found: {path}")
    bounds: dict[str, tuple[float, float]] = {}
    first_line: dict[str, int] = {}
    for line_no, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").replace("=", " ").split()
        if len(parts) != 3:
            raise SeriesParseError(f"expected 'name lo hi': {raw!r}", line_no)
        name = parts[0]
        if name not in PARAM_NAMES:
            raise SeriesParseError(
                f"unknown parameter {name!r} (expected {PARAM_NAMES})", line_no)
        if name in first_line:
            raise SeriesParseError(f"{name!r} is bounded twice, first on line "
                                   f"{first_line[name]}", line_no)
        first_line[name] = line_no
        try:
            bounds[name] = (float(parts[1]), float(parts[2]))
        except ValueError:
            raise SeriesParseError(f"non-numeric bound in {raw!r}", line_no)
    return bounds


def run_calibrate(args) -> int:
    if args.shear_force == "zero" and args.kbp is not None:
        raise ConfigError("--shear-force zero is a rigid bearing: it takes no --kbp")
    K_BP = math.inf if args.shear_force == "zero" else \
        2.0e6 if args.kbp is None else args.kbp
    temps, displs = _load_record(args.data)
    bounds = _load_bounds(args.bounds)
    out: Path = args.out

    results = []
    for r in range(args.restarts):
        prob = CalibrationProblem(temps=temps, displs=displs, bounds=bounds,
                                  K_BP=K_BP, budget=args.budget,
                                  seed=args.seed + r)
        results.append(calibrate(prob))

    with open(out.with_name(out.name + ".fit.txt"), "wb") as fh:
        if args.header:
            fh.write(b"# run z0 K f_d f_s beta residual\n")
        rows = []
        for r, res in enumerate(results):
            q = res.params
            rows.append((r, q.z0, q.K, q.f_d, q.f_s, q.beta, res.residual))
        write_rows(fh, np.array(rows).T)
    best = min(results, key=lambda res: res.residual)
    with open(out.with_name(out.name + ".best.txt"), "w") as fh:
        for name, value in zip(PARAM_NAMES, best.params):
            fh.write(f"{name}={_FMT % value}\n")
        fh.write(f"residual={_FMT % best.residual}\n")
        fh.write(f"evaluations={best.evaluations}\n")
    with open(out.with_name(out.name + ".history.txt"), "wb") as fh:
        if args.header:
            fh.write(b"# eval best_residual\n")
        write_rows(fh, (np.arange(len(best.history)), best.history))
    return EXIT_OK


def run_ou_gen(args) -> int:
    _check_size("--n", args.n, "noise samples")
    path = _noise_path("--dt", args.n, args.dt, args.seed)
    out: Path = args.out
    with open(out.with_name(out.name + ".txt"), "wb") as fh:
        if args.header:
            fh.write(b"# t v\n")
        write_rows(fh, (path.knots, path.values))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _merge_config(argv)
        args = parser.parse_args(argv)
        _check_numbers(args)
        if not args.out.parent.is_dir():  # checked before any work is done
            raise ConfigError(f"--out {args.out}: {args.out.parent} is not "
                              f"an existing directory")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK

    try:
        if args.command == "simulate":
            return run_simulate(args)
        if args.command == "calibrate":
            return run_calibrate(args)
        return run_ou_gen(args)
    except SeriesParseError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SolverCapError as exc:
        print(f"solver diagnostic: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
