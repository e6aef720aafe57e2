import contextlib
import filecmp
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stickslip import (FrictionParams, PhaseLabel, SeriesParseError,
                       TemperatureSpringForcing, Trajectory, cli, ou_path,
                       perturbed_temperature, quasistatic, simulate_events,
                       simulate_quasistatic)
from stickslip.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_SOLVER,
    main,
)


SRC = Path(__file__).resolve().parent.parent / "src"


def read_trajectory(path: Path) -> Trajectory:
    """Parse a trajectory column file back; phase is inferred from the
    stick signature v = 0 and friction = b."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                rows.append([float(tok) for tok in line.split()])
    data = np.array(rows)
    if data.ndim != 2 or data.shape[1] != 5:
        raise SeriesParseError("expected 5 columns (t x v friction b)")
    t, x, v, fr, b = data.T
    static = (v == 0.0) & (fr == b)
    phase = np.where(static, PhaseLabel.STATIC.value,
                     PhaseLabel.DYNAMIC.value).astype(np.int8)
    return Trajectory(t=t, x=x, v=v, friction=fr, b=b, phase=phase)


def _pythonpath_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run(tmp_path, *args):
    return main([str(a) for a in args])


def run_module(*args, timeout=60):
    """``python -m stickslip ARGS`` in a fresh interpreter; fails on a hang."""
    return subprocess.run([sys.executable, "-m", "stickslip",
                           *(str(a) for a in args)],
                          env=_pythonpath_env(), capture_output=True, text=True,
                          timeout=timeout)


def simulate_args(out, **overrides):
    base = dict(solver="events", forcing="shaw", m=1, fd=1, fs=1.2, alpha=0,
                beta=6, omega=0.25, x0=6)
    base.update(overrides)
    args = ["simulate"]
    for key, value in base.items():
        args.extend([f"--{key.replace('_', '-')}", str(value)])
    args.extend(["--t-end", str(overrides.get("t_end", 26))])
    args.extend(["--out", str(out)])
    return [a for a in args if a]


class TestSimulateCommand:
    def test_writes_trajectory_and_events(self, tmp_path):
        out = tmp_path / "case1"
        rc = main(["simulate", "--solver", "events", "--forcing", "shaw",
                   "--x0", "6", "--t-end", "26", "--out", str(out)])
        assert rc == EXIT_OK
        assert (tmp_path / "case1.txt").exists()
        assert (tmp_path / "case1.events.txt").exists()

    def test_round_trip(self, tmp_path):
        out = tmp_path / "case1"
        main(["simulate", "--solver", "events", "--forcing", "shaw",
              "--x0", "6", "--t-end", "26", "--out", str(out)])
        traj = read_trajectory(tmp_path / "case1.txt")
        data = np.loadtxt(tmp_path / "case1.txt")
        # parses back to the same samples at printed precision
        assert np.array_equal(data[:, 0], traj.t)
        assert np.array_equal(data[:, 1], traj.x)
        assert np.array_equal(data[:, 4], traj.b)

    def test_split_segments_concatenate(self, tmp_path):
        out = tmp_path / "case1"
        main(["simulate", "--solver", "events", "--forcing", "shaw",
              "--x0", "6", "--t-end", "26", "--out", str(out),
              "--split-phases"])
        whole = (tmp_path / "case1.txt").read_text().splitlines()
        segments = sorted(tmp_path.glob("case1_*.txt"))
        assert len(segments) == 5  # s1 d1 s2 d2 s3
        rows = []
        order = ["case1_s1.txt", "case1_d1.txt", "case1_s2.txt",
                 "case1_d2.txt", "case1_s3.txt"]
        for name in order:
            rows.extend((tmp_path / name).read_text().splitlines())
        assert rows == whole

    def test_euler_requires_step(self, tmp_path):
        rc = main(["simulate", "--solver", "euler", "--forcing", "shaw",
                   "--x0", "6", "--t-end", "1", "--out", str(tmp_path / "x")])
        assert rc == EXIT_CONFIG

    def test_quasistatic_rejects_harmonic(self, tmp_path):
        # a damped forcing: the quasistatic slip lasts half an undamped period
        rc = main(["simulate", "--solver", "quasistatic", "--forcing", "shaw",
                   "--alpha", "0.1", "--x0", "6", "--t-end", "1",
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_CONFIG

    def test_euler_vs_events_terminal_gap(self, tmp_path):
        main(["simulate", "--solver", "events", "--forcing", "shaw",
              "--x0", "6", "--t-end", "26", "--out", str(tmp_path / "ev")])
        main(["simulate", "--solver", "euler", "--h", "0.005", "--forcing",
              "shaw", "--x0", "6", "--t-end", "26", "--out", str(tmp_path / "eu")])
        x_ev = np.loadtxt(tmp_path / "ev.txt")[-1, 1]
        x_eu = np.loadtxt(tmp_path / "eu.txt")[-1, 1]
        assert 0 < abs(x_ev - x_eu) < 0.05

    def test_thermal_with_sampled_file(self, tmp_path):
        temps = tmp_path / "T.csv"
        temps.write_text("0,0.0\n10,0.5\n20,1.5\n30,2.5\n40,2.0\n")
        rc = main(["simulate", "--solver", "quasistatic", "--forcing", "thermal",
                   "--K", "1", "--beta", "1", "--fd", "0.5", "--fs", "1",
                   "--x0", "0", "--t-end", "40", "--temps", str(temps),
                   "--out", str(tmp_path / "th")])
        assert rc == EXIT_OK
        assert (tmp_path / "th.txt").exists()

    def test_euler_stops_within_t_end(self, tmp_path):
        # 26/0.3 is 86.67: the run takes 86 steps and never passes --t-end
        rc = main(["simulate", "--solver", "euler", "--h", "0.3", "--forcing",
                   "shaw", "--x0", "6", "--t-end", "26",
                   "--out", str(tmp_path / "eu")])
        assert rc == EXIT_OK
        t = np.loadtxt(tmp_path / "eu.txt")[:, 0]
        assert len(t) == 87
        assert t[-1] == 25.8

    @pytest.mark.parametrize("h", ["0.01", "0.3"])
    def test_euler_caps_at_short_temperature_file(self, tmp_path, h):
        # the file ends at t = 5, before --t-end: the run stops on the record
        temps = tmp_path / "T.csv"
        temps.write_text("0,0.0\n1,0.5\n2,1.5\n3,2.5\n4,2.0\n5,1.0\n")
        rc = main(["simulate", "--solver", "euler", "--h", h, "--forcing",
                   "thermal", "--K", "1", "--beta", "1", "--fd", "0.5",
                   "--fs", "1", "--x0", "0", "--t-end", "20",
                   "--temps", str(temps), "--out", str(tmp_path / "eu")])
        assert rc == EXIT_OK
        t_last = np.loadtxt(tmp_path / "eu.txt")[-1, 0]
        assert 5.0 - float(h) < t_last <= 5.0

    def test_euler_step_longer_than_the_record(self, tmp_path, capsys):
        # a record shorter than one step leaves no step to take
        temps = tmp_path / "T.csv"
        temps.write_text("0,0.0\n0.001,0.5\n")
        rc = main(["simulate", "--solver", "euler", "--h", "0.01", "--forcing",
                   "thermal", "--t-end", "20", "--temps", str(temps),
                   "--out", str(tmp_path / "eu")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == \
            "error: --h 0.01 is longer than the run's horizon\n"
        assert not (tmp_path / "eu.txt").exists()

    def test_euler_records_its_last_step(self, tmp_path):
        # 10 steps of 0.1 at --record-every 4: rows at steps 0, 4, 8 and 10
        rc = main(["simulate", "--solver", "euler", "--forcing", "shaw",
                   "--beta", "6", "--x0", "6", "--h", "0.1", "--t-end", "1",
                   "--record-every", "4", "--out", str(tmp_path / "eu")])
        assert rc == EXIT_OK
        assert np.loadtxt(tmp_path / "eu.txt")[:, 0].tolist() == [0.0, 0.4, 0.8, 1.0]

    def test_quasistatic_event_cap_is_solver_error(self, tmp_path, monkeypatch,
                                                   capsys):
        monkeypatch.setattr(quasistatic, "_MAX_EVENTS", 3)
        temps = tmp_path / "T.csv"
        temps.write_text("0,0.0\n10,0.5\n20,1.5\n30,2.5\n40,2.0\n")
        rc = main(["simulate", "--solver", "quasistatic", "--forcing", "thermal",
                   "--K", "1", "--beta", "1", "--fd", "0.5", "--fs", "1",
                   "--x0", "0", "--t-end", "40", "--temps", str(temps),
                   "--out", str(tmp_path / "th")])
        assert rc == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "exceeded 3 events" in err

    def test_missing_temps_file(self, tmp_path, capsys):
        rc = main(["simulate", "--solver", "quasistatic", "--forcing", "thermal",
                   "--t-end", "40", "--temps", str(tmp_path / "nope.csv"),
                   "--x0", "0", "--out", str(tmp_path / "th")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"data error: temperature file not found: {tmp_path / 'nope.csv'}\n"
        assert "line 0" not in err

    def test_static_forever_single_segment(self, tmp_path):
        # drive stays inside the stick window: one static segment file only
        rc = main(["simulate", "--solver", "events", "--forcing", "thermal",
                   "--K", "1", "--beta", "0.5", "--x0", "0.5", "--omega", "0.25",
                   "--rho", "0", "--fd", "1", "--fs", "1.2", "--t-end", "20",
                   "--out", str(tmp_path / "still"), "--split-phases"])
        assert rc == EXIT_OK
        segments = sorted(p.name for p in tmp_path.glob("still_*.txt"))
        assert segments == ["still_s1.txt"]

    def test_rho_zero_builds_no_noise(self, tmp_path, monkeypatch, capsys):
        # rho = 0 reads no noise, and an --ou-dt that would space one (2e7
        # samples at 1e-6, above the cap) is refused, not built
        def refuse(*args, **kwargs):
            raise AssertionError("a noise path was built at rho = 0")
        monkeypatch.setattr(cli, "ou_path", refuse)
        argv = ["simulate", "--solver", "events", "--forcing", "thermal",
                "--rho", "0", "--t-end", "20", "--out", str(tmp_path / "th")]
        assert main(argv + ["--ou-dt", "1e-6"]) == EXIT_CONFIG
        assert not list(tmp_path.glob("th*"))
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().err == (
            "error: --ou-dt spaces the noise of a nonzero --rho, not --temps\n")
        assert (tmp_path / "th.txt").exists()

    @pytest.mark.parametrize("solver", ["events", "quasistatic", "euler"])
    def test_record_after_t0_is_a_data_error(self, tmp_path, capsys, solver):
        # the run starts at t = 0, where this record holds no temperature
        temps = tmp_path / "late.csv"
        temps.write_text("10,0\n20,1\n30,2\n")
        rc = main(["simulate", "--solver", solver, "--forcing", "thermal",
                   "--temps", str(temps), "--t-end", "30",
                   *(["--h", "0.01"] if solver == "euler" else []),
                   "--out", str(tmp_path / "th")])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {temps}: the record starts at t = 10, after t = 0\n")
        assert not list(tmp_path.glob("th*"))

    def test_rho_zero_ignores_seed(self, tmp_path):
        # with rho = 0 the noise path must not leak into the output
        for seed, name in ((1, "a"), (2, "b")):
            main(["simulate", "--solver", "events", "--forcing", "thermal",
                  "--K", "1", "--beta", "6", "--x0", "6", "--omega", "0.25",
                  "--rho", "0", "--seed", str(seed), "--t-end", "20",
                  "--out", str(tmp_path / name)])
        assert filecmp.cmp(tmp_path / "a.txt", tmp_path / "b.txt", shallow=False)

    def test_config_file_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("solver=events\nforcing=shaw\nx0=6\nt-end=5\n")
        out = tmp_path / "cfg_run"
        rc = main(["simulate", "--config", str(cfg), "--t-end", "3",
                   "--out", str(out)])
        assert rc == EXIT_OK
        data = np.loadtxt(out.with_suffix(".txt"))
        assert data[-1, 0] <= 3.0  # flag overrode the config value

    @pytest.mark.parametrize("spelling", [["--config={}"], ["--conf", "{}"]],
                             ids=["equals", "abbreviated"])
    def test_every_config_spelling_applies_the_file(self, tmp_path, spelling):
        # an Euler run of 5 s at h = 0.01 writes 501 rows; the default events
        # solver on thermal forcing would write 52
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("solver = euler\nh = 0.01\nforcing = shaw\nt_end = 5\n")
        flags = [part.format(cfg) for part in spelling]
        for name, extra in (("given", ["--config", str(cfg)]), ("spelt", flags)):
            rc = main(["simulate", *extra, "--out", str(tmp_path / name)])
            assert rc == EXIT_OK
        assert len((tmp_path / "given.txt").read_text().splitlines()) == 501
        assert (tmp_path / "spelt.txt").read_bytes() == \
            (tmp_path / "given.txt").read_bytes()

    def test_unknown_flag(self, tmp_path):
        rc = main(["simulate", "--frobnicate", "1", "--t-end", "1",
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("extra", [["--temps", "{temps}"], ["--rho", "0.25"]],
                             ids=["temps", "rho"])
    def test_shaw_is_the_cosine_drive_alone(self, tmp_path, capsys, extra):
        temps = tmp_path / "T.csv"
        temps.write_text("0,0.0\n10,0.5\n20,1.5\n")
        flags = [flag.format(temps=temps) for flag in extra]
        rc = main(["simulate", "--forcing", "shaw", *flags, "--t-end", "20",
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: --forcing shaw is the cosine drive alone: it takes no "
            "--temps and no --rho\n")
        assert not list(tmp_path.glob("x*"))

    def test_alpha_damps_the_thermal_spring(self, tmp_path):
        # --alpha is a spring flag: the thermal run is the damped library run
        rc = main(["simulate", "--solver", "events", "--forcing", "thermal",
                   "--alpha", "0.3", "--beta", "6", "--x0", "6", "--t-end", "26",
                   "--out", str(tmp_path / "cli")])
        assert rc == EXIT_OK
        f = TemperatureSpringForcing(K=1.0, beta=6.0, c=0.6,
                                     T=perturbed_temperature(0.25, 0.0, None))
        traj = simulate_events(6.0, f, FrictionParams(m=1.0, f_d=1.0, f_s=1.2),
                               26.0)
        cli.write_trajectory(tmp_path / "lib.txt", traj)
        cli.write_events(tmp_path / "lib.events.txt", traj)
        for suffix in (".txt", ".events.txt"):
            assert (tmp_path / f"cli{suffix}").read_bytes() == \
                (tmp_path / f"lib{suffix}").read_bytes()
        assert len(traj.events) > 2

    def test_quasistatic_takes_the_undamped_harmonic_drive(self, tmp_path):
        # the cosine drive alone is the thermal drive at rho = 0
        for forcing in ("shaw", "thermal"):
            rc = main(["simulate", "--solver", "quasistatic", "--forcing", forcing,
                       "--beta", "6", "--x0", "6", "--t-end", "100",
                       "--out", str(tmp_path / forcing)])
            assert rc == EXIT_OK
        for suffix in (".txt", ".events.txt"):
            assert (tmp_path / f"shaw{suffix}").read_bytes() == \
                (tmp_path / f"thermal{suffix}").read_bytes()

    @pytest.mark.parametrize("solver", ["events", "quasistatic"])
    def test_record_every_is_an_euler_flag(self, tmp_path, capsys, solver):
        rc = main(["simulate", "--solver", solver, "--record-every", "7",
                   "--t-end", "20", "--out", str(tmp_path / "x")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: --record-every applies to --solver euler only, got 7 with "
            f"--solver {solver}\n")
        assert not list(tmp_path.glob("x*"))
        # the default, 1, runs
        assert main(["simulate", "--solver", solver, "--record-every", "1",
                     "--t-end", "20", "--out", str(tmp_path / "x")]) == EXIT_OK

    @pytest.mark.parametrize("solver", ["events", "quasistatic"])
    def test_h_is_an_euler_flag(self, tmp_path, capsys, solver):
        rc = main(["simulate", "--solver", solver, "--h", "0.5", "--t-end", "20",
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: --h applies to --solver euler only, got 0.5 with "
            f"--solver {solver}\n")
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("solver", ["events", "quasistatic", "euler"])
    @pytest.mark.parametrize("drive", ["rho-zero", "temps"])
    def test_ou_dt_needs_a_noise_path(self, tmp_path, capsys, solver, drive):
        temps = tmp_path / "T.csv"
        temps.write_text("0,0\n10,1\n20,0\n")
        rc = main(["simulate", "--solver", solver, "--ou-dt", "0.5", "--t-end",
                   "20", *(["--h", "0.01"] if solver == "euler" else []),
                   *(["--temps", str(temps)] if drive == "temps" else []),
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: --ou-dt spaces the noise of a nonzero --rho, not --temps\n")
        assert not list(tmp_path.glob("x*"))


class TestParseErrors:
    """A fault argparse finds is one line on stderr, not a usage block."""

    @pytest.mark.parametrize("argv,err", [
        (["simulate"], "the following arguments are required: --t-end"),
        (["simulate", "--t-end", "1", "--solver", "bogus"],
         "argument --solver: invalid choice: 'bogus' (choose from 'euler', "
         "'events', 'quasistatic')"),
        (["simulate", "--config"], "argument --config: expected one argument"),
    ], ids=["missing", "choice", "config-path"])
    def test_one_line(self, tmp_path, argv, err):
        proc = run_module(*argv, "--out", tmp_path / "x")
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.splitlines() == [f"error: {err}"]
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_zero(self):
        proc = run_module("simulate", "--help")
        assert proc.returncode == EXIT_OK
        assert "--record-every" in proc.stdout
        assert proc.stderr == ""


class TestEulerBytes:
    """The files of two fine-step Euler runs as sha256 digests: any change in
    the floating-point order of the stepper, the drive or the writers changes
    them."""

    SHAW = ["--forcing", "shaw", "--m", "1", "--fd", "1", "--fs", "1.2",
            "--beta", "6", "--omega", "0.25", "--x0", "6"]
    THERMAL = ["--forcing", "thermal", "--rho", "0.25", "--beta", "6", "--x0", "6"]

    @pytest.mark.parametrize("flags,digests", [
        (SHAW, ("f6e9e1daa7772b288e203d9d5116c5c172905b0ea318eca46c29f0c775083edc",
                "5502d7a7651edbab8afb119d4dff1f2aeb95ebb3a18fbdf40afd0ef8ce7e1af2")),
        (THERMAL, ("9d69a7703f7da8d2082021b84fad344f7f3aff6ff1aa90f74a1873ae8e6d87b5",
                   "2ef21ea4d20dd66988f3c9521938f5ed00daedf92382995145f37012c796e04e")),
    ], ids=["shaw", "thermal-noise"])
    def test_files_are_bit_identical(self, tmp_path, flags, digests):
        rc = main(["simulate", "--solver", "euler", "--h", "1e-3", *flags,
                   "--t-end", "65", "--out", str(tmp_path / "eu")])
        assert rc == EXIT_OK
        assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                     for name in ("eu.txt", "eu.events.txt")) == digests


class TestSolverBytes:
    """The files of quasistatic and event runs as sha256 digests, where no
    benchmark pins them: noisy thermal forcing, and the demo record's
    temperature column as --temps.  Any change in the floating-point order of
    the drive, the departure search, the sub-phase propagator or the writers
    changes them."""

    THERMAL = ["--forcing", "thermal", "--K", "1.0", "--beta", "6.0", "--fd",
               "1.0", "--fs", "1.2", "--x0", "6.0", "--omega", "0.25", "--rho",
               "0.25", "--seed", "0", "--t-end", "300.0"]
    RECORD = ["--temps", "{temps}", "--K", "2e6", "--beta", "1e-4", "--fd",
              "5000", "--fs", "8000"]

    @pytest.mark.parametrize("flags,digests", [
        (["--solver", "quasistatic", *THERMAL],
         ("612caf2de3c550ab07f82ad3a9026aa4e22099fbacdd76e20ff3859f08ec380b",
          "455a435054c63c9fd0a673ea3e5c981d51e0ef02f1dbd8e080ef72c5e07e16a6")),
        (["--solver", "events", *THERMAL],
         ("4b0adc4e2c4c72e7d2bcd66f86c0e00c176aed4b6ae0931ab61e1fa09d46a15f",
          "005971771152d4ee19fe4b386a44107791d2a338fbe2bd85266f7c0c9ba61a9a")),
        (["--solver", "quasistatic", *RECORD, "--x0", "0", "--t-end", "1e9"],
         ("f280be86305d518f0ad1f8a7f18c49bd90948abbb9c7ce206c5cde1ba342e023",
          "26038534ea977153695f3672f7044f8a65073d1a4adc631f45591070e75d332b")),
        # the event engine's stick rows follow its scan step, so the run is
        # short; x0 sits just inside the window, so one slip falls in it
        (["--solver", "events", *RECORD, "--x0", "-0.00399995", "--t-end", "2"],
         ("0b4e90b533c2d8f95b33522688d0376b6256f95cc4c736d48b61b2d5498704c6",
          "c7478835b739d2531a400910c8fbd85d696e66facf9176dcfa1e9ceca26a3bf3")),
    ], ids=["quasistatic-noisy", "events-noisy", "quasistatic-record",
            "events-record"])
    def test_files_are_bit_identical(self, tmp_path, flags, digests):
        record = SRC.parent / "data" / "demo_record.csv"
        temps = tmp_path / "temps.csv"  # its (time, temperature) columns
        temps.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                                 for line in record.read_text().splitlines()
                                 if not line.startswith("#")))
        flags = [flag.format(temps=temps) for flag in flags]
        rc = main(["simulate", *flags, "--out", str(tmp_path / "run")])
        assert rc == EXIT_OK
        assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                     for name in ("run.txt", "run.events.txt")) == digests


class TestNonFiniteSolution:
    """A finite flag large enough to overflow the force gives a one-line
    solver diagnostic and no file: never exit 0 with NaN or inf rows, and no
    numpy warning."""

    @pytest.mark.parametrize("args,t", [
        (["--solver", "events", "--forcing", "thermal", "--K", "10"], "0"),
        (["--solver", "quasistatic", "--forcing", "thermal", "--K", "10"], "0"),
        (["--solver", "euler", "--h", "0.01", "--forcing", "thermal", "--K", "10"],
         "0"),
        (["--solver", "euler", "--h", "0.01", "--forcing", "shaw", "--t-end", "10"],
         "2.67"),
    ], ids=["events", "quasistatic", "euler", "euler-shaw"])
    def test_overflow_is_a_solver_error(self, tmp_path, capsys, recwarn, args, t):
        rc = run(tmp_path, "simulate", "--beta", "1e308",
                 "--t-end", "1", *args, "--out", tmp_path / "r")
        assert rc == EXIT_SOLVER
        assert capsys.readouterr().err == (
            f"solver diagnostic: the solution is not finite from t = {t}; "
            f"reduce --K, --beta or --x0\n")
        assert len(recwarn) == 0
        assert list(tmp_path.iterdir()) == []


class TestNoiseStep:
    """The noise recursion is stable only for 0 < dt < 2, and a noise table
    needs two samples; each bound is a config error naming its flag."""

    @pytest.mark.parametrize("args,err", [
        (["ou-gen", "--n", "1000", "--dt", "2"],
         "error: --dt: the step must satisfy 0 < dt < 2, got 2.0\n"),
        (["ou-gen", "--n", "1000", "--dt", "1e300"],
         "error: --dt: the step must satisfy 0 < dt < 2, got 1e+300\n"),
        (["ou-gen", "--n", "1", "--dt", "0.01"],
         "error: --n must be at least 2, got 1\n"),
        (["simulate", "--rho", "1", "--ou-dt", "5", "--t-end", "20"],
         "error: --ou-dt: the step must satisfy 0 < dt < 2, got 5.0\n"),
        (["simulate", "--solver", "euler", "--h", "5", "--rho", "1",
          "--t-end", "20"],
         "error: --ou-dt (an Euler run takes --h as its default): the step "
         "must satisfy 0 < dt < 2, got 5.0\n"),
    ], ids=["ou-gen-2", "ou-gen-huge", "ou-gen-one", "simulate", "euler-default"])
    def test_refused_naming_the_flag(self, tmp_path, capsys, args, err):
        assert run(tmp_path, *args, "--out", tmp_path / "r") == EXIT_CONFIG
        assert capsys.readouterr().err == err
        assert list(tmp_path.iterdir()) == []


class TestOutDirectory:
    """An --out in a directory that does not exist is refused before any work,
    with one stderr line naming the path."""

    @pytest.mark.parametrize("command", ["simulate", "calibrate", "ou-gen"])
    def test_missing_directory_is_config_error(self, tmp_path, capsys, command):
        out = tmp_path / "missing" / "r"
        data = SRC.parent / "data"
        argv = {"simulate": ["simulate", "--forcing", "shaw", "--t-end", "30"],
                "calibrate": ["calibrate", "--data", data / "demo_record.csv",
                              "--bounds", data / "demo_bounds.txt"],
                "ou-gen": ["ou-gen", "--n", "10", "--dt", "0.1"]}[command]
        assert run(tmp_path, *argv, "--out", out) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: --out {out}: {out.parent} is not an existing directory\n")
        assert list(tmp_path.iterdir()) == []


_FLOATS = [1e-300, 1e-8, 0.0, -1.0, 0.5, 1.0, 6.0, 1e8, 1e300]
_FLOAT_FLAGS = ["--m", "--fd", "--fs", "--alpha", "--beta", "--K", "--omega",
                "--x0", "--rho", "--ou-dt"]


@st.composite
def _commands(draw):
    """simulate or ou-gen argv with extreme but finite numbers."""
    if draw(st.sampled_from(["simulate"] * 3 + ["ou-gen"])) == "ou-gen":
        return ["ou-gen", "--n", draw(st.sampled_from([0, 1, 2, 1000, 10**12])),
                "--dt", draw(st.sampled_from(_FLOATS))]
    solver = draw(st.sampled_from(["events", "quasistatic", "euler"]))
    argv = ["simulate", "--solver", solver,
            "--forcing", draw(st.sampled_from(["shaw", "thermal"])),
            "--t-end", draw(st.sampled_from([1e-300, 0.5, 5.0, 1e300]))]
    if solver == "euler":
        argv += ["--h", draw(st.sampled_from([1e-300, 1e-3, 0.1, 5.0]))]
    for flag in _FLOAT_FLAGS:
        value = draw(st.none() | st.sampled_from(_FLOATS))
        if value is not None:
            argv += [flag, value]
    if draw(st.booleans()):
        argv.append("--split-phases")
    return argv


class TestExitCodeContract:
    """Every command ends in a documented exit code: 0 with finite files and
    a silent stderr, or 2, 3 or 4 with one stderr line and no file."""

    @settings(max_examples=200, deadline=None)
    @given(argv=_commands())
    def test_exit_code_contract(self, argv):
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as mp, \
                warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            mp.setattr(cli, "MAX_SAMPLES", 20_000)  # every admitted run is small
            warnings.simplefilter("always")
            rc = main([str(a) for a in argv] + ["--out", str(Path(tmp) / "r")])
            lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
            files = sorted(Path(tmp).iterdir())
            assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_SOLVER)
            if rc != EXIT_OK:
                assert len(lines) == 1, lines
                assert files == []
                return
            assert lines == []
            assert files
            for path in files:
                for token in path.read_text().split():
                    try:
                        value = float(token)
                    except ValueError:  # an event kind or a header word
                        continue
                    assert math.isfinite(value), (path.name, token)


class TestOuGenCommand:
    def test_deterministic(self, tmp_path):
        for name in ("n1", "n2"):
            main(["ou-gen", "--n", "1000", "--dt", "0.01", "--seed", "9",
                  "--out", str(tmp_path / name)])
        assert filecmp.cmp(tmp_path / "n1.txt", tmp_path / "n2.txt",
                           shallow=False)

    def test_matches_library_path(self, tmp_path):
        main(["ou-gen", "--n", "50", "--dt", "0.1", "--seed", "4",
              "--out", str(tmp_path / "p")])
        data = np.loadtxt(tmp_path / "p.txt")
        lib = ou_path(50, 0.1, 4)
        assert np.allclose(data[:, 1], lib.values, rtol=0, atol=1e-8)


def _write_record(tmp_path, n=900, noise_seed=5):
    from stickslip import corrected_displacement, stick_levels_on_grid
    times = 600.0 * np.arange(n)
    days = times / 86400.0
    temps = 60 * np.sin(2 * np.pi * days / 4) + 5 * np.sin(2 * np.pi * days)
    # the quasistatic stick levels at the samples, and their stick force
    levels = stick_levels_on_grid(temps, 1e-4 * temps[0], 2e6, 1e-4, 5000.0,
                                  8000.0)
    friction = 2e6 * (1e-4 * temps - levels)
    rng = np.random.default_rng(noise_seed)
    z = (0.001 + corrected_displacement(levels, friction, 5e6)) \
        * (1 + 0.01 * rng.standard_normal(n))
    data = tmp_path / "record.csv"
    with open(data, "w") as fh:
        for t, T, zz in zip(times, temps, z):
            fh.write(f"{t},{T},{zz}\n")
    bounds = tmp_path / "bounds.txt"
    bounds.write_text(
        "z0 -0.05 0.05\nK 2e5 8e6\nbeta 2e-5 5e-4\nf_d 1e3 2e4\nf_s 2e3 3e4\n")
    return data, bounds


class TestCalibrateCommand:
    def test_fit_outputs(self, tmp_path):
        data, bounds = _write_record(tmp_path)
        rc = main(["calibrate", "--data", str(data), "--bounds", str(bounds),
                   "--budget", "600", "--restarts", "2", "--seed", "0",
                   "--kbp", "5e6", "--out", str(tmp_path / "fit")])
        assert rc == EXIT_OK
        rows = (tmp_path / "fit.fit.txt").read_text().splitlines()
        assert len(rows) == 2
        best = dict(line.split("=") for line in
                    (tmp_path / "fit.best.txt").read_text().splitlines())
        assert set(best) == {"z0", "K", "beta", "f_d", "f_s", "residual",
                             "evaluations"}
        hist = np.loadtxt(tmp_path / "fit.history.txt")
        assert len(hist) == 600

    def test_deterministic(self, tmp_path):
        data, bounds = _write_record(tmp_path)
        for name in ("f1", "f2"):
            main(["calibrate", "--data", str(data), "--bounds", str(bounds),
                  "--budget", "150", "--seed", "3", "--kbp", "5e6",
                  "--out", str(tmp_path / name)])
        for suffix in (".fit.txt", ".best.txt", ".history.txt"):
            assert filecmp.cmp(tmp_path / ("f1" + suffix),
                               tmp_path / ("f2" + suffix), shallow=False)

    def test_two_file_input(self, tmp_path):
        data, bounds = _write_record(tmp_path)
        rows = np.loadtxt(str(data), delimiter=",")
        tfile = tmp_path / "T.csv"
        zfile = tmp_path / "z.csv"
        np.savetxt(tfile, rows[:, :2], delimiter=",")
        np.savetxt(zfile, rows[:, [0, 2]], delimiter=",")
        rc = main(["calibrate", "--data", str(tfile), str(zfile),
                   "--bounds", str(bounds), "--budget", "150", "--kbp", "5e6",
                   "--out", str(tmp_path / "fit2")])
        assert rc == EXIT_OK

    def test_malformed_data_names_line(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("0,1,2\n600,oops,3\n")
        _, bounds = _write_record(tmp_path)
        rc = main(["calibrate", "--data", str(data), "--bounds", str(bounds),
                   "--budget", "150", "--out", str(tmp_path / "x")])
        assert rc == EXIT_DATA
        assert "line 2" in capsys.readouterr().err

    def test_repeated_time_names_line(self, tmp_path, capsys):
        data = tmp_path / "repeat.csv"
        data.write_text("# t T z\n0,1,2\n600,1.5,3\n600,2,4\n1200,1,2\n")
        _, bounds = _write_record(tmp_path)
        rc = main(["calibrate", "--data", str(data), "--bounds", str(bounds),
                   "--budget", "150", "--out", str(tmp_path / "x")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert "line 4" in err
        assert "line 0" not in err

    @pytest.mark.parametrize("case", ["missing data", "missing bounds",
                                      "no rows", "one row", "times differ"])
    def test_file_level_faults_name_no_line(self, tmp_path, capsys, case):
        data, bounds = _write_record(tmp_path, n=300)
        tfile, zfile = tmp_path / "T.csv", tmp_path / "z.csv"
        tfile.write_text("0,1\n600,2\n1200,3\n")
        zfile.write_text("0,1\n600,2\n1800,3\n")
        files = {"missing data": [tmp_path / "nope.csv"], "times differ":
                 [tfile, zfile]}.get(case, [data])
        if case == "missing bounds":
            bounds = tmp_path / "nope.txt"
        elif case in ("no rows", "one row"):
            data.write_text("# t T z\n" + ("0,1,2\n" if case == "one row" else ""))
        rc = main(["calibrate", "--data", *map(str, files), "--bounds",
                   str(bounds), "--budget", "150", "--out", str(tmp_path / "x")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "line 0" not in err
        assert not err.startswith("data error: line")

    def test_bad_bounds_file(self, tmp_path):
        data, _ = _write_record(tmp_path)
        bad = tmp_path / "badbounds.txt"
        bad.write_text("z0 -0.05 0.05\nnotaparam 0 1\n")
        rc = main(["calibrate", "--data", str(data), "--bounds", str(bad),
                   "--budget", "150", "--out", str(tmp_path / "x")])
        assert rc == EXIT_DATA

    def test_parameter_bounded_twice_names_the_second_line(self, tmp_path,
                                                            capsys):
        data, _ = _write_record(tmp_path)
        twice = tmp_path / "twice.txt"
        twice.write_text("z0 -0.05 0.05\nK 2e5 8e6\nbeta 2e-5 5e-4\n"
                         "f_d 1e3 2e4\nf_s 2e3 3e4\nK 1 2\n")
        rc = main(["calibrate", "--data", str(data), "--bounds", str(twice),
                   "--budget", "150", "--out", str(tmp_path / "x")])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err == (
            "data error: line 6: 'K' is bounded twice, first on line 2\n")
        assert not (tmp_path / "x.fit.txt").exists()

    def test_rigid_bearing_takes_no_kbp(self, tmp_path, capsys):
        data, bounds = _write_record(tmp_path)
        argv = ["calibrate", "--data", str(data), "--bounds", str(bounds),
                "--budget", "150"]
        rc = main(argv + ["--shear-force", "zero", "--kbp", "5e6",
                          "--out", str(tmp_path / "x")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == ("error: --shear-force zero is a rigid "
                                           "bearing: it takes no --kbp\n")
        assert not list(tmp_path.glob("x*"))
        # without --shear-force zero, a missing --kbp is 2e6
        for name, extra in (("default", []), ("given", ["--kbp", "2e6"])):
            assert main(argv + extra + ["--out", str(tmp_path / name)]) == EXIT_OK
        for suffix in (".fit.txt", ".best.txt", ".history.txt"):
            assert filecmp.cmp(tmp_path / ("default" + suffix),
                               tmp_path / ("given" + suffix), shallow=False)

    def test_rigid_bearing_bytes(self, tmp_path):
        # --shear-force zero fits with K_BP = inf; digests taken when it was
        # a mode of its own that skipped the shear term
        data = SRC.parent / "data"
        rc = main(["calibrate", "--data", str(data / "demo_record.csv"),
                   "--bounds", str(data / "demo_bounds.txt"), "--budget", "300",
                   "--seed", "0", "--shear-force", "zero",
                   "--out", str(tmp_path / "z")])
        assert rc == EXIT_OK
        assert {suffix: hashlib.sha256((tmp_path / f"z{suffix}").read_bytes())
                .hexdigest() for suffix in (".fit.txt", ".best.txt",
                                            ".history.txt")} == {
            ".fit.txt":
                "d6b0c7dcc27e1746c9733641d314d90a369ffd49b68a3ae0178157ca0a80f3bc",
            ".best.txt":
                "49360b4e86114911aa4801622595ca75fef9641dc1e4e62a72c5161ba98697f5",
            ".history.txt":
                "82df363f8cf2a098d91c405129aa96487088ea52752a8377de772cb5253e31af",
        }

    def test_budget_below_minimum_is_config_error(self, tmp_path):
        data, bounds = _write_record(tmp_path)
        rc = main(["calibrate", "--data", str(data), "--bounds", str(bounds),
                   "--budget", "10", "--out", str(tmp_path / "x")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("restarts", ["0", "-1"])
    def test_restarts_below_one_is_config_error(self, tmp_path, restarts):
        data = SRC.parent / "data"
        proc = run_module("calibrate", "--data", data / "demo_record.csv",
                          "--bounds", data / "demo_bounds.txt", "--budget", "100",
                          "--restarts", restarts, "--out", tmp_path / "o")
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.splitlines() == [
            f"error: --restarts must be at least 1, got {restarts}"]
        assert list(tmp_path.iterdir()) == []


class TestShippedDataset:
    def test_demo_record_round_trips(self, tmp_path):
        data = Path(__file__).resolve().parent.parent / "data" / "demo_record.csv"
        bounds = data.with_name("demo_bounds.txt")
        if not data.exists():
            pytest.skip("demo dataset not generated")
        rc = main(["calibrate", "--data", str(data), "--bounds", str(bounds),
                   "--budget", "12000", "--restarts", "1", "--seed", "0",
                   "--kbp", "5e6", "--out", str(tmp_path / "demo")])
        assert rc == EXIT_OK
        row = np.loadtxt(tmp_path / "demo.fit.txt")
        _, z0, K, f_d, f_s, beta, _res = row
        assert abs(K - 2e6) / 2e6 < 0.05
        assert abs(beta - 1e-4) / 1e-4 < 0.05
        assert abs(f_d - 5000.0) / 5000.0 < 0.05
        assert abs(f_s - 8000.0) / 8000.0 < 0.05


    def test_demo_script_regenerates_the_shipped_files(self, tmp_path):
        # the demo record is calibrate-demo's input: the noise path, the
        # quasistatic model and the drive must keep reproducing it
        root = SRC.parent
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "make_demo_data.py"),
             str(tmp_path)], env=_pythonpath_env(), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        for name in ("demo_record.csv", "demo_bounds.txt"):
            assert (tmp_path / name).read_bytes() == \
                (root / "data" / name).read_bytes(), name


class TestModuleEntryPoint:
    def test_ou_gen_writes_its_file(self, tmp_path):
        proc = run_module("ou-gen", "--n", "20", "--dt", "0.1", "--seed", "4",
                          "--out", tmp_path / "p")
        assert proc.returncode == EXIT_OK
        data = np.loadtxt(tmp_path / "p.txt")
        assert np.allclose(data[:, 1], ou_path(20, 0.1, 4).values,
                           rtol=0, atol=1e-8)

    def test_bad_flag_is_config_error(self, tmp_path):
        proc = run_module("ou-gen", "--frobnicate", "1", "--out", tmp_path / "p")
        assert proc.returncode == EXIT_CONFIG

    def test_command_line_imports_no_scipy(self):
        # numpy is the only runtime dependency
        proc = subprocess.run(
            [sys.executable, "-c",
             "import stickslip.cli, sys; assert 'scipy' not in sys.modules"],
            env=_pythonpath_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestNonFiniteInput:
    """Non-finite numbers in an input file are data errors naming the line."""

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_events_with_non_finite_temperature(self, tmp_path, bad):
        temps = tmp_path / "T.csv"
        temps.write_text(f"0,0.0\n10,0.5\n20,{bad}\n30,2.5\n40,2.0\n")
        proc = run_module("simulate", "--solver", "events", "--forcing",
                          "thermal", "--K", "1", "--beta", "1", "--fd", "0.5",
                          "--fs", "1", "--x0", "0", "--t-end", "40",
                          "--temps", temps, "--out", tmp_path / "th")
        assert proc.returncode == EXIT_DATA
        assert "line 3" in proc.stderr
        assert not (tmp_path / "th.txt").exists()

    def test_calibrate_with_nan_temperature(self, tmp_path):
        data, bounds = _write_record(tmp_path, n=300)
        rows = data.read_text().splitlines()
        t, _, z = rows[150].split(",")
        rows[150] = f"{t},nan,{z}"
        data.write_text("\n".join(rows) + "\n")
        proc = run_module("calibrate", "--data", data, "--bounds", bounds,
                          "--budget", "150", "--kbp", "5e6",
                          "--out", tmp_path / "fit")
        assert proc.returncode == EXIT_DATA
        assert "line 151" in proc.stderr
        assert not (tmp_path / "fit.best.txt").exists()


class TestBadNumbers:
    """A non-finite float flag, or a --t-end, --h or --ou-dt that is not
    positive, is a config error with a one-line message: never a hang, a
    traceback or NaN rows."""

    @pytest.mark.parametrize("args", [
        ["--solver", "events", "--forcing", "shaw", "--t-end", "inf"],
        ["--solver", "quasistatic", "--forcing", "thermal", "--K", "inf",
         "--t-end", "10"],
        ["--forcing", "thermal", "--t-end", "inf"],
        ["--solver", "euler", "--h", "0.01", "--forcing", "shaw", "--t-end", "inf"],
        ["--beta", "nan", "--t-end", "10"],
        ["--omega", "nan", "--t-end", "10"],
        ["--forcing", "shaw", "--alpha", "nan", "--t-end", "10"],
        ["--x0", "nan", "--t-end", "10"],
        ["--t-end", "-1"],
        ["--ou-dt", "0", "--t-end", "10"],
        ["--solver", "euler", "--h", "-0.01", "--t-end", "10"],
    ])
    def test_simulate_rejects(self, tmp_path, args):
        proc = run_module("simulate", *args, "--out", tmp_path / "r", timeout=30)
        assert proc.returncode == EXIT_CONFIG
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert not (tmp_path / "r.txt").exists()


    @pytest.mark.parametrize("solver,m,K", [
        ("events", "1e-300", "1e300"), ("quasistatic", "1e300", "1e-300")],
        ids=["overflow", "underflow"])
    def test_natural_frequency_out_of_range(self, tmp_path, capsys, solver, m, K):
        # K/m of inf or 0 used to divide by zero in the scan step or the
        # half period: a traceback
        rc = run(tmp_path, "simulate", "--solver", solver, "--forcing", "thermal",
                 "--m", m, "--K", K, "--fd", "0", "--t-end", "1e-300",
                 "--out", tmp_path / "r")
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: the natural frequency sqrt(K/m) is out of range at "
            f"K = {float(K):g}, m = {float(m):g}\n")
        assert list(tmp_path.iterdir()) == []


class TestOneRowRecord:
    """A record of one row has no horizon: a data error, never a run."""

    @pytest.mark.parametrize("solver", ["events", "quasistatic", "euler",
                                        "calibrate"])
    def test_one_row_is_a_data_error(self, tmp_path, capsys, solver):
        record = tmp_path / "one.csv"
        if solver == "calibrate":
            _, bounds = _write_record(tmp_path, n=10)
            record.write_text("# t T z\n0,20,0.001\n")
            argv = ["calibrate", "--data", record, "--bounds", bounds,
                    "--budget", "150"]
        else:
            record.write_text("0,20\n")
            argv = ["simulate", "--solver", solver, "--forcing", "thermal",
                    "--temps", record, "--t-end", "10",
                    *(["--h", "0.01"] if solver == "euler" else [])]
        rc = run(tmp_path, *argv, "--out", tmp_path / "out")
        assert rc == EXIT_DATA
        assert capsys.readouterr().err == \
            "data error: fewer than two data rows\n"
        assert not list(tmp_path.glob("out*"))


class TestSizeCap:
    """Requests for more Euler steps, scan steps or noise samples than
    cli.MAX_SAMPLES are config errors naming the flags, raised before anything
    of that size exists or is stepped."""

    @pytest.fixture(autouse=True)
    def no_allocation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the request reached the allocating call")
        for name in ("ou_path", "simulate_euler", "simulate_events",
                     "simulate_quasistatic"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("args,flags", [
        (["simulate", "--solver", "euler", "--h", "1e-15", "--forcing", "shaw",
          "--t-end", "1000"], "--t-end and --h"),
        (["simulate", "--solver", "euler", "--h", "1e-300", "--forcing", "shaw",
          "--t-end", "1e300"], "--t-end and --h"),
        # 1 001 recorded rows, but 10^12 steps
        (["simulate", "--solver", "euler", "--h", "1e-9", "--record-every",
          "1000000000", "--forcing", "shaw", "--t-end", "1000"], "--t-end and --h"),
        (["simulate", "--forcing", "thermal", "--rho", "1", "--ou-dt", "1e-9",
          "--t-end", "100"], "--t-end and --ou-dt"),
        (["simulate", "--forcing", "thermal", "--rho", "1", "--ou-dt", "1e-300",
          "--t-end", "1e300"], "--t-end and --ou-dt"),
        (["ou-gen", "--n", "1000000000000", "--dt", "0.01"], "--n"),
        # a scan step of 1e-151: numpy's "Maximum allowed size exceeded"
        (["simulate", "--solver", "events", "--forcing", "shaw", "--m", "1e-300",
          "--t-end", "1"], "--t-end, --m, --K and --omega"),
        # a drive period of 6e-9: 10^11 scan steps, a hang
        (["simulate", "--solver", "events", "--forcing", "shaw", "--omega", "1e9",
          "--fs", "100", "--t-end", "10"], "--t-end, --m, --K and --omega"),
        (["simulate", "--solver", "quasistatic", "--forcing", "thermal",
          "--omega", "1e9", "--fs", "100", "--t-end", "10"],
         "--t-end, --m, --K and --omega"),
    ], ids=["euler-rows", "euler-overflow", "euler-steps", "noise",
            "noise-overflow", "ou-gen", "events-mass", "events-omega",
            "quasistatic-omega"])
    def test_over_the_cap_is_config_error(self, tmp_path, capsys, args, flags):
        rc = run(tmp_path, *args, "--out", tmp_path / "r")
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {flags}: ")
        assert f"above the cap of {cli.MAX_SAMPLES}" in err
        assert list(tmp_path.iterdir()) == []

    def test_cap_is_above_every_use(self, tmp_path, monkeypatch):
        # euler-fine writes 65 001 rows, a t = 3000 noise path has 300 002
        # samples, and ou-gen is benchmarked at 10^6; a request at the cap runs
        assert cli.MAX_SAMPLES >= 10**6
        assert run(tmp_path, "ou-gen", "--n", cli.MAX_SAMPLES + 1, "--dt", 0.01,
                   "--out", tmp_path / "p") == EXIT_CONFIG
        monkeypatch.setattr(cli, "ou_path", lambda n, dt, seed: ou_path(2, dt, seed))
        assert run(tmp_path, "ou-gen", "--n", cli.MAX_SAMPLES, "--dt", 0.01,
                   "--out", tmp_path / "p") == EXIT_OK

    def test_record_every_below_one_names_the_flag(self, tmp_path, capsys):
        rc = run(tmp_path, "simulate", "--solver", "euler", "--h", "0.01",
                 "--forcing", "shaw", "--t-end", "1", "--record-every", "0",
                 "--out", tmp_path / "r")
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == \
            "error: --record-every must be at least 1, got 0\n"


class TestBenchmarkTracerHooks:
    """The benchmark's traced runs wrap module-level names of the package;
    a renamed or inlined one would make ``--trace 1`` fail or read zero."""

    @staticmethod
    def _tracer():
        import importlib.util
        path = SRC.parent / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_wrapped_names_exist(self):
        tracer = self._tracer()
        for module, name, _ in tracer.SPANS:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
        for module, name in tracer.COUNTED:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"

    def test_event_layers_record_spans(self, tmp_path, monkeypatch):
        tracer = self._tracer()
        for module, name, _ in tracer.SPANS:  # restored after the test
            monkeypatch.setattr(module, name, getattr(module, name))
        for module, name in tracer.COUNTED:
            monkeypatch.setattr(module, name, getattr(module, name))
        spans = tracer.Tracer()
        spans.install()
        assert run(tmp_path, "simulate", "--solver", "events", "--forcing", "shaw",
                   "--x0", 6.0, "--t-end", 30.0, "--out", tmp_path / "s") == EXIT_OK
        layers = spans.layers()
        assert layers["events.departure_calls"] >= 2
        assert layers["events.subphase_calls"] >= 2
        assert layers["events.event_count"] >= 4
        assert layers["model.eval_forcing_calls"] > 0

    def _install(self, monkeypatch):
        tracer = self._tracer()
        for module, name, _ in tracer.SPANS:  # restored after the test
            monkeypatch.setattr(module, name, getattr(module, name))
        for module, name in tracer.COUNTED:
            monkeypatch.setattr(module, name, getattr(module, name))
        spans = tracer.Tracer()
        spans.install()
        return spans

    def test_sampled_record_run_records_parse_spans(self, tmp_path, monkeypatch):
        spans = self._install(monkeypatch)
        temps = tmp_path / "T.csv"
        temps.write_text("0,0.0\n10,0.5\n20,1.5\n30,2.5\n40,2.0\n")
        assert run(tmp_path, "simulate", "--solver", "events", "--forcing",
                   "thermal", "--K", "1", "--beta", "1", "--fd", "0.5", "--fs", "1",
                   "--x0", "0", "--t-end", "40", "--temps", temps,
                   "--out", tmp_path / "th") == EXIT_OK
        assert spans.calls["cli.parse"] == 1
        assert spans.layers()["cli.parse_s"] > 0

    def test_calibrate_run_records_its_layers(self, tmp_path, monkeypatch):
        data, bounds = _write_record(tmp_path, n=200)
        spans = self._install(monkeypatch)
        assert run(tmp_path, "calibrate", "--data", data, "--bounds", bounds,
                   "--budget", "150", "--kbp", "5e6",
                   "--out", tmp_path / "fit") == EXIT_OK
        layers = spans.layers()
        assert spans.calls["cli.parse"] == 2  # the record and the bounds
        assert layers["cli.parse_s"] > 0
        # the DE evaluates with z0 profiled out, through model_displacement
        # and not objective: one stick-level run per evaluation
        assert layers["quasistatic.stick_levels_calls"] == 150
        assert layers["calibrate.de_self_s"] > 0
