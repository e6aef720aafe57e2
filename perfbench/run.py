"""Benchmark of the stickslip command line: four workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  NAME is one of calibrate-demo, shaw-events,
thermal-noisy, euler-fine, or ``all``.  A run starts a fresh interpreter
(``worker.py``) that imports ``stickslip.cli`` from ``src/`` and then runs
the workload's one command through ``cli.main`` again and again for S
seconds, each time in a child forked from the imported state (a command that
outlasts S is still finished); the load is one process with one thread.
Two more interpreters only import, so that setup_s is a median of three.
End-to-end times are divided by the host's slowness, timed with a reference
kernel in this process between commands (see ``host_slowness``).  Every
command of a run must write the same bytes; the first one's files are
checked against the oracles in ``workloads.py``.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the commands alternate untraced and
traced, and it holds the per-layer metrics.  Results and spans are kept under
``perfbench/out/``.  Exit code 0 means the run finished (``correct`` may
still be false); 2 means it could not run here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
PREFIX = "run"  # output prefix of a command inside its sample directory
SETUPS = 3  # interpreter starts per run; setup_s is their median
WORKER_GRACE_S = 120.0  # how long one command may run
# The time of reference_kernel() on this host when other tenants are quiet
# (2-core Xeon VM, Python 3.11.7, numpy 2.4.6); times are reported at that speed.
REFERENCE_S = 0.0094


class CannotRun(RuntimeError):
    pass


def _worker_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def reference_kernel() -> float:
    """Fixed interpreted float work plus small numpy kernels, ~10 ms when quiet."""
    x = 0.0
    for i in range(100_000):
        x = x * 0.999 + math.cos(i * 1e-3)
    a = np.arange(100_000, dtype=float)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)
    return x + float(a[-1])


def host_slowness(reps: int = 5) -> float:
    """How many times slower than REFERENCE_S the host runs the kernel now.

    Measured in this process, which never imports the package, so the
    program under test cannot change it.
    """
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / REFERENCE_S


def _start(root: Path, args: list[str]):
    """Start a worker in its own session; return (process, setup seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            cwd=root, env=_worker_env(root), text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            start_new_session=True)
    first = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if first != "ready\n":
        _stop(proc)
        raise CannotRun("stickslip.cli could not be imported from src/")
    return proc, setup_s


def _stop(proc, hung: bool = False) -> None:
    """End a worker and the command it may have forked, and wait for it."""
    if not hung:
        try:
            proc.stdin.close()
            proc.wait(timeout=WORKER_GRACE_S)
            return
        except (OSError, subprocess.TimeoutExpired):
            pass
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def _command(proc, traced: bool) -> str:
    """Run one command in the worker; its report line, "" if the worker is gone."""
    proc.stdin.write("traced\n" if traced else "plain\n")
    proc.stdin.flush()
    ready, _, _ = select.select([proc.stdout], [], [], WORKER_GRACE_S)
    return proc.stdout.readline() if ready else ""


def _digest(directory: Path) -> str:
    """Hash of the command's output files (the benchmark's own files excluded)."""
    h = hashlib.sha256()
    for path in sorted(directory.glob(f"{PREFIX}*")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 root: Path, units: dict[str, str]) -> dict:
    argv_for, check = WORKLOADS[name]
    base = HERE / "out" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)

    argv = argv_for(seed, Path("{out}"))
    # Each time is divided by the host's slowness measured just before it
    # (setups) or around it (commands): the host's speed drifts by 10-25 %
    # within minutes and by up to 2x over an hour with other tenants' load.
    slow = [host_slowness()]
    proc, setup_s = _start(root, [str(base), *argv])
    setups = [setup_s / slow[0]]
    samples, line = [], ""
    start = time.perf_counter()
    try:
        while not samples or time.perf_counter() - start < seconds \
                or (trace and len(samples) < 2):
            line = _command(proc, traced=trace and len(samples) % 2 == 1)
            slow.append(host_slowness())
            samples.append(json.loads(line) if line else None)
            if samples[-1] is not None:
                samples[-1]["scaled_s"] = \
                    samples[-1]["run_s"] / statistics.fmean(slow[-2:])
            if not line:
                break
    finally:
        _stop(proc, hung=not line)
    while len(setups) < SETUPS:
        factor = host_slowness()
        proc, setup_s = _start(root, ["--setup-only"])
        _stop(proc)
        setups.append(setup_s / factor)

    problems: list[str] = []
    digests = set()
    for k, sample in enumerate(samples):
        out = base / f"sample{k}"
        if sample is not None and sample["rc"] == 0:
            digests.add(_digest(out))
            if sample["traced"] and not (base / "spans.jsonl").exists():
                shutil.copy(out / "spans.jsonl", base / "spans.jsonl")
    ok = [s for s in samples if s is not None and s["rc"] == 0]
    failed = len(samples) - len(ok)
    work = to_fit = None
    if samples[0] is not None and samples[0]["rc"] == 0:
        try:
            problems, work, to_fit = check(base / "sample0", PREFIX, seed)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            # output too malformed to check counts as wrong output
            problems = [f"output could not be checked: {exc!r}"]
    else:
        problems.append("the first command failed, so its output was not checked")
    if len(digests) > 1:
        problems.append(f"the commands of one run wrote {len(digests)} different outputs")
    for k in range(len(samples)):
        shutil.rmtree(base / f"sample{k}", ignore_errors=True)
    for problem in problems:
        print(f"{name}: {problem}", file=sys.stderr)

    plain = [s for s in ok if not s["traced"]]
    traced = [s for s in ok if s["traced"]]
    med = statistics.median
    if not trace:
        values = {"setup_s": med(setups), "evals_to_fit": to_fit}
        if plain:
            values["run_s"] = med(s["scaled_s"] for s in plain)
            values["peak_rss_mb"] = med(s["peak_rss_mb"] for s in plain)
            if work:
                values["evals_per_s"] = med(work / s["scaled_s"] for s in plain)
    else:
        values = {key: med(s["layers"][key] for s in traced)
                  for key in (traced[0]["layers"] if traced else ())}
        if traced:
            values["cli.bytes_written"] = med(s["bytes_written"] for s in traced)
        if traced and plain:
            values["trace_overhead_s"] = med(s["run_s"] for s in traced) \
                - med(s["run_s"] for s in plain)
    result = {
        "correct": not problems and failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in units.items() if values.get(key) is not None},
    }
    (base / "result.json").write_text(json.dumps(
        {**result, "host_slowness": slow,
         "wall_run_s": [s["run_s"] for s in plain]}, indent=1) + "\n")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = HERE.parent
    if not (root / "src" / "stickslip" / "cli.py").is_file():
        print("error: run from a checkout of the repository root "
              "(src/stickslip not found)", file=sys.stderr)
        return 2
    # the metric names and units the benchmark declares
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds,
                                      bool(args.trace), root, units)
                   for name in names}
    except CannotRun as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for key, metric in res["metrics"].items():
            print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{key}": metric for name, res in results.items()
                    for key, metric in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
