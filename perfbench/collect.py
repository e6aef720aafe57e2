"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 0-9 --seconds 12 --trace 0 \
        --out perfbench/reference/baseline.json

For every workload and seed it runs ``run.py`` once, in turn, and records the
result.  Per workload and metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median.
The output also records the environment the figures were taken in.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = [w["name"] for w in
             json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]]


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "cores": os.cpu_count(),
    }


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="range such as 0-9")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    summary = {"environment": environment(), "seconds": args.seconds,
               "trace": args.trace, "workloads": {}}
    for name in args.workloads:
        runs = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=HERE.parent, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr)
        metrics = {key: summarise([r["metrics"][key]["value"] for r in runs])
                   for key in runs[0]["metrics"]}
        summary["workloads"][name] = {
            "correct": all(r["correct"] for r in runs),
            "failed_share": [r["failed"] / r["attempted"] for r in runs],
            "metrics": metrics,
        }
        for key, m in metrics.items():
            spread = m.get("spread")
            print(f"{name:15s} {key:32s} median {m['median']:<12.6g}"
                  + (f" spread {spread:.4f}" if spread is not None else ""))
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
