"""One benchmark process: import the package once, then time forked commands.

    python3 perfbench/worker.py <run_dir> <cli args...>
    python3 perfbench/worker.py --setup-only

The first line on stdout is ``ready``, written as soon as ``stickslip.cli``
is imported, so the parent can time interpreter start plus import.  Then,
for each line ``plain`` or ``traced`` the parent sends on stdin, the worker
runs the command once in a child forked from the freshly imported state, so
every command starts where a new command-line process starts after its
import and none inherits caches from an earlier one, and answers with one
JSON report line.  The worker has one thread, which makes the fork safe.
Command k writes its outputs under ``<run_dir>/sample<k>/``: the ``{out}``
argument is replaced by the output prefix there.  A traced child wraps the
layer functions first (see ``tracer.py``) and writes its spans to
``spans.jsonl``.
"""

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def run_command(cli, argv: list[str], out_dir: Path, traced: bool) -> dict:
    """Run one command in this (child) process and report on it."""
    # The simulate commands hand their trajectory to write_events; keep its
    # events so they can be checked at full precision after the timed region.
    captured = {}
    write_events = cli.write_events

    def keep_events(path, traj, header=False):
        captured["events"] = traj.events
        return write_events(path, traj, header)

    cli.write_events = keep_events
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    t0 = time.perf_counter()
    rc = cli.main(argv)
    run_s = time.perf_counter() - t0

    report = {
        "rc": rc,
        "traced": traced,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bytes_written": sum(p.stat().st_size for p in out_dir.iterdir()),
    }
    if tracer is not None:
        report["layers"] = tracer.layers()
        tracer.write_spans(out_dir / "spans.jsonl")
    if "events" in captured:
        with open(out_dir / "events.full.json", "w") as fh:
            json.dump([[e.time, e.kind.value, e.position, e.epsilon]
                       for e in captured["events"]], fh)
    return report


def in_child(task):
    """Run task() in a forked child; its JSON-able result, or None if it died."""
    read_end, write_end = os.pipe()
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        try:
            payload = json.dumps(task()).encode()
        except BaseException:
            traceback.print_exc()
            payload = b"null"
        with os.fdopen(write_end, "wb") as fh:
            fh.write(payload)
        os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        payload = fh.read()
    _, status = os.waitpid(pid, 0)
    return json.loads(payload) if status == 0 and payload else None


def main(cli) -> int:
    run_dir, template = Path(sys.argv[1]), sys.argv[2:]
    # one line per command from the parent: "plain" or "traced"
    for k, line in enumerate(sys.stdin):
        traced = line.strip() == "traced"
        out = run_dir / f"sample{k}"
        out.mkdir()
        argv = [arg.replace("{out}", str(out / "run")) for arg in template]
        report = in_child(lambda: run_command(cli, argv, out, traced))
        sys.stdout.write(json.dumps(report) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    import stickslip.cli

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if sys.argv[1] != "--setup-only":
        sys.exit(main(stickslip.cli))
