"""Command line of the heavyagg lab.

    heavyagg bench --tag T [--seed N] [--seconds S] [--workload W ...]

``bench`` runs the benchmark of the checkout this package sits in,
``bench/run.py``, as a subprocess: once per workload with ``--trace 0`` (the
end-to-end metrics) and once with ``--trace 1`` (the per-layer metrics).  It
writes the last line of each run, the runner's result object, to
``.benchmarks/BENCH_<tag>.json`` under the current directory and prints that
path.  The workloads default to those ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

__all__ = ["main"]

ROOT = Path(__file__).resolve().parents[2]
RUNNER = ROOT / "bench" / "run.py"
SPEC = ROOT / "BENCHMARK.json"


def _parse(argv):
    p = argparse.ArgumentParser(prog="heavyagg", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    bench = sub.add_parser("bench", help="run bench/run.py and write .benchmarks/BENCH_<tag>.json")
    bench.add_argument("--tag", required=True, help="names the output file BENCH_<tag>.json")
    bench.add_argument("--seed", type=int, default=5, help="stream seed of every run (default 5)")
    bench.add_argument("--seconds", type=float, default=30.0, help="measuring time of each run (default 30)")
    bench.add_argument("--workload", action="append", help="a workload to run (repeatable; default: all)")
    args = p.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.tag):
        p.error("--tag may hold only letters, digits, '.', '_' and '-'")
    if args.seed < 0:
        p.error("--seed must be a nonnegative integer")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return p, args


def _last_line(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result object that one run of the benchmark prints last."""
    cmd = [sys.executable, str(RUNNER), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"{' '.join(cmd[1:])} exited with {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _bench(args, workloads) -> Path:
    runs = {w: {"end_to_end": _last_line(w, args.seed, args.seconds, 0),
                "per_layer": _last_line(w, args.seed, args.seconds, 1)} for w in workloads}
    record = {
        "tag": args.tag, "seed": args.seed, "seconds": args.seconds,
        "python": platform.python_version(), "platform": platform.platform(), "nproc": os.cpu_count(),
        "workloads": runs,
    }
    out = Path(".benchmarks") / f"BENCH_{args.tag}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    return out


def main(argv=None) -> int:
    p, args = _parse(argv)
    if not (RUNNER.is_file() and SPEC.is_file()):
        p.error(f"no benchmark at {ROOT}: run from a source checkout")
    declared = [w["name"] for w in json.loads(SPEC.read_text())["workloads"]]
    unknown = sorted(set(args.workload or ()) - set(declared))
    if unknown:
        p.error(f"unknown workload {', '.join(unknown)}; BENCHMARK.json declares {', '.join(declared)}")
    print(_bench(args, args.workload or declared))
    return 0


if __name__ == "__main__":
    sys.exit(main())
