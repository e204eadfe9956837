"""Benchmark runner for the heavyagg lab.

    python3 bench/run.py --workload {shot-grid,regen-slow,telecom-check} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/`` of the
same checkout.  The runner repeats the workload's job until the jobs have taken
``--seconds`` (job ``i`` draws from ``heavyagg.streams.stream(seed, tag, i)``),
checks the outputs, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` (the checks) and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced; with ``--trace 1`` half the
time runs untraced and half traced, and the metrics are the per-layer ones.
Lines before the last carry the run record, every check and the trace summary.
See ``bench/README.md``.
"""

import os

# one BLAS/OpenMP thread per process, set before numpy loads: the work here is
# element-wise numpy and Python loops, and pinned pools keep runs comparable
PINNED_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = PINNED_THREADS

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 4
TRACE_DIR = ROOT / ".bench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("shot-grid", "regen-slow", "telecom-check"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be a nonnegative integer")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def setup_seconds(workload: str) -> float:
    """One cold set-up, timed in a fresh interpreter."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    done = subprocess.run([sys.executable, str(probe), workload], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def measure(wl, seed, tag, budget, min_jobs, indices, keep, after_job):
    """Run jobs until they have taken ``budget`` seconds and at least ``min_jobs`` ran.

    Returns job wall times, aggregate wall times and the outputs of the first
    ``keep`` jobs.  ``after_job(job wall time)`` runs after each job, outside
    the timing and the budget.
    """
    from heavyagg import streams

    job_s, agg_s, outputs = [], [], []
    for i in indices:
        rng = streams.stream(seed, tag, i)
        t0 = time.perf_counter()
        out, agg = wl.job(rng)
        job_s.append(time.perf_counter() - t0)
        agg_s.append(agg)
        if len(outputs) < keep:
            outputs.append(out)
        after_job(job_s[-1])
        if len(job_s) >= min_jobs and sum(job_s) >= budget:
            break
    return job_s, agg_s, outputs


def same_output(a, b) -> bool:
    """Bitwise equality of two job outputs."""
    from heavyagg.aggregation import AggregateSample

    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_output(a[k], b[k]) for k in a)
    if isinstance(a, AggregateSample):
        return bool(np.array_equal(a.values, b.values))
    return bool(np.array_equal(a, b))


def quartiles(xs):
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3


def to_json(obj) -> str:
    return json.dumps(obj, default=lambda o: o.item() if hasattr(o, "item") else str(o))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "heavyagg" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'heavyagg'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import heavyagg
    import layers
    import workloads

    if Path(heavyagg.__file__).resolve().parent != SRC / "heavyagg":
        print(f"imported heavyagg from {heavyagg.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]()
    tag = f"bench/{wl.name}"
    regime = wl.setup()
    checks = workloads.Checks()
    checks.add(f"regime_of gives {wl.expected_limit}", regime.limit_kind == wl.expected_limit, regime.limit_kind)

    budget = args.seconds / 2.0 if args.trace else args.seconds
    # set-up probes run between the first untraced jobs, so that they sample
    # the machine over the run rather than in one burst
    setup = []

    def probe(_job_time=None):
        if not args.trace and len(setup) < SETUP_PROBES:
            setup.append(setup_seconds(wl.name))

    # per traced job: layer shares; counts of the first two; spans of the first
    shares, counts, first_spans = [], [], []

    def digest(job_time):
        spans = tracer.reset()
        shares.append(layers.layer_shares(spans, job_time))
        if len(counts) < 2:
            counts.append(layers.layer_counts(spans, getattr(wl, "wave_law", None)))
        if not first_spans:
            first_spans.extend(spans)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        checks.add("no wrapper installed for the untraced jobs", not layers.patched_targets(),
                   layers.patched_targets())
        job_s, agg_s, outputs = measure(wl, args.seed, tag, budget, wl.check_jobs, itertools.count(), wl.check_jobs,
                                        probe)
        while not args.trace and len(setup) < SETUP_PROBES:
            probe()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            # job 0 runs twice first: its counts must repeat and its output
            # must equal the untraced job 0
            with layers.Tracer() as tracer:
                traced_s, _, traced_out = measure(wl, args.seed, tag, budget, 2,
                                                  itertools.chain([0], itertools.count()), 1, digest)
            checks.add("every patched attribute is the original again after tracing",
                       not layers.patched_targets(), layers.patched_targets())
            checks.add("traced counts repeat exactly for a fixed seed", counts[0] == counts[1], counts)
            checks.add("tracing leaves the outputs unchanged", same_output(traced_out[0], outputs[0]))
        n_job_warnings = len(caught)
        detail = wl.check(outputs, checks)

    record = {
        "workload": wl.name, "stream": [args.seed, tag], "jobs": len(job_s), "job_s": job_s,
        "timed_job_s_quartiles": quartiles(job_s[1:]), "aggregate_s": agg_s, "n_rep": wl.n_rep,
        f"expected_{wl.event}s_per_job": wl.events_per_job(), "setup_probes_s": setup,
        "limit_kind": regime.limit_kind, "gamma0": regime.gamma0, "gamma": regime.gamma, "H": regime.H,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "python_threads": threading.active_count(),
        "pinned_blas_threads": int(PINNED_THREADS), "numpy": np.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(), "warnings": n_job_warnings,
        "warning_kinds": sorted({f"{w.category.__name__}: {str(w.message).splitlines()[0]}" for w in caught}),
        "checked": detail,
    }
    print(to_json({"record": record}))
    print(to_json({"checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks.results]}))

    if args.trace:
        table = layers.span_table(first_spans)
        first = counts[0]
        metrics = {k: (statistics.median(sh[k] for sh in shares), "%") for k in shares[0]}
        metrics.update({k: (v, "count") for k, v in first.items()})
        metrics["regenerative.cycles_per_wave"] = (
            first["regenerative.cycles"] / first["regenerative.waves"] if first["regenerative.waves"] else 0.0,
            "cycles/wave")
        points = wl.telecom_points_per_job() if hasattr(wl, "telecom_points_per_job") else 0.0
        metrics["limit_fields.telecom_points"] = (points, "count")
        metrics["trace.overhead_s"] = (statistics.median(traced_s[1:]) - statistics.median(job_s[1:]), "s")
        pulses = first["shot_noise.pulses"]
        ns_per_pulse_self = 1e9 * table["shot_noise.path"]["self_s"] / pulses if pulses else None
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"trace-{wl.name}-seed{args.seed}.json"
        t_first = first_spans[0][1]
        with open(trace_file, "w") as fh:
            json.dump([[s[0], s[1] - t_first, s[2] - t_first, s[3], None if s[4] is None else s[4][1]]
                       for s in first_spans], fh)
        print(to_json({"trace": {
            "traced_jobs": len(traced_s), "traced_job_s": traced_s, "spans_job0": len(first_spans),
            "span_table_job0": table, "counts_job0": first,
            "shot_noise.ns_per_pulse_self": ns_per_pulse_self,
            "spans_file": str(trace_file.relative_to(ROOT)),
        }}))
    else:
        # job 0 warms up (first-touch memory, lazy imports) and is not timed
        agg = statistics.median(agg_s[1:])
        metrics = {
            "run_s": (statistics.median(job_s[1:]), "s"),
            "reps_per_s": (wl.n_rep / agg, "1/s"),
            "ns_per_event": (1e9 * agg / wl.events_per_job(), "ns"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }

    print(to_json({
        "correct": checks.failed == 0, "attempted": len(checks.results), "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
