"""Seeded benchmark of densecode. Run from the root of the repository:

    python3 perfbench/run.py --workload bound-noisy --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced;
``--trace 1`` makes the same untraced rounds, then one traced round of the
first round's inputs, and reports the per-layer metrics. The metric names and
units are those of ``BENCHMARK.json``. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import sys
import time


def process_age() -> float:
    """Seconds since this process started (field 22 of /proc/self/stat)."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return (time.clock_gettime(time.CLOCK_BOOTTIME)
            - start_ticks / os.sysconf("SC_CLK_TCK"))


# one driving process, BLAS and OpenMP pinned to one thread; set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

WORKLOAD_NAMES = ("haar-noiseless", "bound-noisy", "haar-pauli")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not 0 <= args.seed < 1 << 47:
        p.error("--seed must lie in [0, 2^47)")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its finished workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def measure(wl, seconds: int, jobs: int) -> list[float]:
    """Whole rounds until ``seconds`` have passed (and at least
    ``wl.min_rounds``); returns the wall time of each round."""
    walls = []
    start = time.perf_counter()
    k = 0
    while k < wl.min_rounds or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        out = wl.run_round(k, jobs)
        walls.append(time.perf_counter() - t0)
        wl.check_round(k, out)
        k += 1
    return walls


def traced_round(wl, jobs: int, out_path: str):
    """One traced round of round 0's inputs; returns (wall, tracer)."""
    from tracer import Tracer

    tr = Tracer()
    tr.install()
    try:
        t0 = time.perf_counter()
        out = wl.run_round(0, jobs)
        wall = time.perf_counter() - t0
    finally:
        tr.uninstall()
    wl.check_round(0, out)
    tr.write(out_path)
    return wall, tr


def layer_metrics(tr, wl, overhead: float) -> dict:
    values = {}
    for name, (calls, self_s) in tr.per_name().items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    values["numpy.linalg.eigvalsh.matrices"] = tr.counts["numpy.linalg.eigvalsh"]
    values["scipy.optimize.minimize.nfev"] = tr.counts["scipy.optimize.minimize"]
    values["capacity.min_entropy_excess_bits"] = max(wl.min_entropy_excess_bits, 0.0)
    values["cli.csv_bytes"] = wl.csv_bytes
    values["trace.overhead_s"] = overhead
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "densecode", "__init__.py")):
        return fail(f"no densecode sources under {src}; run from the repository root")
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")

    sys.path.insert(0, src)
    import densecode
    if not os.path.abspath(densecode.__file__).startswith(src + os.sep):
        return fail(f"densecode was imported from {densecode.__file__}, not {src}")
    setup_s = process_age()

    from workloads import WORKLOADS

    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out_dir, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, out_dir)
    # the traced round runs in one process, so its untraced twin does too
    jobs = 1 if args.trace else wl.jobs
    walls = measure(wl, args.seconds, jobs)
    wall_s = wl.job_seconds(walls)

    if args.trace:
        trace_path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.tsv.gz")
        traced_wall, tr = traced_round(wl, jobs, trace_path)
        values = layer_metrics(tr, wl, traced_wall - wall_s)
        wanted = spec["per_layer"]
    else:
        lat = wl.bound_latencies_ms(wall_s)
        values = {"setup_s": setup_s, "wall_s": wall_s,
                  "bound_ms_p50": statistics.median(lat),
                  "bound_ms_p75": statistics.quantiles(lat, n=4)[2],
                  "peak_rss_mb": peak_rss_mb()}
        wanted = spec["end_to_end"]
    wl.finish()

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {missing}")
    for text in wl.problems:
        print(f"problem: {text}", file=sys.stderr)
    print(f"{args.workload}: {len(walls)} untraced rounds, wall {walls}",
          file=sys.stderr)
    result = {
        "correct": not wl.problems,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
