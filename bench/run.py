"""purecomb benchmark: time-to-verdict of the CLI, and of the library calls
it has no command for, on fixed op lists over seeded inputs.

    python3 bench/run.py --workload twoslot --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
One process runs one workload, with no worker threads and the BLAS thread
count pinned to 1.  Passes over the workload's op list repeat until
``--seconds`` is spent, and every op's output is checked outside the timed
region.  Times are seconds at a reference machine speed (see harness.py),
with the raw wall times alongside as ``<name>.wall``.  Every metric is
printed by name with its unit; the last line of
stdout is a JSON object with the metrics BENCHMARK.json lists: end-to-end
ones with ``--trace 0``, per-module ones with ``--trace 1``, where the
package's public functions are wrapped from outside for half the passes.
Per-pass figures, file digests and the run environment go to
``.bench_run/<workload>-seed<seed>-trace<0|1>.json``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402  (imports count towards the measured set-up)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_run"
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_passes(runner, budget: float, first_index: int = 0, tracer=None):
    """Passes until the budget is spent: another pass starts while it is
    expected to end less than half a pass past ``budget``; at least one.
    With a tracer, also the per-module summary of each pass."""
    passes, summaries = [], []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
            first = len(tracer.spans)
        passes.append(runner.run_pass(first_index + len(passes), tracer))
        if tracer is not None:
            summaries.append(tracer.summary(first))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(passes) >= budget:
            return passes, summaries


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond).  With fewer than eleven samples no
    such percentile exists, and the maximum is given as p100."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(passes, setup_s: float, setup_wall_s: float, failed: int, attempted: int) -> dict:
    """Medians over passes, in seconds at reference speed, with the tail of
    pass_s; ``<name>.wall`` are the same as wall times."""
    metrics = {}
    for suffix, field in (("", "times"), (".wall", "wall")):
        per_pass = [getattr(p, field) for p in passes]
        for key in per_pass[0]:
            metrics[key + suffix] = (median(t[key] for t in per_pass), "s")
        metrics["pass_s.tail" + suffix] = (tail([t["pass_s"] for t in per_pass])[0], "s")
    metrics["setup_s"] = (setup_s, "s")
    metrics["setup_s.wall"] = (setup_wall_s, "s")
    metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    metrics["failed_frac"] = (failed / attempted, "frac")
    return metrics


def per_layer(untraced, traced, summaries, units: dict) -> dict:
    """Medians over the traced passes, and the tracing overhead."""
    metrics = {key: (median(s[key] for s in summaries), units[key]) for key in summaries[0]}
    overhead = (median(p.times["pass_s"] for p in traced)
                / median(p.times["pass_s"] for p in untraced) - 1)
    metrics["trace_overhead_frac"] = (overhead, units["trace_overhead_frac"])
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "purecomb" / "__init__.py").is_file():
        print(f"error: no purecomb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        reported = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)  # before numpy is first imported
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import purecomb

    if Path(purecomb.__file__).resolve().parent != ROOT / "src" / "purecomb":
        print(f"error: purecomb imported from {purecomb.__file__}", file=sys.stderr)
        return 2
    import harness
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    import_end = time.perf_counter()
    import_s = import_end - T_START
    probe = harness.SpeedProbe()
    setup_spans = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        t0 = time.perf_counter()
        inputs = workload.setup(args.seed, workload.params)
        setup_spans.append((t0, time.perf_counter()))
        probe.sample()
    setup_wall = [end - start for start, end in setup_spans]
    setup_ref = [probe.scaled(start, end) for start, end in setup_spans]

    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    runner = harness.Runner(workload.ops(inputs, work), work, probe)
    try:
        if args.trace:
            untraced, _ = run_passes(runner, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced, summaries = run_passes(runner, args.seconds / 2, len(untraced), tracer)
            finally:
                tracer.uninstall()
            passes = untraced + traced
        else:
            passes, _ = run_passes(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": BLAS_THREADS, "passes": len(passes),
    }
    if args.trace:
        env["passes_traced"] = len(traced)
        metrics = per_layer(untraced, traced, summaries, {m["name"]: m["unit"] for m in reported})
    else:
        # set-up is the imports plus the median of the repeated input generation
        metrics = end_to_end(passes, probe.scaled(T_START, import_end) + median(setup_ref),
                             import_s + median(setup_wall), len(failures), attempted)
        _, pct, beyond = tail([p.times["pass_s"] for p in passes])
        env["tail"] = f"p{pct:g} of {len(passes)} passes, {beyond} beyond"

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "import_s": import_s, "setup_wall_s": setup_wall,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "passes": [{"times": p.times, "wall": p.wall, "op_s": p.op_s,
                               "elapsed_s": p.elapsed_s, "digests": p.digests} for p in passes],
                   "failures": failures}, fh, indent=1)
    if args.trace:
        # one spans file per workload, the latest traced run's, to bound disk use
        with open(OUT_DIR / f"{args.workload}.spans.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": tracer.spans}, fh)

    print(" ".join(f"{k}={v}" for k, v in env.items() if k != "tail"))
    for f in failures:
        print(f"FAILED pass {f['pass']} op {f['op']}: {f['error'].splitlines()[-1]}")
    for key, (value, unit) in metrics.items():
        note = f"  ({env['tail']})" if key.startswith("pass_s.tail") else ""
        print(f"{key:48s} {value:14.6g} {unit}{note}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
                    for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
