"""Benchmark of the marketgames price-of-anarchy pipeline.

    python3 bench/run.py --workload tp_poa --seed 1 --seconds 25 --trace 0

Runs one seeded workload (see ``workloads.py``) from the source tree next to
this directory, as a closed loop: one process, one client, items served one
at a time in a fixed order, BLAS pinned to one thread.  Every item's result
is checked; human-readable lines come first and the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` serves a fixed number of items, about ``--seconds`` worth at the
speed the workload was sized on (``Workload.run_items``), so that a seed's
``attempted`` and ``failed`` repeat exactly, and reports the end-to-end
metrics.  ``--trace 1`` serves a fixed number of items (so its
counts repeat exactly for a seed), first untraced and then with every public
function of the package wrapped, and reports per-layer metrics and the
tracing overhead; it also writes the spans to ``.bench_trace/``.
"""

import os

# Pin BLAS before anything imports numpy; set-up children inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("tp_poa", "eg_ladder", "report_game")

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPEATS = 3

#: Percentiles tried for item_s_tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10

_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.build({name!r}, {seed}, {tiny})
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest sizes, for checking the benchmark itself")
    return p.parse_args(argv)


def environment(seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
        commit = res.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": commit,
    }


def time_setup(args):
    """Median over fresh interpreters of importing the package and building
    the workload."""
    code = _SETUP_PROBE.format(src=str(SRC), bench=str(BENCH_DIR),
                               name=args.workload, seed=args.seed, tiny=args.tiny)
    samples = []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run([sys.executable, "-c", code], cwd=ROOT, text=True,
                             capture_output=True, timeout=120, check=True)
        samples.append(float(res.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def serve(item):
    """Run and check one item: (status, reasons)."""
    from workloads import FAILED
    try:
        out = item.run()
    except Exception as exc:  # an item that raises is a failed item
        return FAILED, [f"raised {type(exc).__name__}: {exc}"]
    try:
        return item.check(out)
    except Exception as exc:  # the verifiers cannot even take the result
        return FAILED, [f"check raised {type(exc).__name__}: {exc}"]


def serve_loop(items, count, tracer=None):
    """Serve the first ``count`` items of the stream in order.
    Returns (per-item seconds, statuses, (index, label, reasons) per item)."""
    times, statuses, reasons = [], [], []
    for k in range(count):
        item = items[k % len(items)]
        if tracer is not None:
            tracer.item = k
        t0 = time.perf_counter()
        status, why = serve(item)
        times.append(time.perf_counter() - t0)
        statuses.append(status)
        reasons.append((k, item.label, why))
    return times, statuses, reasons


def warm_up(workload_name, seed, out_dir):
    """Serve a cycle of the tiny variant so lazy imports and first calls are
    done."""
    import workloads
    tiny = workloads.build(workload_name, seed, tiny=True, out_dir=out_dir)
    serve_loop(tiny.items, tiny.cycle)


def tail(times):
    ordered = sorted(times)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, -(-n * pct // 100))  # nearest-rank percentile
        if n - rank >= TAIL_BEYOND:
            return ordered[int(rank) - 1], pct
    return None, None


def report_failures(statuses, reasons, limit=15):
    from workloads import OK
    bad = [(k, label, s, why) for s, (k, label, why) in zip(statuses, reasons)
           if s != OK]
    for k, label, s, why in bad[:limit]:
        print(f"  item {k} [{label}] {s}: {'; '.join(why)}")
    if len(bad) > limit:
        print(f"  ... and {len(bad) - limit} more")


def run_untraced(args, out_dir):
    import workloads
    setup_s, samples = time_setup(args)
    workload = workloads.build(args.workload, args.seed, args.tiny, out_dir)
    warm_up(args.workload, args.seed, out_dir)
    t0 = time.perf_counter()
    times, statuses, reasons = serve_loop(workload.items, workload.run_items(args.seconds))
    wall = time.perf_counter() - t0

    n = len(times)
    # Item costs are heavy-tailed (one Leontief market can take 4 s), so the
    # rate counts each item served at the median time of its group over the
    # run.
    groups = [workload.items[k % len(workload.items)].group for k in range(n)]
    by_group: dict[str, list[float]] = {}
    for group, t in zip(groups, times):
        by_group.setdefault(group, []).append(t)
    items_per_s = n / sum(statistics.median(by_group[group]) for group in groups)
    failed = sum(s != workloads.OK for s in statuses)
    wrong = sum(s == workloads.WRONG for s in statuses)
    p50 = statistics.median(times)
    tail_s, tail_pct = tail(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed_frac = failed / n

    print(f"workload {args.workload}: {n} items in {wall:.3f} s, {failed} failed "
          f"({wrong} verified but missing a reference)")
    print(f"  setup_s      = {setup_s:.6g} s  (median of {len(samples)} fresh "
          f"interpreters: {', '.join(f'{s:.4g}' for s in samples)})")
    print(f"  items_per_s  = {items_per_s:.6g} 1/s  ({n} items at the median time of "
          f"their {len(by_group)} item groups; {n / wall:.6g} over the run)")
    print(f"  item_s_p50   = {p50:.6g} s  (of {n} items)")
    if tail_s is None:
        print(f"  item_s_tail  omitted: {n} items leave fewer than {TAIL_BEYOND} "
              f"beyond p{TAIL_LADDER[-1]:g}")
    else:
        print(f"  item_s_tail  = {tail_s:.6g} s  (p{tail_pct:g} of {n} items)")
    print(f"  failed_frac  = {failed_frac:.6g} 1  ({failed} of {n} items)")
    print(f"  peak_rss_mb  = {rss_mb:.6g} MB")
    report_failures(statuses, reasons)

    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (items_per_s, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return wrong == 0, n, failed, metrics


def run_traced(args, out_dir):
    import workloads
    from tracer import Tracer, layer_metrics
    workload = workloads.build(args.workload, args.seed, args.tiny, out_dir)
    warm_up(args.workload, args.seed, out_dir)
    count = workload.trace_items
    t0 = time.perf_counter()
    _, plain_statuses, _ = serve_loop(workload.items, count)
    plain_wall = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    workload = workloads.build(args.workload, args.seed, args.tiny, out_dir)
    since = len(tracer.spans)
    t0 = time.perf_counter()
    times, statuses, reasons = serve_loop(workload.items, count, tracer=tracer)
    wall = time.perf_counter() - t0
    metrics, self_sum = layer_metrics(tracer, since, wall)
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.overhead_s"] = (wall - plain_wall, "s")
    unwrapped = metrics["trace.unwrapped_s"][0]
    balanced = abs(self_sum + unwrapped - wall) <= 1e-6 * max(1.0, wall)

    trace_dir = ROOT / ".bench_trace"
    trace_dir.mkdir(exist_ok=True)
    trace_file = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
    tracer.write_jsonl(trace_file)

    failed = sum(s != workloads.OK for s in statuses)
    wrong = sum(s == workloads.WRONG for s in statuses + plain_statuses)
    print(f"workload {args.workload} traced: {count} items, {failed} failed; "
          f"{len(tracer.spans)} spans written to {trace_file.relative_to(ROOT)}")
    print(f"  traced wall {wall:.6g} s = layer self {self_sum:.6g} s "
          f"+ unwrapped {unwrapped:.6g} s ({'balanced' if balanced else 'UNBALANCED'}); "
          f"untraced wall {plain_wall:.6g} s, overhead {wall - plain_wall:.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    report_failures(statuses, reasons)
    return wrong == 0 and balanced, count, failed, metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "marketgames" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment(args.seed)
    print("env: " + json.dumps(env, sort_keys=True))
    with tempfile.TemporaryDirectory(prefix=".bench-out-", dir=ROOT) as tmp:
        runner = run_traced if args.trace else run_untraced
        correct, attempted, failed, metrics = runner(args, Path(tmp))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
