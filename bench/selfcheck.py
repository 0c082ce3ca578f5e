"""Checks of the benchmark itself.

    python3 bench/selfcheck.py

1. A tiny-size run of each workload prints every end-to-end metric by name
   with its unit, and its JSON line carries exactly the ``end_to_end``
   metrics of ``BENCHMARK.json``; a tiny traced run carries exactly the
   ``per_layer`` metrics and balances its time accounting.
2. Deliberately corrupted results (perturbed bids, prices scaled by 2) are
   reported as failed by the item checker.

Exits 0 when every check holds.
"""

import run  # first: it pins BLAS before numpy is imported

import dataclasses  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

#: Every end-to-end metric, gated or not, by name and unit, as printed.
PRINTED = (("setup_s", "s"), ("items_per_s", "1/s"), ("item_s_p50", "s"),
           ("item_s_tail", "s"), ("failed_frac", "1"), ("peak_rss_mb", "MB"))

#: Gives every tiny run at least 40 items, so item_s_tail has a value.
TINY_SECONDS = "8"


def bench_run(workload, trace):
    res = subprocess.run([sys.executable, str(run.BENCH_DIR / "run.py"),
                          "--workload", workload, "--seed", "1",
                          "--seconds", TINY_SECONDS, "--trace", str(trace), "--tiny"],
                         cwd=run.ROOT, text=True, capture_output=True, timeout=170)
    if res.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {res.returncode}:\n"
                             f"{res.stderr}")
    lines = res.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_output(spec, problems):
    for workload in run.WORKLOADS:
        text, doc = bench_run(workload, 0)
        if set(doc) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{workload}: result keys {sorted(doc)}")
        want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        got = {k: v["unit"] for k, v in doc["metrics"].items()}
        if got != want:
            problems.append(f"{workload}: end-to-end metrics {got} != {want}")
        for name, unit in PRINTED:
            if not any(line.split()[:1] == [name] and f" {unit}" in line
                       and "=" in line for line in text):
                problems.append(f"{workload}: {name} not printed with unit {unit}")

        text, doc = bench_run(workload, 1)
        want = {m["name"]: m["unit"] for m in spec["per_layer"]}
        got = {k: v["unit"] for k, v in doc["metrics"].items()}
        if got != want:
            problems.append(f"{workload} traced: per-layer metrics differ: "
                            f"missing {sorted(set(want) - set(got))}, "
                            f"extra {sorted(set(got) - set(want))}")
        if not any("balanced" in line and "UNBALANCED" not in line for line in text):
            problems.append(f"{workload} traced: time accounting does not balance")
        print(f"{workload}: output ok ({doc['attempted']} traced items)")


def first_ok(items, prefix):
    import workloads
    for item in items:
        if item.label.startswith(prefix):
            out = item.run()
            if item.check(out)[0] == workloads.OK:
                return item, out
    raise AssertionError(f"no item starting {prefix!r} passes its checks")


def perturbed(bids):
    """Bids moved by up to 50% per entry, rows still summing to the budgets."""
    import numpy as np
    rng = np.random.default_rng(0)
    bids = np.asarray(bids)
    b = bids * rng.uniform(0.5, 1.5, size=bids.shape)
    return b * (bids.sum(axis=1) / b.sum(axis=1))[:, None]


def check_corruption(problems):
    import workloads

    def expect_failed(what, item, bad):
        status, why = item.check(bad)
        if status == workloads.OK:
            problems.append(f"corrupted result passed: {what}")
        else:
            print(f"corrupted {what}: {status} ({why[0]})")

    tp = workloads.build("tp_poa", 1, tiny=True).items
    for kind in ("linear", "leontief", "ces"):
        item, res = first_ok(tp, kind)
        dyn = dataclasses.replace(res.dyn, bids=perturbed(res.dyn.bids))
        expect_failed(f"tp_poa {kind} bids perturbed",
                      item, dataclasses.replace(res, dyn=dyn))
        opt = dataclasses.replace(res.opt, prices=res.opt.prices * 2)
        expect_failed(f"tp_poa {kind} optimum prices x2",
                      item, dataclasses.replace(res, opt=opt))

    eg = workloads.build("eg_ladder", 1, tiny=True).items
    for kind in ("linear", "leontief"):
        item, eq = first_ok(eg, kind)
        expect_failed(f"eg_ladder {kind} prices x2", item,
                      dataclasses.replace(eq, prices=eq.prices * 2))

    rg = workloads.build("report_game", 1, tiny=True).items
    item, (opt, ratio, tp_rep) = first_ok(rg, "lb solve")
    expect_failed("report_game lb optimum prices x2", item,
                  (dataclasses.replace(opt, prices=opt.prices * 2), ratio, tp_rep))


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(run.SRC))
    problems: list[str] = []
    check_output(spec, problems)
    check_corruption(problems)
    for p in problems:
        print("PROBLEM: " + p)
    print("selfcheck " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
