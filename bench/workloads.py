"""The benchmark's three workloads, built from a seed.

A workload is an endless stream of items served one at a time in a fixed
order.  ``build`` makes the first ``POOL_CYCLES`` cycles of that stream up
front (that is the set-up the benchmark times); a run that outlasts the pool
starts it again.  Each item has a ``run`` step, which makes the package calls
the item stands for, and a ``check`` step, which judges the result against
independent verifiers and the workload's references.  Both steps go through
the public API (``mg.<name>`` looked up at call time, so the traced run's
wrappers see every call).

``check`` returns ``(status, reasons)``:

* ``OK``: the result passes its verifiers and meets every reference;
* ``FAILED``: the item raised, the program said it did not succeed
  (non-convergence, a non-zero CLI exit), or it claimed success and an
  independent verifier (``verify_kkt_*``, ``verify_tp_ne``,
  ``verify_eps_market_eq``) rejects the result;
* ``WRONG``: the result passes its verifiers yet misses a reference the
  paper proves, such as a PoA bound; the benchmark then reports
  ``correct: false``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import marketgames as mg
from marketgames import cli

OK, FAILED, WRONG = "ok", "failed", "wrong"

#: Cycles of the item stream built during set-up: more than a run serves.
POOL_CYCLES = 3
TP_POOL_CYCLES = 30

# tp_poa: the bodies of acceptance criteria 03 and 05.
TP_OPT_TOL = 1e-9
TP_GAIN_TOL = 1e-6
TP_LEONTIEF_DELTA = 1e-4
TP_CES_RHOS = (0.5, -1.0, -3.0)
#: One cycle: five linear, two Leontief and three CES markets (one per rho),
#: near the 50 : 20 : 21 mix of the criteria, interleaved.
TP_CYCLE = ("linear", "leontief", "linear", "ces", "linear",
            "linear", "leontief", "ces", "linear", "ces")
#: Items served per second when sized, full and tiny (see ``Workload``).
TP_PER_SECOND = {False: 2.5, True: 6.0}

# eg_ladder: cold solves on a size ladder per valuation kind.
EG_TOL = 1e-8
EG_CYCLE = (("linear", 100, 60, None), ("ces", 100, 40, -3.0),
            ("leontief", 100, 60, None), ("linear", 50, 50, None),
            ("ces", 50, 20, -1.0), ("leontief", 50, 50, None),
            ("linear", 30, 30, None), ("ces", 20, 10, 0.5),
            ("leontief", 10, 10, None), ("linear", 10, 10, None))
EG_CYCLE_TINY = (("linear", 6, 5, None), ("ces", 6, 4, 0.5),
                 ("leontief", 6, 5, None))
EG_PER_SECOND = {False: 0.47, True: 15.0}

# CES results are certified as approximate market equilibria; a solve that
# converged to 1e-6 must meet this eps.
CES_EPS = 1e-3

# report_game: the bodies of acceptance criteria 02 and 09 plus every
# reproduce id.
IDENTITY_NS = (2, 5, 10)
#: Trial counts keep a cycle near 10 s, so a run holds a few cycles.
IDENTITY_TRIALS = 16
LB_FALSIFY = ((14, 8), (27, 6))
LB_SOLVE_NS = (14, 27, 54, 109)
LB_RATIO_CAP = math.e ** (1 / math.e) + 0.05
LB_GAIN_TOL = 1e-3
REPRODUCE = (("example-3.1",), ("theorem-3.3",), ("lb-construction",),
             ("lb-construction", "--n", "14"), ("tp-nonexistence",),
             ("tp-leontief-poa",), ("example-lin",), ("example-leo",))
REPORT_PER_SECOND = {False: 1.4, True: 9.0}


@dataclass
class Item:
    """``group`` names the class of like items (same kind, and size where the
    cycle fixes it) whose median time stands for each of them."""

    group: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[str, list[str]]]


@dataclass
class Workload:
    """``items`` is the pool, a whole number of cycles of ``cycle`` items with
    the same mix of kinds and sizes; the traced run serves the first
    ``trace_items``.  ``per_second`` is the rate at which the package served
    these items when the workload was sized (2-vCPU Xeon VM): an untraced run
    serves ``--seconds`` times that many items, so that its item count, and
    with it ``attempted`` and ``failed``, depends only on the seed and
    ``--seconds``, while a run still lasts about ``--seconds`` at that
    speed."""

    name: str
    items: list[Item]
    cycle: int
    trace_items: int
    per_second: float

    def run_items(self, seconds: float) -> int:
        """Items an untraced run of ``seconds`` serves: at least a cycle."""
        return max(self.cycle, round(seconds * self.per_second))


class Verdict:
    """Collects the reasons an item failed, split into failures and misses of
    a reference by a verified result."""

    def __init__(self):
        self.failed: list[str] = []
        self.wrong: list[str] = []

    def result(self):
        if self.wrong:
            return WRONG, self.wrong + self.failed
        if self.failed:
            return FAILED, self.failed
        return OK, []


def _kkt(instance, eq, tol):
    """The independent verifier for an equilibrium of ``instance``."""
    if instance.kind == mg.LINEAR:
        rep = mg.verify_kkt_linear(instance, eq.allocation, eq.prices, tol)
        return rep.passed, f"KKT residual {rep.residuals.worst:.3g}"
    if instance.kind == mg.LEONTIEF:
        rep = mg.verify_kkt_leontief(instance, eq.allocation, eq.prices, tol)
        return rep.passed, f"KKT residual {rep.residuals.worst:.3g}"
    rep = mg.verify_eps_market_eq(instance, eq.allocation, eq.prices, CES_EPS,
                                  max(tol, 1e-6))
    return rep.passed, f"eps-market eps_required {rep.eps_required:.3g}"


def _check_equilibrium(verdict, what, instance, eq, tol):
    """Verify ``eq`` (converged or not, so every item does the same work)."""
    passed, detail = _kkt(instance, eq, tol)
    if not eq.converged:
        verdict.failed.append(f"{what} did not converge ({detail})")
        return False
    if not passed:
        verdict.failed.append(f"{what} says converged but its verifier rejects "
                              f"it: {detail}")
    return passed


# ---------------------------------------------------------------------------
# tp_poa


@dataclass
class TPResult:
    dyn: Any
    opt: Any
    ratio: float
    proportional: Any
    eps_market: Any


def _tp_item(kind, instance, delta, group, label):
    leontief = kind == "leontief"
    rounds, dyn_tol = (1500, 1e-8) if kind == "ces" else (4000, 1e-10)
    slack = np.minimum(delta * (instance.m - 1) / instance.budgets, 1.0)
    ratio_cap = 1 + instance.m ** 2 * delta + 1e-3 if leontief else 2 + 1e-3

    def run():
        dyn = mg.br_dynamics(instance, delta, max_rounds=rounds, tol=dyn_tol)
        opt = mg.solve_eg(instance, TP_OPT_TOL)
        ratio = mg.poa_ratio(mg.nsw(opt.utilities, instance.budgets),
                             mg.nsw(dyn.utilities, instance.budgets))
        prop = mg.proportionality_check(instance, dyn.allocation, slack, tol=1e-7)
        eps = (mg.verify_eps_market_eq(instance, dyn.allocation, dyn.prices,
                                       instance.m ** 2 * delta, 1e-7)
               if leontief else None)
        return TPResult(dyn, opt, ratio, prop, eps)

    def check(r):
        v = Verdict()
        opt_ok = _check_equilibrium(v, "optimum", instance, r.opt, TP_OPT_TOL)
        if not r.dyn.converged:
            v.failed.append(f"dynamics did not converge: {r.dyn.note}")
            return v.result()
        rep = mg.verify_tp_ne(instance, r.dyn.bids, delta, TP_GAIN_TOL)
        gain = max(rep.max_gain, r.dyn.max_gain)
        if not gain <= TP_GAIN_TOL:
            v.failed.append(f"dynamics say converged but best-response gain is "
                            f"{gain:.3g}")
            return v.result()
        if opt_ok and not r.ratio <= ratio_cap:
            v.wrong.append(f"PoA ratio {r.ratio:.6g} above {ratio_cap:.6g}")
        if not r.proportional.all_pass:
            v.failed.append(f"verified equilibrium is not proportional (worst margin "
                            f"{r.proportional.margins.min():.3g})")
        if leontief and not r.eps_market.passed:
            v.wrong.append(f"eps-market certificate fails "
                           f"(eps_required {r.eps_market.eps_required:.3g})")
        return v.result()

    return Item(group, label, run, check)


def _tp_poa(seed, tiny):
    rng = np.random.default_rng(seed)
    sizes = {
        "linear": [(n, m) for n in (3, 4, 5) for m in (2, 3, 4)],
        "leontief": [(n, m) for n in range(2, 7) for m in range(2, 7)],
        # one size, so that each rho's group has one cost level
        "ces": [(3, 3)],
    }
    if tiny:
        sizes = {"linear": [(3, 2)], "leontief": [(2, 2)], "ces": [(2, 2)]}
    counters = dict.fromkeys(sizes, 0)
    items = []
    for _ in range(TP_POOL_CYCLES):
        for kind in TP_CYCLE:
            n, m = sizes[kind][counters[kind] % len(sizes[kind])]
            rho = TP_CES_RHOS[counters[kind] % 3] if kind == "ces" else None
            counters[kind] += 1
            inst_seed = int(rng.integers(2 ** 31))
            inst = mg.gen_random(n, m, kind, rho=rho, seed=inst_seed)
            delta = TP_LEONTIEF_DELTA if kind == "leontief" else 0.0
            group = kind + (f" rho{rho:g}" if rho is not None else "")
            items.append(_tp_item(kind, inst, delta, group,
                                  f"{group} n{n} m{m} seed{inst_seed}"))
    return Workload("tp_poa", items, len(TP_CYCLE), len(TP_CYCLE) * 4,
                    TP_PER_SECOND[tiny])


# ---------------------------------------------------------------------------
# eg_ladder


def _eg_item(instance, group, label):
    def run():
        return mg.solve_eg(instance, EG_TOL)

    def check(eq):
        v = Verdict()
        _check_equilibrium(v, "solve", instance, eq, EG_TOL)
        return v.result()

    return Item(group, label, run, check)


def _eg_ladder(seed, tiny):
    rng = np.random.default_rng(seed)
    cycle = EG_CYCLE_TINY if tiny else EG_CYCLE
    items = []
    for _ in range(POOL_CYCLES):
        for kind, n, m, rho in cycle:
            inst_seed = int(rng.integers(2 ** 31))
            inst = mg.gen_random(n, m, kind, rho=rho, seed=inst_seed)
            group = f"{kind} {n}x{m}" + (f" rho{rho:g}" if rho is not None else "")
            items.append(_eg_item(inst, group, f"{group} seed{inst_seed}"))
    return Workload("eg_ladder", items, len(cycle), len(cycle), EG_PER_SECOND[tiny])


# ---------------------------------------------------------------------------
# report_game


def _identity_item(n, trials, fal_seed):
    instance = mg.gen_identity_leontief(n)

    def run():
        reports, out = mg.uniform_leontief_ne(instance, tol=1e-10)
        opt = mg.solve_leontief_dual(instance, 1e-10)
        ratio = mg.poa_ratio(mg.nsw(opt.utilities, instance.budgets), out.nsw)
        fal = mg.fisher_ne_falsify(instance, reports, trials=trials, seed=fal_seed)
        return opt, ratio, fal

    def check(r):
        opt, ratio, fal = r
        v = Verdict()
        if (_check_equilibrium(v, "optimum", instance, opt, 1e-10)
                and not abs(ratio - n) <= 1e-6):
            v.wrong.append(f"uniform-report ratio {ratio:.9g} differs from n={n}")
        if fal.failures:
            v.failed.append(f"falsifier skipped {fal.failures} failed solves")
        if not fal.max_gain <= 1e-6:
            v.wrong.append(f"falsifier found a deviation gaining {fal.max_gain:.3g}")
        return v.result()

    group = f"identity falsify n{n} trials{trials}"
    return Item(group, f"{group} seed{fal_seed}", run, check)


def _lb_falsify_item(n, trials, fal_seed):
    instance, reports, spends = mg.lb_construction(n)

    def run():
        return mg.fisher_ne_falsify(instance, reports, trials=trials, seed=fal_seed,
                                    init_spending=spends)

    def check(fal):
        v = Verdict()
        if fal.failures:
            v.failed.append(f"falsifier skipped {fal.failures} failed solves")
        if not fal.max_gain <= LB_GAIN_TOL:
            v.wrong.append(f"falsifier found a deviation gaining {fal.max_gain:.3g}")
        return v.result()

    group = f"lb falsify n{n} trials{trials}"
    return Item(group, f"{group} seed{fal_seed}", run, check)


def _lb_solve_item(n, ratios):
    """``ratios`` is shared by the lower-bound items of one workload, so each
    can check that the ratio grows with n against those already solved."""
    instance, _, spends = mg.lb_construction(n)
    profile_nsw = mg.lb_profile_stats(n)["nsw"]

    def run():
        opt = mg.solve_linear_eg(instance, 1e-8)
        ratio = mg.poa_ratio(mg.nsw(opt.utilities, instance.budgets), profile_nsw)
        tp = mg.verify_tp_ne(instance, spends, 0.0, 1e-6)
        return opt, ratio, tp

    def check(r):
        opt, ratio, tp = r
        v = Verdict()
        if _check_equilibrium(v, "optimum", instance, opt, 1e-8):
            ratios[n] = ratio
            if not ratio <= LB_RATIO_CAP:
                v.wrong.append(f"ratio {ratio:.6g} above e^(1/e)+0.05")
            for k, other in ratios.items():
                if (k - n) * (other - ratio) < -1e-9:
                    v.wrong.append(f"ratio {ratio:.9g} at n={n} against "
                                   f"{other:.9g} at n={k} is not monotone")
        if not tp.max_gain <= LB_GAIN_TOL:
            v.wrong.append(f"trading-post gain {tp.max_gain:.3g} at the lb profile")
        return v.result()

    label = f"lb solve+verify_tp_ne n{n}"
    return Item(label, label, run, check)


def _reproduce_item(args, out_dir: Path):
    out = str(out_dir / "_".join(a.strip("-") for a in args))

    def run():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(["reproduce", *args, "--out", out])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return code, stderr.getvalue().strip()

    def check(r):
        code, err = r
        v = Verdict()
        if code != 0:
            v.failed.append(f"exit code {code}: {err.splitlines()[-1] if err else ''}")
        return v.result()

    label = "reproduce " + " ".join(args)
    return Item(label, label, run, check)


def _interleave(*families):
    """Round-robin over the item families, each already largest first."""
    rows = itertools.zip_longest(*families)
    return [item for row in rows for item in row if item is not None]


def _report_game(seed, tiny, out_dir):
    rng = np.random.default_rng(seed)
    identity = ((2, 8),) if tiny else tuple((n, IDENTITY_TRIALS) for n in IDENTITY_NS)
    lb_falsify = ((14, 4),) if tiny else LB_FALSIFY
    lb_solve = (14, 27) if tiny else LB_SOLVE_NS
    reproduce = ((("example-3.1",), ("lb-construction",), ("example-lin",),
                  ("example-leo",)) if tiny else REPRODUCE)
    ratios: dict[int, float] = {}
    items = []
    for _ in range(POOL_CYCLES):
        items += _interleave(
            [_identity_item(n, t, int(rng.integers(2 ** 31)))
             for n, t in reversed(identity)],
            [_reproduce_item(args, out_dir) for args in reproduce],
            [_lb_solve_item(n, ratios) for n in reversed(lb_solve)],
            [_lb_falsify_item(n, t, int(rng.integers(2 ** 31)))
             for n, t in reversed(lb_falsify)])
    cycle = len(items) // POOL_CYCLES
    return Workload("report_game", items, cycle, cycle, REPORT_PER_SECOND[tiny])


WORKLOADS = ("tp_poa", "eg_ladder", "report_game")


def build(name: str, seed: int, tiny: bool = False, out_dir: Path | None = None):
    """Build the workload ``name`` from ``seed``; ``out_dir`` receives the
    files the CLI items write."""
    if name == "tp_poa":
        return _tp_poa(seed, tiny)
    if name == "eg_ladder":
        return _eg_ladder(seed, tiny)
    if name == "report_game":
        return _report_game(seed, tiny, out_dir or Path("."))
    raise ValueError(f"unknown workload {name!r}")
