"""Command-line front end.

Verbs: solve-eg, tp-dynamics, fisher-outcome, verify, poa, and reproduce
(named worked examples).  Reports are flat key-value documents with fixed
12-significant-digit formatting so identical invocations are byte-identical;
experiment batches additionally write the PoA CSV.  Exit codes: 0 success,
1 verification failure, an unconverged solve or dynamics, or a PoA row
with a failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import eq_solvers, fisher_game, instance_lab, trading_post
from .core import (LEONTIEF, LINEAR, DEFAULT_TOL, _json_field, nsw, poa_ratio,
                   proportionality_check)
from .instance_lab import (ExperimentConfig, PoARecord, format_value,
                           load_instance, records_to_csv, run_experiment,
                           write_report)


def _positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="marketgames")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("solve-eg", help="solve the Eisenberg-Gale equilibrium")
    p.add_argument("instance")
    p.add_argument("--max-iter", type=_positive_int, default=eq_solvers.MAX_NEWTON_STEPS)
    common(p)

    p = sub.add_parser("tp-dynamics", help="run round-robin best-response dynamics")
    p.add_argument("instance")
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--max-rounds", type=_positive_int, default=2000)
    p.add_argument("--init", type=str, default=None, help="bids JSON file")
    p.add_argument("--stream", type=str, default=None,
                   help="write one CSV row per round")
    common(p)

    p = sub.add_parser("fisher-outcome", help="play the Fisher report game")
    p.add_argument("instance")
    p.add_argument("--reports", required=True, help="reports JSON file")
    common(p)

    p = sub.add_parser("verify", help="check an equilibrium certificate")
    p.add_argument("--kind", required=True, choices=("kkt", "tp-ne", "eps-market"))
    p.add_argument("payload", help="bids or prices/allocation JSON file")
    p.add_argument("instance")
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("poa", help="price-of-anarchy record for one instance")
    p.add_argument("instance")
    p.add_argument("--mechanism", choices=("fisher", "trading-post"),
                   default="trading-post")
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rounds", type=_positive_int, default=2000)
    common(p)

    p = sub.add_parser("reproduce", help="rebuild a named construction")
    p.add_argument("id", choices=tuple(REPRODUCE))
    p.add_argument("--n", type=int, default=None,
                   help="size (default 8 for lb-construction, else 5)")
    p.add_argument("--delta", type=float, default=1e-4)
    p.add_argument("--a", type=float, default=0.5)
    p.add_argument("--eps", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    return parser


def _load_field(path, key, kind="matrix"):
    """Field ``key`` of the JSON object in ``path`` as a float array."""
    try:
        return _json_field(json.loads(Path(path).read_text()), key, kind)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _emit(report: dict, out: str | None) -> None:
    if out:
        write_report(out, report)
    else:
        for k, v in report.items():
            print(f"{k} = {format_value(v)}")


def _cmd_solve_eg(args) -> int:
    instance = load_instance(args.instance)
    eq = eq_solvers.solve_eg(instance, args.tol, args.max_iter)
    _emit({
        "utilities": eq.utilities,
        "prices": eq.prices,
        "allocation": eq.allocation,
        "residual_stationarity": eq.residuals.stationarity,
        "residual_complementarity": eq.residuals.complementarity,
        "residual_budget": eq.residuals.budget,
        "residual_clearing": eq.residuals.clearing,
        "iterations": eq.iterations,
        "converged": eq.converged,
        "dropped_goods": list(eq.dropped_goods),
    }, args.out)
    return 0 if eq.converged else 1


def _cmd_tp_dynamics(args) -> int:
    instance = load_instance(args.instance)
    if instance.kind == LEONTIEF and args.delta == 0:
        print("warning: delta=0 Leontief trading post may have no pure "
              "equilibrium; dynamics can legitimately fail to converge",
              file=sys.stderr)
    init = _load_field(args.init, "bids") if args.init else None
    rows: list = []
    trace = (lambda *row: rows.append(row)) if args.stream else None
    report = trading_post.br_dynamics(instance, args.delta, init,
                                      args.max_rounds, args.tol, trace)
    if args.stream:
        with open(args.stream, "w") as fh:
            fh.write("round,max_change," +
                     ",".join(f"u{i}" for i in range(instance.n)) + "\n")
            for rnd, change, bids in rows:
                utils = instance.utilities(trading_post.tp_allocate(bids, args.delta))
                fh.write(f"{rnd},{format_value(change)},"
                         + ",".join(format_value(u) for u in utils) + "\n")
    _emit({
        "converged": report.converged,
        "rounds": report.rounds,
        "max_change": report.max_change,
        "max_gain": report.max_gain,
        "gains": report.gains,
        "utilities": report.utilities,
        "prices": report.prices,
        "bids": report.bids,
        "note": report.note,
    }, args.out)
    return 0 if report.converged else 1


def _cmd_fisher_outcome(args) -> int:
    instance = load_instance(args.instance)
    reports = _load_field(args.reports, "reports")
    outcome = fisher_game.fisher_outcome(instance, reports, args.tol)
    _emit({
        "true_utilities": outcome.true_utilities,
        "reported_utilities": outcome.equilibrium.utilities,
        "prices": outcome.equilibrium.prices,
        "allocation": outcome.equilibrium.allocation,
        "nsw": outcome.nsw,
        "flagged_agents": list(outcome.flagged_agents),
        "converged": outcome.equilibrium.converged,
    }, args.out)
    return 0 if outcome.equilibrium.converged else 1


def _cmd_verify(args) -> int:
    instance = load_instance(args.instance)
    if args.kind == "tp-ne":
        bids = _load_field(args.payload, "bids")
        rep = trading_post.verify_tp_ne(instance, bids, args.delta, args.tol)
        _emit({"max_gain": rep.max_gain, "gains": rep.gains,
               "passed": rep.converged, "note": rep.note}, args.out)
        return 0 if rep.converged else 1
    allocation = _load_field(args.payload, "allocation")
    prices = _load_field(args.payload, "prices", "vector")
    if args.kind == "kkt":
        if instance.kind == LINEAR:
            rep = eq_solvers.verify_kkt_linear(instance, allocation, prices, args.tol)
        elif instance.kind == LEONTIEF:
            rep = eq_solvers.verify_kkt_leontief(instance, allocation, prices, args.tol)
        else:
            raise ValueError("kkt verification covers linear and Leontief kinds")
        _emit({"passed": rep.passed,
               "stationarity": rep.residuals.stationarity,
               "complementarity": rep.residuals.complementarity,
               "budget": rep.residuals.budget,
               "clearing": rep.residuals.clearing}, args.out)
        return 0 if rep.passed else 1
    if args.eps is None:
        raise ValueError("--eps is required for eps-market verification")
    rep = eq_solvers.verify_eps_market_eq(instance, allocation, prices,
                                          args.eps, args.tol)
    _emit({"passed": rep.passed, "eps_required": rep.eps_required,
           "ratios": rep.ratios, "clearing_ok": rep.clearing_ok,
           "budget_ok": rep.budget_ok}, args.out)
    return 0 if rep.passed else 1


def _cmd_poa(args) -> int:
    mechanism = args.mechanism.replace("-", "_")
    config = ExperimentConfig(source=args.instance, mechanism=mechanism,
                              delta=args.delta, seed=args.seed, tol=args.tol,
                              max_rounds=args.max_rounds,
                              out_path=args.out and args.out + ".csv")
    records = run_experiment(config)
    rec = records[0]
    _emit({"instance_id": rec.instance_id, "mechanism": rec.mechanism,
           "delta": rec.delta, "nsw_opt": rec.nsw_opt, "nsw_eq": rec.nsw_eq,
           "ratio": rec.ratio, "eps_br": rec.eps_br,
           "eps_market": rec.eps_market, "proportional": rec.proportional,
           "failure": rec.failure}, args.out and args.out + ".txt")
    return 0 if not rec.failure else 1


def _record(instance, allocation, instance_id, mechanism, delta, nsw_opt, nsw_eq,
            eps_br):
    """A PoA row for a worked example: no market certificate, no timing.

    ``allocation`` is the one whose NSW the row scores; ``proportional``
    checks it with the entrance-fee slack delta (m - 1) / B_i, as
    ``run_experiment`` does.
    """
    slack = np.minimum(delta * (instance.m - 1) / instance.budgets, 1.0)
    prop = proportionality_check(instance, allocation, slack, tol=1e-7)
    return PoARecord(instance_id, mechanism, delta, nsw_opt, nsw_eq,
                     poa_ratio(nsw_opt, nsw_eq), eps_br, float("nan"), prop.all_pass,
                     0.0)


def _reproduce_example_3_1(args):
    instance = instance_lab.gen_example_3_1()
    truthful = fisher_game.fisher_outcome(instance, instance.matrix, args.tol)
    misreport = instance.matrix.copy()
    misreport[1, 1] = 1e-3
    deviated = fisher_game.fisher_outcome(instance, misreport, args.tol)
    gain = deviated.true_utilities[1] - truthful.true_utilities[1]
    report = {
        "truthful_utilities": truthful.true_utilities,
        "truthful_prices": truthful.equilibrium.prices,
        "misreport_agent2_utility": deviated.true_utilities[1],
        "misreport_gain_agent2": gain,
    }
    return report, [_record(instance, deviated.equilibrium.allocation, "example-3.1",
                            "fisher", 0.0, truthful.nsw, deviated.nsw, gain)]


def _reproduce_theorem_3_3(args):
    n = 5 if args.n is None else args.n
    config = ExperimentConfig(source="identity-leontief", mechanism="fisher",
                              n=n, tol=args.tol, certify_trials=50,
                              seed=args.seed)
    records = run_experiment(config)
    rec = records[0]
    return {"n": n, "nsw_opt": rec.nsw_opt, "nsw_eq": rec.nsw_eq,
            "ratio": rec.ratio, "eps_br": rec.eps_br,
            "proportional": rec.proportional}, records


def _reproduce_lb_construction(args):
    n = 8 if args.n is None else args.n  # the smallest n the construction takes
    tol = args.tol
    instance, reports, spends = fisher_game.lb_construction(n)
    stats = fisher_game.lb_profile_stats(n)
    opt = eq_solvers.solve_linear_eg(instance, tol)
    nsw_opt = nsw(opt.utilities, instance.budgets)
    tp = trading_post.verify_tp_ne(instance, spends, 0.0, tol)
    report = {"n": n, "k": stats["k"], "delta": stats["delta"],
              "u_first": stats["u_first"], "u_mid": stats["u_mid"],
              "nsw_profile": stats["nsw"], "nsw_opt": nsw_opt,
              "ratio": poa_ratio(nsw_opt, stats["nsw"]), "tp_max_gain": tp.max_gain}
    eps_br = tp.max_gain
    if n <= 30:
        fal = fisher_game.fisher_ne_falsify(instance, reports, trials=16,
                                            seed=args.seed, tol=tol,
                                            init_spending=spends)
        report["fisher_max_gain"] = fal.max_gain
        eps_br = max(eps_br, fal.max_gain)
    # the profile's allocation: the trading post's, and the Fisher game's
    # under the spending the construction selects
    return report, [_record(instance, tp.allocation, f"lb-construction-n{n}", "fisher",
                            0.0, nsw_opt, stats["nsw"], eps_br)]


def _reproduce_tp_nonexistence(args):
    instance = instance_lab.gen_tp_nonexistence()
    opt = eq_solvers.solve_leontief_dual(instance, args.tol)
    free = trading_post.br_dynamics(instance, 0.0, max_rounds=2000, tol=1e-12)
    feed = trading_post.br_dynamics(instance, 1e-3, max_rounds=2000, tol=1e-9)
    report = {
        "delta0_converged": free.converged,
        "delta0_rounds": free.rounds,
        "delta0_b22": free.bids[1, 1],
        "delta0_note": free.note,
        "delta_fee": 1e-3,
        "fee_converged": feed.converged,
        "fee_max_gain": feed.max_gain,
        "fee_utilities": feed.utilities,
    }
    return report, [_record(instance, feed.allocation, "tp-nonexistence", "trading_post",
                            1e-3, nsw(opt.utilities, instance.budgets),
                            nsw(feed.utilities, instance.budgets), feed.max_gain)]


def _reproduce_tp_leontief_poa(args):
    n = 5 if args.n is None else args.n
    config = ExperimentConfig(source="identity-leontief",
                              mechanism="trading_post", n=n,
                              delta=args.delta, tol=args.tol, seed=args.seed)
    records = run_experiment(config)
    rec = records[0]
    return {"n": n, "delta": args.delta, "ratio": rec.ratio,
            "eps_br": rec.eps_br, "eps_market": rec.eps_market,
            "proportional": rec.proportional, "failure": rec.failure}, records


def _reproduce_example_lin(args):
    instance, bids = instance_lab.gen_example_lin_family(args.eps)
    rep = trading_post.verify_tp_ne(instance, bids, 0.0, args.tol)
    opt = eq_solvers.solve_linear_eg(instance, args.tol)
    report = {"eps": args.eps, "gains": rep.gains,
              "max_gain": rep.max_gain, "utilities": rep.utilities}
    return report, [_record(instance, rep.allocation, f"example-lin-eps{args.eps}",
                            "trading_post", 0.0, nsw(opt.utilities, instance.budgets),
                            nsw(rep.utilities, instance.budgets), rep.max_gain)]


def _reproduce_example_leo(args):
    instance, bids = instance_lab.gen_example_leo_family(args.a)
    rep = trading_post.verify_tp_ne(instance, bids, 0.0, args.tol)
    report = {"a": args.a, "gains": rep.gains,
              "max_gain": rep.max_gain, "utilities": rep.utilities}
    return report, [_record(instance, rep.allocation, f"example-leo-a{args.a}",
                            "trading_post", 0.0, 1.0, nsw(rep.utilities, instance.budgets),
                            rep.max_gain)]


#: The named worked examples: id -> (args) -> (report, PoA records).
REPRODUCE = {
    "example-3.1": _reproduce_example_3_1,
    "theorem-3.3": _reproduce_theorem_3_3,
    "lb-construction": _reproduce_lb_construction,
    "tp-nonexistence": _reproduce_tp_nonexistence,
    "tp-leontief-poa": _reproduce_tp_leontief_poa,
    "example-lin": _reproduce_example_lin,
    "example-leo": _reproduce_example_leo,
}


def _cmd_reproduce(args) -> int:
    out = args.out or f"marketgames-{args.id}"
    body, records = REPRODUCE[args.id](args)
    report = {"id": args.id, **body}
    write_report(out + ".txt", report)
    records_to_csv(records, out + ".csv")
    for key, val in report.items():
        print(f"{key} = {format_value(val)}")
    return 1 if any(rec.failure for rec in records) else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve-eg": _cmd_solve_eg,
        "tp-dynamics": _cmd_tp_dynamics,
        "fisher-outcome": _cmd_fisher_outcome,
        "verify": _cmd_verify,
        "poa": _cmd_poa,
        "reproduce": _cmd_reproduce,
    }
    try:
        return handlers[args.verb](args)
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
