"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with -s to see them inline).
Desk-scale throughout; the full module takes a couple of minutes.
"""

import math

import numpy as np

import marketgames as mg
from marketgames.instance_lab import gen_positive_leontief


def _report(num: int, desc: str, ok: bool):
    print(f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_example_31():
    inst = mg.gen_example_3_1()
    truthful = mg.fisher_outcome(inst, inst.matrix, tol=1e-9)
    ok = np.abs(truthful.true_utilities - [1.0, 0.5]).max() <= 1e-6
    misreport = inst.matrix.copy()
    misreport[1, 1] = 1e-3
    deviated = mg.fisher_outcome(inst, misreport, tol=1e-9)
    ok &= deviated.true_utilities[1] > truthful.true_utilities[1] + 1e-6
    _report(1, "example market reproduction and profitable misreport", ok)


def test_criterion_02_uniform_leontief_poa_equals_n():
    ok = True
    for n in (2, 5, 10):
        inst = mg.gen_identity_leontief(n)
        reports, out = mg.uniform_leontief_ne(inst, tol=1e-10)
        opt = mg.solve_leontief_dual(inst, 1e-10)
        ratio = mg.poa_ratio(mg.nsw(opt.utilities, inst.budgets), out.nsw)
        ok &= abs(ratio - n) <= 1e-6
        falsify = mg.fisher_ne_falsify(inst, reports, trials=200, seed=n)
        ok &= falsify.max_gain <= 1e-6
    _report(2, "identity-instance uniform-report equilibria lose factor n", ok)


def test_criterion_03_tp_delta_near_optimal_leontief():
    delta = 1e-4
    cases = [("identity", mg.gen_identity_leontief(4))]
    for seed in range(20):
        n, m = 2 + seed % 5, 2 + (seed // 2) % 5
        cases.append((f"random{seed}", mg.gen_random(n, m, "leontief", seed=seed)))
    ok = True
    for name, inst in cases:
        dyn = mg.br_dynamics(inst, delta, max_rounds=4000, tol=1e-10)
        ok &= dyn.converged and dyn.max_gain <= 1e-6
        eps = inst.m ** 2 * delta
        ok &= mg.verify_eps_market_eq(inst, dyn.allocation, dyn.prices, eps,
                                      tol=1e-7).passed
        opt = mg.solve_leontief_dual(inst, 1e-9)
        ratio = mg.poa_ratio(mg.nsw(opt.utilities, inst.budgets),
                             mg.nsw(dyn.utilities, inst.budgets))
        ok &= ratio <= 1 + eps + 1e-3
    _report(3, "entrance-fee trading post stays near-optimal on complements", ok)


def test_criterion_04_eps_equilibrium_welfare_bound():
    rng = np.random.default_rng(8)
    ok = True
    checked = 0
    for seed in range(5):
        inst, x, p = gen_positive_leontief(3, 3, seed=seed)
        gap = mg.duality_gap_leontief(inst, x, p)
        ok &= -1e-12 <= gap <= 1e-6
        opt = mg.nsw(inst.utilities(x), inst.budgets)
        for _ in range(10):
            bids = np.clip(x * p * (1 + 0.04 * rng.standard_normal((3, 3))),
                           1e-9, None)
            bids *= (inst.budgets / bids.sum(axis=1))[:, None]
            prices = bids.sum(axis=0)
            alloc = bids / prices
            rep = mg.verify_eps_market_eq(inst, alloc, prices, eps=1.0, tol=1e-7)
            if rep.passed:
                checked += 1
                val = mg.nsw(inst.utilities(alloc), inst.budgets)
                ok &= opt / val <= 1 + rep.eps_required + 1e-4
    ok &= checked == 50
    _report(4, "approximate equilibria keep a 1/(1+eps) welfare share", ok)


def test_criterion_05_tp_poa_at_most_two():
    ok = True
    converged = 0
    for seed in range(50):
        n, m = 3 + seed % 3, 2 + seed % 3
        inst = mg.gen_random(n, m, "linear", seed=seed)
        dyn = mg.br_dynamics(inst, 0.0, max_rounds=4000, tol=1e-10)
        if not (dyn.converged and dyn.max_gain <= 1e-6):
            continue
        converged += 1
        opt = mg.solve_linear_eg(inst, 1e-9)
        ratio = mg.poa_ratio(mg.nsw(opt.utilities, inst.budgets),
                             mg.nsw(dyn.utilities, inst.budgets))
        ok &= ratio <= 2 + 1e-3
    ok &= converged >= 40
    ces_converged = 0
    for i, rho in enumerate((0.5, -1.0, -3.0)):
        for s in range(7):
            inst = mg.gen_random(3, 2 + s % 2, "ces", rho=rho, seed=40 + 10 * i + s)
            dyn = mg.br_dynamics(inst, 0.0, max_rounds=1500, tol=1e-8)
            if not dyn.converged:
                continue
            ces_converged += 1
            opt = mg.solve_ces_eg(inst, tol=1e-7)
            ratio = mg.poa_ratio(mg.nsw(opt.utilities, inst.budgets),
                                 mg.nsw(dyn.utilities, inst.budgets))
            ok &= ratio <= 2 + 1e-3
    ok &= ces_converged >= 16
    print(f"  (converged: {converged}/50 linear, {ces_converged}/21 ces)")
    _report(5, "trading-post equilibria lose at most a factor two", ok)


def test_criterion_06_best_response_oracle_equivalence():
    rng = np.random.default_rng(17)
    ok = True
    for case in range(40):
        m = 2 + case % 2
        v = rng.uniform(0.1, 1.0, size=m)
        d = rng.uniform(0.2, 2.0, size=m)
        budget = float(rng.uniform(0.6, 1.4))
        delta = 0.02 if case % 4 == 3 else 0.0
        lin_prof = mg.ValuationProfile("linear", v[None, :])
        leo_prof = mg.ValuationProfile("leontief", v[None, :])
        a_lin = mg.br_linear(v, budget, d, delta)
        a_leo = mg.br_leontief(v, budget, d, delta)
        g_lin = mg.br_grid_oracle(lin_prof, 0, budget, d, delta, grid_step=1e-3)
        g_leo = mg.br_grid_oracle(leo_prof, 0, budget, d, delta, grid_step=1e-3)
        ok &= a_lin.utility >= g_lin.utility - 5e-3
        ok &= a_leo.utility >= g_leo.utility - 5e-3
        n_lin = mg.br_concave_numeric(lin_prof, 0, budget, d, delta, tol=1e-10)
        n_leo = mg.br_concave_numeric(leo_prof, 0, budget, d, delta, tol=1e-10)
        ok &= abs(n_lin.utility - a_lin.utility) <= 1e-6
        ok &= abs(n_leo.utility - a_leo.utility) <= 1e-6
        if m == 2 or case % 8 == 3:  # the 3-good CES grid is slow
            rho = (0.5, 0.9, -1.0, -3.0, -10.0)[case % 5]
            ces_prof = mg.ValuationProfile("ces", v[None, :], rho)
            a_ces = mg.br_ces(v, budget, d, rho, delta)
            g_ces = mg.br_grid_oracle(ces_prof, 0, budget, d, delta, grid_step=1e-3)
            n_ces = mg.br_concave_numeric(ces_prof, 0, budget, d, delta, tol=1e-10)
            ok &= a_ces.utility >= g_ces.utility - 5e-3
            ok &= abs(n_ces.utility - a_ces.utility) <= 1e-6
    _report(6, "analytic, numeric, and grid best responses agree", ok)


def test_criterion_07_best_response_uniqueness_evidence():
    rng = np.random.default_rng(23)
    v = rng.uniform(0.2, 1.0, size=3)
    d = rng.uniform(0.3, 1.5, size=3)
    ok = True
    for kind, rho in (("linear", None), ("leontief", None), ("ces", -2.0)):
        prof = mg.ValuationProfile(kind, v[None, :], rho)
        sols = []
        for _ in range(10):
            init = rng.dirichlet(np.ones(3))
            sols.append(mg.br_concave_numeric(prof, 0, 1.0, d, delta=0.01,
                                              tol=1e-10, init=init).bids)
        ok &= float(np.ptp(np.array(sols), axis=0).max()) <= 1e-5
    # the analytic oracles are deterministic closed procedures
    ok &= (mg.br_linear(v, 1.0, d).bids == mg.br_linear(v, 1.0, d).bids).all()
    ok &= (mg.br_leontief(v, 1.0, d).bids == mg.br_leontief(v, 1.0, d).bids).all()
    ok &= (mg.br_ces(v, 1.0, d, -2.0).bids == mg.br_ces(v, 1.0, d, -2.0).bids).all()
    _report(7, "best responses are unique across restarts (pure equilibria)", ok)


def test_criterion_08_nonexistence_example():
    inst = mg.gen_tp_nonexistence()
    free = mg.br_dynamics(inst, 0.0, max_rounds=100000, tol=1e-12)
    ok = not free.converged
    ok &= free.bids[1, 1] < 1e-6
    ok &= free.rounds <= 100000
    fee = mg.br_dynamics(inst, 1e-3, max_rounds=2000, tol=1e-9)
    ok &= fee.converged
    _report(8, "zero-fee dynamics collapse on the no-equilibrium pair", ok)


def test_criterion_09_lower_bound_family():
    ratios = []
    ok = True
    for n in (14, 27, 54, 109):
        inst, reports, spends = mg.lb_construction(n)
        stats = mg.lb_profile_stats(n)
        opt = mg.solve_linear_eg(inst, 1e-8)
        ratios.append(mg.poa_ratio(mg.nsw(opt.utilities, inst.budgets),
                                   stats["nsw"]))
        tp = mg.verify_tp_ne(inst, spends, 0.0, 1e-6)
        ok &= tp.max_gain <= 1e-3
    ok &= all(ratios[i] <= ratios[i + 1] + 1e-9 for i in range(3))
    ok &= max(ratios) <= math.e ** (1 / math.e) + 0.05
    for n, trials in ((14, 40), (27, 70)):
        inst, reports, spends = mg.lb_construction(n)
        falsify = mg.fisher_ne_falsify(inst, reports, trials=trials, seed=n,
                                       init_spending=spends)
        ok &= falsify.max_gain <= 1e-3
    print(f"  (ratios: {[round(r, 5) for r in ratios]})")
    _report(9, "lower-bound family grows toward e^(1/e) and resists deviations", ok)


def test_criterion_10_proportionality_everywhere():
    ok = True

    inst = mg.gen_identity_leontief(5)
    _, out = mg.uniform_leontief_ne(inst)
    ok &= mg.proportionality_check(inst, out.equilibrium.allocation, 0.0).all_pass

    delta = 1e-4
    dyn = mg.br_dynamics(inst, delta, max_rounds=200, tol=1e-10)
    ok &= dyn.converged
    ok &= mg.proportionality_check(inst, dyn.allocation,
                                   delta * (inst.m - 1) / inst.budgets).all_pass

    # entrance-fee run with unequal budgets
    delta = 1e-3
    uneq = mg.make_instance("leontief",
                            mg.gen_random(3, 4, "leontief", seed=31).matrix,
                            budgets=[1.0, 2.0, 4.0])
    dyn = mg.br_dynamics(uneq, delta, max_rounds=4000, tol=1e-10)
    ok &= dyn.converged
    ok &= mg.proportionality_check(uneq, dyn.allocation,
                                   delta * (uneq.m - 1) / uneq.budgets).all_pass

    # zero-fee trading post on linear instances
    for seed in (1, 2):
        lin = mg.gen_random(4, 3, "linear", seed=seed)
        dyn = mg.br_dynamics(lin, 0.0, max_rounds=4000, tol=1e-10)
        ok &= dyn.converged
        ok &= mg.proportionality_check(lin, dyn.allocation, 0.0).all_pass

    # zero-fee trading post equilibrium on a positive-price Leontief market
    pos, x, p = gen_positive_leontief(3, 3, seed=1)
    rep = mg.verify_tp_ne(pos, x * p, 0.0, 1e-6)
    ok &= rep.max_gain <= 1e-6
    ok &= mg.proportionality_check(pos, rep.allocation, 0.0).all_pass

    # the Fisher lower-bound equilibrium profile
    inst, reports, spends = mg.lb_construction(14)
    out = mg.fisher_outcome(inst, reports, init_spending=spends)
    ok &= mg.proportionality_check(inst, out.equilibrium.allocation, 0.0).all_pass

    _report(10, "every equilibrium in the suite is proportional", ok)


def test_criterion_11_market_ne_round_trip():
    ok = True
    seeds = (0, 1, 2, 4, 5, 6, 7, 9, 12, 13)
    for seed in seeds:
        inst, x, p = gen_positive_leontief(2 + seed % 2, None, seed)
        bids = x * p
        rep = mg.verify_tp_ne(inst, bids, 0.0, 1e-6)
        ok &= rep.max_gain <= 1e-6

        rng = np.random.default_rng(seed + 50)
        pert = np.clip(bids * (1 + 0.02 * rng.standard_normal(bids.shape)),
                       1e-9, None)
        pert *= (inst.budgets / pert.sum(axis=1))[:, None]
        dyn = mg.br_dynamics(inst, 0.0, init=pert, max_rounds=20000, tol=1e-10)
        ok &= dyn.converged and dyn.max_gain <= 1e-6
        if dyn.converged:
            prices, alloc = mg.ne_to_market(dyn.bids, 0.0)
            ok &= mg.verify_kkt_leontief(inst, alloc, prices, 1e-6).passed
    _report(11, "market equilibria and trading-post equilibria coincide", ok)
