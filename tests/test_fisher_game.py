import contextlib
import dataclasses
import tracemalloc

import numpy as np
import pytest

import marketgames as mg
from marketgames import core, eq_solvers, fisher_game
from marketgames.instance_lab import run_experiment


def test_fisher_outcome_truthful_example_31():
    inst = mg.gen_example_3_1()
    out = mg.fisher_outcome(inst, inst.matrix)
    assert out.true_utilities == pytest.approx([1.0, 0.5], abs=1e-8)


def test_fisher_outcome_misreport_helps_agent_two():
    inst = mg.gen_example_3_1()
    reports = inst.matrix.copy()
    reports[1, 1] = 1e-3
    out = mg.fisher_outcome(inst, reports)
    assert out.true_utilities[1] > 0.5 + 1e-3
    # agent 2 now buys all of good 2 plus part of good 1
    assert out.equilibrium.allocation[1, 1] == pytest.approx(1.0, abs=1e-6)
    assert out.equilibrium.allocation[1, 0] > 0.1


def test_fisher_outcome_identity_truthful():
    inst = mg.gen_identity_leontief(4)
    out = mg.fisher_outcome(inst, inst.matrix)
    assert out.true_utilities == pytest.approx(np.ones(4), abs=1e-8)


def test_fisher_outcome_drops_unreported_goods_and_flags_empty_rows():
    inst = mg.make_instance("linear", [[1.0, 1.0], [1.0, 1.0]])
    reports = np.array([[1.0, 0.0], [0.0, 0.0]])
    out = mg.fisher_outcome(inst, reports)
    assert out.flagged_agents == (1,)
    assert out.true_utilities[1] == 0.0
    assert out.equilibrium.prices[1] == 0.0


def test_uniform_leontief_ne_identity():
    inst = mg.gen_identity_leontief(5)
    reports, out = mg.uniform_leontief_ne(inst)
    assert (reports == 0.2).all()
    assert out.true_utilities == pytest.approx(np.full(5, 0.2), abs=1e-9)
    opt = mg.solve_leontief_dual(inst)
    ratio = mg.poa_ratio(mg.nsw(opt.utilities, inst.budgets), out.nsw)
    assert ratio == pytest.approx(5.0, abs=1e-8)


def test_uniform_leontief_ne_unequal_budgets():
    inst = mg.make_instance("leontief", np.eye(2), budgets=[1.0, 3.0])
    _, out = mg.uniform_leontief_ne(inst)
    assert out.equilibrium.allocation[0] == pytest.approx([0.25, 0.25], abs=1e-9)
    assert out.equilibrium.allocation[1] == pytest.approx([0.75, 0.75], abs=1e-9)
    assert out.true_utilities == pytest.approx([0.25, 0.75], abs=1e-9)


def test_uniform_leontief_ne_is_proportional():
    inst = mg.gen_random(4, 3, "leontief", seed=6)
    _, out = mg.uniform_leontief_ne(inst)
    rep = mg.proportionality_check(inst, out.equilibrium.allocation, 0.0)
    assert rep.all_pass


def test_lb_construction_shape_and_k():
    inst, reports, spends = mg.lb_construction(8)
    assert (inst.n, inst.m) == (10, 9)
    assert mg.lb_profile_stats(8)["k"] == 3
    assert spends.sum(axis=1) == pytest.approx(inst.budgets)


def test_lb_profile_matches_closed_form():
    n = 14
    inst, reports, spends = mg.lb_construction(n)
    stats = mg.lb_profile_stats(n)
    out = mg.fisher_outcome(inst, reports, init_spending=spends)
    assert np.abs(out.true_utilities - stats["utilities"]).max() <= 1e-9
    # the translation of misreports into spending really induces delta
    induced = out.equilibrium.allocation * out.equilibrium.prices
    assert np.abs(induced - spends).max() <= 1e-6
    k = stats["k"]
    assert stats["u_first"] == pytest.approx(
        k / (k + (n - k) * (1 - stats["delta"])))


def test_lb_ratio_grows():
    r = []
    for n in (14, 27):
        inst, _, _ = mg.lb_construction(n)
        opt = mg.solve_linear_eg(inst, 1e-8)
        r.append(mg.poa_ratio(mg.nsw(opt.utilities, inst.budgets),
                              mg.lb_profile_stats(n)["nsw"]))
    assert r[0] < r[1] <= np.e ** (1 / np.e) + 0.05


def test_lb_requires_enough_agents():
    with pytest.raises(ValueError):
        mg.lb_construction(5)


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
def test_fisher_outcome_rejects_bad_reports(bad):
    inst = mg.gen_example_3_1()
    with pytest.raises(ValueError):
        mg.fisher_outcome(inst, [[bad, 0.0], [0.5, 0.5]])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fisher_outcome_rejects_bad_init_spending(bad):
    inst = mg.make_instance("linear", [[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValueError, match="init_bids"):
        mg.fisher_outcome(inst, inst.matrix, init_spending=[[bad, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("shape", [(3, 2), (1, 2), (2, 3)])
def test_init_spending_shape_is_checked(shape):
    # a wrong shape is named, not an IndexError from the live-agent mask
    inst = mg.make_instance("linear", [[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValueError, match="init_spending"):
        mg.fisher_outcome(inst, inst.matrix, init_spending=np.ones(shape))
    with pytest.raises(ValueError, match="init_spending"):
        mg.fisher_ne_falsify(inst, inst.matrix, trials=2, init_spending=np.ones(shape))


def test_falsifier_confirms_uniform_ne():
    inst = mg.gen_identity_leontief(3)
    reports, _ = mg.uniform_leontief_ne(inst)
    rep = mg.fisher_ne_falsify(inst, reports, trials=200, seed=0)
    assert rep.max_gain <= 1e-6
    assert rep.trials_per_agent == 200


def test_falsifier_detects_example_31_deviation():
    inst = mg.gen_example_3_1()
    rep = mg.fisher_ne_falsify(inst, inst.matrix, trials=40, seed=1)
    assert rep.gains[1] > 1e-3


@pytest.mark.parametrize("trials", [0, -1])
def test_falsifier_rejects_fewer_than_one_trial(trials):
    # with no deviations tried, a max gain of 0 would certify nothing
    inst = mg.gen_example_3_1()
    with pytest.raises(ValueError, match="trials"):
        mg.fisher_ne_falsify(inst, inst.matrix, trials=trials)


@pytest.mark.parametrize("case", ["lb-construction-14", "identity-leontief-5"])
def test_falsifier_does_not_depend_on_stacking(case, monkeypatch):
    if case == "lb-construction-14":
        inst, reports, spends = mg.lb_construction(14)
    else:
        inst, spends = mg.gen_identity_leontief(5), None
        reports, _ = mg.uniform_leontief_ne(inst)
    stacked = mg.fisher_ne_falsify(inst, reports, trials=16, init_spending=spends)
    monkeypatch.setattr(eq_solvers, "STACK_ENTRIES", 1)  # one market per stack
    alone = mg.fisher_ne_falsify(inst, reports, trials=16, init_spending=spends)
    assert alone.failures == stacked.failures
    assert np.abs(alone.gains - stacked.gains).max() <= 1e-12


@pytest.mark.parametrize("c", [1e-3, 0.5, 7.0])
@pytest.mark.parametrize("kind, rho", [("linear", None), ("leontief", None), ("ces", 0.5)])
def test_a_rescaled_report_is_the_same_market(kind, rho, c):
    # scaling agent i's report by c shifts the EG objective by B_i log c
    inst = mg.gen_random(4, 3, kind, rho=rho, seed=5)
    scaled = inst.matrix.copy()
    scaled[1] *= c
    base = mg.fisher_outcome(inst, inst.matrix)
    out = mg.fisher_outcome(inst, scaled)
    assert base.equilibrium.converged and out.equilibrium.converged
    assert np.abs(out.equilibrium.allocation - base.equilibrium.allocation).max() <= 1e-9


@pytest.mark.parametrize("case", ["lb-n14", "lb-n27", "identity-leontief-n5", "ces-rho0.5",
                                  "linear-groups"])
def test_falsifier_solves_each_rescaled_market_once(case, monkeypatch):
    # every deviation's rescaling class solved alone by fisher_outcome
    # against the falsifier, which solves each class's market once, stack
    # by stack: the same failures and, bit for bit, the same gains.  At
    # n = 27 the markets fill several stacks; in the linear market good 2
    # is valued by agent 0 alone, so a sparsified report of agent 0 can
    # leave it undemanded, a second group of demanded goods; the CES case
    # draws the base profile's key from several agents
    trials, seed = 16, 0
    if case == "lb-n14":
        inst, reports, spends = mg.lb_construction(14)
    elif case == "lb-n27":
        (inst, reports, spends), trials = mg.lb_construction(27), 40
    elif case == "identity-leontief-n5":
        inst, spends = mg.gen_identity_leontief(5), None
        reports, _ = mg.uniform_leontief_ne(inst)
    elif case == "ces-rho0.5":
        inst, spends = mg.gen_random(5, 4, "ces", rho=0.5, seed=0), None
        reports = inst.matrix
    else:
        inst = mg.make_instance("linear", [[1.0, 0.6, 0.3], [0.5, 1.0, 0.0], [0.8, 0.2, 0.0]])
        reports, spends, trials = inst.matrix, None, 24
    base = mg.fisher_outcome(inst, reports, init_spending=spends)
    gains, failures, classes, groups = np.zeros(inst.n), 0, {}, set()
    devs = fisher_game._deviations(inst, reports, trials, seed)
    for i, rows in enumerate(devs):
        for d in rows:
            profile = reports.copy()
            profile[i] = d
            # a rescaling class is solved from its first profile, as drawn
            key = fisher_game._row_scaled(profile).tobytes()
            if key not in classes:
                classes[key] = mg.fisher_outcome(inst, profile)
                groups.add((profile > 0).any(axis=0).tobytes())
            out = classes[key]
            if out.equilibrium.converged:
                gains[i] = max(gains[i], out.true_utilities[i] - base.true_utilities[i])
            else:
                failures += 1
    real, solved = fisher_game._solve_profiles, []

    def counting(kind, profiles, *args, **kwargs):
        solved.extend(profiles)
        return real(kind, profiles, *args, **kwargs)

    monkeypatch.setattr(fisher_game, "_solve_profiles", counting)
    rep = mg.fisher_ne_falsify(inst, reports, trials=trials, seed=seed, init_spending=spends)
    assert len(solved) == 1 + len(classes)  # the base, then one market per class
    assert rep.markets == len(classes)
    assert rep.failures == failures
    assert rep.gains.tobytes() == gains.tobytes()
    if case == "lb-n27":  # more markets than one stack of 29 x 28 holds
        assert rep.markets > eq_solvers.STACK_ENTRIES // (inst.n * inst.m)
    if case == "linear-groups":
        assert len(groups) > 1


def test_falsifier_memory_is_bounded_by_a_stack():
    # the 2,147 deviation markets of 29 x 28 are solved stack by stack: one
    # P x n x m array of them all would take 14 MB
    inst, reports, spends = mg.lb_construction(27)
    mg.fisher_ne_falsify(inst, reports, trials=1, init_spending=spends)  # imports on first use
    tracemalloc.start()
    try:
        rep = mg.fisher_ne_falsify(inst, reports, trials=100, seed=3, init_spending=spends)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.markets == 2147 and rep.failures == 0
    assert peak <= 10e6


def test_falsifier_structured_on_lb_profile():
    inst, reports, spends = mg.lb_construction(14)
    rep = mg.fisher_ne_falsify(inst, reports, trials=20, seed=3,
                               init_spending=spends)
    assert rep.max_gain <= 1e-3


def test_truthful_outcome_maximizes_nsw():
    inst = mg.gen_random(3, 3, "linear", seed=9)
    truthful = mg.fisher_outcome(inst, inst.matrix)
    rng = np.random.default_rng(1)
    for _ in range(5):
        reports = inst.matrix * np.exp(rng.uniform(-1, 1, size=inst.matrix.shape))
        out = mg.fisher_outcome(inst, reports)
        assert out.nsw <= truthful.nsw + 1e-7


def test_truthful_ces_outcome_is_the_eg_solve():
    # the Fisher game solves through solve_eg: truthful reports give the
    # same allocation and the same converged flag as the optimum itself
    inst = mg.gen_random(4, 3, "ces", rho=0.5, seed=0)
    opt = mg.solve_eg(inst)
    out = mg.fisher_outcome(inst, inst.matrix)
    assert opt.converged
    assert out.equilibrium.converged == opt.converged
    assert out.equilibrium.iterations == opt.iterations
    assert np.array_equal(out.equilibrium.allocation, opt.allocation)


def test_certified_linear_equilibria_lose_at_most_factor_two():
    # every report profile the falsifier certifies (gain <= 1e-4) stays
    # within the constant welfare bound for substitutes
    cases = []
    inst, reports, spends = mg.lb_construction(14)
    cases.append((inst, reports, spends))
    disjoint = mg.make_instance("linear", [[1.0, 0.4, 0.0, 0.0],
                                           [0.0, 0.0, 0.7, 1.0]])
    cases.append((disjoint, disjoint.matrix, None))
    for inst, reports, hint in cases:
        out = mg.fisher_outcome(inst, reports, init_spending=hint)
        falsify = mg.fisher_ne_falsify(inst, reports, trials=25, seed=0,
                                       init_spending=hint)
        assert falsify.max_gain <= 1e-4
        opt = mg.solve_linear_eg(inst, 1e-8)
        ratio = mg.poa_ratio(mg.nsw(opt.utilities, inst.budgets), out.nsw)
        assert ratio <= 2 + 1e-2


def test_falsifier_counts_unconverged_deviation(monkeypatch):
    # the fifth solve (a deviation of agent 0) comes back unconverged and
    # handing that agent everything: a failure, not a gain, in the falsifier
    # and in the PoA row it certifies
    real = fisher_game._solve_profiles
    calls = []

    def flaky(kind, profiles, *args, **kwargs):
        solved = real(kind, profiles, *args, **kwargs)
        for k, profile in enumerate(profiles):
            calls.append(profile)
            if len(calls) == 5:
                solved.allocations[k] = 1.0
                solved.converged[k] = False
        return solved

    monkeypatch.setattr(fisher_game, "_solve_profiles", flaky)
    inst = mg.gen_identity_leontief(3)
    reports, _ = mg.uniform_leontief_ne(inst)  # the first solve
    rep = mg.fisher_ne_falsify(inst, reports, trials=10, seed=0)
    assert rep.failures == 1
    assert rep.max_gain <= 1e-6

    calls.clear()
    rec = run_experiment(inst, "identity-leontief-n3", "fisher", certify_trials=10)
    assert rec.failure == "falsifier skipped 1 failed solves"
    assert rec.ratio == pytest.approx(3.0, abs=1e-8)
    assert rec.eps_br <= 1e-6


def test_falsifier_counts_an_overflowed_rescaling():
    # agent 0's first report times 4 overflows to inf: that one deviation is
    # a failure, and the agents' other structured deviations are solved
    inst = mg.make_instance("linear", [[1.0, 0.5], [0.5, 1.0]])
    reports = np.array([[5e307, 1.0], [0.5, 1.0]])
    rep = mg.fisher_ne_falsify(inst, reports, trials=13)  # truthful + 2 x 6 scales
    assert rep.failures == 1
    assert np.isfinite(rep.gains).all()


def test_falsifier_counts_a_batch_whose_solve_raised(monkeypatch):
    # the base outcome is solved alone (init_spending); every deviation batch
    # raises, so each of the n x trials deviations is a failure
    real = fisher_game._solve_profiles

    def broken(*args, inits=None, **kwargs):
        if inits is not None:  # the base outcome, selected by init_spending
            return real(*args, inits=inits, **kwargs)
        raise ValueError("degenerate reported market")

    inst, reports, spends = mg.lb_construction(8)
    monkeypatch.setattr(fisher_game, "_solve_profiles", broken)
    rep = mg.fisher_ne_falsify(inst, reports, trials=5, init_spending=spends)
    assert rep.failures == inst.n * 5
    assert rep.max_gain == 0.0


@pytest.mark.parametrize("case", ["lb-n8", "identity-leontief-n5"])
def test_falsifier_builds_no_result_object_per_deviation(case, monkeypatch):
    # the deviation markets come back as stacked arrays: a falsifier call
    # makes as many MarketEquilibrium objects as its base outcome alone
    if case == "lb-n8":
        inst, reports, spends = mg.lb_construction(8)
    else:
        inst, spends = mg.gen_identity_leontief(5), None
        reports, _ = mg.uniform_leontief_ne(inst)
    made = []

    def counting(self, *args, real=eq_solvers.MarketEquilibrium.__init__, **kwargs):
        made.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(eq_solvers.MarketEquilibrium, "__init__", counting)
    mg.fisher_outcome(inst, reports, init_spending=spends)
    alone = len(made)
    rep = mg.fisher_ne_falsify(inst, reports, trials=4, init_spending=spends)
    assert rep.failures == 0
    assert alone >= 1 and len(made) == 2 * alone


def test_reported_markets_are_not_checked_again(monkeypatch):
    # the falsifier's and fisher_outcome's reported markets are built from
    # the checked instance and reports, without another ValuationProfile or
    # Instance check
    inst, reports, spends = mg.lb_construction(8)
    checks = []
    for cls in (core.ValuationProfile, core.Instance):
        def counting(self, real=cls.__post_init__):
            checks.append(type(self).__name__)
            real(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    rep = mg.fisher_ne_falsify(inst, reports, trials=4, init_spending=spends)
    out = mg.fisher_outcome(inst, reports, init_spending=spends)
    assert checks == []
    assert rep.failures == 0 and out.equilibrium.converged


@pytest.mark.parametrize("kind, rho", [("linear", None), ("leontief", None),
                                       ("ces", 0.5), ("ces", -1.0)])
def test_outcome_with_init_spending_is_the_eg_solve(kind, rho):
    # an agent reporting nothing drops out; the rest of init_spending is the
    # reported market's init_bids, bit for bit as solve_eg takes it (the
    # tied lower-bound market for linear, ignored by the other kinds)
    if kind == "linear":
        inst, reports, spends = mg.lb_construction(14)
        dead = 0
    else:
        inst = mg.gen_random(6, 4, kind, rho=rho, seed=4)
        reports, dead = inst.matrix.copy(), 2
        spends = np.random.default_rng(1).uniform(0.0, 1.0, reports.shape)
    reports = reports.copy()
    reports[dead] = 0.0
    live = np.arange(inst.n) != dead
    sub = mg.make_instance(kind, reports[live], inst.budgets[live], rho)
    out = mg.fisher_outcome(inst, reports, init_spending=spends)
    for eq in (mg.solve_eg(sub, init_bids=spends[live]),
               mg.solve_eg_many([sub], inits=[spends[live]])[0]):
        got = out.equilibrium
        assert eq.converged and got.converged
        assert got.allocation[live].tobytes() == eq.allocation.tobytes()
        assert not got.allocation[dead].any()
        assert got.prices.tobytes() == eq.prices.tobytes()
        assert got.utilities[live].tobytes() == eq.utilities.tobytes()
        assert (got.residuals, got.iterations) == (eq.residuals, eq.iterations)
        assert out.flagged_agents == (dead,)


@pytest.mark.parametrize("kind, rho", [("linear", None), ("leontief", None),
                                       ("ces", 0.5)])
@pytest.mark.parametrize("case", ["shape", "nan", "negative", "dead-row-nan"])
def test_malformed_init_spending_raises_where_it_did(kind, rho, case):
    # a wrong shape raises for every kind; a bad entry in a live agent's row
    # raises as init_bids for linear markets only, which use it; the row of
    # an agent reporting nothing is not used, so it is not checked
    inst = mg.gen_random(3, 2, kind, rho=rho, seed=1)
    reports = inst.matrix.copy()
    reports[2] = 0.0
    init = np.ones((3, 2))
    if case == "shape":
        init = np.ones((3, 3))
    elif case == "nan":
        init[0, 1] = np.nan
    elif case == "negative":
        init[1, 0] = -1.0
    else:
        init[2, 0] = np.nan
    if case == "shape":
        expect = pytest.raises(ValueError, match="init_spending")
    elif kind == "linear" and case != "dead-row-nan":
        expect = pytest.raises(ValueError, match="init_bids")
    else:
        expect = contextlib.nullcontext()
    with expect:
        mg.fisher_outcome(inst, reports, init_spending=init)
    with expect:
        mg.fisher_ne_falsify(inst, reports, trials=2, init_spending=init)


def test_solve_eg_many_checks_inits_before_solving(monkeypatch):
    # a linear market's init_bids is checked as solve_eg checks it, before
    # any market is solved; a Leontief market ignores its own
    linear = mg.make_instance("linear", [[1.0, 0.5], [0.5, 1.0]])
    leontief = mg.gen_random(2, 2, "leontief", seed=0)
    eqs = mg.solve_eg_many([leontief, linear], inits=[[[np.nan] * 2] * 2, None])
    assert eqs[0].allocation.tobytes() == mg.solve_eg(leontief).allocation.tobytes()
    with pytest.raises(ValueError):
        mg.solve_eg_many([leontief, linear], inits=[None])
    solved = []

    def leontief_stack(stack, *args):
        solved.append(stack)
        return []

    monkeypatch.setattr(eq_solvers, "_solve_leontief_stack", leontief_stack)
    with pytest.raises(ValueError, match="init_bids"):
        mg.solve_eg_many([leontief, linear], inits=[None, [[np.nan, 0.0], [0.0, 1.0]]])
    assert solved == []
