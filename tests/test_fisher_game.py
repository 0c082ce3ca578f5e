import dataclasses

import numpy as np
import pytest

import marketgames as mg
from marketgames import fisher_game
from marketgames.instance_lab import ExperimentConfig, run_experiment


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
    real = fisher_game.solve_eg_many
    calls = []

    def flaky(instances, *args, **kwargs):
        eqs = real(instances, *args, **kwargs)
        for k, (instance, eq) in enumerate(zip(instances, eqs)):
            calls.append(instance)
            if len(calls) == 5:
                eqs[k] = dataclasses.replace(eq, allocation=np.ones_like(eq.allocation),
                                             converged=False)
        return eqs

    monkeypatch.setattr(fisher_game, "solve_eg_many", flaky)
    inst = mg.gen_identity_leontief(3)
    reports, _ = mg.uniform_leontief_ne(inst)  # the first solve
    rep = mg.fisher_ne_falsify(inst, reports, trials=10, seed=0)
    assert rep.failures == 1
    assert rep.max_gain <= 1e-6

    calls.clear()
    rec = run_experiment(ExperimentConfig(source="identity-leontief", mechanism="fisher",
                                          n=3, certify_trials=10))[0]
    assert rec.failure == "falsifier skipped 1 failed solves"
    assert rec.ratio == pytest.approx(3.0, abs=1e-8)
    assert rec.eps_br <= 1e-6
