import dataclasses
import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import marketgames as mg
from marketgames import instance_lab
from marketgames.instance_lab import (format_value, gen_positive_leontief,
                                      poa_record, records_to_csv, run_experiment,
                                      write_report)


def test_gen_identity_leontief():
    assert (mg.gen_identity_leontief(2).matrix == np.eye(2)).all()
    inst5 = mg.gen_identity_leontief(5)
    assert (inst5.n, inst5.m) == (5, 5)
    single = mg.gen_identity_leontief(1)
    out = mg.fisher_outcome(single, single.matrix)
    assert out.true_utilities == pytest.approx([1.0])


def test_gen_example_31_values():
    inst = mg.gen_example_3_1()
    assert (inst.matrix == [[1.0, 0.0], [0.5, 0.5]]).all()
    assert not inst.perfect_competition()  # only agent 2 values good 2


def test_gen_tp_nonexistence_values():
    inst = mg.gen_tp_nonexistence()
    assert (inst.matrix == [[0.5, 0.5], [0.9, 0.1]]).all()


def test_tp_nonexistence_equations_symbolically():
    # both players must receive the goods at ratios matching their
    # requirements; player 1's condition reduces to b1 = b2 and player 2's to
    # 8 b2^2 + 8 b1 b2 = 9 b1 + 7 b2.  Jointly they force the boundary b = 1,
    # so no interior equilibrium exists.
    b1, b2 = sympy.symbols("b1 b2", real=True)
    eq1 = sympy.Eq(b1 * (2 - b1 - b2), (1 - b1) * (b1 + b2))
    eq2 = sympy.Eq(8 * b2 ** 2 + 8 * b1 * b2, 9 * b1 + 7 * b2)
    assert sympy.simplify(sympy.expand(eq1.lhs - eq1.rhs) - (b1 - b2)) == 0
    sols = sympy.solve([eq1, eq2], [b1, b2], dict=True)
    assert sols
    for sol in sols:
        v1, v2 = sympy.nsimplify(sol[b1]), sympy.nsimplify(sol[b2])
        interior = (v1.is_real and v2.is_real
                    and 0 < float(v1) < 1 and 0 < float(v2) < 1)
        assert not interior
    assert any(sol[b1] == 1 and sol[b2] == 1 for sol in sols)


def test_tp_nonexistence_delta_dynamics_converge():
    rep = mg.br_dynamics(mg.gen_tp_nonexistence(), 1e-3, max_rounds=500, tol=1e-9)
    assert rep.converged


def test_example_lin_family_gain_profile():
    # at eps = 0.5 the profile is the symmetric equilibrium of the family;
    # away from it the flexible agents hold a small but real improvement
    inst, bids = mg.gen_example_lin_family(0.5)
    assert abs(mg.verify_tp_ne(inst, bids, 0.0).max_gain) <= 1e-9
    inst, bids = mg.gen_example_lin_family(0.3)
    gain = mg.verify_tp_ne(inst, bids, 0.0).max_gain
    assert 1e-4 < gain < 1e-2


def test_example_leo_family_equilibria():
    for a in (0.3, 0.5, 0.99):
        inst, bids = mg.gen_example_leo_family(a)
        rep = mg.verify_tp_ne(inst, bids, 0.0, 1e-8)
        assert abs(rep.max_gain) <= 1e-9
        if a == 0.5:
            assert rep.utilities == pytest.approx([0.5, 0.5])


def test_gen_random_determinism_and_competition():
    a = mg.gen_random(4, 3, "linear", seed=42)
    b = mg.gen_random(4, 3, "linear", seed=42)
    assert (a.matrix == b.matrix).all()
    assert (mg.gen_random(4, 3, "linear", seed=1, sparsity=0.0).matrix > 0).all()
    for seed in range(100):
        inst = mg.gen_random(3, 4, "leontief", seed=seed, sparsity=0.4)
        assert inst.perfect_competition()
        assert inst.matrix.max(axis=1) == pytest.approx(np.ones(3))


def test_gen_random_raises_when_sparsity_leaves_a_good_undemanded():
    # at this sparsity 1000 redraws leave a column with fewer than two
    # demanders, which would break the perfect competition promised
    with pytest.raises(ValueError, match="sparsity"):
        mg.gen_random(2, 3, "linear", seed=0, sparsity=0.999)


def test_gen_positive_leontief_prices_positive():
    inst, x, p = gen_positive_leontief(4, 3, seed=3)
    assert p.min() > 0.1
    assert mg.duality_gap_leontief(inst, x, p) <= 1e-10
    assert x.sum(axis=0) == pytest.approx(np.ones(3))


def test_instance_roundtrip_bit_identical(tmp_path):
    inst = mg.gen_random(3, 4, "ces", rho=-1.5, seed=77)
    path = tmp_path / "inst.json"
    mg.save_instance(inst, path)
    again = mg.load_instance(path)
    assert (again.matrix == inst.matrix).all()
    assert (again.budgets == inst.budgets).all()
    assert again.valuations.rho == inst.valuations.rho
    mg.save_instance(again, tmp_path / "b.json")
    assert (tmp_path / "b.json").read_text() == path.read_text()


def test_report_writer_format(tmp_path):
    path = tmp_path / "r.txt"
    write_report(path, {"x": 1 / 3, "flag": True, "vec": np.array([1.0, 0.25])})
    assert path.read_text() == "x = 0.333333333333\nflag = true\nvec = 1 0.25\n"
    assert format_value(1234567.0) == "1234567"


def test_run_experiment_fisher_identity():
    rec = run_experiment(mg.gen_identity_leontief(5), "identity-leontief-n5", "fisher")
    assert rec.ratio == pytest.approx(5.0, abs=1e-8)
    assert rec.proportional
    assert not rec.failure


def test_run_experiment_tp_identity():
    rec = run_experiment(mg.gen_identity_leontief(5), "identity-leontief-n5",
                         "trading_post", delta=1e-4)
    assert rec.ratio <= 1.0025
    assert rec.eps_br <= 1e-8


def test_run_experiment_random_linear_batch(tmp_path):
    out = tmp_path / "records.csv"
    recs = [run_experiment(mg.gen_random(4, 3, "linear", seed=seed),
                           f"random-linear-n4-m3-seed{seed}", "trading_post")
            for seed in range(10, 15)]
    records_to_csv(recs, out)
    for r in recs:
        assert not r.failure
        assert r.ratio <= 2.001
        assert r.ratio >= 1 - 1e-6
    lines = out.read_text().splitlines()
    assert len(lines) == 6
    assert lines[0] == ("instance_id,mechanism,delta,nsw_opt,nsw_eq,ratio,"
                        "eps_br,eps_market,proportional,seconds,failure")


def test_run_experiment_flags_unconverged_optimum(monkeypatch):
    def unconverged(instance, tol):
        return dataclasses.replace(mg.solve_eg(instance, tol), converged=False)

    instance = mg.gen_identity_leontief(3)
    plain = run_experiment(instance, "identity-leontief-n3", "trading_post", 1e-4)
    monkeypatch.setattr(instance_lab, "solve_eg", unconverged)
    rec = run_experiment(instance, "identity-leontief-n3", "trading_post", 1e-4)
    assert rec.failure.startswith("optimum did not converge (worst residual ")
    assert (rec.nsw_opt, rec.ratio) == (plain.nsw_opt, plain.ratio)  # numbers kept


def test_run_experiment_leontief_tp_needs_delta():
    rec = run_experiment(mg.gen_identity_leontief(3), "identity-leontief-n3",
                         "trading_post", delta=0.0)
    assert rec.failure  # recorded, not raised
    assert math.isnan(rec.ratio)


def test_run_experiment_records_failed_dynamics(tmp_path):
    # a delta = 0 best response breaks down on a monopolized good
    rec = run_experiment(mg.gen_random(3, 3, "linear", seed=1621709875), "x",
                         "trading_post", 0.0)
    failure = ("dynamics did not converge: best response broke down for agent 0: "
               "supremum not attained: demanded good has no opposing spend")
    assert math.isnan(rec.ratio)
    assert rec.failure == failure
    records_to_csv([rec], tmp_path / "records.csv")
    assert (tmp_path / "records.csv").read_text().splitlines()[1].endswith("," + failure)


def test_run_experiment_failure_tag_keeps_batch_alive():
    recs = [run_experiment(mg.gen_random(3, 2, "ces", rho=0.5, seed=seed),
                           f"random-ces-n3-m2-seed{seed}", "fisher")
            for seed in (0, 1)]
    assert all(r.failure for r in recs)


def test_run_experiment_rejects_bad_arguments():
    instance = mg.gen_example_3_1()
    with pytest.raises(ValueError, match="mechanism"):
        run_experiment(instance, "example-3.1", mechanism="auction")
    for delta in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="delta"):
            run_experiment(instance, "example-3.1", delta=delta)


def test_poa_record_grants_the_fee_slack_to_the_trading_post_only():
    # each agent gets 0.46 of its good: below its proportional share 1/2, but
    # within the share less the entrance-fee slack delta (m - 1) / B_i = 0.1
    instance = mg.gen_identity_leontief(2)
    allocation, prices = 0.46 * np.eye(2), np.ones(2)
    tp = poa_record(instance, "id2", "trading_post", 0.1, allocation, prices, 0.0)
    fisher = poa_record(instance, "id2", "fisher", 0.1, allocation, prices, 0.0)
    assert tp.proportional and not fisher.proportional
    assert tp.ratio == fisher.ratio == pytest.approx(1 / 0.46)
    # the trading-post row on a Leontief market checks the outcome at m^2 delta
    assert tp.eps_market == mg.verify_eps_market_eq(instance, allocation, prices,
                                                    0.4).eps_required
    assert math.isnan(fisher.eps_market) and tp.seconds == 0.0 and tp.failure == ""


KINDS = (("linear", None), ("leontief", None), ("ces", 0.5), ("ces", -1.0))


@given(st.sampled_from(KINDS), st.integers(2, 5), st.integers(1, 5),
       st.integers(0, 2 ** 16), st.sampled_from(["fisher", "trading_post"]), st.data())
@settings(max_examples=60, deadline=None)
def test_poa_record_never_beats_the_optimum(kind, n, m, seed, mechanism, data):
    # any allocation whose columns sum to at most 1 is feasible, so its NSW is
    # at most the optimum's and the row's ratio is at least 1
    instance = mg.gen_random(n, m, kind[0], rho=kind[1], seed=seed)
    share = st.floats(0.0, 1.0)
    x = np.array(data.draw(st.lists(st.lists(share, min_size=m, max_size=m),
                                    min_size=n, max_size=n)))
    x /= np.maximum(x.sum(axis=0), 1.0)
    rec = poa_record(instance, "random", mechanism, 0.0, x, np.ones(m), 0.0)
    if not rec.failure:
        assert rec.ratio >= 1
        assert rec.nsw_eq == mg.nsw(instance.utilities(x), instance.budgets)
