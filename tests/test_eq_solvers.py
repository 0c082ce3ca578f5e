import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import marketgames as mg
from marketgames import eq_solvers
from marketgames.instance_lab import gen_positive_leontief


def test_linear_example_31():
    eq = mg.solve_linear_eg(mg.gen_example_3_1(), 1e-8)
    assert eq.utilities == pytest.approx([1.0, 0.5], abs=1e-8)
    assert eq.prices == pytest.approx([1.0, 1.0], abs=1e-8)
    assert eq.allocation[0] == pytest.approx([1.0, 0.0], abs=1e-8)
    assert eq.allocation[1] == pytest.approx([0.0, 1.0], abs=1e-8)


def test_linear_single_buyer_prices_proportional_to_values():
    inst = mg.make_instance("linear", [[3.0, 1.0]])
    eq = mg.solve_linear_eg(inst)
    assert eq.prices == pytest.approx([0.75, 0.25], abs=1e-9)
    assert eq.allocation[0] == pytest.approx([1.0, 1.0], abs=1e-9)


def test_linear_two_identical_agents():
    inst = mg.make_instance("linear", [[1.0, 1.0], [1.0, 1.0]])
    eq = mg.solve_linear_eg(inst)
    assert eq.utilities == pytest.approx([1.0, 1.0], abs=1e-8)
    assert eq.prices == pytest.approx([1.0, 1.0], abs=1e-8)


def test_linear_drops_undemanded_goods():
    inst = mg.make_instance("linear", [[1.0, 0.0, 2.0], [1.0, 0.0, 1.0]])
    eq = mg.solve_linear_eg(inst)
    assert eq.dropped_goods == (1,)
    assert eq.prices[1] == 0.0
    assert eq.allocation[:, 1] == pytest.approx([0.0, 0.0])


def test_linear_determinism_across_inits():
    inst = mg.gen_random(5, 4, "linear", seed=13)
    tol = 1e-8
    eq0 = mg.solve_linear_eg(inst, tol)
    rng = np.random.default_rng(99)
    for _ in range(3):
        init = rng.uniform(0.05, 1.0, size=(5, 4))
        eq1 = mg.solve_linear_eg(inst, tol, init_bids=init)
        assert np.abs(eq1.utilities - eq0.utilities).max() <= 1e2 * tol


def test_leontief_identity():
    inst = mg.gen_identity_leontief(4)
    eq = mg.solve_leontief_dual(inst)
    assert eq.prices == pytest.approx(np.ones(4), abs=1e-9)
    assert eq.utilities == pytest.approx(np.ones(4), abs=1e-9)
    assert np.diag(eq.allocation) == pytest.approx(np.ones(4), abs=1e-9)


def test_leontief_shared_demand():
    inst = mg.make_instance("leontief", [[1.0, 1.0], [1.0, 1.0]])
    eq = mg.solve_leontief_dual(inst)
    assert eq.utilities == pytest.approx([0.5, 0.5], abs=1e-9)
    assert mg.duality_gap_leontief(inst, eq.allocation, eq.prices) <= 1e-9


def test_leontief_identity_nsw_is_optimal():
    inst = mg.gen_identity_leontief(5)
    eq = mg.solve_leontief_dual(inst)
    assert mg.nsw(eq.utilities, inst.budgets) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n, m, seed, tol", [(50, 50, 1, 1e-8), (50, 50, 3, 1e-8),
                                              (6, 5, 1, 1e-8), (6, 5, 1, 1e-9)])
def test_leontief_verified_where_gradient_dual_stalled(n, m, seed, tol):
    # a projected-gradient dual stopped short of tol on each of these
    inst = mg.gen_random(n, m, "leontief", seed=seed)
    eq = mg.solve_leontief_dual(inst, tol)
    assert eq.converged
    assert mg.verify_kkt_leontief(inst, eq.allocation, eq.prices, tol).passed
    assert eq.iterations <= 20


def test_solver_market_invariants():
    for seed in range(4):
        inst = mg.gen_random(4, 3, "linear", seed=seed)
        eq = mg.solve_linear_eg(inst, 1e-8)
        assert eq.converged
        assert mg.verify_kkt_linear(inst, eq.allocation, eq.prices, 1e-8).passed
        assert abs(eq.prices.sum() - inst.total_budget) <= 1e-7
        sold = eq.allocation.sum(axis=0)
        assert (sold[eq.prices > 1e-7] >= 1 - 1e-7).all()
        inst = mg.gen_random(4, 3, "leontief", seed=seed)
        eq = mg.solve_leontief_dual(inst, 1e-8)
        assert eq.converged
        assert mg.verify_kkt_leontief(inst, eq.allocation, eq.prices, 1e-8).passed
        assert abs(eq.prices.sum() - inst.total_budget) <= 1e-7
        sold = eq.allocation.sum(axis=0)
        assert (np.abs(sold[eq.prices > 1e-7] - 1) <= 1e-7).all()


@pytest.mark.parametrize("kind", ["linear", "leontief"])
def test_verifiers_fail_a_nan_allocation(kind):
    # Python's max drops a NaN that follows a finite value
    inst = mg.make_instance(kind, [[1.0, 0.5], [0.5, 1.0]])
    verify = mg.verify_kkt_linear if kind == "linear" else mg.verify_kkt_leontief
    eq = mg.solve_eg(inst)
    assert verify(inst, eq.allocation, eq.prices).passed
    x = eq.allocation.copy()
    x[0, 0] = np.nan
    rep = verify(inst, x, eq.prices)
    assert not rep.passed
    assert math.isnan(rep.residuals.worst)


@pytest.mark.parametrize("scale", [1e6, 1e7])
def test_leontief_stop_margin_covers_large_budgets(scale):
    # the budget residual is in money, so its rounding grows with the budgets
    inst = mg.gen_random(6, 5, "leontief", seed=1)
    big = mg.Instance(inst.n, inst.m, inst.budgets * scale, inst.valuations)
    eq = mg.solve_leontief_dual(big)
    assert eq.converged
    assert eq.iterations <= 20


def test_linear_init_bids_selects_tied_equilibrium():
    # identical agents tie on both goods: the given spending is returned
    twins = mg.make_instance("linear", [[1.0, 1.0], [1.0, 1.0]])
    for init in ([[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5], [0.5, 0.5]]):
        eq = mg.solve_linear_eg(twins, init_bids=init)
        assert eq.converged
        assert np.abs(eq.allocation * eq.prices - init).max() <= 1e-12
    _, reports, spends = mg.lb_construction(14)
    eq = mg.solve_linear_eg(mg.make_instance("linear", reports), init_bids=spends)
    assert eq.converged
    assert np.abs(eq.allocation * eq.prices - spends).max() <= 1e-12
    # an equilibrium spending is the projection's fixed point: the solver's
    # own comes back, on seeded integer markets that tie often
    rng = np.random.default_rng(5)
    for _ in range(40):
        v = rng.integers(0, 4, (int(rng.integers(2, 9)), int(rng.integers(2, 9))))
        v[v.sum(axis=1) == 0, 0] = 1
        inst = mg.make_instance("linear", v, rng.integers(1, 5, v.shape[0]))
        eq = mg.solve_linear_eg(inst)
        spend = eq.allocation * eq.prices
        eq = mg.solve_linear_eg(inst, init_bids=spend)
        assert eq.converged
        assert np.abs(eq.allocation * eq.prices - spend).max() <= 1e-12 * inst.budgets.max()


def test_linear_rejects_malformed_init_bids():
    # an infinite entry once returned converged=True through solve_eg
    inst = mg.make_instance("linear", [[1.0, 0.5], [0.5, 1.0]])
    for init in (np.ones((2, 3)), [[1.0, -0.5], [0.0, 1.0]],
                 [[np.inf, 0.0], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="init_bids"):
            mg.solve_eg(inst, init_bids=init)


def test_linear_polish_spends_by_projection_without_lp(monkeypatch):
    # the reported lower-bound market and report deviations of its
    # misreporting agents: tie graphs with cycles, spending found by the
    # projection alone
    def no_lp(*args, **kwargs):
        raise AssertionError("linprog called")

    monkeypatch.setattr(eq_solvers, "linprog", no_lp)
    inst, reports, _ = mg.lb_construction(14)
    k = mg.lb_profile_stats(14)["k"]
    markets = [reports]
    for i in range(k, 14):
        for j in np.nonzero(reports[i] > 0)[0]:
            for scale in (0.25, 4.0):
                dev = reports.copy()
                dev[i, j] *= scale
                markets.append(dev)
    for r in markets:
        market = mg.make_instance("linear", r)
        eq = mg.solve_linear_eg(market)
        assert eq.converged
        assert mg.verify_kkt_linear(market, eq.allocation, eq.prices).passed


def test_linear_polish_falls_back_to_lp(monkeypatch):
    # found by a seeded search over small integer-valued markets: the
    # projected spending has a negative entry, so the LP finds it
    calls, real_lp = [], eq_solvers.linprog

    def counting_lp(*args, **kwargs):
        res = real_lp(*args, **kwargs)
        calls.append(res.success)
        return res

    monkeypatch.setattr(eq_solvers, "linprog", counting_lp)
    inst = mg.make_instance("linear", [[0.0, 0.0, 3.0, 3.0], [1.0, 2.0, 3.0, 0.0],
                                       [1.0, 2.0, 1.0, 0.0]], [1.0, 1.0, 1.0])
    eq = mg.solve_linear_eg(inst)
    assert calls == [True]
    assert eq.converged
    assert mg.verify_kkt_linear(inst, eq.allocation, eq.prices).passed
    # a square system whose exact spending has a zero entry: whether the
    # LP runs depends on the rounding of that zero, the result does not
    inst = mg.make_instance("linear", [[1.0, 2.0, 3.0, 2.0, 3.0], [2.0, 0.0, 2.0, 2.0, 2.0]],
                            [2.0, 1.0])
    eq = mg.solve_linear_eg(inst)
    assert eq.converged
    assert mg.verify_kkt_linear(inst, eq.allocation, eq.prices).passed


@st.composite
def tie_graphs(draw):
    """A connected bipartite graph of agents and goods (edge lists ii, jj),
    positive budgets and prices with equal totals, and a spending on each
    edge between 0 and its agent's budget."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    edges = np.array(draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m),
                                   min_size=n, max_size=n)))
    # a spanning tree: agent 0 and good 0 first, then each node joins an
    # earlier node of the other side
    nodes = [(0, 0), (1, 0)] + draw(st.permutations(
        [(0, i) for i in range(1, n)] + [(1, j) for j in range(1, m)]))
    for k, (side, node) in enumerate(nodes[1:], 1):
        peers = [other for s, other in nodes[:k] if s != side]
        peer = peers[draw(st.integers(0, len(peers) - 1))]
        edges[(peer, node) if side else (node, peer)] = True
    ii, jj = np.nonzero(edges)
    budgets = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    prices = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m)))
    share = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=ii.size, max_size=ii.size)))
    return ii, jj, share * budgets[ii], budgets, prices * budgets.sum() / prices.sum()


@given(tie_graphs())
@settings(max_examples=200, deadline=None)
def test_spending_projection_is_the_minimum_norm_correction(graph):
    ii, jj, s0, budgets, prices = graph
    n, m, nnz = budgets.size, prices.size, ii.size
    keep = np.ones(m, dtype=bool)
    keep[np.argmax(prices)] = False
    s = eq_solvers._project_spending(0 * ii, ii, jj, s0, budgets[None], prices[None], keep[None])
    # the same equations, dense, each row divided by its right-hand side
    a = np.zeros((n + m, nnz))
    a[ii, np.arange(nnz)] = 1.0 / budgets[ii]
    a[n + jj, np.arange(nnz)] = 1.0 / prices[jj]
    a = a[np.r_[np.ones(n, dtype=bool), keep]]
    ref = s0 + np.linalg.lstsq(a, 1.0 - a @ s0, rcond=None)[0]
    assert np.abs(s - ref).max() <= 1e-10 * np.abs(ref).max()
    assert (np.abs(np.bincount(ii, s, n) - budgets) <= 1e-12 * budgets).all()
    assert (np.abs(np.bincount(jj, s, m) - prices) <= 1e-12 * prices).all()


@st.composite
def tie_flows(draw):
    """A ``tie_graphs`` graph with its start spending, budgets and the
    goods' demands: its drawn prices, which the edges may or may not carry,
    or the row and column sums of a positive spending on its edges, which
    they carry."""
    ii, jj, s0, budgets, prices = draw(tie_graphs())
    if draw(st.booleans()):
        spend = s0 + 0.01 * budgets[ii]
        budgets = np.bincount(ii, spend, budgets.size)
        prices = np.bincount(jj, spend, prices.size)
    return ii, jj, s0, budgets, prices


@given(tie_flows())
@settings(max_examples=300, deadline=None)
def test_tie_spending_fallback_is_sound(graph):
    # given the projection, the fallback finds a spending only where HiGHS
    # finds the LP feasible, and that spending carries every budget and
    # price; it may miss one that exists
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    ii, jj, s0, budgets, prices = graph
    n, m, nnz = budgets.size, prices.size, ii.size
    keep = np.ones(m, dtype=bool)
    keep[np.argmax(prices)] = False
    s = eq_solvers._project_spending(0 * ii, ii, jj, s0, budgets[None], prices[None],
                                     keep[None])
    res = eq_solvers.linprog(ii, jj, s, budgets, prices)
    if (s >= 0).all():
        assert res.success
    if res.success:
        # the equations of a connected graph, each row divided by its
        # right-hand side, less the dearest good's, which is redundant
        a = csr_matrix((np.r_[1.0 / budgets[ii], 1.0 / prices[jj]],
                        (np.r_[ii, n + jj], np.r_[np.arange(nnz), np.arange(nnz)])),
                       shape=(n + m, nnz))[np.r_[np.ones(n, dtype=bool), keep]]
        lp = linprog(np.zeros(nnz), A_eq=a, b_eq=np.ones(a.shape[0]), bounds=(0, None),
                     method="highs")
        assert lp.success
        assert (res.x >= 0).all()
        assert (np.abs(np.bincount(ii, res.x, n) - budgets) <= 1e-12 * budgets).all()
        assert (np.abs(np.bincount(jj, res.x, m) - prices) <= 1e-12 * prices).all()


def test_tied_linear_equilibrium_ignores_the_order_of_agents():
    # no order of agents enters the tie rule: this tied market's allocation
    # is the same under a relabelling that once moved it by 0.623
    v = np.array([[2, 1, 0, 3, 3], [1, 3, 0, 2, 0], [1, 3, 3, 1, 0], [1, 3, 2, 0, 0]], float)
    budgets = np.array([1.0, 2.0, 3.0, 1.0])
    order = [0, 2, 3, 1]
    eq = mg.solve_linear_eg(mg.make_instance("linear", v, budgets))
    other = mg.solve_linear_eg(mg.make_instance("linear", v[order], budgets[order]))
    assert eq.converged and other.converged
    assert np.abs(other.allocation - eq.allocation[order]).max() <= 1e-12


def _fresh_python(code, *args):
    """Run ``code`` in a new interpreter on this package; its stdout."""
    src = str(Path(mg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code,
                           *args], capture_output=True, text=True, env=env,
                          check=True).stdout


_SCIPY_PROBE = """\
import contextlib, io, json, sys
{first}
import marketgames as mg, marketgames.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

out = {{"import": scipy_modules()}}
inst = mg.gen_random(4, 3, "linear", seed=3)
dyn = mg.br_dynamics(inst, 1e-4)
mg.verify_tp_ne(inst, dyn.bids, 1e-4)
with open(sys.argv[1], "w") as f:
    f.write(inst.to_json())
with contextlib.redirect_stdout(io.StringIO()):
    out["exit"] = marketgames.cli.main(["tp-dynamics", sys.argv[1]])
out["unsolved"] = scipy_modules()
eq = mg.solve_eg(inst)
out["linalg"] = "scipy.linalg" in sys.modules
out["bytes"] = [eq.allocation.tobytes().hex(), eq.prices.tobytes().hex()]
print(json.dumps(out))
"""


def test_scipy_loads_at_the_first_factorization(tmp_path):
    # importing the package, the CLI, and running the Trading Post leave
    # scipy out; the first Eisenberg-Gale solve binds LAPACK, and binds the
    # same routines as a process that loaded scipy.linalg up front
    lazy = json.loads(_fresh_python(_SCIPY_PROBE.format(first=""),
                                    str(tmp_path / "lazy.json")))
    eager = json.loads(_fresh_python(_SCIPY_PROBE.format(first="import scipy.linalg"),
                                     str(tmp_path / "eager.json")))
    assert lazy["import"] == [] and lazy["unsolved"] == []
    assert lazy["exit"] == 0
    assert lazy["linalg"]
    assert "scipy.linalg" in eager["import"]
    assert lazy["bytes"] == eager["bytes"]


def test_linear_solve_of_subnormal_valuations():
    # a subnormal valuation's interior-point start overflows to inf, which
    # the min over the row ignores: each max-normalized row holds a 1
    eq = mg.solve_eg(mg.make_instance("linear", [[5e-324, 1.0], [1.0, 1.0]]))
    assert eq.converged and eq.iterations == 3
    assert eq.prices.tolist() == [1.0, 1.0]
    inst = mg.make_instance("linear", [[1e-310, 1.0, 0.5], [1.0, 1.0, 0.3],
                                       [0.2, 0.4, 1.0]])
    for eq in (mg.solve_eg(inst), mg.solve_eg_many([inst])[0],
               mg.fisher_outcome(inst, inst.valuations.matrix).equilibrium):
        assert eq.converged and eq.iterations == 3
        assert eq.prices.tolist() == [1.0, 1.0, 1.0]


def test_linear_slack_that_would_overflow_breaks_down_quietly():
    # the lone agent's subnormal value leaves a slack of about 5e-324, on
    # which x / s overflows: the member breaks down before its first step,
    # without a warning, and a market stacked beside it is solved as alone
    inst = mg.make_instance("linear", [[5e-324, 1.0]])
    other = mg.make_instance("linear", [[2.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone, (stacked, beside) = mg.solve_eg(inst), mg.solve_eg_many([inst, other])
        fisher = mg.fisher_outcome(inst, inst.matrix).equilibrium
        single = mg.solve_eg(other)
    for eq in (alone, stacked, fisher):
        assert not eq.converged and eq.iterations == 0
    assert beside.converged
    assert beside.allocation.tobytes() == single.allocation.tobytes()
    assert beside.prices.tobytes() == single.prices.tobytes()



@pytest.mark.parametrize("v, budgets, steps, polished", [
    # budgets 13 orders apart: the interior point breaks down unpolished,
    # and its last iterate passes as it is
    pytest.param([[0.49, 0.83], [2.41, 2.48]], [3.5e-8, 3.4e5], 9, [], id="raw-iterate"),
    # the last iterate fails, so it is polished once at its own split
    pytest.param([[1.92, 1.18], [0.29, 0.95]], [4.5e7, 1.5e-4], 8, [1], id="broken-down"),
])
def test_linear_member_is_settled_at_its_exit(v, budgets, steps, polished, monkeypatch):
    calls, real = [], eq_solvers._linear_structure_polish

    def counting(*args):
        hit = real(*args)
        calls.append(hit[0].size)
        return hit

    monkeypatch.setattr(eq_solvers, "_linear_structure_polish", counting)
    inst = mg.make_instance("linear", v, budgets)
    eq = mg.solve_eg(inst)
    assert (eq.converged, eq.iterations, calls) == (True, steps, polished)
    assert mg.verify_kkt_linear(inst, eq.allocation, eq.prices).passed

def test_polish_prices_a_subnormal_component_without_overflow():
    # the live agent's one good is valued 5e-324, so its price from the
    # forest, exp(-q), is subnormal: scaling it to the budget must not
    # overflow
    inst = mg.make_instance("linear", [[1.0, 1.0], [1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = mg.fisher_outcome(inst, [[5e-324, 0.0], [0.0, 0.0]])
    eq = out.equilibrium
    assert eq.converged
    assert eq.allocation.tolist() == [[1.0, 0.0], [0.0, 0.0]]
    assert eq.prices.tolist() == [1.0, 0.0]
    assert out.flagged_agents == (1,)


@pytest.mark.parametrize("row", [[5e-324, 5e-324], [5e-324, 0.0], [1e-160, 1e-160]])
def test_leontief_row_that_underflows_breaks_down_quietly(row):
    # phi_0 = v_0 . p is 0 (or B_0 / phi_0^2 overflows) even at the uncut
    # prices: that member leaves the stack at once, unconverged, without a
    # division by zero; a market stacked beside it is solved as alone
    inst = mg.make_instance("leontief", [row, [1.0, 1.0]])
    other = mg.make_instance("leontief", [[1.0, 2.0], [2.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone, (stacked, beside) = mg.solve_eg(inst), mg.solve_eg_many([inst, other])
        fisher = mg.fisher_outcome(inst, inst.matrix).equilibrium
        assert mg.fisher_ne_falsify(inst, inst.matrix, trials=8).max_gain == 0.0
    for eq in (alone, stacked, fisher):
        assert not eq.converged and eq.iterations == 0
        assert math.isnan(eq.utilities[0])
    assert beside.converged
    assert beside.allocation.tobytes() == mg.solve_eg(other).allocation.tobytes()


def test_no_solve_converges_to_a_non_finite_utility():
    # the equilibrium is exact, but a utility of 2e308 overflows
    inst = mg.make_instance("linear", [[1e308, 1e308]])
    with np.errstate(over="ignore", invalid="ignore"):
        eq = mg.solve_eg(inst)
    assert np.isinf(eq.utilities).all()
    assert not eq.converged


def test_ces_rho_one_matches_linear_solver():
    inst = mg.make_instance("ces", [[1.0, 0.0], [0.5, 0.5]], rho=1.0)
    eq = mg.solve_ces_eg(inst, tol=1e-7)
    assert eq.utilities == pytest.approx([1.0, 0.5], abs=1e-8)
    for seed in (3, 8):
        ces = mg.gen_random(3, 3, "ces", rho=1.0, seed=seed)
        lin = mg.make_instance("linear", ces.matrix, ces.budgets)
        u_ces = mg.solve_ces_eg(ces, tol=1e-7).utilities
        u_lin = mg.solve_linear_eg(lin, 1e-9).utilities
        assert np.abs(u_ces - u_lin).max() <= 1e-8
        # both CES entries hand rho = 1 to the linear solve, byte for byte
        linear = mg.solve_linear_eg(lin)
        solved = eq_solvers._solve_profiles("ces", ces.matrix[None], ces.budgets,
                                            np.ones((1, 3), dtype=bool), rho=1.0)
        for eq in (mg.solve_ces_eg(ces), eq_solvers._member(solved, 0, ces.matrix)):
            assert (eq.iterations, eq.converged) == (linear.iterations, linear.converged)
            for got, want in ((eq.allocation, linear.allocation), (eq.prices, linear.prices),
                              (eq.utilities, linear.utilities)):
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, seed", [(3, 12), (2, 13), (2, 16), (2, 17)])
def test_near_linear_ces_takes_steps_that_cut_a_price_by_99_percent(n, seed):
    # sigma = 100: the first Newton step asks to cut a price by a factor of
    # about 5e12, so its fraction to the boundary is below 1e-12, yet it
    # moves that price by 99%; the solve once stopped there after 0 steps
    inst = mg.gen_random(n, 3, "ces", rho=0.99, seed=seed)
    eq = mg.solve_eg(inst)
    assert eq.converged and eq.iterations > 0
    assert mg.verify_eps_market_eq(inst, eq.allocation, eq.prices, eps=1e-6).passed



def test_near_linear_ces_steps_along_the_diagonal_where_a_solve_is_not_finite():
    # at rho = 0.9999 Cholesky accepts a Newton matrix that is singular to
    # rounding, and its solve reaches inf: that step is 0 * inf, and the
    # solve once stopped unconverged after 7 steps
    inst = mg.make_instance("ces", [[0.7, 3.6, 0.0], [0.0, 3.4, 0.7]], [0.18, 0.28],
                            rho=0.9999)
    eq = mg.solve_eg(inst)
    assert eq.converged and eq.iterations == 15
    assert mg.verify_eps_market_eq(inst, eq.allocation, eq.prices, eps=1e-6).passed

@st.composite
def eg_markets(draw, leontief=False):
    """Linear (rho = 1), CES and, if ``leontief``, Leontief markets with
    n, m <= 6."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rho = draw(st.sampled_from([1.0, 0.5, -1.0, -3.0] + ([None] if leontief else [])))
    entry = st.one_of(st.just(0.0), st.floats(0.05, 2.0))
    v = np.array(draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                               min_size=n, max_size=n)))
    for i in np.nonzero(~(v > 0).any(axis=1))[0]:
        v[i, draw(st.integers(0, m - 1))] = 1.0
    budgets = draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n))
    if rho is None:
        return mg.make_instance("leontief", v, budgets)
    if rho == 1.0:
        return mg.make_instance("linear", v, budgets)
    return mg.make_instance("ces", v, budgets, rho=rho)


@given(eg_markets(leontief=True))
# agent 1 splits its budget at the equilibrium; Mehrotra steps alone cycle here
@example(mg.make_instance("linear", [[1.0, 0.0], [1.0625, 1.75], [0.0, 1.0], [0.0, 1.0],
                                     [1.0, 0.0], [0.25, 1.0]], [4.0, 1.0, 3.0, 5.0, 2.5, 3.0]))
# a slack rounds to exactly zero before the tight/loose split is ever clean:
# the interior point breaks down and its last iterate is polished
@example(mg.make_instance("linear", [[1.0, 2.0, 0.0, 3.0, 1.0], [1.0, 3.0, 2.0, 1.0, 2.0],
                                     [1.0, 3.0, 0.0, 0.0, 3.0]], [1.0, 1.0, 1.0]))
@settings(max_examples=150, deadline=None)
def test_converged_solves_pass_their_verifier(inst):
    eq = mg.solve_eg(inst)
    assert eq.converged
    if inst.kind == "linear":
        assert mg.verify_kkt_linear(inst, eq.allocation, eq.prices).passed
    elif inst.kind == "leontief":
        assert mg.verify_kkt_leontief(inst, eq.allocation, eq.prices).passed
    else:
        assert mg.verify_eps_market_eq(inst, eq.allocation, eq.prices, eps=1e-6).passed


@given(eg_markets(), st.floats(1e-2, 1e2))
@settings(max_examples=100, deadline=None)
def test_budget_scaling_scales_prices(inst, c):
    eq = mg.solve_eg(inst)
    scaled = mg.solve_eg(mg.Instance(inst.n, inst.m, c * inst.budgets, inst.valuations))
    assert np.abs(scaled.prices / c - eq.prices).max() <= 1e-8
    assert np.abs(scaled.utilities - eq.utilities).max() <= 1e-8


@given(eg_markets(leontief=True), st.data())
@settings(max_examples=100, deadline=None)
def test_poa_ratio_at_least_one_against_converged_optimum(inst, data):
    # no feasible allocation has more NSW than a converged EG optimum
    eq = mg.solve_eg(inst)
    bids = np.array(data.draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=inst.m,
                                                max_size=inst.m),
                                       min_size=inst.n, max_size=inst.n)))
    eq_nsw = mg.nsw(inst.utilities(mg.tp_allocate(bids)), inst.budgets)
    if eq.converged:
        opt_nsw = mg.nsw(eq.utilities, inst.budgets)
        assert mg.poa_ratio(opt_nsw, eq_nsw) >= 1.0 - 1e-6


def test_ces_symmetric_split():
    inst = mg.make_instance("ces", [[1.0, 1.0], [1.0, 1.0]], rho=-5.0)
    eq = mg.solve_ces_eg(inst, tol=1e-8)
    assert eq.utilities[0] == pytest.approx(eq.utilities[1], abs=1e-6)
    assert eq.allocation == pytest.approx(np.full((2, 2), 0.5), abs=1e-5)


def _eg_objective(instance, allocation):
    u = instance.utilities(allocation)
    return float(instance.budgets @ np.log(u))


def test_ces_solver_beats_grid_search():
    # brute force over per-column exact splits at step 0.1 never beats the
    # solver by more than the grid resolution allows
    inst = mg.gen_random(3, 3, "ces", rho=0.5, seed=11)
    eq = mg.solve_ces_eg(inst, tol=1e-8)
    obj = _eg_objective(inst, eq.allocation)
    k = 10
    cols = []
    for a in range(k + 1):
        for b in range(k + 1 - a):
            cols.append((a / k, b / k, (k - a - b) / k))
    cols = np.array(cols)
    # x[c0, c1, c2, i, j]: agent i's share of good j is cols[c_j][i]
    g = len(cols)
    x = np.empty((g, g, g, 3, 3))
    x[..., 0] = cols[:, None, None, :]
    x[..., 1] = cols[None, :, None, :]
    x[..., 2] = cols[None, None, :, :]
    tiled = mg.ValuationProfile("ces", np.tile(inst.matrix, (g ** 3, 1)), rho=0.5)
    u = mg.eval_valuation_matrix(tiled, x.reshape(-1, 3)).reshape(-1, 3)
    good = (u > 0).all(axis=1)
    best = float((np.log(u[good]) @ inst.budgets).max())
    assert obj >= best - 1e-3
    assert abs(obj - best) <= 0.05  # grid resolution bound


def test_verify_kkt_linear_cases():
    inst = mg.gen_example_3_1()
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    p = np.array([1.0, 1.0])
    rep = mg.verify_kkt_linear(inst, x, p, 1e-8)
    assert rep.passed and rep.residuals.worst <= 1e-12

    bad_price = mg.verify_kkt_linear(inst, x, np.array([2.0, 1.0]), 1e-8)
    assert not bad_price.passed
    assert bad_price.residuals.budget == pytest.approx(1.0)

    x_bad = x.copy()
    x_bad[0, 0] = 0.9
    unsold = mg.verify_kkt_linear(inst, x_bad, p, 1e-8)
    assert not unsold.passed
    assert unsold.residuals.clearing == pytest.approx(0.1)


def test_verify_kkt_leontief_cases():
    inst = mg.gen_identity_leontief(5)
    assert mg.verify_kkt_leontief(inst, np.eye(5), np.ones(5), 1e-8).passed

    uniform = np.full((5, 5), 0.2)
    rep = mg.verify_kkt_leontief(inst, uniform, np.ones(5), 1e-8)
    assert not rep.passed
    assert rep.residuals.stationarity == pytest.approx(0.8)

    inst = mg.gen_random(4, 3, "leontief", seed=17)
    eq = mg.solve_leontief_dual(inst, 1e-9)
    assert mg.verify_kkt_leontief(inst, eq.allocation, eq.prices, 1e-7).passed


@pytest.mark.parametrize("kind", ["linear", "leontief"])
def test_kkt_verifiers_reject_a_misshapen_point(kind):
    # the one-row allocation once broadcast against both agents and passed
    # with every residual 0, at prices (0.5, 0.5) where the equilibrium's
    # are (1, 1)
    inst = mg.make_instance(kind, [[1.0, 1.0], [1.0, 1.0]])
    verify = mg.verify_kkt_linear if kind == "linear" else mg.verify_kkt_leontief
    with pytest.raises(ValueError, match="allocation"):
        verify(inst, [[1.0, 1.0]], [0.5, 0.5])
    half = np.full((2, 2), 0.5)
    for prices in ([1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]]):
        with pytest.raises(ValueError, match="prices"):
            verify(inst, half, prices)
        with pytest.raises(ValueError, match="prices"):
            mg.verify_eps_market_eq(inst, half, prices, 0.0)
    assert verify(inst, half, [1.0, 1.0]).passed


@st.composite
def kkt_stacks(draw):
    """A kind and one to five points of one n x m shape to check: per
    member valuations (every agent demanding a good), budgets, allocations
    with NaN entries, prices with zeros, and a tolerance."""
    kind = draw(st.sampled_from(["linear", "leontief"]))
    n, m, size = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 5))

    def stack(shape, entry):
        flat = draw(st.lists(entry, min_size=math.prod(shape), max_size=math.prod(shape)))
        return np.array(flat, dtype=float).reshape(shape)

    v = stack((size, n, m), st.one_of(st.just(0.0), st.floats(0.05, 2.0)))
    for k, i in zip(*np.nonzero(~(v > 0).any(axis=2))):
        v[k, i, draw(st.integers(0, m - 1))] = 1.0
    budgets = stack((size, n), st.floats(0.1, 5.0))
    x = stack((size, n, m), st.one_of(st.sampled_from([0.0, 1e-10, 0.5, 1.0, np.nan]),
                                      st.floats(0.0, 2.0)))
    p = stack((size, m), st.one_of(st.just(0.0), st.floats(0.01, 3.0)))
    tol = stack((size,), st.sampled_from([1e-12, 1e-8, 1e-2, 0.5, 2.0]))
    return kind, v, budgets, x, p, tol


@given(kkt_stacks())
# a Leontief agent whose demanded goods are all free (phi_i = 0)
@example(("leontief", np.array([[[1.0, 0.0], [0.5, 1.0]]]), np.ones((1, 2)),
          np.array([[[1.0, 0.0], [0.0, 1.0]]]), np.array([[0.0, 2.0]]), np.array([1e-8])))
# a linear agent buying a free demanded good (infinite bang per buck)
@example(("linear", np.array([[[1.0, 1.0]]] * 2), np.ones((2, 1)),
          np.array([[[1.0, 0.0]], [[0.0, 1.0]]]), np.array([[0.0, 1.0]] * 2),
          np.array([1e-8, 0.5])))
@settings(max_examples=200, deadline=None)
def test_stacked_kkt_checks_match_single_checks(stack):
    kind, v, budgets, x, p, tol = stack
    many, verify = ((eq_solvers._kkt_linear_many, mg.verify_kkt_linear) if kind == "linear"
                    else (eq_solvers._kkt_leontief_many, mg.verify_kkt_leontief))
    res, passed = many(v, budgets, x, p, tol)
    for k in range(len(v)):
        alone = verify(mg.make_instance(kind, v[k], budgets[k]), x[k], p[k], tol[k])
        assert np.array(dataclasses.astuple(alone.residuals)).tobytes() == res[k].tobytes()
        assert alone.passed == passed[k]


def test_optimal_bundle_leontief_identity():
    prof = mg.ValuationProfile("leontief", [[1.0, 1.0]])
    assert mg.optimal_bundle_utility(prof, 0, 1.0, [1.0, 1.0]) == pytest.approx(0.5)


def test_optimal_bundle_linear_best_ratio():
    prof = mg.ValuationProfile("linear", [[1.0, 0.5]])
    assert mg.optimal_bundle_utility(prof, 0, 1.0, [1.0, 1.0]) == pytest.approx(1.0)
    assert mg.optimal_bundle_utility(prof, 0, 1.0, [0.0, 1.0]) == math.inf


@st.composite
def priced_markets(draw):
    """A small market of any kind, its prices (some zero or negative, so
    that demanded goods may be free and a Leontief phi not positive) and
    its positive budgets."""
    kind, rho = draw(st.sampled_from([("linear", None), ("leontief", None), ("ces", 1.0),
                                      ("ces", 0.9), ("ces", 0.5), ("ces", -1.0),
                                      ("ces", -3.0)]))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 10))
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    v = np.array(draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                               min_size=n, max_size=n)))
    for i in range(n):
        v[i, draw(st.integers(0, m - 1))] = draw(st.floats(1e-3, 1e3))
    price = st.one_of(st.floats(1e-3, 1e3), st.just(0.0), st.floats(-1e3, -1e-3))
    p = np.array(draw(st.lists(price, min_size=m, max_size=m)))
    budgets = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    return mg.make_instance(kind, v, budgets, rho), p


@given(priced_markets())
@settings(max_examples=300, deadline=None)
def test_eps_verifier_optima_are_the_closed_forms(market):
    # verify_eps_market_eq evaluates every agent's optimum in one pass; each
    # is optimal_bundle_utility's, infinite where it is.  Linear and
    # Leontief take the same operations, so they agree exactly.  CES sums
    # its exponentials with the undemanded goods' zeros among them, which
    # numpy's pairwise sum may group otherwise: a few ulps per good (m <= 10)
    # in the log-sum, divided by |1 - sigma| >= 0.5, about 1e-14 relative
    inst, p = market
    one_pass = mg.verify_eps_market_eq(inst, np.zeros((inst.n, inst.m)), p,
                                       0.1).optimal_utilities
    alone = np.array([mg.optimal_bundle_utility(inst.valuations, i,
                                                float(inst.budgets[i]), p)
                      for i in range(inst.n)])
    assert np.array_equal(np.isinf(one_pass), np.isinf(alone))
    if inst.kind == "ces" and inst.valuations.rho != 1.0:
        np.testing.assert_allclose(one_pass, alone, rtol=1e-13, atol=0.0)
    else:
        assert one_pass.tobytes() == alone.tobytes()


def test_optimal_bundle_ces_matches_budget_line_grid():
    prof = mg.ValuationProfile("ces", [[1.0, 1.0]], rho=0.5)
    val = mg.optimal_bundle_utility(prof, 0, 1.0, [1.0, 1.0])
    s = np.linspace(0.0, 1.0, 20001)
    bundles = np.stack([s, 1.0 - s], axis=1)
    grid = mg.eval_valuation_matrix(
        mg.ValuationProfile("ces", np.ones((len(s), 2)), rho=0.5), bundles).max()
    assert val == pytest.approx(float(grid), abs=1e-4)
    assert val == pytest.approx(2.0, abs=1e-8)  # closed form (2 * sqrt(.5))^2


def test_verify_eps_ces_wide_price_range():
    # prices span 1e-7 to 1e2 on one agent's goods; the optimal-bundle value
    # is the closed form B / e(p), computed in logs
    rng = np.random.default_rng(0)
    inst = mg.make_instance("ces", 10.0 ** rng.uniform(-4, 4, size=(5, 24)),
                            10.0 ** rng.uniform(-3, 3, size=5), rho=0.5)
    eq = mg.solve_eg(inst)
    assert eq.converged
    rep = mg.verify_eps_market_eq(inst, eq.allocation, eq.prices, eps=1e-6)
    assert rep.passed
    assert rep.eps_required <= 1e-12


def test_verify_eps_on_exact_equilibrium():
    inst, x, p = gen_positive_leontief(3, 3, seed=2)
    rep = mg.verify_eps_market_eq(inst, x, p, eps=0.0, tol=1e-7)
    assert rep.passed
    assert rep.eps_required <= 1e-9
    # solver outputs are 0-equilibria as well
    eq = mg.solve_leontief_dual(inst, 1e-10)
    rep = mg.verify_eps_market_eq(inst, eq.allocation, eq.prices, eps=0.0, tol=1e-7)
    assert rep.passed and rep.eps_required <= 1e-7


def test_verify_eps_suboptimal_bundles():
    inst = mg.gen_identity_leontief(2)
    x = np.array([[0.9, 0.1], [0.1, 0.9]])
    rep = mg.verify_eps_market_eq(inst, x, np.ones(2), eps=0.05)
    assert rep.budget_ok and rep.clearing_ok
    assert not rep.passed
    assert rep.eps_required == pytest.approx(1 / 0.9 - 1, abs=1e-9)
    assert mg.verify_eps_market_eq(inst, x, np.ones(2), eps=0.12).passed


def test_verify_eps_needs_infinite_eps_at_a_subnormal_utility():
    # agent 1 could buy 1 but holds 5e-324 of its good: the ratio overflows
    inst = mg.gen_identity_leontief(2)
    rep = mg.verify_eps_market_eq(inst, np.diag([1.0, 5e-324]), np.ones(2), eps=0.0)
    assert rep.eps_required == math.inf and not rep.passed


def test_verify_eps_tp_delta_equilibrium():
    inst = mg.gen_random(3, 3, "leontief", seed=33)
    delta = 1e-4
    dyn = mg.br_dynamics(inst, delta, max_rounds=2000, tol=1e-10)
    assert dyn.converged
    rep = mg.verify_eps_market_eq(inst, dyn.allocation, dyn.prices,
                                  eps=inst.m ** 2 * delta, tol=1e-7)
    assert rep.passed


def test_duality_gap_cases():
    inst = mg.gen_identity_leontief(3)
    assert mg.duality_gap_leontief(inst, np.eye(3), np.ones(3)) == pytest.approx(0.0, abs=1e-12)

    two = mg.gen_identity_leontief(2)
    assert mg.duality_gap_leontief(two, np.eye(2), np.array([2.0, 0.0])) > 0

    inst = mg.gen_random(4, 4, "leontief", seed=5)
    eq = mg.solve_leontief_dual(inst, 1e-9)
    gap = mg.duality_gap_leontief(inst, eq.allocation, eq.prices)
    assert -1e-10 <= gap <= 1e-6


def test_duality_gap_is_infinite_at_a_zero_utility():
    two = mg.gen_identity_leontief(2)
    assert mg.duality_gap_leontief(two, [[1.0, 0.0], [0.0, 0.0]], np.ones(2)) == math.inf


def test_eps_pass_implies_nsw_factor():
    # consistency with the approximate-equilibrium welfare bound on
    # perturbed equilibria
    rng = np.random.default_rng(0)
    inst, x, p = gen_positive_leontief(3, 3, seed=4)
    opt = mg.nsw(inst.utilities(x), inst.budgets)
    for _ in range(10):
        bids = x * p * (1 + 0.03 * rng.standard_normal((3, 3)))
        bids = np.clip(bids, 1e-9, None)
        bids *= (inst.budgets / bids.sum(axis=1))[:, None]
        prices = bids.sum(axis=0)
        alloc = bids / prices
        rep = mg.verify_eps_market_eq(inst, alloc, prices, eps=1.0, tol=1e-7)
        assert rep.passed
        eps = rep.eps_required
        val = mg.nsw(inst.utilities(alloc), inst.budgets)
        assert opt / val <= 1 + eps + 1e-7


def test_solver_kind_checks():
    lin = mg.gen_example_3_1()
    leo = mg.gen_identity_leontief(2)
    with pytest.raises(ValueError):
        mg.solve_linear_eg(leo)
    with pytest.raises(ValueError):
        mg.solve_leontief_dual(lin)
    with pytest.raises(ValueError):
        mg.solve_ces_eg(lin)
    with pytest.raises(ValueError):
        mg.verify_kkt_linear(leo, np.eye(2), np.ones(2))
    with pytest.raises(ValueError):
        mg.verify_kkt_leontief(lin, np.eye(2), np.ones(2))
    # solve_eg takes init_bids by name, so a misspelt keyword is an error
    # for every kind rather than silently dropped
    for inst in (leo, mg.gen_random(2, 2, "ces", rho=0.5, seed=0)):
        with pytest.raises(TypeError):
            mg.solve_eg(inst, init_bidz=1)


def _stationarity_by_agent(instance, allocation, prices):
    """The linear stationarity residual, one agent at a time: the reference
    for ``verify_kkt_linear``'s array form."""
    x, p, v = np.asarray(allocation, float), np.asarray(prices, float), instance.matrix
    with np.errstate(divide="ignore", invalid="ignore"):
        bpb = np.where(v > 0, v / np.where(p > 0, p, 0.0), 0.0)
    alpha = bpb.max(axis=1)
    active = x > 1e-9
    rel = np.zeros_like(x)
    for i in range(instance.n):
        if not active[i].any():
            continue
        if not math.isfinite(alpha[i]):
            rel[i, active[i]] = np.where(np.isinf(bpb[i, active[i]]), 0.0, 1.0)
        else:
            rel[i, active[i]] = (alpha[i] - bpb[i, active[i]]) / max(alpha[i], 1e-300)
    return float(rel.max())


@given(st.integers(1, 5), st.integers(1, 5), st.data())
@settings(max_examples=200, deadline=None)
def test_linear_stationarity_matches_the_per_agent_loop(n, m, data):
    def matrix(rows, cols, entry):
        return np.array(data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                           min_size=rows, max_size=rows)))

    v = matrix(n, m, st.one_of(st.just(0.0), st.floats(0.05, 2.0)))
    v[~(v > 0).any(axis=1), 0] = 1.0
    inst = mg.make_instance("linear", v)
    x = matrix(n, m, st.sampled_from([0.0, 1e-10, 0.3, 1.0, np.nan]))
    p = matrix(1, m, st.one_of(st.just(0.0), st.floats(0.01, 3.0)))[0]
    got = mg.verify_kkt_linear(inst, x, p).residuals.stationarity
    assert got == _stationarity_by_agent(inst, x, p)


@st.composite
def same_shape_stacks(draw):
    """One to six linear, Leontief or CES markets of one shape (and rho),
    each good demanded, as ``solve_eg_many`` stacks them."""
    kind, rho = draw(st.sampled_from([("linear", None), ("leontief", None), ("ces", 0.5),
                                      ("ces", -1.0), ("ces", -3.0), ("ces", 0.99)]))
    n, m, size = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.one_of(st.just(0.0), st.floats(0.05, 2.0))
    markets = []
    for _ in range(size):
        v = np.array(draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                                   min_size=n, max_size=n)))
        for i in np.nonzero(~(v > 0).any(axis=1))[0]:
            v[i, draw(st.integers(0, m - 1))] = 1.0
        for j in np.nonzero(~(v > 0).any(axis=0))[0]:
            v[draw(st.integers(0, n - 1)), j] = 1.0
        budgets = draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n))
        markets.append(mg.make_instance(kind, v, budgets, rho))
    return markets


@given(same_shape_stacks())
@settings(max_examples=100, deadline=None)
def test_stacked_solves_match_single_solves(markets):
    for inst, eq in zip(markets, mg.solve_eg_many(markets)):
        alone = mg.solve_eg(inst)
        assert (eq.iterations, eq.converged) == (alone.iterations, alone.converged)
        assert np.abs(eq.allocation - alone.allocation).max() <= 1e-12
        if inst.kind == "linear":  # Leontief prices need not be unique
            assert np.abs(eq.prices - alone.prices).max() <= 1e-12
        if inst.kind == "ces":
            assert eq.allocation.tobytes() == alone.allocation.tobytes()
            assert eq.prices.tobytes() == alone.prices.tobytes()


@given(same_shape_stacks(), st.data())
@settings(max_examples=100, deadline=None)
def test_a_profile_solve_depends_on_neither_its_stack_nor_its_layout(markets, data):
    # the markets, shuffled, with agents outside them (valuing everything)
    # among their rows, handed to the array entry as a strided view: each
    # member is solve_eg of its market, byte for byte
    (n, m), size = markets[0].matrix.shape, len(markets)
    total = n + data.draw(st.integers(0, 2))
    rows = sorted(data.draw(st.lists(st.integers(0, total - 1), min_size=n, max_size=n,
                                     unique=True)))
    v, budgets = np.ones((size, total, m)), np.ones((size, total))
    v[:, rows] = [inst.matrix for inst in markets]
    budgets[:, rows] = [inst.budgets for inst in markets]
    order = np.array(data.draw(st.permutations(range(size))))
    live = np.zeros((size, total), dtype=bool)
    live[:, rows] = True
    everyone = np.arange(total)
    solved = eq_solvers._solve_profiles(markets[0].kind, v[order][:, everyone],
                                        budgets[order][:, everyone], live,
                                        rho=markets[0].valuations.rho)
    for k, inst in enumerate(markets[i] for i in order):
        alone = mg.solve_eg(inst)
        assert solved.allocations[k][rows].tobytes() == alone.allocation.tobytes()
        assert not np.delete(solved.allocations[k], rows, axis=0).any()
        assert solved.prices[k].tobytes() == alone.prices.tobytes()
        assert (solved.iterations[k], solved.converged[k]) == (alone.iterations,
                                                               alone.converged)


@pytest.mark.parametrize("kind, failure", [
    pytest.param("linear", "factor", id="linear"),
    pytest.param("leontief", "factor", id="leontief"),
    pytest.param("linear", "step", id="linear-no-step"),
    pytest.param("leontief", "step", id="leontief-no-step"),
    pytest.param("ces", "factor", id="ces"),
])
def test_a_failing_member_leaves_the_stack_alone(kind, failure, monkeypatch):
    # at the second step the second member's Newton matrix is rejected, or
    # its step is reported as not taken: it stops after one step (a CES
    # member takes the diagonal step instead), and the other members solve
    # as they do alone
    rho = 0.5 if kind == "ces" else None
    markets = [mg.gen_random(5, 4, kind, rho=rho, seed=seed) for seed in range(3)]
    alone = [mg.solve_eg(inst) for inst in markets]
    assert all(eq.converged and eq.iterations > 2 for eq in alone)
    calls = []
    if failure == "factor":
        real = eq_solvers._newton_factors

        def fail_second(d, w, c):
            factors = real(d, w, c)
            calls.append(len(factors))
            if len(calls) == 2:
                factors[min(1, len(factors) - 1)] = None
            return factors

        monkeypatch.setattr(eq_solvers, "_newton_factors", fail_second)
    else:
        real = eq_solvers._safeguarded_steps

        def fail_second(point, *args):
            new, moved = real(point, *args)
            calls.append(moved.size)
            if len(calls) == 2:
                for a, old in zip(new, point):
                    a[1] = old[1]
                moved[1] = False
            return new, moved

        monkeypatch.setattr(eq_solvers, "_safeguarded_steps", fail_second)
    stacked = mg.solve_eg_many(markets)
    assert calls[:2] == [3, 3]
    if kind == "ces":
        # as alone with its second Newton matrix rejected, and not as alone
        calls.clear()
        diag = mg.solve_eg(markets[1])
        assert calls[:2] == [1, 1] and diag.converged
        assert (stacked[1].iterations, stacked[1].converged) == (diag.iterations, True)
        assert stacked[1].prices.tobytes() == diag.prices.tobytes()
        assert stacked[1].prices.tobytes() != alone[1].prices.tobytes()
    else:
        assert stacked[1].iterations == 1 and not stacked[1].converged
    for k in (0, 2):
        assert (stacked[k].iterations, stacked[k].converged) == (alone[k].iterations, True)
        assert np.array_equal(stacked[k].allocation, alone[k].allocation)
        assert np.array_equal(stacked[k].prices, alone[k].prices)


def test_stacks_are_capped_at_stack_entries(monkeypatch):
    # five 4 x 3 markets under a cap of two markets' entries: stacks of 2, 2
    # and 1, each member solved as alone
    markets = [mg.gen_random(4, 3, "leontief", seed=seed) for seed in range(5)]
    real, sizes = eq_solvers._solve_leontief_stack, []

    def counting(instances, *args):
        sizes.append(len(instances))
        return real(instances, *args)

    monkeypatch.setattr(eq_solvers, "STACK_ENTRIES", 2 * 4 * 3)
    monkeypatch.setattr(eq_solvers, "_solve_leontief_stack", counting)
    stacked = mg.solve_eg_many(markets)
    assert sizes == [2, 2, 1]
    for inst, eq in zip(markets, stacked):
        assert np.array_equal(eq.allocation, mg.solve_eg(inst).allocation)
