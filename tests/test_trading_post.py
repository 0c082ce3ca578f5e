import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import marketgames as mg
from marketgames import trading_post
from marketgames.instance_lab import gen_positive_leontief
from marketgames.trading_post import check_bid_profile, effective_bids


def test_tp_allocate_symmetric():
    x = mg.tp_allocate([[0.5, 0.5], [0.5, 0.5]], 0.0)
    assert x == pytest.approx(np.full((2, 2), 0.5))


def test_tp_allocate_voids_small_bids():
    x = mg.tp_allocate([[0.05, 0.95], [0.5, 0.5]], 0.1)
    assert x[0] == pytest.approx([0.0, 0.95 / 1.45])
    assert x[1] == pytest.approx([1.0, 0.5 / 1.45])


def test_tp_allocate_sole_bidder_and_dead_goods():
    x = mg.tp_allocate([[0.0, 1.0], [0.0, 0.0]], 0.0)
    assert x[0] == pytest.approx([0.0, 1.0])
    assert x[:, 0] == pytest.approx([0.0, 0.0])


@given(st.integers(1, 5), st.integers(1, 5), st.sampled_from([0.0, 1e-3, 0.1]), st.data())
@settings(max_examples=200, deadline=None)
def test_tp_allocate_columns_sum_to_zero_or_one(n, m, delta, data):
    bid = st.one_of(st.just(0.0), st.just(delta), st.floats(0.0, 1e3))
    bids = data.draw(st.lists(st.lists(bid, min_size=m, max_size=m), min_size=n, max_size=n))
    sums = mg.tp_allocate(bids, delta).sum(axis=0)
    assert (np.minimum(np.abs(sums), np.abs(sums - 1.0)) <= 1e-12).all()


def test_br_linear_symmetric():
    r = mg.br_linear(np.array([1.0, 1.0]), 1.0, np.array([1.0, 1.0]))
    assert r.bids == pytest.approx([0.5, 0.5], abs=1e-9)
    assert r.utility == pytest.approx(2 / 3, abs=1e-9)


def test_br_linear_corner_solution():
    # water-filling by hand: lambda = 1/4 puts all budget on the cheap good
    r = mg.br_linear(np.array([1.0, 1.0]), 1.0, np.array([4.0, 1.0]))
    assert r.bids == pytest.approx([0.0, 1.0], abs=1e-9)
    assert r.utility == pytest.approx(0.5, abs=1e-9)
    prof = mg.ValuationProfile("linear", [[1.0, 1.0]])
    grid = mg.br_grid_oracle(prof, 0, 1.0, np.array([4.0, 1.0]), grid_step=1e-3)
    assert r.utility >= grid.utility - 1e-9


def test_br_linear_dominates_safe_bid():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.uniform(0.1, 1.0, size=3)
        d = rng.uniform(0.2, 2.0, size=3)
        budget = rng.uniform(0.5, 2.0)
        safe = mg.safe_strategy(budget, d)
        safe_util = float(v @ (safe / (safe + d)))
        assert mg.br_linear(v, budget, d).utility >= safe_util - 1e-10


def test_br_linear_monopoly_rules():
    with pytest.raises(ValueError):
        mg.br_linear(np.array([1.0, 1.0]), 1.0, np.array([0.0, 1.0]), delta=0.0)
    r = mg.br_linear(np.array([1.0, 1.0]), 1.0, np.array([0.0, 1.0]), delta=0.05)
    assert r.bids[0] == pytest.approx(0.05)  # monopoly claimed at the floor
    assert r.bids.sum() == pytest.approx(1.0)


def test_br_leontief_symmetric():
    # 2t/(1-t) = 1 at t = 1/3
    r = mg.br_leontief(np.array([1.0, 1.0]), 1.0, np.array([1.0, 1.0]))
    assert r.bids == pytest.approx([0.5, 0.5], abs=1e-9)
    assert r.utility == pytest.approx(1 / 3, abs=1e-9)


def test_br_leontief_vs_grid():
    prof = mg.ValuationProfile("leontief", [[1.0, 1.0]])
    r = mg.br_leontief(np.array([1.0, 1.0]), 1.0, np.array([1.0, 3.0]))
    grid = mg.br_grid_oracle(prof, 0, 1.0, np.array([1.0, 3.0]), grid_step=1e-3)
    assert abs(r.utility - grid.utility) <= 1e-3
    assert r.utility >= grid.utility - 1e-9


def test_br_leontief_single_demanded_good():
    r = mg.br_leontief(np.array([1.0, 0.0]), 1.0, np.array([1.0, 1.0]))
    assert r.bids == pytest.approx([1.0, 0.0])
    assert r.utility == pytest.approx(0.5)


@pytest.mark.parametrize("oracle", [
    lambda v, b, d, delta: mg.br_linear(v, b, d, delta),
    lambda v, b, d, delta: mg.br_leontief(v, b, d, delta),
    lambda v, b, d, delta: mg.br_ces(v, b, d, 0.5, delta),
    lambda v, b, d, delta: mg.br_concave_numeric(
        mg.ValuationProfile("linear", v[None, :]), 0, b, d, delta),
], ids=["br_linear", "br_leontief", "br_ces", "br_concave_numeric"])
def test_br_floor_feasibility(oracle):
    # a budget below delta times the demanded goods is refused by every
    # oracle, whether the goods are contested or not
    for opp in ([1.0, 1.0], [0.0, 1.0]):
        with pytest.raises(ValueError, match="infeasible floors"):
            oracle(np.array([1.0, 1.0]), 0.05, np.array(opp), 0.2)


@pytest.mark.parametrize("oracle", [
    mg.br_linear, mg.br_leontief, lambda v, b, d, delta: mg.br_ces(v, b, d, 0.5, delta),
], ids=["br_linear", "br_leontief", "br_ces"])
def test_br_fee_check_is_strict_in_floating_point(oracle):
    # a budget short of the fees only by rounding (3 * 0.1 exceeds 0.3) would
    # leave a bid below delta, where the fee rule voids it
    for values, budget, delta in (([1.0, 1.0], 0.0019999999999998, 1e-3),
                                  ([1.0, 1.0, 1.0], 0.3, 0.1)):
        with pytest.raises(ValueError, match="infeasible floors"):
            oracle(np.array(values), budget, np.ones(len(values)), delta)
    # a budget the fees take exactly buys every good at the fee
    for values, budget, delta in (([1.0, 1.0], 2e-3, 1e-3), ([1.0, 1.0, 1.0], 3e-3, 1e-3)):
        bids = oracle(np.array(values), budget, np.ones(len(values)), delta).bids
        assert bids.tolist() == [delta] * len(values)


_SETTLED_ORACLES = {
    "br_linear": mg.br_linear,
    "br_leontief": mg.br_leontief,
    **{f"br_ces_rho{rho:g}": lambda v, b, d, delta, rho=rho: mg.br_ces(v, b, d, rho, delta)
       for rho in (0.5, -1.0, -3.0)},
}


@pytest.mark.parametrize("oracle", _SETTLED_ORACLES.values(), ids=_SETTLED_ORACLES.keys())
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["no fee", "fee", "fee band"]), st.data())
@settings(max_examples=60, deadline=None)
def test_br_bids_sum_to_the_budget_within_an_ulp(oracle, seed, fee, data):
    # every oracle settles its row by math.fsum: the bids sum to the budget
    # within one ulp of it, and no positive bid is below delta, even when the
    # fees take the budget up to rounding ("fee band"); rows hold undemanded
    # goods and, with a fee, monopolized ones
    sizes = [1, 2, 8, 30, 300] if fee == "no fee" else [1, 2, 3, 5, 8, 12]
    m = data.draw(st.sampled_from(sizes))
    rng = np.random.default_rng(seed)
    v = np.where(rng.random(m) < 0.2, 0.0, rng.uniform(0.05, 2.0, m))
    v[rng.integers(m)] = 1.0
    d = np.exp(rng.uniform(-3.0, 2.0, m))
    budget, delta = float(np.exp(rng.uniform(-2.0, 2.0))), 0.0
    if fee != "no fee":
        d[rng.random(m) < 0.25] = 0.0
        k = np.count_nonzero(v)
        delta = budget / k * (1.0 if fee == "fee band" else rng.uniform(0.01, 0.99))
        if fee == "fee band":
            budget = delta * k
            for _ in range(data.draw(st.integers(0, 2))):
                budget = math.nextafter(budget, math.inf)
    bids = oracle(v, budget, d, delta).bids
    assert abs(math.fsum(bids.tolist()) - budget) <= math.ulp(budget)
    assert not ((bids > 0) & (bids < delta)).any()


def test_br_linear_survives_underflowing_products():
    # every v_j D_j underflows to 0: the water-fill must not divide by it
    bids = mg.br_linear([1e-200, 2e-200], 1.0, [1e-200, 1e-200]).bids
    assert bids == pytest.approx([0.41421356, 0.58578644])
    assert math.fsum(bids.tolist()) == 1.0


@pytest.mark.parametrize("oracle", [mg.br_linear, mg.br_leontief,
                                    lambda v, b, d, delta: mg.br_ces(v, b, d, -1.0, delta)],
                         ids=["br_linear", "br_leontief", "br_ces"])
@pytest.mark.parametrize("values, budget, opp, delta, bad", [
    ([1.0, 1.0], 1.0, [np.nan, 1.0], 0.0, "opp_spend"),
    ([1.0, 1.0], 1.0, [np.inf, 1.0], 0.0, "opp_spend"),
    ([1.0, 1.0], 1.0, [1.0, -0.5], 0.1, "opp_spend"),
    ([1.0, np.nan], 1.0, [1.0, 1.0], 0.0, "values"),
    ([np.inf, 1.0], 1.0, [1.0, 1.0], 0.0, "values"),
    ([1.0, -1.0], 1.0, [1.0, 1.0], 0.0, "values"),
    ([1.0, 1.0], np.nan, [1.0, 1.0], 0.0, "budget"),
    ([1.0, 1.0], np.inf, [1.0, 1.0], 0.0, "budget"),
    ([1.0, 1.0], 1.0, [1.0, 1.0], np.nan, "delta"),
    ([1.0, 1.0], 1.0, [1.0, 1.0], np.inf, "delta"),
    ([1.0, 1.0], 1.0, [1.0, 1.0], -1e-3, "delta"),
])
def test_br_oracles_reject_malformed_input(oracle, values, budget, opp, delta, bad):
    # a NaN, an infinity or a negative entry would otherwise drop a good or
    # return NaN bids with converged=True
    with pytest.raises(ValueError, match=f"^{bad} must be"):
        oracle(np.array(values), budget, np.array(opp), delta)


def test_verify_tp_ne_refuses_fees_a_budget_cannot_cover():
    # agent 0 cannot pay the fee on both goods it demands, and claiming
    # good 0 alone would gain it 0.225: no certificate can be given
    inst = mg.make_instance("linear", [[0.397, 0.949], [0.0, 1.0]], [0.233, 1.049])
    with pytest.raises(ValueError, match="infeasible floors"):
        mg.verify_tp_ne(inst, [[0.0, 0.233], [0.0, 1.049]], 0.124)


@st.composite
def br_inputs(draw):
    m = draw(st.integers(1, 6))
    v = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 2.0)),
                      min_size=m, max_size=m).filter(any))
    d = draw(st.lists(st.floats(0.05, 3.0), min_size=m, max_size=m))
    budget = draw(st.floats(0.1, 5.0))
    delta = draw(st.sampled_from([0.0, 1e-4, 1e-2]))
    return np.array(v), np.array(d), budget, delta


def _equal(xs):
    return np.ptp(xs) <= 1e-9 * xs.max()


def _assert_linear_kkt(v, d, budget, delta):
    # KKT of max sum_j v_j b_j / (b_j + D_j) on the budget simplex: goods bid
    # above their floor share the marginal v_j D_j / (b_j + D_j)^2 = lambda,
    # and no good left at its floor (0, or delta on the chosen support) has a
    # larger one
    b = mg.br_linear(v, budget, d, delta).bids
    assert b.sum() == pytest.approx(budget, rel=1e-12)
    assert (b[v == 0] == 0).all()
    marginal = v * d / (b + d) ** 2
    above = b > delta * (1 + 1e-9)
    assert above.any()
    lam = marginal[above]
    assert _equal(lam)
    if delta == 0:
        assert (v[~above] / d[~above] <= lam.max() * (1 + 1e-9)).all()
    else:
        assert (b[~above & (b > 0)] >= delta * (1 - 1e-12)).all()
        assert (marginal[~above & (b > 0)] <= lam.max() * (1 + 1e-9)).all()


@given(br_inputs())
@settings(max_examples=200, deadline=None)
def test_br_linear_meets_optimality_conditions(inputs):
    _assert_linear_kkt(*inputs)


@pytest.mark.parametrize("m", [300, 1001])
@pytest.mark.parametrize("delta", [0.0, 1e-4])
def test_br_linear_meets_optimality_conditions_on_wide_rows(m, delta):
    # rows as wide as the lower-bound certificate's, about a third of the
    # goods undemanded, at budgets that leave tens or hundreds of goods bid
    rng = np.random.default_rng(m)
    for budget in (1.0, m / 10):
        v = np.where(rng.random(m) < 1 / 3, 0.0, rng.uniform(0.05, 2.0, m))
        _assert_linear_kkt(v, rng.uniform(0.05, 3.0, m), budget, delta)


@given(br_inputs())
@settings(max_examples=200, deadline=None)
def test_br_leontief_meets_optimality_conditions(inputs):
    # every demanded good not held at the floor is bought at one common
    # consumption ratio, floored goods at a ratio no lower, and the budget is spent
    v, d, budget, delta = inputs
    b = mg.br_leontief(v, budget, d, delta).bids
    assert b.sum() == pytest.approx(budget, rel=1e-12)
    demanded = v > 0
    assert (b[~demanded] == 0).all()
    ratio = b[demanded] / (b[demanded] + d[demanded]) / v[demanded]
    free = b[demanded] > delta * (1 + 1e-9)
    assert _equal(ratio[free])
    assert (ratio[~free] >= ratio[free].min() * (1 - 1e-9)).all()


def _leontief_reference(v, budget, d, delta, t):
    """The Leontief best response's utility to 50 digits: the common ratio t
    refined by Newton's method on the exact spending of the contested goods."""
    with mpmath.workdps(50):
        v, d = [mpmath.mpf(x) for x in v], [mpmath.mpf(x) for x in d]
        budget, delta = mpmath.mpf(budget), mpmath.mpf(delta)
        demanded = [j for j in range(len(v)) if v[j] > 0]
        comp = [j for j in demanded if d[j] > 0]
        bids = {j: delta for j in demanded if d[j] == 0}
        if not comp:
            bids = {j: budget / len(bids) for j in bids}
        else:
            rest, t = budget - delta * len(bids), mpmath.mpf(t)
            for _ in range(30):
                raw = [t * v[j] * d[j] / (1 - t * v[j]) for j in comp]
                spend = sum(max(delta, x) for x in raw)
                slope = sum(v[j] * d[j] / (1 - t * v[j]) ** 2
                            for j, x in zip(comp, raw) if x > delta)
                step = (spend - rest) / slope
                t -= step
                if abs(step) <= mpmath.mpf(10) ** -40 * t:
                    break
            else:
                raise AssertionError("the reference did not converge")
            bids.update((j, max(delta, t * v[j] * d[j] / (1 - t * v[j]))) for j in comp)
        return min((bids[j] / (bids[j] + d[j]) if d[j] > 0 else 1) / v[j] for j in demanded)


def test_br_leontief_utility_matches_a_50_digit_reference():
    # values, opposing spends and budgets over many orders of magnitude, some
    # goods undemanded or monopolized, fees up to the whole budget's share
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(300):
        m = int(rng.integers(1, 7))
        v = np.where(rng.random(m) < 0.2, 0.0, np.exp(rng.uniform(-8, 8, m)))
        if not v.any():
            continue
        d = np.where(rng.random(m) < 0.15, 0.0, np.exp(rng.uniform(-10, 6, m)))
        budget = float(np.exp(rng.uniform(-4, 4)))
        k = int((v > 0).sum())
        delta = 0.0 if rng.random() < 0.5 else budget / k * float(np.exp(rng.uniform(-12, 0)))
        if delta == 0 and ((v > 0) & (d == 0)).any():
            with pytest.raises(ValueError, match="supremum not attained"):
                mg.br_leontief(v, budget, d, delta)
            continue
        r = mg.br_leontief(v, budget, d, delta)
        assert r.converged
        # the common ratio at the largest contested bid seeds the reference
        comp = np.nonzero((v > 0) & (d > 0))[0]
        j = comp[np.argmax(r.bids[comp])] if comp.size else 0
        t = r.bids[j] / (r.bids[j] + d[j]) / v[j] if comp.size else 0.0
        ref = _leontief_reference(v, budget, d, delta, t)
        assert abs(r.utility - float(ref)) <= 1e-10 * float(ref)
        checked += 1
    assert checked >= 200


def test_br_leontief_near_the_pole():
    # t = 1/(1 + 2e-6) sits 2e-6 below the pole at t = 1, where one ulp of t
    # moves each bid by 2.8e-11; the start is the root when the values are equal
    r = mg.br_leontief(np.array([1.0, 1.0]), 1.0, np.array([1e-6, 1e-6]))
    assert r.converged and r.iterations <= 2
    assert r.bids == pytest.approx([0.5, 0.5], rel=3e-11, abs=0)
    assert abs(r.utility - 1 / (1 + 2e-6)) <= 1e-15


@pytest.mark.parametrize("rho", [0.9, 0.5, -1.0, -3.0, -10.0, -30.0, -300.0])
def test_br_ces_survives_extreme_inputs(rho):
    # values and opposing spends over ten orders of magnitude and more: the
    # Newton loop on Python floats neither overflows nor divides by zero, and
    # at rho = -300 some trial steps' gains overflow and are rejected
    rng = np.random.default_rng(5)
    for _ in range(500):
        m = int(rng.integers(2, 7))
        v, d = np.exp(rng.uniform(-12, 12, m)), np.exp(rng.uniform(-14, 10, m))
        budget = float(np.exp(rng.uniform(-4, 4)))
        r = mg.br_ces(v, budget, d, rho)
        assert r.converged
        assert r.bids.sum() == pytest.approx(budget, rel=1e-12) and (r.bids > 0).all()


def test_br_ces_clips_marginals_outside_the_double_range():
    # at rho = -300 with values and opposing spends over e^(+-30) some log
    # marginals fall below -700: clipped, they neither vanish nor divide by
    # zero, and a solve that cannot finish returns its bids unconverged
    rng = np.random.default_rng(5)
    for _ in range(6):
        m = int(rng.integers(2, 7))
        v, d = np.exp(rng.uniform(-30, 30, m)), np.exp(rng.uniform(-30, 20, m))
        budget = float(np.exp(rng.uniform(-4, 4)))
        r = mg.br_ces(v, budget, d, -300.0)
        assert r.bids.sum() == pytest.approx(budget, rel=1e-12) and (r.bids >= 0).all()


@given(br_inputs(), st.sampled_from([0.5, 0.9, -1.0, -3.0, -10.0]))
@settings(max_examples=200, deadline=None)
def test_br_ces_meets_optimality_conditions(inputs, rho):
    # KKT of max sign(rho) sum_j v_j f_j^rho on the budget simplex: goods bid
    # above their floor share the marginal, no floored good has a larger one,
    # and a demanded good is dropped only when 0 < rho < 1 and delta > 0
    v, d, budget, delta = inputs
    r = mg.br_ces(v, budget, d, rho, delta)
    b = r.bids
    assert r.converged
    assert b.sum() == pytest.approx(budget, rel=1e-12)
    assert (b[v == 0] == 0).all()
    dropped = (v > 0) & (b == 0)
    assert not dropped.any() or (delta > 0 and 0 < rho < 1)
    bid = b > 0
    f = b[bid] / (b[bid] + d[bid])
    marginal = abs(rho) * v[bid] * f ** (rho - 1) * d[bid] / (b[bid] + d[bid]) ** 2
    above = b[bid] > delta * (1 + 1e-9)
    assert above.any()
    lam = marginal[above]
    assert _equal(lam)
    assert (b[bid][~above] >= delta * (1 - 1e-12)).all()
    assert (marginal[~above] <= lam.max() * (1 + 1e-9)).all()


@given(br_inputs(), st.sampled_from([0.5, -1.0, -3.0]), st.data())
@settings(max_examples=300, deadline=None)
def test_br_ces_utility_matches_the_matrix_evaluator(inputs, rho, data):
    # br_ces evaluates its payoff on floats; core's numpy evaluator, given the
    # same fractions, agrees.  Opposing spends scaled by up to 1e6 give
    # fractions down to 1e-8, a fee lets rho = 0.5 drop goods, with fraction
    # zero, and monopolized goods are won whole.  Both evaluate in logs, so
    # the bound is a few ulps of the largest log term
    v, d, budget, delta = inputs
    scales = [0.0, 1.0, 1e3, 1e6] if delta > 0 else [1.0, 1e3, 1e6]
    d = d * np.array(data.draw(st.lists(st.sampled_from(scales), min_size=d.size,
                                        max_size=d.size)))
    r = mg.br_ces(v, budget, d, rho, delta)
    fractions = trading_post._fractions(r.bids, d)
    ref = mg.eval_valuation_matrix(mg.ValuationProfile("ces", v[None, :], rho),
                                   fractions[None, :])[0]
    assert r.utility == pytest.approx(ref, rel=1e-14, abs=0)


def test_br_concave_numeric_ces_symmetric():
    prof = mg.ValuationProfile("ces", [[1.0, 1.0]], rho=0.5)
    r = mg.br_concave_numeric(prof, 0, 1.0, np.array([1.0, 1.0]), tol=1e-10)
    assert r.bids == pytest.approx([0.5, 0.5], abs=1e-7)


def test_br_concave_numeric_matches_analytic():
    rng = np.random.default_rng(11)
    for k in range(10):
        v = rng.uniform(0.1, 1.0, size=3)
        d = rng.uniform(0.2, 2.0, size=3)
        lin = mg.ValuationProfile("linear", v[None, :])
        a = mg.br_linear(v, 1.0, d)
        n = mg.br_concave_numeric(lin, 0, 1.0, d, tol=1e-10)
        assert abs(a.utility - n.utility) <= 1e-6
        leo = mg.ValuationProfile("leontief", v[None, :])
        a = mg.br_leontief(v, 1.0, d)
        n = mg.br_concave_numeric(leo, 0, 1.0, d, tol=1e-10)
        assert abs(a.utility - n.utility) <= 1e-6
        rho = (0.5, 0.9, -1.0, -3.0, -10.0)[k % 5]
        ces = mg.ValuationProfile("ces", v[None, :], rho)
        a = mg.br_ces(v, 1.0, d, rho)
        n = mg.br_concave_numeric(ces, 0, 1.0, d, tol=1e-10)
        assert abs(a.utility - n.utility) <= 1e-6


def test_br_concave_numeric_ces_vs_grid():
    rng = np.random.default_rng(5)
    cases = [
        (-2.0, rng.uniform(0.2, 1.0, size=3), rng.uniform(0.3, 1.5, size=3), 1.0),
        # a bid at zero, where the marginal is unbounded for 0 < rho < 1
        (0.9, [0.839, 0.968, 0.901], [0.487, 1.441, 0.764], 0.441),
        # a utility near 1e-9, and with it the gradient
        (0.1, [0.105, 0.061], [0.707, 15.313], 1.411),
    ]
    for rho, v, d, budget in cases:
        v, d = np.asarray(v), np.asarray(d)
        prof = mg.ValuationProfile("ces", v[None, :], rho=rho)
        numeric = mg.br_concave_numeric(prof, 0, budget, d, tol=1e-10)
        grid = mg.br_grid_oracle(prof, 0, budget, d, grid_step=1e-3)
        assert abs(numeric.utility - grid.utility) <= 1e-3
        # the grid is feasible, so an optimum is at least as good
        assert numeric.converged
        assert numeric.utility >= grid.utility * (1 - 1e-9)
        exact = mg.br_ces(v, budget, d, rho)
        assert exact.utility == pytest.approx(numeric.utility, rel=1e-9)


def test_br_concave_numeric_swaps_goods_a_toggle_cannot():
    # a single-good toggle search stops on goods {1, 2, 4, 5} (15.3078); the
    # best support swaps good 2 for good 0
    v = np.array([0.805, 0.985, 1.397, 0.0, 14.19, 2.248])
    d = np.array([0.0233, 0.0328, 0.392, 2.667, 0.138, 0.0585])
    r = mg.br_concave_numeric(mg.ValuationProfile("linear", v[None, :]), 0, 1.6085, d,
                              0.28953, tol=1e-10)
    assert np.nonzero(r.bids)[0].tolist() == [0, 1, 4, 5]
    assert r.utility == pytest.approx(15.459398306635, abs=1e-9)


def test_br_concave_numeric_finds_the_best_fee_support():
    # the exact optimum is the best water-fill, with the fee as its floor,
    # over every support (each affordable, since the budget is 1)
    rng = np.random.default_rng(1)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        v, d = rng.uniform(0.01, 1.0, size=k), rng.uniform(0.01, 1.0, size=k)
        delta = float(rng.uniform(0.05, 0.9)) / k
        best = 0.0
        for size in range(1, k + 1):
            for goods in itertools.combinations(range(k), size):
                bids = trading_post._waterfill(v[list(goods)].tolist(),
                                               d[list(goods)].tolist(), 1.0, delta)
                best = max(best, sum(v[j] * bj / (bj + d[j]) for j, bj in zip(goods, bids)))
        r = mg.br_concave_numeric(mg.ValuationProfile("linear", v[None, :]), 0, 1.0, d,
                                  delta, tol=1e-10)
        assert r.utility >= best * (1 - 1e-9)


def test_br_concave_numeric_bounds_br_ces_with_a_fee():
    rng = np.random.default_rng(2)
    for case in range(30):
        rho = (0.5, 0.9)[case % 2]
        k = int(rng.integers(2, 5))
        v, d = rng.uniform(0.01, 1.0, size=k), rng.uniform(0.01, 1.0, size=k)
        delta = float(rng.uniform(0.05, 0.9)) / k
        r = mg.br_concave_numeric(mg.ValuationProfile("ces", v[None, :], rho), 0, 1.0, d,
                                  delta, tol=1e-10)
        assert r.utility >= mg.br_ces(v, 1.0, d, rho, delta).utility * (1 - 1e-9)


def test_br_concave_numeric_caps_the_fee_supports():
    v, d = np.ones(11), np.ones(11)
    for kind, rho in (("linear", None), ("ces", 0.5)):
        prof = mg.ValuationProfile(kind, v[None, :], rho)
        with pytest.raises(ValueError, match="at most 10 demanded goods"):
            mg.br_concave_numeric(prof, 0, 1.0, d, 0.05)
        assert mg.br_concave_numeric(prof, 0, 1.0, d).converged
    for kind, rho in (("leontief", None), ("ces", -1.0)):
        prof = mg.ValuationProfile(kind, v[None, :], rho)
        assert mg.br_concave_numeric(prof, 0, 1.0, d, 0.05).converged


def test_br_grid_oracle_shape_rules():
    prof = mg.ValuationProfile("linear", [[1.0] * 5])
    with pytest.raises(ValueError):
        mg.br_grid_oracle(prof, 0, 1.0, np.ones(5))
    prof4 = mg.ValuationProfile("linear", [[1.0] * 4])
    with pytest.raises(ValueError, match="grid too large"):
        mg.br_grid_oracle(prof4, 0, 1.0, np.ones(4), grid_step=1e-3)


def test_br_grid_oracle_symmetry_and_zeros():
    prof = mg.ValuationProfile("linear", [[1.0, 1.0]])
    r = mg.br_grid_oracle(prof, 0, 1.0, np.array([1.0, 1.0]), grid_step=1e-2)
    assert abs(r.bids[0] - r.bids[1]) <= 1e-2 + 1e-12
    prof0 = mg.ValuationProfile("linear", [[1.0, 0.0]])
    r0 = mg.br_grid_oracle(prof0, 0, 1.0, np.array([1.0, 1.0]), grid_step=1e-2)
    assert r0.bids[1] == 0.0


def test_br_grid_oracle_one_good():
    r = mg.br_grid_oracle(mg.ValuationProfile("linear", [[2.0]]), 0, 1.0, np.array([1.0]))
    assert r.bids.tolist() == [1.0]
    assert r.utility == 1.0


def test_br_dynamics_leontief_pair():
    inst = mg.make_instance("leontief", [[1.0, 1.0], [1.0, 1.0]])
    rep = mg.br_dynamics(inst, 1e-3, max_rounds=200, tol=1e-9)
    assert rep.converged
    assert rep.utilities == pytest.approx([0.5, 0.5], abs=1e-9)


def test_br_dynamics_leontief_with_a_subnormal_valuation():
    # verify_tp_ne evaluates the bundles, whose x / v overflows on 1e-310
    inst = mg.make_instance("leontief", [[1e-310, 1.0, 0.5], [1.0, 1.0, 0.3],
                                         [0.2, 0.4, 1.0]])
    rep = mg.br_dynamics(inst, 1e-4)
    assert rep.converged and rep.rounds == 57


def test_br_dynamics_nonexistence_example():
    inst = mg.gen_tp_nonexistence()
    rep = mg.br_dynamics(inst, 0.0, max_rounds=5000, tol=1e-12)
    assert not rep.converged
    assert rep.bids[1, 1] < 1e-6
    fee = mg.br_dynamics(inst, 1e-3, max_rounds=500, tol=1e-9)
    assert fee.converged


def test_br_dynamics_linear_family_instance():
    inst, _ = mg.gen_example_lin_family()
    rep = mg.br_dynamics(inst, 0.0, max_rounds=2000, tol=1e-10)
    assert rep.converged
    assert rep.max_gain <= 1e-8
    # single-good agents always spend everything on their good; the flexible
    # agents land inside the documented family
    assert rep.bids[0] == pytest.approx([1.0, 0.0], abs=1e-9)
    assert rep.bids[1] == pytest.approx([0.0, 1.0], abs=1e-9)
    eps = rep.bids[2, 1]
    assert 0.0 <= eps <= 1.0
    assert rep.bids[3] == pytest.approx([eps, 1.0 - eps], abs=1e-6)


def test_br_dynamics_trace_sees_every_round():
    inst = mg.gen_random(4, 3, "linear", seed=2)
    calls = []

    def trace(rnd, change, bids):
        calls.append((rnd, change))
        with pytest.raises(ValueError):  # read-only
            bids[0, 0] = 1.0

    rep = mg.br_dynamics(inst, 1e-3, trace=trace)
    assert rep.converged and rep.rounds > 1
    assert [rnd for rnd, _ in calls] == list(range(1, rep.rounds + 1))
    assert calls[-1][1] == rep.max_change


def test_br_dynamics_requires_competition_for_linear_delta0():
    with pytest.raises(ValueError):
        mg.br_dynamics(mg.gen_example_3_1(), 0.0)



def test_br_dynamics_refuses_fees_a_budget_cannot_cover():
    # three demanded goods at fee 0.5 cost 1.5, above the unit budget; at fee
    # 0.1 they cost 3 * 0.1, which exceeds 0.3 in floating point: every bid
    # would fall below the fee, and the dynamics would certify the voided bids
    for budget, delta in ((1.0, 0.5), (0.3, 0.1)):
        inst = mg.make_instance("linear", np.ones((2, 3)), [budget, budget])
        with pytest.raises(ValueError, match="infeasible floors"):
            mg.br_dynamics(inst, delta)


def test_every_entry_point_refuses_unaffordable_fees_with_one_message():
    # one unit budget, two demanded goods at fee 0.6: the oracle, the
    # dynamics and the certificate share one check and one message
    inst = mg.make_instance("leontief", np.ones((2, 2)))
    message = "infeasible floors: budget below delta times demanded goods"
    for call in (lambda: mg.br_leontief([1.0, 1.0], 1.0, [1.0, 1.0], 0.6),
                 lambda: mg.br_dynamics(inst, 0.6),
                 lambda: mg.verify_tp_ne(inst, np.full((2, 2), 0.5), 0.6)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


def test_br_leontief_claims_every_monopolized_good_at_the_fee():
    # no good is contested: each is won whole at any bid of at least the fee,
    # so the budget is spread over the claims and the utility is min 1 / v_j
    r = mg.br_leontief([0.3, 0.7, 0.9], 1.0, [0.0, 0.0, 0.0], 0.1)
    assert (r.bids >= 0.1).all()
    assert abs(math.fsum(r.bids) - 1.0) <= math.ulp(1.0)
    assert r.utility == 1 / 0.9 and r.converged


@pytest.mark.parametrize("delta", [-1e-3, math.nan, math.inf])
def test_dynamics_and_certificate_refuse_a_bad_fee(delta):
    # the dispatcher takes the fee as checked, so each entry checks it once
    inst = mg.make_instance("linear", np.ones((2, 2)))
    for call in (lambda: mg.br_dynamics(inst, delta),
                 lambda: mg.verify_tp_ne(inst, np.full((2, 2), 0.5), delta)):
        with pytest.raises(ValueError, match="delta must be finite and non-negative"):
            call()


def test_br_dynamics_stops_an_oscillation(monkeypatch):
    # agent 0 flips between two bids on every call: after the first round the
    # largest change never improves, so the dynamics stop 50 rounds later
    flips = iter(np.tile([[0.7, 0.3], [0.3, 0.7]], (100, 1)).tolist())
    agents = itertools.cycle(range(2))  # the dispatcher is asked in agent order

    def flipping(kind, rho, values, demanded, budget, opp, delta, *start):
        bids = next(flips) if next(agents) == 0 else [0.5, 0.5]
        return bids, 0.0, 0, True

    monkeypatch.setattr(trading_post, "_best_response", flipping)
    rep = mg.br_dynamics(mg.make_instance("linear", np.ones((2, 2))), 0.0)
    assert not rep.converged
    assert rep.rounds == 51 and rep.max_change == pytest.approx(0.4)
    assert rep.note == "oscillation detected: no new best profile in 50 rounds"


def test_br_ces_checks_rho_and_is_br_linear_at_rho_one():
    v, d = np.array([1.0, 0.4, 0.0]), np.array([0.3, 1.2, 0.5])
    for rho in (0.0, 1.5):
        with pytest.raises(ValueError, match="rho"):
            mg.br_ces(v, 1.0, d, rho)
    for delta in (0.0, 0.1):
        ces, lin = mg.br_ces(v, 1.0, d, 1.0, delta), mg.br_linear(v, 1.0, d, delta)
        assert ces.bids.tobytes() == lin.bids.tobytes()
        assert (ces.utility, ces.iterations, ces.converged) == \
            (lin.utility, lin.iterations, lin.converged)


@pytest.mark.parametrize("kind, gain", [("linear", 1.0), ("leontief", 0.5)])
def test_verify_tp_ne_monopoly_supremum_is_exact(kind, gain):
    # agent 0 alone demands good 0: a vanishing bid wins it whole, and its
    # whole budget against agent 1's unit bid on good 1 wins half of that,
    # so the supremum is 1 + 1/2 (linear) or min(1, 1/2) (Leontief) against
    # the profile's 1/2 or 0
    inst = mg.make_instance(kind, [[1.0, 1.0], [0.0, 1.0]], [1.0, 1.0])
    rep = mg.verify_tp_ne(inst, [[0.0, 1.0], [0.0, 1.0]], 0.0)
    assert rep.gains[0] == gain
    assert rep.gains[1] == 0.0
    assert rep.note == "some best responses are unattained suprema (delta=0 monopoly)"


def test_verify_tp_ne_monopolist_of_every_demanded_good(monkeypatch):
    # agent 0 alone demands both goods it values: its supremum is the whole
    # bundle, (1 + 2)^-1 against the profile's 0, and only agent 1 asks the oracle
    calls = []

    def counted(kind, rho, values, *args):
        calls.append(np.array(values))
        return real(kind, rho, values, *args)

    real = trading_post._best_response
    monkeypatch.setattr(trading_post, "_best_response", counted)
    inst = mg.make_instance("ces", [[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]], [1.0, 1.0],
                            rho=-1.0)
    rep = mg.verify_tp_ne(inst, [[0.5, 0.0, 0.5], [0.0, 0.0, 1.0]], 0.0)
    assert rep.gains[0] == pytest.approx(1 / 3, rel=1e-15)
    assert rep.gains[1] == 0.0
    assert [c.tolist() for c in calls] == [[0.0, 0.0, 1.0]]


def test_verify_tp_ne_runs_no_fee_search_at_delta_zero(monkeypatch):
    # every agent of the lower-bound profile monopolizes a good; its
    # certificate takes no stand-in fee, so the toggle search never runs
    def refuse(*args):
        raise AssertionError("fee search at delta = 0")

    monkeypatch.setattr(trading_post, "_fee_search", refuse)
    inst, _, spends = mg.lb_construction(14)
    rep = mg.verify_tp_ne(inst, spends, 0.0, 1e-5)
    assert rep.converged and rep.note.startswith("some best responses are unattained")


_FEE_ORACLES = {
    "linear": lambda inst, i, opp: mg.br_linear(inst.matrix[i], inst.budgets[i], opp, 1e-12),
    "leontief": lambda inst, i, opp: mg.br_leontief(inst.matrix[i], inst.budgets[i], opp,
                                                    1e-12),
    "ces": lambda inst, i, opp: mg.br_ces(inst.matrix[i], inst.budgets[i], opp,
                                          inst.valuations.rho, 1e-12),
}


@given(st.sampled_from([("linear", None), ("leontief", None), ("ces", 0.5),
                        ("ces", -1.0), ("ces", -3.0)]),
       st.integers(2, 5), st.integers(1, 5), st.integers(0, 2 ** 32 - 1), st.data())
@settings(max_examples=300, deadline=None)
def test_monopoly_supremum_dominates_a_vanishing_fee(kind_rho, n, m, seed, data):
    # zeroed bids leave some agents alone on goods they demand; the exact
    # delta -> 0 supremum is at least what any small fee attains, so each
    # certified gain is at least the gain of the oracle run at delta = 1e-12
    kind, rho = kind_rho
    inst = mg.gen_random(n, m, kind, rho, seed=seed, sparsity=0.3)
    keep = np.array(data.draw(st.lists(
        st.lists(st.booleans(), min_size=m, max_size=m).filter(any),
        min_size=n, max_size=n)))
    bids = np.random.default_rng(seed).uniform(0.1, 1.0, (n, m)) * keep
    bids *= (inst.budgets / bids.sum(axis=1))[:, None]
    rep = mg.verify_tp_ne(inst, bids, 0.0)
    for i in range(n):
        fee = _FEE_ORACLES[kind](inst, i, bids.sum(axis=0) - bids[i])
        assert rep.gains[i] >= fee.utility - rep.utilities[i] - 1e-12


def test_verify_tp_ne_leo_family():
    inst, bids = mg.gen_example_leo_family(0.3)
    rep = mg.verify_tp_ne(inst, bids, 0.0, 1e-8)
    assert rep.converged
    assert abs(rep.max_gain) <= 1e-9
    inst, bids = mg.gen_example_leo_family(0.99)
    assert abs(mg.verify_tp_ne(inst, bids, 0.0, 1e-8).max_gain) <= 1e-9


def test_verify_tp_ne_market_induced_bids():
    inst, x, p = gen_positive_leontief(3, 3, seed=12)
    rep = mg.verify_tp_ne(inst, x * p, 0.0, 1e-8)
    assert rep.max_gain <= 1e-8


def test_verify_tp_ne_uniform_bids_not_equilibrium():
    inst = mg.gen_example_3_1()
    rep = mg.verify_tp_ne(inst, np.full((2, 2), 0.5), 0.0, 1e-8)
    assert rep.gains[0] > 0.1  # agent 1 should drop its wasted good-2 bid
    assert not rep.converged


def _inexact_after(oracle, exact_calls):
    """The best-response dispatcher ``oracle``, reporting converged=False
    from call exact_calls + 1 on."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        res = oracle(*args, **kwargs)
        return res if len(calls) <= exact_calls else (*res[:3], False)

    return wrapped


def test_unconverged_best_response_fails_verification(monkeypatch):
    inst, bids = mg.gen_example_leo_family(0.3)
    monkeypatch.setattr(trading_post, "_best_response",
                        _inexact_after(trading_post._best_response, 1))
    rep = mg.verify_tp_ne(inst, bids, 0.0, 1e-8)
    assert abs(rep.max_gain) <= 1e-9
    assert not rep.converged
    agents = ", ".join(str(i) for i in range(1, inst.n))
    assert rep.note == f"best response did not converge for agent {agents}"


def test_unconverged_best_response_stops_dynamics(monkeypatch):
    inst = mg.gen_random(3, 3, "leontief", seed=33)
    exact = mg.br_dynamics(inst, 1e-4, max_rounds=2000, tol=1e-10)
    assert exact.converged and exact.rounds > 2
    real = trading_post._best_response
    monkeypatch.setattr(trading_post, "_best_response", _inexact_after(real, inst.n + 1))
    rep = mg.br_dynamics(inst, 1e-4, max_rounds=2000, tol=1e-10)
    assert not rep.converged
    assert rep.rounds == 2
    assert rep.note == "best response did not converge for agent 1"
    # the dynamics converge, then the certificate's best responses do not
    monkeypatch.setattr(trading_post, "_best_response",
                        _inexact_after(real, inst.n * exact.rounds))
    rep = mg.br_dynamics(inst, 1e-4, max_rounds=2000, tol=1e-10)
    assert rep.rounds == exact.rounds and rep.max_gain == exact.max_gain
    assert not rep.converged
    assert rep.note == "best response did not converge for agent 0, 1, 2"


def _public_oracle(inst, i, values, opp, delta):
    budget = float(inst.budgets[i])
    if inst.kind == "linear":
        return mg.br_linear(values, budget, opp, delta)
    if inst.kind == "leontief":
        return mg.br_leontief(values, budget, opp, delta)
    return mg.br_ces(values, budget, opp, inst.valuations.rho, delta)


def _reference_dynamics(inst, delta, max_rounds, tol):
    """br_dynamics as a numpy loop over the public oracles, which start every
    answer cold.  Returns (bids, rounds, converged, note)."""
    n, m = inst.n, inst.m
    support = inst.matrix > 0
    b = inst.budgets[:, None] * support / support.sum(axis=1)[:, None]
    eff = effective_bids(b, delta)
    streak = np.zeros((n, m), dtype=int)
    floor = trading_post.COLLAPSE_FLOOR_FRACTION * inst.budgets[:, None]
    best_change, stall = math.inf, 0
    for rounds in range(1, max_rounds + 1):
        prev = b.copy()
        for i in range(n):
            try:
                br = _public_oracle(inst, i, inst.matrix[i], eff.sum(axis=0) - eff[i], delta)
            except ValueError as exc:
                return b, rounds, False, f"best response broke down for agent {i}: {exc}"
            if not br.converged:
                return b, rounds, False, f"best response did not converge for agent {i}"
            b[i] = eff[i] = br.bids
        max_change = float(np.abs(b - prev).max())
        streak = np.where(support & (b < prev) & (b > 0), streak + 1, 0)
        collapsing = ((streak >= trading_post.COLLAPSE_STREAK) & (b < floor)).any()
        if max_change < best_change:
            best_change, stall = max_change, 0
        else:
            stall += 1
        if max_change < tol and not collapsing:
            rep = mg.verify_tp_ne(inst, b, delta, math.inf)
            return b, rounds, rep.converged, rep.note
        if stall >= 50:
            return b, rounds, False, "oscillation detected: no new best profile in 50 rounds"
    return b, max_rounds, False, "did not converge"


@given(st.sampled_from([("linear", None, 0.0), ("leontief", None, 1e-4),
                        ("leontief", None, 1e-2), ("ces", 0.5, 0.0), ("ces", -1.0, 0.0),
                        ("ces", -3.0, 0.0), ("ces", 0.5, 1e-3)]),
       st.integers(2, 6), st.integers(2, 6), st.sampled_from([0.0, 0.3]),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=120, deadline=None)
def test_br_dynamics_matches_a_numpy_reference_loop(case, n, m, sparsity, seed):
    # the float rounds add the column totals in numpy's order and start the
    # Leontief and CES oracles warm, which moves their bids by rounding only
    kind, rho, delta = case
    inst = mg.gen_random(n, m, kind, rho, seed=seed, sparsity=sparsity)
    rep = mg.br_dynamics(inst, delta, max_rounds=300, tol=1e-10)
    bids, rounds, converged, note = _reference_dynamics(inst, delta, 300, 1e-10)
    assert (rep.rounds, rep.converged, rep.note) == (rounds, converged, note)
    if kind == "linear":
        assert rep.bids.tobytes() == bids.tobytes()
    else:
        assert np.abs(rep.bids - bids).max() <= 1e-12


def _reference_gains(inst, bids, delta):
    """verify_tp_ne's gains and note from the public oracles: each agent's
    best-response utility less its utility at the profile.  At delta = 0 an
    agent alone on demanded goods gets the supremum: those goods won whole,
    plus the oracle's answer on the contested goods."""
    eff = effective_bids(bids, delta)
    prices, allocation = mg.ne_to_market(bids, delta)
    utilities = inst.utilities(allocation)
    gains, suprema, inexact = np.zeros(inst.n), False, []
    for i in range(inst.n):
        v, opp = inst.matrix[i], prices - eff[i]
        monop = (v > 0) & (opp <= 0) & (delta == 0)
        x = monop.astype(float)
        br = None
        if ((v > 0) & ~monop).any():
            br = _public_oracle(inst, i, np.where(monop, 0.0, v), opp, delta)
            b = np.asarray(br.bids)
            np.divide(b, b + opp, out=x, where=b > 0)
            x[monop] = 1.0
        if not (br is None or br.converged):
            inexact.append(str(i))
        if monop.any():
            suprema = True
            own = mg.ValuationProfile(inst.kind, v[None, :], inst.valuations.rho)
            utility = float(mg.eval_valuation_matrix(own, x[None, :])[0])
        else:
            utility = br.utility
        gains[i] = utility - utilities[i]
    notes = ["some best responses are unattained suprema (delta=0 monopoly)"] * suprema
    if inexact:
        notes.append(f"best response did not converge for agent {', '.join(inexact)}")
    return gains, "; ".join(notes)


@given(st.sampled_from([("linear", None), ("leontief", None), ("ces", 0.5), ("ces", -1.0),
                        ("ces", -3.0)]),
       st.integers(2, 5), st.integers(1, 5), st.sampled_from([0.0, 1e-3]),
       st.integers(0, 2 ** 32 - 1), st.data())
@settings(max_examples=200, deadline=None)
def test_verify_tp_ne_gains_are_the_public_oracles(kind_rho, n, m, delta, seed, data):
    # zeroed bids leave some goods monopolized, or voided by the fee
    kind, rho = kind_rho
    inst = mg.gen_random(n, m, kind, rho, seed=seed, sparsity=0.3)
    keep = np.array(data.draw(st.lists(
        st.lists(st.booleans(), min_size=m, max_size=m).filter(any),
        min_size=n, max_size=n)))
    bids = np.random.default_rng(seed).uniform(0.0, 1.0, (n, m)) * keep
    bids *= (inst.budgets / bids.sum(axis=1))[:, None]
    rep = mg.verify_tp_ne(inst, bids, delta)
    gains, note = _reference_gains(inst, bids, delta)
    assert rep.gains.tobytes() == gains.tobytes()
    assert rep.note == note


def test_verify_tp_ne_gains_on_the_lower_bound_profile():
    inst, _, spends = mg.lb_construction(8)
    rep = mg.verify_tp_ne(inst, spends, 0.0)
    gains, note = _reference_gains(inst, spends, 0.0)
    assert rep.gains.tobytes() == gains.tobytes()
    assert rep.note == note == "some best responses are unattained suprema (delta=0 monopoly)"


def test_ne_to_market_basics():
    prices, alloc = mg.ne_to_market(np.full((2, 2), 0.5))
    assert prices == pytest.approx([1.0, 1.0])
    assert alloc == pytest.approx(np.full((2, 2), 0.5))


def test_ne_to_market_round_trip_identity():
    inst, x, p = gen_positive_leontief(4, 3, seed=9)
    bids = x * p
    prices, alloc = mg.ne_to_market(bids)
    assert prices == pytest.approx(p, abs=1e-12)
    assert alloc == pytest.approx(x, abs=1e-12)


def test_ne_to_market_identity_tp_delta():
    inst = mg.gen_identity_leontief(3)
    rep = mg.br_dynamics(inst, 1e-4, max_rounds=100, tol=1e-10)
    assert rep.converged
    assert rep.prices == pytest.approx(np.ones(3), abs=1e-9)


def test_safe_strategy_equal_and_skewed():
    # against opponent totals D the fraction of every good is exactly
    # B / (B + sum D)
    y = mg.safe_strategy(1.0, np.array([0.5, 0.5]))
    assert y == pytest.approx([0.5, 0.5])
    assert y / (y + 0.5) == pytest.approx([0.5, 0.5])
    d = np.array([1.5, 0.5])
    y = mg.safe_strategy(1.0, d)
    assert y == pytest.approx([0.75, 0.25])
    assert y / (y + d) == pytest.approx([1 / 3, 1 / 3])


def test_safe_strategy_floored_guarantee():
    budget, delta = 1.0, 0.1
    d = np.array([3.0, 0.05])
    total = budget + d.sum()
    z = mg.safe_strategy(budget, d, delta)
    assert (z >= delta - 1e-12).all()
    assert z.sum() == pytest.approx(budget)
    fractions = z / (z + d)
    rho = delta * (d.size - 1) / budget
    assert (fractions >= budget / total * (1 - rho) - 1e-12).all()


def test_safe_strategy_requires_opponent_spend():
    with pytest.raises(ValueError):
        mg.safe_strategy(1.0, np.zeros(2))


def test_best_response_unique_across_initializations():
    rng = np.random.default_rng(2)
    v = rng.uniform(0.2, 1.0, size=3)
    d = rng.uniform(0.3, 1.5, size=3)
    for kind, rho in (("linear", None), ("leontief", None), ("ces", -1.0)):
        prof = mg.ValuationProfile(kind, v[None, :], rho)
        sols = []
        for k in range(10):
            init = rng.dirichlet(np.ones(3))
            r = mg.br_concave_numeric(prof, 0, 1.0, d, delta=0.01,
                                      tol=1e-10, init=init)
            sols.append(r.bids)
        assert np.ptp(np.array(sols), axis=0).max() <= 1e-5


def test_delta_for_eps_certifies():
    m = 3
    eps = 0.01
    delta = mg.delta_for_eps(eps, m)
    assert 0 < delta < min(eps / m ** 2, eps ** 2 / m, 1 / m)
    inst = mg.gen_random(3, m, "leontief", seed=19)
    dyn = mg.br_dynamics(inst, delta, max_rounds=4000, tol=1e-10)
    assert dyn.converged
    rep = mg.verify_eps_market_eq(inst, dyn.allocation, dyn.prices, eps, tol=1e-7)
    assert rep.passed
    with pytest.raises(ValueError):
        mg.delta_for_eps(0.0, 2)


def test_check_bid_profile():
    inst = mg.make_instance("linear", [[1.0, 1.0]])
    with pytest.raises(ValueError):
        check_bid_profile(inst, [[0.4, 0.4]])
    with pytest.raises(ValueError):
        check_bid_profile(inst, [[-0.1, 1.1]])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            check_bid_profile(inst, [[bad, 1.0]])
    b = check_bid_profile(inst, [[0.4, 0.6]])
    assert b.shape == (1, 2)
    assert (effective_bids(b, 0.5) == [[0.0, 0.6]]).all()
