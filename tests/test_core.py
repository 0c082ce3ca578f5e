import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import marketgames as mg
from marketgames.core import _ces_eval


def test_eval_linear_basic():
    prof = mg.ValuationProfile("linear", [[1.0, 0.0], [0.5, 0.5]])
    assert mg.eval_valuation(prof, 0, [1.0, 0.0]) == 1.0
    assert mg.eval_valuation(prof, 1, [1.0, 1.0]) == 1.0


def test_eval_leontief_symmetric():
    prof = mg.ValuationProfile("leontief", [[1.0, 1.0]])
    assert mg.eval_valuation(prof, 0, [0.5, 0.5]) == pytest.approx(0.5)


def test_eval_leontief_ignores_undemanded():
    prof = mg.ValuationProfile("leontief", [[1.0, 0.0]])
    # zero of the undemanded good must not drag the min down
    assert mg.eval_valuation(prof, 0, [0.25, 0.0]) == pytest.approx(0.25)


def test_eval_leontief_of_a_subnormal_valuation():
    # x / v overflows to inf on the subnormal entry, which the min ignores
    prof = mg.ValuationProfile("leontief", [[1e-310, 1.0]])
    assert mg.eval_valuation(prof, 0, [1.0, 0.5]) == 0.5
    assert mg.eval_valuation_matrix(prof, np.array([[1.0, 0.5]])).tolist() == [0.5]


def test_eval_ces_direct_formula():
    prof = mg.ValuationProfile("ces", [[1.0, 1.0]], rho=0.5)
    # (1*sqrt(.25) + 1*sqrt(.25))^2 = 1
    assert mg.eval_valuation(prof, 0, [0.25, 0.25]) == pytest.approx(1.0, abs=1e-12)


def test_eval_ces_negative_rho_zero_bundle():
    prof = mg.ValuationProfile("ces", [[1.0, 1.0]], rho=-2.0)
    assert mg.eval_valuation(prof, 0, [0.0, 0.5]) == 0.0


def test_eval_dimension_mismatch():
    prof = mg.ValuationProfile("linear", [[1.0, 0.0]])
    with pytest.raises(ValueError):
        mg.eval_valuation(prof, 0, [1.0, 0.0, 0.0])


def test_nsw_identity():
    assert mg.nsw(np.ones(2), np.ones(2)) == pytest.approx(1.0)


def test_nsw_uniform_fifth():
    assert mg.nsw(np.full(5, 0.2), np.ones(5)) == pytest.approx(0.2)


def test_nsw_weighted_hand_value():
    # exp((1*ln4 + 3*ln1)/4) = 4 ** (1/4)
    assert mg.nsw(np.array([4.0, 1.0]), np.array([1.0, 3.0])) == pytest.approx(4 ** 0.25)


def test_nsw_zero_and_negative():
    assert mg.nsw(np.array([0.0, 1.0]), np.ones(2)) == 0.0
    with pytest.raises(ValueError):
        mg.nsw(np.array([-1.0, 1.0]), np.ones(2))


def test_poa_ratio_cases():
    assert mg.poa_ratio(1.0, 0.2) == pytest.approx(5.0)
    assert mg.poa_ratio(1.0, 1.0) == 1.0
    assert mg.poa_ratio(2.0, 1.5) == pytest.approx(4.0 / 3.0)
    assert mg.poa_ratio(1.0, 0.0) == np.inf
    # sub-tolerance dips clamp to 1
    assert mg.poa_ratio(1.0, 1.0 + 1e-12) == 1.0
    with pytest.raises(ValueError):
        mg.poa_ratio(0.0, 1.0)


def test_proportionality_identity_leontief():
    inst = mg.gen_identity_leontief(2)
    rep = mg.proportionality_check(inst, np.eye(2), 0.0)
    assert rep.all_pass
    assert rep.margins == pytest.approx([0.5, 0.5])


def test_proportionality_uniform_ne_margin_zero():
    inst = mg.gen_identity_leontief(5)
    _, out = mg.uniform_leontief_ne(inst)
    rep = mg.proportionality_check(inst, out.equilibrium.allocation, 0.0)
    assert rep.all_pass
    assert np.abs(rep.margins).max() < 1e-9


def test_proportionality_tp_delta_guarantee():
    inst = mg.gen_random(3, 3, "leontief", seed=21)
    delta = 0.01
    dyn = mg.br_dynamics(inst, delta, max_rounds=2000, tol=1e-10)
    assert dyn.converged
    slack = delta * (inst.m - 1) / inst.budgets
    rep = mg.proportionality_check(inst, dyn.allocation, slack)
    assert rep.all_pass


def test_proportionality_rejects_bad_slack():
    inst = mg.gen_identity_leontief(2)
    with pytest.raises(ValueError):
        mg.proportionality_check(inst, np.eye(2), 1.5)


finite_utils = st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=6)


@given(us=finite_utils, c=st.floats(1e-3, 1e3))
@settings(max_examples=60, deadline=None)
def test_nsw_permutation_and_scale(us, c):
    u = np.array(us)
    b = np.linspace(1.0, 2.0, u.size)
    val = mg.nsw(u, b)
    perm = np.random.default_rng(0).permutation(u.size)
    assert mg.nsw(u[perm], b[perm]) == pytest.approx(val, rel=1e-9)
    assert mg.nsw(c * u, b) == pytest.approx(c * val, rel=1e-9)


@given(us=finite_utils)
@settings(max_examples=60, deadline=None)
def test_nsw_below_weighted_arithmetic_mean(us):
    u = np.array(us)
    b = np.linspace(0.5, 1.5, u.size)
    assert mg.nsw(u, b) <= float(b @ u / b.sum()) * (1 + 1e-12)


@given(bump=st.floats(0.0, 2.0), coord=st.integers(0, 2),
       rho=st.sampled_from([1.0, 0.5, -1.0, -3.0]))
@settings(max_examples=60, deadline=None)
def test_eval_monotone_in_each_coordinate(bump, coord, rho):
    base = np.array([0.3, 0.5, 0.2])
    bigger = base.copy()
    bigger[coord] += bump
    for kind, r in (("linear", None), ("leontief", None), ("ces", rho)):
        prof = mg.ValuationProfile(kind, [[1.0, 0.6, 0.9]], r)
        assert (mg.eval_valuation(prof, 0, bigger)
                >= mg.eval_valuation(prof, 0, base) - 1e-12)


def test_ces_rho_one_is_exactly_linear():
    rng = np.random.default_rng(4)
    v = rng.uniform(0.1, 1, size=(3, 4))
    x = rng.uniform(0, 1, size=(3, 4))
    ces = mg.ValuationProfile("ces", v, rho=1.0)
    lin = mg.ValuationProfile("linear", v)
    assert (mg.eval_valuation_matrix(ces, x) == mg.eval_valuation_matrix(lin, x)).all()


def test_ces_large_negative_rho_approaches_leontief():
    # CES with coefficients v_j ** -rho evaluates (sum_j (x_j/v_j)^rho)^(1/rho),
    # which tends to the Leontief min ratio; at rho = -20 the residual factor
    # is at most m^(1/|rho|), so scale bundles to min ratio 0.25 to land
    # within the 1e-2 window.
    rng = np.random.default_rng(7)
    rho = -20.0
    for _ in range(10):
        v = rng.uniform(0.5, 1.5, size=2)
        x = rng.uniform(0.2, 1.0, size=2)
        leo = mg.ValuationProfile("leontief", v[None, :])
        scale = 0.25 / mg.eval_valuation(leo, 0, x)
        xs = x * scale
        ces_val = float(_ces_eval((v ** -rho)[None, :], xs[None, :], rho)[0])
        assert ces_val == pytest.approx(0.25, abs=1e-2)


def test_instance_validation():
    with pytest.raises(ValueError):
        mg.make_instance("linear", [[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        mg.make_instance("linear", [[1.0, 0.0]], budgets=[0.0])
    for rho in (0.0, -math.inf, math.nan):
        with pytest.raises(ValueError):
            mg.make_instance("ces", [[1.0, 1.0]], rho=rho)
    with pytest.raises(ValueError):
        mg.make_instance("linear", [[1.0, 1.0]], rho=0.5)
    with pytest.raises(ValueError):
        mg.ValuationProfile("quasilinear", [[1.0]])
    with pytest.raises(ValueError, match="finite"):
        mg.make_instance("linear", [[np.nan, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        mg.make_instance("linear", [[np.inf, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        mg.make_instance("linear", [[1.0, 1.0], [1.0, 1.0]], budgets=[np.inf, 1.0])


def test_perfect_competition_predicate():
    assert not mg.gen_example_3_1().perfect_competition()
    assert mg.gen_tp_nonexistence().perfect_competition()


def test_instance_immutability():
    inst = mg.gen_example_3_1()
    with pytest.raises(ValueError):
        inst.matrix[0, 0] = 2.0
    with pytest.raises(ValueError):
        inst.budgets[0] = 2.0


positive = st.floats(0.0, 1e300, exclude_min=True)


@given(st.sampled_from(["linear", "leontief", "ces"]), st.data())
@settings(max_examples=100, deadline=None)
def test_instance_json_round_trip_is_exact(kind, data):
    n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    v = np.array(data.draw(st.lists(st.lists(st.one_of(st.just(0.0), positive),
                                             min_size=m, max_size=m),
                                    min_size=n, max_size=n)))
    v[~(v > 0).any(axis=1), 0] = 1.0
    budgets = data.draw(st.lists(positive, min_size=n, max_size=n))
    rho = None
    if kind == "ces":
        rho = data.draw(st.floats(-1e300, 1.0).filter(lambda r: r != 0.0))
    inst = mg.make_instance(kind, v, budgets, rho)
    again = mg.Instance.from_json(inst.to_json())
    assert (again.kind, again.n, again.m) == (inst.kind, inst.n, inst.m)
    assert np.array_equal(again.matrix, inst.matrix)
    assert np.array_equal(again.budgets, inst.budgets)
    assert again.valuations.rho == inst.valuations.rho
