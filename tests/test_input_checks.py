import numpy as np
import pytest

import marketgames as mg
from marketgames.trading_post import check_bid_profile

_ONE = mg.ValuationProfile("linear", [[1.0]])
_LINEAR = mg.make_instance("linear", [[1.0, 0.5], [0.5, 1.0]])

# each malformed call, by module, and the ValueError message it raises
_CASES = {
    "profile-1d": (lambda: mg.ValuationProfile("linear", [1.0, 2.0]),
                   "valuation matrix must be 2-dimensional"),
    "ces-without-rho": (lambda: mg.ValuationProfile("ces", [[1.0]]),
                        "CES valuations require rho"),
    "no-agents": (lambda: mg.Instance(0, 1, np.ones(0), _ONE),
                  "need at least one agent and one good"),
    "budget-length": (lambda: mg.Instance(1, 1, np.ones(2), _ONE),
                      "budgets must be a length-n vector"),
    "matrix-shape": (lambda: mg.Instance(1, 2, np.ones(1), _ONE),
                     "valuation matrix shape must be n x m"),
    "budget-overflows-float": (
        lambda: mg.Instance.from_dict({"n": 1, "m": 1, "kind": "linear",
                                       "matrix": [[1]], "budgets": [10 ** 400]}),
        "field 'budgets' holds an integer too large for a float"),
    "allocation-shape": (lambda: mg.eval_valuation_matrix(_ONE, np.ones((2, 1))),
                         "allocation shape (2, 1) does not match valuations (1, 1)"),
    "allocation-negative": (lambda: mg.eval_valuation_matrix(_ONE, [[-1.0]]),
                            "bundle entries must be non-negative"),
    "agent-out-of-range": (lambda: mg.eval_valuation(_ONE, 1, [1.0]),
                           "agent index 1 out of range"),
    "bundle-negative": (lambda: mg.eval_valuation(_ONE, 0, [-1.0]),
                        "bundle entries must be non-negative"),
    "nsw-lengths": (lambda: mg.nsw([1.0], [1.0, 1.0]),
                    "utilities and budgets must have matching length"),
    "nsw-zero-budget": (lambda: mg.nsw([1.0], [0.0]), "budgets must be strictly positive"),
    "poa-negative-nsw": (lambda: mg.poa_ratio(1, -1), "equilibrium NSW must be non-negative"),
    "eps-no-goods": (lambda: mg.delta_for_eps(0.1, 0), "need at least one good"),
    "negative-bids": (lambda: mg.ne_to_market([[-1]]), "bids must be non-negative"),
    "bid-rows": (lambda: check_bid_profile(_LINEAR, [[1.0]]),
                 "bids must be an n x m matrix"),
    "dynamics-init-width": (lambda: mg.br_dynamics(_LINEAR, init=[[1.0], [1.0]]),
                            "bids must be an n x m matrix"),
    "tp-ne-bids-width": (lambda: mg.verify_tp_ne(_LINEAR, [[0.5, 0.5, 0.0]] * 2),
                         "bids must be an n x m matrix"),
    "tp-ne-bids-negative": (lambda: mg.verify_tp_ne(_LINEAR, [[-0.5, 1.5], [0.5, 0.5]]),
                            "bids must be finite and non-negative"),
    "br-row-lengths": (lambda: mg.br_linear([1.0, 1.0], 1.0, [1.0]),
                       "values and opp_spend must be rows of the same length"),
    "br-nothing-demanded": (lambda: mg.br_linear([0.0], 1.0, [1.0]),
                            "agent demands no goods"),
    "safe-zero-budget": (lambda: mg.safe_strategy(0, [1.0]), "budget must be positive"),
    "numeric-monopoly": (lambda: mg.br_concave_numeric(_ONE, 0, 1.0, [0.0]),
                         "supremum not attained: demanded good has no opposing spend"),
    "report-shape": (lambda: mg.fisher_outcome(_LINEAR, [[1.0]]),
                     "reports must be an n x m matrix"),
    "uniform-on-linear": (lambda: mg.uniform_leontief_ne(_LINEAR),
                          "uniform_leontief_ne requires a Leontief instance"),
    "leo-family-a": (lambda: mg.gen_example_leo_family(1.0),
                     "a must lie strictly between 0 and 1"),
    **{f"lin-family-eps-{eps}": (lambda eps=eps: mg.gen_example_lin_family(eps),
                                 "eps must lie in [0, 1]")
       for eps in (1.5, -0.2, float("nan"), float("inf"))},
    "sparsity-one": (lambda: mg.gen_random(3, 3, "linear", sparsity=1.0),
                     "sparsity must lie in [0, 1)"),
    "one-agent": (lambda: mg.gen_random(1, 3, "linear"),
                  "perfect competition needs at least two agents"),
    "optimum-zero-budget": (lambda: mg.optimal_bundle_utility(_ONE, 0, 0.0, [1.0]),
                            "budget must be positive"),
    "gap-on-linear": (lambda: mg.duality_gap_leontief(_LINEAR, np.eye(2), np.ones(2)),
                      "duality_gap_leontief requires Leontief valuations"),
}


@pytest.mark.parametrize("call, message", _CASES.values(), ids=_CASES.keys())
def test_malformed_input_raises_its_message(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
