import math

import numpy as np

import digest
from marketgames import eq_solvers, fisher_game, trading_post


def test_a_one_ulp_change_in_ces_prices_moves_its_group_only(monkeypatch):
    def hashes():
        return [digest.run(digest.GROUPS[name])[0] for name in ("solve-eg", "wide")]

    before = hashes()
    solve = eq_solvers._solve_ces_stack

    def nudged(*args):
        solved = solve(*args)
        return solved._replace(prices=np.nextafter(solved.prices, np.inf))

    monkeypatch.setattr(eq_solvers, "_solve_ces_stack", nudged)
    after = hashes()
    assert after[0] != before[0]
    assert after[1] == before[1]


def test_a_one_ulp_change_in_report_game_allocations_moves_its_group_only(monkeypatch):
    def hashes():
        return [digest.run(digest.GROUPS[name])[0] for name in ("falsifier", "solve-eg")]

    before = hashes()
    solve = fisher_game._solve_profiles

    # the base outcome is a stack of one, and moving it by the same ulp as its
    # deviations leaves each gain, their difference, unchanged: so only the
    # members after a stack's first move
    def nudged(*args, **kwargs):
        solved = solve(*args, **kwargs)
        allocations = solved.allocations.copy()
        allocations[1:] = np.nextafter(allocations[1:], np.inf)
        return solved._replace(allocations=allocations)

    monkeypatch.setattr(fisher_game, "_solve_profiles", nudged)
    after = hashes()
    assert after[0] != before[0]
    assert after[1] == before[1]


def test_a_one_ulp_change_in_settled_bids_moves_the_oracle_group_only(monkeypatch):
    def hashes():
        return [digest.run(digest.GROUPS[name])[0] for name in ("tp-oracles", "solve-eg")]

    before = hashes()
    settle = trading_post._settle

    def nudged(*args):
        bids = settle(*args)
        top = bids.index(max(bids))
        bids[top] = math.nextafter(bids[top], math.inf)
        return bids

    monkeypatch.setattr(trading_post, "_settle", nudged)
    after = hashes()
    assert after[0] != before[0]
    assert after[1] == before[1]
