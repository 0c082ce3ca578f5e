import numpy as np

import digest
from marketgames import eq_solvers


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
