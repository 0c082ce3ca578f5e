"""Solve 400 seeded linear markets with budgets 16 orders apart.

    PYTHONPATH=src python3 -W error::RuntimeWarning tests/wide_budget_corpus.py OUT

Each market has n and m in 2..7 agents and goods, values 10^U(-1, 1) of
which 20% are zero, but one entry per row, and budgets 10^U(-8, 8), all
drawn from ``default_rng(11)``.  Unlike ordinary markets, many of these
are not settled by the polish of a near iterate: the interior point breaks
down first, and the result is its last iterate or that iterate's polish.
The script writes every allocation's and price vector's bytes to OUT, so
that two runs can be compared byte for byte, and prints how many solves did
not converge, as a count and not a check.
"""

import sys

import numpy as np

import marketgames as mg


def wide_budget_markets(count=400, seed=11):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, m = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        v = 10.0 ** rng.uniform(-1.0, 1.0, (n, m))
        zero = rng.random((n, m)) < 0.2
        zero[np.arange(n), rng.integers(0, m, n)] = False
        v[zero] = 0.0
        yield v, 10.0 ** rng.uniform(-8.0, 8.0, n)


def main(out):
    unconverged = 0
    with open(out, "wb") as f:
        for v, b in wide_budget_markets():
            eq = mg.solve_eg(mg.make_instance("linear", v, b))
            unconverged += not eq.converged
            f.write(eq.allocation.tobytes())
            f.write(eq.prices.tobytes())
    print(f"{unconverged} of 400 unconverged")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
