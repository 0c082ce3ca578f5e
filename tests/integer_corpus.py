"""Solve 2,500 seeded integer linear markets and write their allocations.

    PYTHONPATH=src python3 -W error::RuntimeWarning tests/integer_corpus.py OUT

Each market has n and m in 2..8 agents and goods, values in {0, 1, 2, 3}
with every row positive somewhere, and budgets in {1, ..., 4}, all drawn
from ``default_rng(7)``; such markets tie often.  The script exits 1 if a
solve does not converge, and writes every allocation's bytes to OUT, so
that two runs can be compared byte for byte.  It also prints, as a count
and not a check, how many relabellings (one random order of the agents and
one of the goods per market) move an allocation by more than 1e-9 once
the relabelling is undone: the tie rule should make that rare.
"""

import sys

import numpy as np

import marketgames as mg


def integer_markets(count=2500, seed=7):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        v = rng.integers(0, 4, (n, m)).astype(float)
        while not (v.sum(axis=1) > 0).all():
            zero = v.sum(axis=1) == 0
            v[zero] = rng.integers(0, 4, (int(zero.sum()), m))
        yield v, rng.integers(1, 5, n).astype(float)


def main(out):
    orders = np.random.default_rng(8)
    unconverged = moved = relabelled = 0
    with open(out, "wb") as f:
        for v, b in integer_markets():
            eq = mg.solve_eg(mg.make_instance("linear", v, b))
            unconverged += not eq.converged
            f.write(eq.allocation.tobytes())
            rows, cols = orders.permutation(len(b)), orders.permutation(v.shape[1])
            for r, c in ((rows, np.arange(v.shape[1])), (np.arange(len(b)), cols)):
                other = mg.solve_eg(mg.make_instance("linear", v[np.ix_(r, c)], b[r]))
                back = np.empty_like(other.allocation)
                back[np.ix_(r, c)] = other.allocation
                relabelled += 1
                moved += np.abs(back - eq.allocation).max() > 1e-9
    print(f"{unconverged} unconverged; {moved} of {relabelled} relabellings move an "
          f"allocation by more than 1e-9")
    return 1 if unconverged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
