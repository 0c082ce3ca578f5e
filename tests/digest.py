"""One SHA-256 per group of the outputs that a change should keep bit for bit.

    PYTHONPATH=src python3 -W error::RuntimeWarning tests/digest.py

Prints ``<group> <sha256> <note>`` for each group, and exits 1 if a group
fails its check; that line ends in FAILED.  Floats are hashed by their
bytes, whose rounding depends on the BLAS and numpy builds, so compare the
lines of the parent and of the change in one environment.  The groups:

- integer: 2,500 seeded linear markets with small integer values and
  budgets, which tie often.  Fails on an unconverged solve; the note counts
  the relabellings of agents or goods that move an allocation by more than
  1e-9 once undone.
- wide: 400 seeded linear markets with budgets 16 orders apart, many
  settled by the interior point's last iterate, or its polish, after a
  breakdown.  The note counts the unconverged solves.
- ces-falsifier: the falsifier's gains on a 30 x 20 CES market, whose 931
  deviation markets are solved in stacks.  Fails on any failure.
- falsifier: the falsifier's gains and market counts at 16 trials and seeds
  0-3 on the lower-bound profiles of n = 8 and 14, each with and without its
  equilibrium spending as the start, and on the uniform reports of identity
  Leontief markets of n = 2, 5 and 10.  Fails on any failure.
- solve-eg: single solves of every kind at the default cap and at one step.
- tp-oracles: the bids, utility, iterations and converged flag of the Trading
  Post best response (``trading_post._best_response``) on 20,000 seeded
  rows: linear, Leontief and CES at rho 0.5 and -1, 1 to 7 goods, fees of
  0, 1e-4, 0.05, 0.2 / k and 0.9 / k times the budget (k demanded goods),
  and at a fee some goods without opposing spend.  Fails on an unconverged
  answer.
- reproduce <id>: the report of every ``cli.REPRODUCE`` id at its defaults,
  and of ``lb-construction --n 27``; tp-dynamics leontief and ces: the
  ``--stream`` CSVs of two markets whose dynamics warm-start the oracles.
  Each runs through ``cli.main`` and fails on a nonzero exit.
"""

import contextlib
import dataclasses
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

import marketgames as mg
from marketgames import cli, trading_post


def integer(h):
    rng, orders = np.random.default_rng(7), np.random.default_rng(8)
    unconverged = moved = 0
    for _ in range(2500):
        n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        v = rng.integers(0, 4, (n, m)).astype(float)
        while not (v.sum(axis=1) > 0).all():
            zero = v.sum(axis=1) == 0
            v[zero] = rng.integers(0, 4, (int(zero.sum()), m))
        b = rng.integers(1, 5, n).astype(float)
        eq = mg.solve_eg(mg.make_instance("linear", v, b))
        unconverged += not eq.converged
        h.update(eq.allocation.tobytes())
        rows, cols = orders.permutation(n), orders.permutation(m)
        for r, c in ((rows, np.arange(m)), (np.arange(n), cols)):
            other = mg.solve_eg(mg.make_instance("linear", v[np.ix_(r, c)], b[r]))
            moved += np.abs(other.allocation - eq.allocation[np.ix_(r, c)]).max() > 1e-9
    return (f"{unconverged} unconverged; {moved} of 5000 relabellings move an "
            f"allocation by more than 1e-9"), unconverged == 0


def wide(h):
    rng = np.random.default_rng(11)
    unconverged = 0
    for _ in range(400):
        n, m = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        v = 10.0 ** rng.uniform(-1.0, 1.0, (n, m))
        zero = rng.random((n, m)) < 0.2
        zero[np.arange(n), rng.integers(0, m, n)] = False
        v[zero] = 0.0
        eq = mg.solve_eg(mg.make_instance("linear", v, 10.0 ** rng.uniform(-8.0, 8.0, n)))
        unconverged += not eq.converged
        h.update(eq.allocation.tobytes())
        h.update(eq.prices.tobytes())
    return f"{unconverged} of 400 unconverged", True


def ces_falsifier(h):
    inst = mg.gen_random(30, 20, "ces", rho=0.5, seed=3)
    rep = mg.fisher_ne_falsify(inst, inst.matrix, trials=32, seed=1)
    h.update(rep.gains.tobytes())
    return f"{rep.markets} markets, failures {rep.failures}", rep.failures == 0


def falsifier(h):
    profiles = []
    for n in (8, 14):
        inst, reports, spends = mg.lb_construction(n)
        profiles += [(inst, reports, None), (inst, reports, spends)]
    for n in (2, 5, 10):
        inst = mg.gen_identity_leontief(n)
        profiles.append((inst, mg.uniform_leontief_ne(inst)[0], None))
    failures = 0
    for inst, reports, spends in profiles:
        for seed in range(4):
            rep = mg.fisher_ne_falsify(inst, reports, trials=16, seed=seed,
                                       init_spending=spends)
            h.update(rep.gains.tobytes())
            h.update(np.int64(rep.markets).tobytes())
            failures += rep.failures
    return f"{4 * len(profiles)} runs, failures {failures}", failures == 0


def single_solves(h):
    unconverged = 0
    for kind, rho in (("linear", None), ("leontief", None), ("ces", 0.9), ("ces", 0.5),
                      ("ces", -1.0), ("ces", -3.0), ("ces", 0.99)):
        for n, m in ((3, 3), (10, 8), (30, 20)):
            for seed in range(4):
                inst = mg.gen_random(n, m, kind, rho=rho, seed=seed, sparsity=0.3 * (seed % 2))
                eqs = mg.solve_eg(inst), mg.solve_eg(inst, max_iter=1)
                for eq in eqs:
                    for a in (eq.allocation, eq.prices, eq.utilities):
                        h.update(a.tobytes())
                    h.update(np.array([*dataclasses.astuple(eq.residuals), eq.iterations,
                                       eq.converged], dtype=float).tobytes())
                unconverged += not eqs[0].converged
    return f"{unconverged} of 84 unconverged at the default cap", True


def oracle_rows(count=20000):
    """The tp-oracles corpus: ``_best_response``'s arguments, one tuple a
    row, cycling through the four kinds and, every four rows, the five fees."""
    rng = np.random.default_rng(13)
    kinds = (("linear", None), ("leontief", None), ("ces", 0.5), ("ces", -1.0))
    for r in range(count):
        kind, rho = kinds[r % 4]
        m = int(rng.integers(1, 8))
        v = np.exp(rng.uniform(-2.5, 2.5, m))
        v[rng.random(m) < 0.2] = 0.0
        v[rng.integers(m)] = 1.0  # every row demands a good
        d = np.exp(rng.uniform(-3.0, 1.0, m))
        budget = float(np.exp(rng.uniform(-1.0, 1.0)))
        demanded = np.flatnonzero(v).tolist()
        k = len(demanded)
        fee = (0.0, 1e-4, 0.05, 0.2 / k, 0.9 / k)[r // 4 % 5] * budget
        if fee > 0:  # a monopolized good only has an attained best response at a fee
            d[rng.random(m) < 0.25] = 0.0
        yield kind, rho, v.tolist(), demanded, budget, d.tolist(), fee


def tp_oracles(h):
    unconverged = 0
    for row in oracle_rows():
        bids, utility, iterations, converged = trading_post._best_response(*row)
        h.update(np.array(bids).tobytes())
        h.update(np.array([utility, iterations, converged]).tobytes())
        unconverged += not converged
    return f"{unconverged} of 20000 unconverged", unconverged == 0


def cli_group(*argv, out="report.txt", market=None):
    """A group: the file ``out`` that ``cli.main(argv)`` writes in a fresh
    directory ``{d}``, which holds ``market()`` as market.json if given."""
    def group(h):
        with tempfile.TemporaryDirectory() as d:
            if market:
                Path(d, "market.json").write_text(market().to_json())
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([a.format(d=d) for a in argv])
            if code == 0:
                h.update(Path(d, out).read_bytes())
        return f"exit {code}", code == 0
    return group


GROUPS = {
    "integer": integer,
    "wide": wide,
    "ces-falsifier": ces_falsifier,
    "falsifier": falsifier,
    "solve-eg": single_solves,
    "tp-oracles": tp_oracles,
    **{f"reproduce {id_}": cli_group("reproduce", id_, "--out", "{d}/report")
       for id_ in cli.REPRODUCE},
    "reproduce lb-construction --n 27": cli_group("reproduce", "lb-construction",
                                                  "--n", "27", "--out", "{d}/report"),
    "tp-dynamics leontief": cli_group(
        "tp-dynamics", "{d}/market.json", "--delta", "1e-4", "--stream", "{d}/stream.csv",
        out="stream.csv", market=lambda: mg.gen_random(4, 3, "leontief", seed=3)),
    "tp-dynamics ces": cli_group(
        "tp-dynamics", "{d}/market.json", "--stream", "{d}/stream.csv",
        out="stream.csv", market=lambda: mg.gen_random(3, 3, "ces", rho=0.5, seed=3)),
}


def run(group):
    """The hex SHA-256 of ``group``'s outputs, its note, and whether it passed:
    a group updates a hash with its outputs' bytes and returns the rest."""
    h = hashlib.sha256()
    note, ok = group(h)
    return h.hexdigest(), note, ok


def main() -> int:
    failed = False
    for name, group in GROUPS.items():
        digest, note, ok = run(group)
        print(f"{name} {digest} {note}{'' if ok else ' FAILED'}", flush=True)
        failed |= not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
