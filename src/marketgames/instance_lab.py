"""Instance generators, file I/O, and the price-of-anarchy experiment driver.

Named constructions reproduce the worked examples; gen_random provides a
seeded stress family with the perfect-competition property enforced.
run_experiment plays a mechanism on an instance, and poa_record scores the
outcome against the optimum as one PoA row; a failed run becomes a row with a
failure tag, so it never aborts a batch.
"""

from __future__ import annotations

import csv
import time
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .core import (CES, LEONTIEF, LINEAR, DEFAULT_TOL, Instance, make_instance,
                   nsw, poa_ratio, proportionality_check)
from .eq_solvers import solve_eg, verify_eps_market_eq
from .fisher_game import fisher_ne_falsify, uniform_leontief_ne
from .trading_post import br_dynamics

# ---------------------------------------------------------------------------
# Generators


def gen_identity_leontief(n: int) -> Instance:
    """n agents, n goods; agent i requires only good i."""
    return make_instance(LEONTIEF, np.eye(n))


def gen_example_3_1() -> Instance:
    """Two linear agents: (1, 0) and (0.5, 0.5), unit budgets."""
    return make_instance(LINEAR, [[1.0, 0.0], [0.5, 0.5]])


def gen_tp_nonexistence() -> Instance:
    """The Leontief pair (0.5, 0.5) / (0.9, 0.1) with no pure equilibrium
    at zero entrance fee."""
    return make_instance(LEONTIEF, [[0.5, 0.5], [0.9, 0.1]])


def gen_example_lin_family(eps: float = 0.3):
    """Four linear buyers, two goods, and the documented bid family
    ((1,0), (0,1), (1-eps,eps), (eps,1-eps))."""
    if not 0 <= eps <= 1:
        raise ValueError("eps must lie in [0, 1]")
    instance = make_instance(LINEAR, [[1.0, 0.0], [0.0, 1.0],
                                      [0.5, 0.5], [0.5, 0.5]])
    bids = np.array([[1.0, 0.0], [0.0, 1.0],
                     [1.0 - eps, eps], [eps, 1.0 - eps]])
    return instance, bids


def gen_example_leo_family(a: float = 0.5):
    """Two identical Leontief agents and the equilibrium family where both
    bid (a, 1-a); every a in (0, 1) is a pure equilibrium."""
    if not 0 < a < 1:
        raise ValueError("a must lie strictly between 0 and 1")
    instance = make_instance(LEONTIEF, np.ones((2, 2)))
    bids = np.array([[a, 1.0 - a], [a, 1.0 - a]])
    return instance, bids


def gen_positive_leontief(n: int, m: int | None = None, seed: int = 0):
    """A Leontief instance whose market equilibrium has all-positive prices.

    Built inversely: draw a strictly positive column-stochastic allocation x
    and positive prices p, set the requirement rows to x and budgets to the
    induced spending x @ p.  Then (x, p) is the market equilibrium (each
    agent consumes at equal ratio 1 relative to its requirements and all
    money is spent), so trading-post equilibria exist at zero entrance fee.
    Returns (instance, allocation, prices).
    """
    m = n if m is None else m
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.2, 1.0, size=(n, m))
    x /= x.sum(axis=0, keepdims=True)
    p = rng.uniform(0.5, 1.5, size=m)
    budgets = x @ p
    mat = x / x.max(axis=1, keepdims=True)
    return make_instance(LEONTIEF, mat, budgets), x, p


def gen_random(n: int, m: int, kind: str, rho: float | None = None,
               seed: int = 0, sparsity: float = 0.0) -> Instance:
    """Seeded random instance: uniform(0,1) values, optional sparsification.

    Columns are resampled until every good is demanded by at least two
    agents (perfect competition), rows until every agent demands something.
    Leontief rows are rescaled to max entry 1 for conditioning.  Raises
    ValueError if 1000 redraws leave a column with fewer than two demanders.
    """
    if not 0 <= sparsity < 1:
        raise ValueError("sparsity must lie in [0, 1)")
    if n < 2:
        raise ValueError("perfect competition needs at least two agents")
    rng = np.random.default_rng(seed)

    def draw_column():
        col = rng.uniform(0.05, 1.0, size=n)
        if sparsity > 0:
            col = np.where(rng.uniform(size=n) < sparsity, 0.0, col)
        return col

    mat = np.empty((n, m))
    for j in range(m):
        for _ in range(1001):  # a draw and 1000 redraws
            col = draw_column()
            if (col > 0).sum() >= 2:
                break
        else:
            raise ValueError(f"sparsity {sparsity} leaves good {j} under two demanders")
        mat[:, j] = col
    for i in range(n):
        if not (mat[i] > 0).any():
            mat[i, int(rng.integers(0, m))] = rng.uniform(0.05, 1.0)
    if kind == LEONTIEF:
        mat = mat / mat.max(axis=1, keepdims=True)
    return make_instance(kind, mat, rho=rho if kind == CES else None)


# ---------------------------------------------------------------------------
# File I/O


def save_instance(instance: Instance, path) -> None:
    Path(path).write_text(instance.to_json() + "\n")


def load_instance(path) -> Instance:
    return Instance.from_json(Path(path).read_text())


def format_value(x) -> str:
    """Fixed 12-significant-digit decimal formatting for reports."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.12g}"
    if isinstance(x, np.ndarray):
        return " ".join(format_value(v) for v in x.ravel())
    if isinstance(x, (list, tuple)):
        return " ".join(format_value(v) for v in x)
    return str(x)


def write_report(path, items: dict) -> None:
    """Write a flat key-value report document, one `key = value` per line."""
    lines = [f"{key} = {format_value(val)}" for key, val in items.items()]
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Experiments


@dataclass
class PoARecord:
    """One price-of-anarchy row; its field names are the CSV header."""

    instance_id: str
    mechanism: str
    delta: float
    nsw_opt: float
    nsw_eq: float
    ratio: float
    eps_br: float
    eps_market: float
    proportional: bool
    seconds: float
    failure: str = ""


CSV_HEADER = tuple(f.name for f in fields(PoARecord))


def poa_record(instance: Instance, instance_id: str, mechanism: str, delta: float,
               allocation, prices, eps_br: float, tol: float = DEFAULT_TOL,
               failure: str = "") -> PoARecord:
    """The PoA row of a mechanism's outcome: ``allocation`` at ``prices``,
    whose best-response gain is ``eps_br``.

    The row solves the optimum at ``tol``; one that did not converge is named
    first in ``failure``.  ``eps_market``, given on a Leontief trading post
    and NaN elsewhere, is the smallest eps for which the outcome is an
    eps-market equilibrium (checked at m^2 delta).  ``proportional`` checks
    the allocation with the entrance-fee slack delta (m - 1) / B_i on the
    trading post and with none in the Fisher game.
    """
    opt = solve_eg(instance, tol)
    if not opt.converged:
        note = f"optimum did not converge (worst residual {opt.residuals.worst:.3g})"
        failure = f"{note}; {failure}" if failure else note
    fee = delta if mechanism == "trading_post" else 0.0
    eps_market = float("nan")
    if mechanism == "trading_post" and instance.kind == LEONTIEF:
        eps_market = verify_eps_market_eq(instance, allocation, prices,
                                          instance.m ** 2 * delta, tol).eps_required
    slack = np.minimum(fee * (instance.m - 1) / instance.budgets, 1.0)
    prop = proportionality_check(instance, allocation, slack, tol=1e-7)
    nsw_opt = nsw(opt.utilities, instance.budgets)
    nsw_eq = nsw(instance.utilities(allocation), instance.budgets)
    return PoARecord(instance_id, mechanism, delta, nsw_opt, nsw_eq,
                     poa_ratio(nsw_opt, nsw_eq), eps_br, eps_market, prop.all_pass,
                     0.0, failure)


def run_experiment(instance: Instance, instance_id: str, mechanism: str = "trading_post",
                   delta: float = 0.0, tol: float = DEFAULT_TOL, max_rounds: int = 2000,
                   certify_trials: int = 0, seed: int = 0) -> PoARecord:
    """The PoA row of ``instance``: its optimum against the uniform Leontief
    equilibrium of the Fisher game (checked by ``certify_trials`` falsifier
    trials from ``seed``) or the trading post's best-response dynamics at
    entrance fee ``delta``.  A failed run returns a row whose ``failure``
    says why, and only bad arguments raise."""
    if mechanism not in ("fisher", "trading_post"):
        raise ValueError(f"unknown mechanism {mechanism!r}")
    if not 0 <= delta < np.inf:
        raise ValueError(f"delta must be finite and non-negative, not {delta}")
    t0 = time.perf_counter()
    try:
        failure = ""
        if mechanism == "fisher":
            if instance.kind != LEONTIEF:
                raise ValueError("fisher experiments use the uniform Leontief "
                                 "equilibrium; linear/CES Fisher equilibria are not "
                                 "constructed here")
            reports, outcome = uniform_leontief_ne(instance, tol)
            eq = outcome.equilibrium
            failures = [] if eq.converged else ["reported market did not converge"]
            eps_br = float("nan")
            if certify_trials > 0:
                rep = fisher_ne_falsify(instance, reports, certify_trials, seed=seed,
                                        tol=tol)
                eps_br = rep.max_gain
                if rep.failures:
                    failures.append(f"falsifier skipped {rep.failures} failed solves")
            failure = "; ".join(failures)
        else:
            if instance.kind == LEONTIEF and delta <= 0:
                raise ValueError("Leontief trading post needs delta > 0: exact "
                                 "equilibria may not exist at delta = 0")
            eq = br_dynamics(instance, delta, max_rounds=max_rounds, tol=min(tol, 1e-9))
            if not eq.converged:
                raise ValueError(f"dynamics did not converge: {eq.note}")
            eps_br = eq.max_gain
        rec = poa_record(instance, instance_id, mechanism, delta, eq.allocation,
                         eq.prices, eps_br, tol, failure)
        return replace(rec, seconds=time.perf_counter() - t0)
    except Exception as exc:  # failure tag, never abort the caller's batch
        nan = float("nan")
        return PoARecord(instance_id, mechanism, delta, nan, nan, nan, nan, nan,
                         False, time.perf_counter() - t0, str(exc))


def records_to_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow([format_value(v) for v in astuple(r)])
