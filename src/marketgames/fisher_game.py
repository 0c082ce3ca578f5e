"""The Fisher market mechanism played as a game.

Agents submit valuation reports; the mechanism computes the market
equilibrium of the reported market and agents experience the resulting
allocation through their true valuations.  Includes the uniform-report
Leontief equilibrium, the linear lower-bound construction, and a
sampling-based equilibrium falsifier (evidence, not proof).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (LEONTIEF, LINEAR, DEFAULT_TOL, Instance, ValuationProfile,
                   make_instance, nsw, _readonly)
from .eq_solvers import MarketEquilibrium, solve_eg, solve_eg_many


@dataclass(frozen=True)
class GameOutcome:
    """Mechanism outcome: reported-market equilibrium plus true utilities."""

    equilibrium: MarketEquilibrium
    true_utilities: np.ndarray
    nsw: float
    flagged_agents: tuple[int, ...] = ()


@dataclass(frozen=True)
class FalsifierReport:
    """Best unilateral report-deviation gains found by sampling."""

    gains: np.ndarray
    max_gain: float
    trials_per_agent: int
    failures: int


def _check_reports(instance: Instance, reports) -> np.ndarray:
    r = np.asarray(reports, dtype=float)
    if r.shape != (instance.n, instance.m):
        raise ValueError("reports must be an n x m matrix")
    if not ((r >= 0) & np.isfinite(r)).all():
        raise ValueError("reports must be finite and non-negative")
    return r


def _fisher_outcomes(instance: Instance, profiles, tol: float,
                     init_spending=None) -> list[GameOutcome]:
    """The mechanism's outcome of each checked report profile.

    Each reported market keeps its live agents (a positive report) and all
    goods; the markets are solved by one ``solve_eg_many`` call, or, given
    ``init_spending`` (its rows for the live agents are each market's
    ``init_bids``), by ``solve_eg`` one at a time.
    """
    lives = [(r > 0).any(axis=1) for r in profiles]
    subs = [Instance(int(live.sum()), instance.m, instance.budgets[live],
                     ValuationProfile(instance.kind, r[live], instance.valuations.rho))
            for r, live in zip(profiles, lives)]
    if init_spending is None:
        eqs = solve_eg_many(subs, tol)
    else:
        init = np.asarray(init_spending, float)
        eqs = [solve_eg(sub, tol, init_bids=init[live]) for sub, live in zip(subs, lives)]
    outcomes = []
    for live, eq in zip(lives, eqs):
        allocation = np.zeros((instance.n, instance.m))
        allocation[live] = eq.allocation
        rep_utilities = np.zeros(instance.n)
        rep_utilities[live] = eq.utilities
        full_eq = MarketEquilibrium(_readonly(allocation), eq.prices,
                                    _readonly(rep_utilities), eq.residuals,
                                    eq.iterations, eq.converged, eq.dropped_goods)
        true_u = instance.utilities(allocation)
        outcomes.append(GameOutcome(full_eq, _readonly(true_u),
                                    nsw(true_u, instance.budgets),
                                    tuple(int(i) for i in np.nonzero(~live)[0])))
    return outcomes


def fisher_outcome(instance: Instance, reports, tol: float = DEFAULT_TOL,
                   init_spending=None) -> GameOutcome:
    """Run the mechanism: solve the reported market, evaluate true utilities.

    Goods nobody reports a value for are removed before solving (their price
    is zero and they stay unallocated); agents whose whole report is zero
    receive nothing and are flagged.  The reported market is solved within
    the default Newton-step cap; ``init_spending`` is its ``init_bids``,
    which selects among tied linear equilibria.  Reports that are negative
    or not finite raise ValueError.
    """
    r = _check_reports(instance, reports)
    return _fisher_outcomes(instance, [r], tol, init_spending)[0]


def uniform_leontief_ne(instance: Instance, tol: float = DEFAULT_TOL):
    """The known Leontief equilibrium where everyone reports (1/m, ..., 1/m).

    The reported market splits every good by budget share, so agent i gets
    the fraction B_i / B of everything.  Returns (reports, outcome).
    """
    if instance.kind != LEONTIEF:
        raise ValueError("uniform_leontief_ne requires a Leontief instance")
    reports = np.full((instance.n, instance.m), 1.0 / instance.m)
    return reports, fisher_outcome(instance, reports, tol)


def _round_half_down(x: float) -> int:
    f = math.floor(x)
    return f + 1 if x - f > 0.5 else f


def lb_construction(n: int):
    """The linear lower-bound family: n+2 agents, n+1 goods, unit budgets.

    Agents up to k = round(n/e) want only their own good; agents k+1..n also
    place a tiny value eps = n^-4 on the first k goods and misreport so as
    to spend delta = 2/n on their own good and the rest evenly on the first
    k; agent n+1 values the middle goods at eps' = 1/n and good n+1 at 2;
    agent n+2 wants only good n+1.  Returns (instance, reports, spends):
    the report profile realizes the misreports as exact bang-per-buck ties,
    and ``spends`` is both the equilibrium spending selection for the Fisher
    game and the equivalent trading-post bid profile.
    """
    if n < 8:
        raise ValueError("construction needs n >= 8 so that k >= 2")
    k = _round_half_down(n / math.e)
    eps = float(n) ** -4
    eps_prime = 1.0 / n
    delta = 2.0 * eps_prime
    agents, goods = n + 2, n + 1

    v = np.zeros((agents, goods))
    for i in range(k):
        v[i, i] = 1.0
    for i in range(k, n):
        v[i, i] = 1.0
        v[i, :k] = eps
    v[n, k:n] = eps_prime
    v[n, n] = 2.0
    v[n + 1, n] = 2.0
    instance = make_instance(LINEAR, v)

    price_first = (k + (n - k) * (1.0 - delta)) / k
    reports = v.copy()
    for i in range(k, n):
        reports[i, :] = 0.0
        reports[i, :k] = price_first
        reports[i, i] = delta

    spends = np.zeros((agents, goods))
    for i in range(k):
        spends[i, i] = 1.0
    for i in range(k, n):
        spends[i, i] = delta
        spends[i, :k] = (1.0 - delta) / k
    spends[n, n] = 1.0
    spends[n + 1, n] = 1.0
    return instance, reports, spends


def lb_profile_stats(n: int) -> dict:
    """Closed-form utilities and NSW at the lower-bound profile."""
    k = _round_half_down(n / math.e)
    eps = float(n) ** -4
    delta = 2.0 / n
    denom = k + (n - k) * (1.0 - delta)
    u_first = k / denom
    u_mid = 1.0 + (1.0 - delta) * k * eps / denom
    utilities = np.array([u_first] * k + [u_mid] * (n - k) + [1.0, 1.0])
    return {
        "k": k,
        "eps": eps,
        "eps_prime": 1.0 / n,
        "delta": delta,
        "u_first": u_first,
        "u_mid": u_mid,
        "utilities": utilities,
        "nsw": nsw(utilities, np.ones(n + 2)),
    }


_STRUCTURED_SCALES = (0.25, 0.5, 0.9, 1.1, 2.0, 4.0)


def fisher_ne_falsify(instance: Instance, reports, trials: int = 100,
                      seed: int = 0, tol: float = DEFAULT_TOL,
                      init_spending=None) -> FalsifierReport:
    """Search for profitable unilateral report deviations by sampling.

    Per agent, up to ``trials`` deviations are tried: the truthful report, a
    deterministic grid of single-coordinate rescalings (the spend-shift
    deviations of the lower-bound analysis expressed in report space), and
    seeded random deviations (log-uniform coordinate rescalings in
    [1e-3, 1e3] and sparsified reports).  A max gain at or below tolerance is
    evidence of equilibrium, not proof.  Each agent's deviation markets are
    solved together (``solve_eg_many``), and a profile that repeats within
    the call is solved once.  A deviation whose solve did not converge, or
    whose agent's solves raised, is counted in ``failures`` and its gain
    left out.
    """
    base_reports = _check_reports(instance, reports)
    base = fisher_outcome(instance, reports, tol, init_spending=init_spending)
    rng = np.random.default_rng(seed)
    lo, hi = math.log(1e-3), math.log(1e3)
    gains = np.zeros(instance.n)
    failures = 0
    solved: dict = {}  # profile bytes -> outcome, None if it raised or did not converge
    for i in range(instance.n):
        devs = [instance.matrix[i].copy()]
        # smallest report coordinates first: they carry the fragile
        # near-monopoly spending the spend-shift deviations target
        pos = np.nonzero(base_reports[i] > 0)[0]
        for j in pos[np.argsort(base_reports[i][pos], kind="stable")]:
            for s in _STRUCTURED_SCALES:
                d = base_reports[i].copy()
                d[j] *= s
                devs.append(d)
        while len(devs) < trials:
            mode = rng.integers(0, 3)
            d = base_reports[i].copy()
            if mode == 0:
                j = int(rng.integers(0, instance.m))
                d[j] = max(d[j], 1e-6) * math.exp(rng.uniform(lo, hi))
            elif mode == 1:
                d *= np.exp(rng.uniform(lo, hi, size=instance.m))
            else:
                pos = np.nonzero(d > 0)[0]
                if pos.size > 1:
                    keep = rng.integers(0, 2, size=pos.size).astype(bool)
                    keep[rng.integers(0, pos.size)] = True
                    mask = np.zeros(instance.m, dtype=bool)
                    mask[pos[keep]] = True
                    d = np.where(mask, d, 0.0)
            devs.append(d)
        # each distinct profile is solved once per call, the agent's new
        # ones in one batch; the base outcome is not reused, since it may
        # have been selected by init_spending
        keys, batch = [], {}
        for d in devs[:trials]:
            profile = base_reports.copy()
            profile[i] = d
            key = profile.tobytes()
            keys.append(key)
            if key in solved or key in batch:
                continue
            if np.isfinite(profile).all():
                batch[key] = profile
            else:  # a rescaling overflowed
                solved[key] = None
        try:
            outs = _fisher_outcomes(instance, list(batch.values()), tol)
        except (ValueError, FloatingPointError):
            outs = [None] * len(batch)
        for key, out in zip(batch, outs):
            solved[key] = out if out is not None and out.equilibrium.converged else None
        best = 0.0
        for key in keys:
            if solved[key] is None:
                failures += 1
                continue
            best = max(best, float(solved[key].true_utilities[i] - base.true_utilities[i]))
        gains[i] = best
    return FalsifierReport(_readonly(gains), float(gains.max()), trials, failures)
