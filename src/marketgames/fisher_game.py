"""The Fisher market mechanism played as a game.

Agents submit valuation reports; the mechanism computes the market
equilibrium of the reported market and agents experience the resulting
allocation through their true valuations.  Includes the uniform-report
Leontief equilibrium, the linear lower-bound construction, and a
sampling-based equilibrium falsifier (evidence, not proof).

Reports are checked where they enter by ``core._checked_array``, the one
boundary check of every market-shaped array.  The reported markets are
then solved straight from the report arrays, without an ``Instance`` or a
result object per market, through ``eq_solvers._solve_profiles``, the
array entry ``solve_eg_many`` wraps: ``fisher_outcome`` solves its one
market as a stack of one, and ``fisher_ne_falsify`` its distinct deviation
markets one stack per call, in the stacks ``eq_solvers._stacks`` forms, so
that no array holds every market's profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (LEONTIEF, LINEAR, DEFAULT_TOL, Instance, make_instance, nsw,
                   _checked_array, _readonly)
from .eq_solvers import (MarketEquilibrium, _checked_init_bids, _member, _solve_profiles,
                         _stacks)


@dataclass(frozen=True)
class GameOutcome:
    """Mechanism outcome: reported-market equilibrium plus true utilities."""

    equilibrium: MarketEquilibrium
    true_utilities: np.ndarray
    nsw: float
    flagged_agents: tuple[int, ...] = ()


@dataclass(frozen=True)
class FalsifierReport:
    """Best unilateral report-deviation gains found by sampling;
    ``markets`` counts the distinct deviation markets solved, the base
    outcome not among them."""

    gains: np.ndarray
    max_gain: float
    trials_per_agent: int
    failures: int
    markets: int


def fisher_outcome(instance: Instance, reports, tol: float = DEFAULT_TOL,
                   init_spending=None) -> GameOutcome:
    """Run the mechanism: solve the reported market, evaluate true utilities.

    Goods nobody reports a value for are removed before solving (their price
    is zero and they stay unallocated); agents whose whole report is zero
    receive nothing and are flagged.  The reported market is solved within
    the default Newton-step cap; ``init_spending`` is its ``init_bids``,
    which selects among tied linear equilibria: it must be n x m, and a
    linear market checks its rows for the live agents as ``init_bids``.
    Reports that are negative or not finite raise ValueError.  The market
    is solved from the report array as a stack of one.

    The tie rule is part of the mechanism: a linear reported market can
    have many equilibrium allocations at its unique prices, and the
    outcome's spending is the least-squares projection of ``init_spending``
    (or else of the solver's interior iterate) onto the spendings on the
    ties, with any tie it would spend below zero fixed at zero and the rest
    projected again (see ``solve_linear_eg``).  No order of agents or goods
    enters the rule.
    """
    r = _checked_array("reports", reports, (instance.n, instance.m))
    live = (r > 0).any(axis=1)
    inits = None
    if init_spending is not None:
        init = np.asarray(init_spending, float)
        if init.shape != (instance.n, instance.m):
            raise ValueError("init_spending must be an n x m matrix")
        if instance.kind == LINEAR:
            _checked_init_bids(init[live], (int(live.sum()), instance.m))
        inits = [init]
    solved = _solve_profiles(instance.kind, r[None], instance.budgets, live[None], tol,
                             inits=inits, rho=instance.valuations.rho)
    eq = _member(solved, 0, r)
    true_u = instance.utilities(eq.allocation)
    return GameOutcome(eq, _readonly(true_u), nsw(true_u, instance.budgets),
                       tuple(int(i) for i in np.nonzero(~live)[0]))


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


def _deviations(instance: Instance, base_reports, trials: int, seed: int):
    """Each agent's ``trials`` deviation reports, drawn agent by agent (see
    ``fisher_ne_falsify``); a rescaling may overflow to infinity."""
    rng = np.random.default_rng(seed)
    lo, hi = math.log(1e-3), math.log(1e3)
    out = []
    for i in range(instance.n):
        with np.errstate(over="ignore"):  # an overflowed rescaling is a failure
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
        out.append(devs[:trials])
    return out


def _row_scaled(reports) -> np.ndarray:
    """Each row of a report profile divided by its max; a zero row stays."""
    top = reports.max(axis=-1, keepdims=True)
    return np.divide(reports, top, out=np.zeros_like(reports), where=top > 0)


def _markets(instance: Instance, base_reports, trials: int, seed: int):
    """The distinct deviation markets of ``fisher_ne_falsify``: the n x
    trials index of each deviation's market (-1 where the rescaling
    overflowed), each market's deviating agent and row, in the order first
    drawn, and the index of the base profile's market (-1 if none)."""
    n, m = instance.n, instance.m
    devs = np.array(_deviations(instance, base_reports, trials, seed)).reshape(n * trials, m)
    finite = np.isfinite(devs).all(axis=1).tolist()
    # a key is the bytes of a row divided by its max; an overflowed row's
    # is NaN, and unread
    with np.errstate(invalid="ignore"):
        keys = _row_scaled(devs).tobytes()
    base_keys, width = _row_scaled(base_reports).tobytes(), devs.itemsize * m
    solved, batch = np.empty(n * trials, dtype=int), {}
    for k in range(n * trials):
        if not finite[k]:
            solved[k] = -1
            continue
        i = k // trials
        key = keys[k * width:(k + 1) * width]
        key = None if key == base_keys[i * width:(i + 1) * width] else (i, key)
        solved[k] = batch.setdefault(key, (len(batch), i, k))[0]
    _, agents, drawn = zip(*batch.values())
    return (solved.reshape(n, trials), np.array(agents), devs[list(drawn)],
            batch[None][0] if None in batch else -1)


def fisher_ne_falsify(instance: Instance, reports, trials: int = 100,
                      seed: int = 0, tol: float = DEFAULT_TOL,
                      init_spending=None) -> FalsifierReport:
    """Search for profitable unilateral report deviations by sampling.

    Per agent, ``trials`` (at least 1) deviations are tried: the truthful
    report, a deterministic grid of single-coordinate rescalings (the
    spend-shift deviations of the lower-bound analysis expressed in report
    space), and seeded random deviations (log-uniform coordinate rescalings
    in [1e-3, 1e3] and sparsified reports), drawn agent by agent.  A max
    gain at or below tolerance is evidence of equilibrium, not proof.
    Scaling one agent's whole report by c > 0 shifts the Eisenberg-Gale
    objective by B_i log c and leaves its allocations alone, so a deviation
    is keyed by its agent and its row divided by the row's max, and only
    that row is kept; a row that rescales the agent's base report keys the
    base profile, whichever agent draws it (every structured rescaling by
    an agent with one positive report is the profile it already plays).
    Each key's first deviation, as drawn, is solved for all of them; its
    market is built from the base profile and the deviating row.  The
    markets are solved a stack at a time, in the stacks one
    ``_solve_profiles`` call of them all would form, and each stack is
    reduced at once to its converged flags and the true utilities the gains
    read: past one stack, memory grows with the ``markets`` deviating rows,
    not with an n x m profile per market.  The base outcome is its own
    ``fisher_outcome`` solve.  A deviation whose solve did not converge, or
    raised (then every deviation), or whose rescaled report overflowed, is
    counted in ``failures`` and its gain left out.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    base_reports = _checked_array("reports", reports, (instance.n, instance.m))
    base = fisher_outcome(instance, reports, tol, init_spending=init_spending)
    solved, agents, rows, shared_at = _markets(instance, base_reports, trials, seed)
    P = len(agents)
    # each market's live agents and demanded goods, in one pass over the
    # deviating rows: the base profile's, with its agent's row swapped in
    positive = base_reports > 0
    live = np.repeat(positive.any(axis=1)[None], P, axis=0)
    live[np.arange(P), agents] = (rows > 0).any(axis=1)
    demanded = (positive.sum(axis=0) > positive[agents]) | (rows > 0)
    # per market, whether it converged and its agent's true utility; the
    # base profile's market keeps every agent's (the base outcome is not
    # reused, since init_spending may have selected it); index -1, an
    # overflow, reads False
    converged, own, shared = np.zeros(P + 1, bool), np.zeros(P + 1), None
    try:
        for chunk, _ in _stacks(live, demanded):
            profiles = np.repeat(base_reports[None], chunk.size, axis=0)
            profiles[np.arange(chunk.size), agents[chunk]] = rows[chunk]
            out = _solve_profiles(instance.kind, profiles, instance.budgets, live[chunk], tol,
                                  rho=instance.valuations.rho)
            true_u = instance.utilities(out.allocations)
            converged[chunk] = out.converged
            own[chunk] = true_u[np.arange(chunk.size), agents[chunk]]
            if shared_at in chunk:
                shared = true_u[chunk == shared_at][0]
    except (ValueError, FloatingPointError):
        converged[:] = False
    ok, u = converged[solved], own[solved]
    if shared is not None:
        u = np.where(solved == shared_at, shared[:, None], u)
    gain = u - base.true_utilities[:, None]
    # fmax skips a NaN gain, and a gain that is not positive counts as 0
    gains = np.fmax.reduce(np.where(ok, gain, 0.0), axis=1)
    gains = np.where(gains > 0, gains, 0.0)
    return FalsifierReport(_readonly(gains), float(gains.max()), trials, int((~ok).sum()), P)
