"""The Trading Post game and its entrance-fee variant.

Agents split budgets as monetary bids over goods; each good is divided in
proportion to the bids on it, and bids below the entrance fee delta are
voided.  This module holds the allocation rule, analytic and numeric
best-response oracles, a brute-force grid oracle, round-robin best-response
dynamics, Nash-equilibrium verification, and the bid-profile <-> market
outcome mapping.

The analytic best responses run on Python floats, since an agent's row in
the dynamics holds a handful of goods.  One dispatcher, _best_response,
takes checked rows as float and index lists.  Each oracle builds its row
through one fee-claim path, _fee_config: monopolized goods claimed at the
fee, the rest spent by the oracle's own fill, the bids settled once
(_settle) to sum to the budget within one ulp, none positive below delta.
One fee check, _check_fees, guards br_linear, br_leontief, br_ces,
br_dynamics and verify_tp_ne.  br_dynamics checks its instance once, keeps
its rounds in float lists and warm-starts each Leontief and CES answer from
the agent's previous one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .core import (CES, LEONTIEF, LINEAR, DEFAULT_TOL, Instance,
                   ValuationProfile, eval_valuation_matrix, _readonly)

#: Consecutive strict decreases below the per-agent floor that mark a bid as
#: collapsing toward the boundary (no-equilibrium escape) in br_dynamics.
COLLAPSE_STREAK = 8
COLLAPSE_FLOOR_FRACTION = 1e-7


@dataclass(frozen=True)
class BRResult:
    """A best response: bids summing to the budget and the utility achieved."""

    bids: np.ndarray
    utility: float
    iterations: int
    converged: bool = True


@dataclass(frozen=True)
class NEReport:
    """Equilibrium certificate: per-agent best-response gains at fixed opponents."""

    bids: np.ndarray
    gains: np.ndarray
    max_gain: float
    converged: bool
    prices: np.ndarray
    allocation: np.ndarray
    utilities: np.ndarray
    rounds: int = 0
    max_change: float = 0.0
    note: str = ""


def delta_for_eps(eps: float, m: int) -> float:
    """An entrance fee guaranteeing price of anarchy at most 1 + eps.

    The statements of the fee/accuracy relation disagree between eps/m^2 and
    eps^2/m; this takes the conservative minimum of both (and 1/m), halved
    to stay strictly inside.  The achieved eps should still be certified
    empirically with verify_eps_market_eq.
    """
    if not 0 < eps:
        raise ValueError("eps must be positive")
    if m < 1:
        raise ValueError("need at least one good")
    return 0.5 * min(eps / m ** 2, eps ** 2 / m, 1.0 / m)


def effective_bids(bids, delta: float = 0.0) -> np.ndarray:
    """The entrance-fee rule: bids below delta are voided (a fresh array)."""
    b = np.asarray(bids, dtype=float)
    return np.where(b >= delta, b, 0.0) if delta > 0 else b.copy()


def ne_to_market(bids, delta: float = 0.0):
    """Map a bid profile to (prices, allocation): prices are the per-good
    sums of effective bids, the allocation is the proportional split.

    Goods with zero total effective bid stay unallocated (all-zero column).
    """
    b = np.asarray(bids, dtype=float)
    if (b < 0).any():
        raise ValueError("bids must be non-negative")
    if not 0.0 <= delta < math.inf:
        raise ValueError("delta must be finite and non-negative")
    eff = effective_bids(b, delta)
    prices = eff.sum(axis=0)
    x = np.zeros_like(eff)
    live = prices > 0
    x[:, live] = eff[:, live] / prices[live]
    return prices, x


def tp_allocate(bids, delta: float = 0.0) -> np.ndarray:
    """Proportional allocation of each good after voiding bids below delta."""
    return ne_to_market(bids, delta)[1]


def check_bid_profile(bids, budgets) -> np.ndarray:
    """Validate a bid profile: finite, non-negative, and row sums equal to
    the budgets within 1e-6 relative to the largest budget (at least 1)."""
    b = np.asarray(bids, dtype=float)
    budgets = np.asarray(budgets, dtype=float)
    if b.ndim != 2 or b.shape[0] != budgets.size:
        raise ValueError("bid matrix must have one row per agent")
    if not ((b >= 0) & np.isfinite(b)).all():
        raise ValueError("bids must be finite and non-negative")
    err = np.abs(b.sum(axis=1) - budgets).max()
    if err > 1e-6 * max(1.0, float(budgets.max())):
        raise ValueError(f"bid rows must sum to budgets (max deviation {err:.3g})")
    return b


def _fractions(bids_row, opp):
    """Fraction of each good won by bidding bids_row against opponent totals."""
    f = np.zeros_like(bids_row)
    pos = bids_row > 0
    f[pos] = bids_row[pos] / (bids_row[pos] + opp[pos])
    return f


def _check_fees(budgets, counts, delta):
    """The entrance-fee check of every entry point: delta is finite and
    non-negative, and each budget covers delta on each of its ``counts``
    demanded goods (scalars, or arrays with one entry per agent)."""
    if not 0.0 <= delta < math.inf:
        raise ValueError("delta must be finite and non-negative")
    if delta > 0 and (np.asarray(budgets) < delta * np.asarray(counts, dtype=float)).any():
        raise ValueError("infeasible floors: budget below delta times demanded goods")


def _br_inputs(values, budget, opp_spend, delta):
    """Input checks of the public best-response oracles.  Values and opposing
    spends must be finite and non-negative, the budget positive and finite,
    and the fee pass _check_fees.  Returns the values as a list of floats,
    the demanded goods as an ascending index list, and the opposing spend as
    a list of floats, as _best_response takes them."""
    v = np.asarray(values, dtype=float)
    d = np.asarray(opp_spend, dtype=float)
    if v.ndim != 1 or v.shape != d.shape:
        raise ValueError("values and opp_spend must be rows of the same length")
    v, d = v.tolist(), d.tolist()
    for name, row in (("values", v), ("opp_spend", d)):
        if not all([0.0 <= x < math.inf for x in row]):
            raise ValueError(f"{name} must be finite and non-negative")
    if not 0.0 < budget < math.inf:
        raise ValueError("budget must be positive and finite")
    demanded = [j for j, vj in enumerate(v) if vj > 0]
    if not demanded:
        raise ValueError("agent demands no goods")
    _check_fees(budget, len(demanded), delta)
    return v, demanded, d


def _best_response(kind, rho, v, demanded, budget, d, delta, start=None):
    """The best response on checked rows (lists of the agent's values ``v``
    and opposing spends ``d``, its ascending ``demanded`` goods, a budget
    that covers their fees) as (bids list, utility, iterations, converged).
    ``start``, the agent's previous answer in the dynamics, warm-starts the
    Leontief ratio (its utility) or the CES Newton steps (its bids).  At
    delta = 0 a demanded good without opposing spend raises ValueError."""
    monop = [j for j in demanded if d[j] == 0]
    comp = [j for j in demanded if d[j] > 0]
    if delta == 0 and monop:
        raise ValueError("supremum not attained: demanded good has no opposing spend")
    if kind == LEONTIEF:
        return _leontief_response(v, d, monop, comp, budget, delta, start)
    if kind == LINEAR or rho == 1.0:
        return _linear_response(v, d, demanded, monop, comp, budget, delta)
    return _ces_response(v, d, demanded, monop, comp, budget, delta, rho, start)


def _checked_response(kind, rho, values, budget, opp_spend, delta) -> BRResult:
    v, demanded, d = _br_inputs(values, budget, opp_spend, delta)
    bids, *answer = _best_response(kind, rho, v, demanded, budget, d, delta)
    return BRResult(_readonly(bids), *answer)


def _settle(bids, total, floor):
    """Make the float row ``bids``, its positive bids at least the fee
    ``floor``, sum to ``total`` within one ulp: the largest bid takes what
    the exactly rounded math.fsum finds missing.  It falls below the fee only
    if the fees take all of total up to rounding; then every positive bid is
    held at the fee, the largest taking the rest (_br_inputs keeps it >= 0)."""
    top = bids.index(max(bids))
    bids[top] += total - math.fsum(bids)
    if bids[top] < floor:
        bids = [floor if bj > 0.0 else 0.0 for bj in bids]
        bids[top] += total - math.fsum(bids)
    return bids


# ---------------------------------------------------------------------------
# Linear best response (water-filling by one sort)


def _waterfill(values, opp, budget, floor):
    """Exhaust budget over a fixed support: b_j = max(floor, sqrt(v_j D_j/lam) - D_j).

    With s_j = sqrt(v_j) sqrt(D_j) (two roots, so v_j D_j cannot underflow)
    and r = sqrt(lam), good j sits above the floor iff r < s_j / (D_j +
    floor), so the goods above the floor are a prefix in that order.  Each
    prefix fixes r by budget exhaustion through running sums; every prefix's
    r is at most the true one (the floors only add spending) and the true
    active prefix attains it, so r is their maximum.  Takes and returns lists
    of floats, the bids exhausting budget up to rounding (_fee_config settles
    the row).  Requires floor * len(values) <= budget and opp > 0 everywhere.
    """
    n = len(values)
    s = [math.sqrt(vj) * math.sqrt(dj) for vj, dj in zip(values, opp)]
    key = [-sj / (dj + floor) for sj, dj in zip(s, opp)]
    root = s_sum = d_sum = 0.0
    for k, j in enumerate(sorted(range(n), key=key.__getitem__), 1):
        s_sum += s[j]
        d_sum += opp[j]
        r = s_sum / (budget - floor * (n - k) + d_sum)
        if r > root:
            root = r
    bids = [sj / root - dj for sj, dj in zip(s, opp)]
    return [bj if bj >= floor else floor for bj in bids]


def br_linear(values, budget: float, opp_spend, delta: float = 0.0) -> BRResult:
    """Unique best response of a linear bidder via water-filling.

    The payoff sum_j v_j b_j/(b_j + D_j) is strictly concave when every
    demanded good carries opposing spend, and the KKT point is
    b_j = max(0, sqrt(v_j D_j / lam) - D_j) with lam fixed by budget
    exhaustion.  For delta > 0, monopolized goods are claimed at the floor,
    floors are enforced on the active set, and a deterministic toggle search
    refines which goods are worth the entrance fee; a budget below delta
    times the demanded goods raises ValueError, as in every oracle.  With
    delta = 0 a demanded good without opposing spend has no attainable
    optimum.
    ``iterations`` counts the water-fill solves (1 at delta = 0).
    """
    return _checked_response(LINEAR, None, values, budget, opp_spend, delta)


def _linear_response(v, d, demanded, monop, comp, budget, delta):
    iters = 0

    def fill(goods, rest, floor=delta):
        nonlocal iters
        iters += 1
        return _waterfill([v[j] for j in goods], [d[j] for j in goods], rest, floor)

    def payoff(bids):
        # positive bids lie on demanded goods only
        return sum([v[j] * (bids[j] / (bids[j] + d[j])) for j in demanded if bids[j] > 0])

    if delta == 0:
        bids = _fee_config(budget, 0.0, len(v), [], comp, fill)
        return bids, payoff(bids), iters, True

    support = comp
    if comp:
        wb = fill(comp, max(budget - delta * float(len(monop)), budget * 1e-12), 0.0)
        support = [j for j, bj in zip(comp, wb) if bj > delta * 0.5]
    bids, utility = _fee_search(budget, delta, len(v), monop, comp, support, fill, payoff)
    return bids, utility, iters, True


# ---------------------------------------------------------------------------
# Entrance-fee claims (every best response) and support search (linear, CES)


def _fee_config(budget, delta, m, claims, support, fill):
    """A row of m bids that claims the goods in ``claims`` at the fee and
    spends the rest on ``support`` through ``fill(goods, rest)`` (the claims
    share it when the support is empty), settled to the budget; None when
    the fees are unaffordable.  Both are ascending index lists."""
    k_floors = float(len(claims) + len(support))
    if not k_floors or delta * k_floors > budget:
        return None
    bids = [0.0] * m
    for j in claims:
        bids[j] = delta
    rest = budget - delta * float(len(claims))
    if support:
        for j, bj in zip(support, fill(support, rest)):
            bids[j] = bj
    else:
        share = rest / float(len(claims))
        for j in claims:
            bids[j] += share
    return _settle(bids, budget, delta)


def _toggled(goods, j):
    """The ascending index list ``goods`` with good j added or removed."""
    return [k for k in goods if k != j] if j in goods else sorted(goods + [j])


def _fee_search(budget, delta, m, monop, comp, support, fill, payoff):
    """Which goods are worth the entrance fee delta > 0, by a deterministic
    toggle search.

    Monopolized goods are claimed at the fee and the contested goods in
    ``support`` are bought through ``fill``; single-good toggles of both sets,
    in ascending order of the goods, are kept while ``payoff(bids)``
    improves.  The budget covers the fee on every demanded good
    (``_br_inputs``), so the start is affordable.  Returns (bids, utility).
    """
    def config(claims, support):
        bids = _fee_config(budget, delta, m, claims, support, fill)
        return None if bids is None else (bids, payoff(bids))

    demanded = sorted(monop + comp)
    claims, best = monop, config(monop, support)
    for _ in range(2 * m + 2):
        improved = False
        for j in demanded:
            cl, su = claims, support
            if j in monop:
                cl = _toggled(claims, j)
            else:
                su = _toggled(support, j)
            cand = config(cl, su)
            if cand is not None and cand[1] > best[1] + 1e-15:
                claims, support, best = cl, su, cand
                improved = True
        if not improved:
            break
    return best


# ---------------------------------------------------------------------------
# Leontief best response (safeguarded Newton for the common consumption ratio)


def br_leontief(values, budget: float, opp_spend, delta: float = 0.0) -> BRResult:
    """Unique best response of a Leontief bidder.

    Non-floored demanded goods are bought at a common consumption ratio
    t = fraction_j / v_j.  The contested goods' spending
    sum_j max(delta, t v_j D_j / (1 - t v_j)) is convex and increasing on
    [0, min 1/v_j), and t is its root at R, the budget left after the fees
    of the monopolized goods.  Newton's method on log(spending / R), which
    tames the pole at t = 1/v_j, finds it from t = R / (sum_j v_j D_j +
    R max_j v_j), the root when every v_j is equal and no floor binds; a
    step that leaves the bracket of the root bisects it instead.  It stops
    when the log is at most 4e-16, when a step no longer moves t, or when
    the bracket is a few ulps wide.  ``iterations`` counts the spending
    evaluations (3 to 6 on most rows), and ``converged`` is False only if
    100 of them did not stop.  Monopolized goods are claimed at the fee, or
    share the budget when no good is contested.  Goods the agent does not
    demand get bid zero, never the floor.
    """
    return _checked_response(LEONTIEF, None, values, budget, opp_spend, delta)


def _leontief_response(v, d, monop, comp, budget, delta, start):
    iters, converged = 0, True

    def fill(goods, rest):
        """The contested goods' bids at the common ratio that spends rest."""
        nonlocal iters, converged
        vc, dc = [v[j] for j in goods], [d[j] for j in goods]
        # the goods stay at the fee when the fees exhaust the budget
        cb = [delta] * len(vc)
        if delta * len(vc) < rest:
            lo, hi = 0.0, min(1.0 / vj for vj in vc) * (1.0 - 1e-14)
            t = min(start if start else
                    rest / (sum(vj * dj for vj, dj in zip(vc, dc)) + rest * max(vc)), hi)
            converged = False
            for iters in range(1, 101):
                # the bids at ratio t and the slope of their sum
                cb, slope = [], 0.0
                for vj, dj in zip(vc, dc):
                    room = 1.0 - t * vj
                    bj = t * vj * dj / room
                    if bj > delta:
                        slope += vj * dj / (room * room)
                    cb.append(max(bj, delta))
                spend = sum(cb)
                gap = math.log(spend / rest)
                if gap < 0:
                    lo = t
                else:
                    hi = t
                step = t - gap * spend / slope if slope > 0 else hi
                if abs(gap) <= 4e-16 or step == t or hi - lo <= 4.0 * math.ulp(hi):
                    converged = True
                    break
                t = step if lo < step < hi else 0.5 * (lo + hi)
        return cb

    # a monopolized good is won whole at any bid, so it is claimed at the fee
    bids = _fee_config(budget, delta, len(v), monop, comp, fill)
    # and its ratio is 1 / v_j
    utility = min([bids[j] / (bids[j] + d[j]) / v[j] for j in comp]
                  + [1.0 / v[j] for j in monop])
    return bids, utility, iters, converged


# ---------------------------------------------------------------------------
# CES best response (damped equality-constrained Newton)

#: Newton steps allowed per support solve of br_ces.
CES_MAX_STEPS = 100


def _ces_newton(v, d, rho, total, start):
    """Maximize sum_j v_j f_j^rho / rho, f_j = b_j / (b_j + d_j), over
    {b > 0, sum b = total}; requires v > 0 and d > 0.

    The objective is separable and strictly concave for rho < 1, and every
    marginal is unbounded at b_j = 0, so the optimum is interior.  Each step
    solves the KKT system of the quadratic model: with the diagonal Hessian
    -g_j/r_j the step is r_j (1 - lam/g_j), where lam = sum r / sum(r/g)
    keeps the budget.  The step is cut to stay inside the positive orthant
    and backtracked to the Armijo condition.  Everything is relative to
    S = sum_j v_j f_j^rho and computed in logs: the marginals g from each
    good's share of S, and a step's gain from the exact change of log f_j,
    so neither extreme rho nor d overflows and tiny gains are not rounded
    away.  The start b_j ~ (v_j d_j^-rho)^(1/(1-rho)) is the optimum when
    every f_j is small, and exact at rho = -1; elsewhere a ``start`` row of
    bids, if any is positive, replaces it, floored like it.  Takes v and d as lists of
    floats and returns (bids as a list, steps, converged), the bids summing
    to total up to rounding; it stops when no bid moves by more than 1e-9 of
    itself.  The marginals stay clipped to e^(+-700), and a trial step whose
    gain overflows is rejected like any step without enough ascent.
    """
    if len(v) == 1:
        return [total], 0, True
    log_v = [math.log(vj) for vj in v]
    log_d = [math.log(dj) for dj in d]
    if start is None or rho == -1.0 or not max(start) > 0.0:
        w = [(lv - rho * ld) / (1.0 - rho) for lv, ld in zip(log_v, log_d)]
        # a step grows a small bid by a bounded factor but may shrink it
        # 100-fold, so no bid starts far below the largest
        w_max = max(w)
        b = [math.exp(max(wj - w_max, -30.0)) for wj in w]
    else:
        floor = max(start) * math.exp(-30.0)
        b = [max(bj, floor) for bj in start]
    scale = total / sum(b)
    b = [bj * scale for bj in b]

    def log_marginals(b):
        log_f = [-math.log1p(dj / bj) for dj, bj in zip(d, b)]
        terms = [lv + rho * lf for lv, lf in zip(log_v, log_f)]
        peak = max(terms)
        log_sum = math.log(sum([math.exp(tj - peak) for tj in terms]))
        log_share = [tj - peak - log_sum for tj in terms]
        return log_share, [ls + ld + lf - 2.0 * math.log(bj)
                           for ls, ld, lf, bj in zip(log_share, log_d, log_f, b)]

    converged = False
    for step in range(1, CES_MAX_STEPS + 1):
        log_share, log_g = log_marginals(b)
        g = [math.exp(min(max(lg, -700.0), 700.0)) for lg in log_g]  # neither 0 nor inf
        r = [bj * (bj + dj) / ((1.0 - rho) * dj + 2.0 * bj) for bj, dj in zip(b, d)]
        lam = sum(r) / sum([rj / gj for rj, gj in zip(r, g)])
        dx = [rj * (1.0 - lam / gj) for rj, gj in zip(r, g)]
        if max([abs(xj / bj) for xj, bj in zip(dx, b)]) <= 1e-9:
            # quadratic convergence: this last step is at rounding level
            b = [bj + xj for bj, xj in zip(b, dx)]
            converged = True
            break
        decrease = sum([gj * xj for gj, xj in zip(g, dx)])
        cuts = [bj / -xj for bj, xj in zip(b, dx) if xj < 0]
        alpha = min(1.0, 0.99 * min(cuts)) if cuts else 1.0
        # below this gain the rounding of the budget, worth lam per unit,
        # hides any ascent, so the step is taken without the test
        if decrease > 1e-14 * lam * total:
            share = [math.exp(ls) for ls in log_share]
            for _ in range(60):
                try:
                    gain = sum([sj * math.expm1(rho * (math.log1p(alpha * xj / bj)
                                                       - math.log1p(alpha * xj / (bj + dj))))
                                for sj, xj, bj, dj in zip(share, dx, b, d)]) / rho
                except OverflowError:  # numpy gave inf here: the step is rejected
                    gain = -math.inf
                if gain >= 1e-4 * alpha * decrease:
                    break
                alpha *= 0.5
            else:
                break  # no ascent left to find
        b = [bj + alpha * xj for bj, xj in zip(b, dx)]
    return b, step, converged


def br_ces(values, budget: float, opp_spend, rho: float,
           delta: float = 0.0) -> BRResult:
    """Unique best response of a CES bidder, u = (sum_j v_j f_j^rho)^(1/rho).

    Maximizes sign(rho) sum_j v_j f_j^rho over the budget simplex by damped
    Newton (_ces_newton).  Every demanded contested good gets a positive bid,
    since its marginal is unbounded at zero.  For delta > 0 monopolized goods
    are claimed at the fee, and goods whose optimum on the remaining budget
    falls below the fee are held at it, pass by pass, until every other good
    clears it.  Only for 0 < rho < 1, where losing a good zeroes its term
    rather than the utility, may goods be dropped; which ones is settled by
    the toggle search br_linear uses.  rho = 1 is linear and returns
    br_linear's answer.  ``iterations`` counts Newton steps, and
    ``converged`` is False if a solve hit its step cap or found no ascent.
    The utility is evaluated in logs with core's CES conventions: a zero
    amount of a demanded good at rho < 0 gives utility 0.
    """
    if not (rho <= 1.0 and rho != 0.0):
        raise ValueError("rho must be nonzero and at most 1")
    return _checked_response(CES, rho, values, budget, opp_spend, delta)


def _ces_response(v, d, demanded, monop, comp, budget, delta, rho, start):
    log_v = {j: math.log(v[j]) for j in demanded}
    steps, converged = 0, True

    def fill(goods, rest):
        nonlocal steps, converged
        free = goods
        while free:
            # the goods floored so far stay floored at the optimum: freeing
            # budget from them only raises the common marginal
            b, k, ok = _ces_newton([v[j] for j in free], [d[j] for j in free], rho,
                                   rest - delta * float(len(goods) - len(free)),
                                   None if start is None else [start[j] for j in free])
            steps += k
            converged &= ok
            kept = [j for j, bj in zip(free, b) if bj >= delta]
            if len(kept) == len(free):
                break
            # rest covers every fee: if no bid clears it, rounding is why
            free = kept
        won = dict(zip(free, b))
        return [won.get(j, delta) for j in goods]

    def payoff(bids):
        terms = []
        for j in demanded:
            f = bids[j] / (bids[j] + d[j]) if bids[j] > 0 else 0.0
            if f > 0:
                terms.append(log_v[j] + rho * math.log(f))
            elif rho < 0:
                return 0.0
        if not terms:
            return 0.0
        peak = max(terms)
        log_sum = peak + math.log(math.fsum([math.exp(t - peak) for t in terms]))
        try:
            return math.exp(log_sum / rho)
        except OverflowError:  # core's _ces_eval gives inf here
            return math.inf

    if delta > 0 and rho > 0:
        bids, utility = _fee_search(budget, delta, len(v), monop, comp, comp, fill, payoff)
    else:
        bids = _fee_config(budget, delta, len(v), monop, comp, fill)
        utility = payoff(bids)
    return bids, utility, steps, converged


# ---------------------------------------------------------------------------
# Numeric best response for any concave kind


def _leveling_leontief(v, budget, d, lb, tol, init, max_iter):
    """Max-min leveling for the Leontief payoff: repeatedly move mass from
    the richest transferable good onto the good pinning the minimum
    consumption ratio, equalizing the pair by scalar bisection.  Kept
    independent of br_leontief's root for the common ratio so the two can
    cross-validate."""
    demanded = v > 0
    surplus = budget - lb.sum()
    if init is None:
        b = lb.copy()
        b[demanded] += surplus / demanded.sum()
    else:
        w = np.where(demanded, np.maximum(np.asarray(init, dtype=float) - lb, 0.0), 0.0)
        b = lb.copy()
        if w.sum() > 0:
            b += w * (surplus / w.sum())
        else:
            b[demanded] += surplus / demanded.sum()

    def ratio(j, bj):
        f = 1.0 if d[j] <= 0 else (bj / (bj + d[j]) if bj > 0 else 0.0)
        return f / v[j]

    idx = np.nonzero(demanded)[0]
    steps = 0
    for steps in range(1, max_iter + 1):
        r = np.array([ratio(j, b[j]) for j in idx])
        kmin = int(np.argmin(r))
        jmin = int(idx[kmin])
        if d[jmin] <= 0:
            break
        movable = [(r[k], int(idx[k])) for k in range(len(idx))
                   if idx[k] != jmin and b[idx[k]] > lb[idx[k]] + 1e-300
                   and r[k] > r[kmin] + tol * (1.0 + r[kmin])]
        if not movable:
            break
        _, jdon = max(movable)
        dmax = b[jdon] - lb[jdon]

        def gap(t):
            return ratio(jmin, b[jmin] + t) - ratio(jdon, b[jdon] - t)

        if gap(dmax) <= 0:
            t_star = dmax
        else:
            lo, hi = 0.0, dmax
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if gap(mid) < 0:
                    lo = mid
                else:
                    hi = mid
            t_star = 0.5 * (lo + hi)
        b[jmin] += t_star
        b[jdon] -= t_star
    util = min(ratio(j, b[j]) for j in idx)
    return b, util, steps


def project_simplex(y: np.ndarray, total: float) -> np.ndarray:
    """Project y onto {x >= 0, sum(x) = total} (total >= 0)."""
    if total <= 0.0:
        return np.zeros_like(y)
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - total
    idx = np.arange(1, y.size + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(y - theta, 0.0)


def project_simplex_lb(y: np.ndarray, total: float, lb: np.ndarray) -> np.ndarray:
    """Project y onto {x >= lb, sum(x) = total}; requires sum(lb) <= total."""
    slack = total - float(lb.sum())
    if slack < 0:
        raise ValueError("lower bounds exceed the simplex total")
    return lb + project_simplex(y - lb, slack)


def br_concave_numeric(profile: ValuationProfile, agent: int, budget: float,
                       opp_spend, delta: float = 0.0, tol: float = 1e-8,
                       init=None, max_iter: int = 50000) -> BRResult:
    """Numeric best response over the (floored) budget simplex.

    Linear and CES payoffs are smooth in own bids and solved by projected
    gradient ascent with backtracking; the Leontief min is handled by the
    leveling scheme.  Stops on an init-independent criterion (the unit-step
    gradient mapping), so independent restarts land on the same bids.  With
    an entrance fee delta > 0 a linear or CES (rho > 0) bidder may drop a
    good rather than pay its fee, so every nonempty support of the demanded
    goods is solved (init starts the full one) and the best kept: exact, but
    2^k solves for k demanded goods, so k > 10 raises ValueError.  A
    reference for the tests, sharing no search with br_linear, br_leontief
    and br_ces, which the dynamics and the verifier use.
    """
    _, wanted, spend = _br_inputs(profile.matrix[agent], budget, opp_spend, delta)
    if delta == 0 and any([spend[j] == 0 for j in wanted]):
        raise ValueError("supremum not attained: demanded good has no opposing spend")
    v, d = profile.matrix[agent], np.asarray(opp_spend, dtype=float)
    demanded = v > 0
    lb = np.where(demanded, delta, 0.0)
    if profile.kind == LEONTIEF:
        cap = 400 * v.size
        bids, util, steps = _leveling_leontief(v, budget, d, lb, tol, init, cap)
        return BRResult(_readonly(bids), util, steps, steps < cap)

    rho = profile.rho
    # with an entrance fee, dropping a good entirely can beat paying its fee,
    # unless losing it zeroes the utility (CES with rho < 0)
    droppable = delta > 0 and (profile.kind == LINEAR or rho > 0)
    goods = np.nonzero(demanded)[0]
    if droppable and goods.size > 10:
        raise ValueError("fee supports are enumerated for at most 10 demanded goods")

    # for 0 < rho < 1 the marginal is unbounded at f = 0; it is taken at
    # this bid instead, so that the iterate can leave that face
    f_tiny = _fractions(np.full_like(d, 1e-12 * budget), d)

    def payoff_and_grad(b):
        """The utility and the gradient of its log, which does not scale
        with the utility, so neither does the stopping rule."""
        f = _fractions(effective_bids(b, delta), d)
        if profile.kind == LINEAR:
            util = float(v @ f)
            dudf = v / (util if util > 0 else 1.0)
        else:
            x = np.zeros_like(profile.matrix)
            x[agent] = f
            util = float(eval_valuation_matrix(profile, x)[agent])
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                # d log u / d f_j = v_j f_j^(rho-1) / sum_k v_k f_k^rho
                dudf = np.where(v > 0, v * np.where(f > 0, f, f_tiny) ** (rho - 1.0), 0.0)
                dudf /= np.where(v > 0, v * f ** rho, 0.0).sum()
            dudf = np.nan_to_num(np.clip(dudf, 0.0, 1e100), nan=0.0, posinf=1e100)
        with np.errstate(divide="ignore", invalid="ignore"):
            dfdb = np.where(demanded & (b + d > 0), d / (b + d) ** 2, 0.0)
        return util, dudf * dfdb

    # function-value comparisons cannot certify stationarity much below the
    # square root of machine precision; accept a stalled iterate at this level
    gtol = tol * max(1.0, budget)
    stall_tol = 1e-6 * max(1.0, budget)

    def solve_on_support(mask, start):
        floors = np.where(mask, delta, 0.0)

        def proj(b):
            out = np.zeros_like(b)
            out[mask] = project_simplex_lb(b[mask], budget, floors[mask])
            return out

        b = proj(np.where(mask, budget / mask.sum(), 0.0) if start is None
                 else np.asarray(start, dtype=float))
        util, grad = payoff_and_grad(b)
        eta = max(1.0, budget)
        it = 0
        stalled = 0
        converged = False
        for it in range(1, max_iter + 1):
            probe = float(np.abs(proj(b + grad) - b).max())
            if probe <= gtol:
                converged = True
                break
            moved = False
            for _ in range(60):
                cand = proj(b + eta * grad)
                uc, gc = payoff_and_grad(cand)
                if uc >= util * (1.0 + 1e-4 * float(grad @ (cand - b))):
                    step = float(np.abs(cand - b).max())
                    b, util, grad = cand, uc, gc
                    eta = min(eta * 1.4, 1e9)
                    moved = True
                    break
                eta *= 0.5
            stalled = stalled + 1 if (not moved
                                      or step <= 1e-14 * max(1.0, budget)) else 0
            if not moved or stalled >= 30:
                converged = probe <= max(gtol, stall_tol)
                break
        return b, util, it, converged

    best = solve_on_support(demanded, init)
    iters = best[2]
    if droppable:
        # every smaller support, each affordable (_br_inputs), by size
        for size in range(1, goods.size):
            for subset in combinations(goods, size):
                mask = np.zeros_like(demanded)
                mask[list(subset)] = True
                cand = solve_on_support(mask, None)
                iters += cand[2]
                if cand[1] > best[1] + 1e-12:
                    best = cand
    bids, util, _, converged = best
    return BRResult(_readonly(bids), util, iters, converged)


# ---------------------------------------------------------------------------
# Grid oracle


def br_grid_oracle(profile: ValuationProfile, agent: int, budget: float,
                   opp_spend, delta: float = 0.0,
                   grid_step: float = 1e-3) -> BRResult:
    """Exhaustive search over the budget simplex discretized at grid_step.

    Validation oracle only: combinatorial in the number of goods (m <= 4).
    Evaluates the true entrance-fee payoff, voided bids included.
    """
    v = profile.matrix[agent]
    d = np.asarray(opp_spend, dtype=float)
    m = d.size
    if m > 4:
        raise ValueError("grid oracle supports at most 4 goods")
    k = max(int(round(budget / grid_step)), 1)
    est = math.comb(k + m - 1, m - 1)
    if (k + 1) ** max(m - 1, 1) > 2.2e7:
        raise ValueError(f"grid too large: about {est:.3g} points at this step")

    if m == 1:
        counts = np.array([[k]])
    else:
        axes = np.meshgrid(*[np.arange(k + 1)] * (m - 1), indexing="ij")
        flat = np.stack([ax.ravel() for ax in axes], axis=1)
        flat = flat[flat.sum(axis=1) <= k]
        counts = np.concatenate([flat, (k - flat.sum(axis=1))[:, None]], axis=1)

    bids = counts * (budget / k)
    eff = effective_bids(bids, delta)
    denom = eff + d[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(eff > 0, eff / np.where(denom > 0, denom, 1.0), 0.0)
    own = ValuationProfile(profile.kind, v[None, :], profile.rho)
    utils = eval_valuation_matrix(own, f[:, None, :])[:, 0]
    best = int(np.argmax(utils))
    return BRResult(_readonly(bids[best]), float(utils[best]), len(bids))


# ---------------------------------------------------------------------------
# Dynamics and equilibrium verification


def _monopoly_supremum(instance: Instance, agent: int, opp):
    """The delta -> 0 supremum of a best response at delta = 0 when the agent
    alone demands some goods (no opposing spend).  A vanishing bid wins each
    of them whole, so the supremum is the utility of those goods plus the
    attained best response on the contested goods alone with the whole
    budget: linear utility adds over goods, Leontief takes their minimum and
    CES is monotone in the separable sum of v_j f_j^rho.  Returns that
    utility and whether the contested goods' best response converged."""
    v = instance.matrix[agent]
    monop = (v > 0) & (opp <= 0)
    fractions = monop.astype(float)
    comp = np.flatnonzero((v > 0) & ~monop).tolist()
    converged = True
    if comp:
        bids, _, _, converged = _best_response(
            instance.kind, instance.valuations.rho, v.tolist(), comp,
            float(instance.budgets[agent]), opp.tolist(), 0.0)
        fractions += _fractions(np.array(bids), opp)
    own = ValuationProfile(instance.kind, v[None, :], instance.valuations.rho)
    return float(eval_valuation_matrix(own, fractions[None, :])[0]), converged


def br_dynamics(instance: Instance, delta: float = 0.0, init=None,
                max_rounds: int = 1000, tol: float = 1e-9,
                trace=None) -> NEReport:
    """Round-robin best-response dynamics for the entrance-fee game.

    Agents update in index order, each replacing its bids by a best response
    to the current profile.  Only the starting profile has its bids below
    delta voided: every best response bids zero or at least delta, so its
    row enters the profile as returned.  Convergence means the largest bid
    change over a full round fell below tol while no demanded bid is
    collapsing geometrically toward zero (the signature of the
    no-equilibrium boundary escape); converged profiles are certified with
    verify_tp_ne.
    Non-convergence, including best-response breakdown when a bid hits zero
    at delta = 0 and a best response that did not converge, is a reported
    outcome, not an error.  ``trace``, if given, is called after every
    completed round as ``trace(round, max_change, bids)`` with a read-only
    copy of the bids.
    """
    n = instance.n
    support = instance.matrix > 0
    _check_fees(instance.budgets, support.sum(axis=1), delta)
    if delta == 0 and instance.kind == LINEAR and not instance.perfect_competition():
        raise ValueError("delta=0 linear dynamics require perfect competition")

    if init is None:
        b = instance.budgets[:, None] * support / support.sum(axis=1)[:, None]
    else:
        b = check_bid_profile(init, instance.budgets)
    kind, rho = instance.kind, instance.valuations.rho
    values, budgets = instance.matrix.tolist(), instance.budgets.tolist()
    demanded = [np.flatnonzero(row).tolist() for row in support]
    # rows are replaced, never written in place, so a shallow copy keeps a round
    rows, eff = b.tolist(), effective_bids(b, delta).tolist()
    streak, starts = [[0] * instance.m for _ in range(n)], [None] * n
    best_change = math.inf
    stall = 0
    note = ""
    max_change = math.inf
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        prev = rows.copy()
        for i in range(n):
            # the column totals, added row by row as numpy adds them
            total = eff[0]
            for row in eff[1:]:
                total = list(map(operator.add, total, row))
            opp = list(map(operator.sub, total, eff[i]))
            try:
                bids, utility, _, converged = _best_response(
                    kind, rho, values[i], demanded[i], budgets[i], opp, delta, starts[i])
            except ValueError as exc:
                note = f"best response broke down for agent {i}: {exc}"
                break
            if not converged:
                note = f"best response did not converge for agent {i}"
                break
            rows[i] = eff[i] = bids
            starts[i] = utility if kind == LEONTIEF else bids
        if note:
            break
        max_change = max([abs(x - y) for row, old in zip(rows, prev)
                          for x, y in zip(row, old)])
        # a best response bids on demanded goods only, so every strict
        # decrease of a positive bid is on one
        streak = [[k + 1 if 0.0 < x < y else 0 for k, x, y in zip(*row)]
                  for row in zip(streak, rows, prev)]
        if trace is not None:
            trace(rounds, max_change, _readonly(rows))
        if max_change < best_change:
            best_change = max_change
            stall = 0
        else:
            stall += 1
        if max_change < tol and not any(  # no bid is collapsing
                [k >= COLLAPSE_STREAK and x < COLLAPSE_FLOOR_FRACTION * bi
                 for s, row, bi in zip(streak, rows, budgets) for k, x in zip(s, row)]):
            # at tol = inf, converged means that every best response converged
            return replace(verify_tp_ne(instance, rows, delta, math.inf),
                           rounds=rounds, max_change=max_change)
        if stall >= 50:
            note = "oscillation detected: no new best profile in 50 rounds"
            break

    prices, allocation = ne_to_market(rows, delta)
    return NEReport(_readonly(rows), _readonly(np.full(n, np.nan)), math.nan, False,
                    _readonly(prices), _readonly(allocation),
                    _readonly(instance.utilities(allocation)), rounds, max_change,
                    note or "did not converge")


def verify_tp_ne(instance: Instance, bids, delta: float = 0.0,
                 tol: float = DEFAULT_TOL) -> NEReport:
    """Certify a bid profile: per-agent best-response utility gains.

    The profile is an eps-Nash equilibrium for eps equal to the reported
    max_gain; `converged` records whether max_gain <= tol and every best
    response converged (a note names the agents whose did not).  When
    delta = 0 and an agent monopolizes a demanded good, its best response is
    the unattained supremum, computed exactly by _monopoly_supremum, and
    noted.  With delta > 0 a budget below delta times the agent's demanded
    goods raises ValueError, as br_dynamics does.
    """
    b = check_bid_profile(bids, instance.budgets)
    demands = instance.matrix > 0
    _check_fees(instance.budgets, demands.sum(axis=1), delta)
    eff = effective_bids(b, delta)
    prices, allocation = ne_to_market(b, delta)
    utilities = instance.utilities(allocation)
    gains = np.zeros(instance.n)
    suprema, inexact = False, []
    for i in range(instance.n):
        opp = prices - eff[i]
        if delta == 0 and (demands[i] & (opp <= 0)).any():
            utility, converged = _monopoly_supremum(instance, i, opp)
            suprema = True
        else:
            _, utility, _, converged = _best_response(
                instance.kind, instance.valuations.rho, instance.matrix[i].tolist(),
                np.flatnonzero(demands[i]).tolist(), float(instance.budgets[i]),
                opp.tolist(), delta)
        if not converged:
            inexact.append(str(i))
        gains[i] = utility - utilities[i]
    notes = []
    if suprema:
        notes.append("some best responses are unattained suprema (delta=0 monopoly)")
    if inexact:
        notes.append(f"best response did not converge for agent {', '.join(inexact)}")
    max_gain = float(gains.max())
    return NEReport(_readonly(b), _readonly(gains), max_gain,
                    max_gain <= tol and not inexact, _readonly(prices),
                    _readonly(allocation), _readonly(utilities), note="; ".join(notes))


def safe_strategy(budget: float, opp_spend, delta: float = 0.0) -> np.ndarray:
    """The proportional safe bid y_j = B D_j / sum(D), floored for delta > 0.

    Against true opponent totals D the plain bid wins exactly the share
    B / (B + sum D) of every good; the floored variant concedes at most a
    delta*(m-1)/B relative loss on that guaranteed share.
    """
    d = np.asarray(opp_spend, dtype=float)
    sd = float(d.sum())
    if sd <= 0:
        raise ValueError("opponents must spend a positive total")
    if budget <= 0:
        raise ValueError("budget must be positive")
    y = budget * d / sd
    m = d.size
    if delta <= 0 or not (y < delta).any() or budget <= delta * m:
        return y
    low = y < delta
    b_eff = budget - delta * float(low.sum())
    total = budget + sd
    z = np.where(low, delta, b_eff * d / (total - b_eff))
    leftover = budget - z.sum()
    if leftover > 0:
        if (~low).any():
            z[~low] += leftover * d[~low] / d[~low].sum()
        else:
            z += leftover / m
    return z
