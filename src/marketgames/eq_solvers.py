"""Fisher market equilibrium solvers and certificates.

Three solvers (one per valuation kind) plus the verification layer:
KKT residual checks for linear and Leontief outcomes, optimal-bundle
utilities at given prices, approximate-equilibrium certification, and the
Leontief primal/dual gap.  Solver iterations are plumbing; the verifiers
are the ground truth and are kept independent of the solver paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .core import (CES, DEFAULT_TOL, LEONTIEF, LINEAR, Instance,
                   ValuationProfile, eval_valuation_matrix, _readonly)
from ._simplex import project_capped_simplex, project_simplex

#: Prices below this fraction of the total budget are reported as zero.
ZERO_PRICE_FRACTION = 1e-9

#: Floor keeping log(phi) defined inside the Leontief dual iteration.
PRICE_FLOOR = 1e-12


@dataclass(frozen=True)
class Residuals:
    """Named equilibrium residuals; all non-negative, smaller is better.

    stationarity and complementarity are relative / dimensionless, budget and
    clearing are in money and supply units respectively.
    """

    stationarity: float
    complementarity: float
    budget: float
    clearing: float

    @property
    def worst(self) -> float:
        return max(self.stationarity, self.complementarity, self.budget, self.clearing)


@dataclass(frozen=True)
class KKTReport:
    residuals: Residuals
    passed: bool
    tol: float


@dataclass(frozen=True)
class MarketEquilibrium:
    allocation: np.ndarray
    prices: np.ndarray
    utilities: np.ndarray
    residuals: Residuals
    iterations: int
    converged: bool
    dropped_goods: tuple[int, ...] = ()


@dataclass(frozen=True)
class EpsEquilibriumReport:
    """Certificate for the approximate market equilibrium definition."""

    eps_required: float
    optimal_utilities: np.ndarray
    ratios: np.ndarray
    passed: bool
    clearing_ok: bool
    budget_ok: bool


# ---------------------------------------------------------------------------
# Verifiers


def _market_residuals(budgets, allocation, prices, tol):
    """Budget, clearing, and complementarity residuals shared by both kinds."""
    spend = allocation @ prices
    budget = float(np.abs(spend - budgets).max())
    colsum = allocation.sum(axis=0)
    oversell = float(np.maximum(colsum - 1.0, 0.0).max())
    ptol = tol * max(1.0, float(prices.sum()))
    priced = prices > ptol
    unsold = float(np.abs(colsum[priced] - 1.0).max()) if priced.any() else 0.0
    clearing = max(oversell, unsold)
    complementarity = float((prices * np.maximum(1.0 - colsum, 0.0)).max())
    return budget, clearing, complementarity


def verify_kkt_linear(instance: Instance, allocation, prices,
                      tol: float = DEFAULT_TOL, act_tol: float = 1e-9) -> KKTReport:
    """Check the linear-market optimality conditions at (allocation, prices).

    Stationarity is the worst relative bang-per-buck shortfall over goods the
    agent actually buys (entries above act_tol); budget and clearing residuals
    are absolute.  Passing means every residual is at most tol.
    """
    if instance.kind != LINEAR:
        raise ValueError("verify_kkt_linear requires linear valuations")
    x = np.asarray(allocation, dtype=float)
    p = np.asarray(prices, dtype=float)
    v = instance.matrix
    with np.errstate(divide="ignore", invalid="ignore"):
        bpb = np.where(v > 0, v / np.where(p > 0, p, 0.0), 0.0)
    alpha = bpb.max(axis=1)
    active = x > act_tol
    rel = np.zeros_like(x)
    for i in range(instance.n):
        if not active[i].any():
            continue
        if not math.isfinite(alpha[i]):
            # a demanded good is free: any finite-bpb purchase is suboptimal
            rel[i, active[i]] = np.where(np.isinf(bpb[i, active[i]]), 0.0, 1.0)
        else:
            rel[i, active[i]] = (alpha[i] - bpb[i, active[i]]) / max(alpha[i], 1e-300)
    stationarity = float(rel.max()) if x.size else 0.0
    budget, clearing, complementarity = _market_residuals(instance.budgets, x, p, tol)
    res = Residuals(stationarity, complementarity, budget, clearing)
    return KKTReport(res, res.worst <= tol, tol)


def verify_kkt_leontief(instance: Instance, allocation, prices,
                        tol: float = DEFAULT_TOL) -> KKTReport:
    """Check the Leontief conditions: equal consumption ratios matching
    B_i / phi_i(p), exhausted budgets, and market clearing."""
    if instance.kind != LEONTIEF:
        raise ValueError("verify_kkt_leontief requires Leontief valuations")
    x = np.asarray(allocation, dtype=float)
    p = np.asarray(prices, dtype=float)
    v = instance.matrix
    phi = v @ p
    if (phi <= 0).any():
        stationarity = math.inf
    else:
        u_star = instance.budgets / phi
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(v > 0, x / np.where(v > 0, v, 1.0), np.nan)
        dev = np.abs(ratios - u_star[:, None]) / np.maximum(u_star[:, None], 1e-300)
        stationarity = float(np.nanmax(np.where(v > 0, dev, 0.0)))
    budget, clearing, complementarity = _market_residuals(instance.budgets, x, p, tol)
    res = Residuals(stationarity, complementarity, budget, clearing)
    return KKTReport(res, res.worst <= tol, tol)


# ---------------------------------------------------------------------------
# Linear solver: proportional response plus an exact tie-structure polish


def _drop_undemanded(v: np.ndarray):
    demanded = (v > 0).any(axis=0)
    kept = np.nonzero(demanded)[0]
    dropped = tuple(int(j) for j in np.nonzero(~demanded)[0])
    return kept, dropped


def _embed(instance: Instance, kept, x, p):
    """Put the kept goods' allocation and prices back into n x m arrays."""
    x_full = np.zeros((x.shape[0], instance.m))
    x_full[:, kept] = x
    p_full = np.zeros(instance.m)
    p_full[kept] = p
    return x_full, p_full


def _linear_duality_gap(v, budgets, prices, utilities):
    # Dual of the linear EG program at prices p: sum_j p_j + sum_i B_i
    # (log(B_i * alpha_i) - 1) with alpha_i the best bang per buck.
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.where(v > 0, v / prices, 0.0).max(axis=1)
    dual = prices.sum() + float(np.dot(budgets, np.log(budgets * alpha) - 1.0))
    primal = float(np.dot(budgets, np.log(utilities)))
    return dual - primal


def _linear_structure_polish(v, budgets, prices, theta):
    """Try to read off the exact equilibrium from the near-converged prices.

    Builds the maximum-bang-per-buck graph at relative tolerance theta and
    propagates exact log-prices over a spanning forest grown tightest edge
    first (tie strength is exact in the valuation data even when the input
    prices are only roughly converged).  Non-tree edges that disagree with
    the propagated prices are spurious inclusions and simply dropped; a
    feasibility LP then looks for a supporting spending plan.  Returns
    (allocation, prices) or None; the caller verifies the candidate, so a
    wrong guess is never accepted.
    """
    n, m = v.shape
    with np.errstate(divide="ignore", invalid="ignore"):
        bpb = np.where(v > 0, v / prices, 0.0)
    alpha = bpb.max(axis=1)
    if (alpha <= 0).any() or not np.isfinite(alpha).all():
        return None
    edges = (v > 0) & (bpb >= alpha[:, None] * (1.0 - theta))
    if not edges.any(axis=0).all():
        return None
    looseness = np.where(edges, alpha[:, None] - bpb, np.inf)

    log_v = np.where(edges, np.log(np.where(v > 0, v, 1.0)), 0.0)
    logp = np.full(m, np.nan)
    loga = np.full(n, np.nan)
    comp_of_good = np.full(m, -1, dtype=int)
    comp_of_agent = np.full(n, -1, dtype=int)
    agent_adj = [np.nonzero(edges[i])[0] for i in range(n)]
    agent_adj = [adj[np.argsort(looseness[i, adj], kind="stable")]
                 for i, adj in enumerate(agent_adj)]
    good_adj = [np.nonzero(edges[:, j])[0] for j in range(m)]
    good_adj = [adj[np.argsort(looseness[adj, j], kind="stable")]
                for j, adj in enumerate(good_adj)]
    ncomp = 0
    for seed in range(m):
        if comp_of_good[seed] >= 0:
            continue
        comp = ncomp
        ncomp += 1
        logp[seed] = 0.0
        comp_of_good[seed] = comp
        frontier_goods = [seed]
        while frontier_goods:
            next_goods = []
            for j in frontier_goods:
                for i in good_adj[j]:
                    if comp_of_agent[i] < 0:
                        comp_of_agent[i] = comp
                        loga[i] = log_v[i, j] - logp[j]
                        for jj in agent_adj[i]:
                            if comp_of_good[jj] < 0:
                                comp_of_good[jj] = comp
                                logp[jj] = log_v[i, jj] - loga[i]
                                next_goods.append(jj)
            frontier_goods = next_goods
    if (comp_of_agent < 0).any():
        return None
    ii, jj = np.nonzero(edges)
    consistent = np.abs(log_v[ii, jj] - loga[ii] - logp[jj]) <= 1e-8
    ii, jj = ii[consistent], jj[consistent]
    live_good = np.zeros(m, dtype=bool)
    live_good[jj] = True
    live_agent = np.zeros(n, dtype=bool)
    live_agent[ii] = True
    if not (live_good.all() and live_agent.all()):
        return None

    p_hat = np.exp(logp)
    for c in range(ncomp):
        goods_c = comp_of_good == c
        agents_c = comp_of_agent == c
        p_hat[goods_c] *= budgets[agents_c].sum() / p_hat[goods_c].sum()

    # Feasibility LP: spending on the kept edges with row sums B_i, column
    # sums p_j.  One clearing constraint per component is redundant and
    # dropped.
    nnz = ii.size
    rows = list(ii)
    cols = list(range(nnz))
    keep_good = np.ones(m, dtype=bool)
    for c in range(ncomp):
        keep_good[np.nonzero(comp_of_good == c)[0][-1]] = False
    good_row = {}
    r = n
    for j in range(m):
        if keep_good[j]:
            good_row[j] = r
            r += 1
    for e in range(nnz):
        j = int(jj[e])
        if keep_good[j]:
            rows.append(good_row[j])
            cols.append(e)
    a_eq = sparse.coo_matrix((np.ones(len(rows)), (rows, cols)),
                             shape=(r, nnz)).tocsr()
    b_eq = np.concatenate([budgets, p_hat[keep_good]])
    res = linprog(np.zeros(nnz), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        return None
    spend = np.zeros((n, m))
    spend[ii, jj] = np.maximum(res.x, 0.0)
    x = spend / p_hat
    return x, p_hat


def solve_linear_eg(instance: Instance, tol: float = DEFAULT_TOL,
                    max_iter: int = 20000, init_bids=None) -> MarketEquilibrium:
    """Linear Eisenberg-Gale equilibrium via proportional response.

    Bids update as b_ij <- B_i v_ij x_ij / u_i; prices are column sums.
    Progress is certified by the EG duality gap.  Because proportional
    response only approaches degenerate (tied bang-per-buck) equilibria at a
    sublinear rate, a structure polish periodically tries to extract the
    exact equilibrium from the current prices; whichever candidate verifies
    better is returned, converged only if verify_kkt_linear passes it.
    """
    if instance.kind != LINEAR:
        raise ValueError("solve_linear_eg requires linear valuations")
    kept, dropped = _drop_undemanded(instance.matrix)
    v = instance.matrix[:, kept]
    budgets = instance.budgets
    n, m = v.shape

    if init_bids is not None:
        b = np.array(np.asarray(init_bids, dtype=float)[:, kept])
        if (b < 0).any() or b.shape != (n, m):
            raise ValueError("init_bids must be a non-negative n x m matrix")
        b = np.where(v > 0, np.maximum(b, 0.0), 0.0)
        bad = b.sum(axis=1) <= 0
        b[bad] = (v[bad] > 0).astype(float)
        b *= (budgets / b.sum(axis=1))[:, None]
    else:
        support = (v > 0).astype(float)
        b = budgets[:, None] * support / support.sum(axis=1)[:, None]

    polish_at = {200, 1000, 5000, 20000}
    best = None  # (score, x, p, iterations, converged)

    def consider(x_cand, p_cand, iters):
        nonlocal best
        x_full, p_full = _embed(instance, kept, x_cand, p_cand)
        rep = verify_kkt_linear(instance, x_full, p_full, tol)
        score = rep.residuals.worst
        if best is None or score < best[0]:
            best = (score, x_full, p_full, iters, rep.passed, rep.residuals)

    def polish(prices, iters):
        # tightest tie tolerance first; stop at the first verified candidate
        for theta in (1e-9, 1e-6, 1e-4, 1e-3):
            if best is not None and best[4]:
                break
            polished = _linear_structure_polish(v, budgets, prices, theta)
            if polished is not None:
                consider(polished[0], polished[1], iters)
        return best is not None and best[4]

    gap = math.inf
    it = 0
    p = b.sum(axis=0)
    x = np.zeros_like(b)
    for it in range(1, max_iter + 1):
        p = b.sum(axis=0)
        x = b / p
        u = (v * x).sum(axis=1)
        gap = _linear_duality_gap(v, budgets, p, u)
        if gap <= tol:
            break
        if it in polish_at and polish(p, it):
            break
        b = budgets[:, None] * v * x / u[:, None]

    consider(x, p, it)
    polish(p, it)

    _, x_full, p_full, iters, converged, residuals = best
    utilities = instance.utilities(x_full)
    return MarketEquilibrium(_readonly(x_full), _readonly(p_full), _readonly(utilities),
                             residuals, iters, converged, dropped)


# ---------------------------------------------------------------------------
# Leontief solver: projected gradient on the price-space dual


def _leontief_dual_value(v, budgets, p):
    phi = v @ p
    return float(p.sum() - np.dot(budgets, np.log(phi)))


def solve_leontief_dual(instance: Instance, tol: float = DEFAULT_TOL,
                        max_iter: int = 5000) -> MarketEquilibrium:
    """Leontief equilibrium from the dual min sum_j p_j - sum_i B_i log phi_i(p).

    Projected gradient with backtracking, with a Newton step attempted every
    few iterations (the Hessian is m x m and cheap at desk scale).  Prices are
    floored at PRICE_FLOOR to keep the log defined; the primal is recovered
    as u_i = B_i / phi_i(p), x_ij = u_i v_ij.
    """
    if instance.kind != LEONTIEF:
        raise ValueError("solve_leontief_dual requires Leontief valuations")
    kept, dropped = _drop_undemanded(instance.matrix)
    v = instance.matrix[:, kept]
    budgets = instance.budgets
    total = instance.total_budget
    m = v.shape[1]

    p = np.full(m, total / m)
    fval = _leontief_dual_value(v, budgets, p)
    eta = 1.0
    rtol = min(1e-10, 0.01 * tol) / max(1.0, total)
    it = 0
    converged = False
    best_p, best_r, best_it = p.copy(), math.inf, 0
    for it in range(1, max_iter + 1):
        phi = v @ p
        g = 1.0 - v.T @ (budgets / phi)
        resid = np.where(p > PRICE_FLOOR * 1.01, g, np.minimum(g, 0.0))
        rnorm = float(np.abs(resid).max())
        if rnorm < best_r:
            best_p, best_r, best_it = p.copy(), rnorm, it
        if rnorm <= rtol:
            converged = True
            break
        if it - best_it >= 60:
            # residual floor reached (flat dual directions); keep best iterate
            break

        stepped = False
        if it % 3 == 1:
            active = (p > PRICE_FLOOR * 1.01) | (g < 0)
            if active.any():
                va = v[:, active]
                h = va.T @ (va * (budgets / phi**2)[:, None])
                try:
                    d_act = np.linalg.solve(h, -g[active])
                except np.linalg.LinAlgError:
                    d_act = np.linalg.lstsq(h, -g[active], rcond=None)[0]
                d = np.zeros(m)
                d[active] = d_act
                t = 1.0
                for _ in range(25):
                    cand = np.maximum(p + t * d, PRICE_FLOOR)
                    fc = _leontief_dual_value(v, budgets, cand)
                    if fc < fval - 1e-14 * abs(fval):
                        p, fval, stepped = cand, fc, True
                        break
                    t *= 0.5
        if not stepped:
            while True:
                cand = np.maximum(p - eta * g, PRICE_FLOOR)
                fc = _leontief_dual_value(v, budgets, cand)
                if fc <= fval + 1e-4 * float(g @ (cand - p)):
                    p, fval = cand, fc
                    eta = min(eta * 1.5, 1e8)
                    break
                eta *= 0.5
                if eta < 1e-18:
                    break
            if eta < 1e-18:
                break

    p = best_p
    phi = v @ p
    u = budgets / phi
    x = u[:, None] * v
    zero = p <= ZERO_PRICE_FRACTION * total
    p_out = np.where(zero, 0.0, p)

    x_full, p_full = _embed(instance, kept, x, p_out)
    report = verify_kkt_leontief(instance, x_full, p_full, tol)
    return MarketEquilibrium(_readonly(x_full), _readonly(p_full), _readonly(u),
                             report.residuals, it, converged or report.passed, dropped)


# ---------------------------------------------------------------------------
# CES solver: projected gradient over the per-good capped simplices


def _project_columns_capped(x, lower):
    out = np.empty_like(x)
    for j in range(x.shape[1]):
        lb = lower[:, j]
        out[:, j] = project_capped_simplex(x[:, j] - lb, 1.0 - lb.sum()) + lb
    return out


def _ces_gradient(v, budgets, x, u, rho):
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        grad = np.where(v > 0,
                        budgets[:, None] * u[:, None] ** (-rho) * v
                        * np.where(x > 0, x, 1.0) ** (rho - 1.0),
                        0.0)
    return np.nan_to_num(np.clip(grad, 0.0, 1e100), nan=0.0, posinf=1e100)


def solve_ces_eg(instance: Instance, tol: float = 1e-6,
                 max_iter: int = 20000) -> MarketEquilibrium:
    """CES Eisenberg-Gale optimum by projected gradient ascent.

    Maximizes sum_i B_i log u_i(x_i) over per-good allocations summing to at
    most one unit, with Armijo backtracking.  Prices are read off the
    stationary point as the largest active marginal value of money
    B_i (du_i/dx_ij) / u_i; documented as approximate on faces.
    """
    if instance.kind != CES:
        raise ValueError("solve_ces_eg requires CES valuations")
    rho = instance.valuations.rho
    kept, dropped = _drop_undemanded(instance.matrix)
    v = instance.matrix[:, kept]
    budgets = instance.budgets

    support = (v > 0)
    lower = np.where(support, 1e-12, 0.0)
    x = support.astype(float) / support.sum(axis=0)[None, :]
    x = _project_columns_capped(x, lower)
    profile = ValuationProfile(CES, v, rho)

    def objective(xc):
        u = eval_valuation_matrix(profile, xc)
        if (u <= 0).any():
            return -math.inf, u
        return float(np.dot(budgets, np.log(u))), u

    fval, u = objective(x)
    eta = 0.1
    it = 0
    stall = 0
    for it in range(1, max_iter + 1):
        grad = _ces_gradient(v, budgets, x, u, rho)
        moved = False
        halvings = 0
        for _ in range(60):
            cand = _project_columns_capped(x + eta * grad, lower)
            fc, uc = objective(cand)
            if math.isfinite(fc) and fc >= fval + 1e-4 * float((grad * (cand - x)).sum()):
                gain = fc - fval
                x, fval, u = cand, fc, uc
                moved = True
                break
            eta *= 0.5
            halvings += 1
        if not moved:
            break
        if halvings == 0:
            eta = min(eta * 1.3, 1e6)
        stall = stall + 1 if gain <= 1e-6 * tol * max(1.0, abs(fval)) else 0
        if stall >= 80:
            break

    grad = _ces_gradient(v, budgets, x, u, rho)
    mapped = _project_columns_capped(x + grad, lower)
    stationarity = float(np.abs(mapped - x).max())

    active = x > 1e-6
    price_cand = np.where(active, grad, 0.0)
    p = price_cand.max(axis=0)

    x_full, p_full = _embed(instance, kept, x, p)
    budget_res, clearing, comp = _market_residuals(budgets, x_full, p_full, tol)
    residuals = Residuals(stationarity, comp, budget_res, clearing)
    return MarketEquilibrium(_readonly(x_full), _readonly(p_full), _readonly(u),
                             residuals, it, stationarity <= tol, dropped)


def solve_eg(instance: Instance, tol: float = DEFAULT_TOL,
             max_iter: int | None = None, init_bids=None) -> MarketEquilibrium:
    """Dispatch to the solver matching the instance's valuation kind.

    This is the one Eisenberg-Gale solve path; the Fisher game solves its
    reported markets through it too.  ``init_bids`` seeds the linear
    solver's bids, which selects among tied linear equilibria; the other
    kinds have a unique equilibrium and ignore it.  The CES path is
    first-order only, so its tolerance is floored at 1e-6.
    """
    if instance.kind == LINEAR:
        return solve_linear_eg(instance, tol, max_iter or 20000, init_bids)
    if instance.kind == LEONTIEF:
        return solve_leontief_dual(instance, tol, max_iter or 5000)
    return solve_ces_eg(instance, max(tol, 1e-6), max_iter or 20000)


# ---------------------------------------------------------------------------
# Optimal bundles, approximate equilibria, duality gap


def optimal_bundle_utility(profile: ValuationProfile, agent: int, budget: float,
                           prices, tol: float = DEFAULT_TOL) -> float:
    """Best utility the agent can afford at the given prices.

    This is the unconstrained-supply demand value: the bundle may exceed one
    unit of a good, exactly as the approximate-equilibrium definition
    requires.  A demanded good priced at zero makes the value infinite
    (reported as math.inf rather than raising).
    """
    p = np.asarray(prices, dtype=float)
    values = profile.matrix[agent]
    demanded = values > 0
    if budget <= 0:
        raise ValueError("budget must be positive")
    if profile.kind == LINEAR:
        if (p[demanded] <= 0).any():
            return math.inf
        return float(budget * (values[demanded] / p[demanded]).max())
    if profile.kind == LEONTIEF:
        phi = float(values @ p)
        if phi <= 0:
            return math.inf
        return budget / phi
    if (p[demanded] <= 0).any():
        return math.inf
    return _ces_optimal_bundle(values[demanded], budget, p[demanded],
                               profile.rho, tol)


def _ces_optimal_bundle(values, budget, prices, rho, tol):
    # Closed-form CES demand as the starting point, then projected gradient
    # on the spending simplex until the first-order residual is within tol.
    logw = (np.log(values) - np.log(prices)) / (1.0 - rho) + np.log(prices)
    w = np.exp(logw - logw.max())
    spend = budget * w / w.sum()
    kind_profile = ValuationProfile(CES, values[None, :], rho)

    def util(s):
        return float(eval_valuation_matrix(kind_profile, (s / prices)[None, :])[0])

    u = util(spend)
    eta = 0.1 * budget
    for _ in range(200):
        y = spend / prices
        grad = (u ** (1.0 - rho) * values * np.maximum(y, 1e-300) ** (rho - 1.0)) / prices
        cand = project_simplex(spend + eta * grad, budget)
        if np.abs(cand - spend).max() <= tol * max(1.0, budget):
            break
        uc = util(cand)
        if uc > u:
            spend, u = cand, uc
            eta *= 1.3
        else:
            eta *= 0.5
            if eta < 1e-16 * budget:
                break
    return u


def verify_eps_market_eq(instance: Instance, allocation, prices, eps: float,
                         tol: float = DEFAULT_TOL) -> EpsEquilibriumReport:
    """Certify (allocation, prices) as an eps-approximate market equilibrium.

    Checks that positively priced goods are fully sold, budgets are
    exhausted, and each agent's affordable optimum exceeds its utility by at
    most a factor (1 + eps).  Also reports the smallest eps that would pass.
    """
    x = np.asarray(allocation, dtype=float)
    p = np.asarray(prices, dtype=float)
    spend = x @ p
    budget_ok = bool(np.abs(spend - instance.budgets).max()
                     <= tol * max(1.0, float(instance.budgets.max())))
    colsum = x.sum(axis=0)
    ptol = tol * max(1.0, float(p.sum()))
    priced = p > ptol
    clearing_ok = bool((colsum <= 1.0 + tol).all()
                       and (np.abs(colsum[priced] - 1.0) <= tol).all())
    u_cur = instance.utilities(x)
    u_opt = np.array([optimal_bundle_utility(instance.valuations, i,
                                             float(instance.budgets[i]), p, tol)
                      for i in range(instance.n)])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(u_cur > 0, u_opt / np.where(u_cur > 0, u_cur, 1.0),
                          np.where(u_opt > 0, np.inf, 1.0))
    eps_required = float(max(ratios.max() - 1.0, 0.0))
    passed = budget_ok and clearing_ok and bool(ratios.max() <= 1.0 + eps + tol)
    return EpsEquilibriumReport(eps_required, _readonly(u_opt), _readonly(ratios),
                                passed, clearing_ok, budget_ok)


def duality_gap_leontief(instance: Instance, allocation, prices) -> float:
    """Dual minus primal value of the Leontief EG pair, constants included.

    Non-negative for any feasible primal point; zero exactly at equilibrium.
    Returns math.inf when some agent has zero utility or zero phi.
    """
    if instance.kind != LEONTIEF:
        raise ValueError("duality_gap_leontief requires Leontief valuations")
    x = np.asarray(allocation, dtype=float)
    p = np.asarray(prices, dtype=float)
    u = instance.utilities(x)
    if (u <= 0).any():
        return math.inf
    phi = instance.matrix @ p
    if (phi <= 0).any():
        return math.inf
    b = instance.budgets
    dual = float(p.sum() - b @ np.log(phi) + b @ np.log(b) - b.sum())
    primal = float(b @ np.log(u))
    return dual - primal
