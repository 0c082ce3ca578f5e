"""Fisher market equilibrium solvers and certificates.

Three solvers (one per valuation kind) plus the verification layer:
KKT residual checks for linear and Leontief outcomes, optimal-bundle
utilities at given prices, approximate-equilibrium certification, and the
Leontief primal/dual gap.  Solver iterations are plumbing; the verifiers
are the ground truth and are kept independent of the solver paths.

Every kind is solved on the price-space Eisenberg-Gale dual
min_p sum_j p_j - sum_i B_i log e_i(p), e_i the unit-expenditure function
(v_i . p for Leontief), by Newton steps that each solve one m x m system by
Cholesky: an interior point for linear and Leontief markets, damped Newton
for CES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, get_lapack_funcs
from scipy.optimize import linprog

from .core import (CES, DEFAULT_TOL, LEONTIEF, LINEAR, Instance,
                   ValuationProfile, _readonly)

#: Prices below this fraction of the total budget are reported as zero.
ZERO_PRICE_FRACTION = 1e-9

#: Default cap on the Newton steps of every solver.
MAX_NEWTON_STEPS = 100

#: Duality gap, over the total budget, below which the linear polish runs.
POLISH_GAP = 1e-2

#: Most entries in one K x n x m array of a stacked solve (``solve_eg_many``).
STACK_ENTRIES = 2 ** 16

_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


@dataclass(frozen=True)
class Residuals:
    """Named equilibrium residuals; all non-negative, smaller is better.

    stationarity and complementarity are relative / dimensionless, budget and
    clearing are in money and supply units respectively.  A NaN residual
    makes ``worst`` NaN, which passes no tolerance.
    """

    stationarity: float
    complementarity: float
    budget: float
    clearing: float

    @property
    def worst(self) -> float:
        return float(np.max((self.stationarity, self.complementarity, self.budget,
                             self.clearing)))


@dataclass(frozen=True)
class KKTReport:
    residuals: Residuals
    passed: bool


@dataclass(frozen=True)
class MarketEquilibrium:
    """A solved equilibrium; ``iterations`` counts the solver's Newton steps."""

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
    clearing = float(np.maximum(oversell, unsold))  # NaN propagates
    complementarity = float((prices * np.maximum(1.0 - colsum, 0.0)).max())
    return budget, clearing, complementarity


def verify_kkt_linear(instance: Instance, allocation, prices,
                      tol: float = DEFAULT_TOL) -> KKTReport:
    """Check the linear-market optimality conditions at (allocation, prices).

    Stationarity is the worst relative bang-per-buck shortfall over goods the
    agent actually buys (entries above 1e-9); budget and clearing residuals
    are absolute.  Passing means every residual is at most tol.
    """
    if instance.kind != LINEAR:
        raise ValueError("verify_kkt_linear requires linear valuations")
    x = np.asarray(allocation, dtype=float)
    p = np.asarray(prices, dtype=float)
    v = instance.matrix
    with np.errstate(divide="ignore", invalid="ignore"):
        bpb = np.where(v > 0, v / np.where(p > 0, p, 0.0), 0.0)
        alpha = bpb.max(axis=1, keepdims=True)
        shortfall = (alpha - bpb) / np.maximum(alpha, 1e-300)
    # where a demanded good is free, any finite-bpb purchase is suboptimal
    rel = np.where(np.isfinite(alpha), shortfall, np.where(np.isinf(bpb), 0.0, 1.0))
    rel = np.where(x > 1e-9, rel, 0.0)
    stationarity = float(rel.max()) if x.size else 0.0
    budget, clearing, complementarity = _market_residuals(instance.budgets, x, p, tol)
    res = Residuals(stationarity, complementarity, budget, clearing)
    return KKTReport(res, res.worst <= tol)


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
        ratios = x / np.where(v > 0, v, 1.0)
        dev = np.abs(ratios - u_star[:, None]) / np.maximum(u_star[:, None], 1e-300)
        stationarity = float(np.where(v > 0, dev, 0.0).max())
    budget, clearing, complementarity = _market_residuals(instance.budgets, x, p, tol)
    res = Residuals(stationarity, complementarity, budget, clearing)
    return KKTReport(res, res.worst <= tol)


# ---------------------------------------------------------------------------
# Linear solver: interior point on the price-space dual, then an exact polish


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


def _equilibrium(x, p, u, residuals, iterations, passed, dropped):
    """A solver's result: converged if it passed and every utility is finite."""
    return MarketEquilibrium(_readonly(x), _readonly(p), _readonly(u), residuals,
                             iterations, passed and bool(np.isfinite(u).all()),
                             dropped)


def _rowdot(a, b):
    """Each member's dot product a_k . b_k of two K x n stacks."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _matvec(a, y):
    """Each member's A_k y_k."""
    return (a @ y[:, :, None])[:, :, 0]


def _rmatvec(a, y):
    """Each member's A_k^T y_k."""
    return (a.transpose(0, 2, 1) @ y[:, :, None])[:, :, 0]


def _cubes(a):
    """Each entry cubed by Python's float power, the C library's pow:
    numpy's vectorized power picks a SIMD kernel by CPU and can differ from
    it in the last bit, and Mehrotra's centring weight, a cube, can move a
    step count on degenerate markets by that bit."""
    return np.array([r ** 3 for r in a.tolist()])


def _longest_steps(shrink):
    """Each member's largest step 1 / shrink keeping it interior; where no
    entry limits the step (shrink <= 0) it is 1e300, as good as unlimited
    since steps are capped at 1."""
    return 1.0 / np.maximum(shrink, 1e-300)


def _newton_factors(d, w, c):
    """Upper Cholesky factors of the m x m Newton matrices diag(d_k) +
    W_k^T diag(c_k) W_k of a stack, one LAPACK ``potrf`` per member; None
    for a member whose matrix is not positive definite."""
    a = (w.transpose(0, 2, 1) * c[:, None, :]) @ w
    m = a.shape[1]
    a.reshape(-1, m * m)[:, ::m + 1] += d
    factors = []
    for ak in a:
        fac, info = _POTRF(ak, lower=False, clean=False)
        factors.append(fac if info == 0 else None)
    return factors


def _cho_solve(factors, rhs):
    """Each member's Newton system solved by its factor, one ``potrs`` each."""
    out = np.empty_like(rhs)
    for k, fac in enumerate(factors):
        out[k] = _POTRS(fac, rhs[k], lower=False)[0]
    return out


def _take(keep, *arrays):
    """The members ``keep`` (a mask, or indices for arrays) of each stacked
    array or list."""
    return [a[keep] if isinstance(a, np.ndarray) else [x for x, k in zip(a, keep) if k]
            for a in arrays]


def _along(point, delta, alpha):
    """``point`` moved by each member's step alpha_k along ``delta``."""
    return tuple(a + alpha.reshape((-1,) + (1,) * (a.ndim - 1)) * d
                 for a, d in zip(point, delta))


def _pick(mask, new, old):
    """Each member's arrays from ``new`` where ``mask``, else from ``old``."""
    return tuple(np.where(mask.reshape((-1,) + (1,) * (a.ndim - 1)), b, a)
                 for a, b in zip(old, new))


def _safeguarded_steps(point, direction, max_step, merit, merit0, slope, centre,
                       corrected):
    """One interior-point step of each stack member from ``point`` (a tuple
    of K-member arrays).

    ``direction(r_c)`` is the Newton direction for complementarity target
    r_c, aligned with ``point``, and ``max_step`` its largest step keeping
    each member interior; ``slope`` is the merit's rate along the centred
    direction.  Mehrotra's corrector need not descend (it can cycle), so its
    step, 0.995 of the way to the boundary, is taken only if it cuts the
    merit by 1e-4 of ``slope``; else the centred step backtracks until it
    does.  Returns the new point and the mask of members that moved; a
    member where neither step descends keeps its point.
    """
    delta = direction(corrected)
    alpha = np.minimum(1.0, 0.995 * max_step(*delta))
    trial = _along(point, delta, alpha)
    moved = (alpha >= 1e-12) & (merit(*trial) <= merit0 + 1e-4 * alpha * slope)
    if moved.all():
        return trial, moved
    new = _pick(moved, trial, point)
    delta = direction(centre)
    alpha = np.minimum(1.0, 0.995 * max_step(*delta))
    live = ~moved & (alpha >= 1e-12)
    while live.any():
        trial = _along(point, delta, alpha)
        good = live & (merit(*trial) <= merit0 + 1e-4 * alpha * slope)
        new = _pick(good, trial, new)
        moved |= good
        live &= ~good
        alpha = np.where(live, 0.5 * alpha, alpha)
        live &= alpha >= 1e-12
    return new, moved


def _stack(instances, kept):
    """The kept goods' valuations and the budgets of same-shape markets."""
    return (np.stack([inst.matrix[:, kept] for inst in instances]),
            np.stack([inst.budgets for inst in instances]))


def _tie_split(p, x, s, edge):
    """Per member, the bang-per-buck tolerance theta between the edges an
    iterate treats as tight (relative slack s_ij / p_j below x_ij) and the
    rest, the geometric mean of the tight edges' largest relative slack and
    the others' smallest; and whether that split is clean: every agent and
    good has a tight edge and the tight slacks lie below the rest."""
    rel = s / p[:, None, :]
    tight = rel < x
    hi = np.where(tight, rel, -math.inf).max(axis=(1, 2))
    lo = np.where(edge & ~tight, rel, 1.0).min(axis=(1, 2))
    clean = (hi < lo) & tight.any(axis=1).all(axis=1) & tight.any(axis=2).all(axis=1)
    return np.sqrt(np.maximum(hi, 1e-300) * lo), clean


def _linear_ipm(v, budgets, max_iter, accept):
    """The interior point of the linear EG dual, on a stack of markets.

    With e_i(p) = min_j p_j / v_ij the dual is min sum_j p_j - sum_i B_i log
    beta_i subject to s_ij = p_j - beta_i v_ij >= 0 on the edges v_ij > 0,
    whose multipliers x_ij are the allocation.  Mehrotra's predictor-
    corrector drives x_ij s_ij to zero, each step cutting the duality gap
    ``merit`` (else a backtracked plain Newton step is taken); the agents are
    eliminated, so a direction is one m x m Cholesky factorization.

    ``v`` is K x n x m and ``budgets`` K x n; one loop advances every member
    k by its own Newton steps.  After a step that brings the gap sum x_ij
    s_ij / sum B_i to at most POLISH_GAP with a clean ``_tie_split``,
    ``accept(k, prices, allocation, theta)`` gets the iterate.  A
    member leaves the stack when ``accept`` returns True, after ``max_iter``
    steps, or alone when it breaks down: its gap at rounding level (or nan),
    a slack rounded to zero, a Newton matrix Cholesky rejects, or no
    descent.  Returns per member its steps, last prices and allocation (zero
    before the first step) and, if it broke down after a step, that
    iterate's theta, taken whether or not the split was clean (else nan).
    """
    K, n, m = v.shape
    total = budgets.sum(axis=1)
    b = budgets / total[:, None]
    v = v / v.max(axis=2, keepdims=True)
    edge = v > 0
    n_edges = edge.sum(axis=(1, 2))
    p = (b[:, None, :] @ (v / v.sum(axis=2, keepdims=True)))[:, 0]
    beta = 0.5 * (p[:, None, :] / np.where(edge, v, 1e-300)).min(axis=2)
    x = edge / edge.sum(axis=1, keepdims=True)
    # off the edges x = 0 and s = p > 0, so the arrays stay dense
    s = p[:, None, :] - beta[:, :, None] * v
    xs = x * s
    gap = xs.sum(axis=(1, 2))
    steps = np.zeros(K, dtype=int)
    last_p, last_x, last_theta = np.zeros((K, m)), np.zeros((K, n, m)), np.full(K, math.nan)
    ids = np.arange(K)

    def leave(gone, it, broke=True):
        k = ids[gone]
        steps[k] = it
        if it:  # before the first step there is no iterate
            last_p[k] = p[gone] * total[gone, None]
            last_x[k] = x[gone]
            if broke:
                last_theta[k] = _tie_split(p[gone], x[gone], s[gone], edge[gone])[0]

    def merit(p, beta, x):
        # sum x_ij s_ij + sum_i B_i (t_i - 1 - log t_i), t_i = beta_i u_i / B_i:
        # the EG duality gap while the goods clear, zero only at the optimum
        t = beta * (v * x).sum(axis=2) / b
        return ((x * (p[:, None, :] - beta[:, :, None] * v)).sum(axis=(1, 2))
                + _rowdot(b, t - 1.0 - np.log(t)))

    for it in range(max_iter):
        # at rounding level, broken down (nan), or a slack rounded to zero
        ok = (gap > 1e-15) & (s.min(axis=(1, 2)) > 0)
        if not ok.all():
            leave(~ok, it)
            if not ok.any():
                break
            v, b, edge, n_edges, total, ids, p, beta, x, s, xs, gap = _take(
                ok, v, b, edge, n_edges, total, ids, p, beta, x, s, xs, gap)
        u = (v * x).sum(axis=2)
        d = x / s
        w = d * v
        # beta_i u_i = B_i linearized in both factors, like x_ij s_ij = mu
        h = u / beta + (w * v).sum(axis=2)
        factors = _newton_factors(d.sum(axis=1), w, -1.0 / h)
        if any(fac is None for fac in factors):
            ok = np.array([fac is not None for fac in factors])
            leave(~ok, it)
            if not ok.any():
                break
            (v, b, edge, n_edges, total, ids, p, beta, x, s, xs, gap, u, d, w, h,
             factors) = _take(ok, v, b, edge, n_edges, total, ids, p, beta, x, s, xs,
                              gap, u, d, w, h, factors)
        r_p, r_d = 1.0 - x.sum(axis=1), u - b / beta
        mu = gap / n_edges

        def direction(r_c):
            t = r_c / s
            a = -r_d - (v * t).sum(axis=2)
            dp = _cho_solve(factors, _rmatvec(w, a / h) - r_p + t.sum(axis=1))
            db = (a + _matvec(w, dp)) / h
            return dp, db, t - d * (dp[:, None, :] - v * db[:, :, None])

        def max_step(dp, db, dx):
            # largest step keeping beta, s (hence p) and x positive
            return _longest_steps(np.maximum(np.maximum(
                (-db / beta).max(axis=1),
                (-(dp[:, None, :] - v * db[:, :, None]) / s).max(axis=(1, 2))),
                (-dx / np.where(edge, x, 1.0)).max(axis=(1, 2))))

        dp, db, dx = direction(-xs)
        ds = dp[:, None, :] - v * db[:, :, None]
        a_aff = np.minimum(1.0, max_step(dp, db, dx))[:, None, None]
        sigma = _cubes(((x + a_aff * dx) * (s + a_aff * ds)).sum(axis=(1, 2)) / gap)
        centre = np.where(edge, (sigma * mu)[:, None, None] - xs, 0.0)
        # the merit falls at this rate along the Newton direction to centre
        slope = -(1.0 - sigma) * gap - ((beta * u - b) ** 2 / (beta * u)).sum(axis=1)
        t = beta * u / b  # the merit at the current point, from its gap and u
        (p, beta, x), moved = _safeguarded_steps(
            (p, beta, x), direction, max_step, merit, gap + _rowdot(b, t - 1.0 - np.log(t)),
            slope, centre, centre - np.where(edge, dx * ds, 0.0))
        if not moved.all():
            leave(~moved, it)  # their point and slacks are unchanged
            if not moved.any():
                break
            v, b, edge, n_edges, total, ids, p, beta, x = _take(
                moved, v, b, edge, n_edges, total, ids, p, beta, x)
        s = p[:, None, :] - beta[:, :, None] * v
        xs = x * s
        gap = xs.sum(axis=(1, 2))
        near = np.nonzero(gap <= POLISH_GAP)[0]
        if near.size:
            split = (p, x, s, edge) if near.size == ids.size else _take(near, p, x, s, edge)
            theta, clean = _tie_split(*split)
            done = np.zeros(ids.size, dtype=bool)
            for j, th in zip(near[clean], theta[clean]):
                done[j] = accept(ids[j], p[j] * total[j], x[j], th)
            if done.any():
                leave(done, it + 1, broke=False)
                if done.all():
                    break
                v, b, edge, n_edges, total, ids, p, beta, x, s, xs, gap = _take(
                    ~done, v, b, edge, n_edges, total, ids, p, beta, x, s, xs, gap)
    else:
        leave(np.ones(ids.size, dtype=bool), max_iter, broke=False)
    return steps, last_p, last_x, last_theta


def _project_spending(ii, jj, s0, budgets, p_hat, keep_good):
    """Least-squares correction of the spending ``s0`` on the edges (ii, jj)
    onto row sums B_i and the column sums p_hat_j of the ``keep_good`` goods.

    That is s0 + A^T y with A A^T y = b - A s0, A the edge incidence.  The
    agent block of A A^T is diagonal (the degrees), so the agents are
    eliminated; left is the goods' Laplacian, each agent i joining its goods
    with weight 1 / deg_i, grounded at the goods not kept (one per
    component): one m x m Cholesky solve gives the goods' part z of y.
    """
    n, m = budgets.size, p_hat.size
    deg = np.bincount(ii, minlength=n)
    res_a = (budgets - np.bincount(ii, s0, n)) / deg
    res_g = p_hat - np.bincount(jj, s0, m) - np.bincount(jj, res_a[ii], m)
    # an agent with one edge adds as much to the Laplacian's diagonal as it
    # takes off: only agents that split their budget couple goods
    w = np.zeros((n, m))
    w[ii, jj] = 1.0
    w, split_deg = w[deg > 1], deg[deg > 1]
    lap = np.diag(w.sum(axis=0)) - (w.T / split_deg) @ w
    fac = cho_factor(lap[np.ix_(keep_good, keep_good)], check_finite=False)
    z = np.zeros(m)
    z[keep_good] = cho_solve(fac, res_g[keep_good], check_finite=False)
    return s0 + (res_a - np.bincount(ii, z[jj], n) / deg)[ii] + z[jj]


def _linear_structure_polish(v, budgets, prices, start, theta, tried):
    """Try to read off the exact equilibrium from the near-converged iterate.

    Kruskal's algorithm takes a minimum spanning forest, by slack, of the
    edges within bang-per-buck tolerance theta; its union-find carries
    potentials q (log a_i for agents, -log p_j for goods), each forest edge
    fixing q_i - q_j = log v_ij, exact in the valuation data.  So one pass
    gives the components and exact log-prices; edges that disagree with
    them by over 1e-8 are dropped.  The kept edges' spending is
    ``_project_spending`` of ``start``, or a feasible LP vertex when that
    has a negative entry.  Returns (allocation, prices) or None; the caller
    verifies it.  ``tried`` holds the edge sets already solved.
    """
    n, m = v.shape
    bpb = v / prices  # interior prices are positive
    slack = 1.0 - bpb / bpb.max(axis=1, keepdims=True)
    edges = (v > 0) & (slack <= theta)
    if not edges.any(axis=0).all():
        return None

    # agents are nodes 0..n-1 and goods n..n+m-1; a union joins the smaller
    # component to the larger, shifting the joined nodes' potentials
    ii, jj = np.nonzero(edges)
    log_v = np.log(v[ii, jj])
    label, q = list(range(n + m)), [0.0] * (n + m)
    members = [[node] for node in label]
    order = np.argsort(slack[ii, jj], kind="stable")
    for a, g, w in zip(ii[order].tolist(), (n + jj[order]).tolist(),
                       log_v[order].tolist()):
        keep, join, shift = label[a], label[g], q[a] - w - q[g]
        if keep == join:
            continue
        if len(members[keep]) < len(members[join]):
            keep, join, shift = join, keep, -shift
        for node in members[join]:
            label[node] = keep
            q[node] += shift
        members[keep] += members[join]
    label = np.unique(label, return_inverse=True)[1]
    q = np.array(q)
    consistent = np.abs(log_v - q[ii] + q[n + jj]) <= 1e-8
    ii, jj = ii[consistent], jj[consistent]

    comp = label[n:]
    p_hat = np.exp(-q[n:])
    p_hat *= (np.bincount(label[:n], budgets) / np.bincount(comp, p_hat))[comp]

    # every agent spends on its kept edges, so they must be its best buys
    bpb_hat = np.where(v > 0, v / p_hat, 0.0)
    if (bpb_hat[ii, jj] < bpb_hat.max(axis=1)[ii] * (1.0 - 1e-6)).any():
        return None
    key = (ii.tobytes(), jj.tobytes())
    if key in tried:
        return None
    tried.add(key)

    # one clearing equation per component is redundant; the one dropped is
    # the dearest good's, least hurt by its rounding
    by_price = np.argsort(-p_hat, kind="stable")
    keep_good = np.ones(m, dtype=bool)
    keep_good[by_price[np.unique(comp[by_price], return_index=True)[1]]] = False
    s = _project_spending(ii, jj, start[ii, jj], budgets, p_hat, keep_good)
    if not (s >= 0).all():
        # each row divided by its right-hand side, so that the LP's
        # feasibility tolerance is relative
        nnz, cleared = ii.size, keep_good[jj]
        a_eq = np.zeros((n + int(keep_good.sum()), nnz))
        a_eq[ii, np.arange(nnz)] = 1.0 / budgets[ii]
        a_eq[n + np.cumsum(keep_good)[jj[cleared]] - 1,
             np.nonzero(cleared)[0]] = 1.0 / p_hat[jj[cleared]]
        res = linprog(np.zeros(nnz), A_eq=a_eq, b_eq=np.ones(a_eq.shape[0]),
                      bounds=(0, None), method="highs")
        if not res.success:
            return None
        s = np.maximum(res.x, 0.0)
    spend = np.zeros((n, m))
    spend[ii, jj] = s
    return spend / p_hat, p_hat


def _solve_linear_stack(instances, tol, max_iter, inits):
    """``solve_linear_eg`` of same-shape markets with the same demanded
    goods, their interior points advanced in one loop; ``inits`` holds each
    member's ``init_bids`` (a checked n x m matrix) or None."""
    kept, dropped = _drop_undemanded(instances[0].matrix)
    v, budgets = _stack(instances, kept)
    tried = [set() for _ in instances]
    found = [None] * len(instances)

    def polish(k, p, x, theta):
        """The polished candidate of member k's iterate, if it verifies."""
        start = x * p if inits[k] is None else inits[k][:, kept]
        polished = _linear_structure_polish(v[k], budgets[k], p, start, theta, tried[k])
        if polished is None:
            return None
        x_full, p_full = _embed(instances[k], kept, *polished)
        report = verify_kkt_linear(instances[k], x_full, p_full, tol)
        return (x_full, p_full, report) if report.passed else None

    def accept(k, p, x, theta):
        found[k] = polish(k, p, x, theta)
        return found[k] is not None

    steps, last_p, last_x, last_theta = _linear_ipm(v, budgets, max_iter, accept)
    out = []
    for k, inst in enumerate(instances):
        if found[k] is None:
            x_full, p_full = _embed(inst, kept, last_x[k], last_p[k])
            found[k] = (x_full, p_full, verify_kkt_linear(inst, x_full, p_full, tol))
            if not found[k][2].passed and not np.isnan(last_theta[k]):
                # the interior point broke down: polish its last iterate
                # once, split at its theta whether or not the split was clean
                found[k] = polish(k, last_p[k], last_x[k], last_theta[k]) or found[k]
        x_full, p_full, report = found[k]
        out.append(_equilibrium(x_full, p_full, inst.utilities(x_full), report.residuals,
                                int(steps[k]), report.passed, dropped))
    return out


def solve_linear_eg(instance: Instance, tol: float = DEFAULT_TOL,
                    max_iter: int = MAX_NEWTON_STEPS,
                    init_bids=None) -> MarketEquilibrium:
    """Linear Eisenberg-Gale equilibrium by an interior point on the price dual.

    The iterates of at most ``max_iter`` Newton steps (``iterations``) go to
    ``_linear_structure_polish``; the first candidate ``verify_kkt_linear``
    passes is returned, else the last iterate, converged if that passes;
    failing that, if the interior point broke down before ``max_iter``, the
    last iterate is polished at its own split, clean or not, and returned
    if it passes.
    The polish fixes exact prices by a spanning forest of the bang-per-buck
    ties; among tied equilibria it returns the spending closest in least
    squares to ``init_bids`` (a spending matrix) or, without it, to the
    iterate's spending x_ij p_j, found by one m x m Cholesky solve; where
    that has a negative entry, a feasible LP vertex instead.  This is a
    stack of one in the loop ``solve_eg_many`` runs.
    """
    if instance.kind != LINEAR:
        raise ValueError("solve_linear_eg requires linear valuations")
    init = None
    if init_bids is not None:
        init = np.asarray(init_bids, dtype=float)
        if init.shape != (instance.n, instance.m) or not (init >= 0).all():
            raise ValueError("init_bids must be a non-negative n x m matrix")
    return _solve_linear_stack([instance], tol, max_iter, [init])[0]


# ---------------------------------------------------------------------------
# Leontief solver: interior point on the price-space dual


def _solve_leontief_stack(instances, tol, max_iter):
    """``solve_leontief_dual`` of same-shape markets with the same demanded
    goods, their interior points advanced in one loop; a member leaves the
    stack once it stops."""
    kept, dropped = _drop_undemanded(instances[0].matrix)
    v_all, budgets = _stack(instances, kept)
    K, n, m = v_all.shape
    total = budgets.sum(axis=1)
    b = budgets / total[:, None]
    margin = np.minimum(tol, np.maximum(min(1e-10, 0.01 * tol),
                                        64 * np.finfo(float).eps * total))
    steps, last_u, last_cut = np.zeros(K, dtype=int), np.zeros((K, n)), np.zeros((K, m))
    ids, v = np.arange(K), v_all

    def leave(gone, it):
        k = ids[gone]
        steps[k], last_u[k], last_cut[k] = it, u[gone], cut[gone]

    def merit(p, z):
        return (np.abs(1.0 - _rmatvec(v, b / _matvec(v, p)) - z).sum(axis=1)
                + _rowdot(p, z))

    p = (b[:, None, :] @ (v / v.sum(axis=2, keepdims=True)))[:, 0]
    z = np.ones_like(p)
    for it in range(max_iter + 1):
        cut = np.where(p <= ZERO_PRICE_FRACTION, 0.0, p)
        phi = _matvec(v, cut)
        if not (phi > 0).all():
            uncut = ~(phi > 0).all(axis=1)
            cut = np.where(uncut[:, None], p, cut)
            phi = np.where(uncut[:, None], _matvec(v, p), phi)
        u = b / phi
        # goods' excess supply; small enough, the verifier is worth running
        excess = 1.0 - (u[:, None, :] @ v)[:, 0]
        cheap = np.maximum(np.where(cut > 0, np.abs(excess), 0.0).max(axis=1),
                           -excess.min(axis=1))
        check = np.nonzero(cheap <= margin)[0]
        if check.size or it == max_iter:
            done = np.full(ids.size, it == max_iter)
            for j in check:
                k = ids[j]
                x_full, p_full = _embed(instances[k], kept, u[j][:, None] * v[j],
                                        cut[j] * total[k])
                done[j] |= verify_kkt_leontief(instances[k], x_full, p_full,
                                               margin[j]).passed
            if done.any():
                leave(done, it)
                if done.all():
                    break
                ids, v, b, margin, p, z, u, cut = _take(~done, ids, v, b, margin, p, z,
                                                        u, cut)
        phi = _matvec(v, p)
        r_d, pz = 1.0 - _rmatvec(v, b / phi) - z, p * z
        gap = pz.sum(axis=1)
        factors = _newton_factors(z / p, v, b / phi**2)
        if any(fac is None for fac in factors):
            ok = np.array([fac is not None for fac in factors])
            leave(~ok, it)
            if not ok.any():
                break
            ids, v, b, margin, p, z, u, cut, r_d, pz, gap, factors = _take(
                ok, ids, v, b, margin, p, z, u, cut, r_d, pz, gap, factors)

        def direction(r_c):
            dp = _cho_solve(factors, r_c / p - r_d)
            return dp, (r_c - z * dp) / p

        def max_step(dp, dz):
            return _longest_steps(np.maximum((-dp / p).max(axis=1), (-dz / z).max(axis=1)))

        dp, dz = direction(-pz)
        a_aff = np.minimum(1.0, max_step(dp, dz))[:, None]
        sigma = _cubes(_rowdot(p + a_aff * dp, z + a_aff * dz) / gap)
        centre = (sigma * gap / m)[:, None] - pz
        r_norm = np.abs(r_d).sum(axis=1)
        (p, z), moved = _safeguarded_steps((p, z), direction, max_step, merit,
                                           r_norm + gap, -r_norm - (1.0 - sigma) * gap,
                                           centre, centre - dp * dz)
        if not moved.all():
            leave(~moved, it)
            if not moved.any():
                break
            ids, v, b, margin, p, z = _take(moved, ids, v, b, margin, p, z)

    out = []
    for k, inst in enumerate(instances):
        u = last_u[k]
        x_full, p_full = _embed(inst, kept, u[:, None] * v_all[k], last_cut[k] * total[k])
        report = verify_kkt_leontief(inst, x_full, p_full, tol)
        out.append(_equilibrium(x_full, p_full, u, report.residuals, int(steps[k]),
                                report.passed, dropped))
    return out


def solve_leontief_dual(instance: Instance, tol: float = DEFAULT_TOL,
                        max_iter: int = MAX_NEWTON_STEPS) -> MarketEquilibrium:
    """Leontief equilibrium by an interior point on the price dual.

    The dual is min sum_j p_j - sum_i B_i log phi_i(p), phi_i(p) = v_i . p,
    over p >= 0.  Mehrotra's predictor-corrector drives p_j z_j to zero,
    z = 1 - V^T (B / phi) the dual gradient, under the merit sum |g - z| +
    sum p z; each direction is one m x m Cholesky solve.  After each of at
    most ``max_iter`` Newton steps (``iterations``), prices below
    ZERO_PRICE_FRACTION of the budget are cut to zero and u_i = B_i /
    phi_i(p), x_ij = u_i v_ij read off the rest.  The solve stops once
    ``verify_kkt_leontief`` passes that point at a margin below tol:
    min(1e-10, tol / 100), raised to the rounding of the total budget's
    spending (64 machine epsilons of it, since the budget residual is in
    money) but never above tol.  Converged means it passes at ``tol``.
    This is a stack of one in the loop ``solve_eg_many`` runs.
    """
    if instance.kind != LEONTIEF:
        raise ValueError("solve_leontief_dual requires Leontief valuations")
    return _solve_leontief_stack([instance], tol, max_iter)[0]


# ---------------------------------------------------------------------------
# CES solver: damped Newton on the price-space dual


def solve_ces_eg(instance: Instance, tol: float = DEFAULT_TOL,
                 max_iter: int = MAX_NEWTON_STEPS) -> MarketEquilibrium:
    """CES Eisenberg-Gale equilibrium by damped Newton on the price dual.

    e_i(p) = (sum_j v_ij^sigma p_j^(1-sigma))^(1/(1-sigma)), sigma = 1/(1-rho)
    is smooth for rho < 1; agent i spends the share q_ij ~ v_ij^sigma
    p_j^(1-sigma) of B_i on good j, its exact demand, so the dual gradient
    is the excess supply.  Steps are in relative prices, where the Hessian
    diag(sigma s) + (1 - sigma) sum_i B_i q_i q_i^T (s_j the spending on
    good j) is at least diag(s), which stands in should Cholesky fail.
    Converged: goods clear to tol within ``max_iter`` Newton steps
    (``iterations``).  At rho = 1 CES is linear: ``solve_linear_eg``.
    """
    if instance.kind != CES:
        raise ValueError("solve_ces_eg requires CES valuations")
    rho = instance.valuations.rho
    if rho == 1.0:
        linear = Instance(instance.n, instance.m, instance.budgets,
                          ValuationProfile(LINEAR, instance.matrix))
        return solve_linear_eg(linear, tol, max_iter)
    kept, dropped = _drop_undemanded(instance.matrix)
    v = instance.matrix[:, kept]
    total = instance.total_budget
    b = instance.budgets / total
    sigma = 1.0 / (1.0 - rho)
    with np.errstate(divide="ignore"):
        log_w = sigma * np.log(v)

    def shares(p):
        a = log_w + (1.0 - sigma) * np.log(p)
        top = a.max(axis=1, keepdims=True)
        e = np.exp(a - top)
        z = e.sum(axis=1, keepdims=True)
        log_e = (top[:, 0] + np.log(z[:, 0])) / (1.0 - sigma)
        return e / z, float(p.sum() - b @ log_e)

    p = b @ (v / v.sum(axis=1, keepdims=True))
    q, f = shares(p)
    for it in range(max_iter + 1):
        spend = b @ q
        g = 1.0 - spend / p
        if np.abs(g).max() <= tol or it == max_iter:
            break
        fac = _newton_factors((sigma * spend)[None], q[None], ((1.0 - sigma) * b)[None])
        if fac[0] is not None:
            dz = -_cho_solve(fac, (p * g)[None])[0]
        else:
            dz = -p * g / np.maximum(spend, 1e-300)
        decrement = float(-g @ (p * dz))
        t = min(1.0, 0.99 / max(float(-dz.min()), 1e-300))
        while True:
            cand = p * (1.0 + t * dz)
            q_new, f_new = shares(cand)
            # below 1e-12 the decrease is lost in the rounding of f
            if f_new <= f - 0.25 * t * decrement or decrement <= 1e-12 or t < 1e-12:
                break
            t *= 0.5
        if t < 1e-12:
            break
        p, q, f = cand, q_new, f_new
    x_full, p_full = _embed(instance, kept, b[:, None] * q / p, p * total)
    budget, clearing, comp = _market_residuals(instance.budgets, x_full, p_full, tol)
    # stationarity is exact: each bundle is the agent's CES demand at p
    return _equilibrium(x_full, p_full, instance.utilities(x_full),
                        Residuals(0.0, comp, budget, clearing), it,
                        bool(np.abs(g).max() <= tol), dropped)


def solve_eg(instance: Instance, tol: float = DEFAULT_TOL,
             max_iter: int = MAX_NEWTON_STEPS, init_bids=None) -> MarketEquilibrium:
    """Dispatch to the solver matching the instance's valuation kind.

    This is the one Eisenberg-Gale solve path for a single market;
    ``solve_eg_many`` solves many at once.  ``max_iter`` caps the Newton
    steps of every solver, and ``iterations`` counts them.  ``init_bids``
    selects among tied linear equilibria (see ``solve_linear_eg``); the
    other kinds ignore it.
    """
    if instance.kind == LINEAR:
        return solve_linear_eg(instance, tol, max_iter, init_bids)
    if instance.kind == LEONTIEF:
        return solve_leontief_dual(instance, tol, max_iter)
    return solve_ces_eg(instance, tol, max_iter)


def solve_eg_many(instances, tol: float = DEFAULT_TOL,
                  max_iter: int = MAX_NEWTON_STEPS) -> list[MarketEquilibrium]:
    """``solve_eg`` of each market, in order; the Fisher game solves its
    report deviations through it.

    Linear and Leontief markets of one kind, agent count and set of demanded
    goods share one interior-point loop, in stacks of at most STACK_ENTRIES
    entries per K x n x m array; each member takes its own Newton steps, is
    polished and verified alone and leaves the stack when it stops, so its
    result is the one ``solve_eg`` gives.  CES markets are solved one at a
    time.
    """
    out = [None] * len(instances)
    groups: dict = {}
    for i, inst in enumerate(instances):
        if inst.kind == CES:
            out[i] = solve_ces_eg(inst, tol, max_iter)
            continue
        kept = _drop_undemanded(inst.matrix)[0]
        key = (inst.kind, inst.n, inst.m, kept.tobytes())
        groups.setdefault(key, (kept.size, []))[1].append(i)
    for (kind, n, _, _), (m_kept, members) in groups.items():
        size = max(1, STACK_ENTRIES // (n * m_kept))
        for start in range(0, len(members), size):
            chunk = members[start:start + size]
            stack = [instances[i] for i in chunk]
            if kind == LINEAR:
                eqs = _solve_linear_stack(stack, tol, max_iter, [None] * len(stack))
            else:
                eqs = _solve_leontief_stack(stack, tol, max_iter)
            for i, eq in zip(chunk, eqs):
                out[i] = eq
    return out


# ---------------------------------------------------------------------------
# Optimal bundles, approximate equilibria, duality gap


def optimal_bundle_utility(profile: ValuationProfile, agent: int, budget: float,
                           prices) -> float:
    """Best utility the agent can afford at the given prices.

    This is the unconstrained-supply demand value: the bundle may exceed one
    unit of a good, exactly as the approximate-equilibrium definition
    requires.  A demanded good priced at zero makes the value infinite
    (reported as math.inf rather than raising).  Every kind has a closed
    form.
    """
    p = np.asarray(prices, dtype=float)
    values = profile.matrix[agent]
    demanded = values > 0
    if budget <= 0:
        raise ValueError("budget must be positive")
    if profile.kind == LEONTIEF:
        phi = float(values @ p)
        if phi <= 0:
            return math.inf
        return budget / phi
    if (p[demanded] <= 0).any():
        return math.inf
    v, p = values[demanded], p[demanded]
    if profile.kind == LINEAR or profile.rho == 1.0:
        return float(budget * (v / p).max())
    # B / e(p), e(p) = (sum_j v_j^sigma p_j^(1-sigma))^(1/(1-sigma)) the cost
    # of one unit of CES utility, sigma = 1/(1-rho); in logs, so wide price
    # ranges neither overflow nor underflow
    sigma = 1.0 / (1.0 - profile.rho)
    a = sigma * np.log(v) + (1.0 - sigma) * np.log(p)
    top = float(a.max())
    log_e = (top + math.log(float(np.exp(a - top).sum()))) / (1.0 - sigma)
    return float(np.exp(math.log(budget) - log_e))


def verify_eps_market_eq(instance: Instance, allocation, prices, eps: float,
                         tol: float = DEFAULT_TOL) -> EpsEquilibriumReport:
    """Certify (allocation, prices) as an eps-approximate market equilibrium.

    Checks that positively priced goods are fully sold, budgets are
    exhausted, and each agent's affordable optimum exceeds its utility by at
    most a factor (1 + eps).  Also reports the smallest eps that would pass.
    """
    x = np.asarray(allocation, dtype=float)
    p = np.asarray(prices, dtype=float)
    budget, clearing, _ = _market_residuals(instance.budgets, x, p, tol)
    budget_ok = budget <= tol * max(1.0, float(instance.budgets.max()))
    clearing_ok = clearing <= tol
    u_cur = instance.utilities(x)
    u_opt = np.array([optimal_bundle_utility(instance.valuations, i,
                                             float(instance.budgets[i]), p)
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
