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
for CES, each advancing a stack of markets in one loop.  The Cholesky
routines are LAPACK's, bound from scipy.linalg at the first factorization
(``_lapack``), so importing the package loads numpy only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (CES, DEFAULT_TOL, LEONTIEF, LINEAR, Instance,
                   ValuationProfile, _ces_eval, _checked_array, _readonly)

#: Prices below this fraction of the total budget are reported as zero.
ZERO_PRICE_FRACTION = 1e-9

#: Default cap on the Newton steps of every solver.
MAX_NEWTON_STEPS = 100

#: Duality gap, over the total budget, below which the linear polish runs.
POLISH_GAP = 1e-2

#: Most entries in one K x n x m array of a stacked solve (``_solve_profiles``).
STACK_ENTRIES = 2 ** 14

#: A polished spending's entry or residual at most this fraction of the
#: market's largest budget is rounding (``linprog``).
ROUNDING = 1e-12


@functools.cache
def _lapack():
    """LAPACK's double ``potrf`` and ``potrs``, bound at the first Newton
    factorization: importing scipy.linalg takes longer than most small
    solves, and a process that solves nothing never pays for it."""
    from scipy.linalg import get_lapack_funcs
    return get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


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


class _Solved(NamedTuple):
    """The results of a stack of P markets over n agents and m goods, member
    by member: P x n x m allocations and P x n reported utilities (zero for
    an agent outside the market), P x m prices, P x 4 residuals in
    ``Residuals`` field order, Newton steps, and whether each converged:
    passed its verifier with every utility finite."""

    allocations: np.ndarray
    prices: np.ndarray
    utilities: np.ndarray
    residuals: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


def _member(solved: _Solved, k: int, matrix) -> MarketEquilibrium:
    """Member k of a stack's results as one market's equilibrium; its goods
    that no row of ``matrix`` values are the dropped ones."""
    dropped = tuple(int(j) for j in np.nonzero(~(matrix > 0).any(axis=0))[0])
    return MarketEquilibrium(_readonly(solved.allocations[k]), _readonly(solved.prices[k]),
                             _readonly(solved.utilities[k]),
                             Residuals(*solved.residuals[k].tolist()),
                             int(solved.iterations[k]), bool(solved.converged[k]), dropped)


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
    """Budget, clearing, and complementarity residuals shared by both kinds:
    of one market, or of each member of a stack (K x n budgets, K x n x m
    allocations, K x m prices, ``tol`` a scalar or one per member)."""
    spend = (allocation @ prices[..., None])[..., 0]
    budget = np.abs(spend - budgets).max(axis=-1)
    colsum = allocation.sum(axis=-2)
    # fmax: a NaN price sum leaves the threshold at tol
    priced = prices > (tol * np.fmax(1.0, prices.sum(axis=-1)))[..., None]
    # every good may not be oversold, a priced one must also be sold out
    clearing = np.where(priced, np.abs(colsum - 1.0),
                        np.maximum(colsum - 1.0, 0.0)).max(axis=-1)  # NaN propagates
    complementarity = (prices * np.maximum(1.0 - colsum, 0.0)).max(axis=-1)
    # a negative holding counts against clearing, a negative price against
    # complementarity; each is clamped at +0.0 first, so that a feasible
    # point keeps its residuals' bits (a max of 0.0 and -0.0 may be either)
    clearing = np.maximum(clearing, np.maximum(-allocation.min(axis=(-2, -1)), 0.0))
    complementarity = np.maximum(complementarity, np.maximum(-prices.min(axis=-1), 0.0))
    return budget, clearing, complementarity


def _kkt_reports(stationarity, budget, clearing, complementarity, tol):
    """Each member's K x 4 residuals, in ``Residuals`` field order, and
    whether it passes: its worst residual at most tol (a NaN fails)."""
    res = np.array((stationarity, complementarity, budget, clearing)).T
    return res, res.max(axis=1) <= tol


def _kkt_linear_many(v, budgets, x, p, tol):
    """``verify_kkt_linear`` of each member of a stack: K x n x m
    valuations and allocations, K x n budgets, K x m prices, ``tol`` a
    scalar or one per member.  Returns ``_kkt_reports``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        bpb = np.where(v > 0, v / np.where(p > 0, p, 0.0)[:, None, :], 0.0)
        alpha = bpb.max(axis=2, keepdims=True)
        shortfall = (alpha - bpb) / np.maximum(alpha, 1e-300)
    # where a demanded good is free, any finite-bpb purchase is suboptimal
    rel = np.where(np.isfinite(alpha), shortfall, np.where(np.isinf(bpb), 0.0, 1.0))
    stationarity = np.where(x > 1e-9, rel, 0.0).max(axis=(1, 2))
    return _kkt_reports(stationarity, *_market_residuals(budgets, x, p, tol), tol)


def _kkt_leontief_many(v, budgets, x, p, tol):
    """``verify_kkt_leontief`` of each member of a stack, shaped as for
    ``_kkt_linear_many``."""
    phi = _matvec(v, p)
    nonpos = phi <= 0
    # a member with phi_i <= 0 fails at infinite stationarity, so its
    # ratios are taken at phi_i = 1 only to keep the division quiet; a
    # subnormal phi_i overflows B_i / phi_i, and its ratios fail as NaN
    with np.errstate(over="ignore", invalid="ignore"):
        u_star = (budgets / np.where(nonpos, 1.0, phi))[:, :, None]
        dev = np.abs(x / np.where(v > 0, v, 1.0) - u_star) / np.maximum(u_star, 1e-300)
    stationarity = np.where(nonpos.any(axis=1), math.inf,
                            np.where(v > 0, dev, 0.0).max(axis=(1, 2)))
    return _kkt_reports(stationarity, *_market_residuals(budgets, x, p, tol), tol)


def _checked_point(instance: Instance, allocation, prices):
    """The allocation and prices as float arrays, checked to be n x m and of
    length m: numpy would broadcast a misshapen one into residuals."""
    x = np.asarray(allocation, dtype=float)
    p = np.asarray(prices, dtype=float)
    if x.shape != (instance.n, instance.m):
        raise ValueError(f"allocation must be an n x m = {instance.n} x {instance.m} "
                         f"matrix, not of shape {x.shape}")
    if p.shape != (instance.m,):
        raise ValueError(f"prices must be a length-m = {instance.m} vector, "
                         f"not of shape {p.shape}")
    return x, p


def _verify_one(many, instance: Instance, allocation, prices, tol) -> KKTReport:
    """A stack of one through ``many``."""
    x, p = _checked_point(instance, allocation, prices)
    res, passed = many(instance.matrix[None], instance.budgets[None], x[None], p[None], tol)
    return KKTReport(Residuals(*res[0].tolist()), bool(passed[0]))


def verify_kkt_linear(instance: Instance, allocation, prices,
                      tol: float = DEFAULT_TOL) -> KKTReport:
    """Check the linear-market optimality conditions at (allocation, prices).

    Stationarity is the worst relative bang-per-buck shortfall over goods the
    agent actually buys (entries above 1e-9); budget and clearing residuals
    are absolute.  Passing means every residual is at most tol.  An
    allocation that is not n x m, or prices not of length m, raise
    ValueError.  The solvers check whole stacks by the same code.
    """
    if instance.kind != LINEAR:
        raise ValueError("verify_kkt_linear requires linear valuations")
    return _verify_one(_kkt_linear_many, instance, allocation, prices, tol)


def verify_kkt_leontief(instance: Instance, allocation, prices,
                        tol: float = DEFAULT_TOL) -> KKTReport:
    """Check the Leontief conditions: equal consumption ratios matching
    B_i / phi_i(p), exhausted budgets, and market clearing.  Shapes are
    checked as in ``verify_kkt_linear``."""
    if instance.kind != LEONTIEF:
        raise ValueError("verify_kkt_leontief requires Leontief valuations")
    return _verify_one(_kkt_leontief_many, instance, allocation, prices, tol)


# ---------------------------------------------------------------------------
# Linear solver: interior point on the price-space dual, then an exact polish


def _kept_columns(v):
    """The goods ``kept`` that some agent of a stack's first member values,
    and the stack's valuations of them, each member laid out column by
    column as ``matrix[:, kept]`` is: the solves' rounding depends on the
    layout of their arrays, not only on their values."""
    kept = np.nonzero((v[0] > 0).any(axis=0))[0]
    return kept, np.ascontiguousarray(v.transpose(0, 2, 1)[:, kept]).transpose(0, 2, 1)


def _embed(m: int, kept, x, p):
    """Put the kept goods' allocations and prices back among all m goods:
    n x m and length m for one market, K x n x m and K x m for a stack."""
    x_full = np.zeros(x.shape[:-1] + (m,))
    x_full[..., kept] = x
    p_full = np.zeros(p.shape[:-1] + (m,))
    p_full[..., kept] = p
    return x_full, p_full


def _solved(x, p, u, residuals, iterations, passed):
    """A stack's ``_Solved``: a member converged if it passed and every
    utility is finite."""
    return _Solved(x, p, u, residuals, iterations, passed & np.isfinite(u).all(axis=1))


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
    potrf, _ = _lapack()
    factors = []
    for ak in a:
        fac, info = potrf(ak, lower=False, clean=False)
        factors.append(fac if info == 0 else None)
    return factors


def _cho_solve(factors, rhs):
    """Each member's Newton system solved by its factor, one ``potrs`` each;
    nan for a member without one, so that it takes no step."""
    _, potrs = _lapack()
    out = np.empty_like(rhs)
    for k, fac in enumerate(factors):
        out[k] = math.nan if fac is None else potrs(fac, rhs[k], lower=False)[0]
    return out


def _take(keep, *arrays):
    """The members ``keep`` (a mask or indices) of each stacked array."""
    return [a[keep] for a in arrays]


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
    r_c, aligned with ``point`` (arrays past the point's go to ``max_step``
    only), and ``max_step`` its largest step keeping each member interior;
    ``slope`` is the merit's rate along the centred direction.  Mehrotra's
    corrector need not descend (it can cycle), so its step, 0.995 of the way
    to the boundary, is taken only if it cuts the merit by 1e-4 of
    ``slope``; else the centred step backtracks until it does.  Returns the
    new point and the mask of members that moved; a member where neither
    step descends keeps its point.
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


def _project_spending(kk, ii, jj, s0, budgets, p_hat, keep_good):
    """Least-squares correction of the spending ``s0`` on the edges (kk, ii,
    jj), each a member, agent and good of a stack, onto each member's row
    sums B_i and the column sums p_hat_j of its ``keep_good`` goods.

    That is s0 + A^T y with A A^T y = b - A s0, A a member's edge incidence.
    The agent block of A A^T is diagonal (the degrees), so the agents are
    eliminated; left is the goods' Laplacian, each agent i joining its goods
    with weight 1 / deg_i, grounded at the goods not kept (one per
    component): one m x m Cholesky solve per member gives the goods' part z
    of y.  A member whose grounded Laplacian Cholesky rejects gets nan.
    """
    K, n = budgets.shape
    m = p_hat.shape[1]
    a, g = kk * n + ii, kk * m + jj
    deg = np.bincount(a, minlength=K * n)
    res_a = (budgets.ravel() - np.bincount(a, s0, K * n)) / deg
    res_g = (p_hat.ravel() - np.bincount(g, s0, K * m)
             - np.bincount(g, res_a[a], K * m)).reshape(K, m)
    # an agent with one edge adds as much to the Laplacian's diagonal as it
    # takes off: only agents that split their budget couple goods
    split = deg.reshape(K, n) > 1
    rows = split.any(axis=0)
    w = np.zeros((K, n, m))
    w[kk, ii, jj] = 1.0
    w = w[:, rows] * split[:, rows, None]
    lap = -((w.transpose(0, 2, 1) / deg.reshape(K, n)[:, None, rows]) @ w)
    lap.reshape(K, m * m)[:, ::m + 1] += w.sum(axis=1)
    potrf, potrs = _lapack()
    z = np.zeros((K, m))
    for k, keep in enumerate(keep_good):
        if keep.any():
            fac, info = potrf(lap[k][np.ix_(keep, keep)], lower=False, clean=False)
            z[k, keep] = math.nan if info else potrs(fac, res_g[k, keep], lower=False)[0]
    z = z.ravel()
    return s0 + (res_a - np.bincount(a, z[g], K * n) / deg)[a] + z[g]


#: The fallback's result, with the fields of scipy's ``linprog`` the callers read.
TieSpending = NamedTuple("TieSpending", [("x", np.ndarray), ("success", bool)])


def linprog(ii, jj, s, budgets, prices) -> TieSpending:
    """The polish's fallback for a least-squares spending ``s`` on the tie
    edges (ii, jj) with a negative entry: entries at most ROUNDING of the
    largest budget below zero are clipped, the others' edges fixed at zero
    and the rest of ``s`` projected again until none is negative (Lawson and
    Hanson's active set without release steps).  ``success`` (``x`` carries
    every budget and price to that rounding) is sound, not exact."""
    n, m, tol = len(budgets), len(prices), ROUNDING * budgets.max()
    x, free = s, np.ones(s.size, dtype=bool)
    by_price = np.argsort(-prices, kind="stable")
    while (x < -tol).any():
        free &= x >= -tol
        a, g = ii[free], jj[free]
        label = np.array(_spanning_potentials(n + m, a.tolist(), (n + g).tolist(),
                                              [0.0] * a.size)[0])
        # no spending leaves an agent without an edge, or a component's
        # budgets apart from its prices (a good without an edge is one)
        apart = np.abs(np.bincount(label[:n], budgets, n + m)
                       - np.bincount(label[n:], prices, n + m)).max() > tol
        if apart or not np.bincount(a, minlength=n).all():
            return TieSpending(x, False)
        # each component is grounded at its dearest good
        keep = np.ones(m, dtype=bool)
        keep[by_price[np.unique(label[n:][by_price], return_index=True)[1]]] = False
        x = np.zeros(s.size)
        x[free] = _project_spending(0 * a, a, g, s[free], budgets[None], prices[None], keep[None])
    x = np.maximum(x, 0.0)
    return TieSpending(x, bool(np.abs(np.bincount(ii, x, n) - budgets).max() <= tol
                              and np.abs(np.bincount(jj, x, m) - prices).max() <= tol))


def _spans(kk, count):
    """Each member's slice of edge arrays ordered by member ``kk``."""
    cuts = np.searchsorted(kk, np.arange(count + 1)).tolist()
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def _spanning_potentials(size, agents, goods, log_v):
    """Kruskal's union-find over one member's tie edges, taken in order:
    a union joins the smaller component to the larger, shifting the joined
    nodes' potentials so that each forest edge has q_agent - q_good = log
    v.  Returns the nodes' component labels and potentials."""
    label, q = list(range(size)), [0.0] * size
    members = [[node] for node in label]
    for a, g, w in zip(agents, goods, log_v):
        keep, join, shift = label[a], label[g], q[a] - w - q[g]
        if keep == join:
            continue
        if len(members[keep]) < len(members[join]):
            keep, join, shift = join, keep, -shift
        for node in members[join]:
            label[node] = keep
            q[node] += shift
        members[keep] += members[join]
    return label, q


def _linear_structure_polish(v, budgets, prices, starts, theta, tried):
    """Try to read off the exact equilibria from the near-converged iterates
    of a stack: member k's valuations v_k, budgets, positive prices,
    spending ``starts[k]`` and bang-per-buck tolerance theta_k.

    Kruskal's algorithm takes a minimum spanning forest, by slack, of the
    edges within theta; its union-find carries potentials q (log a_i for
    agents, -log p_j for goods), each forest edge fixing q_i - q_j = log
    v_ij, exact in the valuation data.  So one pass gives the components and
    exact log-prices; edges that disagree with them by over 1e-8 are
    dropped.  The kept edges' spending is ``_project_spending`` of the
    start, or, when that has a negative entry, ``linprog``'s re-projection,
    and a member that fails is no candidate.  Only the union-find runs
    member by member.  Returns the members with a candidate, in order, and
    their stacked allocations and prices; the caller verifies them.
    ``tried[k]`` holds the edge sets member k has already solved.
    """
    K, n, m = v.shape
    none = (np.zeros(0, dtype=int), np.zeros((0, n, m)), np.zeros((0, m)))
    bpb = v / prices[:, None, :]
    slack = 1.0 - bpb / bpb.max(axis=2, keepdims=True)
    edges = (v > 0) & (slack <= theta[:, None, None])
    live = np.nonzero(edges.any(axis=1).all(axis=1))[0]
    if not live.size:
        return none
    v, budgets, starts, slack, edges = _take(live, v, budgets, starts, slack, edges)
    L, size = live.size, n + m

    # agents are nodes 0..n-1 and goods n..n+m-1 of each member
    kk, ii, jj = np.nonzero(edges)
    log_v = np.log(v[kk, ii, jj])
    order = np.lexsort((slack[kk, ii, jj], kk))
    agents, goods, weights = (ii[order].tolist(), (n + jj[order]).tolist(),
                              log_v[order].tolist())
    label, q = np.empty((L, size), dtype=int), np.empty((L, size))
    for k, span in enumerate(_spans(kk, L)):
        label[k], q[k] = _spanning_potentials(size, agents[span], goods[span],
                                              weights[span])
    # a component's id is its root's label, offset by the member's
    comp = label + size * np.arange(L)[:, None]
    consistent = np.abs(log_v - q[kk, ii] + q[kk, n + jj]) <= 1e-8
    kk, ii, jj = kk[consistent], ii[consistent], jj[consistent]

    agent_comp, good_comp = comp[:, :n], comp[:, n:]
    # a component whose dearest p_hat lies beyond e^+-600 is priced relative
    # to that good: its scaling then cannot overflow (for budgets to 1e47)
    log_p = -q[:, n:]
    if np.abs(log_p).max() > 600.0:
        top = np.full(L * size, -math.inf)
        np.maximum.at(top, good_comp.ravel(), log_p.ravel())
        log_p = log_p - np.where(np.abs(top) > 600.0, top, 0.0)[good_comp]
    p_hat = np.exp(log_p)
    # every component holds an agent and a good; an id that is no root's
    # counts nothing and is not read
    p_hat *= (np.bincount(agent_comp.ravel(), budgets.ravel(), L * size)[good_comp]
              / np.bincount(good_comp.ravel(), p_hat.ravel(), L * size)[good_comp])

    # every agent spends on its kept edges, so they must be its best buys
    bpb_hat = np.where(v > 0, v / p_hat[:, None, :], 0.0)
    ok = np.ones(L, dtype=bool)
    ok[kk[bpb_hat[kk, ii, jj] < bpb_hat.max(axis=2)[kk, ii] * (1.0 - 1e-6)]] = False
    for k, span in enumerate(_spans(kk, L)):
        if ok[k]:
            key = (ii[span].tobytes(), jj[span].tobytes())
            ok[k] = key not in tried[live[k]]
            tried[live[k]].add(key)
    if not ok.any():
        return none

    # one clearing equation per component is redundant; the one dropped is
    # the dearest good's, least hurt by its rounding
    by_price = np.argsort(-p_hat, axis=1, kind="stable")
    first = np.unique(np.take_along_axis(good_comp, by_price, axis=1),
                      return_index=True)[1]
    keep_good = np.ones((L, m), dtype=bool)
    keep_good[first // m, by_price.ravel()[first]] = False
    kept = ok[kk]
    kk, ii, jj = np.cumsum(ok)[kk[kept]] - 1, ii[kept], jj[kept]
    ks = np.nonzero(ok)[0]
    budgets, p_hat = budgets[ks], p_hat[ks]
    s = _project_spending(kk, ii, jj, starts[ks][kk, ii, jj], budgets, p_hat,
                          keep_good[ks])
    for k, span in enumerate(_spans(kk, ks.size)):
        if not (s[span] >= 0).all():
            res = linprog(ii[span], jj[span], s[span], budgets[k], p_hat[k])
            ok[ks[k]] = res.success
            s[span] = res.x
    spend = np.zeros((ks.size, n, m))
    spend[kk, ii, jj] = s
    hit = ok[ks]
    return live[ks[hit]], spend[hit] / p_hat[hit, None, :], p_hat[hit]


def _solve_linear_stack(v_full, budgets, tol, max_iter, inits):
    """``solve_linear_eg`` of a stack of markets with the same demanded
    goods: K x n x m valuations and K x n budgets, both C-contiguous;
    ``inits`` holds each member's ``init_bids`` (a checked n x m matrix) or
    None.

    The interior point works on the linear EG dual: with e_i(p) = min_j p_j
    / v_ij it is min sum_j p_j - sum_i B_i log beta_i subject to s_ij = p_j
    - beta_i v_ij >= 0 on the edges v_ij > 0, whose multipliers x_ij are
    the allocation.  Mehrotra's predictor-corrector drives x_ij s_ij to
    zero, each step cutting the duality gap ``merit`` (else a backtracked
    plain Newton step is taken); the agents are eliminated, so a direction
    is one m x m Cholesky factorization.  One loop advances every member by
    its own Newton steps.

    A member's result is settled where it leaves the stack, the top of an
    iteration.  Once a step brings its gap sum x_ij s_ij / sum B_i to at
    most POLISH_GAP with a clean ``_tie_split``, its iterate is polished,
    together with every other member's that did at the same iteration, and
    it leaves if a candidate verifies.  It also leaves after ``max_iter``
    steps, or when it broke down: no step in the last iteration (no
    descent, or a Newton matrix Cholesky rejects), or, before the cap, a gap
    at rounding level (or nan) or a slack so small (or zero) that x_ij /
    s_ij would overflow.  A member that leaves unpolished keeps its last
    iterate (zero before its first step), checked at ``tol``; if that fails
    and it broke down after a step, the iterate is polished once at its own
    split, clean or not.  Every check is one ``_kkt_linear_many`` call over
    the members checked at that iteration.  Returns ``_Solved``.
    """
    kept, v_kept = _kept_columns(v_full)
    K, n, m = v_full.shape
    tried = [set() for _ in range(K)]
    # each member's result so far: allocation, prices, residuals, passed
    x_out, p_out, res_out = np.zeros((K, n, m)), np.zeros((K, m)), np.zeros((K, 4))
    passed = np.zeros(K, dtype=bool)

    def check(ks, x, p, take):
        """Verify the members ``ks`` at their kept goods' allocations x and
        prices p; keep the result of each that passes, or of every member
        if ``take``.  Returns the mask of those that pass."""
        x, p = _embed(m, kept, x, p)
        res, ok = _kkt_linear_many(v_full[ks], budgets[ks], x, p, tol)
        keep = ok | take
        j = ks[keep]
        x_out[j], p_out[j], res_out[j], passed[j] = x[keep], p[keep], res[keep], ok[keep]
        return ok

    def polish(ks, p, x, theta):
        """Polish the iterates (prices p, allocations x, splits theta) of
        the members ``ks`` together; a candidate that verifies becomes the
        member's result.  Returns the mask of those that did."""
        starts = x * p[:, None, :]
        for j, k in enumerate(ks):
            if inits[k] is not None:
                starts[j] = inits[k][:, kept]
        hit, x, p = _linear_structure_polish(v_kept[ks], budgets[ks], p, starts, theta,
                                             [tried[k] for k in ks])
        done = np.zeros(len(ks), dtype=bool)
        if hit.size:
            done[hit] = check(ks[hit], x, p, False)
        return done

    total = budgets.sum(axis=1)
    b = budgets / total[:, None]
    v = v_kept / v_kept.max(axis=2, keepdims=True)
    edge = v > 0
    n_edges = edge.sum(axis=(1, 2))
    p = (b[:, None, :] @ (v / v.sum(axis=2, keepdims=True)))[:, 0]
    # a subnormal edge's ratio overflows to inf, but each row holds a 1
    with np.errstate(over="ignore"):
        beta = 0.5 * (p[:, None, :] / np.where(edge, v, 1e-300)).min(axis=2)
    x = edge / edge.sum(axis=1, keepdims=True)
    steps = np.zeros(K, dtype=int)
    ids, moved = np.arange(K), np.ones(K, dtype=bool)

    def state(p, beta, x):
        # u, the slacks s (off the edges x = 0 and s = p > 0, so the arrays
        # stay dense), x * s and the gap sum x_ij s_ij at a point
        u = (v * x).sum(axis=2)
        s = p[:, None, :] - beta[:, :, None] * v
        xs = x * s
        return u, s, xs, xs.sum(axis=(1, 2))

    def value(beta, u, gap):
        # sum x_ij s_ij + sum_i B_i (t_i - 1 - log t_i), t_i = beta_i u_i / B_i:
        # the EG duality gap while the goods clear, zero only at the optimum
        t = beta * u / b
        return gap + _rowdot(b, t - 1.0 - np.log(t))

    evaluated = None  # the point merit saw last, and its state

    def merit(p, beta, x):
        nonlocal evaluated
        evaluated = p, state(p, beta, x)
        return value(beta, evaluated[1][0], evaluated[1][3])

    u, s, xs, gap = state(p, beta, x)
    for it in range(max_iter + 1):
        # the one exit: a member leaves here, whatever the reason
        # x / s is finite while s 2^1020 > x, with s capped at 1 so that the
        # product cannot overflow (x 2^-1020 would be subnormal, and slow)
        ok = moved & (gap > 1e-15) & (np.minimum(s, 1.0) * 2.0 ** 1020 > x).all(axis=(1, 2))
        near = np.nonzero(moved & (gap <= POLISH_GAP))[0]
        if near.size or it == max_iter or not ok.all():
            done = np.zeros(ids.size, dtype=bool)
            if near.size:
                split = ((p, x, s, edge) if near.size == ids.size
                         else _take(near, p, x, s, edge))
                theta, clean = _tie_split(*split)
                if clean.any():
                    j = near[clean]
                    done[j] = polish(ids[j], p[j] * total[j, None], x[j], theta[clean])
            # at the cap only a member that took no step has broken down
            broke = ~done & ~(moved if it == max_iter else ok)
            gone = done | broke | (it == max_iter)
            if gone.any():
                steps[ids[gone]] = it - ~moved[gone]
                j = np.nonzero(gone & ~done)[0]
                if j.size:
                    # a member leaving unpolished keeps its last iterate (zero
                    # before its first step); failing, one that broke down
                    # after a step is polished once at its own split
                    first = steps[ids[j]] == 0
                    last_p = np.where(first[:, None], 0.0, p[j] * total[j, None])
                    last_x = np.where(first[:, None, None], 0.0, x[j])
                    fail = ~check(ids[j], last_x, last_p, True) & broke[j] & ~first
                    if fail.any():
                        f = j[fail]
                        polish(ids[f], last_p[fail], last_x[fail],
                               _tie_split(p[f], x[f], s[f], edge[f])[0])
                if gone.all():
                    break
                v, b, edge, n_edges, total, ids, moved, p, beta, x, u, s, xs, gap = _take(
                    ~gone, v, b, edge, n_edges, total, ids, moved, p, beta, x, u, s, xs, gap)
        d = x / s
        w = d * v
        # beta_i u_i = B_i linearized in both factors, like x_ij s_ij = mu
        h = u / beta + (w * v).sum(axis=2)
        factors = _newton_factors(d.sum(axis=1), w, -1.0 / h)
        r_p, r_d = 1.0 - x.sum(axis=1), u - b / beta
        mu = gap / n_edges
        x_edge = np.where(edge, x, 1.0)

        def direction(r_c):
            # the step in (p, beta, x), then the step ds in the slacks
            t = r_c / s
            a = -r_d - (v * t).sum(axis=2)
            dp = _cho_solve(factors, _rmatvec(w, a / h) - r_p + t.sum(axis=1))
            db = (a + _matvec(w, dp)) / h
            ds = dp[:, None, :] - v * db[:, :, None]
            return dp, db, t - d * ds, ds

        def max_step(dp, db, dx, ds):
            # largest step keeping beta, s (hence p) and x positive
            return _longest_steps(np.maximum(np.maximum(
                (-db / beta).max(axis=1), (-ds / s).max(axis=(1, 2))),
                (-dx / x_edge).max(axis=(1, 2))))

        dp, db, dx, ds = direction(-xs)
        a_aff = np.minimum(1.0, max_step(dp, db, dx, ds))[:, None, None]
        sigma = _cubes(((x + a_aff * dx) * (s + a_aff * ds)).sum(axis=(1, 2)) / gap)
        centre = np.where(edge, (sigma * mu)[:, None, None] - xs, 0.0)
        # the merit falls at this rate along the Newton direction to centre
        slope = -(1.0 - sigma) * gap - ((beta * u - b) ** 2 / (beta * u)).sum(axis=1)
        (p, beta, x), moved = _safeguarded_steps(
            (p, beta, x), direction, max_step, merit, value(beta, u, gap), slope, centre,
            centre - np.where(edge, dx * ds, 0.0))
        # where every member took the corrector's step, merit saw that point last
        u, s, xs, gap = evaluated[1] if evaluated[0] is p else state(p, beta, x)
    return _solved(x_out, p_out, (v_full * x_out).sum(axis=2), res_out, steps, passed)


def solve_linear_eg(instance: Instance, tol: float = DEFAULT_TOL,
                    max_iter: int = MAX_NEWTON_STEPS,
                    init_bids=None) -> MarketEquilibrium:
    """Linear Eisenberg-Gale equilibrium by an interior point on the price dual.

    The result is settled where the interior point stops, after at most
    ``max_iter`` Newton steps (``iterations``).  Near iterates go to
    ``_linear_structure_polish``, and the first candidate that passes the
    checks of ``verify_kkt_linear`` is returned; else the last iterate,
    converged if that passes; failing that, if the interior point broke down
    after a step, that iterate is polished once at its own split, clean or
    not, and the candidate returned if it passes.  The polish fixes exact
    prices by a spanning forest of the bang-per-buck ties.  One rule picks
    among tied allocations, and no order of agents or goods enters it: the
    spending on the ties closest in least squares to ``init_bids`` (a
    spending matrix) or else to the iterate's x_ij p_j, by one m x m
    Cholesky solve, projected again without the ties it spends below zero
    (``linprog``); where that fails, the interior point goes on.
    This is a stack of one in the loop ``_solve_profiles`` runs.
    """
    if instance.kind != LINEAR:
        raise ValueError("solve_linear_eg requires linear valuations")
    init = _checked_init_bids(init_bids, (instance.n, instance.m))
    return _member(_solve_linear_stack(instance.matrix[None], instance.budgets[None], tol,
                                       max_iter, [init]), 0, instance.matrix)


def _checked_init_bids(init_bids, shape):
    """None, or ``init_bids`` checked by ``core._checked_array`` (n x m)."""
    return None if init_bids is None else _checked_array("init_bids", init_bids, shape)


# ---------------------------------------------------------------------------
# Leontief solver: interior point on the price-space dual


def _solve_leontief_stack(v_full, budgets, tol, max_iter):
    """``solve_leontief_dual`` of a stack of markets with the same demanded
    goods, shaped as for ``_solve_linear_stack``, their interior points
    advanced in one loop.  A member leaves the stack only at the top of an
    iteration: once verified, after ``max_iter`` steps, after an iteration
    without a step (no descent, or a Newton matrix Cholesky rejects), or,
    broken down with a NaN utility, when an agent's phi_i is at or below
    its floor even at the uncut prices.  The members worth checking at an
    iteration, and all of them at the end, are verified by one
    ``_kkt_leontief_many`` call.  Returns ``_Solved``."""
    kept, v_all = _kept_columns(v_full)
    K, n, m = v_all.shape
    total = budgets.sum(axis=1)
    b = budgets / total[:, None]
    margin = np.minimum(tol, np.maximum(min(1e-10, 0.01 * tol),
                                        64 * np.finfo(float).eps * total))
    steps, last_u, last_cut = np.zeros(K, dtype=int), np.zeros((K, n)), np.zeros((K, m))
    ids, moved, v = np.arange(K), np.ones(K, dtype=bool), v_all
    # above this floor (zero only for a share under 2^-52), B_i / phi_i and
    # the Newton matrix's B_i / phi_i^2 are finite; at or below it, at the
    # uncut prices, the member breaks down
    floor = np.sqrt(b) * 2.0 ** -511

    def merit(p, z):
        return (np.abs(1.0 - _rmatvec(v, b / _matvec(v, p)) - z).sum(axis=1)
                + _rowdot(p, z))

    p = (b[:, None, :] @ (v / v.sum(axis=2, keepdims=True)))[:, 0]
    z = np.ones_like(p)
    for it in range(max_iter + 1):
        cut = np.where(p <= ZERO_PRICE_FRACTION, 0.0, p)
        phi = _matvec(v, cut)
        broke = False
        if not (phi > floor).all():
            uncut = ~(phi > floor).all(axis=1)
            cut = np.where(uncut[:, None], p, cut)
            phi = np.where(uncut[:, None], _matvec(v, p), phi)
            # still that small at the uncut prices (a row that underflows
            # against them, phi_i = 0 among them): the member breaks down
            # here, with u_i NaN
            broke = ~(phi > floor).all(axis=1)
            phi = np.where(phi > floor, phi, math.nan)
        u = b / phi
        # goods' excess supply; small enough, the verifier is worth running
        excess = 1.0 - (u[:, None, :] @ v)[:, 0]
        cheap = np.maximum(np.where(cut > 0, np.abs(excess), 0.0).max(axis=1),
                           -excess.min(axis=1))
        # the one exit: a member leaves here, whatever the reason; at the
        # cap a check could change nothing
        gone = ~moved | broke | (it == max_iter)
        check = np.nonzero(~gone & (cheap <= margin))[0]
        if check.size:
            k = ids[check]
            x_full, p_full = _embed(v_full.shape[2], kept, u[check][:, :, None] * v[check],
                                    cut[check] * total[k, None])
            gone[check] = _kkt_leontief_many(v_full[k], budgets[k], x_full, p_full,
                                             margin[check])[1]
        if gone.any():
            k = ids[gone]
            steps[k], last_u[k], last_cut[k] = it - ~moved[gone], u[gone], cut[gone]
            if gone.all():
                break
            ids, moved, v, b, floor, margin, p, z = _take(~gone, ids, moved, v, b, floor, margin,
                                                          p, z)
        phi = _matvec(v, p)
        r_d, pz = 1.0 - _rmatvec(v, b / phi) - z, p * z
        gap = pz.sum(axis=1)
        factors = _newton_factors(z / p, v, b / phi**2)

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

    x_full, p_full = _embed(v_full.shape[2], kept, last_u[:, :, None] * v_all,
                            last_cut * total[:, None])
    res, passed = _kkt_leontief_many(v_full, budgets, x_full, p_full, tol)
    return _solved(x_full, p_full, last_u, res, steps, passed)


def solve_leontief_dual(instance: Instance, tol: float = DEFAULT_TOL,
                        max_iter: int = MAX_NEWTON_STEPS) -> MarketEquilibrium:
    """Leontief equilibrium by an interior point on the price dual.

    The dual is min sum_j p_j - sum_i B_i log phi_i(p), phi_i(p) = v_i . p,
    over p >= 0.  Mehrotra's predictor-corrector drives p_j z_j to zero,
    z = 1 - V^T (B / phi) the dual gradient, under the merit sum |g - z| +
    sum p z; each direction is one m x m Cholesky solve.  After each of at
    most ``max_iter`` Newton steps (``iterations``), prices below
    ZERO_PRICE_FRACTION of the budget are cut to zero and u_i = B_i /
    phi_i(p), x_ij = u_i v_ij read off the rest.  The solve stops once the
    checks of ``verify_kkt_leontief`` (run only where the goods' excess
    supply is already within the margin) pass that point at a margin below tol:
    min(1e-10, tol / 100), raised to the rounding of the total budget's
    spending (64 machine epsilons of it, since the budget residual is in
    money) but never above tol.  Converged means it passes at ``tol``.
    This is a stack of one in the loop ``_solve_profiles`` runs.
    """
    if instance.kind != LEONTIEF:
        raise ValueError("solve_leontief_dual requires Leontief valuations")
    return _member(_solve_leontief_stack(instance.matrix[None], instance.budgets[None], tol,
                                         max_iter), 0, instance.matrix)


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
    (``iterations``).  At rho = 1 CES is linear: ``solve_linear_eg``
    without ``init_bids``.  This is a stack of one in the loop
    ``_solve_profiles`` runs.
    """
    if instance.kind != CES:
        raise ValueError("solve_ces_eg requires CES valuations")
    return _member(_solve_ces_stack(instance.matrix[None], instance.budgets[None],
                                    instance.valuations.rho, tol, max_iter), 0, instance.matrix)


def _solve_ces_stack(v_full, budgets, rho, tol, max_iter):
    """``solve_ces_eg`` of a stack of markets with the same demanded goods,
    shaped as for ``_solve_linear_stack``, in one damped Newton loop (at
    rho = 1, ``_solve_linear_stack`` without ``init_bids``).  A member
    leaves only at the top of an iteration: once its goods clear to tol,
    after ``max_iter`` steps, or after an iteration without a step."""
    if rho == 1.0:
        return _solve_linear_stack(v_full, budgets, tol, max_iter, [None] * len(v_full))
    kept, v = _kept_columns(v_full)
    K, n, m = v.shape
    total = budgets.sum(axis=1)
    b = b_all = budgets / total[:, None]
    sigma = 1.0 / (1.0 - rho)
    with np.errstate(divide="ignore"):
        log_w = sigma * np.log(v)
    steps, last_p, last_q = np.zeros(K, dtype=int), np.zeros((K, m)), np.zeros((K, n, m))
    passed, ids, moved = np.zeros(K, dtype=bool), np.arange(K), np.ones(K, dtype=bool)

    def shares(p):
        # each agent's spending shares at prices p, and the dual's value
        a = log_w + (1.0 - sigma) * np.log(p)[:, None, :]
        top = a.max(axis=2, keepdims=True)
        e = np.exp(a - top)
        z = e.sum(axis=2, keepdims=True)
        log_e = (top[:, :, 0] + np.log(z[:, :, 0])) / (1.0 - sigma)
        return e / z, p.sum(axis=1) - _rowdot(b, log_e)

    p = (b[:, None, :] @ (v / v.sum(axis=2, keepdims=True)))[:, 0]
    q, f = shares(p)
    for it in range(max_iter + 1):
        spend = (b[:, None, :] @ q)[:, 0]
        g = 1.0 - spend / p
        clear = np.abs(g).max(axis=1) <= tol
        # the one exit: a member leaves here, whatever the reason
        gone = clear | ~moved | (it == max_iter)
        if gone.any():
            k = ids[gone]
            steps[k], passed[k] = it - ~moved[gone], clear[gone]
            last_p[k], last_q[k] = p[gone], q[gone]
            if gone.all():
                break
            ids, log_w, b, p, q, f, spend, g = _take(~gone, ids, log_w, b, p, q, f, spend, g)
        factors = _newton_factors(sigma * spend, q, (1.0 - sigma) * b)
        dz = -_cho_solve(factors, p * g)
        # a rejected factorization, or a solve that is not finite, steps by
        # the Hessian's diagonal bound instead
        diag = ~np.isfinite(dz).all(axis=1)
        if diag.any():
            dz[diag] = -p[diag] * g[diag] / np.maximum(spend[diag], 1e-300)
        decrement, reach = _rowdot(-g, p * dz), np.abs(dz).max(axis=1)
        t = np.minimum(1.0, 0.99 / np.maximum(-dz.min(axis=1), 1e-300))
        # halve each member's step until it passes Armijo; below 1e-12 the
        # decrease is lost in the rounding of f, and a step that moves no
        # relative price by 1e-12 is no step
        new, moved, live = (p, q, f), np.zeros(ids.size, dtype=bool), t * reach >= 1e-12
        while live.any():
            cand = p * (1.0 + t[:, None] * dz)
            trial = (cand, *shares(cand))
            good = live & ((trial[2] <= f - 0.25 * t * decrement) | (decrement <= 1e-12))
            if good.all():
                new, moved = trial, good
                break
            new = _pick(good, trial, new)
            moved |= good
            live &= ~good
            t[live] *= 0.5
            live &= t * reach >= 1e-12
        p, q, f = new

    x, p = _embed(v_full.shape[2], kept, b_all[:, :, None] * last_q / last_p[:, None, :],
                  last_p * total[:, None])
    # stationarity is exact: each bundle is the agent's CES demand at p
    res = _kkt_reports(np.zeros(K), *_market_residuals(budgets, x, p, tol), tol)[0]
    return _solved(x, p, _ces_eval(v_full, x, rho), res, steps, passed)


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


def _solve_profiles(kind, v, budgets, live, tol: float = DEFAULT_TOL,
                    max_iter: int = MAX_NEWTON_STEPS, inits=None, rho=None) -> _Solved:
    """``solve_eg`` of the markets of P report profiles of one valuation
    kind (``rho`` for CES), given as arrays: P x n x m valuations ``v``,
    budgets of length n or P x n, and the P x n mask ``live`` of each
    market's agents, of whom every market needs one (else ValueError).  An
    agent outside a market gets nothing and its row is not read.  ``inits``,
    if given, holds each market's checked n x m ``init_bids`` or None;
    linear markets read its live rows, the other kinds ignore it.  Returns
    the members' results as one ``_Solved`` and builds no result object
    per market.

    Markets with the same live agents and demanded goods share one Newton
    loop, in stacks of at most STACK_ENTRIES entries per K x n x m array.
    Each stack is gathered C-contiguous and its kept goods laid out by
    ``_kept_columns``, whatever the layout of ``v``, since the rounding of
    a solve depends on the layout of its arrays; each member takes its own
    Newton steps and leaves the stack when it stops.  The linear members that reach the polish at the same
    iteration are polished in one pass, and the candidates of a pass, like
    every stack's final points, are verified in one ``_kkt_linear_many`` or
    ``_kkt_leontief_many`` call, the code of ``verify_kkt_linear`` and
    ``verify_kkt_leontief``, which checks each member as it checks that
    market alone; a CES member is judged by its own clearing.  So a
    member's result is the one ``solve_eg`` gives, whatever its stack.
    """
    P, n, m = v.shape
    budgets = np.broadcast_to(budgets, (P, n))
    out = _Solved(np.zeros((P, n, m)), np.zeros((P, m)), np.zeros((P, n)), np.zeros((P, 4)),
                  np.zeros(P, dtype=int), np.zeros(P, dtype=bool))
    for chunk, rows in _stacks(live, ((v > 0) & live[:, :, None]).any(axis=1)):
        at = chunk[:, None], rows
        stack = np.ascontiguousarray(v[at]), np.ascontiguousarray(budgets[at])
        if kind == LINEAR:
            solved = _solve_linear_stack(*stack, tol, max_iter, [
                None if inits is None or inits[k] is None else inits[k][rows]
                for k in chunk])
        elif kind == LEONTIEF:
            solved = _solve_leontief_stack(*stack, tol, max_iter)
        else:
            solved = _solve_ces_stack(*stack, rho, tol, max_iter)
        # per agent for allocations and utilities, per member for the rest
        for whole, part, where in zip(out, solved, (at, chunk, at, chunk, chunk, chunk)):
            whole[where] = part
    return out


def _stacks(live, demanded):
    """The stacks ``_solve_profiles`` solves P markets in, from their P x n
    live-agent and P x m demanded-good masks: the markets with the same
    live agents and demanded goods, in order, cut into runs of at most
    STACK_ENTRIES entries per K x n x m array.  Yields each stack's member
    indices and its live agents; a market without a live agent raises
    ValueError before anything is yielded."""
    if not live.any(axis=1).all():
        raise ValueError("need at least one agent and one good")
    groups: dict = {}
    for k, key in enumerate(np.concatenate((live, demanded), axis=1)):
        groups.setdefault(key.tobytes(), []).append(k)
    for members in groups.values():
        rows = np.nonzero(live[members[0]])[0]
        size = max(1, STACK_ENTRIES // (rows.size * int(demanded[members[0]].sum())))
        for start in range(0, len(members), size):
            yield np.array(members[start:start + size]), rows


def solve_eg_many(instances, tol: float = DEFAULT_TOL,
                  max_iter: int = MAX_NEWTON_STEPS, inits=None) -> list[MarketEquilibrium]:
    """``solve_eg`` of each market, in order, a member's result the one
    ``solve_eg`` gives.

    ``inits``, if given, holds each market's ``init_bids`` (or None), in the
    meaning ``solve_eg`` gives it: a linear market's is checked, raising
    ValueError before anything is solved, and selects among its tied
    equilibria; the other kinds ignore theirs.  The markets of one kind,
    shape (and rho) are stacked and solved by one ``_solve_profiles`` call,
    the array entry the Fisher game solves its reported markets through,
    whatever their kind.
    """
    if inits is None:
        inits = [None] * len(instances)
    inits = [_checked_init_bids(init, (inst.n, inst.m)) if inst.kind == LINEAR else None
             for inst, init in zip(instances, inits, strict=True)]
    groups: dict = {}
    for i, inst in enumerate(instances):
        groups.setdefault((inst.kind, inst.valuations.rho, inst.n, inst.m), []).append(i)
    out = [None] * len(instances)
    for (kind, rho, n, _), members in groups.items():
        solved = _solve_profiles(kind, np.stack([instances[i].matrix for i in members]),
                                 np.stack([instances[i].budgets for i in members]),
                                 np.ones((len(members), n), dtype=bool), tol, max_iter,
                                 [inits[i] for i in members], rho)
        for k, i in enumerate(members):
            out[i] = _member(solved, k, instances[i].matrix)
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


def _optimal_utilities(profile: ValuationProfile, budgets, p) -> np.ndarray:
    """``optimal_bundle_utility`` of every agent at once, at its positive
    budget: the same closed forms, each evaluated over the n x m matrix."""
    v = profile.matrix
    demanded = v > 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if profile.kind == LEONTIEF:
            # one dot product per row, as optimal_bundle_utility takes it
            phi = _rowdot(v, np.broadcast_to(p, v.shape))
            return np.where(phi <= 0, math.inf, budgets / phi)
        free = (demanded & (p <= 0)).any(axis=1)
        if profile.kind == LINEAR or profile.rho == 1.0:
            best = budgets * np.where(demanded, v / p, 0.0).max(axis=1)
        else:
            # undemanded goods are masked to exp(-inf) = 0 in the sum
            sigma = 1.0 / (1.0 - profile.rho)
            a = np.where(demanded, sigma * np.log(v) + (1.0 - sigma) * np.log(p), -math.inf)
            top = a.max(axis=1)
            log_e = (top + np.log(np.exp(a - top[:, None]).sum(axis=1))) / (1.0 - sigma)
            best = np.exp(np.log(budgets) - log_e)
        return np.where(free, math.inf, best)


def verify_eps_market_eq(instance: Instance, allocation, prices, eps: float,
                         tol: float = DEFAULT_TOL) -> EpsEquilibriumReport:
    """Certify (allocation, prices) as an eps-approximate market equilibrium.

    Checks that positively priced goods are fully sold, budgets are
    exhausted, and each agent's affordable optimum exceeds its utility by at
    most a factor (1 + eps).  Also reports the smallest eps that would pass.
    The optima are ``optimal_bundle_utility``'s closed forms, evaluated for
    all agents in one pass over the n x m matrix.  Shapes are checked as in
    ``verify_kkt_linear``.
    """
    x, p = _checked_point(instance, allocation, prices)
    budget, clearing, _ = map(float, _market_residuals(instance.budgets, x, p, tol))
    budget_ok = budget <= tol * max(1.0, float(instance.budgets.max()))
    clearing_ok = clearing <= tol
    u_cur = instance.utilities(x)
    u_opt = _optimal_utilities(instance.valuations, instance.budgets, p)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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
