"""Euclidean projections onto (shifted) budget simplices."""

from __future__ import annotations

import numpy as np


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
