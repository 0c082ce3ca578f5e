"""Domain types and shared primitives for budgeted allocation markets.

Holds the market instance types (agents, goods, budgets, valuations), the
three supported valuation families (linear, Leontief, CES), Nash social
welfare, price-of-anarchy ratios, and proportionality checks.  Everything
downstream (equilibrium solvers, the trading-post game, the Fisher report
game) is built on these.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

#: Default tolerance for invariant checks; overridable per call.
DEFAULT_TOL = 1e-8

VALUATION_KINDS = ("linear", "leontief", "ces")

LINEAR = "linear"
LEONTIEF = "leontief"
CES = "ces"


def _readonly(a, dtype=float) -> np.ndarray:
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ValuationProfile:
    """An n-by-m valuation matrix plus the functional form it parameterizes.

    For Leontief, positive entries are requirement ratios (utility is the
    minimum of x_ij / v_ij over goods with v_ij > 0); zero entries mean the
    good is not demanded.  Entries are not renormalized.  ``rho`` is only
    meaningful for the CES kind and must lie in (-inf, 1] excluding 0.
    """

    kind: str
    matrix: np.ndarray
    rho: float | None = None

    def __post_init__(self):
        if self.kind not in VALUATION_KINDS:
            raise ValueError(f"unknown valuation kind {self.kind!r}")
        mat = _readonly(self.matrix)
        if mat.ndim != 2:
            raise ValueError("valuation matrix must be 2-dimensional")
        if not ((mat >= 0) & np.isfinite(mat)).all():
            raise ValueError("valuation entries must be finite and non-negative")
        if not (mat > 0).any(axis=1).all():
            raise ValueError("every agent needs at least one positively valued good")
        object.__setattr__(self, "matrix", mat)
        if self.kind == CES:
            if self.rho is None:
                raise ValueError("CES valuations require rho")
            rho = float(self.rho)
            if not -math.inf < rho <= 1.0 or rho == 0.0:  # NaN fails too
                raise ValueError("CES rho must lie in (-inf, 1] and differ from 0")
            object.__setattr__(self, "rho", rho)
        elif self.rho is not None:
            raise ValueError(f"rho is only valid for CES valuations, not {self.kind}")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def m(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class Instance:
    """A market: n agents with budgets, m divisible unit-supply goods."""

    n: int
    m: int
    budgets: np.ndarray
    valuations: ValuationProfile

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("need at least one agent and one good")
        b = _readonly(self.budgets)
        if b.shape != (self.n,):
            raise ValueError("budgets must be a length-n vector")
        if not ((b > 0) & np.isfinite(b)).all():
            raise ValueError("budgets must be finite and strictly positive")
        object.__setattr__(self, "budgets", b)
        if self.valuations.matrix.shape != (self.n, self.m):
            raise ValueError("valuation matrix shape must be n x m")

    @property
    def kind(self) -> str:
        return self.valuations.kind

    @property
    def matrix(self) -> np.ndarray:
        return self.valuations.matrix

    @property
    def total_budget(self) -> float:
        return float(self.budgets.sum())

    def perfect_competition(self) -> bool:
        """True when every good is positively valued by at least two agents."""
        return bool(((self.matrix > 0).sum(axis=0) >= 2).all())

    def utilities(self, allocation: np.ndarray) -> np.ndarray:
        return eval_valuation_matrix(self.valuations, np.asarray(allocation, dtype=float))

    def full_bundle_utilities(self) -> np.ndarray:
        """Per-agent utility of receiving the entire endowment."""
        return self.utilities(np.ones((self.n, self.m)))

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "n": self.n,
            "m": self.m,
            "budgets": self.budgets.tolist(),
            "kind": self.kind,
            "matrix": self.matrix.tolist(),
        }
        if self.valuations.rho is not None:
            doc["rho"] = self.valuations.rho
        return doc

    @classmethod
    def from_dict(cls, doc: Any) -> "Instance":
        """The instance ``to_dict`` wrote.  A document that is not an object,
        or a field that is missing, null or of the wrong type, raises
        ValueError (``rho`` may be absent or null)."""
        n, m = _json_field(doc, "n", "int"), _json_field(doc, "m", "int")
        rho = None if doc.get("rho") is None else _json_field(doc, "rho", "number")
        profile = ValuationProfile(_json_field(doc, "kind", "str"),
                                   _json_field(doc, "matrix", "matrix"), rho)
        return cls(n, m, _json_field(doc, "budgets", "vector"), profile)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        return cls.from_dict(json.loads(text))


_JSON_KINDS = {"int": "an integer", "number": "a finite number", "str": "a string",
               "vector": "a list of finite numbers",
               "matrix": "a list of lists of finite numbers"}


def _is_number(x) -> bool:
    # json parses NaN, Infinity and -Infinity as floats
    return (isinstance(x, int) and not isinstance(x, bool)
            or isinstance(x, float) and math.isfinite(x))


def _json_field(doc: Any, key: str, kind: str):
    """Field ``key`` of a parsed JSON document, checked to be of ``kind``.

    ``kind`` is a key of _JSON_KINDS; "vector" and "matrix" fields are
    returned as float arrays.  A document that is not an object, or a field
    that is missing, null, of another type or holds NaN or an infinity,
    raises ValueError.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, not {type(doc).__name__}")
    val = doc.get(key)
    if val is None:
        raise ValueError(f"field {key!r} is missing or null")
    if kind == "int":
        ok = isinstance(val, int) and not isinstance(val, bool)
    elif kind == "number":
        ok = _is_number(val)
    elif kind == "str":
        ok = isinstance(val, str)
    else:
        rows = val if kind == "matrix" and isinstance(val, list) else [val]
        ok = all(isinstance(row, list) and all(map(_is_number, row)) for row in rows)
    if not ok:
        raise ValueError(f"field {key!r} must be {_JSON_KINDS[kind]}")
    if kind in ("vector", "matrix"):
        try:  # ragged rows raise ValueError here too
            return np.array(val, dtype=float)
        except OverflowError:
            raise ValueError(f"field {key!r} holds an integer too large for a float") from None
    return val


def make_instance(kind: str, matrix, budgets=None, rho: float | None = None) -> Instance:
    """Convenience constructor; budgets default to 1 per agent."""
    mat = np.array(matrix, dtype=float)
    n, m = mat.shape
    if budgets is None:
        budgets = np.ones(n)
    return Instance(n, m, np.asarray(budgets, dtype=float), ValuationProfile(kind, mat, rho))


# ---------------------------------------------------------------------------
# Valuation evaluation


def eval_valuation_matrix(profile: ValuationProfile, allocation: np.ndarray) -> np.ndarray:
    """Evaluate every agent's utility for its row of ``allocation``: an n x m
    matrix, or a stack of them along leading axes, which the result keeps."""
    x = np.asarray(allocation, dtype=float)
    if x.shape[-2:] != profile.matrix.shape:
        raise ValueError(
            f"allocation shape {x.shape} does not match valuations {profile.matrix.shape}")
    if (x < 0).any():
        raise ValueError("bundle entries must be non-negative")
    v = profile.matrix
    if profile.kind == LINEAR:
        return (v * x).sum(axis=-1)
    if profile.kind == LEONTIEF:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratios = np.where(v > 0, x / np.where(v > 0, v, 1.0), np.inf)
        return ratios.min(axis=-1)
    return _ces_eval(v, x, profile.rho)


def _ces_eval(v: np.ndarray, x: np.ndarray, rho: float) -> np.ndarray:
    # Log-domain evaluation of (sum_j v_ij * x_ij^rho)^(1/rho).  The limit
    # conventions fall out of the arithmetic: for rho < 0 a zero amount of a
    # demanded good yields a +inf term and hence utility 0.
    if rho == 1.0:
        return (v * x).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = np.where(v > 0, np.log(np.where(v > 0, v, 1.0)) + rho * np.log(x), -np.inf)
        peak = terms.max(axis=-1)
        safe_peak = np.where(np.isfinite(peak), peak, 0.0)
        ls = safe_peak + np.log(np.exp(terms - safe_peak[..., None]).sum(axis=-1))
        ls = np.where(np.isfinite(peak), ls, peak)
        return np.exp(ls / rho)


def eval_valuation(profile: ValuationProfile, agent: int, bundle: np.ndarray) -> float:
    """Utility of ``agent`` for a single length-m bundle."""
    b = np.asarray(bundle, dtype=float)
    if b.shape != (profile.m,):
        raise ValueError(f"bundle must have length {profile.m}, got shape {b.shape}")
    if not 0 <= agent < profile.n:
        raise ValueError(f"agent index {agent} out of range")
    if (b < 0).any():
        raise ValueError("bundle entries must be non-negative")
    x = np.zeros_like(profile.matrix)
    x[agent] = b
    return float(eval_valuation_matrix(profile, x)[agent])


# ---------------------------------------------------------------------------
# Welfare and fairness


def nsw(utilities: np.ndarray, budgets: np.ndarray) -> float:
    """Budget-weighted geometric mean of utilities, computed in log domain.

    Returns 0 when any positively weighted agent has zero utility (so the
    ratio against an optimum is reported as infinite rather than raising).
    """
    u = np.asarray(utilities, dtype=float)
    b = np.asarray(budgets, dtype=float)
    if u.shape != b.shape:
        raise ValueError("utilities and budgets must have matching length")
    if (u < 0).any():
        raise ValueError("utilities must be non-negative")
    if (b <= 0).any():
        raise ValueError("budgets must be strictly positive")
    if (u == 0).any():
        return 0.0
    return float(np.exp(np.dot(b, np.log(u)) / b.sum()))


def poa_ratio(opt_nsw: float, eq_nsw: float) -> float:
    """Optimal NSW over equilibrium NSW; clamped to 1 for dips within DEFAULT_TOL."""
    if opt_nsw <= 0:
        raise ValueError("optimal NSW must be positive")
    if eq_nsw == 0:
        return math.inf
    if eq_nsw < 0:
        raise ValueError("equilibrium NSW must be non-negative")
    ratio = opt_nsw / eq_nsw
    if 1.0 - DEFAULT_TOL <= ratio < 1.0:
        return 1.0
    return ratio


@dataclass(frozen=True)
class ProportionalityReport:
    """Per-agent proportionality margins: u_i(x_i) - (B_i/B)(1 - slack_i) u_i(1)."""

    margins: np.ndarray
    thresholds: np.ndarray
    passed: np.ndarray
    all_pass: bool


def proportionality_check(instance: Instance, allocation: np.ndarray,
                          slack: np.ndarray | float = 0.0,
                          tol: float = DEFAULT_TOL) -> ProportionalityReport:
    """Check u_i(x_i) >= (B_i / B)(1 - slack_i) * u_i(full bundle) per agent.

    slack_i = 0 checks exact proportionality; slack_i = delta*(m-1)/B_i checks
    the entrance-fee trading-post guarantee.  Report-only: never raises on a
    failing agent.
    """
    x = np.asarray(allocation, dtype=float)
    s = np.broadcast_to(np.asarray(slack, dtype=float), (instance.n,))
    if ((s < 0) | (s > 1)).any():
        raise ValueError("slack entries must lie in [0, 1]")
    u = instance.utilities(x)
    full = instance.full_bundle_utilities()
    share = instance.budgets / instance.total_budget
    thresholds = share * (1.0 - s) * full
    margins = u - thresholds
    passed = margins >= -tol
    return ProportionalityReport(_readonly(margins), _readonly(thresholds),
                                 _readonly(passed, dtype=bool), bool(passed.all()))
