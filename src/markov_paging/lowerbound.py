"""Closed-form stress analysis on the 3-page / cache-2 adversarial family.

Requests are i.i.d.: page 0 with probability 1-eps, page 1 with eps1, page 2
with eps-eps1, in the regime 0 < eps-eps1 <= eps1 <= 1-eps. The reference
policy pins page 0 and misses with a closed-form rate. The adversarial
dominating policy maximizes the eviction probability of the most popular
resident page at every miss; the distribution over its three possible cache
states {0,1}, {0,2}, {1,2} then evolves linearly, giving exact expected miss
counts via a matrix geometric series evaluated by recursive doubling.

A grid search over (eps, eps1/eps, T) certifies cost ratios; ratios are
reported to 4 decimal places.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LBParams:
    eps: float
    eps1: float
    T: int

    def __post_init__(self):
        if not (0.0 < self.eps - self.eps1 <= self.eps1 <= 1.0 - self.eps):
            raise ValueError(
                f"eps={self.eps}, eps1={self.eps1} violate 0 < eps-eps1 <= eps1 <= 1-eps"
            )
        if self.T < 1:
            raise ValueError("T must be >= 1")


def adversarial_evictions(eps: float, eps1: float) -> dict:
    """Eviction probabilities the adversarial dominating policy realizes.

    Keys are (cache, victim) with 0-indexed pages; each probability sits at
    the upper end of the admissible interval for evicting the more popular
    resident page.
    """
    return {
        ((0, 1), 0): (1 - eps + eps1) / (2 - 2 * eps),
        ((0, 1), 1): (1 - eps - eps1) / (2 - 2 * eps),
        ((0, 2), 0): (1 - eps1) / (2 - 2 * eps),
        ((0, 2), 2): (1 + eps1 - 2 * eps) / (2 - 2 * eps),
        ((1, 2), 1): eps / (2 * eps1),
        ((1, 2), 2): (2 * eps1 - eps) / (2 * eps1),
    }


def lb_matrices(params: LBParams) -> tuple[np.ndarray, np.ndarray]:
    """State recursion for the adversarial policy over caches {0,1},{0,2},{1,2}:
    ``(B, miss_row)``, the cache-state transition matrix B (columns sum to 1)
    and the per-state miss probability."""
    eps, eps1 = params.eps, params.eps1
    ev = adversarial_evictions(eps, eps1)
    B = np.array(
        [
            [1 - eps + eps1, eps1 * ev[((0, 2), 2)], (1 - eps) * ev[((1, 2), 2)]],
            [(eps - eps1) * ev[((0, 1), 1)], 1 - eps1, (1 - eps) * ev[((1, 2), 1)]],
            [(eps - eps1) * ev[((0, 1), 0)], eps1 * ev[((0, 2), 0)], eps],
        ]
    )
    miss_row = np.array([eps - eps1, eps1, 1 - eps])
    return B, miss_row


def geometric_sum(B: np.ndarray, T: int) -> np.ndarray:
    """I + B + ... + B^(T-1), exactly, in O(log T) matrix products."""
    if T < 1:
        raise ValueError("T must be >= 1")
    S, _ = _geom(np.asarray(B, dtype=float), T)
    return S


def _geom(B: np.ndarray, T: int):
    if T == 1:
        return np.eye(B.shape[0]), B
    S, P = _geom(B, T // 2)
    S = S + P @ S
    P = P @ P
    if T % 2:
        S = S + P  # append the B^(T-1) term
        P = P @ B
    return S, P


def closed_form_costs(params: LBParams) -> tuple[float, float]:
    """(adversarial policy cost, pinned reference cost) over T requests."""
    B, miss_row = lb_matrices(params)
    S = geometric_sum(B, params.T)
    cost_dom = float(miss_row @ S[:, 0])  # initial cache {0,1}
    cost_ref = _reference_cost(params.eps, params.eps1, params.T)
    return cost_dom, cost_ref


def _reference_cost(eps: float, eps1: float, T: int) -> float:
    # sum of eps1 + (eps-2*eps1)*p_t with p_t = (eps1/eps)(1-(1-eps)^(t-1)) + (1-eps)^(t-1)
    g = -math.expm1(T * math.log1p(-eps))  # 1-(1-eps)^T without cancellation
    return T * eps1 + (eps - 2 * eps1) * ((eps1 / eps) * (T - g / eps) + g / eps)


def warmup_ratio(eps: float, T: int | None = None) -> float:
    """Cost ratio on the symmetric split eps1 = eps/2, pinned reference.

    ``T=None`` evaluates the limiting ratio as the horizon grows; a finite T
    evaluates the exact finite-horizon ratio.
    """
    if not 0.0 < eps < 2.0 / 3.0:
        raise ValueError("need 0 < eps < 2/3 for a nonempty admissible interval")
    c = 1.0 - eps
    d = eps * (6.0 - 7.0 * eps) / (8.0 - 8.0 * eps)
    if T is None:
        return (1.0 - eps + (1.5 * eps - 1.0) * (c / (1.0 - d))) / (eps / 2.0)
    gd = 1.0 - d**T
    sum_p = (c / (1.0 - d)) * (T - gd / (1.0 - d)) + gd / (1.0 - d)
    cost_dom = T * (1.0 - eps) + (1.5 * eps - 1.0) * sum_p
    return cost_dom / (eps * T / 2.0)


@dataclass(frozen=True)
class SearchResult:
    best_ratio: float
    best_params: LBParams
    rows: tuple  # (eps, eps1, T, cost_dom, cost_ref, ratio) per grid point


def search(eps_grid, eps1_frac_grid, T_grid) -> SearchResult:
    """Exhaustive deterministic grid evaluation of the cost ratio."""
    rows = []
    best_ratio, best_params = -math.inf, None
    for eps in eps_grid:
        for frac in eps1_frac_grid:
            for T in T_grid:
                params = LBParams(eps=float(eps), eps1=float(frac) * float(eps), T=int(T))
                cost_dom, cost_ref = closed_form_costs(params)
                ratio = cost_dom / cost_ref
                rows.append((params.eps, params.eps1, params.T, cost_dom, cost_ref, ratio))
                if ratio > best_ratio:
                    best_ratio, best_params = ratio, params
    if best_params is None:
        raise ValueError("empty search grid")
    return SearchResult(best_ratio=best_ratio, best_params=best_params, rows=tuple(rows))
