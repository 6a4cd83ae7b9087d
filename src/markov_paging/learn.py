"""Transition-matrix estimation and its effect on the dominating policy.

A smoothed empirical estimator turns a trace into a strictly positive
row-stochastic matrix. The sup-norm matrix error Delta propagates into the
precedence probabilities through the pinned linear systems: with gamma the
worst inverse norm over pairs, every estimated precedence entry is within

    eps = gamma * |Delta|_inf / (1 - gamma * |Delta|_inf)

of the truth (valid while gamma * |Delta|_inf < 1, using that the exact
solutions have sup-norm 1). A dominating policy built from entries that are
eps-accurate and exactly complementary is 2/(1-2*eps)-competitive, so the
pipeline returns the policy together with that certified factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import alpha as alpha_mod
from .chain import MarkovChain, validate_chain
from .policies import DominatingPolicy


class ConditionViolated(ValueError):
    """gamma * |Delta|_inf >= 1: the perturbation bound does not apply."""


class GuaranteeVacuous(ValueError):
    """eps >= 1/2: the competitive factor 2/(1-2*eps) is meaningless."""


@dataclass(frozen=True)
class EstimatedChain:
    """Smoothed empirical transition estimate.

    ``linf_error`` is the max-row-sum error against the true matrix and is
    only set in evaluation mode (truth supplied).
    """

    m_hat: np.ndarray
    sample_count: int
    linf_error: float | None = None

    def to_chain(self) -> MarkovChain:
        return validate_chain(self.m_hat)


@dataclass(frozen=True)
class ApproxAlphaBundle:
    alpha_hat: alpha_mod.AlphaTable
    eps_bound: float
    gamma_used: float
    gamma_source: str  # "true" or "estimated"


def estimate_transition(trace, n: int | None = None, smoothing: float = 1.0, truth: MarkovChain | None = None) -> EstimatedChain:
    """Add-constant smoothed row-normalized transition counts.

    ``m_hat[i, j] = (count(i->j) + smoothing) / (count(i->.) + n*smoothing)``;
    rows never visited come out uniform. ``n`` defaults to the trace's page
    range (pass it explicitly when the trace may not visit every page).
    ``ValueError`` unless every page lies in 0..n-1 and ``smoothing`` is
    positive and finite.
    """
    pages = np.asarray(trace, dtype=np.int64)
    if len(pages) < 2:
        raise ValueError("trace must contain at least one transition")
    if not 0 < smoothing < np.inf:  # NaN fails too
        raise ValueError("smoothing must be positive and finite")
    if n is None:
        n = int(pages.max()) + 1
    bad = pages[(pages < 0) | (pages >= n)]
    if bad.size:
        raise ValueError(f"trace page {int(bad[0])} is outside 0..{n - 1}")
    if truth is not None and truth.n != n:
        raise ValueError("truth chain size does not match n")
    counts = np.bincount(pages[:-1] * n + pages[1:], minlength=n * n).reshape(n, n).astype(float)
    m_hat = (counts + smoothing) / (counts.sum(axis=1, keepdims=True) + n * smoothing)
    linf = None
    if truth is not None:
        linf = float(np.abs(m_hat - truth.transition).sum(axis=1).max())
    return EstimatedChain(m_hat=m_hat, sample_count=len(pages), linf_error=linf)


def perturbation_eps(gamma: float, delta_inf: float) -> float:
    """Certified sup-norm error on precedence entries from matrix error."""
    if gamma < 0 or delta_inf < 0:
        raise ValueError("gamma and delta_inf must be nonnegative")
    prod = gamma * delta_inf
    if prod >= 1.0:
        raise ConditionViolated(f"gamma*delta = {prod!r} >= 1; bound inapplicable")
    return prod / (1.0 - prod)


def multiplicative_factor(eps: float) -> float:
    """Competitive factor under relative (multiplicative) eps-accuracy.

    Exposed as a pure formula; no estimator here produces relative-accuracy
    certificates.
    """
    if not 0.0 <= eps < 0.5:
        raise ValueError("eps must lie in [0, 1/2)")
    return (2.0 - 2.0 * eps) / (1.0 - 2.0 * eps)


def symmetrize(table: alpha_mod.AlphaTable) -> alpha_mod.AlphaTable:
    """Force exact complementarity: entries for (p,q) and (q,p) average to a
    pair summing to exactly 1; the diagonal is exactly 0."""
    v = np.array(table.values)
    n = table.n
    p, q = np.triu_indices(n, 1)
    avg = (v[p, q] + 1.0 - v[q, p]) / 2.0
    v[p, q] = avg
    v[q, p] = 1.0 - avg
    v[np.arange(n), np.arange(n)] = 0.0
    return alpha_mod.AlphaTable(n=n, values=v)


def approx_dominating_policy(
    est: EstimatedChain,
    *,
    true_chain: MarkovChain | None = None,
    gamma_value: float | None = None,
    delta_inf: float | None = None,
):
    """Dominating policy on the estimated chain plus its certified factor.

    Returns ``(policy, factor, bundle)``. In evaluation mode (``true_chain``
    given) gamma defaults to the true chain's conditioning and the measured
    estimation error is used; otherwise the caller must state ``delta_inf``
    and gamma is computed from the estimate itself.
    """
    chain_hat = est.to_chain()
    if gamma_value is None:
        source_chain = true_chain if true_chain is not None else chain_hat
        gamma_value = alpha_mod.gamma(source_chain)
        gamma_source = "true" if true_chain is not None else "estimated"
    else:
        gamma_source = "supplied"
    if delta_inf is None:
        delta_inf = est.linf_error
    if delta_inf is None:
        raise ValueError("delta_inf unknown: supply it or estimate with truth")
    eps_bound = perturbation_eps(gamma_value, delta_inf)
    if eps_bound >= 0.5:
        raise GuaranteeVacuous(f"eps bound {eps_bound!r} >= 1/2")
    table = symmetrize(alpha_mod.alpha_table(chain_hat))
    bundle = ApproxAlphaBundle(
        alpha_hat=table,
        eps_bound=eps_bound,
        gamma_used=gamma_value,
        gamma_source=gamma_source,
    )
    policy = DominatingPolicy(table=table)
    factor = 2.0 / (1.0 - 2.0 * eps_bound)
    return policy, factor, bundle
