"""Cost measurement: Monte Carlo simulation and exact distribution evolution.

``simulate`` runs independent seeded trials and reports a mean miss count
with a normal-approximation 95% CI. A policy takes the first of three paths
that applies:

* kernel: memoryless policies (eviction distribution a function of cache
  contents and the requested page only) step every trial at once over the
  eviction table their ``kernel_probs(idx, chain)`` returns, drawing every
  trial's requests (looked up in the chain's ``next_page_table``) and
  evictions from one ``default_rng(seed)`` stream. Each step places its
  uniforms in the grid with one ``searchsorted``: at a few hundred uniforms
  a step that is faster than building and reading ``chain.grid_cells``' guide;
* batched: policies whose ``batch_misses`` answers (LRU and FIFO, whose cache
  is k pages with a use or load stamp each) get every trial's request trace
  from one ``sample_trials`` call and count all trials' misses at once, one
  ``(trials, k)`` comparison and ``argmin`` per request. ``sample_trials``
  derives every trial's ``(seed, i, 0)`` stream in one pass, each equal to
  ``default_rng((seed, i, 0))``, and places all of its uniforms with one
  ``grid_cells`` lookup;
* generic: the rest (farthest-in-future, OPT replay) take the same sampled
  traces and count each trial's victims from ``replay``, the one loop that
  steps a policy request by request. The audit replays a run once for both
  schemes' ``audit.ledger``; only ``audit.run_audit`` callers that score one
  scheme per call (the CLI, the benchmark) replay it once per scheme.

On the batched and generic paths trial i draws its requests from seed
``(seed, i, 0)`` and any eviction randomness from ``(seed, i, 1)``, so both
give the per-trial miss counts a one-trial-at-a-time loop gives on those
seeds. The kernel path's shared stream makes its counts depend on the number
of trials; they repeat bit-for-bit under the same seed and trial count. A
horizon T of 0 costs 0 on every path, and a negative one is a
``ValueError``, here as in ``exact_cost`` and the OPT DP.

``_scatter`` alone turns an eviction table into a cache-state evolution.
``exact_cost`` steps it: each of the T steps evolves the exact distribution
over all joint (cache rank, last page) states at once (one chain step, the
miss mass, one ``np.bincount``). ``joint_operator`` assembles it as a dense
matrix, for sums over long horizons such as ``lowerbound``'s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import chain_hash, first_pages, next_page_table, sample_trials
from .optdp import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    check_cache,
    check_horizon,
    opt_expected_cost,
    subset_index,
)
from .policies import RunContext, evict

TRIAL_BLOCK_CELLS = 1 << 20  # requests (trials x T) sampled at once off the kernel path


class NonMemoryless(TypeError):
    """Policy needs request history, so no exact state-space evolution exists."""


@dataclass(frozen=True)
class CostEstimate:
    """Expected miss count; ``half_width`` is 0 and ``trials`` 0 in exact mode."""

    mean: float
    half_width: float
    trials: int
    mode: str

    def covers(self, value: float) -> bool:
        return self.mean - self.half_width <= value <= self.mean + self.half_width


def build_kernel(policy, chain, k: int) -> np.ndarray | None:
    """The policy's ``(S, n, k)`` eviction table over ``subset_index(chain.n,
    k)``, or None when the policy is history-dependent."""
    if policy.kernel_probs is None:
        return None
    return policy.kernel_probs(subset_index(chain.n, k), chain)


def _seed_tuple(seed) -> tuple[int, ...]:
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(s) for s in seed)


def simulate(policy, chain, k: int, T: int, init_cache, trials: int, seed) -> CostEstimate:
    """Average miss count over ``trials`` independent runs of length ``T``.

    Results repeat bit-for-bit under the same seed and trial count, whichever
    path the policy takes; the module docstring says which stream each path
    draws from.
    """
    misses = trial_misses(policy, chain, k, T, init_cache, trials, seed)
    mean = float(misses.mean())
    sd = float(misses.std(ddof=1)) if trials > 1 else float("inf")  # one trial: no variance estimate
    return CostEstimate(
        mean=mean,
        half_width=float(1.96 * sd / np.sqrt(trials)),
        trials=trials,
        mode="monte-carlo",
    )


def trial_misses(policy, chain, k: int, T: int, init_cache, trials: int, seed) -> np.ndarray:
    """Miss count of each of ``trials`` runs, on the kernel, batched or generic
    path (module docstring)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_horizon(T)
    if not 0 < k < chain.n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={chain.n}")
    init_cache = check_cache(init_cache, chain.n, k)
    base = _seed_tuple(seed)
    probs = build_kernel(policy, chain, k)
    if probs is not None:
        return _simulate_kernel(subset_index(chain.n, k), probs, chain, T, init_cache, trials, base)
    misses = np.empty(trials, dtype=np.int64)
    block = max(1, TRIAL_BLOCK_CELLS // max(T, 1))  # bounds the page array's memory
    for lo in range(0, trials, block):
        ids = range(lo, min(lo + block, trials))
        pages = sample_trials(chain, T, base, trials=ids)
        batch = policy.batch_misses(pages, init_cache)
        if batch is None:
            batch = [len(replay(policy, chain, k, row, init_cache, base + (i, 1))) for i, row in zip(ids, pages)]
        misses[ids.start : ids.stop] = batch
    return misses


def _simulate_kernel(idx, probs, chain, T, init_cache, trials, base) -> np.ndarray:
    n = chain.n
    rng = np.random.default_rng(base)
    grid, table = next_page_table(chain)
    cum_kernel = np.cumsum(probs, axis=2)
    ranks = np.full(trials, idx.rank[init_cache], dtype=np.int64)
    last = np.zeros(trials, dtype=np.int64)
    misses = np.zeros(trials, dtype=np.int64)
    for t in range(1, T + 1):
        u = rng.random(trials)
        req = first_pages(chain, u) if t == 1 else table[np.searchsorted(grid, u, side="right") * n + last]
        hit = idx.member[ranks, req]
        miss = ~hit
        if miss.any():
            misses[miss] += 1
            mr, mj = ranks[miss], req[miss]
            u2 = rng.random(int(miss.sum()))
            ei = np.minimum((cum_kernel[mr, mj] <= u2[:, None]).sum(axis=1), idx.k - 1)
            ranks[miss] = idx.succ[mr, mj, ei]
        last = req
    return misses


def replay(policy, chain, k: int, pages, init_cache, seed, T: int | None = None) -> list[int]:
    """The policy's victims, one per miss in request order, over the first
    ``T`` requests of ``pages`` (default: all). The policy sees all of
    ``pages``, so a clairvoyant rule looks past T; ``seed`` feeds its own
    randomness."""
    rng = np.random.default_rng(seed)
    ctx = RunContext(chain=chain, k=k, init_cache=init_cache, sequence=pages)
    policy.reset(ctx)
    cache = set(init_cache)
    victims = []
    for t, page in enumerate(pages[:T].tolist(), 1):
        if page not in cache:
            ctx.t = t
            victim = evict(policy, tuple(sorted(cache)), page, ctx, rng)
            cache.remove(victim)
            cache.add(page)
            victims.append(victim)
    return victims


def _scatter(idx, probs) -> tuple[np.ndarray, np.ndarray]:
    """Eviction table ``probs`` as ``(target, weight)``: cell (r, j, e) sends
    ``weight[r, j, e]`` of the mass requesting page j from cache r to the flat
    (cache rank, last page) state ``target[r, j, e]``. A hit keeps its mass in
    (r, j), slot 0; a miss on j sends ``probs[r, j, e]`` to (succ[r, j, e], j)."""
    S, n, k = probs.shape
    hit = idx.member[:, :, None]
    here = np.arange(S * n).reshape(S, n, 1)
    target = np.where(hit, here, idx.succ * n + np.arange(n)[None, :, None]).ravel()
    weight = np.where(hit, np.arange(k) == 0, probs)
    return target, weight


def exact_cost(policy, chain, k: int, T: int, init_cache, budget: int = DEFAULT_BUDGET) -> CostEstimate:
    """Exact expected miss count by evolving the (cache, last page) distribution.

    Only defined for memoryless policies; others raise :class:`NonMemoryless`.
    """
    check_horizon(T)
    init_cache = check_cache(init_cache, chain.n, k)
    probs = build_kernel(policy, chain, k)
    if probs is None:
        raise NonMemoryless(f"{policy.name} depends on request history")
    idx = subset_index(chain.n, k)
    n = chain.n
    S = len(idx)
    if S * n * max(T, 1) > budget:
        raise BudgetExceeded(S * n * max(T, 1), budget)

    target, weight = _scatter(idx, probs)
    miss = ~idx.member

    M = chain.transition
    req = np.zeros((S, n))  # mass over (cache rank, requested page) at step t
    req[idx.rank[init_cache]] = chain.init
    cost = 0.0
    for t in range(1, T + 1):
        if t > 1:
            req = dist @ M
        cost += float(req[miss].sum())
        dist = np.bincount(target, weights=(req[:, :, None] * weight).ravel(), minlength=S * n)
        dist = dist.reshape(S, n)  # mass over (cache rank, last requested page)
        total = dist.sum()
        if abs(total - 1.0) > 1e-9:
            raise AssertionError(f"state mass drifted to {total!r} at step {t}")
    return CostEstimate(mean=cost, half_width=0.0, trials=0, mode="exact")


def joint_operator(policy, chain, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(R, miss)`` over flat (cache rank, requested page) cells: ``R`` takes
    one request's mass to the next one's (``_scatter``, then a chain step) and
    ``miss`` is 1 where the request misses. ``NonMemoryless`` as in
    ``exact_cost``; ``BudgetExceeded`` beyond ``DEFAULT_BUDGET`` entries."""
    probs = build_kernel(policy, chain, k)
    if probs is None:
        raise NonMemoryless(f"{policy.name} depends on request history")
    idx = subset_index(chain.n, k)
    N = len(idx) * chain.n
    if N * N > DEFAULT_BUDGET:
        raise BudgetExceeded(N * N, DEFAULT_BUDGET)
    target, weight = _scatter(idx, probs)
    D = np.bincount(target * N + np.repeat(np.arange(N), k), weights=weight.ravel(), minlength=N * N)
    R = chain.transition.T @ D.reshape(len(idx), chain.n, N)  # chain step on the page axis
    return R.reshape(N, N), (~idx.member).ravel().astype(float)


@dataclass(frozen=True)
class ReportRow:
    policy: str
    mean: float
    ci: float
    baseline_mean: float
    baseline_ci: float
    ratio_low: float
    ratio_high: float
    chain_hash: str
    k: int
    T: int
    seed: int


def ratio_report(
    chain,
    k: int,
    T: int,
    policies,
    baseline,
    trials: int,
    seed: int,
    init_cache,
    budget: int = DEFAULT_BUDGET,
) -> list[ReportRow]:
    """Costs and cost ratios against a baseline, with conservative interval
    arithmetic on the two CIs.

    ``baseline`` is ``"opt-dp"`` (exact DP value, zero-width CI) or a policy.
    Ratios certify nothing beyond the evaluated horizon T.
    """
    init_cache = tuple(sorted(init_cache))
    if isinstance(baseline, str) and baseline == "opt-dp":
        value, _ = opt_expected_cost(chain, k, T, init_cache, budget=budget, record_actions=False)
        base_est = CostEstimate(mean=value, half_width=0.0, trials=0, mode="exact")
    else:
        base_est = simulate(baseline, chain, k, T, init_cache, trials, (seed, 0))
    digest = chain_hash(chain)
    rows = []
    for i, policy in enumerate(policies):
        est = simulate(policy, chain, k, T, init_cache, trials, (seed, i + 1))
        lo_num = max(est.mean - est.half_width, 0.0)
        hi_den = base_est.mean - base_est.half_width
        ratio_low = float(lo_num / (base_est.mean + base_est.half_width)) if base_est.mean + base_est.half_width > 0 else float("inf")
        ratio_high = float((est.mean + est.half_width) / hi_den) if hi_den > 0 else float("inf")
        rows.append(
            ReportRow(
                policy=policy.name,
                mean=est.mean,
                ci=est.half_width,
                baseline_mean=base_est.mean,
                baseline_ci=base_est.half_width,
                ratio_low=ratio_low,
                ratio_high=ratio_high,
                chain_hash=digest,
                k=k,
                T=T,
                seed=seed,
            )
        )
    return rows


REPORT_COLUMNS = (
    "policy,mean,ci,baseline_mean,baseline_ci,ratio_low,ratio_high,chain_hash,k,T,seed"
)


def report_csv_lines(rows) -> list[str]:
    lines = [REPORT_COLUMNS]
    for r in rows:
        lines.append(
            f"{r.policy},{r.mean!r},{r.ci!r},{r.baseline_mean!r},{r.baseline_ci!r},"
            f"{r.ratio_low!r},{r.ratio_high!r},{r.chain_hash},{r.k},{r.T},{r.seed}"
        )
    return lines
