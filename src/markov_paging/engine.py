"""Cost measurement: Monte Carlo simulation and exact distribution evolution.

``trial_misses`` counts the misses of every trial of every rule of a list,
and ``simulate`` is a call of one rule that reports a mean miss count with a
normal-approximation 95% CI; ``ratio_report`` passes its policy baseline and
all of its rules in one call.

A call reads two streams, both shared by all of its rules: its requests from
``default_rng(seed)``, one ``sample_trials`` trace set per block of trials,
trial i inverting uniforms ``[i·T, (i+1)·T)`` (trial 0 is
``sample_sequence(chain, T, seed)``), and, when a table rule runs, its
evictions from ``default_rng((*seed, 1))``, a miss of trial i at step t
reading entry [i, t] of a ``(trials, T)`` array. So row i of a call is
``simulate(policies[i], ..., seed)`` bit for bit, whatever the block size,
and the first m trials of an M-trial call are the m-trial call. Each rule is
counted by the first of three counters that applies, each over all of its
rules at once:

* kernel: memoryless policies (eviction distribution a function of cache
  contents and the requested page only) step every trial of every such rule
  at once over the eviction tables their ``kernel_probs(idx, chain)``
  returns. A trial's state is a flat (rule, cache rank, page) cell over the
  rules' tables laid side by side, so a step is a few flat ``take`` calls
  over every rule's trials, with the step's requests and eviction uniforms
  broadcast over the rules: on ``member`` for the misses, on the slot-major
  cumulative eviction tables (the slot is a count over their leading axis)
  and on the index's ``cells`` for the next cache;
* stamped: LRU and FIFO, whose cache is k pages with a use or load stamp
  each (``stamp_on_hit``), step the trace set, tiled once per such rule, in
  one ``_stamped_held`` call, one ``(trials, k)`` comparison and ``argmin``
  per request; a step misses where its slot held another page;
* generic: the rest (farthest-in-future, OPT replay), which draw nothing,
  count each trial's victims from ``replay``'s request loop for a history
  rule, which the checks of ``trial_misses`` make safe to run unchecked.

``replay`` lists one run's victims through the same three statements: the
eviction table, the stamped stepping or the history rule's ``evict``.

A horizon T of 0 costs 0 on every path, and a negative one is a
``ValueError``, here as in ``exact_cost`` and the OPT DP.

``_scatter`` alone turns an eviction table into a cache-state evolution,
reading every request's successor cell (at a hit, the hit's own) from the
index's ``cells``, and ``_evolution`` is the one set-up of the scatter and
the first request's mass.
``exact_cost`` steps it: each of the T steps evolves the exact distribution
over all joint (cache rank, last page) states at once (one chain step, one
``np.bincount``) into a row of a request block and of a state block, each of
at most ``EXACT_BLOCK_CELLS`` cells. The reductions run once per block: one
``take`` and row sum gives every step's miss mass, one row sum checks every
step's state mass, and the step costs are then added in step order. The
scatter's exact-zero weights, which add +0.0 and so change no sum, are
dropped once before the first step. ``joint_operator`` assembles the
evolution as a dense matrix, with its start vector, for sums over long
horizons such as ``lowerbound``'s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import chain_hash, sample_trials
from .optdp import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    check_cache,
    check_horizon,
    check_k,
    check_run,
    opt_expected_cost,
    subset_index,
)
from .policies import MissingContext, _draw, _stamped_held, check_eviction_table, evict

TRIAL_BLOCK_CELLS = 1 << 20  # cells of a block's trace set, eviction uniforms and stamped rows (trials x T each)
EXACT_BLOCK_CELLS = 1 << 16  # (step, state) cells of each of exact_cost's two blocks


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
    k)``, or None when the policy is history-dependent. A table that
    :func:`~markov_paging.policies.check_eviction_table` refuses raises
    ``ValueError``."""
    if policy.kernel_probs is None:
        return None
    idx = subset_index(chain.n, k)
    probs = policy.kernel_probs(idx, chain)
    check_eviction_table(idx, probs, policy.name)
    return probs


def _seed_tuple(seed) -> tuple[int, ...]:
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(s) for s in seed)


def simulate(policy, chain, k: int, T: int, init_cache, trials: int, seed) -> CostEstimate:
    """Average miss count over ``trials`` independent runs of length ``T``,
    the row a ``trial_misses`` call on ``seed`` gives the policy beside any
    other rules. Results repeat bit for bit under the same seed, whichever
    path the policy takes, and the first m trials of an M-trial run are the
    m-trial run.
    """
    return _estimate(trial_misses([policy], chain, k, T, init_cache, trials, seed)[0])


def _estimate(misses: np.ndarray) -> CostEstimate:
    """Mean of one rule's per-trial miss counts, with a normal-approximation
    95% half-width."""
    trials = misses.size
    sd = float(misses.std(ddof=1)) if trials > 1 else float("inf")  # one trial: no variance estimate
    return CostEstimate(
        mean=float(misses.mean()),
        half_width=float(1.96 * sd / np.sqrt(trials)),
        trials=trials,
        mode="monte-carlo",
    )


def trial_misses(policies, chain, k: int, T: int, init_cache, trials: int, seed) -> np.ndarray:
    """Miss count of each of ``trials`` trials of each rule of ``policies``,
    as a ``(len(policies), trials)`` array. All rules serve one trace set and
    the table rules read one eviction array, on ``seed`` (module docstring)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_horizon(T)
    check_k(k, chain.n)
    init_cache = check_cache(init_cache, chain.n, k)
    misses = np.empty((len(policies), trials), dtype=np.int64)
    if not policies:
        return misses
    seed = _seed_tuple(seed)
    requests = np.random.default_rng(seed)
    tables = [build_kernel(policy, chain, k) for policy in policies]
    kernel = [r for r, probs in enumerate(tables) if probs is not None]
    evictions = np.random.default_rng((*seed, 1)) if kernel else None
    rest = [r for r, probs in enumerate(tables) if probs is None]
    stamped = [r for r in rest if policies[r].stamp_on_hit is not None]
    generic = [r for r in rest if policies[r].stamp_on_hit is None]
    block = max(1, TRIAL_BLOCK_CELLS // (max(T, 1) * (1 + bool(kernel) + len(stamped))))
    for lo in range(0, trials, block):
        b = min(block, trials - lo)
        pages = sample_trials(chain, T, requests, b)
        if kernel:
            idx = subset_index(chain.n, k)
            misses[kernel, lo : lo + b] = _kernel_misses(idx, [tables[r] for r in kernel], chain, init_cache, pages, evictions.random((b, T)))
        if stamped:
            flags = np.repeat([policies[r].stamp_on_hit for r in stamped], b)
            rows = np.tile(pages, (len(stamped), 1))
            held = _stamped_held(rows, init_cache, flags)
            misses[stamped, lo : lo + b] = (held != rows.T).sum(axis=0).reshape(len(stamped), b)
        for r in generic:
            misses[r, lo : lo + b] = [len(_history_victims(policies[r], row, init_cache)) for row in pages]
    return misses


def _kernel_misses(idx, tables, chain, init_cache, pages, evict_u) -> np.ndarray:
    """The kernel counter: every rule's trials serve the traces ``pages`` and
    rule r evicts by ``tables[r]``, a miss of trial i at step t reading
    ``evict_u[i, t]``. The rules' cumulative tables, membership and
    successor cells lie side by side, so a trial's state is one flat (rule,
    cache, page) cell and each step's lookups run once over every rule's
    trials."""
    n, k, R = chain.n, idx.k, len(tables)
    N = idx.member.size  # (cache, page) cells of one rule
    # slot-major cumulative eviction tables over flat (rule, cache, page)
    # cells; no uniform passes the last slot's +inf, so a row whose sum
    # rounds below 1 evicts its last slot
    cum_kernel = np.concatenate([np.cumsum(probs, axis=2).reshape(-1, k).T for probs in tables], axis=1)
    cum_kernel[-1] = np.inf
    member = np.tile(idx.member.ravel(), R)
    offset = np.arange(0, R * N, N)
    # each successor cell's first cell of its cache (rank times n), per rule
    heads = (idx.cells.reshape(k, 1, N) // n * n + offset[:, None]).reshape(k, R * N)
    head = np.repeat((offset + idx.rank[init_cache] * n)[:, None], pages.shape[0], axis=1)
    misses = np.zeros(head.shape, dtype=np.int64)
    for req, u in zip(pages.T, evict_u.T):
        cell = head + req
        miss = ~member.take(cell)
        if miss.any():
            misses += miss
            mc = cell[miss]
            slot = (cum_kernel.take(mc, axis=1) <= np.broadcast_to(u, miss.shape)[miss]).sum(axis=0)
            head[miss] = heads.take(slot * (R * N) + mc)
    return misses


def replay(policy, chain, k: int, pages, init_cache, seed, T: int | None = None) -> list[int]:
    """The policy's victims, one per miss in request order, over the first
    ``T`` requests of ``pages`` (default: all); a history rule sees all of
    ``pages``, so a clairvoyant rule looks past T. Before the first request
    what :func:`~markov_paging.optdp.check_run` refuses is a ``ValueError``
    (a ``T`` below 0 or past ``len(pages)`` among it), and a table rule
    builds its checked eviction table from the chain, which it needs. A
    table rule then draws each victim from its row with one ``rng.random()``
    of ``default_rng(seed)``, LRU and FIFO are stepped by ``_stamped_held``
    and a history rule's ``evict`` picks."""
    _, init_cache = check_run(pages, init_cache, k, chain, T)
    if policy.kernel_probs is not None:
        if chain is None:
            raise MissingContext(f"{policy.name} needs the chain")
        probs = build_kernel(policy, chain, k)
        rank = subset_index(chain.n, k).rank
        rng = np.random.default_rng(seed)
        return _victims(pages[:T].tolist(), init_cache, lambda cache, page, t: _draw(cache, probs[rank[cache], page], rng))
    if policy.stamp_on_hit is not None:
        served = pages[:T]
        held = _stamped_held(served[None], init_cache, [policy.stamp_on_hit])[:, 0]
        return held[held != served].tolist()
    return _history_victims(policy, pages, init_cache, T)


def _history_victims(policy, pages, init_cache, T: int | None = None) -> list[int]:
    """``replay``'s request loop for a history rule, unchecked: the rule is
    reset with all of ``pages`` and its ``evict`` picks per miss."""
    policy.reset(pages)
    return _victims(pages[:T].tolist(), init_cache, lambda cache, page, t: evict(policy, cache, page, t))


def _victims(served, init_cache, choose) -> list[int]:
    """The victims over the request list ``served`` from cache
    ``init_cache``; a miss on ``page`` at step t (1-based) evicts
    ``choose(cache, page, t)``, ``cache`` the sorted tuple of resident pages."""
    cache = set(init_cache)
    victims = []
    for t, page in enumerate(served, 1):
        if page not in cache:
            victim = choose(tuple(sorted(cache)), page, t)
            cache.remove(victim)
            cache.add(page)
            victims.append(victim)
    return victims


def _scatter(idx, probs) -> tuple[np.ndarray, np.ndarray]:
    """Eviction table ``probs`` as ``(target, weight)``: cell (r, j, e) sends
    ``weight[r, j, e]`` of the mass requesting page j from cache r to the flat
    (cache rank, last page) state ``target[r, j, e] = idx.cells[e, r, j]``.
    A miss on j sends ``probs[r, j, e]``; a hit, whose every slot holds its
    own cell, keeps its mass there through slot 0."""
    # entries in (cache, page, slot) order: np.bincount sums in input order
    target = np.moveaxis(idx.cells, 0, 2).ravel()
    weight = np.where(idx.member[:, :, None], np.arange(idx.k) == 0, probs)
    return target, weight


def _evolution(policy, chain, k: int, init_cache, steps: int | None):
    """The set-up of ``exact_cost`` and ``joint_operator``: the subset index,
    ``_scatter``'s ``(target, weight)`` and the first request's mass over the
    N flat (cache rank, page) cells, from cache ``init_cache``. The caller's
    N·``steps`` entries (N·N without ``steps``) are held to ``DEFAULT_BUDGET``
    before the scatter is built."""
    init_cache = check_cache(init_cache, chain.n, k)
    probs = build_kernel(policy, chain, k)
    if probs is None:
        raise NonMemoryless(f"{policy.name} depends on request history")
    idx = subset_index(chain.n, k)
    N = len(idx) * chain.n
    if N * (steps or N) > DEFAULT_BUDGET:
        raise BudgetExceeded(N * (steps or N), DEFAULT_BUDGET)
    target, weight = _scatter(idx, probs)
    first = np.zeros((len(idx), chain.n))
    first[idx.rank[init_cache]] = chain.init
    return idx, target, weight, first.ravel()


def exact_cost(policy, chain, k: int, T: int, init_cache) -> CostEstimate:
    """Exact expected miss count by evolving the (cache, last page) distribution.

    Only defined for memoryless policies; others raise :class:`NonMemoryless`.
    """
    check_horizon(T)
    idx, target, weight, first = _evolution(policy, chain, k, init_cache, max(T, 1))

    # an exact-zero weight (hit slots past 0, one-hot rules' other slots) adds
    # +0.0 to its bin, which changes no sum, so it is dropped once here
    keep = np.flatnonzero(weight.ravel())
    source, target, weight = keep // k, target[keep], weight.ravel()[keep]
    miss_cells = np.flatnonzero(~idx.member)

    M = chain.transition
    S, n, N = len(idx), chain.n, first.size
    L = max(1, min(T, EXACT_BLOCK_CELLS // N))  # steps per block
    reqs = np.empty((L, S, n))  # mass over (cache rank, requested page) at each step
    dists = np.empty((L, S, n))  # mass over (cache rank, last requested page) after each step
    flat_reqs, flat_dists = reqs.reshape(L, N), dists.reshape(L, N)
    reqs[0] = first.reshape(S, n)
    cost = 0.0
    for lo in range(0, T, L):
        steps = min(L, T - lo)
        for i in range(steps):
            if lo + i:
                np.matmul(dists[i - 1], M, out=reqs[i])  # at i = 0, the last step of a full block
            flat_dists[i] = np.bincount(target, weights=flat_reqs[i].take(source) * weight, minlength=N)
        # row sums along a contiguous axis: the same pairwise sums as each row's own .sum()
        masses = flat_reqs[:steps].take(miss_cells, axis=1).sum(axis=1)
        totals = flat_dists[:steps].sum(axis=1)
        drifted = np.flatnonzero(~(np.abs(totals - 1.0) <= 1e-9))  # NaN drifts too
        if drifted.size:
            i = drifted[0]
            raise AssertionError(f"state mass drifted to {float(totals[i])!r} at step {lo + i + 1}")
        for mass in masses.tolist():
            cost += mass
    return CostEstimate(mean=cost, half_width=0.0, trials=0, mode="exact")


def joint_operator(policy, chain, k: int, init_cache) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(R, miss, first)`` over flat (cache rank, requested page) cells: ``R``
    takes one request's mass to the next one's (``_scatter``, then a chain
    step), ``miss`` is 1 where the request misses and ``first`` is the first
    request's mass from cache ``init_cache``. ``NonMemoryless`` as in
    ``exact_cost``; ``BudgetExceeded`` beyond ``DEFAULT_BUDGET`` entries."""
    idx, target, weight, first = _evolution(policy, chain, k, init_cache, None)
    N = first.size
    D = np.bincount(target * N + np.repeat(np.arange(N), k), weights=weight.ravel(), minlength=N * N)
    R = chain.transition.T @ D.reshape(len(idx), chain.n, N)  # chain step on the page axis
    return R.reshape(N, N), (~idx.member).ravel().astype(float), first


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

    ``baseline`` is ``"opt-dp"`` (exact DP value, zero-width CI) or a policy;
    another string is a ``ValueError``. A policy baseline and every rule run
    in one ``trial_misses`` call on ``seed``, so each row, the baseline's
    too, is the one ``simulate`` gives on ``seed``. Ratios certify nothing
    beyond the evaluated horizon T.
    """
    init_cache = tuple(sorted(init_cache))
    policies = list(policies)
    if isinstance(baseline, str):
        if baseline != "opt-dp":
            raise ValueError(f"baseline must be 'opt-dp' or a policy, got {baseline!r}")
        value, _ = opt_expected_cost(chain, k, T, init_cache, budget=budget, record_actions=False)
        base_est = CostEstimate(mean=value, half_width=0.0, trials=0, mode="exact")
        misses = trial_misses(policies, chain, k, T, init_cache, trials, seed)
    else:
        misses = trial_misses([baseline, *policies], chain, k, T, init_cache, trials, seed)
        base_est, misses = _estimate(misses[0]), misses[1:]
    digest = chain_hash(chain)
    rows = []
    for policy, row in zip(policies, misses):
        est = _estimate(row)
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
