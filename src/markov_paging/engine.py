"""Cost measurement: Monte Carlo simulation and exact distribution evolution.

``trial_misses`` counts the misses of every trial of a stack of runs, each
run a (policy, seed) pair, and ``simulate`` is a run of one that reports a
mean miss count with a normal-approximation 95% CI; ``ratio_report`` passes
its policy baseline and all of its rules in one call.

Every run reads its requests from ``default_rng(seed)``: one
``sample_trials`` call per block of trials draws every run's traces, trial i
inverting the stream's uniforms ``[i·T, (i+1)·T)``, so trial 0 is
``sample_sequence(chain, T, seed)``. Only an eviction table draws, so only a
kernel run reads a second stream, its evictions from ``default_rng((*seed,
1))``. A run's counts therefore do not depend on the block size, on the runs
that share its call or on the trial count (the first m trials of an M-trial
run are the m-trial run), and they repeat bit for bit under the same seed.
Each run is counted by the first of three counters that applies, each over
all of its runs' traces at once:

* kernel: memoryless policies (eviction distribution a function of cache
  contents and the requested page only) step every trial of every run at
  once over the eviction tables their ``kernel_probs(idx, chain)`` returns.
  Per block a run draws a ``(trials, T)`` array of eviction uniforms, and a
  miss of trial i at step t reads entry [i, t]. A trial's state is a flat
  (run, cache rank, page) cell over the runs' tables laid side by side, so a
  step is a few flat ``take`` calls over every run's trials: on ``member``
  for the misses, on the slot-major cumulative eviction tables (the slot is
  a count over their leading axis) and on the index's ``cells`` for the next
  cache;
* stamped: LRU and FIFO, whose cache is k pages with a use or load stamp
  each (``stamp_on_hit``), step every trial of every such run at once in
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

TRIAL_BLOCK_CELLS = 1 << 20  # request pages and kernel eviction uniforms (trials x T per run) drawn at once
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
    """Average miss count over ``trials`` independent runs of length ``T``.

    Results repeat bit for bit under the same seed, whichever path the
    policy takes, and the first m trials of an M-trial run are the m-trial
    run; the module docstring says which streams a run reads.
    """
    return _estimate(trial_misses([(policy, seed)], chain, k, T, init_cache, trials)[0])


def _estimate(misses: np.ndarray) -> CostEstimate:
    """Mean of one run's per-trial miss counts, with a normal-approximation
    95% half-width."""
    trials = misses.size
    sd = float(misses.std(ddof=1)) if trials > 1 else float("inf")  # one trial: no variance estimate
    return CostEstimate(
        mean=float(misses.mean()),
        half_width=float(1.96 * sd / np.sqrt(trials)),
        trials=trials,
        mode="monte-carlo",
    )


def trial_misses(runs, chain, k: int, T: int, init_cache, trials: int) -> np.ndarray:
    """Miss count of each of ``trials`` trials of each ``(policy, seed)`` run,
    as a ``(len(runs), trials)`` array. Each run reads its own request
    stream, a kernel run its own eviction stream too, and the kernel, stamped
    or generic counter counts it (module docstring)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_horizon(T)
    check_k(k, chain.n)
    init_cache = check_cache(init_cache, chain.n, k)
    policies = [policy for policy, _ in runs]
    seeds = [_seed_tuple(seed) for _, seed in runs]
    requests = [np.random.default_rng(seed) for seed in seeds]
    tables = [build_kernel(policy, chain, k) for policy in policies]
    kernel = [r for r, probs in enumerate(tables) if probs is not None]
    evictions = [np.random.default_rng((*seeds[r], 1)) for r in kernel]
    rest = [r for r, probs in enumerate(tables) if probs is None]
    stamped = [r for r in rest if policies[r].stamp_on_hit is not None]
    generic = [r for r in rest if policies[r].stamp_on_hit is None]
    misses = np.empty((len(runs), trials), dtype=np.int64)
    block = max(1, TRIAL_BLOCK_CELLS // (max(T, 1) * max(1, len(runs) + len(kernel))))
    for lo in range(0, trials, block):
        b = min(block, trials - lo)
        pages = sample_trials(chain, T, requests, b)
        if kernel:
            evict_u = np.stack([rng.random((b, T)) for rng in evictions])
            idx = subset_index(chain.n, k)
            misses[kernel, lo : lo + b] = _kernel_misses(idx, [tables[r] for r in kernel], chain, init_cache, pages[kernel], evict_u)
        if stamped:
            flags = np.repeat([policies[r].stamp_on_hit for r in stamped], b)
            rows = pages[stamped].reshape(flags.size, T)
            held = _stamped_held(rows, init_cache, flags)
            misses[stamped, lo : lo + b] = (held != rows.T).sum(axis=0).reshape(len(stamped), b)
        for r in generic:
            misses[r, lo : lo + b] = [len(_history_victims(policies[r], row, init_cache)) for row in pages[r]]
    return misses


def _kernel_misses(idx, tables, chain, init_cache, pages, evict_u) -> np.ndarray:
    """The kernel counter: run r's trials serve the traces ``pages[r]`` and
    evict by ``tables[r]``, a miss of trial i at step t reading
    ``evict_u[r, i, t]``. The runs' cumulative tables, membership and
    successor cells lie side by side, so a trial's state is one flat (run,
    cache, page) cell and each step's lookups run once over every run's
    trials."""
    n, k, R = chain.n, idx.k, len(tables)
    N = idx.member.size  # (cache, page) cells of one run
    # slot-major cumulative eviction tables over flat (run, cache, page)
    # cells; no uniform passes the last slot's +inf, so a row whose sum
    # rounds below 1 evicts its last slot
    cum_kernel = np.concatenate([np.cumsum(probs, axis=2).reshape(-1, k).T for probs in tables], axis=1)
    cum_kernel[-1] = np.inf
    member = np.tile(idx.member.ravel(), R)
    offset = np.arange(0, R * N, N)
    # each successor cell's first cell of its cache (rank times n), per run
    heads = (idx.cells.reshape(k, 1, N) // n * n + offset[:, None]).reshape(k, R * N)
    head = np.repeat((offset + idx.rank[init_cache] * n)[:, None], pages.shape[1], axis=1)
    misses = np.zeros(head.shape, dtype=np.int64)
    for req, u in zip(np.moveaxis(pages, 2, 0), np.moveaxis(evict_u, 2, 0)):
        cell = head + req
        miss = ~member.take(cell)
        if miss.any():
            misses += miss
            mc = cell[miss]
            slot = (cum_kernel.take(mc, axis=1) <= u[miss]).sum(axis=0)
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

    ``baseline`` is ``"opt-dp"`` (exact DP value, zero-width CI) or a policy.
    A policy baseline and every rule run in one ``trial_misses`` call, the
    baseline on seed ``(seed, 0)`` and rule i on ``(seed, i + 1)``, so each
    row equals the one ``simulate`` gives on its seed. Ratios certify nothing
    beyond the evaluated horizon T.
    """
    init_cache = tuple(sorted(init_cache))
    runs = [(policy, (seed, i + 1)) for i, policy in enumerate(policies)]
    if isinstance(baseline, str) and baseline == "opt-dp":
        value, _ = opt_expected_cost(chain, k, T, init_cache, budget=budget, record_actions=False)
        base_est = CostEstimate(mean=value, half_width=0.0, trials=0, mode="exact")
        misses = trial_misses(runs, chain, k, T, init_cache, trials)
    else:
        misses = trial_misses([(baseline, (seed, 0))] + runs, chain, k, T, init_cache, trials)
        base_est, misses = _estimate(misses[0]), misses[1:]
    digest = chain_hash(chain)
    rows = []
    for (policy, _), row in zip(runs, misses):
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
