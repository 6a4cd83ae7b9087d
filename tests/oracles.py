"""Independent brute-force oracles the library code never touches.

These deliberately avoid the implementation's code paths: precedence
probabilities come from raw chain rollouts, optimal paging cost from an
exhaustive expectation tree over request realizations (no state merging),
matrix geometric series from term-by-term accumulation, the adversarial
stress policy's cache-state evolution from hand-derived closed forms (the
reference for the engine's joint operator), request traces
from a one-request-at-a-time sampling loop, each Monte Carlo trial's
uniforms from a generator of its own, transition counts from
``np.add.at``, and the complementary precedence table from a loop over one
page pair at a time. The OPT DP and the exact cost
evolution are also kept as loops over one cache rank at a time, the
reference for the library's all-ranks-at-once steps; their caches come from
``itertools.combinations`` and their successors from set arithmetic
(:func:`sorted_caches`, :func:`successor`), never from the library's subset
index. Monte Carlo is kept as a
loop over one trial at a time, the reference for the trial-batched paths
(the kernel path's shared stream included).
LRU and FIFO, which have no kernel, get an exact cost from the distribution
over ordered caches. Linear programs are solved one at a time by a scalar
tableau loop, the reference for the lockstep stacked simplex. The median,
pinned and random eviction rules are applied one (cache, request) pair at a
time, the reference for their whole-table ``kernel_probs``, and first-passage
medians are found one (s, p) pair at a time by a closed form, iteration or
doubling, the reference for the one-pass ``median_index``.
"""

import itertools
import math

import numpy as np

from markov_paging.simplex import MAX_ITER, PIVOT_TOL, InfeasibleLP


def loop_sample_pages(chain, T, seed):
    """Request pages drawn one at a time: the reference for ``sample_sequence``.

    The first request inverts ``init``'s cumulative sum at the first uniform,
    request t inverts the cumulative row of request t-1 at the t-th uniform.
    """
    rng = np.random.default_rng(seed)
    cum = np.cumsum(chain.transition, axis=1)
    cum_init = np.cumsum(chain.init)
    u = rng.random(T)
    pages = np.empty(T, dtype=np.int64)
    last = min(int(np.searchsorted(cum_init, u[0], side="right")), chain.n - 1)
    pages[0] = last
    for t in range(1, T):
        last = min(int(np.searchsorted(cum[last], u[t], side="right")), chain.n - 1)
        pages[t] = last
    return pages


def loop_trial_uniforms(T, bases, trials):
    """``T`` uniforms per base and trial from one ``default_rng((*base, i,
    0))`` each: the reference for ``chain.trial_uniforms``. Each base is a
    tuple."""
    u = np.empty((len(bases), len(trials), T))
    for rows, base in zip(u, bases):
        for row, i in zip(rows, trials):
            np.random.default_rng((*base, i, 0)).random(out=row)
    return u


def add_at_estimate(pages, n, smoothing):
    """Smoothed transition estimate with counts accumulated by ``np.add.at``:
    the reference for ``learn.estimate_transition``."""
    counts = np.zeros((n, n))
    np.add.at(counts, (pages[:-1], pages[1:]), 1.0)
    return (counts + smoothing) / (counts.sum(axis=1, keepdims=True) + n * smoothing)


def loop_symmetrize(values):
    """Precedence values with each page pair averaged to an exactly
    complementary pair and a zero diagonal, one pair at a time: the reference
    for ``learn.symmetrize``."""
    v = np.array(values)
    n = len(v)
    for p in range(n):
        v[p, p] = 0.0
        for q in range(p + 1, n):
            avg = (v[p, q] + 1.0 - v[q, p]) / 2.0
            v[p, q] = avg
            v[q, p] = 1.0 - avg
    return v


def rollout_alpha(chain, p, q, s, trials, seed, max_steps=100_000):
    """Monte Carlo estimate of Pr[p requested strictly before q | last = s].

    Returns (estimate, standard_error). Walks all trials in lockstep until
    each hits p or q.
    """
    rng = np.random.default_rng(seed)
    cum = np.cumsum(chain.transition, axis=1)
    n = chain.n
    state = np.full(trials, s, dtype=np.int64)
    alive = np.arange(trials)
    hit_p = np.zeros(trials, dtype=bool)
    for _ in range(max_steps):
        if alive.size == 0:
            break
        u = rng.random(alive.size)
        nxt = np.minimum((cum[state[alive]] <= u[:, None]).sum(axis=1), n - 1)
        state[alive] = nxt
        done_p = nxt == p
        done_q = nxt == q
        hit_p[alive[done_p]] = True
        alive = alive[~(done_p | done_q)]
    if alive.size:
        raise RuntimeError(f"{alive.size} rollouts unresolved after {max_steps} steps")
    est = hit_p.mean()
    se = np.sqrt(max(est * (1.0 - est), 1e-12) / trials)
    return float(est), float(se)


def tree_opt_cost(chain, k, T, init_cache):
    """Best achievable expected miss count over all online strategies.

    Exhaustive expectation tree over realized requests with a min over
    evictions at every miss node; no memoization, no subset ranking, so it
    shares nothing with the DP implementation.
    """
    M = chain.transition
    n = chain.n

    def go(cache, last, t):
        if t > T:
            return 0.0
        dist = chain.init if t == 1 else M[last]
        total = 0.0
        for j in range(n):
            pj = float(dist[j])
            if pj == 0.0:
                continue
            if j in cache:
                total += pj * go(cache, j, t + 1)
            else:
                best = min(
                    go((cache - {victim}) | {j}, j, t + 1) for victim in sorted(cache)
                )
                total += pj * (1.0 + best)
        return total

    return go(frozenset(init_cache), None, 1)


def fixed_strategy_cost(chain, k, T, init_cache, chooser):
    """Expected cost of one deterministic online strategy.

    ``chooser(history, cache, requested)`` picks the victim from the realized
    request history; used to confirm no enumerated strategy beats the DP.
    """
    M = chain.transition
    n = chain.n

    def go(cache, last, t, history):
        if t > T:
            return 0.0
        dist = chain.init if t == 1 else M[last]
        total = 0.0
        for j in range(n):
            pj = float(dist[j])
            if pj == 0.0:
                continue
            hist2 = history + (j,)
            if j in cache:
                total += pj * go(cache, j, t + 1, hist2)
            else:
                victim = chooser(history, cache, j)
                total += pj * (1.0 + go((cache - {victim}) | {j}, j, t + 1, hist2))
        return total

    return go(frozenset(init_cache), None, 1, ())


def naive_geometric_sum(B, T):
    B = np.asarray(B, dtype=float)
    S = np.zeros_like(B)
    P = np.eye(B.shape[0])
    for _ in range(T):
        S = S + P
        P = P @ B
    return S


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


def lb_matrices(params) -> tuple[np.ndarray, np.ndarray]:
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


def naive_warmup_costs(eps, T):
    """Term-by-term evaluation of the symmetric-split cost recurrences."""
    c = 1.0 - eps
    d = eps * (6.0 - 7.0 * eps) / (8.0 - 8.0 * eps)
    p = 1.0
    sum_p = 0.0
    for _ in range(T):
        sum_p += p
        p = c + p * d
    cost_dom = T * (1.0 - eps) + (1.5 * eps - 1.0) * sum_p
    return cost_dom, eps * T / 2.0


def sorted_caches(n, k):
    """The sorted k-subsets of range(n) in lexicographic order, and the rank
    of each, from ``itertools.combinations``."""
    caches = list(itertools.combinations(range(n), k))
    return caches, {cache: r for r, cache in enumerate(caches)}


def successor(cache, victim, page):
    """The sorted cache after a miss on ``page`` evicts ``victim``."""
    return tuple(sorted(set(cache) - {victim} | {page}))


def loop_opt_expected_cost(chain, k, T, init_cache):
    """The OPT DP one cache rank at a time: the reference for ``opt_expected_cost``.

    Returns ``(value, action, value_layers)`` with the library's layouts:
    ``action[t, r, j]`` is the evicted page, -1 on hits, ties toward the
    lowest page; ``value_layers[t]`` is the layer V_t.
    """
    n = chain.n
    caches, rank = sorted_caches(n, k)
    S = len(caches)
    r0 = rank[tuple(sorted(init_cache))]
    action = np.full((T + 1, S, n), -1, dtype=np.int16)
    layers = np.zeros((T + 1, S, n))
    M = chain.transition
    v_next = np.zeros((S, n))
    total = 0.0
    for t in range(T, 0, -1):
        layers[t] = v_next
        v_cur = np.empty((S, n))
        for r, cache in enumerate(caches):
            cost_vec = v_next[r].copy()
            for j in range(n):
                if j in cache:
                    continue
                # successor values per eviction in cache order, so the first
                # minimum is the lowest page
                cand = [v_next[rank[successor(cache, p, j)], j] for p in cache]
                e = int(np.argmin(cand))
                action[t, r, j] = cache[e]
                cost_vec[j] = 1.0 + cand[e]
            if t > 1:
                v_cur[r] = M @ cost_vec
            elif r == r0:
                total = float(chain.init @ cost_vec)
        v_next = v_cur
    return total, action, layers


def loop_exact_cost(probs, chain, T, init_cache):
    """Expected misses of a memoryless policy, evolving the (cache, last page)
    mass one cache rank at a time: the reference for ``exact_cost``.

    ``probs`` is the policy's ``(S, n, k)`` eviction table. Rows that carry
    no mass are skipped, and each miss spreads its mass one slot at a time.
    """
    n, k = chain.n, probs.shape[2]
    caches, rank = sorted_caches(n, k)
    M = chain.transition
    dist = np.zeros((len(caches), n))
    cost = 0.0
    r0 = rank[tuple(sorted(init_cache))]
    for t in range(1, T + 1):
        new = np.zeros_like(dist)
        for r, cache in enumerate(caches):
            if t == 1:
                if r != r0:
                    continue
                req_mass = chain.init
            else:
                mass = dist[r]
                if not mass.any():
                    continue
                req_mass = mass @ M
            for j in range(n):
                if j in cache:
                    new[r, j] += req_mass[j]
                    continue
                cost += float(req_mass[j])
                for e, p in enumerate(cache):
                    new[rank[successor(cache, p, j)], j] += req_mass[j] * probs[r, j, e]
        dist = new
    return cost


def loop_median_index(chain, s: int, p: int, cap: int):
    """Smallest t >= 1 with Pr[p requested within t steps | last request s] >= 1/2.

    Returns ``math.inf`` when the probability has not reached 1/2 by ``cap``
    steps (e.g. p unreachable from s). Equivalently: first t at which the
    survival probability (no request for p in t steps) drops to <= 1/2, found
    by the geometric closed form on an i.i.d. chain, else by iterating the
    first-passage recursion with p absorbing, or by matrix-power doubling
    when ``cap`` exceeds 4096.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if np.all(chain.transition == chain.transition[0]):  # i.i.d. requests
        r = float(chain.transition[0, p])
        if r <= 0.0:
            return math.inf
        if r >= 0.5:
            return 1
        t = max(1, math.ceil(math.log(0.5) / math.log1p(-r)))
        while t > 1 and (1.0 - r) ** (t - 1) <= 0.5:
            t -= 1
        while (1.0 - r) ** t > 0.5:
            t += 1
        return t if t <= cap else math.inf
    q = np.array(chain.transition)
    q[:, p] = 0.0
    if cap <= 4096:
        g = np.ones(chain.n)
        for t in range(1, cap + 1):
            g = q @ g
            if g[s] <= 0.5:
                return t
        return math.inf
    return _median_by_doubling(q, s, cap)


def _median_by_doubling(q: np.ndarray, s: int, cap: int):
    ones = np.ones(q.shape[0])
    powers = [q]  # powers[j] = q^(2^j)

    def survival(t: int) -> float:
        v = ones
        j = 0
        while t:
            if j == len(powers):
                powers.append(powers[-1] @ powers[-1])
            if t & 1:
                v = powers[j] @ v
            t >>= 1
            j += 1
        return float(v[s])

    if survival(cap) > 0.5:
        return math.inf
    lo, hi = 0, 1  # survival at lo known > 1/2 (t=0 survives surely)
    while survival(hi) > 0.5:
        lo, hi = hi, min(hi * 2, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if survival(mid) > 0.5:
            lo = mid
        else:
            hi = mid
    return hi


def oracle_median_cap(chain) -> int:
    """A cap that holds every finite first-passage median of ``chain`` when
    its entries are all positive: per-step hit probability is at least the
    smallest entry delta, so 16/delta overshoots the crossing comfortably.
    Chains with a zero entry get 4096. It keeps the loop oracle's work small
    where the library's one-pass ``median_index`` runs to ``MEDIAN_CAP``.
    """
    delta = chain.transition.min()
    if delta > 0.0:
        return math.ceil(16.0 / delta)
    return 4096


def loop_median_matrix(chain, cap):
    """The ``(n, n)`` matrix of :func:`loop_median_index` over s != p, diagonal 0."""
    med = np.zeros((chain.n, chain.n))
    for s in range(chain.n):
        for p in range(chain.n):
            if p != s:
                med[s, p] = loop_median_index(chain, s, p, cap)
    return med


def loop_kernel_probs(policy, chain, k):
    """The ``(S, n, k)`` eviction table of a median, pinned or random rule,
    filled one (cache, request) pair at a time; hit rows stay zero.

    Median scans the sorted cache and moves to a page only when its median,
    capped at ``MEDIAN_CAP``, is strictly larger, so ties go to the lowest
    page; pinned takes the first unpinned page and raises ``RuntimeError``
    when there is none; random is uniform.
    """
    from markov_paging.policies import MEDIAN_CAP, MedianPolicy, PinnedPolicy, RandomEvictionPolicy

    caches, _ = sorted_caches(chain.n, k)
    probs = np.zeros((len(caches), chain.n, k))
    medians = {}
    for r, cache in enumerate(caches):
        for j in range(chain.n):
            if j in cache:
                continue
            if isinstance(policy, MedianPolicy):
                best, best_med = None, None
                for i, p in enumerate(cache):
                    if (j, p) not in medians:
                        medians[j, p] = loop_median_index(chain, j, p, MEDIAN_CAP)
                    if best_med is None or medians[j, p] > best_med:
                        best, best_med = i, medians[j, p]
                probs[r, j, best] = 1.0
            elif isinstance(policy, PinnedPolicy):
                free = [i for i, p in enumerate(cache) if p not in policy.pinned]
                if not free:
                    raise RuntimeError("all resident pages are pinned")
                probs[r, j, free[0]] = 1.0
            elif isinstance(policy, RandomEvictionPolicy):
                probs[r, j] = 1.0 / k
            else:
                raise TypeError(f"no per-key rule for {policy.name}")
    return probs


def loop_simulate_generic(policy, chain, k, T, init_cache, trials, seed):
    """Per-trial miss counts, one trial and one eviction call at a time: the
    reference for every Monte Carlo path of ``simulate``.

    Trial i samples its trace with ``sample_sequence`` from ``seed + (i, 0)``
    and feeds the policy's randomness from ``seed + (i, 1)``; ``seed`` is a
    tuple. A horizon of 0 has no requests and no misses.
    """
    from markov_paging.chain import sample_sequence
    from markov_paging.policies import RunContext, evict

    misses = np.zeros(trials, dtype=np.int64)
    for trial in range(trials):
        pages = sample_sequence(chain, T, seed + (trial, 0)) if T else np.empty(0, dtype=np.int64)
        rng_pol = np.random.default_rng(seed + (trial, 1))
        ctx = RunContext(chain=chain, k=k, init_cache=tuple(init_cache), sequence=pages)
        policy.reset(ctx)
        cache = set(init_cache)
        for t, page in enumerate(pages, 1):
            s = int(page)
            ctx.t = t
            if s not in cache:
                misses[trial] += 1
                victim = evict(policy, tuple(sorted(cache)), s, ctx, rng_pol)
                cache.remove(victim)
                cache.add(s)
    return misses


def loop_simulate_kernel(probs, chain, T, init_cache, trials, seed):
    """Per-trial miss counts of a memoryless rule, one trial at a time inside
    each step: the reference for the kernel path of ``simulate``.

    ``probs`` is the rule's ``(S, n, k)`` eviction table over the sorted
    k-subsets in lexicographic order. Every trial reads one shared
    ``default_rng(seed)`` stream. Each step takes one uniform per trial, in
    trial order, for its request (the first request inverts ``init``'s
    cumulative sum, a later one the row of the trial's last request), then
    one per missing trial, in trial order, for the evicted slot: the first
    slot whose cumulative probability exceeds it, else the last slot.
    """
    n, k = chain.n, probs.shape[2]
    _, rank = sorted_caches(n, k)
    cum_rows = np.cumsum(chain.transition, axis=1)
    rng = np.random.default_rng(seed)
    caches = [tuple(sorted(init_cache))] * trials
    last = [None] * trials
    misses = np.zeros(trials, dtype=np.int64)
    for t in range(T):
        for i in range(trials):
            cum = np.cumsum(chain.init) if t == 0 else cum_rows[last[i]]
            last[i] = min(int(np.searchsorted(cum, rng.random(), side="right")), n - 1)
        for i in range(trials):
            cache, j = caches[i], last[i]
            if j in cache:
                continue
            misses[i] += 1
            cum = np.cumsum(probs[rank[cache], j])
            slot = min(int(np.searchsorted(cum, rng.random(), side="right")), k - 1)
            caches[i] = successor(cache, cache[slot], j)
    return misses


def ordered_exact_cost(chain, T, init_cache, move_on_hit):
    """Exact expected misses of LRU (``move_on_hit``) or FIFO over ``T`` requests.

    Evolves a dictionary of probability mass over (ordered cache, last page).
    The ordered cache lists the next victim first: a miss drops it and appends
    the request, a hit moves the page to the end under LRU and leaves the order
    alone under FIFO. The initial pages start in ascending order.
    """
    dist = {(tuple(sorted(init_cache)), None): 1.0}
    cost = 0.0
    for _ in range(T):
        nxt = {}
        for (order, last), mass in dist.items():
            row = chain.init if last is None else chain.transition[last]
            for j in range(chain.n):
                m = mass * float(row[j])
                if m == 0.0:
                    continue
                if j not in order:
                    cost += m
                    new = order[1:] + (j,)
                elif move_on_hit:
                    new = tuple(p for p in order if p != j) + (j,)
                else:
                    new = order
                nxt[new, j] = nxt.get((new, j), 0.0) + m
        dist = nxt
    return cost


def _loop_pivot(tab, basis, row, col):
    tab[row] /= tab[row, col]
    for i in range(tab.shape[0]):
        if i != row and tab[i, col] != 0.0:
            tab[i] -= tab[i, col] * tab[row]
    basis[row] = col


class LoopUnboundedLP(ValueError):
    """The objective has no lower bound (``solve_lp`` refuses such programs
    before any pivot; this general loop finds them)."""


def _loop_run(tab, basis, cost, allowed):
    """Drive the tableau to optimality for ``cost`` using Bland's rule."""
    m = tab.shape[0]
    for _ in range(MAX_ITER):
        cb = cost[basis]
        red = cost - cb @ tab[:, :-1]
        enter = -1
        for j in np.flatnonzero(allowed):
            if red[j] < -PIVOT_TOL:
                enter = int(j)
                break
        if enter < 0:
            return
        leave = -1
        best = np.inf
        for i in range(m):
            a = tab[i, enter]
            if a > PIVOT_TOL:
                ratio = tab[i, -1] / a
                if ratio < best - PIVOT_TOL or (
                    abs(ratio - best) <= PIVOT_TOL
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            raise LoopUnboundedLP(f"column {enter} is unbounded")
        _loop_pivot(tab, basis, leave, enter)
    raise RuntimeError("simplex iteration limit hit")


def loop_solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None):
    """One LP by two-phase tableau simplex with Bland's rule: the reference
    for the lockstep ``solve_lp``.

    Minimize ``c @ x`` s.t. ``a_ub x <= b_ub``, ``a_eq x = b_eq``, ``x >= 0``.
    Returns ``(x, value)``. Raises :class:`InfeasibleLP` / :class:`LoopUnboundedLP`;
    rows that phase 1 finds redundant are dropped.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    rows = []
    needs_artificial = []
    if a_ub is not None:
        a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
        b_ub = np.atleast_1d(np.asarray(b_ub, dtype=float))
        for a, b in zip(a_ub, b_ub):
            rows.append((a, b, 1.0))
            needs_artificial.append(b < 0)
    if a_eq is not None:
        a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
        b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
        for a, b in zip(a_eq, b_eq):
            rows.append((a, b, 0.0))
            needs_artificial.append(True)
    m = len(rows)
    n_slack = sum(1 for r in rows if r[2] != 0.0)
    n_art = sum(needs_artificial)
    ncols = n + n_slack + n_art

    tab = np.zeros((m, ncols + 1))
    basis = np.full(m, -1, dtype=int)
    art_cols = []
    si = 0
    ai = 0
    for i, (a, b, has_slack) in enumerate(rows):
        sign = -1.0 if b < 0 else 1.0
        tab[i, :n] = sign * a
        tab[i, -1] = sign * b
        if has_slack:
            tab[i, n + si] = sign
            if sign > 0:
                basis[i] = n + si
            si += 1
        if needs_artificial[i]:
            col = n + n_slack + ai
            tab[i, col] = 1.0
            basis[i] = col
            art_cols.append(col)
            ai += 1

    allowed = np.ones(ncols, dtype=bool)
    if art_cols:
        phase1 = np.zeros(ncols)
        phase1[art_cols] = 1.0
        _loop_run(tab, basis, phase1, allowed)
        if phase1[basis] @ tab[:, -1] > 1e-8:
            raise InfeasibleLP("phase 1 optimum is positive")
        # pivot residual artificials out; drop rows that turn out redundant
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] in art_cols:
                cand = [
                    j
                    for j in range(n + n_slack)
                    if abs(tab[i, j]) > PIVOT_TOL
                ]
                if cand:
                    _loop_pivot(tab, basis, i, cand[0])
                else:
                    keep[i] = False
        tab = tab[keep]
        basis = basis[keep]
        allowed[art_cols] = False

    cost = np.zeros(ncols)
    cost[:n] = c
    _loop_run(tab, basis, cost, allowed)

    x = np.zeros(ncols)
    x[basis] = tab[:, -1]
    return x[:n], float(c @ x[:n])
