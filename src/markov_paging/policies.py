"""Eviction policies behind one interface.

On a cache miss a policy picks a resident page to evict. The interesting ones:

* dominating distribution: draw the victim from a distribution mu over the
  cache under which, for every fixed resident page q, the mu-average of
  alpha(p<q) is at most 1/2, so the evicted page tends to return later than
  anything kept. Such a mu always exists and is found by a tiny LP.
* adversarial dominating: the same feasible set, but mu maximizes the
  probability of evicting one chosen target page. Useful for stress
  constructions where a worst-case member of the family is wanted.
* median: deterministically evict the resident page whose next request has the
  largest median arrival time. ``median_index`` finds the first-passage
  medians of every page pair of a chain in one binary-lifting pass.
* farthest-in-future: the clairvoyant offline rule, needs the realized trace.
* lru / fifo / random / pinned: baselines and test harness aids.

A memoryless rule gives its choice as an eviction table: ``kernel_probs(idx,
chain)`` is the eviction distribution of every (cache, request) pair of the
chain, and the engine reads the whole table. For the dominating,
adversarial, median, random and pinned rules (:class:`TablePolicy`) the
table is the only statement of the choice: a step-by-step run
(``engine.replay``) builds it at ``reset`` and draws each victim from its
row with one ``rng.random()``, so the deterministic rules' one-hot rows
still pick their page. History-dependent rules decide per miss in ``evict``
and carry per-run state (reset before each run).

No policy keeps a table of its own: ``chain.derived`` keeps a chain's median
matrix and each (rule, k) dominating eviction table (one stacked LP solve,
``LP_BLOCK`` LPs per simplex call), so fresh policies on one chain (the
benchmark's per-scheme ``run_audit``, the CLI's fixed-chain runs) share one
build.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import alpha as alpha_mod
from .chain import derived
from .optdp import opt_action, subset_index
from .simplex import InfeasibleLP, solve_lp

DOM_SLACK_HARD = 1e-6  # beyond this the dominating LP contradicts existence
LP_BLOCK = 4096  # dominating LPs solved per stacked simplex call
# Median rule's step cap. Stored rows sum to 1 only within a few ulps, and
# over t steps that alone moves a survival by up to about t * 1e-15: near
# 2^52 a page reached with probability below 1/2 can read a finite median.
# At 2^32 the drift stays below 1e-5.
MEDIAN_CAP = 2**32


class Infeasible(ValueError):
    """The dominating LP has no admissible distribution; input is corrupt.

    ``index`` is the first failing LP of a stack. A policy's table build
    names the (cache, request) pair instead, in ``cache`` and ``requested``,
    and the adversarial rule the ``target`` it used.
    """

    def __init__(self, message: str, index: int = 0, cache=None, requested=None, target=None):
        self.index = index
        self.cache = cache
        self.requested = requested
        self.target = target
        super().__init__(message)


class MissingContext(ValueError):
    """Policy needs context (e.g. the realized sequence) that was not given."""


def _distributions(probs: np.ndarray) -> np.ndarray:
    """``probs`` with roundoff negatives set to 0, read-only; ``ValueError``
    unless every row (last axis) is a distribution."""
    if probs.min(initial=0.0) < -1e-12:
        raise ValueError(f"negative probability {probs.min()!r}")
    p = np.where(probs < 0.0, 0.0, probs)
    sums = p.sum(axis=-1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-9)
    if bad.size:
        raise ValueError(f"probabilities sum to {np.ravel(sums)[bad[0]]!r}")
    p.setflags(write=False)
    return p


def _draw(pages, probs, rng) -> int:
    """One page of ``pages`` drawn from ``probs`` by one ``rng.random()``
    (running sums in order, as ``np.cumsum``'s)."""
    i = bisect.bisect_right(list(accumulate(probs.tolist())), rng.random())
    return pages[min(i, len(pages) - 1)]


@dataclass
class RunContext:
    """Everything a policy may consult during one run."""

    chain: object
    k: int
    init_cache: tuple[int, ...]
    sequence: np.ndarray | None = None
    t: int = 0  # 1-based index of the request being served


def _check_alpha_sub(alpha_sub: np.ndarray) -> np.ndarray:
    """``alpha_sub`` as a ``(B, k, k)`` float stack, each block checked."""
    a = np.asarray(alpha_sub, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("alpha_sub must be a (B, k, k) stack of square blocks")
    if np.any(np.diagonal(a, axis1=1, axis2=2) != 0.0):
        raise ValueError("alpha_sub diagonal must be exactly zero")
    if not np.all((a >= -1e-9) & (a <= 1.0 + 1e-9)):  # NaN fails too
        raise ValueError("alpha_sub entries must lie in [0, 1]")
    return a


def _replay_check(a: np.ndarray, mu: np.ndarray) -> None:
    """Every LP's column loads ``mu[i] @ a[i]`` stay at most 1/2."""
    worst = np.matmul(mu[:, None, :], a)[:, 0].max(axis=1, initial=-np.inf)
    bad = np.flatnonzero(worst > 0.5 + DOM_SLACK_HARD)
    if bad.size:
        i = int(bad[0])
        raise Infeasible(f"column load {float(worst[i])!r} exceeds 1/2; input inconsistent", index=i)


def dominating_distribution(alpha_sub) -> np.ndarray:
    """For each block of the ``(B, k, k)`` stack, a distribution mu with
    ``max_q sum_p mu(p) alpha_sub[i, p, q] <= 1/2``.

    Solves min-max: minimize t subject to every column load at most t,
    mu a distribution. The optimum provably sits at or below 1/2. The stack
    is solved in one lockstep simplex and gives a read-only ``(B, k)`` array,
    row i the mu of block i; :class:`Infeasible` carries the ``index`` of the
    first failing block.
    """
    a = _check_alpha_sub(alpha_sub)
    B, k = a.shape[:2]
    c = np.zeros(k + 1)
    c[k] = 1.0
    # row q of LP i: sum_p mu_p a[i, p, q] - t <= 0
    a_ub = np.concatenate([a.transpose(0, 2, 1), np.full((B, k, 1), -1.0)], axis=2)
    try:
        x, val = solve_lp(c, a_ub, np.zeros(k), k)
    except InfeasibleLP as exc:  # cannot happen for a genuine alpha block
        raise Infeasible(str(exc), index=exc.index) from exc
    high = np.flatnonzero(val > 0.5 + DOM_SLACK_HARD)
    if high.size:
        i = int(high[0])
        raise Infeasible(f"min-max load {float(val[i])!r} exceeds 1/2", index=i)
    mu = x[:, :k]
    _replay_check(a, mu)
    return _distributions(mu)


def adversarial_dominating(alpha_sub, target, pages=None) -> np.ndarray:
    """Among admissible mu, maximize the mass on ``target``, for each block
    of the ``(B, k, k)`` stack.

    ``pages`` labels the rows of every block, ``(k,)`` or ``(B, k)`` (by
    default the row indices), and ``target`` is one label or one per block.
    Gives a read-only ``(B, k)`` array as :func:`dominating_distribution`
    does.
    """
    a = _check_alpha_sub(alpha_sub)
    B, k = a.shape[:2]
    labels = np.broadcast_to(np.arange(k) if pages is None else np.asarray(pages), (B, k))
    found = labels == np.reshape(target, (-1, 1))
    if not found.any(axis=1).all():
        raise ValueError(f"target {target!r} is not among the pages")
    c = np.zeros((B, k))
    c[np.arange(B), found.argmax(axis=1)] = -1.0
    try:
        x, _ = solve_lp(c, a.transpose(0, 2, 1), np.full(k, 0.5), k)
    except InfeasibleLP as exc:
        raise Infeasible(str(exc), index=exc.index) from exc
    _replay_check(a, x)
    return _distributions(x)


def median_index(chain, cap: int) -> np.ndarray:
    """First-passage medians of every page pair, as an ``(n, n)`` matrix.

    Entry ``[s, p]`` (s != p) is the smallest t in 1..``cap`` with
    Pr[p requested within t steps | last request s] >= 1/2, and ``inf`` when
    the survival probability (no request for p in t steps) is still above 1/2
    after ``cap`` steps, e.g. when p is unreachable from s. The diagonal is 0.

    One binary-lifting pass finds them all. ``q[p]`` is the transition matrix
    with column p zeroed, so row s of ``q[p]^t`` sums to the survival of s
    for t steps. The stack is squared up to ``q[p]^(2^J)``, 2^J the largest
    power of two not above ``cap``, or sooner once every row of the newest
    power sums to at most 1/2. Then, from j = J down to 0, each survival
    row moves on by ``q[p]^(2^j)`` where its step count t stays within ``cap``
    and its sum stays above 1/2. t ends as the last step that survives, and
    the median is t + 1 when t < ``cap``. The pass holds (J + 1) n^3 floats.

    The survival sums carry rounding, so a median past about 10^7 steps (a
    per-step hit probability below about 1e-7) can be off by a step or more.
    On i.i.d. chains with one entry in 1e-10..1e-7, medians differed from the
    closed form ``(1 - r)^t`` by up to 3e-7 relative, and by 2e-6 near 5e-11.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    n = chain.n
    q = np.repeat(chain.transition[None], n, axis=0)
    q[np.arange(n), :, np.arange(n)] = 0.0  # q[p] never requests p
    powers = [q]  # powers[j] = q^(2^j)
    # once every row of a power sums to <= 1/2, no row can survive a longer step
    while 2 ** len(powers) <= cap and powers[-1].sum(axis=2).max() > 0.5:
        powers.append(powers[-1] @ powers[-1])
    rows = np.broadcast_to(np.eye(n), q.shape)  # rows[p, s]: s's mass after t[p, s] steps
    t = np.zeros((n, n))  # float: caps past 2^63 must not overflow
    for j in reversed(range(len(powers))):
        trial = rows @ powers[j]
        ok = (t + 2.0**j <= cap) & (trial.sum(axis=2) > 0.5)
        rows = np.where(ok[:, :, None], trial, rows)
        t += np.where(ok, 2.0**j, 0.0)
    med = np.where(t < cap, t + 1.0, np.inf).T
    np.fill_diagonal(med, 0.0)
    return med


class Policy:
    """Base eviction rule.

    A memoryless rule states its choice once, in ``kernel_probs(idx,
    chain)``: the read-only ``(S, n, k)`` eviction table over ``idx =
    subset_index(n, k)``, whose row ``[r, j]`` is the distribution over
    sorted cache r when page j is requested, zero where j is resident; see
    :class:`TablePolicy`. History-dependent rules leave it ``None`` (so no
    subset index is built) and override :meth:`evict`, which gets the sorted
    tuple of resident pages. LRU and FIFO keep k pages with a stamp each and
    declare when a page's stamp moves: ``stamp_on_hit`` is True when a hit
    restamps the page (LRU), False when only a load does (FIFO), so the
    engine counts their trials' misses at once through
    :func:`_stamped_misses`. The rest leave it ``None`` and run step by step,
    one trial at a time.
    """

    name = "policy"
    kernel_probs = None
    stamp_on_hit = None

    def reset(self, ctx: RunContext) -> None:
        pass

    def evict(self, cache: tuple[int, ...], requested: int, ctx: RunContext, rng) -> int:
        raise NotImplementedError


def _miss_table(idx, rows) -> np.ndarray:
    """Read-only ``(S, n, k)`` table: ``rows``, broadcast, wherever the
    request misses, else zero."""
    probs = np.where(idx.member[:, :, None], 0.0, np.broadcast_to(rows, (len(idx), idx.n, idx.k)))
    probs.setflags(write=False)
    return probs


def _check_pages(idx, pages, what: str) -> None:
    """``ValueError`` for a page a rule names that no cache of ``idx`` holds."""
    outside = sorted(p for p in pages if not 0 <= p < idx.n)
    if outside:
        raise ValueError(f"{what} {outside[0]} is not among the chain's pages 0..{idx.n - 1}")


def evict(policy: Policy, cache: tuple[int, ...], requested: int, ctx: RunContext, rng) -> int:
    """Dispatch one eviction from the sorted tuple of resident pages and
    enforce that the victim is resident."""
    if requested in cache:
        raise ValueError(f"page {requested} is already resident; eviction not needed")
    page = policy.evict(cache, requested, ctx, rng)
    if page not in cache:
        raise RuntimeError(f"{policy.name} evicted non-resident page {page}")
    return page


class TablePolicy(Policy):
    """A memoryless rule whose eviction table is its only statement of choice.

    ``reset`` builds the table of the run's chain and k, so a chain the rule
    cannot handle fails before the first request; ``evict`` draws the victim
    from the table row of the cache and request with :func:`_draw`.
    """

    _kernel = None  # (subset index, eviction table) of the current run

    def reset(self, ctx: RunContext) -> None:
        if ctx.chain is None:
            raise MissingContext(f"{self.name} needs the chain")
        idx = subset_index(ctx.chain.n, ctx.k)
        self._kernel = (idx, self.kernel_probs(idx, ctx.chain))

    def evict(self, cache, requested, ctx, rng):
        if self._kernel is None:
            raise MissingContext(f"{self.name} was not reset")
        idx, probs = self._kernel
        return _draw(cache, probs[idx.rank[cache], requested], rng)


class DominatingPolicy(TablePolicy):
    """The dominating-distribution rule over the sorted cache.

    The precedence table is the pinned ``table`` when one is given, else
    ``alpha_table(chain)``. Every (cache, request not in cache) LP is solved
    in one stack into the ``(S, n, k)`` eviction table (S cache ranks of
    ``subset_index(n, k)``); ``chain.derived`` keeps the chain's own under
    (``name``, k), and a pinned table's is solved on each call. A pinned
    table over another page count than the chain's is a ``ValueError``.
    """

    name = "dominating"

    def __init__(self, table: alpha_mod.AlphaTable | None = None):
        self._table = table  # pinned: used whatever chain a call passes

    def kernel_probs(self, idx, chain):
        if self._table is not None:
            if self._table.n != idx.n:
                raise ValueError(f"the pinned precedence table has {self._table.n} pages, the chain has {idx.n}")
            return self._solve_table(self._table, idx)
        if chain is None:
            raise MissingContext(f"{self.name} needs a chain or a pinned precedence table")
        return derived(chain, (self.name, idx.k), lambda c: self._solve_table(alpha_mod.alpha_table(c), idx))

    def _solve_table(self, table, idx) -> np.ndarray:
        """The read-only ``(S, n, k)`` table; rows of hits stay zero.

        LPs are stacked in cache-rank, then request, order, so the first
        failing one is the pair that :class:`Infeasible` names.
        """
        rank, req = np.nonzero(~idx.member)
        pages = idx.pages[rank]
        targets = self._targets(pages)
        probs = np.zeros((len(idx), table.n, idx.k))
        for lo in range(0, len(rank), LP_BLOCK):
            part = slice(lo, lo + LP_BLOCK)
            p = pages[part]
            blocks = table.values[p[:, :, None], p[:, None, :], req[part, None, None]]
            try:
                probs[rank[part], req[part]] = self._solve(blocks, p, None if targets is None else targets[part])
            except Infeasible as exc:
                i = lo + exc.index
                cache, requested = tuple(pages[i].tolist()), int(req[i])
                target = None if targets is None else int(targets[i])
                used = "" if target is None else f", target {target}"
                raise Infeasible(
                    f"cache {cache}, request {requested}{used}: {exc}",
                    index=i, cache=cache, requested=requested, target=target,
                ) from exc
        probs.setflags(write=False)
        return probs

    def _targets(self, pages):
        return None

    def _solve(self, blocks, pages, targets):
        return dominating_distribution(blocks)


class AdversarialDominatingPolicy(DominatingPolicy):
    """Dominating policy that pushes mass onto a target page.

    When the target is not resident, the lowest-indexed resident page stands
    in, which on the 3-page adversarial family reproduces the stress choices
    for every reachable cache state. A target outside the chain's pages is
    never resident, so building the table raises ``ValueError`` for it.
    """

    def __init__(self, target: int, table: alpha_mod.AlphaTable | None = None):
        super().__init__(table)
        self.target = target
        self.name = f"dominating-adversarial:{target}"

    def kernel_probs(self, idx, chain):
        _check_pages(idx, (self.target,), "target page")
        return super().kernel_probs(idx, chain)

    def _targets(self, pages):
        # caches are sorted, so column 0 is the lowest resident page
        return np.where((pages == self.target).any(axis=1), self.target, pages[:, 0])

    def _solve(self, blocks, pages, targets):
        return adversarial_dominating(blocks, targets, pages=pages)


class MedianPolicy(TablePolicy):
    """Evicts the resident page with the largest first-passage median from
    the request, ``median_index(chain, MEDIAN_CAP)`` kept by ``derived``;
    ``argmax`` over the sorted cache breaks ties to the lowest page."""

    name = "median"

    def kernel_probs(self, idx, chain):
        medians = derived(chain, "median", lambda c: median_index(c, MEDIAN_CAP))
        med = medians[np.arange(idx.n)[:, None], idx.pages[:, None, :]]
        return _miss_table(idx, np.arange(idx.k) == med.argmax(axis=2)[:, :, None])


class _IndexedPolicy(Policy):
    """Reads the run's sequence through its per-page step lists, built at ``reset``."""

    _occurrences: dict[int, list[int]] | None = None

    def reset(self, ctx: RunContext) -> None:
        if ctx.sequence is None:
            raise MissingContext(f"{self.name} needs the realized sequence")
        occ: dict[int, list[int]] = {}
        for i, page in enumerate(ctx.sequence.tolist()):
            occ.setdefault(page, []).append(i)
        self._occurrences = occ


class FarthestInFuture(_IndexedPolicy):
    """Clairvoyant offline rule: evict the page requested latest from now."""

    name = "fif"

    def evict(self, cache, requested, ctx, rng):
        if self._occurrences is None:
            raise MissingContext("farthest-in-future policy was not reset with a sequence")
        following = {}  # each page's next request after step t, which serves index t - 1
        for p in cache:
            occ = self._occurrences.get(p, ())
            i = bisect.bisect_left(occ, ctx.t)
            following[p] = occ[i] if i < len(occ) else math.inf
        return max(cache, key=following.__getitem__)  # ties: the first page in cache order


def _stamped_misses(pages: np.ndarray, init_cache, stamp_on_hit) -> np.ndarray:
    """Miss count per row of the ``(trials, T)`` request array ``pages``,
    every row stepped at once, as LRU where ``stamp_on_hit`` (one flag per
    row) is True and as FIFO where it is False.

    Each row keeps its k pages in fixed slots with a stamp per slot: the
    step of the last use under LRU, of the last load under FIFO. The victim
    is the slot with the least stamp, so a step is one ``(trials, k)``
    comparison and one ``argmin``. The initial pages are stamped in
    ascending order, the tie-break of ``LruPolicy`` and ``FifoPolicy``.
    """
    trials, T = pages.shape
    k = len(init_cache)
    held = np.tile(np.array(sorted(init_cache), dtype=np.int64), (trials, 1))
    stamp = np.tile(np.arange(-k, 0), (trials, 1))
    held_at, stamp_at = held.reshape(-1), stamp.reshape(-1)
    row = np.arange(0, trials * k, k)
    keep_on_hit = ~np.asarray(stamp_on_hit, dtype=bool)
    hits = np.zeros(trials, dtype=np.int64)
    for t in range(T):
        page = pages[:, t]
        # the slot holding the page, else the least stamp
        at = row + np.where(held == page[:, None], -k - 1, stamp).argmin(axis=1)
        hit = held_at[at] == page
        hits += hit
        held_at[at] = page
        stamp_at[at] = np.where(hit & keep_on_hit, stamp_at[at], t)
    return T - hits


class LruPolicy(_IndexedPolicy):
    name = "lru"
    stamp_on_hit = True

    def evict(self, cache, requested, ctx, rng):
        if self._occurrences is None:
            raise MissingContext("lru was not reset with a sequence")
        last = {}  # each page's last use before step t, which serves index t - 1
        for p in cache:
            occ = self._occurrences.get(p, ())
            i = bisect.bisect_left(occ, ctx.t - 1)
            last[p] = occ[i - 1] if i else -1
        return min(cache, key=lambda p: (last[p], p))  # ties: never used, lowest page


class FifoPolicy(Policy):
    name = "fifo"
    stamp_on_hit = False

    def __init__(self):
        self._queue: list[int] = []

    def reset(self, ctx: RunContext) -> None:
        self._queue = sorted(ctx.init_cache)

    def evict(self, cache, requested, ctx, rng):
        victim = self._queue.pop(0)
        self._queue.append(requested)
        return victim


class RandomEvictionPolicy(TablePolicy):
    """Uniform eviction."""

    name = "random"

    def kernel_probs(self, idx, chain):
        return _miss_table(idx, np.full(idx.k, 1.0 / idx.k))


class PinnedPolicy(TablePolicy):
    """Never evicts the pinned pages; otherwise evicts the lowest index.

    Building the table raises ``ValueError`` for a pinned page outside the
    chain's pages and ``RuntimeError`` when some cache of size k is all
    pinned, so ``reset`` does too, before the run's first request.
    """

    def __init__(self, pinned):
        self.pinned = frozenset(pinned)
        self.name = "pinned:" + ",".join(str(p) for p in sorted(self.pinned))

    def kernel_probs(self, idx, chain):
        _check_pages(idx, self.pinned, "pinned page")
        free = ~np.isin(idx.pages, list(self.pinned))
        if not free.any(axis=1).all():
            raise RuntimeError("all resident pages are pinned")
        return _miss_table(idx, np.arange(idx.k) == free.argmax(axis=1)[:, None, None])


class OptReplayPolicy(Policy):
    """Replays the stored finite-horizon optimal eviction table."""

    name = "opt-dp"

    def __init__(self, table):
        self.table = table

    def evict(self, cache, requested, ctx, rng):
        return opt_action(self.table, ctx.t, cache, requested)


def parse_policy(name: str) -> Policy:
    """Build a policy from its CLI name; ``opt-dp`` needs a table for one
    chain, k and T, so its caller builds it."""
    if name.startswith("dominating-adversarial:"):
        return AdversarialDominatingPolicy(int(name.split(":", 1)[1]))
    for rule in (DominatingPolicy, MedianPolicy, FarthestInFuture, LruPolicy, FifoPolicy, RandomEvictionPolicy):
        if name == rule.name:
            return rule()
    raise ValueError(f"unknown policy {name!r}")
