"""Eviction policies behind one interface.

On a cache miss a policy picks a resident page to evict. The interesting ones:

* dominating distribution: draw the victim from a distribution mu over the
  cache under which, for every fixed resident page q, the mu-average of
  alpha(p<q) is at most 1/2, so the evicted page tends to return later than
  anything kept. Such a mu always exists and is found by a tiny LP. The
  2-competitive bound holds for every mu in this set, so the rule's
  ``target`` picks a member: none gives the min-max mu, a target page the
  mu that evicts it with the largest probability (a worst-case member, for
  stress constructions). ``dominating_distribution`` solves both LPs; only
  the objective (and the min-max rule's load variable) differs.
* median: deterministically evict the resident page whose next request has the
  largest median arrival time. ``median_index`` finds the first-passage
  medians of every page pair of a chain in one binary-lifting pass.
* farthest-in-future: the clairvoyant offline rule, needs the realized trace.
* lru / fifo / random / pinned: baselines and test harness aids.

Each rule states its choice once, and ``engine.trial_misses`` and
``engine.replay`` dispatch on its form: a memoryless rule (dominating,
median, random, pinned) gives its eviction table, ``kernel_probs(idx,
chain)``, from whose rows a replay draws each victim with one
``rng.random()``, so the deterministic rules' one-hot rows still pick their
page; LRU and FIFO declare ``stamp_on_hit`` for :func:`_stamped_held`; and a
history-dependent rule (farthest-in-future, OPT replay) decides per miss in
``evict(cache, requested, t)``, t the 1-based step, from what ``reset`` read
of the run's request sequence.

No policy keeps a table of its own: ``chain.derived`` keeps a chain's median
matrix and each (rule, k) dominating eviction table (one stacked LP solve,
``LP_BLOCK`` LPs per simplex call), so fresh policies on one chain (the
benchmark's per-scheme ``run_audit``, the CLI's fixed-chain runs) share one
build.
"""

from __future__ import annotations

import bisect
import math
from itertools import accumulate

import numpy as np

from . import alpha as alpha_mod
from .chain import derived
from .optdp import check_pages, opt_action
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
    and with a target the ``target`` page it used.
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
        raise ValueError(f"negative probability {float(probs.min())!r}")
    p = np.where(probs < 0.0, 0.0, probs)
    sums = p.sum(axis=-1)
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= 1e-9))  # NaN fails too
    if bad.size:
        raise ValueError(f"probabilities sum to {float(np.ravel(sums)[bad[0]])!r}")
    p.setflags(write=False)
    return p


def check_eviction_table(idx, probs, name: str) -> None:
    """``ValueError`` naming the first bad (cache, page) row unless ``probs``
    is an ``(S, n, k)`` eviction table over ``idx``: each miss row finite,
    non-negative and summing to 1 within 1e-9, each hit row zero."""
    want = (len(idx), idx.n, idx.k)
    if np.shape(probs) != want:
        raise ValueError(f"{name} eviction table has shape {np.shape(probs)}, want {want}")
    # with no entry negative or NaN, a row summing to 0 is zero; an inf fails its sum
    miss = ~idx.member
    sum_ok = np.abs(probs.sum(axis=2) - miss) <= 1e-9 * miss
    if not (probs.min() >= 0.0 and sum_ok.all()):
        r, j = np.argwhere(~((probs >= 0.0).all(axis=2) & sum_ok))[0]
        cache = tuple(idx.pages[r].tolist())
        want = "a hit row must be 0" if idx.member[r, j] else "a miss row must be a distribution"
        raise ValueError(f"{name} eviction table, cache {cache}, page {j}: {want}, got {probs[r, j].tolist()}")


def _draw(pages, probs, rng) -> int:
    """One page of ``pages`` drawn from ``probs`` by one ``rng.random()``
    (running sums in order, as ``np.cumsum``'s)."""
    i = bisect.bisect_right(list(accumulate(probs.tolist())), rng.random())
    return pages[min(i, len(pages) - 1)]


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


def dominating_distribution(alpha_sub, target=None) -> np.ndarray:
    """For each block of the ``(B, k, k)`` stack, a distribution mu with
    ``max_q sum_p mu(p) alpha_sub[i, p, q] <= 1/2``.

    Without a ``target`` the LP is min-max: minimize t subject to every
    column load at most t, mu a distribution. The optimum provably sits at
    or below 1/2. With a ``target`` row (one index, or one per block) it
    maximizes mu's mass on that row subject to every column load at most
    1/2; a row outside 0..k-1 is a ``ValueError``. The stack is solved in one
    lockstep simplex and gives a read-only ``(B, k)`` array, row i the mu of
    block i; :class:`Infeasible` carries the ``index`` of the first failing
    block.
    """
    a = _check_alpha_sub(alpha_sub)
    B, k = a.shape[:2]
    if target is None:
        c = np.zeros(k + 1)
        c[k] = 1.0
        # row q of LP i: sum_p mu_p a[i, p, q] - t <= 0
        a_ub = np.concatenate([a.transpose(0, 2, 1), np.full((B, k, 1), -1.0)], axis=2)
        b_ub = np.zeros(k)
    else:
        rows = np.broadcast_to(target, (B,))
        if not np.all((rows >= 0) & (rows < k)):
            raise ValueError(f"target row {target!r} is not in 0..{k - 1}")
        c = np.zeros((B, k))
        c[np.arange(B), rows] = -1.0
        a_ub, b_ub = a.transpose(0, 2, 1), np.full(k, 0.5)
    try:
        x, val = solve_lp(c, a_ub, b_ub, k)
    except InfeasibleLP as exc:  # cannot happen for a genuine alpha block
        raise Infeasible(str(exc), index=exc.index) from exc
    if target is None:
        high = np.flatnonzero(~(val <= 0.5 + DOM_SLACK_HARD))  # NaN fails too
        if high.size:
            i = int(high[0])
            raise Infeasible(f"min-max load {float(val[i])!r} exceeds 1/2", index=i)
    mu = x[:, :k]
    # the solution re-checked: every LP's column loads mu[i] @ a[i] stay at most 1/2
    worst = np.matmul(mu[:, None, :], a)[:, 0].max(axis=1, initial=-np.inf)
    bad = np.flatnonzero(~(worst <= 0.5 + DOM_SLACK_HARD))  # NaN fails too
    if bad.size:
        i = int(bad[0])
        raise Infeasible(f"column load {float(worst[i])!r} exceeds 1/2; input inconsistent", index=i)
    return _distributions(mu)


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
    sorted cache r when page j is requested, zero where j is resident. LRU
    and FIFO keep k pages with a stamp each and declare when a page's stamp
    moves: ``stamp_on_hit`` is True when a hit restamps the page (LRU),
    False when only a load does (FIFO). A history-dependent rule leaves both
    ``None`` (so no subset index is built) and overrides :meth:`reset`, which
    gets the run's request sequence before its first request, and
    :meth:`evict`, which gets the sorted tuple of resident pages, the
    requested page and its 1-based step t and draws nothing, so its choice
    is a function of its run.
    """

    name = "policy"
    kernel_probs = None
    stamp_on_hit = None

    def reset(self, sequence) -> None:
        pass

    def evict(self, cache: tuple[int, ...], requested: int, t: int) -> int:
        raise NotImplementedError


def _miss_table(idx, rows) -> np.ndarray:
    """Read-only ``(S, n, k)`` table: ``rows``, broadcast, wherever the
    request misses, else zero."""
    probs = np.where(idx.member[:, :, None], 0.0, np.broadcast_to(rows, (len(idx), idx.n, idx.k)))
    probs.setflags(write=False)
    return probs


def evict(policy: Policy, cache: tuple[int, ...], requested: int, t: int) -> int:
    """Dispatch one history rule's eviction at step t (1-based) from the
    sorted tuple of resident pages and enforce that the victim is resident."""
    if requested in cache:
        raise ValueError(f"page {requested} is already resident; eviction not needed")
    page = policy.evict(cache, requested, t)
    if page not in cache:
        raise RuntimeError(f"{policy.name} evicted non-resident page {page}")
    return page


class DominatingPolicy(Policy):
    """The dominating-distribution rule over the sorted cache.

    Each eviction distribution is a mu of :func:`dominating_distribution`:
    without a ``target`` the min-max mu; with one the admissible mu that
    evicts the target page with the largest probability, and ``name``
    becomes ``dominating-adversarial:<target>``. When the target is not
    resident, the lowest resident page stands in, which on the 3-page
    adversarial family reproduces the stress choices for every reachable
    cache state. A target outside the chain's pages is a ``ValueError``.

    The precedence table is the pinned ``table`` when one is given, else
    ``alpha_table(chain)``. Every (cache, request not in cache) LP is solved
    in one stack into the ``(S, n, k)`` eviction table (S cache ranks of
    ``subset_index(n, k)``); ``chain.derived`` keeps the chain's own under
    (``name``, k), and a pinned table's is solved on each call. A pinned
    table over another page count than the chain's is a ``ValueError``.
    """

    name = "dominating"

    def __init__(self, table: alpha_mod.AlphaTable | None = None, target: int | None = None):
        self._table = table  # pinned: used whatever chain a call passes
        self.target = target
        if target is not None:
            self.name = f"dominating-adversarial:{target}"

    def kernel_probs(self, idx, chain):
        if self.target is not None:
            check_pages([self.target], idx.n, "target page")
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
        # caches are sorted, so a target not resident gives column 0, the lowest resident page
        cols = (pages == self.target).argmax(axis=1)
        probs = np.zeros((len(idx), table.n, idx.k))
        for lo in range(0, len(rank), LP_BLOCK):
            part = slice(lo, lo + LP_BLOCK)
            p = pages[part]
            blocks = table.values[p[:, :, None], p[:, None, :], req[part, None, None]]
            try:
                mu = dominating_distribution(blocks, None if self.target is None else cols[part])
            except Infeasible as exc:
                i = lo + exc.index
                cache, requested = tuple(pages[i].tolist()), int(req[i])
                target = None if self.target is None else cache[cols[i]]
                used = "" if target is None else f", target {target}"
                raise Infeasible(
                    f"cache {cache}, request {requested}{used}: {exc}",
                    index=i, cache=cache, requested=requested, target=target,
                ) from exc
            probs[rank[part], req[part]] = mu
        probs.setflags(write=False)
        return probs


class MedianPolicy(Policy):
    """Evicts the resident page with the largest first-passage median from
    the request, ``median_index(chain, MEDIAN_CAP)`` kept by ``derived``;
    ``argmax`` over the sorted cache breaks ties to the lowest page."""

    name = "median"

    def kernel_probs(self, idx, chain):
        medians = derived(chain, "median", lambda c: median_index(c, MEDIAN_CAP))
        med = medians[np.arange(idx.n)[:, None], idx.pages[:, None, :]]
        return _miss_table(idx, np.arange(idx.k) == med.argmax(axis=2)[:, :, None])


class FarthestInFuture(Policy):
    """Clairvoyant offline rule: evict the page requested latest from now.
    ``reset(sequence)`` lists each page's steps in the run's sequence."""

    name = "fif"
    _occurrences: dict[int, list[int]] | None = None

    def reset(self, sequence) -> None:
        if sequence is None:
            raise MissingContext(f"{self.name} needs the realized sequence")
        occ: dict[int, list[int]] = {}
        for i, page in enumerate(sequence.tolist()):
            occ.setdefault(page, []).append(i)
        self._occurrences = occ

    def evict(self, cache, requested, t):
        if self._occurrences is None:
            raise MissingContext("farthest-in-future policy was not reset with a sequence")
        following = {}  # each page's next request after step t, which serves index t - 1
        for p in cache:
            occ = self._occurrences.get(p, ())
            i = bisect.bisect_left(occ, t)
            following[p] = occ[i] if i < len(occ) else math.inf
        return max(cache, key=following.__getitem__)  # ties: the first page in cache order


def _stamped_held(pages: np.ndarray, init_cache, stamp_on_hit) -> np.ndarray:
    """Every row of the ``(trials, T)`` request array ``pages`` stepped at
    once, as LRU where ``stamp_on_hit`` (one flag per row) is True and as
    FIFO where it is False. Entry ``[t, i]`` of the ``(T, trials)`` result
    is the page that the slot used by row i's step t held before the step,
    so the step misses exactly where it differs from the request, and then
    evicts it.

    Each row keeps its k pages in fixed slots with a stamp per slot: the
    step of the last use under LRU, of the last load under FIFO. The victim
    is the slot with the least stamp, so a step is one ``(trials, k)``
    comparison and one ``argmin``. The initial pages are stamped in
    ascending order, so a never-used page goes first, the lowest first.
    """
    trials, T = pages.shape
    k = len(init_cache)
    held = np.tile(np.array(sorted(init_cache), dtype=np.int64), (trials, 1))
    stamp = np.tile(np.arange(-k, 0), (trials, 1))
    held_at, stamp_at = held.reshape(-1), stamp.reshape(-1)
    row = np.arange(0, trials * k, k)
    keep_on_hit = ~np.asarray(stamp_on_hit, dtype=bool)
    before = np.empty((T, trials), dtype=np.int64)
    for t in range(T):
        page = pages[:, t]
        # the slot holding the page, else the least stamp
        at = row + np.where(held == page[:, None], -k - 1, stamp).argmin(axis=1)
        before[t] = held_at[at]
        held_at[at] = page
        stamp_at[at] = np.where((before[t] == page) & keep_on_hit, stamp_at[at], t)
    return before


class LruPolicy(Policy):
    name = "lru"
    stamp_on_hit = True


class FifoPolicy(Policy):
    name = "fifo"
    stamp_on_hit = False


class RandomEvictionPolicy(Policy):
    """Uniform eviction."""

    name = "random"

    def kernel_probs(self, idx, chain):
        return _miss_table(idx, np.full(idx.k, 1.0 / idx.k))


class PinnedPolicy(Policy):
    """Never evicts the pinned pages; otherwise evicts the lowest index.

    Building the table raises ``ValueError`` for a pinned page outside the
    chain's pages and ``RuntimeError`` when some cache of size k is all
    pinned, so a replay does too, before its first request.
    """

    def __init__(self, pinned):
        self.pinned = frozenset(pinned)
        self.name = "pinned:" + ",".join(str(p) for p in sorted(self.pinned))

    def kernel_probs(self, idx, chain):
        check_pages(sorted(self.pinned), idx.n, "pinned page")
        free = ~np.isin(idx.pages, list(self.pinned))
        if not free.any(axis=1).all():
            raise RuntimeError("all resident pages are pinned")
        return _miss_table(idx, np.arange(idx.k) == free.argmax(axis=1)[:, None, None])


class OptReplayPolicy(Policy):
    """Replays the stored finite-horizon optimal eviction table."""

    name = "opt-dp"

    def __init__(self, table):
        self.table = table

    def evict(self, cache, requested, t):
        return opt_action(self.table, t, cache, requested)


def parse_policy(name: str) -> Policy:
    """Build a policy from its CLI name; ``opt-dp`` needs a table for one
    chain, k and T, so its caller builds it."""
    if name.startswith("dominating-adversarial:"):
        target = name.split(":", 1)[1]
        try:
            page = int(target)
        except ValueError:
            raise ValueError(f"policy {name!r}: the target must be a page index, got {target!r}") from None
        return DominatingPolicy(target=page)
    for rule in (DominatingPolicy, MedianPolicy, FarthestInFuture, LruPolicy, FifoPolicy, RandomEvictionPolicy):
        if name == rule.name:
            return rule()
    raise ValueError(f"unknown policy {name!r}")
