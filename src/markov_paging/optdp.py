"""Exact finite-horizon optimal online paging by backward dynamic programming.

State is (cache contents, last requested page); caches are the C(n, k) sorted
k-subsets, indexed densely by their lexicographic rank. The recursion walks
time backward keeping two layers: a hit moves at zero cost, a miss costs 1
plus the best successor value over evictions. A miss is counted on every
request, including the first (drawn from the chain's initial distribution).
Each backward step handles every cache rank at once. The DP reads the index's
slot-major ``cells``, where every slot of a hit holds the hit's own cell, so
the step is one flat ``take`` of successor values, one min over the leading
slot axis, one add of the miss cost (1 on a miss, 0 on a hit) and
stacked matrix-vector products with the transition matrix; recorded actions
add one argmin and one gather of ``evicted``. A reduction over the leading
axis of a ``(k, S, n)`` array is several times faster than one over a k-wide
last axis; a single gemm ``cost @ M.T`` would be faster still, but it rounds
differently from ``M @ cost[r]``.

The state-step count n * C(n, k) * T is checked against a budget before any
allocation; this module is meant for desk-scale exact answers, not large k.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

DEFAULT_BUDGET = 10**8


class BudgetExceeded(RuntimeError):
    def __init__(self, state_steps: int, budget: int):
        self.state_steps = state_steps
        super().__init__(f"DP needs {state_steps} state-steps, budget is {budget}")


class SubsetIndex:
    """The sorted k-subsets of range(n), ranked in lexicographic order.

    ``rank`` maps a sorted cache tuple to its rank r, ``pages[r]`` lists its
    pages and ``member[r, j]`` tells whether page j is one of them. The
    slot-major ``cells[e, r, j]`` is the flat (cache rank, page) cell that
    request j leads to when slot e is evicted, and ``evicted[e, r, j]`` that
    slot's page; a hit holds its own cell ``r * n + j`` in every slot, and
    -1. The arrays are read-only, so one index can be shared; get it through
    :func:`subset_index`.
    """

    def __init__(self, n: int, k: int):
        check_k(k, n)
        self.n = n
        self.k = k
        subsets = list(itertools.combinations(range(n), k))
        self.rank = {s: i for i, s in enumerate(subsets)}
        self.pages = np.array(subsets, dtype=np.int64)  # (S, k)
        self.member = (self.pages[:, :, None] == np.arange(n)).any(axis=1)
        self.cells = np.tile(np.arange(len(subsets) * n).reshape(-1, n), (k, 1, 1))
        for r, sub in enumerate(subsets):
            for j in set(range(n)).difference(sub):
                for e in range(k):
                    self.cells[e, r, j] = n * self.rank[tuple(sorted(sub[:e] + sub[e + 1 :] + (j,)))] + j
        self.evicted = np.where(self.member, -1, self.pages.T[:, :, None]).astype(np.int16)
        for arr in (self.member, self.pages, self.cells, self.evicted):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.pages)


@functools.lru_cache(maxsize=32)
def subset_index(n: int, k: int) -> SubsetIndex:
    """The shared :class:`SubsetIndex` for (n, k), built once."""
    return SubsetIndex(n, k)


def check_k(k: int, n: int) -> None:
    """``ValueError`` unless the cache size k lies in 1..n-1."""
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")


def check_cache(cache, n: int, k: int) -> tuple[int, ...]:
    """``cache`` as a sorted tuple of ints; ``ValueError`` unless it holds k
    distinct integer pages, each in 0..n-1."""
    pages = tuple(sorted(cache))
    if (
        len(pages) != k
        or len(set(pages)) != k
        or not all(isinstance(p, (int, np.integer)) and 0 <= p < n for p in pages)
    ):
        raise ValueError(
            f"initial cache must hold k={k} distinct pages in 0..{n - 1}, got {tuple(cache)}"
        )
    return tuple(int(p) for p in pages)


def check_pages(pages, n: int | None, what: str = "page") -> None:
    """``ValueError`` naming the first of ``pages`` below 0 or, given ``n``, not below n."""
    pages = np.asarray(pages)  # object dtype for a Python int past int64
    bad = (pages < 0) | (pages >= (np.inf if n is None else n))
    if bad.any():
        where = "a page index" if n is None else f"among the chain's pages 0..{n - 1}"
        raise ValueError(f"{what} {int(pages[np.argmax(bad)])} is not {where}")


class SequenceTooShort(ValueError):
    """A run's horizon reaches past its request sequence."""


def check_run(pages, init_cache, k: int, chain, T: int | None = None, T_ext: int | None = None) -> tuple[int, tuple[int, ...]]:
    """``(n, cache)`` of one run over the first ``T`` requests of ``pages``
    (default: all), which must extend to ``T_ext`` (default: its full
    length). n is ``chain.n`` or, without a chain, one more than the largest
    page of ``pages`` and ``init_cache``; ``cache`` is ``init_cache`` sorted.
    Refused, in order: what :func:`check_horizon` refuses,
    :class:`SequenceTooShort` unless ``T <= T_ext <= len(pages)``, then what
    :func:`check_pages` (below a given ``chain.n``) and :func:`check_cache`
    refuse."""
    if T is not None:
        check_horizon(T)
        ext = len(pages) if T_ext is None else T_ext
        if not T <= ext <= len(pages):
            raise SequenceTooShort(f"need T={T} <= T_ext={ext} <= len(seq)={len(pages)}")
    check_pages(pages, None if chain is None else chain.n)
    n = chain.n if chain is not None else 1 + max(int(np.max(pages, initial=0)), max(init_cache, default=0))
    return n, check_cache(init_cache, n, k)


def check_horizon(T: int) -> None:
    """``ValueError`` when the horizon T is negative; a horizon of 0 costs 0."""
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")


@dataclass
class OptTable:
    """DP output: the horizon and cache index, plus (optionally) action and
    value layers.

    ``action[t, r, j]`` is the page evicted at request index t (1-based) when
    the cache has rank r and page j misses; -1 marks hits. ``value[t, r, s]``
    is the expected number of misses among requests t+1..T from the
    after-request state (cache r, last page s).
    """

    T: int
    index: SubsetIndex
    action: np.ndarray | None = None
    value: np.ndarray | None = None


def opt_expected_cost(
    chain,
    k: int,
    T: int,
    init_cache,
    *,
    budget: int = DEFAULT_BUDGET,
    record_actions: bool = True,
    record_values: bool = False,
):
    """Expected misses of the optimal online policy, with its decision table.

    Returns ``(value, OptTable)``. Eviction ties are broken toward the lowest
    page index, so replays are stable run to run.
    """
    n = chain.n
    check_horizon(T)
    init_cache = check_cache(init_cache, n, k)
    idx = subset_index(n, k)
    S = len(idx)
    state_steps = n * S * max(T, 1)
    if state_steps > budget:
        raise BudgetExceeded(state_steps, budget)

    action = np.full((T + 1, S, n), -1, dtype=np.int16) if record_actions else None
    value = np.zeros((T + 1, S, n)) if record_values else None

    M = chain.transition
    here = np.arange(S * n).reshape(S, n)  # flat (cache, page) cell
    # every slot of a hit holds the hit's own cell, so its min is v_next[r, j]
    # and adding 0.0 keeps it (v_next is never -0.0); a miss's min + 1.0 is
    # the IEEE sum 1.0 + min
    missed = (~idx.member).astype(float)
    evicted = idx.evicted.reshape(k, S * n)
    cost = np.empty((S, n))
    prod = np.zeros((S, n, 1))
    v_next = prod[:, :, 0]  # layer V_T, then each layer the matmul writes
    total = 0.0
    for t in range(T, 0, -1):
        if record_values:
            value[t] = v_next
        cand = v_next.take(idx.cells)  # (k, S, n): successor values per eviction
        np.minimum.reduce(cand, axis=0, out=cost)
        cost += missed
        if record_actions:
            # pages ascend within a subset, so the first argmin is the lowest
            # page; a hit's slots tie, and its slot 0 holds -1
            action[t] = evicted[cand.argmin(axis=0), here]
        if t > 1:
            # stacked matrix-vector products round exactly as M @ cost[r] does
            np.matmul(M, cost[:, :, None], out=prod)
        else:
            total = float(chain.init @ cost[idx.rank[init_cache]])

    table = OptTable(T=T, index=idx, action=action, value=value)
    return total, table


def opt_action(table: OptTable, t: int, cache, requested: int) -> int:
    """Stored optimal eviction at request index ``t`` (1-based); once the
    realized request is known it does not depend on the previous one."""
    if table.action is None:
        raise KeyError("table was built without recorded actions")
    if not 1 <= t <= table.T:
        raise KeyError(f"time {t} outside horizon 1..{table.T}")
    key = tuple(sorted(cache))
    r = table.index.rank.get(key)
    if r is None:
        raise KeyError(f"cache {key} is not a {table.index.k}-subset state")
    page = int(table.action[t, r, requested])
    if page < 0:
        raise KeyError(f"page {requested} is resident in {key}; no action stored")
    return page

