"""Markov chains over pages: validation, sampling, and the 3-page adversarial family.

Pages are dense 0-based indices. A chain is an n x n row-stochastic transition
matrix plus an initial distribution; external page names, when present in a
chain file, live in a sidecar dictionary and never enter the hot paths.

Sampling is exact inversion of each row's cumulative sum, done by table
lookups. ``next_page_table`` merges every row's breakpoints into one sorted
grid and maps (grid cell, page) to the next page; ``grid_lookup`` places
uniforms in the grid by bisection or a bucket guide, chosen once for the
count a caller places per call, and ``grid_cells`` is one such lookup.
``sample_sequence`` walks a long trace on a chain of at most ``WALK_PAGES``
pages in chunks, composing each chunk's per-step maps from every start page
at once until the chunk's paths from every page have met (on a permutation
chain they never do), and as one path after, so it costs a fixed number of
array operations per chunk and no Python step per request; it steps a short
trace, or a trace on more pages, request by request.
``sample_trials`` steps many short traces side by side, read one after
another from one generator's stream, the first of them the trace
``sample_sequence`` draws from the same seed. ``derived`` keeps
every table built from the last chain asked for, matched by transition
bytes, until another chain is asked for, so the sampling table's (n²+1)·n
int64 outlive the call, the size class of the kept n³ precedence table.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .optdp import check_horizon

ROW_SUM_TOL = 1e-9  # acceptance tolerance on input rows; rows are renormalized once
GUIDE_CAP = 1 << 16  # most buckets in a grid's guide table (grid_lookup)
SHORT_TRACE = 1 << 10  # longest trace sample_sequence steps; floor of grid_lookup's search cut
WALK_BLOCK = 1 << 16  # requests sampled and walked at once by sample_sequence
WALK_PAGES = 40  # sample_sequence steps chains with more pages one request at a time
CHUNK_RATIO = 32  # a block of m steps is walked in chunks of isqrt(m / CHUNK_RATIO) steps
SPLIT_STEP = 6  # _walk steps every chunk from every page this far, then each met chunk as one path


class NonStochasticRow(ValueError):
    """A transition row (or the initial distribution) does not sum to 1."""


@dataclass(frozen=True)
class MarkovChain:
    """Validated, immutable time-homogeneous chain over ``n`` pages.

    ``transition`` rows are renormalized exactly once at validation so that
    downstream solvers see row sums of 1 in working precision.
    """

    n: int
    transition: np.ndarray
    init: np.ndarray

    def __post_init__(self):
        self.transition.setflags(write=False)
        self.init.setflags(write=False)


def _floats(values, what: str) -> np.ndarray:
    """``values`` as a float array; ``ValueError`` when an entry is not a number."""
    try:
        return np.array(values, dtype=float)
    except TypeError:
        raise ValueError(f"{what} entries must be numbers") from None


def validate_chain(matrix, init=None) -> MarkovChain:
    """Check and normalize a transition matrix into a :class:`MarkovChain`.

    Rows must be nonnegative, entries at most 1, and sum to 1 within
    ``ROW_SUM_TOL``; they are then renormalized exactly once. ``init`` defaults
    to the uniform distribution. A NaN entry fails the range check.
    """
    m = _floats(matrix, "transition")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"transition matrix must be square, got shape {m.shape}")
    n = m.shape[0]
    if n < 2:
        raise ValueError("need at least 2 pages")
    # written so that NaN, which fails every comparison, fails the checks
    if not np.all((m >= 0) & (m <= 1)):
        raise NonStochasticRow("transition entries must lie in [0, 1]")
    row_sums = m.sum(axis=1)
    bad = np.flatnonzero(~(np.abs(row_sums - 1.0) <= ROW_SUM_TOL))
    if bad.size:
        raise NonStochasticRow(
            f"row {bad[0]} sums to {row_sums[bad[0]]!r}, off 1 by more than {ROW_SUM_TOL}"
        )
    m /= row_sums[:, None]

    if init is None:
        v = np.full(n, 1.0 / n)
    else:
        v = _floats(init, "init")
        if v.shape != (n,):
            raise ValueError(f"init must have length {n}, got shape {v.shape}")
        if not np.all((v >= 0) & (v <= 1)):
            raise NonStochasticRow("init entries must lie in [0, 1]")
        s = v.sum()
        if not abs(s - 1.0) <= ROW_SUM_TOL:
            raise NonStochasticRow(f"init sums to {s!r}")
        v /= s

    return MarkovChain(n=n, transition=m, init=v)


_kept: tuple[bytes, dict] = (b"", {})  # the last chain's transition bytes and its tables


def derived(chain: MarkovChain, key, build):
    """``build(chain)``, kept under ``key`` until another transition matrix
    is asked for. A build that raises keeps nothing, so its guards run
    again; every array kept, alone or in a tuple, is made read-only."""
    global _kept
    matrix = chain.transition.tobytes()
    if _kept[0] != matrix:
        _kept = (matrix, {})
    tables = _kept[1]
    if key not in tables:
        value = build(chain)
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                a.setflags(write=False)
        tables[key] = value
    return tables[key]


def forget() -> None:
    """Drop every kept table, so that a changed guard tolerance applies."""
    _kept[1].clear()


def next_page_table(chain: MarkovChain) -> tuple[np.ndarray, np.ndarray]:
    """The merged grid of ``chain``'s cumulative rows and its next-page table.

    ``grid`` holds all n² cumulative transition entries, sorted. A uniform
    ``u`` falls in cell ``c = searchsorted(grid, u, side="right")``, and
    ``table[c * n + r]`` is the request that follows page ``r``: the first
    page whose cumulative probability in row ``r`` exceeds ``u``, clamped to
    n-1 for rows whose sum rounds below 1. The lookup is exact, not an
    approximation: every row's breakpoints are grid values, so inside a cell
    ``searchsorted(cum[r], u, side="right")`` does not change. Equal grid
    values leave empty cells between them, which no uniform reaches. The
    table holds (n²+1)·n pages; ``grid_cells`` finds a uniform's cell. Both
    are read-only and kept by ``derived``.
    """
    return derived(chain, "next page", _next_pages)


def _next_pages(chain: MarkovChain) -> tuple[np.ndarray, np.ndarray]:
    n = chain.n
    cum = np.cumsum(chain.transition, axis=1)
    # sorted by Python: the first np.sort in a process adds about 0.25 MB of RSS
    grid = np.array(sorted(cum.ravel().tolist()))
    table = np.zeros((n * n + 1, n), dtype=np.int64)  # cell 0 lies below every entry
    for r in range(n):
        table[1:, r] = np.searchsorted(cum[r], grid, side="right")
    np.minimum(table, n - 1, out=table)
    return grid, table.ravel()


def first_pages(chain: MarkovChain, u: np.ndarray) -> np.ndarray:
    """The first request of each trace: ``init``'s cumulative sum inverted at ``u``."""
    return np.minimum(np.searchsorted(np.cumsum(chain.init), u, side="right"), chain.n - 1)


def grid_lookup(grid: np.ndarray, size: int):
    """A function giving ``searchsorted(grid, u, side="right")`` for uniforms
    ``u`` in [0, 1) of any shape, chosen for ``size`` uniforms a call.

    Uniforms are placed through the equal-bucket guide table of Chen and Asau
    ("On generating random variates from an empirical distribution", AIIE
    Transactions, 1974), over the grid merged from all rows. There are G
    buckets [b/G, (b+1)/G), G a power of two near eight times the grid size
    and at most ``GUIDE_CAP``, so ``u * G`` and ``b / G`` are exact. Building
    it costs G sorted searches and a dozen array calls, so up to the larger
    of G/4 and ``SHORT_TRACE`` uniforms a call are placed by binary search
    alone, and a caller that places the same count many times builds the
    guide once. ``lo[b]`` counts the grid values below b/G. In a bucket that
    holds at most one grid value, a uniform's cell is ``lo[b]``, plus one if
    the first grid value at or past b/G is at most ``u``. Uniforms in
    buckets that hold more are placed by ``searchsorted`` on the grid, so the
    worst case is a plain binary search.
    """
    G = min(GUIDE_CAP, 1 << (8 * grid.size - 1).bit_length())
    if size <= max(SHORT_TRACE, G // 4):
        return lambda u: np.searchsorted(grid, u, side="right")
    lo, first = _guide(grid, G)

    def cells_of(u):
        b = (u * G).astype(np.intp)
        split = first[b]
        up, crowd = split <= u, np.isnan(split)
        del split  # one block-sized temporary fewer while lo[b] is taken
        cells = lo[b]
        cells += up
        if crowd.any():
            cells[crowd] = np.searchsorted(grid, u[crowd], side="right")
        return cells

    return cells_of


def _guide(grid: np.ndarray, G: int) -> tuple[np.ndarray, np.ndarray]:
    """``grid_lookup``'s guide over G buckets: ``lo``, and each bucket's
    first grid value at or past its start, NaN in a crowded bucket."""
    lo = np.searchsorted(grid, np.arange(G + 1) / G, side="left")
    first = np.append(grid, np.inf)[lo[:-1]]
    first[np.diff(lo) > 1] = np.nan  # marks a crowded bucket; no uniform is <= NaN
    return lo, first


def grid_cells(grid: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``searchsorted(grid, u, side="right")`` for the sorted ``grid`` and
    uniforms ``u`` in [0, 1): ``grid_lookup`` for one call."""
    return grid_lookup(grid, u.size)(u)


def _walk(table: np.ndarray, n: int, cells: np.ndarray, start: int, out: np.ndarray) -> int:
    """Write to ``out`` the pages that follow page ``start`` when step i reads
    ``table`` at ``cells[i] * n`` plus the previous page; return the last.

    The steps are cut into C chunks of L steps each, L about the square root
    of ``len(cells) / CHUNK_RATIO``; the last chunk is padded with cell 0.
    Pass 1 steps every chunk but the last from every page at once, an
    ``(n, C - 1)`` array, which gives each chunk's end map. Paths that read
    the same cells through the same table go on together once they reach
    the same page, the coupling behind Propp and Wilson's coupling from the
    past ("Exact sampling with coupled Markov chains", Random Structures &
    Algorithms, 1996), and on most chains most chunks' n paths meet within a
    few steps. So after ``SPLIT_STEP`` steps, or L if fewer, a chunk whose
    paths have met goes on as one path, whose end is the chunk's end from
    every page, and only the chunks still apart keep all n; each later step
    gathers either group's cells from its row. On a permutation chain, whose
    paths never meet, every chunk stays apart and keeps its n paths to its
    end. Scalar lookups through the end maps of the chunks still apart, in
    order, give every chunk's real start page, and pass 2 walks the C real
    paths with L gathers, writing each step's pages over its rows.
    """
    m = cells.size
    L = max(1, math.isqrt(m // CHUNK_RATIO))
    C = -(-m // L)
    full = (C - 1) * L  # steps in the chunks before the last
    steps = np.zeros((L, C), dtype=np.int64)  # steps[i, j]: step i of chunk j
    steps[:, :-1] = cells[:full].reshape(C - 1, L).T
    steps[: m - full, -1] = cells[full:]
    steps *= n
    ends = np.repeat(np.arange(n)[:, None], C - 1, axis=1)  # ends[p, j]: chunk j's end from page p
    for row in steps[:SPLIT_STEP, :-1]:
        ends = table[ends + row]
    met = (ends[1:] == ends[0]).all(axis=0)  # chunk j's paths from every page have met
    apart, met = np.flatnonzero(~met), np.flatnonzero(met)
    lone, ends = ends[0, met], np.ascontiguousarray(ends[:, apart])
    for row in steps[SPLIT_STEP:, :-1]:
        lone = table[lone + row[met]]
        ends = table[ends + row[apart]]
    path = np.empty(C, dtype=np.int64)
    path[0], path[met + 1] = start, lone
    path = path.tolist()
    flat = ends.T.ravel().tolist()
    for k, j in zip(range(0, len(flat), n), apart.tolist()):
        path[j + 1] = flat[k + path[j]]
    path = np.array(path)
    for row in steps:
        path = row[:] = table[row + path]
    out[:full].reshape(C - 1, L)[:] = steps[:, :-1].T
    out[full:] = steps[: m - full, -1]
    return int(out[-1])


def _step(table: np.ndarray, n: int, cells: np.ndarray, start: int, out: np.ndarray) -> int:
    """``_walk`` one request at a time: one index per step into a memoryview
    of ``table``, whatever n is."""
    flat, last, walked = memoryview(table), start, []
    for row in (cells * n).tolist():
        last = flat[row + last]
        walked.append(last)
    out[:] = walked
    return last


def sample_sequence(chain: MarkovChain, T: int, seed) -> np.ndarray:
    """Draw ``T >= 0`` requests, as a read-only int64 page array: the first
    from ``init``, the rest from transition rows.

    Deterministic given ``seed`` (an int or a sequence of ints feeding
    ``numpy.random.default_rng``). Request t is the first page whose
    cumulative probability in the row of request t-1 exceeds the t-th uniform.
    Each step is one lookup in ``next_page_table``.

    Which way is cheapest depends on two properties of the input, the trace
    length T and the page count n. A longer trace is drawn ``WALK_BLOCK``
    requests at a time, which keeps the temporaries the size of a block;
    ``Generator.random`` makes one double per 64-bit draw, so the blocks read
    the stream that one call would. Each block's uniforms are placed in the
    merged grid by one ``grid_lookup``, chosen for a block's count. With at
    most ``WALK_PAGES`` pages the block is walked by ``_walk``, a fixed
    number of array operations per chunk with no Python step per request;
    the last page of a block starts the next. The walk's first pass costs n
    gathers per request until a chunk's paths from every page meet, which on
    some chains, a permutation say, they never do, and then every chunk
    keeps its n paths to its end; so with more pages each block is stepped
    one request at a time by ``_step``, whose cost per request does not grow
    with n. A trace of at most ``SHORT_TRACE``
    requests is stepped by ``_step`` too: at that length the walk's two
    dozen array calls cost more than the steps they save.
    """
    check_horizon(T)
    rng = np.random.default_rng(seed)
    pages = np.empty(T, dtype=np.int64)
    if T:
        n = chain.n
        grid, table = next_page_table(chain)
        pages[0] = last = int(first_pages(chain, rng.random()))
        follow = _walk if T > SHORT_TRACE and n <= WALK_PAGES else _step
        place = grid_lookup(grid, min(T - 1, WALK_BLOCK))
        for start in range(1, T, WALK_BLOCK):
            stop = min(start + WALK_BLOCK, T)
            last = follow(table, n, place(rng.random(stop - start)), last, pages[start:stop])
    pages.setflags(write=False)
    return pages


def sample_trials(chain: MarkovChain, T: int, rng, trials: int) -> np.ndarray:
    """Draw ``trials`` traces of ``T`` requests from the generator ``rng``,
    as a read-only ``(trials, T)`` page array.

    The traces read ``rng.random((trials, T))``, row by row, so trace i
    inverts the uniforms ``[i·T, (i+1)·T)`` of the call, as
    ``sample_sequence`` inverts its own; the stream runs on into the next
    call, and the first trace from a fresh ``default_rng(seed)`` is
    ``sample_sequence(chain, T, seed)``. The transition uniforms of all
    traces are placed in the grid by one ``grid_cells`` lookup, and the pages
    are read from the same ``next_page_table``. The walk takes one step
    across all traces at a time, so many short traces cost a few array
    operations per step; for one long trace ``sample_sequence`` is faster.
    ``T = 0`` draws nothing and gives an empty array.
    """
    u = rng.random((trials, T)).T  # u[t] holds every trace's t-th uniform
    pages = np.empty(u.shape, dtype=np.int64)
    if T:
        grid, table = next_page_table(chain)
        rows = grid_cells(grid, u[1:]) * chain.n
        pages[0] = first_pages(chain, u[0])
        for t in range(1, T):
            pages[t] = table[rows[t - 1] + pages[t - 1]]
    pages.setflags(write=False)
    return pages.T


def build_lb_chain(eps: float, eps1: float) -> MarkovChain:
    """The 3-page i.i.d. adversarial chain: every row is [1-eps, eps1, eps-eps1].

    Requires the regime 0 < eps-eps1 <= eps1 <= 1-eps. The initial distribution
    equals the common row (each request, including the first, is an independent
    draw from it).
    """
    if not (0.0 < eps - eps1 <= eps1 <= 1.0 - eps):
        raise ValueError(
            f"parameters eps={eps}, eps1={eps1} violate 0 < eps-eps1 <= eps1 <= 1-eps"
        )
    row = [1.0 - eps, eps1, eps - eps1]
    return validate_chain([row, row, row], init=row)


def chain_hash(chain: MarkovChain) -> str:
    """Short stable digest of (n, transition, init), for report provenance."""
    h = hashlib.sha256()
    h.update(str(chain.n).encode())
    h.update(chain.transition.tobytes())
    h.update(chain.init.tobytes())
    return h.hexdigest()[:12]


def random_chain(n: int, seed, floor: float = 0.05) -> MarkovChain:
    """Random chain with every entry at least ``floor / n``-ish, for experiments."""
    rng = np.random.default_rng(seed)
    m = rng.random((n, n)) + floor
    m /= m.sum(axis=1, keepdims=True)
    return validate_chain(m)


def save_chain(chain: MarkovChain, path, page_names=None) -> None:
    doc = {
        "n": chain.n,
        "transition": [[float(x) for x in row] for row in chain.transition],
        "init": [float(x) for x in chain.init],
    }
    if page_names is not None:
        doc["page_names"] = list(page_names)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_chain(path) -> MarkovChain:
    """Read a chain file: fields ``n``, ``transition``, optional ``init``/``page_names``.

    ``ValueError`` unless the document is a JSON object whose ``transition``
    is a list of rows and whose ``n`` is an integer."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"chain file must hold a JSON object, got {type(doc).__name__}")
    for field in ("n", "transition"):
        if field not in doc:
            raise ValueError(f"chain file has no {field!r} field")
    transition = doc["transition"]
    if not isinstance(transition, list) or not all(isinstance(row, list) for row in transition):
        raise ValueError("chain file's transition must be a list of rows")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"chain file's n must be an integer, got {type(n).__name__}")
    if len(transition) != n:
        raise ValueError(f"chain file declares n={n} but has {len(transition)} rows")
    return validate_chain(transition, init=doc.get("init"))


def load_trace(path) -> np.ndarray:
    """Read a newline-delimited trace of page indices; ``ValueError`` naming
    the first that int64 cannot hold."""
    with open(path) as fh:
        vals = [int(line) for line in fh if line.strip()]
    try:
        return np.asarray(vals, dtype=np.int64)
    except OverflowError:
        big = next(v for v in vals if not -(2**63) <= v < 2**63)
        raise ValueError(f"trace page {big} does not fit in int64") from None
