"""Markov chains over pages: validation, sampling, and the 3-page adversarial family.

Pages are dense 0-based indices. A chain is an n x n row-stochastic transition
matrix plus an initial distribution; external page names, when present in a
chain file, live in a sidecar dictionary and never enter the hot paths.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass

import numpy as np

ROW_SUM_TOL = 1e-9  # acceptance tolerance on input rows; rows are renormalized once
SAMPLE_CHUNK = 1024  # uniforms placed in the grid at once by sample_sequence

# numpy's SeedSequence hashing (numpy/random/bit_generator.pyx) and PCG64
# multiplier (pcg64.h), which trial_uniforms reproduces for many streams at once
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
MASK32 = 0xFFFFFFFF
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK128 = (1 << 128) - 1


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


def validate_chain(matrix, init=None) -> MarkovChain:
    """Check and normalize a transition matrix into a :class:`MarkovChain`.

    Rows must be nonnegative, entries at most 1, and sum to 1 within
    ``ROW_SUM_TOL``; they are then renormalized exactly once. ``init`` defaults
    to the uniform distribution. A NaN entry fails the range check.
    """
    m = np.array(matrix, dtype=float)
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
        v = np.array(init, dtype=float)
        if v.shape != (n,):
            raise ValueError(f"init must have length {n}, got shape {v.shape}")
        if not np.all((v >= 0) & (v <= 1)):
            raise NonStochasticRow("init entries must lie in [0, 1]")
        s = v.sum()
        if not abs(s - 1.0) <= ROW_SUM_TOL:
            raise NonStochasticRow(f"init sums to {s!r}")
        v /= s

    return MarkovChain(n=n, transition=m, init=v)


def next_page_table(chain: MarkovChain) -> tuple[np.ndarray, np.ndarray]:
    """The merged grid of ``chain``'s cumulative rows and its next-page table.

    ``grid`` holds all n² cumulative transition entries, sorted. A uniform
    ``u`` falls in cell ``c = searchsorted(grid, u, side="right")``, and
    ``table[c * n + r]`` is the request that follows page ``r``: the first
    page whose cumulative probability in row ``r`` exceeds ``u``, clamped to
    n-1 for rows whose sum rounds below 1. The lookup is exact, not an
    approximation: every row's breakpoints are grid values, so inside a cell
    ``searchsorted(cum[r], u, side="right")`` does not change. Equal grid
    values leave empty cells between them, which no uniform reaches. This is
    the guide table of Chen and Asau ("On generating random variates from an
    empirical distribution", AIIE Transactions, 1974) merged over all rows;
    it holds (n²+1)·n pages.
    """
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


def sample_sequence(chain: MarkovChain, T: int, seed) -> np.ndarray:
    """Draw ``T`` requests, as a read-only int64 page array: the first from
    ``init``, the rest from transition rows.

    Deterministic given ``seed`` (an int or a sequence of ints feeding
    ``numpy.random.default_rng``). Request t is the first page whose
    cumulative probability in the row of request t-1 exceeds the t-th uniform.
    Each step is one lookup in ``next_page_table``: the uniforms are placed
    in the merged grid ``SAMPLE_CHUNK`` at a time by one ``searchsorted``, and
    the chain is then walked through the table, one list index per request.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    u = np.random.default_rng(seed).random(T)
    n = chain.n
    grid, table = next_page_table(chain)
    flat = table.tolist()
    pages = np.empty(T, dtype=np.int64)
    last = int(first_pages(chain, u[0]))
    pages[0] = last
    for start in range(1, T, SAMPLE_CHUNK):
        chunk = u[start : start + SAMPLE_CHUNK]
        walked = []
        for row in (np.searchsorted(grid, chunk, side="right") * n).tolist():
            last = flat[row + last]
            walked.append(last)
        pages[start : start + len(chunk)] = walked
    pages.setflags(write=False)
    return pages


def _seed_words(part) -> list[int]:
    """The 32-bit entropy words ``SeedSequence`` reads from one seed part: the
    little-endian words of a non-negative int, and ``[0]`` for 0."""
    value = operator.index(part)
    if value < 0:
        raise ValueError(f"expected non-negative integer, got seed part {value}")
    words = [value & MASK32]
    value >>= 32
    while value:
        words.append(value & MASK32)
        value >>= 32
    return words


def _hasher(init: int, mult: int):
    """numpy's ``hashmix`` over uint32 arrays, with its running hash constant:
    each call xors the constant in, steps it by ``mult``, multiplies by the
    new value and folds the high half down."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    return hashmix


def _mix_pools(entropy: list) -> list:
    """``SeedSequence``'s entropy pool, for many entropy lists at once.

    ``entropy`` holds one uint32 array per entropy word, one entry per stream;
    the four returned arrays are the pool words. This is numpy's
    ``mix_entropy``: a list shorter than the pool is padded with zero words,
    which is why trailing zeros within the pool change no stream.
    """
    hashmix = _hasher(INIT_A, MULT_A)

    def mix(x, y):
        out = np.uint32(MIX_MULT_L) * x - np.uint32(MIX_MULT_R) * y
        return out ^ (out >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(w) for w in (entropy + [zero] * POOL_SIZE)[:POOL_SIZE]]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _pcg64_states(pool: list) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` that each stream's pool seeds.

    ``generate_state(4, uint64)`` hashes the pool, cycled, into eight words;
    the first two 64-bit words make ``initstate`` and the last two
    ``initseq``, each high word first, and ``pcg64_set_seed`` steps the LCG
    twice from state 0.
    """
    hashmix = _hasher(INIT_B, MULT_B)
    words = [hashmix(pool[j % POOL_SIZE]).astype(np.uint64) for j in range(8)]
    halves = [(words[2 * j] | (words[2 * j + 1] << 32)).tolist() for j in range(4)]
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*halves):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & MASK128
        states.append((((inc + (s_hi << 64 | s_lo)) * PCG64_MULT + inc) & MASK128, inc))
    return states


def trial_uniforms(T: int, base, trials) -> np.ndarray:
    """The first ``T`` uniforms of each trial's stream, as a ``(len(trials), T)``
    array.

    Row j equals ``np.random.default_rng((*base, trials[j], 0)).random(T)``
    bit for bit, where ``base`` is a sequence of ints. Every stream's
    ``SeedSequence`` hashing runs in one pass over uint32 arrays, and its
    PCG64 seeding in Python ints; one ``PCG64`` is then set to each state in
    turn and draws the raw words, which become uniforms as
    ``Generator.random`` makes them, ``(raw >> 11) * 2**-53``. A negative
    seed part is a ``ValueError``, as in numpy, and so is a trial index that
    does not fit one 32-bit entropy word.
    """
    base_words = [w for part in base for w in _seed_words(part)]
    ids = [operator.index(i) for i in trials]
    bad = [i for i in ids if not 0 <= i <= MASK32]
    if bad:
        raise ValueError(f"trial indices must lie in [0, 2**32), got {bad[0]}")
    ids = np.array(ids, dtype=np.uint32)
    entropy = [np.full(ids.size, w, dtype=np.uint32) for w in base_words] + [ids, np.zeros_like(ids)]
    raw = np.empty((ids.size, T), dtype=np.uint64)
    bitgen = np.random.PCG64(0)
    for row, (state, inc) in zip(raw, _pcg64_states(_mix_pools(entropy))):
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        row[:] = bitgen.random_raw(T)
    return (raw >> 11) * 2.0**-53


def sample_trials(chain: MarkovChain, T: int, base, trials) -> np.ndarray:
    """Draw one ``T``-request trace per trial index, as a read-only
    ``(len(trials), T)`` page array.

    Row j holds the pages of ``sample_sequence(chain, T, (*base, trials[j],
    0))``. ``trial_uniforms`` derives every trial's ``(*base, i, 0)`` stream
    in one pass, each equal to ``default_rng((*base, i, 0))``, and the
    uniforms are looked up in the same ``next_page_table``. The walk takes
    one step across all traces at a time, so many short traces cost a few
    array operations per step; for one long trace ``sample_sequence`` is
    faster. ``T = 0`` gives an empty array.
    """
    u = trial_uniforms(T, base, trials).T  # u[t] holds every trace's t-th uniform
    pages = np.empty(u.shape, dtype=np.int64)
    if T:
        grid, table = next_page_table(chain)
        rows = np.searchsorted(grid, u[1:], side="right") * chain.n
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
    is a list of rows."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"chain file must hold a JSON object, got {type(doc).__name__}")
    transition = doc["transition"]
    if not isinstance(transition, list) or not all(isinstance(row, list) for row in transition):
        raise ValueError("chain file's transition must be a list of rows")
    n = int(doc["n"])
    if len(transition) != n:
        raise ValueError(f"chain file declares n={n} but has {len(transition)} rows")
    return validate_chain(transition, init=doc.get("init"))


def load_trace(path) -> np.ndarray:
    """Read a newline-delimited trace of page indices."""
    with open(path) as fh:
        vals = [int(line) for line in fh if line.strip()]
    return np.asarray(vals, dtype=np.int64)
