"""Markov chains over pages: validation, sampling, and the 3-page adversarial family.

Pages are dense 0-based indices. A chain is an n x n row-stochastic transition
matrix plus an initial distribution; external page names, when present in a
chain file, live in a sidecar dictionary and never enter the hot paths.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

ROW_SUM_TOL = 1e-9  # acceptance tolerance on input rows; rows are renormalized once
SAMPLE_CHUNK = 1024  # uniforms per next-page table in sample_sequence


class NonStochasticRow(ValueError):
    """A transition row (or the initial distribution) does not sum to 1."""


@dataclass(frozen=True)
class MarkovChain:
    """Validated, immutable time-homogeneous chain over ``n`` pages.

    ``transition`` rows are renormalized exactly once at validation so that
    downstream solvers see row sums of 1 in working precision. ``min_entry``
    caches the smallest transition entry (the irreducibility margin delta).
    """

    n: int
    transition: np.ndarray
    init: np.ndarray
    min_entry: float

    def __post_init__(self):
        self.transition.setflags(write=False)
        self.init.setflags(write=False)


@dataclass(frozen=True)
class RequestSequence:
    """A realized page-request trace plus the seed that produced it."""

    pages: np.ndarray
    seed: object

    def __post_init__(self):
        self.pages.setflags(write=False)

    def __len__(self) -> int:
        return len(self.pages)


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

    return MarkovChain(n=n, transition=m, init=v, min_entry=float(m.min()))


def sample_sequence(chain: MarkovChain, T: int, seed) -> RequestSequence:
    """Draw ``T`` requests: the first from ``init``, the rest from transition rows.

    Deterministic given ``seed`` (an int or a sequence of ints feeding
    ``numpy.random.default_rng``). Request t is the first page whose
    cumulative probability in the row of request t-1 exceeds the t-th uniform.
    The uniforms are consumed in chunks of ``SAMPLE_CHUNK``: for each chunk
    the next page from every state is looked up at once, one ``searchsorted``
    per row, and the chain is then walked through that table.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    rng = np.random.default_rng(seed)
    n = chain.n
    cum = np.cumsum(chain.transition, axis=1)
    cum_init = np.cumsum(chain.init)
    u = rng.random(T)
    pages = np.empty(T, dtype=np.int64)
    last = min(int(np.searchsorted(cum_init, u[0], side="right")), n - 1)
    pages[0] = last
    for start in range(1, T, SAMPLE_CHUNK):
        chunk = u[start : start + SAMPLE_CHUNK]
        nxt = np.empty((len(chunk), n), dtype=np.int64)
        for r in range(n):
            nxt[:, r] = np.searchsorted(cum[r], chunk, side="right")
        flat = np.minimum(nxt, n - 1).ravel().tolist()  # step j from state r: flat[j*n + r]
        walked = []
        for base in range(0, len(flat), n):
            last = flat[base + last]
            walked.append(last)
        pages[start : start + len(chunk)] = walked
    return RequestSequence(pages=pages, seed=seed)


def sample_trials(chain: MarkovChain, T: int, seeds) -> np.ndarray:
    """Draw one ``T``-request trace per seed, as a read-only ``(len(seeds), T)``
    page array.

    Row i holds the pages of ``sample_sequence(chain, T, seeds[i])``: the same
    T uniforms, inverted with the same comparison, since ``(cum <= u).sum()``
    counts what ``searchsorted(cum, u, side="right")`` counts. The walk takes
    one step across all traces at a time, so many short traces cost a few
    array operations per step; for one long trace ``sample_sequence`` is
    faster. ``T = 0`` gives an empty array.
    """
    n = chain.n
    u = np.empty((len(seeds), T))
    for row, seed in zip(u, seeds):
        np.random.default_rng(seed).random(out=row)
    u = u.T  # u[t] holds every trace's t-th uniform
    cum = np.cumsum(chain.transition, axis=1)
    pages = np.empty((T, len(seeds)), dtype=np.int64)
    rows = np.cumsum(chain.init)[None, :]
    for t in range(T):
        pages[t] = np.minimum((rows <= u[t][:, None]).sum(axis=1), n - 1)
        rows = cum[pages[t]]
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
    """Read a chain file: fields ``n``, ``transition``, optional ``init``/``page_names``."""
    with open(path) as fh:
        doc = json.load(fh)
    n = int(doc["n"])
    transition = doc["transition"]
    if len(transition) != n:
        raise ValueError(f"chain file declares n={n} but has {len(transition)} rows")
    return validate_chain(transition, init=doc.get("init"))


def load_trace(path) -> np.ndarray:
    """Read a newline-delimited trace of page indices."""
    with open(path) as fh:
        vals = [int(line) for line in fh if line.strip()]
    return np.asarray(vals, dtype=np.int64)
