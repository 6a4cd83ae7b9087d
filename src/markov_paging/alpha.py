"""Pairwise precedence probabilities alpha(p<q|s).

alpha(p<q|s) is the probability that page p is requested strictly before page q
in the future, conditioned on the most recent request being s. Write x for the
first-passage vector with boundary x[p]=1, x[q]=0 and x[r] = (M x)[r] for the
remaining pages; x solves a dense pinned linear system, and the conditional
probability for every s (including s in {p, q}) is one chain step applied to
it: alpha(p<q|s) = (M x)[s].

All n(n-1) pinned systems are built as one stack and inverted with a single
batched ``numpy.linalg.inv`` call; column p of each inverse is the pair's x,
and the row-sum norms of the inverses give ``gamma``. A system that is
singular, or whose inf-norm condition number exceeds ``1 / PIVOT_TOL``, means
the pair is unreachable from part of the chain (reducible chain) and is
reported as :class:`SingularSystem` tagged with the first such pair in
(p, q) row-major order. Solutions leaving [0,1] by more than ``CLAMP_TOL``
raise :class:`SolutionOutOfRange`.

``alpha_table`` keeps the table of the chain it was last asked for, keyed by
the transition matrix's bytes, so a second request for the same chain (the
benchmark's per-scheme ``run_audit``, the CLI's fixed-chain runs) is a
lookup. Only one table is kept, so
a caller holding many chains does not hold their tables too. A table is kept
only once every guard has passed; :func:`clear_cache` drops it, which a
caller that changes ``PIVOT_TOL`` or ``CLAMP_TOL`` must do for the guards to
run again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PIVOT_TOL = 1e-12  # reciprocal of the largest accepted inf-norm condition number
CLAMP_TOL = 1e-7  # max tolerated out-of-[0,1] excursion before erroring

ALPHA_DUMP_VERSION = 1


class SingularSystem(ValueError):
    """The pinned system for a page pair has no unique solution."""

    def __init__(self, p: int, q: int, detail: str = ""):
        self.p = p
        self.q = q
        super().__init__(f"singular precedence system for pair ({p}, {q}){detail}")


class SolutionOutOfRange(RuntimeError):
    """A solved precedence vector leaves [0,1] by more than roundoff allows."""


@dataclass(frozen=True)
class AlphaTable:
    """Dense table of alpha(p<q|s), indexed ``values[p][q][s]``. Diagonal is 0.

    ``evictions`` holds what eviction rules derive from the table, keyed by
    (rule name, k), so every policy reading this table shares one build.
    """

    n: int
    values: np.ndarray
    evictions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values.setflags(write=False)


def pinned_systems(chain, pairs=None):
    """The pinned systems L x = e_p for ordered pairs (p, q), as one stack.

    ``pairs`` defaults to every pair p != q in (p, q) row-major order. Row p
    of each L is the unit row e_p, row q is e_q, and every other row r is
    (row r of M) - e_r. Returns ``(p, q, L)``: two index arrays and the
    ``(len(pairs), n, n)`` stack of matrices.
    """
    n = chain.n
    if pairs is None:
        p, q = np.nonzero(~np.eye(n, dtype=bool))
    else:
        p, q = (np.array(a, dtype=np.int64) for a in zip(*pairs))
        if np.any(p == q):
            raise ValueError("pair pages must be distinct")
        if np.any((p < 0) | (p >= n) | (q < 0) | (q >= n)):
            raise ValueError(f"pair pages must lie in 0..{n - 1}")
    m = np.arange(len(p))
    L = np.repeat((chain.transition - np.eye(n))[None], len(p), axis=0)
    L[m, p] = 0.0
    L[m, q] = 0.0
    L[m, p, p] = 1.0
    L[m, q, q] = 1.0
    return p, q, L


def _inverse_stack(p, q, L):
    """Inverses of the stacked systems and their inf-norms.

    Raises :class:`SingularSystem` for the first pair, in stack order, whose
    system is singular or has an inf-norm condition number above
    ``1 / PIVOT_TOL``.
    """
    try:
        inv = np.linalg.inv(L)
    except np.linalg.LinAlgError:
        # locate the singular systems; their inverses stay NaN
        inv = np.full_like(L, np.nan)
        for i in range(len(L)):
            try:
                inv[i] = np.linalg.inv(L[i])
            except np.linalg.LinAlgError:
                pass
    inv_norm = np.abs(inv).sum(axis=2).max(axis=1)
    cond = np.abs(L).sum(axis=2).max(axis=1) * inv_norm
    bad = np.flatnonzero(~(cond <= 1.0 / PIVOT_TOL))  # NaN counts as bad
    if bad.size:
        i = bad[0]
        detail = ": matrix is singular" if np.isnan(cond[i]) else (
            f": condition number {float(cond[i]):.3g} > {1.0 / PIVOT_TOL:.3g}"
        )
        raise SingularSystem(int(p[i]), int(q[i]), detail)
    return inv, inv_norm


def first_passage(p, q, L) -> np.ndarray:
    """The solutions x of the stacked systems, one row per pair, clipped to [0,1]."""
    inv, _ = _inverse_stack(p, q, L)
    x = inv[np.arange(len(p)), :, p]  # column p of each inverse solves L x = e_p
    excess = np.maximum(-x.min(axis=1, initial=0.0), x.max(axis=1, initial=1.0) - 1.0)
    bad = np.flatnonzero(excess > CLAMP_TOL)
    if bad.size:
        i = bad[0]
        raise SolutionOutOfRange(
            f"pair ({p[i]}, {q[i]}): solution leaves [0,1] by {float(excess[i])!r} (> {CLAMP_TOL})"
        )
    return np.clip(x, 0.0, 1.0)


def _chain_step(x: np.ndarray, chain) -> np.ndarray:
    """Row i of the result is M @ x[i].

    Summed per row rather than by a matrix product, because BLAS rounds a
    one-row product differently from a many-row one; this way one pair and
    the whole table give the same bits.
    """
    return (x[:, None, :] * chain.transition).sum(axis=2)


def alpha_pair(chain, p: int, q: int) -> np.ndarray:
    """alpha(p<q|s) for every conditioning page s, as a length-n vector."""
    return _chain_step(first_passage(*pinned_systems(chain, [(p, q)])), chain)[0]


_last: tuple[bytes, AlphaTable] | None = None  # the most recent chain's table


def clear_cache() -> None:
    """Forget the table ``alpha_table`` keeps."""
    global _last
    _last = None


def alpha_table(chain) -> AlphaTable:
    """Full table over all ordered pairs; alpha(p<p|s) = 0 exactly.

    Returns the kept table when ``chain`` has the transition matrix of the
    last call; its eviction tables come with it.
    """
    global _last
    key = chain.transition.tobytes()
    if _last is not None and _last[0] == key:
        return _last[1]
    n = chain.n
    p, q, L = pinned_systems(chain)
    values = np.zeros((n, n, n))
    values[p, q] = _chain_step(first_passage(p, q, L), chain)
    table = AlphaTable(n=n, values=values)
    _last = (key, table)
    return table


def gamma(chain) -> float:
    """Worst conditioning over pairs: sup_{p != q} of the inf-norm of L^{-1}.

    Controls how transition-matrix error propagates into the precedence
    probabilities. Computed as the largest row-sum norm over the batched
    inverses of all pinned pair systems.
    """
    _, inv_norm = _inverse_stack(*pinned_systems(chain))
    return float(inv_norm.max())


def save_table(table: AlphaTable, path) -> None:
    np.savez(path, version=ALPHA_DUMP_VERSION, n=table.n, values=table.values)


def load_table(path) -> AlphaTable:
    with np.load(path) as data:
        version = int(data["version"])
        if version != ALPHA_DUMP_VERSION:
            raise ValueError(f"unsupported alpha table dump version {version}")
        return AlphaTable(n=int(data["n"]), values=np.array(data["values"]))
