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

``chain.derived`` keeps the pair solve (each pair's x and inverse norm) and
the table, so ``gamma`` and ``alpha_table`` on one chain invert the stack
once. A caller that changes ``PIVOT_TOL`` or ``CLAMP_TOL`` calls
``chain.forget()`` for the guards to run again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import derived
from .optdp import check_pages

PIVOT_TOL = 1e-12  # reciprocal of the largest accepted inf-norm condition number
CLAMP_TOL = 1e-7  # max tolerated out-of-[0,1] excursion before erroring


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

    ``values`` is an ``(n, n, n)`` array over n pages, else ``ValueError``.
    """

    values: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.values)
        if len(shape) != 3 or len(set(shape)) != 1:
            raise ValueError(f"precedence values must be an (n, n, n) array, got shape {shape}")
        self.values.setflags(write=False)

    @property
    def n(self) -> int:
        """The page count."""
        return len(self.values)


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
        check_pages(np.ravel(pairs), n, "pair page")  # before int64 can overflow
        p, q = (np.array(a, dtype=np.int64) for a in zip(*pairs))
        if np.any(p == q):
            raise ValueError("pair pages must be distinct")
    m = np.arange(len(p))
    L = np.repeat((chain.transition - np.eye(n))[None], len(p), axis=0)
    L[m, p] = 0.0
    L[m, q] = 0.0
    L[m, p, p] = 1.0
    L[m, q, q] = 1.0
    return p, q, L


def _solve(p, q, L):
    """``(x, inv_norm)``: the unclipped solutions of the stacked systems, one
    row per pair, and the inf-norms of their inverses.

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
    return inv[np.arange(len(p)), :, p], inv_norm  # column p of each inverse solves L x = e_p


def first_passage(p, q, L) -> np.ndarray:
    """The solutions x of the stacked systems, one row per pair, clipped to [0,1]."""
    return _in_range(p, q, _solve(p, q, L)[0])


def _in_range(p, q, x) -> np.ndarray:
    """``x`` clipped to [0,1]; ``SolutionOutOfRange`` if a row leaves it by more."""
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


def _pair_solve(chain):
    """``(x, inv_norm)`` of every pair in ``pinned_systems`` order, kept."""
    return derived(chain, "pair solve", lambda c: _solve(*pinned_systems(c)))


def _table(chain) -> AlphaTable:
    n = chain.n
    p, q = np.nonzero(~np.eye(n, dtype=bool))
    values = np.zeros((n, n, n))
    values[p, q] = _chain_step(_in_range(p, q, _pair_solve(chain)[0]), chain)
    return AlphaTable(values)


def alpha_table(chain) -> AlphaTable:
    """Full table over all ordered pairs; alpha(p<p|s) = 0 exactly; kept by
    ``chain.derived``."""
    return derived(chain, "alpha", _table)


def gamma(chain) -> float:
    """Worst conditioning over pairs: sup_{p != q} of the inf-norm of L^{-1}.

    Controls how transition-matrix error propagates into the precedence
    probabilities. Computed as the largest row-sum norm over the batched
    inverses of all pinned pair systems, from ``alpha_table``'s pair solve.
    """
    return float(_pair_solve(chain)[1].max())

