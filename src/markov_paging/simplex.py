"""Tiny dense two-phase simplex for the eviction-distribution programs, solved
as a stack in lockstep.

Every program here is one family: minimize ``c @ x`` subject to
``a_ub @ x <= b_ub`` with ``b_ub >= 0``, the first ``p`` variables summing to
1, ``x >= 0`` and ``c[p:] >= 0``. So ``c @ x >= min(c[:p])``, as ``x[:p]`` is
a distribution and ``x[p:] >= 0``: every program is bounded. Both forms of
:func:`markov_paging.policies.dominating_distribution`, the min-max rule (whose
one cost past the prefix is +1 on its load bound) and the one that maximizes a
target's mass, have this form, with ``p`` the cache size.
So each inequality row starts with its slack basic, and the prefix row is the
only one that needs an artificial variable for phase 1.

Problems have at most a handful of variables (cache size plus one), so a
plain tableau with Bland's anti-cycling rule is both fast enough and exactly
reproducible: the entering column is the lowest eligible index, and the
leaving row is found in one pass over the rows. Rows within ``PIVOT_TOL`` of
the least ratio tie, and the tied row with the lowest basic variable leaves.

``solve_lp`` takes a stack of same-shape LPs: ``c`` and ``a_ub`` may carry a
leading batch axis, while ``b_ub`` and ``p`` are shared by the whole stack,
so every LP has the same slack and artificial columns and one
``(B, m + 1, columns)`` tableau holds them all. A 1-D ``c`` with a 2-D
``a_ub`` is a stack of one, and the result is always stacked. Each LP keeps
its own basis and makes its own entering and leaving choices; one lockstep
iteration pivots every LP that is not done, and an LP that is done leaves the
active set. Per LP the arithmetic is that of a one-LP tableau loop: reduced
costs come from one ``np.matmul`` per stack and the row operations are
elementwise.
"""

from __future__ import annotations

import numpy as np

# Smallest pivot and reduced cost acted on. At 1e-11 a pivot of 2.1e-11 was
# taken on a 7-page sparse chain; the next pivot was 1.2e12 and x broke its
# equality row by 3e-4.
PIVOT_TOL = 1e-9
MAX_ITER = 10_000


class InfeasibleLP(ValueError):
    """Phase 1 ends above zero; ``index`` is the first such LP of the stack."""

    def __init__(self, message: str, index: int = 0):
        self.index = index
        super().__init__(message)


def _pivot(tab, basis, rows, cols):
    """Pivot LP i of the stack on ``(rows[i], cols[i])``."""
    lp = np.arange(len(tab))
    prow = tab[lp, rows] / tab[lp, rows, cols][:, None]
    tab[lp, rows] = prow
    f = tab[lp, :, cols]
    f[lp, rows] = 0.0  # the pivot row is done
    # Rows with f = 0, the pivot row too, subtract ±0.0: that keeps every
    # nonzero entry and can flip only a zero's sign, which moves no choice, so
    # this is the loop that skips them up to signed zeros. The pivot row's
    # -0.0 - (0 * -0.0) is +0.0, so x holds no -0.0. Entries are finite
    # (solve_lp refuses others); an overflow would make 0 * inf a NaN, which
    # the policies' guards refuse.
    tab -= f[:, :, None] * prow[:, None, :]
    basis[lp, rows] = cols


def _leaving_rows(tab, basis, enter):
    """Bland's leaving row of each LP for its entering column, or -1 (none).

    Rows without a pivot above ``PIVOT_TOL`` get the ratio +inf, and ``low``
    is each LP's least ratio. The rows with ``ratio - low <= PIVOT_TOL`` tie,
    and the tied row with the lowest basic variable leaves. A NaN ratio
    neither ties nor sets ``low``.
    """
    b, cols = len(tab), tab.shape[2]
    # rows first, so each reduction over an LP's rows runs along the stack: a
    # reduction over a short last axis costs several times more at 4096 LPs
    a = tab.transpose(1, 0, 2)[:, np.arange(b), enter]
    ratio = np.divide(tab[:, :, -1].T, a, out=np.full(a.shape, np.inf), where=a > PIVOT_TOL)
    # a finite ceiling keeps inf - inf (an LP without a pivot row) out
    tied = ratio - np.fmin.reduce(ratio, axis=0, initial=np.finfo(float).max) <= PIVOT_TOL
    var = np.minimum.reduce(np.where(tied, basis.T, cols), axis=0)  # the lowest tied basic variable
    return np.where(var < cols, (basis == var[:, None]).argmax(axis=1), -1)


def _run(tab, basis, cost, allowed):
    """Drive every LP to optimality for its row of ``cost`` by Bland's rule.

    ``tab`` and ``basis`` are updated in place. Every program is bounded, so
    an entering column without a pivot row can only come from roundoff.
    """
    live = np.arange(len(tab))
    t, bs, cs = tab, basis, cost  # the active LPs, in stack order
    for _ in range(MAX_ITER):
        cb = cs[np.arange(len(cs))[:, None], bs]
        red = cs - np.matmul(cb[:, None, :], t[:, :, :-1])[:, 0]
        eligible = allowed & (red < -PIVOT_TOL)
        going = eligible.any(axis=1)
        if not going.all():  # optimal LPs leave the active set
            tab[live[~going]], basis[live[~going]] = t[~going], bs[~going]
            live, t, bs, cs, eligible = (v[going] for v in (live, t, bs, cs, eligible))
            if not live.size:
                return
        enter = eligible.argmax(axis=1)
        leave = _leaving_rows(t, bs, enter)
        if leave.min() < 0:  # the first LP without a pivot row, from roundoff alone
            i = leave.argmin()
            raise RuntimeError(f"LP {live[i]}: column {enter[i]} has no pivot row")
        _pivot(t, bs, leave, enter)
    raise RuntimeError("simplex iteration limit hit")


def solve_lp(c, a_ub, b_ub, p):
    """Minimize ``c @ x`` s.t. ``a_ub x <= b_ub``, ``x[:p].sum() == 1``, ``x >= 0``.

    ``c`` is ``(n,)`` or a stack ``(B, n)``; ``a_ub`` is ``(m, n)``, shared by
    every LP, or a stack ``(B, m, n)``. ``b_ub`` is ``(m,)``, shared and
    non-negative, and ``p`` lies in 1..n. Returns ``(x, value)`` stacked,
    ``(B, n)`` and ``(B,)``, with B = 1 when nothing carries a batch axis.
    ``c[..., p:]`` must be non-negative and every input finite. Raises
    :class:`InfeasibleLP` for the first failing LP, in stack order.
    """
    c = np.asarray(c, dtype=float)
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    n, m = c.shape[-1], a_ub.shape[-2]
    for name, v in (("c", c), ("a_ub", a_ub), ("b_ub", b_ub)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite, got {float(v[~np.isfinite(v)][0])!r}")
    if np.any(b_ub < 0):
        raise ValueError(f"b_ub must be non-negative, got {float(b_ub.min())!r}")
    if not 1 <= p <= n:
        raise ValueError(f"prefix p must lie in 1..{n}, got {p}")
    if not np.all(c[..., p:] >= 0):
        raise ValueError(f"costs past the prefix must be non-negative, got {float(c[..., p:].min())!r}")
    B = np.broadcast_shapes(c.shape[:-1], a_ub.shape[:-2], (1,))[0]
    c = np.broadcast_to(c, (B, n))
    art = n + m  # the prefix row's artificial, after the m slacks
    tab = np.zeros((B, m + 1, art + 2))
    tab[:, :m, :n] = a_ub
    tab[:, :m, -1] = b_ub
    tab[:, np.arange(m), n + np.arange(m)] = 1.0
    tab[:, m, :p] = 1.0
    tab[:, m, art] = 1.0
    tab[:, m, -1] = 1.0
    basis = np.tile(np.arange(n, art + 1), (B, 1))

    allowed = np.ones(art + 1, dtype=bool)
    phase1 = np.zeros(art + 1)
    phase1[art] = 1.0
    _run(tab, basis, np.broadcast_to(phase1, (B, art + 1)), allowed)  # bounded below by 0
    basic_art = basis[:, m] == art  # only a pivot on the prefix row moves it
    infeasible = np.flatnonzero(basic_art & (tab[:, m, -1] > 1e-8))
    if infeasible.size:
        raise InfeasibleLP("phase 1 optimum is positive", index=int(infeasible[0]))
    # A basic artificial at zero is pivoted out on its row's first nonzero
    # entry. One exists: a slack entry, or else the row is a multiple of the
    # prefix row, whose ones stay.
    stuck = np.flatnonzero(basic_art)
    if stuck.size:
        cand = np.abs(tab[stuck, m, :art]) > PIVOT_TOL
        if not cand.any(axis=1).all():
            raise RuntimeError("the prefix row has no entry to pivot its artificial out on")
        t, bs = tab[stuck], basis[stuck]
        _pivot(t, bs, np.full(stuck.size, m), cand.argmax(axis=1))
        tab[stuck], basis[stuck] = t, bs
    allowed[art] = False

    cost = np.zeros((B, art + 1))
    cost[:, :n] = c
    _run(tab, basis, cost, allowed)

    x = np.zeros((B, art + 1))
    x[np.arange(B)[:, None], basis] = tab[:, :, -1]
    x = x[:, :n]
    value = np.matmul(c[:, None, :], x[:, :, None])[:, 0, 0]
    return x, value
