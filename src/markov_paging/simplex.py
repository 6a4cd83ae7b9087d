"""Tiny dense two-phase simplex for the eviction-distribution programs, solved
as a stack in lockstep.

Problems here have at most a handful of variables (cache size plus one), so a
plain tableau with Bland's anti-cycling rule is both fast enough and exactly
reproducible: entering column is the lowest eligible index, leaving row breaks
ratio ties by the lowest basic-variable index.

``solve_lp`` takes a stack of same-shape LPs: ``c`` and the constraint
matrices may carry a leading batch axis, while ``b_ub`` and ``b_eq`` are shared
by the whole stack, so every LP has the same slack and artificial columns and
one ``(B, m, columns)`` tableau holds them all. A 1-D ``c`` with 2-D matrices
is a stack of one, and the result is always stacked. Each LP keeps its own basis and makes its own entering and
leaving choices; one lockstep iteration pivots every LP that is not done, and
an LP that is done leaves the active set. Per LP the arithmetic is that of a
one-LP tableau loop: reduced costs come from one ``np.matmul`` per stack and
the row operations are elementwise. A row that phase 1 finds redundant in
some LPs is zeroed there, its artificial left basic at zero cost, so the
other rows compute as if it had been dropped.
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


class UnboundedLP(ValueError):
    """The objective has no lower bound; ``index`` is the first such LP of the stack."""

    def __init__(self, message: str, index: int = 0):
        self.index = index
        super().__init__(message)


def _pivot(tab, basis, rows, cols):
    """Pivot LP i of the stack on ``(rows[i], cols[i])``."""
    lp = np.arange(len(tab))
    prow = tab[lp, rows] / tab[lp, rows, cols][:, None]
    tab[lp, rows] = prow
    f = tab[lp, :, cols]
    f[lp, rows] = 0.0  # the pivot row is done; rows with a zero factor are skipped
    np.subtract(tab, f[:, :, None] * prow[:, None, :], out=tab, where=(f != 0.0)[:, :, None])
    basis[lp, rows] = cols


def _leaving_rows(tab, basis, enter):
    """Bland's leaving row of each LP for its entering column, or -1 (unbounded).

    Rows are scanned in order as in a one-LP loop: a ratio below the best by
    more than ``PIVOT_TOL`` wins, and a tie within it goes to the lower basic
    variable. Rows without a positive pivot get a NaN ratio, which never wins.
    """
    b = len(tab)
    a = tab[np.arange(b), :, enter]
    ratio = np.divide(tab[:, :, -1], a, out=np.full(a.shape, np.nan), where=a > PIVOT_TOL)
    best = np.full(b, np.inf)
    best_var = np.full(b, tab.shape[2])  # above every column, so any row ties lower
    leave = np.full(b, -1)
    for i in range(a.shape[1]):
        r = ratio[:, i]
        take = (r < best - PIVOT_TOL) | ((np.abs(r - best) <= PIVOT_TOL) & (basis[:, i] < best_var))
        np.copyto(best, r, where=take)
        np.copyto(best_var, basis[:, i], where=take)
        leave[take] = i
    return leave


def _run(tab, basis, cost, allowed):
    """Drive every LP to optimality for its row of ``cost`` by Bland's rule.

    ``tab`` and ``basis`` are updated in place. Returns ``(index, column)``
    for each LP found unbounded, which stops there.
    """
    live = np.arange(len(tab))
    t, bs, cs = tab, basis, cost  # the active LPs, in stack order
    unbounded = []
    for _ in range(MAX_ITER):
        cb = cs[np.arange(len(cs))[:, None], bs]
        red = cs - np.matmul(cb[:, None, :], t[:, :, :-1])[:, 0]
        eligible = allowed & (red < -PIVOT_TOL)
        going = eligible.any(axis=1)
        if not going.all():  # optimal LPs leave the active set
            tab[live[~going]], basis[live[~going]] = t[~going], bs[~going]
            live, t, bs, cs, eligible = (v[going] for v in (live, t, bs, cs, eligible))
            if not live.size:
                return unbounded
        enter = eligible.argmax(axis=1)
        leave = _leaving_rows(t, bs, enter)
        going = leave >= 0
        if not going.all():  # so do unbounded ones
            unbounded.extend(zip(live[~going].tolist(), enter[~going].tolist()))
            tab[live[~going]], basis[live[~going]] = t[~going], bs[~going]
            live, t, bs, cs, enter, leave = (v[going] for v in (live, t, bs, cs, enter, leave))
            if not live.size:
                return unbounded
        _pivot(t, bs, leave, enter)
    raise RuntimeError("simplex iteration limit hit")


def solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None):
    """Minimize ``c @ x`` s.t. ``a_ub x <= b_ub``, ``a_eq x = b_eq``, ``x >= 0``.

    ``c`` is ``(n,)`` or a stack ``(B, n)``; each matrix is ``(m, n)``, shared
    by every LP, or a stack ``(B, m, n)``. ``b_ub`` and ``b_eq`` are shared.
    Returns ``(x, value)`` stacked, ``(B, n)`` and ``(B,)``, with B = 1 when
    nothing carries a batch axis. Raises :class:`InfeasibleLP` /
    :class:`UnboundedLP` for the first failing LP, in stack order.
    """
    c = np.asarray(c, dtype=float)
    parts = []  # (matrix, rhs, has_slack)
    for a, b, has_slack in ((a_ub, b_ub, True), (a_eq, b_eq, False)):
        if a is not None:
            a = np.asarray(a, dtype=float)
            parts.append((a.reshape(1, -1) if a.ndim < 2 else a, np.atleast_1d(np.asarray(b, dtype=float)), has_slack))
    B = np.broadcast_shapes(c.shape[:-1], *(a.shape[:-2] for a, _, _ in parts), (1,))[0]
    n = c.shape[-1]
    c = np.broadcast_to(c, (B, n))
    a_all = np.concatenate([np.broadcast_to(a, (B, *a.shape[-2:])) for a, _, _ in parts], axis=1)
    b_all = np.concatenate([b for _, b, _ in parts])
    slack = np.concatenate([np.full(len(b), s) for _, b, s in parts])
    needs_artificial = np.concatenate([b < 0 if s else np.ones(len(b), dtype=bool) for _, b, s in parts])
    m = len(b_all)
    n_slack = int(slack.sum())
    art_rows = np.flatnonzero(needs_artificial)
    ncols = n + n_slack + len(art_rows)

    sign = np.where(b_all < 0, -1.0, 1.0)
    tab = np.zeros((B, m, ncols + 1))
    tab[:, :, :n] = sign[:, None] * a_all
    tab[:, :, -1] = sign * b_all
    basis = np.full(m, -1, dtype=np.int64)
    slack_rows = np.flatnonzero(slack)
    slack_cols = n + np.arange(n_slack)
    tab[:, slack_rows, slack_cols] = sign[slack_rows]
    basis[slack_rows[sign[slack_rows] > 0]] = slack_cols[sign[slack_rows] > 0]
    art_cols = n + n_slack + np.arange(len(art_rows))
    tab[:, art_rows, art_cols] = 1.0
    basis[art_rows] = art_cols
    basis = np.tile(basis, (B, 1))

    lp = np.arange(B)
    allowed = np.ones(ncols, dtype=bool)
    if art_rows.size:
        phase1 = np.zeros(ncols)
        phase1[art_cols] = 1.0
        _raise_unbounded(_run(tab, basis, np.broadcast_to(phase1, (B, ncols)), allowed))
        infeasible = np.flatnonzero(np.matmul(phase1[basis][:, None, :], tab[:, :, -1:])[:, 0, 0] > 1e-8)
        if infeasible.size:
            raise InfeasibleLP("phase 1 optimum is positive", index=int(infeasible[0]))
        # pivot residual artificials out; a row with nothing to pivot on is
        # redundant in that LP and is zeroed, its artificial kept basic
        for i in range(m):
            sel = np.flatnonzero(basis[:, i] >= n + n_slack)
            if not sel.size:
                continue
            cand = np.abs(tab[sel, i, : n + n_slack]) > PIVOT_TOL
            has = cand.any(axis=1)
            piv = sel[has]
            if piv.size:
                t, bs = tab[piv], basis[piv]
                _pivot(t, bs, np.full(piv.size, i), cand[has].argmax(axis=1))
                tab[piv], basis[piv] = t, bs
            tab[sel[~has], i] = 0.0
        allowed[art_cols] = False

    cost = np.zeros((B, ncols))
    cost[:, :n] = c
    _raise_unbounded(_run(tab, basis, cost, allowed))

    x = np.zeros((B, ncols))
    x[lp[:, None], basis] = tab[:, :, -1]
    x = x[:, :n]
    value = np.matmul(c[:, None, :], x[:, :, None])[:, 0, 0]
    return x, value


def _raise_unbounded(unbounded):
    if unbounded:
        index, column = min(unbounded)
        raise UnboundedLP(f"column {column} is unbounded", index=index)
