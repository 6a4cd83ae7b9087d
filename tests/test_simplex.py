import hashlib
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

from markov_paging import policies
from markov_paging import simplex as simplex_mod
from markov_paging.chain import validate_chain
from markov_paging.optdp import subset_index
from markov_paging.simplex import InfeasibleLP, solve_lp

from .oracles import loop_leaving_row, loop_solve_lp


def _prefix_row(n, p):
    """The equality row ``x[:p].sum() == 1`` in the general form the oracle takes."""
    return [np.where(np.arange(n) < p, 1.0, 0.0)]


def test_simple_bounded_problem():
    # min -x0-2x1+x2 s.t. x1-x2 <= 1/2, x0+x1 = 1 -> optimum -1.5 on the
    # segment from (1/2, 1/2, 0) to (0, 1, 1/2); the solution is a vertex of it
    (x,), (val,) = solve_lp([-1.0, -2.0, 1.0], [[0.0, 1.0, -1.0]], [0.5], 2)
    assert val == pytest.approx(-1.5, abs=1e-12)
    assert any(np.allclose(x, v, atol=1e-12) for v in ([0.5, 0.5, 0.0], [0.0, 1.0, 0.5]))


def test_equality_constraint():
    # the one equality row sums the prefix only: x2 >= x1 is free to follow x1
    (x,), (val,) = solve_lp([3.0, 1.0, 1.0], [[0.0, 1.0, -1.0]], [0.0], 2)
    assert np.allclose(x, [0.0, 1.0, 1.0], atol=1e-12)
    assert val == pytest.approx(2.0, abs=1e-12)


def test_infeasible_detected():
    # x0 = 1 against x0 <= 1/2
    with pytest.raises(InfeasibleLP):
        solve_lp([1.0], [[1.0]], [0.5], 1)


def test_negative_cost_past_the_prefix_rejected(monkeypatch):
    # x1 is outside the prefix, unconstrained and of negative cost: the one
    # way to an unbounded program, refused before any pivot, in any LP of a
    # stack; a negative cost inside the prefix is bounded and solved
    pivots = []
    monkeypatch.setattr(simplex_mod, "_pivot", lambda *args: pivots.append(args))
    with pytest.raises(ValueError, match=r"costs past the prefix must be non-negative, got -1\.0"):
        solve_lp([0.0, -1.0], [[1.0, 0.0]], [1.0], 1)
    with pytest.raises(ValueError, match="costs past the prefix"):
        solve_lp([[0.0, 1.0], [0.0, -1.0]], [[1.0, 0.0]], [1.0], 1)
    assert pivots == []
    monkeypatch.undo()
    (x,), (val,) = solve_lp([0.0, -1.0], [[1.0, 0.0]], [1.0], 2)
    assert np.array_equal(x, [0.0, 1.0]) and val == -1.0


def test_negative_b_ub_rejected():
    with pytest.raises(ValueError, match=r"^b_ub must be non-negative, got -2\.0$"):
        solve_lp([1.0, 0.0], [[-1.0, 0.0], [0.0, 1.0]], [1.0, -2.0], 2)


@pytest.mark.parametrize("p", [0, 3, -1])
def test_prefix_outside_range_rejected(p):
    with pytest.raises(ValueError, match=r"prefix p must lie in 1\.\.2"):
        solve_lp([1.0, 0.0], [[1.0, 1.0]], [1.0], p)


def test_artificial_left_at_zero_is_pivoted_out(monkeypatch):
    # x0 = 1 against x0 <= 1: phase 1 ties the two rows and Bland's rule
    # keeps the artificial basic at zero, so it is pivoted out on the slack
    pivots = []
    real = simplex_mod._pivot

    def recording(tab, basis, rows, cols):
        pivots.append((rows.tolist(), cols.tolist()))
        real(tab, basis, rows, cols)

    monkeypatch.setattr(simplex_mod, "_pivot", recording)
    x, val = _assert_matches_loop_oracle(np.array([[1.0]]), np.array([[[1.0]]]), [1.0], 1)
    assert pivots == [([0], [0]), ([1], [1])]  # x0 enters for the slack, then the slack for the artificial
    assert x[0, 0] == 1.0 and val[0] == 1.0


def test_matches_reference_solver_on_random_instances():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 5))
        c = rng.normal(size=n)
        a_ub = rng.normal(size=(m, n))
        b_ub = rng.random(m) + 0.1
        a_eq = np.ones((1, n))
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], method="highs")
        if ref.status != 0:
            continue
        (x,), (val,) = solve_lp(c, a_ub, b_ub, n)
        checked += 1
        assert val == pytest.approx(ref.fun, abs=1e-8)
        assert np.all(a_ub @ x <= b_ub + 1e-9)
        assert x.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(x >= -1e-12)
    assert checked >= 20


def test_deterministic_output():
    c = [0.0, 0.0, 1.0]
    a_ub = [[0.3, 0.6, -1.0], [0.7, 0.1, -1.0]]
    first = solve_lp(c, a_ub, [0.0, 0.0], 2)
    second = solve_lp(c, a_ub, [0.0, 0.0], 2)
    assert np.array_equal(first[0], second[0]) and first[1] == second[1]


def _assert_matches_loop_oracle(c, a_ub, b_ub, p):
    """The stacked solve equals the one-LP loop on every LP, x and value;
    the oracle takes the prefix as its one equality row."""
    x, val = solve_lp(c, a_ub, b_ub, p)
    a_eq = _prefix_row(c.shape[1], p)
    for i in range(len(c)):
        ref_x, ref_val = loop_solve_lp(c[i], a_ub=a_ub[i], b_ub=b_ub, a_eq=a_eq, b_eq=[1.0])
        assert np.array_equal(x[i], ref_x) and val[i] == ref_val, i
    return x, val


@pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (4, 4), (3, 5)])
def test_linprog_battery_as_one_stack_matches_loop_oracle(n, m):
    # the reference battery above, at one shape per stack and one shared b_ub
    rng = np.random.default_rng([42, n, m])
    c = rng.normal(size=(80, n))
    a_ub = rng.normal(size=(80, m, n))
    b_ub = rng.random(m) + 0.1
    a_eq = np.ones((1, n))
    feasible = []
    for i in range(80):
        ref = linprog(c[i], A_ub=a_ub[i], b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], method="highs")
        if ref.status == 0:
            feasible.append((i, ref.fun))
    keep = [i for i, _ in feasible]
    assert len(keep) >= 20
    _, val = _assert_matches_loop_oracle(c[keep], a_ub[keep], b_ub, n)
    assert np.allclose(val, [fun for _, fun in feasible], atol=1e-8)


def test_stack_of_one_is_the_scalar_call():
    """Unstacked inputs are a stack of one and solve as ``[c]`` does."""
    c = [0.0, 0.0, 1.0]
    a_ub = [[0.3, 0.6, -1.0], [0.7, 0.1, -1.0]]
    x, val = solve_lp(c, a_ub, [0.0, 0.0], 2)
    xs, vals = solve_lp([c], [a_ub], [0.0, 0.0], 2)
    assert xs.shape == (1, 3) and vals.shape == (1,)
    assert np.array_equal(xs, x) and np.array_equal(vals, val)


def test_lps_finishing_at_different_iterations(monkeypatch):
    # all four variables are the prefix, and x0 = 1 after one phase-1 pivot in
    # every LP; that is optimal at once for LP 0, and the others need one, two
    # and three pivots along x1, x2, x3, so the active set shrinks every
    # iteration
    c = np.array([[0.0, 1.0, 1.0, 1.0], [0.0, -1.0, 0.0, 0.0], [0.0, -1.0, -2.0, 0.0], [0.0, -1.0, -2.0, -3.0]])
    a_ub = np.broadcast_to(np.eye(4)[1:], (4, 3, 4))
    active = []
    real = simplex_mod._pivot

    def counting(tab, basis, rows, cols):
        active.append(len(tab))
        real(tab, basis, rows, cols)

    monkeypatch.setattr(simplex_mod, "_pivot", counting)
    x, _ = _assert_matches_loop_oracle(c, a_ub, [1.0, 2.0, 3.0], 4)
    assert active == [4, 3, 2, 1]
    assert np.array_equal(x, np.eye(4))


def test_infeasible_lp_in_stack_reports_its_index():
    # x0 + x1 = 1 with x0 <= 1/2 and x1 <= 1/4 (infeasible) or x1 <= 1 (feasible)
    tight, loose = [[1.0, 0.0], [0.0, 2.0]], [[1.0, 0.0], [0.0, 0.5]]
    a_ub = np.array([tight, loose, tight, loose])
    with pytest.raises(InfeasibleLP) as err:
        solve_lp(np.zeros((4, 2)), a_ub, [0.5, 0.5], 2)
    assert err.value.index == 0
    with pytest.raises(InfeasibleLP) as err:
        solve_lp(np.zeros((3, 2)), a_ub[[1, 3, 2]], [0.5, 0.5], 2)
    assert err.value.index == 2


@pytest.mark.parametrize("n,p,m", [(2, 1, 1), (3, 2, 2), (4, 2, 3), (5, 3, 4), (4, 3, 5)])
def test_tail_battery_matches_loop_oracle_and_linprog(n, p, m):
    # the family's general shape: variables past the prefix with non-negative
    # costs (some zero) and negative entries in every row, as the min-max
    # rule's load bound has, so every LP is feasible and bounded
    rng = np.random.default_rng([7, n, p, m])
    c = rng.normal(size=(60, n))
    c[:, p:] = np.abs(c[:, p:]) * (rng.random((60, n - p)) < 0.8)
    a_ub = rng.normal(size=(60, m, n))
    a_ub[:, :, p:] = -np.abs(a_ub[:, :, p:])
    b_ub = rng.random(m) * (rng.random(m) < 0.7)
    _, val = _assert_matches_loop_oracle(c, a_ub, b_ub, p)
    a_eq = _prefix_row(n, p)
    for i in range(len(c)):
        ref = linprog(c[i], A_ub=a_ub[i], b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], method="highs")
        assert ref.status == 0 and val[i] == pytest.approx(ref.fun, abs=1e-8), i


def test_entering_column_without_a_pivot_row_is_an_error(monkeypatch):
    # a bounded program always has a pivot row, so only roundoff can leave
    # one without; the solve stops rather than report a wrong optimum
    monkeypatch.setattr(simplex_mod, "_leaving_rows", lambda tab, basis, enter: np.full(len(tab), -1))
    with pytest.raises(RuntimeError, match="LP 0: column 0 has no pivot row"):
        solve_lp([[0.0, 0.0, 1.0]] * 2, [[0.3, 0.6, -1.0], [0.7, 0.1, -1.0]], [0.0, 0.0], 2)


TOL = simplex_mod.PIVOT_TOL


def _ratio_stack(rng, B, m, kind):
    """A ``(B, m, m + 2)`` tableau whose column 0 enters, with its ratios and
    distinct basic variables: ``kind`` chooses how the ratios crowd the least."""
    low = np.where(rng.random((B, 1)) < 0.2, 0.0, 10.0 ** rng.uniform(-12, 9, (B, 1)))
    if kind == "zero":  # exact ties at a 0 ratio, the rest far
        gap = np.where(rng.random((B, m)) < 0.5, 0.0, 10.0 ** rng.uniform(-8, 1, (B, m)))
        low[:] = 0.0
    elif kind == "tol":  # ties within PIVOT_TOL, and chains of them
        gap = rng.choice([0.0, 0.1, 0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 3.0], (B, m)) * TOL
    elif kind == "edges":  # just inside PIVOT_TOL, at it, just outside it, and far
        gap = rng.choice([0.0, TOL * (1 - 1e-6), TOL, TOL * (1 + 1e-6), 2 * TOL, 1.0], (B, m))
    else:  # "spread": from 1e-12 to 1e9 on their own
        gap = 10.0 ** rng.uniform(-12, 9, (B, m))
    ratio = low + gap
    ratio[np.arange(B), rng.integers(m, size=B)] = low[:, 0]  # some row holds the least
    ratio[rng.random((B, m)) < 0.05] = np.nan
    a = np.where(rng.random((B, m)) < 0.5, 1.0, rng.uniform(0.5, 4.0, (B, m)))
    a[rng.random((B, m)) < 0.2] = rng.choice([0.0, -1.0, TOL, TOL / 2])  # no positive pivot
    a[rng.random(B) < 0.1] = 0.0  # no row with one
    tab = np.zeros((B, m, m + 2))
    tab[:, :, 0] = a
    tab[:, :, -1] = ratio * a
    basis = np.argsort(rng.random((B, m + 1)), axis=1)[:, :m] + 1  # distinct, column 0 is not basic
    return tab, basis, np.zeros(B, dtype=int)


@pytest.mark.parametrize("kind", ["zero", "tol", "edges", "spread"])
@pytest.mark.parametrize("m", [1, 2, 5, 9])
def test_one_pass_leaving_row_is_the_row_scan(kind, m):
    """Bland's leaving row in one pass equals the one-LP loop's statement of
    the rule, with no RuntimeWarning, on ties at 0, gaps within, at and just
    past PIVOT_TOL, NaN ratios, rows without a pivot and ratios from 1e-12
    to 1e9."""
    tab, basis, enter = _ratio_stack(np.random.default_rng([29, m, len(kind)]), 400, m, kind)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        leave = simplex_mod._leaving_rows(tab, basis, enter)
        want = [loop_leaving_row(tab[i], basis[i], enter[i]) for i in range(len(tab))]
    assert leave.tolist() == want
    assert min(want) == -1 and max(want) >= 0
    # a NaN ratio neither ties nor sets the least: row 1's lowest basic
    # variable does not leave, and row 0's ratio 1 is the least
    nan_lp = np.zeros((1, 3, 5))
    nan_lp[0, :, 0], nan_lp[0, :, -1] = 1.0, [1.0, np.nan, 5.0]
    assert simplex_mod._leaving_rows(nan_lp, np.array([[3, 1, 2]]), np.zeros(1, dtype=int)).tolist() == [0]


def _sparse_sweep():
    """600 sparse random chains with their cache sizes, by index."""
    rng = np.random.default_rng(5)
    for i in range(600):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, n))
        m = rng.random((n, n)) ** 4
        m[rng.random((n, n)) < 0.3] = 0
        m += 1e-3 * np.eye(n)
        m /= m.sum(1, keepdims=True)
        yield i, m, k


# The sweep's chains with dominating LPs whose ratio gap above the least lies
# in (PIVOT_TOL / 4, 4 * PIVOT_TOL), where the leaving row is most sensitive
# to the tie rule: 15 LPs on 8 chains.
CLOSE_RATIO_CHAINS = (18, 23, 292, 368, 396, 431, 444, 498)
CLOSE_RATIO_SHA256 = "c2ec70bafa80c91dd6d03c28bf88b557bfb6f32eb9da0b65513f5bdca0066fc2"


def test_close_ratio_chains_keep_their_dominating_lps(monkeypatch):
    """The dominating LPs of the sweep's close-ratio chains solve to the
    bits they had when the row scan decided them. The hash is over every
    LP's x and value, so it pins the tables too, including the two that the
    table check refuses (chains 18 and 23, whose rows sum to 1 only within
    5e-9)."""
    h = hashlib.sha256()

    def recording(*args):
        x, val = solve_lp(*args)
        h.update(x.tobytes() + val.tobytes())
        return x, val

    monkeypatch.setattr(policies, "solve_lp", recording)
    for i, m, k in _sparse_sweep():
        if i in CLOSE_RATIO_CHAINS:
            try:
                policies.DominatingPolicy().kernel_probs(subset_index(len(m), k), validate_chain(m))
            except ValueError:  # the table check, after every LP of the chain is solved
                pass
    assert h.hexdigest() == CLOSE_RATIO_SHA256


@pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (4, 5)])
def test_negative_zero_input_solves_to_the_bits_of_positive_zero(n, m):
    """``_pivot`` subtracts ``f * prow`` from every row, also where f is
    zero, which can change the sign of a zero but nothing else: the stack
    equals the loop oracle, which skips those rows, and LPs written with -0.0
    zeros give the x of the same LPs with +0.0 zeros, sign bits included,
    with no -0.0 in it."""
    rng = np.random.default_rng([43, n, m])
    B = 40
    c = np.where(rng.random((B, n)) < 0.3, 0.0, rng.normal(size=(B, n)))
    c[:, n - 1] = np.abs(c[:, n - 1])  # costs past the prefix are non-negative
    a_ub = np.where(rng.random((B, m, n)) < 0.4, 0.0, rng.normal(size=(B, m, n)))
    b_ub = np.where(np.arange(m) % 2, 0.0, rng.random(m) + 0.1)
    a_ub[:, :, 0] = np.minimum(a_ub[:, :, 0], b_ub)  # x = e_0 is feasible
    x, val = _assert_matches_loop_oracle(c, a_ub, b_ub, n - 1)
    neg_x, neg_val = solve_lp(np.where(c == 0, -0.0, c), np.where(a_ub == 0, -0.0, a_ub), np.where(b_ub == 0, -0.0, b_ub), n - 1)
    assert x.tobytes() == neg_x.tobytes() and np.array_equal(val, neg_val)
    assert not np.signbit(x[x == 0]).any()
    # the artificial, basic at zero after phase 1, is pivoted out on a -2
    (x,), _ = solve_lp([-2.0, 0.0], [[-1.0, 0.0], [0.0, 0.0], [1.0, 2.0]], [1.0, 0.0, 1.0], 1)
    assert x.tolist() == [1.0, 0.0] and not np.signbit(x).any()


def test_non_finite_input_refused(monkeypatch):
    """A NaN or inf in ``c``, ``a_ub`` or ``b_ub`` is a ``ValueError`` that
    names the argument, before any pivot and without a RuntimeWarning."""
    pivots = []
    monkeypatch.setattr(simplex_mod, "_pivot", lambda *args: pivots.append(args))
    c, a_ub, b_ub = np.array([1.0, 0.0]), np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([1.0, 0.5])
    for bad in (np.nan, np.inf, -np.inf):
        for name, at in (("c", (0,)), ("a_ub", (1, 0)), ("b_ub", (1,))):
            args = {"c": c.copy(), "a_ub": a_ub.copy(), "b_ub": b_ub.copy()}
            args[name][at] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=rf"^{name} must be finite, got {bad!r}$"):
                    solve_lp(args["c"], args["a_ub"], args["b_ub"], 2)
    assert pivots == []
