import numpy as np
import pytest
from scipy.optimize import linprog

from markov_paging import simplex as simplex_mod
from markov_paging.simplex import InfeasibleLP, solve_lp

from .oracles import loop_solve_lp


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
