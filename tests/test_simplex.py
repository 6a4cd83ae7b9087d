import numpy as np
import pytest
from scipy.optimize import linprog

from markov_paging import simplex as simplex_mod
from markov_paging.simplex import InfeasibleLP, UnboundedLP, solve_lp

from .oracles import loop_solve_lp


def test_simple_bounded_problem():
    # min -x-y s.t. x+y<=1 -> optimum -1 on the segment; vertex solution
    x, val = solve_lp([-1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
    assert val == pytest.approx(-1.0, abs=1e-12)
    assert x.sum() == pytest.approx(1.0, abs=1e-12)


def test_equality_constraint():
    x, val = solve_lp([1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    assert np.allclose(x, [1.0, 0.0], atol=1e-12)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_infeasible_detected():
    with pytest.raises(InfeasibleLP):
        solve_lp([1.0], a_ub=[[1.0]], b_ub=[-1.0], a_eq=[[1.0]], b_eq=[1.0])


def test_unbounded_detected():
    with pytest.raises(UnboundedLP):
        solve_lp([-1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[1.0])


def test_negative_rhs_row_handled():
    # x >= 2 encoded as -x <= -2
    x, val = solve_lp([1.0], a_ub=[[-1.0]], b_ub=[-2.0])
    assert x[0] == pytest.approx(2.0, abs=1e-12)


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
        (x,), (val,) = solve_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=[1.0])
        checked += 1
        assert val == pytest.approx(ref.fun, abs=1e-8)
        assert np.all(a_ub @ x <= b_ub + 1e-9)
        assert x.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(x >= -1e-12)
    assert checked >= 20


def test_deterministic_output():
    c = [0.0, 0.0, 1.0]
    a_ub = [[0.3, 0.6, -1.0], [0.7, 0.1, -1.0]]
    a_eq = [[1.0, 1.0, 0.0]]
    first = solve_lp(c, a_ub=a_ub, b_ub=[0.0, 0.0], a_eq=a_eq, b_eq=[1.0])
    second = solve_lp(c, a_ub=a_ub, b_ub=[0.0, 0.0], a_eq=a_eq, b_eq=[1.0])
    assert np.array_equal(first[0], second[0]) and first[1] == second[1]


def _assert_matches_loop_oracle(c, a_ub, b_ub, a_eq, b_eq):
    """The stacked solve equals the one-LP loop on every LP, x and value."""
    x, val = solve_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    for i in range(len(c)):
        ref_x, ref_val = loop_solve_lp(
            c[i], a_ub=None if a_ub is None else a_ub[i], b_ub=b_ub,
            a_eq=None if a_eq is None else a_eq[i], b_eq=b_eq,
        )
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
    eq = np.broadcast_to(a_eq, (len(keep), 1, n))
    _, val = _assert_matches_loop_oracle(c[keep], a_ub[keep], b_ub, eq, [1.0])
    assert np.allclose(val, [fun for _, fun in feasible], atol=1e-8)


def test_stack_of_one_is_the_scalar_call():
    """Unstacked inputs are a stack of one and solve as ``[c]`` does."""
    c = [0.0, 0.0, 1.0]
    a_ub = [[0.3, 0.6, -1.0], [0.7, 0.1, -1.0]]
    a_eq = [[1.0, 1.0, 0.0]]
    x, val = solve_lp(c, a_ub=a_ub, b_ub=[0.0, 0.0], a_eq=a_eq, b_eq=[1.0])
    xs, vals = solve_lp([c], a_ub=[a_ub], b_ub=[0.0, 0.0], a_eq=a_eq, b_eq=[1.0])
    assert xs.shape == (1, 3) and vals.shape == (1,)
    assert np.array_equal(xs, x) and np.array_equal(vals, val)


def test_lps_finishing_at_different_iterations(monkeypatch):
    # x = 0 is optimal at once for LP 0; the others need one, two and three
    # pivots, so the active set shrinks every iteration
    c = np.array([[1.0, 1.0, 1.0], [-1.0, 0.0, 0.0], [-1.0, -2.0, 0.0], [-1.0, -2.0, -3.0]])
    a_ub = np.broadcast_to(np.eye(3), (4, 3, 3))
    active = []
    real = simplex_mod._pivot

    def counting(tab, basis, rows, cols):
        active.append(len(tab))
        real(tab, basis, rows, cols)

    monkeypatch.setattr(simplex_mod, "_pivot", counting)
    x, _ = _assert_matches_loop_oracle(c, a_ub, [1.0, 2.0, 3.0], None, None)
    assert active == [3, 2, 1]
    assert np.array_equal(x[3], [1.0, 2.0, 3.0])


def test_redundant_equality_row_in_some_lps():
    # the second equality row repeats the first in LPs 0 and 2 only
    rng = np.random.default_rng(5)
    c = rng.normal(size=(4, 3))
    a_ub = rng.random((4, 2, 3))
    a_eq = np.array([[[1.0, 1.0, 1.0]] * 2, [[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]]] * 2)
    x, _ = _assert_matches_loop_oracle(c, a_ub, [1.0, 1.0], a_eq, [1.0, 1.0])
    assert np.allclose(x.sum(axis=1), 1.0) and np.array_equal(x[[1, 3], 0], [1.0, 1.0])


def test_infeasible_lp_in_stack_reports_its_index():
    # x0 + x1 = 1 with x0 >= 2 (infeasible) or 3 x0 >= 2 (feasible)
    a_ub = np.array([[[-1.0, 0.0]], [[-3.0, 0.0]], [[-1.0, 0.0]], [[-3.0, 0.0]]])
    with pytest.raises(InfeasibleLP) as err:
        solve_lp(np.zeros((4, 2)), a_ub=a_ub, b_ub=[-2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    assert err.value.index == 0
    with pytest.raises(InfeasibleLP) as err:
        solve_lp(np.zeros((3, 2)), a_ub=a_ub[[1, 3, 2]], b_ub=[-2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    assert err.value.index == 2


def test_unbounded_lp_in_stack_reports_first_index():
    # LP 1 is found unbounded at the second iteration, LP 3 at the first;
    # the error names LP 1, the first in stack order
    c = np.array([[1.0, 1.0], [-1.0, -1.0], [-1.0, 0.0], [0.0, -1.0]])
    a_ub = np.array([[[1.0, 0.0]], [[1.0, 0.0]], [[1.0, 0.0]], [[1.0, 0.0]]])
    with pytest.raises(UnboundedLP) as err:
        solve_lp(c, a_ub=a_ub, b_ub=[1.0])
    assert err.value.index == 1
    assert "column 1" in str(err.value)
