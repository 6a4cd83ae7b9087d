import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings

from markov_paging import alpha as alpha_mod
from markov_paging.alpha import (
    AlphaTable,
    SingularSystem,
    alpha_pair,
    alpha_table,
    first_passage,
    gamma,
    load_table,
    pinned_systems,
    save_table,
)
from markov_paging.chain import build_lb_chain, random_chain, validate_chain
from markov_paging.optdp import subset_index
from markov_paging.policies import DominatingPolicy

from .conftest import chain_specs
from .oracles import rollout_alpha


def test_warmup_closed_form_for_every_conditioning_page():
    eps = 0.1
    ch = build_lb_chain(eps, eps / 2)
    expected = (eps / 2) / (1 - eps / 2)  # = 1/19 at eps = 0.1
    vec = alpha_pair(ch, 1, 0)  # page 1 requested before page 0
    assert np.allclose(vec, expected, atol=1e-14)
    assert expected == pytest.approx(1 / 19)


def test_uniform_iid_gives_half_everywhere():
    ch = validate_chain(np.full((5, 5), 0.2))
    table = alpha_table(ch)
    off = ~np.eye(5, dtype=bool)
    assert np.allclose(table.values[off], 0.5, atol=1e-12)


def test_two_page_chain_hand_values():
    # x pins to (1, 0); one chain step gives rows (0.9, 0.3)
    ch = validate_chain([[0.9, 0.1], [0.3, 0.7]])
    vec = alpha_pair(ch, 0, 1)
    assert vec[0] == pytest.approx(0.9, abs=1e-12)
    assert vec[1] == pytest.approx(0.3, abs=1e-12)


def test_rollout_oracle_agreement():
    ch = random_chain(4, 123, floor=0.3)
    table = alpha_table(ch)
    for p, q, s, seed in [(0, 1, 2, 5), (2, 3, 0, 6), (1, 3, 3, 7)]:
        est, se = rollout_alpha(ch, p, q, s, trials=40_000, seed=seed)
        assert abs(table.values[p, q, s] - est) < 4 * se


@settings(max_examples=20, deadline=None)
@given(chain_specs(n_min=2, n_max=5))
def test_antisymmetry_and_range(chain):
    table = alpha_table(chain)
    v = table.values
    for p in range(chain.n):
        assert np.all(v[p, p] == 0.0)
        for q in range(chain.n):
            if p != q:
                assert np.all(np.abs(v[p, q] + v[q, p] - 1.0) <= 1e-9)
    assert v.min() >= -1e-9 and v.max() <= 1 + 1e-9


@settings(max_examples=15, deadline=None)
@given(chain_specs(n_min=2, n_max=5))
def test_table_matches_pair_calls_exactly(chain):
    table = alpha_table(chain)
    for p in range(chain.n):
        for q in range(chain.n):
            if p != q:
                assert np.array_equal(table.values[p, q], alpha_pair(chain, p, q))


def test_iid_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(10):
        row = rng.random(4) + 0.1
        row /= row.sum()
        ch = validate_chain([row] * 4)
        table = alpha_table(ch)
        for p in range(4):
            for q in range(4):
                if p != q:
                    want = row[p] / (row[p] + row[q])
                    assert np.allclose(table.values[p, q], want, atol=1e-10)


@settings(max_examples=15, deadline=None)
@given(chain_specs(n_min=2, n_max=5, floor=0.1))
def test_solver_residual(chain):
    p, q, L = pinned_systems(chain)
    x = first_passage(p, q, L)
    rhs = np.eye(chain.n)[p]
    assert np.abs(np.einsum("mij,mj->mi", L, x) - rhs).max() <= 1e-9


def test_pinned_systems_rows():
    ch = random_chain(4, 8)
    p, q, L = pinned_systems(ch)
    assert list(zip(p.tolist(), q.tolist())) == [(a, b) for a in range(4) for b in range(4) if a != b]
    for i in range(len(p)):
        want = ch.transition - np.eye(4)
        want[[p[i], q[i]]] = np.eye(4)[[p[i], q[i]]]
        assert np.array_equal(L[i], want)


def test_reducible_chain_reports_pair():
    ch = validate_chain(np.eye(3))
    with pytest.raises(SingularSystem) as exc:
        alpha_pair(ch, 0, 1)
    assert (exc.value.p, exc.value.q) == (0, 1)
    with pytest.raises(SingularSystem):
        alpha_table(ch)


def test_near_singular_chain_reports_first_bad_pair():
    # pinning pages 1 and 2 leaves row 0 = [-1e-14, 5e-15, 5e-15]
    ch = validate_chain([[1 - 1e-14, 5e-15, 5e-15], [0.3, 0.3, 0.4], [0.2, 0.5, 0.3]])
    for solve in (alpha_table, gamma):
        with pytest.raises(SingularSystem) as exc:
            solve(ch)
        assert (exc.value.p, exc.value.q) == (1, 2)


def test_gamma_two_page_uniform():
    ch = validate_chain([[0.5, 0.5], [0.5, 0.5]])
    assert gamma(ch) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(chain_specs(n_min=2, n_max=5))
def test_gamma_lower_bound(chain):
    # norm of the pinned system is at most 2, so its inverse norm is >= 1/2
    assert gamma(chain) >= 0.5 - 1e-12


def test_gamma_permutation_invariant():
    ch = random_chain(4, 77)
    perm = [2, 0, 3, 1]
    m = ch.transition[np.ix_(perm, perm)]
    relabeled = validate_chain(m, init=ch.init[perm])
    assert gamma(relabeled) == pytest.approx(gamma(ch), rel=1e-9)


def test_table_dump_roundtrip(tmp_path):
    table = alpha_table(random_chain(3, 3))
    path = tmp_path / "alpha.npz"
    save_table(table, path)
    back = load_table(path)
    assert back.n == table.n
    assert np.array_equal(back.values, table.values)


def test_kept_table_follows_the_transition_matrix():
    a = random_chain(4, 1)
    table = alpha_table(a)
    assert alpha_table(validate_chain(np.array(a.transition))) is table  # same matrix, new chain
    m = np.array(a.transition)
    m[0, :2] += [1e-9, -1e-9]
    b = validate_chain(m)
    after_a = alpha_table(b)
    alpha_mod.clear_cache()
    built = alpha_table(b)
    assert after_a is not table and np.array_equal(after_a.values, built.values)
    assert not np.array_equal(built.values, table.values)


def test_failed_solve_is_not_kept(monkeypatch):
    chain = random_chain(3, [0, 999])
    monkeypatch.setattr(alpha_mod, "CLAMP_TOL", -1.0)
    with pytest.raises(alpha_mod.SolutionOutOfRange):
        alpha_table(chain)
    monkeypatch.undo()
    table = alpha_table(chain)
    monkeypatch.setattr(alpha_mod, "CLAMP_TOL", -1.0)
    assert alpha_table(chain) is table  # a kept table skips the guards ...
    alpha_mod.clear_cache()
    with pytest.raises(alpha_mod.SolutionOutOfRange):  # ... until it is dropped
        alpha_table(chain)


def test_earlier_chain_table_is_released():
    first = random_chain(4, 1)
    table = alpha_table(first)
    DominatingPolicy().kernel_probs(subset_index(4, 2), first)
    assert table.evictions
    ref = weakref.ref(table)
    del table
    alpha_table(random_chain(4, 2))
    gc.collect()
    assert ref() is None


def test_new_table_starts_without_eviction_tables():
    table = alpha_table(random_chain(4, 3))
    DominatingPolicy(table).kernel_probs(subset_index(4, 2), None)
    assert list(table.evictions) == [("dominating", 2)]
    assert AlphaTable(table.n, table.values.copy()).evictions == {}
