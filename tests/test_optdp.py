import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_paging.chain import build_lb_chain, random_chain, validate_chain
from markov_paging.engine import simulate
from markov_paging.optdp import (
    BudgetExceeded,
    SubsetIndex,
    check_cache,
    opt_action,
    opt_expected_cost,
    subset_index,
)
from markov_paging.policies import FarthestInFuture, OptReplayPolicy

from .conftest import caches, chain_specs, horizons, sparse_chain, sparse_chain_specs
from .oracles import loop_opt_expected_cost, sorted_caches, successor, tree_opt_cost


def test_two_page_forced_choice_example():
    ch = validate_chain([[0.9, 0.1], [0.9, 0.1]], init=[0.9, 0.1])
    value, _ = opt_expected_cost(ch, 1, 2, (0,))
    # first request misses w.p. 0.1; second misses when it differs: 2*0.9*0.1
    assert value == pytest.approx(0.28, abs=1e-12)


def test_empty_horizon_costs_nothing():
    ch = random_chain(3, 0)
    value, _ = opt_expected_cost(ch, 2, 0, (0, 1))
    assert value == 0.0


def test_warmup_opt_at_most_reference_rate():
    # a pinned-page policy achieves eps*T/2, so the optimum sits below it
    ch = build_lb_chain(0.1, 0.05)
    T = 20
    value, _ = opt_expected_cost(ch, 2, T, (0, 1))
    assert value <= 0.05 * T + 1e-12


def test_matches_exhaustive_tree_on_small_instances():
    rng = np.random.default_rng(7)
    for trial in range(5):
        n = int(rng.integers(3, 5))
        T = int(rng.integers(3, 6))
        ch = random_chain(n, int(rng.integers(10**6)), floor=0.1)
        value, _ = opt_expected_cost(ch, 2, T, (0, 1), record_actions=False)
        assert value == pytest.approx(tree_opt_cost(ch, 2, T, (0, 1)), abs=1e-10)


@settings(max_examples=10, deadline=None)
@given(chain_specs(n_min=3, n_max=4), st.integers(min_value=1, max_value=5))
def test_cost_monotone_in_horizon(chain, T):
    shorter, _ = opt_expected_cost(chain, 2, T, (0, 1), record_actions=False)
    longer, _ = opt_expected_cost(chain, 2, T + 1, (0, 1), record_actions=False)
    assert longer >= shorter - 1e-12


def test_value_layers_monotone_and_terminal_zero():
    ch = random_chain(4, 11)
    T = 6
    _, table = opt_expected_cost(ch, 2, T, (0, 1), record_values=True)
    assert np.all(table.value[T] == 0.0)
    for t in range(1, T):
        assert np.all(table.value[t + 1] <= table.value[t] + 1e-12)


def test_action_is_resident_and_forced_at_k1():
    ch = random_chain(3, 5)
    _, table = opt_expected_cost(ch, 1, 4, (1,))
    assert opt_action(table, 2, (1,), 0) == 1  # only resident page


def test_symmetric_tie_breaks_to_lowest_index():
    ch = validate_chain(np.full((3, 3), 1 / 3))
    _, table = opt_expected_cost(ch, 2, 5, (0, 1))
    # pages are exchangeable, so evicting 0 or 1 has identical value
    assert opt_action(table, 1, (0, 1), 2) == 0


def test_deterministic_cycle_matches_farthest_in_future():
    # requests cycle 0,1,2,0,1,2,...: the optimum equals the clairvoyant rule
    m = np.zeros((3, 3))
    for i in range(3):
        m[i, (i + 1) % 3] = 1.0
    ch = validate_chain(m, init=[1.0, 0.0, 0.0])
    T = 6
    value, table = opt_expected_cost(ch, 2, T, (0, 1))
    opt_sim = simulate(OptReplayPolicy(table), ch, 2, T, (0, 1), trials=1, seed=0)
    fif_sim = simulate(FarthestInFuture(), ch, 2, T, (0, 1), trials=1, seed=0)
    assert opt_sim.mean == fif_sim.mean == pytest.approx(value, abs=1e-12)


def test_budget_guard():
    ch = random_chain(6, 0)
    with pytest.raises(BudgetExceeded):
        opt_expected_cost(ch, 3, 100, (0, 1, 2), budget=100)


def test_unknown_state_lookup_fails():
    ch = random_chain(4, 2)
    _, table = opt_expected_cost(ch, 2, 3, (0, 1))
    with pytest.raises(KeyError):
        opt_action(table, 3, (0, 1), 1)  # resident page: no action stored
    with pytest.raises(KeyError):
        opt_action(table, 9, (0, 1), 2)  # beyond horizon
    _, bare = opt_expected_cost(ch, 2, 3, (0, 1), record_actions=False)
    with pytest.raises(KeyError):
        opt_action(bare, 1, (0, 1), 2)  # actions were not recorded


def test_subset_index_roundtrip():
    idx = SubsetIndex(5, 2)
    caches, rank = sorted_caches(5, 2)
    assert idx.rank == rank and len(idx) == len(caches)
    for r, sub in enumerate(caches):
        assert tuple(idx.pages[r].tolist()) == sub
        assert np.flatnonzero(idx.member[r]).tolist() == list(sub)


def _assert_matches_loop_oracle(chain, k, T, init):
    value, table = opt_expected_cost(chain, k, T, init, record_values=True)
    ref_value, ref_action, ref_layers = loop_opt_expected_cost(chain, k, T, init)
    assert value == ref_value
    assert np.array_equal(table.action, ref_action)
    assert np.array_equal(table.value, ref_layers)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dp_matches_per_rank_loop_oracle(data):
    chain = data.draw(sparse_chain_specs())
    k = data.draw(st.integers(min_value=1, max_value=chain.n - 1))
    _assert_matches_loop_oracle(chain, k, data.draw(horizons), data.draw(caches(chain.n, k)))


@pytest.mark.parametrize("n", range(3, 9))
def test_dp_matches_per_rank_loop_oracle_for_every_k(n):
    for k in range(1, n):
        chain = sparse_chain(n, [n, k], 0.3)
        last = tuple(range(n - k, n))  # the highest-rank cache
        _assert_matches_loop_oracle(chain, k, 4, last)


@pytest.mark.parametrize("n", range(3, 9))
def test_value_without_actions_matches_loop_oracle(n):
    """The value that the exact ratio reads, built without actions, equals
    the oracle's with ``==`` for every k and for T = 0, 1 and 4."""
    for k in range(1, n):
        chain = sparse_chain(n, [n, k, 1], 0.3)
        for T in (0, 1, 4):
            init = tuple(range(k))
            value, table = opt_expected_cost(chain, k, T, init, record_actions=False)
            assert table.action is None
            assert value == loop_opt_expected_cost(chain, k, T, init)[0], (k, T)


def test_subset_index_is_shared_and_read_only():
    idx = subset_index(5, 2)
    assert subset_index(5, 2) is idx
    for arr in (idx.member, idx.pages, idx.cells, idx.evicted):
        with pytest.raises(ValueError):
            arr[0] = 0
    ch = random_chain(5, 1)
    _, table = opt_expected_cost(ch, 2, 3, (0, 1))
    assert table.index is idx


@pytest.mark.parametrize("n", range(2, 8))
def test_slot_major_tables_follow_succ(n):
    """Where j misses cache r, ``cells[e, r, j]`` is the flat cell of (the
    cache after evicting slot e, j) and ``evicted[e, r, j]`` is slot e's
    page; where j is resident they are the hit's own cell r·n + j and -1.
    Caches and successors come from ``itertools.combinations`` and sets."""
    for k in range(1, n):
        idx = subset_index(n, k)
        caches, rank = sorted_caches(n, k)
        assert idx.cells.shape == idx.evicted.shape == (k, len(caches), n)
        for e in range(k):
            for r, cache in enumerate(caches):
                for j in range(n):
                    if j in cache:
                        want = (r * n + j, -1)
                    else:
                        want = (rank[successor(cache, cache[e], j)] * n + j, cache[e])
                    assert (idx.cells[e, r, j], idx.evicted[e, r, j]) == want, (k, e, cache, j)


@pytest.mark.parametrize("cache", [(0, 9), (0, 0), (0,), (0, 1, 2), (-1, 0), (0, 1.5)])
def test_init_cache_must_be_k_distinct_pages(cache):
    with pytest.raises(ValueError, match="2 distinct pages in 0..3"):
        check_cache(cache, 4, 2)
    with pytest.raises(ValueError, match="distinct pages"):
        opt_expected_cost(random_chain(4, 0), 2, 5, cache)
