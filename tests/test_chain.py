import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_paging import chain as chain_mod
from markov_paging import engine as engine_mod
from markov_paging import policies as policies_mod
from markov_paging.alpha import AlphaTable
from markov_paging.chain import (
    CHUNK_RATIO,
    SHORT_TRACE,
    SPLIT_STEP,
    WALK_BLOCK,
    WALK_PAGES,
    NonStochasticRow,
    build_lb_chain,
    chain_hash,
    grid_cells,
    load_chain,
    next_page_table,
    random_chain,
    sample_sequence,
    sample_trials,
    save_chain,
    validate_chain,
)
from markov_paging.engine import ratio_report, trial_misses
from markov_paging.optdp import subset_index
from markov_paging.policies import DominatingPolicy, FarthestInFuture, FifoPolicy, LruPolicy, MedianPolicy, RandomEvictionPolicy

from .conftest import chain_specs, keep_every_table, sparse_chain, sparse_chain_specs, sticky_chain
from .oracles import loop_kernel_probs, loop_pages, loop_sample_pages, loop_simulate_generic, loop_simulate_kernel


def test_uniform_two_page_chain():
    ch = validate_chain([[0.5, 0.5], [0.5, 0.5]], init=[0.5, 0.5])
    assert ch.n == 2
    assert ch.transition.min() == 0.5
    assert np.allclose(ch.transition.sum(axis=1), 1.0, atol=1e-12)


def test_non_stochastic_row_rejected():
    with pytest.raises(NonStochasticRow):
        validate_chain([[0.7, 0.2], [0.5, 0.5]])


def test_negative_entry_rejected():
    with pytest.raises(NonStochasticRow):
        validate_chain([[1.2, -0.2], [0.5, 0.5]])


@pytest.mark.parametrize(
    "matrix,init",
    [
        ([[np.nan, 1.0], [0.5, 0.5]], None),
        ([[0.5, 0.5], [np.nan, np.nan]], None),
        ([[0.5, 0.5], [0.5, 0.5]], [np.nan, 1.0]),
    ],
)
def test_nan_rejected(matrix, init):
    # every comparison with NaN is False, so the checks must be written to fail on it
    with pytest.raises(NonStochasticRow):
        validate_chain(matrix, init=init)


def test_size_mismatch_with_init():
    with pytest.raises(ValueError):
        validate_chain([[0.5, 0.5], [0.5, 0.5]], init=[1.0, 0.0, 0.0])


def test_init_defaults_to_uniform():
    ch = validate_chain([[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(ch.init, [0.5, 0.5])


def test_lb_chain_rows_and_min_entry():
    ch = build_lb_chain(0.2, 0.1)
    assert np.allclose(ch.transition, [[0.8, 0.1, 0.1]] * 3, atol=1e-15)
    assert ch.transition.min() == pytest.approx(0.1, abs=1e-15)

    tiny = build_lb_chain(1e-5, 0.7069e-5)
    assert np.allclose(tiny.transition[0], [0.99999, 7.069e-6, 2.931e-6], rtol=1e-9)
    assert tiny.transition.min() == pytest.approx(2.931e-6, rel=1e-9)


def test_lb_chain_matches_symmetric_split():
    eps = 0.3
    assert np.array_equal(
        build_lb_chain(eps, eps / 2).transition,
        validate_chain([[1 - eps, eps / 2, eps / 2]] * 3).transition,
    )


def test_lb_chain_regime_violations():
    with pytest.raises(ValueError):
        build_lb_chain(0.2, 0.2)  # eps - eps1 = 0
    with pytest.raises(ValueError):
        build_lb_chain(0.2, 0.05)  # eps1 < eps - eps1
    with pytest.raises(ValueError):
        build_lb_chain(0.6, 0.5)  # eps1 > 1 - eps


def test_deterministic_chain_sampling():
    ch = validate_chain([[1.0, 0.0], [1.0, 0.0]], init=[1.0, 0.0])
    for seed in (0, 1, 12345):
        assert sample_sequence(ch, 5, seed).tolist() == [0, 0, 0, 0, 0]


def test_sample_sequence_is_a_read_only_page_array():
    pages = sample_sequence(random_chain(3, 1), 10, 0)
    assert isinstance(pages, np.ndarray) and pages.dtype == np.int64 and pages.shape == (10,)
    assert not pages.flags.writeable


@pytest.mark.parametrize("seed", [0, 12345, [7, 2], [201, 5, 1]])
@pytest.mark.parametrize("a", [0, 1, 7, 4096, 20_000])
def test_random_reads_one_pcg64_output_per_double(seed, a):
    """A stream advanced by ``a`` outputs yields the doubles ``a`` onward of
    one long ``random`` call, so a block of uniforms can be drawn at its
    position in the stream without drawing the ones before it."""
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(a)
    assert np.array_equal(rng.random(37), np.random.default_rng(seed).random(a + 37)[a:])


def test_same_seed_reproduces_sequence():
    ch = random_chain(4, 9)
    a = sample_sequence(ch, 200, 42)
    b = sample_sequence(ch, 200, 42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_sequence(ch, 200, 43))


def test_iid_frequencies_match_law_of_large_numbers():
    ch = validate_chain([[1 / 3] * 3] * 3)
    seq = sample_sequence(ch, 10**6, 7)
    freq = np.bincount(seq, minlength=3) / 10**6
    se = np.sqrt((1 / 3) * (2 / 3) / 10**6)
    assert np.all(np.abs(freq - 1 / 3) < 3 * se)


@settings(max_examples=25, deadline=None)
@given(chain_specs())
def test_sampled_indices_in_range(chain):
    seq = sample_sequence(chain, 50, 3)
    assert seq.min() >= 0 and seq.max() < chain.n


# traces stepped one request at a time, up to SHORT_TRACE, then one walked
# block: CHUNK_RATIO * 49 steps make exactly 224 chunks of isqrt(49) = 7
# steps, and one step more leaves a last chunk of one step
LENGTHS = [1, 2, 3, 40, SHORT_TRACE, SHORT_TRACE + 1, CHUNK_RATIO * 49 + 1, CHUNK_RATIO * 49 + 2]
# T - 1 steps one below, at and one above a block, a block and a last block
# of one-step chunks, and two blocks and one step
BLOCK_LENGTHS = [WALK_BLOCK, WALK_BLOCK + 1, WALK_BLOCK + 2, WALK_BLOCK + 41, 2 * WALK_BLOCK + 2]


@settings(max_examples=40, deadline=None)
@given(
    chain_specs(n_min=2, n_max=7, floor=0.01),
    st.sampled_from(LENGTHS),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.booleans(),
)
def test_sampling_matches_loop_oracle(chain, T, seed, sparse):
    """Page-for-page equal to one-at-a-time sampling, also when ``init``
    and a transition row have zero entries."""
    if sparse:
        m = np.array(chain.transition)
        m[0, 1:] = 0.0
        m[0, 0] = 1.0
        init = np.zeros(chain.n)
        init[-1] = 1.0
        chain = validate_chain(m, init=init)
    pages = sample_sequence(chain, T, [seed, T])
    assert np.array_equal(pages, loop_sample_pages(chain, T, [seed, T]))


def test_sampling_two_pages_across_chunks():
    ch = validate_chain([[0.9, 0.1], [0.4, 0.6]], init=[0.0, 1.0])
    for T in LENGTHS:
        assert np.array_equal(sample_sequence(ch, T, 11), loop_sample_pages(ch, T, 11))


@pytest.mark.parametrize("n,seed,zero_frac", [(5, 3, 0.3), (8, 4, 0.7)])
def test_sampling_matches_loop_oracle_across_blocks(n, seed, zero_frac):
    """Long traces on chains with zero entries: block edges, where the last
    page of a block starts the next, and a 20,000-request trace."""
    chain = sparse_chain(n, seed, zero_frac)
    for T in BLOCK_LENGTHS + [20_000]:
        assert np.array_equal(sample_sequence(chain, T, [seed, T]), loop_sample_pages(chain, T, [seed, T]))


@pytest.mark.parametrize("n", [WALK_PAGES, WALK_PAGES + 1])
def test_sampling_matches_loop_oracle_on_either_side_of_walk_pages(n):
    """At most ``WALK_PAGES`` pages a long trace is walked in chunks; with
    more it is stepped one request at a time, through a memoryview of the
    table. Both agree with the oracle, short traces and block edges too."""
    chain = sparse_chain(n, n, 0.5)
    for T in [40, SHORT_TRACE + 1, 20_000, WALK_BLOCK + 2, 2 * WALK_BLOCK + 2]:
        assert np.array_equal(sample_sequence(chain, T, [n, T]), loop_sample_pages(chain, T, [n, T]))


def _regime_chain(regime, n=12):
    """A chain on which ``_walk``'s chunks meet never, for a few chunks, for
    about half and for every chunk at its first step; ``init`` puts weight
    on every page, so the first page varies with the seed."""
    init = np.arange(1, n + 1) / (n * (n + 1) / 2)
    if regime == "permutation":
        return validate_chain(np.roll(np.eye(n), 1, axis=1), init=init)
    if regime == "identical-rows":
        return validate_chain(np.tile(random_chain(n, [8407, n]).transition[0], (n, 1)), init=init)
    return sticky_chain(n, {"sticky-0.99": 0.99, "sticky-0.8": 0.8}[regime], init)


# the share of chunks that have met by SPLIT_STEP on a 20,000-request trace
WALK_REGIMES = {
    "permutation": (0.0, 0.0),
    "sticky-0.99": (0.001, 0.1),
    "sticky-0.8": (0.3, 0.7),
    "identical-rows": (1.0, 1.0),
}


def _met_share(chain, cells):
    """The share of ``_walk``'s chunks of ``cells``, but the last, whose
    paths from every page have met after ``SPLIT_STEP`` steps."""
    n = chain.n
    table = next_page_table(chain)[1]
    L = max(1, math.isqrt(cells.size // CHUNK_RATIO))
    chunks = cells[: (cells.size - 1) // L * L].reshape(-1, L)
    ends = np.tile(np.arange(n), (len(chunks), 1))  # ends[j, p]: chunk j's page from page p
    for col in chunks[:, :SPLIT_STEP].T:
        ends = table[col[:, None] * n + ends]
    return float((ends == ends[:, :1]).all(axis=1).mean())


@pytest.mark.parametrize("regime", WALK_REGIMES)
def test_sampling_matches_loop_oracle_in_every_walk_regime(regime):
    """Page for page equal to one-at-a-time sampling where no chunk's paths
    meet, where too few meet for the walk to split, where it splits, and
    where every chunk's paths meet at its first step; at chunks of 5 steps,
    fewer than ``SPLIT_STEP``, at 24 and across a block edge."""
    chain = _regime_chain(regime)
    low, high = WALK_REGIMES[regime]
    cells = grid_cells(next_page_table(chain)[0], np.random.default_rng(8408).random(19_999))
    assert low <= _met_share(chain, cells) <= high
    for T in (SHORT_TRACE + 1, 20_000, WALK_BLOCK + 2):
        for seed in (1, 2, 3):
            assert np.array_equal(sample_sequence(chain, T, [seed, T]), loop_sample_pages(chain, T, [seed, T]))


@pytest.mark.parametrize("regime", WALK_REGIMES)
def test_walk_matches_step_from_every_start_page(regime):
    """``_walk`` writes the pages ``_step`` does and returns the same last
    page, from every start page, on the cells of each block that
    ``sample_sequence`` walks at the lengths above."""
    chain = _regime_chain(regime)
    n = chain.n
    grid, table = next_page_table(chain)
    for m in (SHORT_TRACE, 19_999, WALK_BLOCK, 1):
        cells = grid_cells(grid, np.random.default_rng([8409, m]).random(m))
        for start in range(n):
            walked, stepped = np.empty(m, dtype=np.int64), np.empty(m, dtype=np.int64)
            assert chain_mod._walk(table, n, cells, start, walked) == chain_mod._step(table, n, cells, start, stepped)
            assert np.array_equal(walked, stepped)


@pytest.mark.parametrize(
    "chain",
    [random_chain(12, 5), random_chain(12, 5, floor=0.3), sticky_chain(12, 0.99)],
    ids=["floor-0.05", "floor-0.3", "sticky-0.99"],
)
def test_long_trace_memory_is_one_block_of_temporaries(chain):
    """A 10**6-request trace at n = 12 allocates its 8 MB of pages and at
    most 4 MB more: the uniforms are drawn and walked a block at a time, so
    the 8 MB that all of them would take at once never exists. The walk
    keeps every chunk's n paths on the 0.99-diagonal chain, and on the
    floor-0.3 chain, where nearly every chunk's paths meet, it splits them
    off and gathers their cells row by row within the same bound."""
    sample_sequence(chain, 10, 0)  # first-call allocations outside the measurement
    tracemalloc.start()
    try:
        sample_sequence(chain, 10**6, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 10**6 + 4 * 10**6, peak


# seed parts below, at and above one and two 32-bit entropy words
SEED_PARTS = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 5]) | st.integers(min_value=0, max_value=2**70)


@settings(max_examples=30, deadline=None)
@given(
    sparse_chain_specs(n_min=2, n_max=7),
    st.sampled_from(LENGTHS),
    st.lists(st.tuples(st.integers(min_value=0, max_value=2**31 - 1)) | st.tuples(SEED_PARTS, SEED_PARTS), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=5),
)
def test_sample_trials_rows_match_sample_sequence(chain, T, bases, trials):
    """Row [r, i] is the trace of uniforms ``[i·T, (i+1)·T)`` of
    ``default_rng(bases[r])``, page for page with the loop oracle, on chains
    with zero entries, across ``sample_sequence``'s chunk edges and for bases
    of different word counts in one call; row [r, 0] is ``sample_sequence``'s
    trace from the base, and a second call goes on with the stream."""
    rngs = [np.random.default_rng(base) for base in bases]
    first, more = sample_trials(chain, T, rngs, trials), sample_trials(chain, T, rngs, 2)
    assert first.shape == (len(bases), trials, T) and not first.flags.writeable
    pages = np.concatenate([first, more], axis=1)
    for rows, base in zip(pages, bases):
        u = np.random.default_rng(base).random((trials + 2, T))
        assert np.array_equal(rows[0], sample_sequence(chain, T, base))
        for row, uniforms in zip(rows, u):
            assert np.array_equal(row, loop_pages(chain, uniforms))


@pytest.mark.parametrize(
    "base,trials",
    [((-1,), [0]), ((3, np.int64(-2)), [0]), ((3,), [-1]), ((3,), [2**32]), ((3,), [0, 2**40]), ((3,), [2**70])],
)
def test_trial_uniforms_reject_negative_parts_and_wide_indices(base, trials):
    """A run seeded ``(*base, *trials)``, the parts that once seeded one
    trial: numpy's ``default_rng`` refuses a negative part with a ValueError
    on the kernel, stamped and generic paths alike. A trial index is no
    longer a seed word, so a part of 2**32 or above is a seed like any other,
    and every path counts its trials as the loop oracles do."""
    seed = (*base, *trials)
    chain, k, T, init, n_trials = random_chain(4, 2), 2, 5, (0, 1), 3
    for policy in (RandomEvictionPolicy(), LruPolicy(), FarthestInFuture()):
        runs = [(LruPolicy(), 1), (policy, seed)]
        if min(seed) < 0:
            with pytest.raises(ValueError):
                trial_misses(runs, chain, k, T, init, n_trials)
            continue
        got = trial_misses(runs, chain, k, T, init, n_trials)[1]
        if isinstance(policy, RandomEvictionPolicy):
            ref = loop_simulate_kernel(loop_kernel_probs(policy, chain, k), chain, T, init, n_trials, seed)
        else:
            ref = loop_simulate_generic(policy, chain, k, T, init, n_trials, seed)
        assert np.array_equal(got, ref), policy.name


def _edge_uniforms(grid):
    """Every grid value, its floating-point neighbours, and the ends of [0, 1)."""
    return np.concatenate([grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf), [0.0, 1 - 2**-53]])


def _assert_table_matches_rows(chain):
    grid, table = next_page_table(chain)
    n = chain.n
    cum = np.cumsum(chain.transition, axis=1)
    assert grid.shape == (n * n,) and table.shape == ((n * n + 1) * n,)
    for u in _edge_uniforms(grid):
        cell = int(np.searchsorted(grid, u, side="right"))
        for r in range(n):
            expected = min(int(np.searchsorted(cum[r], u, side="right")), n - 1)
            assert table[cell * n + r] == expected, (u, r)


@settings(max_examples=40, deadline=None)
@given(sparse_chain_specs(n_min=2, n_max=8))
def test_next_page_table_at_cell_edges(chain):
    """The table equals per-row inversion with the clamp to n-1 at every
    uniform that lands on a cell edge or next to one, where random uniforms
    almost never fall."""
    _assert_table_matches_rows(chain)


# ten entries of 0.1 sum to 0.9999999999999999 in floating point, so a
# uniform can exceed the whole row; zero entries give duplicate grid values
ROWS_BELOW_ONE = [[0.1] * 10] * 6 + [[1.0] + [0.0] * 9, [0.0] * 9 + [1.0], [0.5] + [0.0] * 8 + [0.5], [0.2, 0.0] * 5]


def test_next_page_table_clamps_rows_ending_below_one():
    chain = validate_chain(ROWS_BELOW_ONE)
    cum = np.cumsum(chain.transition, axis=1)
    assert cum[0, -1] < 1.0
    grid, _ = next_page_table(chain)
    assert np.unique(grid).size < grid.size
    _assert_table_matches_rows(chain)


def _assert_cells_match_searchsorted(chain):
    """The edge uniforms alone, which ``grid_cells`` binary-searches, and
    repeated past its cut, which it places through the guide: the cut is
    ``SHORT_TRACE`` or G/4, and G is below 16 times the grid size."""
    grid, _ = next_page_table(chain)
    u = _edge_uniforms(grid)
    u = u[(u >= 0) & (u < 1)]
    for v in (u, np.tile(u, max(SHORT_TRACE, 4 * grid.size) // u.size + 1)):
        assert np.array_equal(grid_cells(grid, v), np.searchsorted(grid, v, side="right"))


@settings(max_examples=40, deadline=None)
@given(sparse_chain_specs(n_min=2, n_max=8))
def test_grid_cells_at_cell_edges(chain):
    """The guided lookup places every uniform on or next to a grid value in
    the cell a binary search gives."""
    _assert_cells_match_searchsorted(chain)


def test_grid_cells_on_rounded_tiny_and_crowded_grids():
    """Rows ending below 1 with duplicate grid values; the stress chain at
    eps = 1e-9, whose grid values crowd the top bucket; and a chain whose
    n² values all lie in one bucket, so every uniform there takes the
    binary-search fallback."""
    # these rows end below 1 after renormalizing, and every cumulative value
    # lies in [1 - 2**-16, 1), inside one bucket for G up to GUIDE_CAP = 2**16
    tail = 1e-7
    crowded = validate_chain([[1 - 9 * tail] + [tail] * 9] * 10)
    grid, _ = next_page_table(crowded)
    assert grid.min() >= 1 - 2**-16 and grid.max() < 1
    for chain in (validate_chain(ROWS_BELOW_ONE), build_lb_chain(1e-9, 0.7069e-9), crowded):
        _assert_cells_match_searchsorted(chain)


def test_uniform_on_a_cumulative_entry_selects_the_next_page():
    """A uniform equal to a cumulative entry lies past it (``side="right"``).
    The chain is built from the sampler's own uniforms: ``init`` from the
    first and both rows from a later one, each at least 1/2 so that the row
    sums to 1 exactly and is not renormalized."""
    seed, T = 0, 40
    u = np.random.default_rng(seed).random(T)
    t0 = next(t for t in range(1, T) if u[t] >= 0.5)
    assert u[0] >= 0.5
    chain = validate_chain([[u[t0], 1 - u[t0]]] * 2, init=[u[0], 1 - u[0]])
    assert chain.init[0] == u[0] and chain.transition[0, 0] == u[t0]
    pages = sample_sequence(chain, T, seed)
    assert pages[0] == 1 and pages[t0] == 1
    assert np.array_equal(pages, loop_sample_pages(chain, T, seed))
    assert np.array_equal(sample_trials(chain, T, [np.random.default_rng(seed)], 1)[0, 0], pages)


def test_sample_trials_empty_horizon():
    """No requests, and no uniform drawn from either stream."""
    rngs = [np.random.default_rng(1), np.random.default_rng((2, 3))]
    assert sample_trials(random_chain(3, 1), 0, rngs, 2).shape == (2, 2, 0)
    assert rngs[0].random() == np.random.default_rng(1).random()


def test_sample_sequence_empty_horizon():
    pages = sample_sequence(random_chain(3, 1), 0, 1)
    assert pages.shape == (0,) and pages.dtype == np.int64 and not pages.flags.writeable
    with pytest.raises(ValueError, match="T must be >= 0, got -1"):
        sample_sequence(random_chain(3, 1), -1, 1)


def test_chain_file_roundtrip(tmp_path):
    ch = random_chain(3, 5)
    path = tmp_path / "chain.json"
    save_chain(ch, path, page_names=["a", "b", "c"])
    back = load_chain(path)
    assert back.n == 3
    assert np.allclose(back.transition, ch.transition, atol=1e-15)
    assert np.allclose(back.init, ch.init, atol=1e-15)
    assert json.loads(path.read_text())["page_names"] == ["a", "b", "c"]


def test_chain_file_scientific_notation(tmp_path):
    doc = {"n": 2, "transition": [[9.9e-1, 1e-2], [0.5, 0.5]], "init": [1, 0]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    ch = load_chain(path)
    assert ch.transition[0, 1] == pytest.approx(0.01, abs=1e-15)


def test_chain_hash_stability():
    a = random_chain(4, 1)
    b = random_chain(4, 1)
    assert chain_hash(a) == chain_hash(b)
    assert chain_hash(a) != chain_hash(random_chain(4, 2))



def test_ratio_report_builds_the_sampling_table_once(monkeypatch):
    """The kernel path (dominating, median) and the batched path (LRU, FIFO)
    of one report read one kept sampling table."""
    builds = []
    real = chain_mod._next_pages

    def counting(chain):
        builds.append(chain.n)
        return real(chain)

    monkeypatch.setattr(chain_mod, "_next_pages", counting)
    chain = random_chain(5, 8)
    policies = [DominatingPolicy(), MedianPolicy(), LruPolicy(), FifoPolicy()]
    ratio_report(chain, 2, 20, policies, "opt-dp", 50, 3, (0, 1))
    assert builds == [5]


def test_monte_carlo_builds_the_bucket_guide_once_per_call(monkeypatch):
    """A ``trial_misses`` call places every run's request uniforms, kernel
    runs included, by one ``grid_cells`` lookup per ``sample_trials`` block,
    so it builds the guide once per block: once for two kernel runs and an
    LRU run of 600 trials at T = 30 at n = 4 (52,200 uniforms, past the
    guide's cut there), once for each run alone, with the same counts, and
    three times when the trials span three blocks. A three-block
    ``sample_sequence`` builds it once."""
    builds = []
    real = chain_mod._guide

    def counting(grid, G):
        builds.append(G)
        return real(grid, G)

    monkeypatch.setattr(chain_mod, "_guide", counting)
    chain = random_chain(4, 3)
    runs = [(RandomEvictionPolicy(), 1), (MedianPolicy(), 2), (LruPolicy(), 3)]
    every = trial_misses(runs, chain, 2, 30, (0, 1), 600)
    assert builds == [128]
    for run, row in zip(runs, every):
        assert np.array_equal(trial_misses([run], chain, 2, 30, (0, 1), 600)[0], row)
    assert builds == [128] * 4
    # three traces and two eviction arrays of 30 cells per trial: 200 trials a block
    monkeypatch.setattr(engine_mod, "TRIAL_BLOCK_CELLS", 200 * 30 * 5)
    assert np.array_equal(trial_misses(runs, chain, 2, 30, (0, 1), 600), every)
    assert builds == [128] * 7
    sample_sequence(chain, 2 * WALK_BLOCK + 2, 0)
    assert builds == [128] * 8


def test_fresh_median_policies_share_one_median_matrix(monkeypatch):
    calls = []
    real = policies_mod.median_index

    def counting(chain, cap):
        calls.append(cap)
        return real(chain, cap)

    monkeypatch.setattr(policies_mod, "median_index", counting)
    chain = random_chain(5, 9)
    idx = subset_index(5, 2)
    first = MedianPolicy().kernel_probs(idx, chain)
    assert np.array_equal(MedianPolicy().kernel_probs(idx, validate_chain(np.array(chain.transition))), first)
    assert len(calls) == 1


def test_kept_arrays_are_read_only():
    arrays = [a.values if isinstance(a, AlphaTable) else a for a in keep_every_table(random_chain(4, 5))]
    assert len(arrays) == 7
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 0
