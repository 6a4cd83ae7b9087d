import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_paging.chain import (
    SAMPLE_CHUNK,
    NonStochasticRow,
    build_lb_chain,
    chain_hash,
    load_chain,
    next_page_table,
    random_chain,
    sample_sequence,
    sample_trials,
    save_chain,
    trial_uniforms,
    validate_chain,
)

from .conftest import chain_specs, sparse_chain_specs
from .oracles import loop_sample_pages, loop_trial_uniforms


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


LENGTHS = [1, 2, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1, SAMPLE_CHUNK + 2,
           2 * SAMPLE_CHUNK, 2 * SAMPLE_CHUNK + 1, 2 * SAMPLE_CHUNK + 2]


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


@settings(max_examples=30, deadline=None)
@given(
    sparse_chain_specs(n_min=2, n_max=7),
    st.sampled_from(LENGTHS),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=5),
)
def test_sample_trials_rows_match_sample_sequence(chain, T, seed, trials):
    """Row i is the trace ``sample_sequence`` draws from seed i, page for page,
    on chains with zero entries and across ``SAMPLE_CHUNK`` boundaries."""
    seeds = [(seed, i, 0) for i in range(trials)]
    pages = sample_trials(chain, T, (seed,), trials=range(trials))
    assert pages.shape == (trials, T) and not pages.flags.writeable
    for row, s in zip(pages, seeds):
        assert np.array_equal(row, sample_sequence(chain, T, s))


# seed parts below, at and above one and two 32-bit entropy words
SEED_PARTS = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 5]) | st.integers(min_value=0, max_value=2**70)
NUMPY_INTS = (np.uint32, np.int64, np.uint64)


@st.composite
def seed_bases(draw):
    """A base of 0-5 seed parts, some as numpy integer scalars where they fit,
    and the same base as Python ints."""
    parts = draw(st.lists(SEED_PARTS, max_size=5))
    base = []
    for p in parts:
        fits = [t for t in NUMPY_INTS if p <= np.iinfo(t).max]
        kind = draw(st.sampled_from([int, *fits]))
        base.append(kind(p))
    return tuple(base), tuple(parts)


@settings(max_examples=60, deadline=None)
@given(
    seed_bases(),
    st.sampled_from([0, 1, 2, 1025]),
    st.lists(st.sampled_from([0, 1, 2**32 - 1]) | st.integers(min_value=0, max_value=2**32 - 1), max_size=6),
)
def test_trial_uniforms_match_per_trial_loop_oracle(bases, T, trials):
    """Bit for bit the uniforms of one ``default_rng((*base, i, 0))`` per
    trial, with fewer than, exactly and more than 4 entropy words."""
    base, parts = bases
    u = trial_uniforms(T, base, trials)
    assert u.shape == (len(trials), T)
    assert np.array_equal(u, loop_trial_uniforms(T, parts, trials))


@pytest.mark.parametrize(
    "base,trials",
    [((-1,), [0]), ((3, np.int64(-2)), [0]), ((3,), [-1]), ((3,), [2**32]), ((3,), [0, 2**40]), ((3,), [2**70])],
)
def test_trial_uniforms_reject_negative_parts_and_wide_indices(base, trials):
    """A negative seed part is a ValueError, as numpy makes it; a trial index
    is one entropy word, so 2**32 and above are ValueErrors too."""
    with pytest.raises(ValueError):
        trial_uniforms(4, base, trials)


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


def test_next_page_table_clamps_rows_ending_below_one():
    # ten entries of 0.1 sum to 0.9999999999999999 in floating point, so a
    # uniform can exceed the whole row; zero entries give duplicate grid values
    rows = [[0.1] * 10] * 6 + [[1.0] + [0.0] * 9, [0.0] * 9 + [1.0], [0.5] + [0.0] * 8 + [0.5], [0.2, 0.0] * 5]
    chain = validate_chain(rows)
    cum = np.cumsum(chain.transition, axis=1)
    assert cum[0, -1] < 1.0
    grid, _ = next_page_table(chain)
    assert np.unique(grid).size < grid.size
    _assert_table_matches_rows(chain)


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
    # stream (0, 0, 0) is default_rng(0): zero words within the 4-word pool are padding
    assert np.array_equal(sample_trials(chain, T, (seed,), trials=[0])[0], pages)


def test_sample_trials_empty_horizon():
    assert sample_trials(random_chain(3, 1), 0, (1,), trials=range(2)).shape == (2, 0)


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

