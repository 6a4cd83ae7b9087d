import numpy as np
import pytest
from hypothesis import strategies as st

from markov_paging import alpha as alpha_mod
from markov_paging.chain import random_chain, validate_chain


@pytest.fixture(autouse=True)
def fresh_alpha_cache():
    """Each test starts without a kept precedence table, so a guard test
    (a lowered ``CLAMP_TOL``, say) runs the solve instead of reading a table
    an earlier test left behind."""
    alpha_mod.clear_cache()
    yield
    alpha_mod.clear_cache()


@st.composite
def chain_specs(draw, n_min=2, n_max=6, floor=0.05):
    """Random validated chains, reproducible through the drawn seed."""
    n = draw(st.integers(min_value=n_min, max_value=n_max))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return random_chain(n, seed, floor=floor)


@pytest.fixture
def warmup_chain():
    from markov_paging.chain import build_lb_chain

    return build_lb_chain(0.1, 0.05)


def sparse_chain(n, seed, zero_frac):
    """Random chain with about ``zero_frac`` of its entries, and of ``init``'s,
    set to zero.

    Every row and ``init`` keep at least one positive entry; nothing else is
    promised, so the chain may be reducible and some joint states unreachable.
    """
    rng = np.random.default_rng(seed)
    m = rng.random((n + 1, n))
    m[rng.random((n + 1, n)) < zero_frac] = 0.0
    m[np.arange(n + 1), rng.integers(n, size=n + 1)] += 0.5
    m /= m.sum(axis=1, keepdims=True)
    return validate_chain(m[:n], init=m[n])


@st.composite
def sparse_chain_specs(draw, n_min=3, n_max=8):
    """Random chains, often with zero entries (see :func:`sparse_chain`)."""
    n = draw(st.integers(min_value=n_min, max_value=n_max))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return sparse_chain(n, seed, draw(st.sampled_from([0.0, 0.3, 0.7])))


def caches(n, k):
    """Sorted k-subsets of range(n), not only the rank-0 cache (0..k-1)."""
    return st.permutations(range(n)).map(lambda perm: tuple(sorted(perm[:k])))


# T in {0, 1, 2} and random horizons
horizons = st.one_of(st.sampled_from([0, 1, 2]), st.integers(min_value=3, max_value=12))


def corrupt_alpha_table():
    """n = 4 precedence table whose blocks for (cache (0, 2, 3), request 1)
    and (cache (1, 2, 3), request 0) are ``ones - eye``: no distribution keeps
    every column load at 1/2. Cache (0, 2, 3) has the lower subset rank."""
    from markov_paging.alpha import AlphaTable, alpha_table

    values = np.array(alpha_table(random_chain(4, 3)).values)
    for cache, s in (((0, 2, 3), 1), ((1, 2, 3), 0)):
        idx = np.array(cache)
        values[idx[:, None], idx[None, :], s] = np.ones((3, 3)) - np.eye(3)
    return AlphaTable(n=4, values=values)
