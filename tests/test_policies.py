import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from markov_paging import policies as policies_mod
from markov_paging.alpha import AlphaTable, SingularSystem, alpha_table
from markov_paging.chain import build_lb_chain, random_chain, validate_chain
from markov_paging.chain import sample_sequence
from markov_paging.engine import exact_cost, replay, simulate
from markov_paging.policies import (
    MEDIAN_CAP,
    DominatingPolicy,
    FarthestInFuture,
    FifoPolicy,
    Infeasible,
    LruPolicy,
    MedianPolicy,
    MissingContext,
    PinnedPolicy,
    RandomEvictionPolicy,
    _distributions,
    _draw,
    dominating_distribution,
    evict,
    median_index,
    parse_policy,
)
from markov_paging.optdp import subset_index
from markov_paging.simplex import solve_lp

from .conftest import chain_specs, corrupt_alpha_table, sparse_chain, sparse_chain_specs
from .oracles import loop_median_matrix, loop_solve_lp, oracle_median_cap, rollout_alpha, sorted_caches


def uniform_block(k):
    return np.full((k, k), 0.5) - 0.5 * np.eye(k)


def block_stack(table, cache, s):
    """The ``(1, k, k)`` stack of alpha(p<q|s) over ``cache``, in its order."""
    c = list(cache)
    return table.values[np.ix_(c, c, [s])][None, :, :, 0]


class TestDominatingDistribution:
    def test_uniform_block_gives_uniform_mu(self):
        k = 3
        mu = dominating_distribution(uniform_block(k)[None])[0]
        assert np.allclose(mu, 1 / k, atol=1e-12)
        load = (mu @ uniform_block(k)).max()
        assert load == pytest.approx((k - 1) / (2 * k), abs=1e-12)

    @pytest.mark.parametrize("eps", [0.3, 0.1, 1e-3])
    def test_warmup_feasible_interval(self, eps):
        ch = build_lb_chain(eps, eps / 2)
        mu = dominating_distribution(block_stack(alpha_table(ch), (0, 1), 2))[0]
        x = mu[0]
        lo = (3 * eps - 2) / (2 * eps)  # negative in this regime
        hi = (2 - eps) / (4 - 4 * eps)
        assert lo - 1e-12 <= x <= hi + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(chain_specs(n_min=3, n_max=6), st.integers(min_value=0, max_value=10**6))
    def test_random_instances_load_below_half(self, chain, pick):
        rng = np.random.default_rng(pick)
        k = int(rng.integers(2, min(4, chain.n)))
        cache = tuple(sorted(rng.choice(chain.n, size=k, replace=False).tolist()))
        s = int(rng.integers(chain.n))
        block = block_stack(alpha_table(chain), cache, s)
        mu = dominating_distribution(block)[0]
        assert (mu @ block[0]).max() <= 0.5 + 1e-9
        assert mu.sum() == pytest.approx(1.0, abs=1e-9)

    def test_corrupt_block_raises_infeasible(self):
        # every column load is 1 - mu(q) >= 2/3 under any mu: no admissible
        # distribution exists, which a genuine precedence block never allows
        block = np.ones((3, 3)) - np.eye(3)
        with pytest.raises(Infeasible):
            dominating_distribution(block[None])

    def test_diagonal_must_be_zero(self):
        with pytest.raises(ValueError, match="diagonal"):
            dominating_distribution(np.array([[[0.1, 0.5], [0.5, 0.0]]]))

    def test_single_block_is_not_a_stack(self):
        with pytest.raises(ValueError, match="stack"):
            dominating_distribution(uniform_block(3))

    def test_nan_entry_is_rejected(self):
        # a NaN fails the range check; it used to pass it and give [[0, 1]]
        with pytest.raises(ValueError, match=r"alpha_sub entries must lie in \[0, 1\]"):
            dominating_distribution(np.array([[[0.0, np.nan], [0.5, 0.0]]]))
        # a pinned table with one NaN entry: both rules refuse it when
        # building the eviction table of cache (0, 1), request 2
        chain = random_chain(4, 3)
        values = alpha_table(chain).values.copy()
        values[0, 1, 2] = np.nan
        table = AlphaTable(values)
        for policy in (DominatingPolicy(table), DominatingPolicy(table, target=0)):
            with pytest.raises(ValueError, match=r"alpha_sub entries must lie in \[0, 1\]"):
                exact_cost(policy, chain, 2, 10, (0, 1))


class TestAdversarialDominating:
    def test_warmup_upper_endpoint(self):
        for eps in (0.3, 0.1, 1e-3):
            ch = build_lb_chain(eps, eps / 2)
            mu = dominating_distribution(block_stack(alpha_table(ch), (0, 1), 2), 0)[0]
            assert mu[0] == pytest.approx((2 - eps) / (4 - 4 * eps), abs=1e-12)

    def test_general_split_formulas(self):
        eps, eps1 = 0.1, 0.05
        ch = build_lb_chain(eps, eps1)
        table = alpha_table(ch)
        mu01 = dominating_distribution(block_stack(table, (0, 1), 2), 0)[0]
        assert mu01[0] == pytest.approx((1 - eps + eps1) / (2 - 2 * eps), abs=1e-12)
        assert mu01[0] == pytest.approx(0.95 / 1.8)
        mu12 = dominating_distribution(block_stack(table, (1, 2), 0), 0)[0]  # page 1 is row 0
        assert mu12[0] == pytest.approx(eps / (2 * eps1), abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(chain_specs(n_min=3, n_max=5), st.integers(min_value=0, max_value=10**6))
    def test_constraint_replay(self, chain, pick):
        rng = np.random.default_rng(pick)
        k = int(rng.integers(2, min(4, chain.n)))
        cache = tuple(sorted(rng.choice(chain.n, size=k, replace=False).tolist()))
        ti = int(rng.integers(k))
        s = int(rng.integers(chain.n))
        block = block_stack(alpha_table(chain), cache, s)
        mu = dominating_distribution(block, ti)[0]
        assert (mu @ block[0]).max() <= 0.5 + 1e-9
        base = dominating_distribution(block)[0]
        assert mu[ti] >= base[ti] - 1e-9  # maximization dominates

    @pytest.mark.parametrize("target", [-1, 2, [0, 2]])
    def test_target_row_outside_the_block_rejected(self, target):
        with pytest.raises(ValueError, match=r"target row .* is not in 0\.\.1"):
            dominating_distribution(np.array([uniform_block(2)] * 2), target)


def test_claim_q_no_later_than_mu_draw():
    # For mu admissible and any resident q: Pr[q next requested no later than
    # a mu-drawn page] >= 1/2, estimated by rollouts.
    chain = random_chain(4, 5, floor=0.25)
    cache = (0, 1, 2)
    s = 3
    mu = dominating_distribution(block_stack(alpha_table(chain), cache, s))[0]
    trials = 30_000
    rng = np.random.default_rng(11)
    for q in cache:
        wins = 0.0
        draws = [_draw(cache, mu, rng) for _ in range(200)]
        for i, p in enumerate(draws):
            if p == q:
                wins += 1
                continue
            est, _ = rollout_alpha(chain, q, p, s, trials=trials // 200, seed=1000 + i)
            wins += est
        frac = wins / len(draws)
        se = np.sqrt(0.25 / trials) + np.sqrt(0.25 / len(draws))
        assert frac >= 0.5 - 3 * se


class TestMedian:
    def test_two_page_uniform_boundary(self):
        ch = validate_chain(np.full((2, 2), 0.5))
        assert median_index(ch, 100)[0, 1] == 1

    def test_four_page_uniform(self):
        ch = validate_chain(np.full((4, 4), 0.25))
        med = median_index(ch, 100)
        assert med[2, 1] == 3  # 1-(3/4)^t >= 1/2 first at t=3
        assert np.array_equal(med, 3.0 * (1.0 - np.eye(4)))

    def test_unreachable_page_is_infinite(self):
        ch = validate_chain([[0, 0, 0, 1]] * 4)
        med = median_index(ch, 500)
        assert med[3, 0] == math.inf
        assert med[0, 3] == 1

    def test_iid_chain_matches_perturbed_chain(self):
        row = np.array([0.55, 0.3, 0.1, 0.05])
        iid = validate_chain([row] * 4)
        wobble = np.array([row, row + [0.001, -0.001, 0, 0], row, row])
        wobble /= wobble.sum(axis=1, keepdims=True)
        near = validate_chain(wobble)
        assert np.array_equal(median_index(iid, 4096)[0], median_index(near, 4096)[0])

    def test_doubling_matches_iteration(self):
        # cap 6000 lifts through 2^12; the loop steps every s one at a time
        ch = random_chain(4, 21, floor=0.001)
        target = 2
        q = np.array(ch.transition)
        q[:, target] = 0.0
        g = np.ones(4)
        expected = np.full(4, math.inf)
        for t in range(1, 6001):
            g = q @ g
            expected[(g <= 0.5) & np.isinf(expected)] = t
        expected[target] = 0.0
        assert np.array_equal(median_index(ch, 6000)[:, target], expected)

    @settings(max_examples=20, deadline=None)
    @given(chain_specs(n_min=2, n_max=5), st.integers(min_value=1, max_value=40))
    def test_monotone_in_cap(self, chain, cap):
        m = median_index(chain, cap)
        bigger = median_index(chain, cap + 25)
        finite = np.isfinite(m)
        assert np.array_equal(bigger[finite], m[finite])
        assert np.all(bigger[~finite] > cap)

    @settings(max_examples=25, deadline=None)
    @given(st.one_of(chain_specs(), chain_specs(floor=0.001), sparse_chain_specs()))
    def test_matches_loop_oracle(self, chain):
        # floor 0.001 gives caps above 4096, where the oracle doubles
        cap = oracle_median_cap(chain)
        assert np.array_equal(median_index(chain, cap), loop_median_matrix(chain, cap))

    @pytest.mark.parametrize("eps,eps1", [(0.1, 0.05), (1e-4, 0.5e-4), (1e-5, 0.7069e-5)])
    def test_lb_chain_matches_loop_oracle(self, eps, eps1):
        chain = build_lb_chain(eps, eps1)
        cap = oracle_median_cap(chain)
        assert np.array_equal(median_index(chain, cap), loop_median_matrix(chain, cap))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_uniform_chain_matches_loop_oracle(self, n):
        chain = validate_chain(np.full((n, n), 1.0 / n))
        cap = oracle_median_cap(chain)
        assert np.array_equal(median_index(chain, cap), loop_median_matrix(chain, cap))

    def test_median_policy_tie_breaks_low_index(self):
        ch = validate_chain([[0, 0, 0, 1]] * 4)  # pages 1,2 unreachable: both inf
        assert replay(MedianPolicy(), ch, 2, np.array([3]), (1, 2), 0) == [1]

    def test_reachable_page_past_4096_steps_is_finite(self):
        # page 2 is reachable with probability 1e-4 per step, and one entry is
        # 0; its median (about ln 2 / 1e-4 steps) must not read as unreachable
        ch = validate_chain([[0.5, 0.5 - 1e-4, 1e-4], [0.5, 0.5 - 1e-4, 1e-4], [0.5, 0.5, 0.0]])
        med = median_index(ch, MEDIAN_CAP)
        assert med[0, 2] == med[1, 2] == 6932
        # with a page 3 that no other page reaches, the rule keeps page 2
        ch = validate_chain([[0.5, 0.5 - 1e-4, 1e-4, 0.0]] * 2 + [[0.5, 0.5, 0.0, 0.0], [0.25] * 4])
        assert replay(MedianPolicy(), ch, 2, np.array([0]), (2, 3), 0) == [3]

    def test_page_reached_with_probability_below_half_stays_infinite(self):
        # from page 5 the chain reaches page 6 with probability 0.42 only, so
        # the median is inf; the stored rows sum to 1 within an ulp, and at a
        # cap of 2^52 that rounding alone drove the survival below 1/2
        ch = sparse_chain(7, [46, 5], 0.7)
        assert median_index(ch, MEDIAN_CAP)[5, 6] == math.inf


class TestPolicyZoo:
    def test_fif_spec_example(self):
        seq = np.array([2, 0, 1, 2])
        pol = FarthestInFuture()
        pol.reset(seq)
        assert pol.evict((0, 1), 2, 1) == 1

    def test_fif_without_sequence_raises(self):
        pol = FarthestInFuture()
        with pytest.raises(MissingContext):
            pol.reset(None)

    def test_lru_prefers_stalest(self):
        assert replay(LruPolicy(), None, 2, np.array([0, 1, 2]), (0, 1), 0) == [0]

    def test_fifo_order(self):
        # the hit on 3 does not move it, so 2 evicts it (LRU would evict 0)
        assert replay(FifoPolicy(), None, 2, np.array([0, 3, 2]), (3, 1), 0) == [1, 3]

    def test_pinned_policy(self):
        assert replay(PinnedPolicy({0}), random_chain(3, 1), 2, np.array([2]), (0, 1), 0) == [1]

    def test_pinned_table_rejects_fully_pinned_cache(self):
        chain = random_chain(4, 1)
        pol = PinnedPolicy({1, 3})
        assert pol.kernel_probs(subset_index(4, 3), chain)[0, 3].tolist() == [1.0, 0.0, 0.0]
        # cache (1, 3) has no unpinned page to evict
        with pytest.raises(RuntimeError, match="all resident pages are pinned"):
            pol.kernel_probs(subset_index(4, 2), chain)
        # so a replay with k = 2 fails before its first request
        with pytest.raises(RuntimeError, match="all resident pages are pinned"):
            replay(pol, chain, 2, sample_sequence(chain, 5, 0), (0, 1), 0, T=0)

    @pytest.mark.parametrize("pinned,page", [({4}, 4), ({0, -1}, -1), ({1, 9, 7}, 7)])
    def test_pinned_page_outside_chain_rejected(self, pinned, page):
        chain = random_chain(4, 1)
        pol = PinnedPolicy(pinned)
        with pytest.raises(ValueError, match=rf"pinned page {page} is not among the chain's pages 0\.\.3"):
            pol.kernel_probs(subset_index(4, 2), chain)
        with pytest.raises(ValueError, match=f"pinned page {page} "):
            replay(pol, chain, 2, sample_sequence(chain, 5, 0), (0, 1), 0, T=0)

    @pytest.mark.parametrize("target", [4, 7, -1])
    def test_adversarial_target_outside_chain_rejected(self, target):
        chain = random_chain(4, 1)
        message = rf"target page {target} is not among the chain's pages 0\.\.3"
        for table, given in ((None, chain), (alpha_table(chain), None)):  # n from idx.n when pinned
            pol = DominatingPolicy(table, target=target)
            with pytest.raises(ValueError, match=message):
                pol.kernel_probs(subset_index(4, 2), given)
        with pytest.raises(ValueError, match=message):
            replay(parse_policy(f"dominating-adversarial:{target}"), chain, 2, sample_sequence(chain, 5, 0), (0, 1), 0, T=0)
        assert DominatingPolicy(target=3).kernel_probs(subset_index(4, 2), chain).shape == (6, 4, 2)

    def test_table_rules_need_a_chain(self):
        idx = subset_index(4, 2)
        with pytest.raises(MissingContext):
            DominatingPolicy().kernel_probs(idx, None)
        for make in (DominatingPolicy, MedianPolicy, lambda: PinnedPolicy({0})):
            with pytest.raises(MissingContext, match="needs the chain"):
                replay(make(), None, 2, np.array([2]), (0, 1), 0, T=0)

    def test_dominating_seeded_reproducibility(self):
        ch = random_chain(4, 3)
        table = alpha_table(ch)
        pol = DominatingPolicy(table=table)
        seq = sample_sequence(ch, 40, 1)
        picks = replay(pol, ch, 2, seq, (0, 1), 9)
        assert len(picks) > 5
        assert replay(pol, ch, 2, seq, (0, 1), 9) == replay(DominatingPolicy(table=table), ch, 2, seq, (0, 1), 9) == picks

    @settings(max_examples=30, deadline=None)
    @given(chain_specs(n_min=3, n_max=5), st.integers(min_value=0, max_value=10**6))
    def test_evicted_page_always_resident(self, chain, pick):
        rng = np.random.default_rng(pick)
        k = 2
        cache = tuple(sorted(rng.choice(chain.n, size=k, replace=False).tolist()))
        outside = [p for p in range(chain.n) if p not in cache]
        requested = int(outside[rng.integers(len(outside))])
        table = alpha_table(chain)
        for pol in (
            DominatingPolicy(table=table),
            DominatingPolicy(table, target=0),
            MedianPolicy(),
            RandomEvictionPolicy(),
        ):
            (victim,) = replay(pol, chain, k, np.array([requested]), cache, pick)
            assert victim in cache

    def test_evict_rejects_resident_request(self):
        pol = FarthestInFuture()
        with pytest.raises(ValueError, match="page 1 is already resident"):
            evict(pol, (0, 1), 1, 1)

    def test_parse_policy_names(self):
        assert parse_policy("dominating").name == "dominating"
        assert parse_policy("dominating-adversarial:3").target == 3
        assert parse_policy("median").name == "median"
        for name in ("fif", "lru", "fifo", "random"):
            assert parse_policy(name).name == name
        with pytest.raises(ValueError):
            parse_policy("belady-prime")

    def test_adversarial_rule_is_a_dominating_target(self):
        adversarial = parse_policy("dominating-adversarial:3")
        assert type(adversarial) is DominatingPolicy
        assert (adversarial.name, adversarial.target) == ("dominating-adversarial:3", 3)
        assert (DominatingPolicy.name, parse_policy("dominating").target) == ("dominating", None)


class FixedDraws:
    """Stands in for ``st.data()`` in an explicit example: each draw gives
    the value stored under its label."""

    def __init__(self, **values):
        self.values = values

    def draw(self, strategy, label):
        return self.values[label]


# A sparse chain whose k = 5 dominating LP for cache (0, 1, 2, 3, 4), request
# 5 once took a pivot of 2.1e-11 and gave x summing to 1.000297.
SMALL_PIVOT_CHAIN = sparse_chain(7, 22050, 0.7)


class TestTableRules:
    """A memoryless rule's table is its only statement of choice."""

    @settings(max_examples=30, deadline=None)
    @given(sparse_chain_specs(n_min=3, n_max=7), st.data())
    @example(SMALL_PIVOT_CHAIN, FixedDraws(k=5, pinned=set(), target=0, seed=0))
    def test_evict_draws_from_the_kernel_row(self, chain, data):
        k = data.draw(st.integers(min_value=1, max_value=chain.n - 1), label="k")
        pinned = data.draw(st.sets(st.integers(min_value=0, max_value=chain.n - 1), max_size=k - 1), label="pinned")
        target = data.draw(st.integers(min_value=0, max_value=chain.n - 1), label="target")
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1), label="seed")
        rules = [MedianPolicy(), PinnedPolicy(pinned), RandomEvictionPolicy()]
        try:
            alpha_table(chain)
            rules += [DominatingPolicy(), DominatingPolicy(target=target)]
        except SingularSystem:
            pass  # the dominating rules are undefined on this chain
        idx = subset_index(chain.n, k)
        subsets, _ = sorted_caches(chain.n, k)
        for pol in rules:
            probs = pol.kernel_probs(idx, chain)
            for r, j in zip(*np.nonzero(~idx.member)):
                cache = subsets[r]
                got = replay(pol, chain, k, np.array([j]), cache, [seed, r, j])
                assert got == [_draw(cache, probs[r, j], np.random.default_rng([seed, r, j]))], (pol.name, cache, j)


class FixedUniform:
    """Stands in for a generator whose next ``random()`` is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_draw_matches_numpy_cumsum_search():
    """``_draw``'s Python running sum and bisection pick the page that
    ``searchsorted(np.cumsum(row), u, side="right")`` picks, on rows with
    zeros and on uniforms equal to a cumulative entry or one ulp either side."""
    rng = np.random.default_rng(19)
    for _ in range(2000):
        k = int(rng.integers(1, 7))
        row = rng.random(k)
        row[rng.random(k) < 0.4] = 0.0
        row[rng.integers(k)] += 0.1
        row = _distributions(row / row.sum())
        cum = np.cumsum(row)
        pages = tuple(sorted(rng.choice(12, size=k, replace=False).tolist()))
        for c in cum.tolist() + [0.0, float(rng.random())]:
            for u in (np.nextafter(c, -1.0), c, np.nextafter(c, 2.0)):
                if not 0.0 <= u < 1.0:
                    continue
                want = pages[min(int(np.searchsorted(cum, u, side="right")), k - 1)]
                assert _draw(pages, row, FixedUniform(float(u))) == want, (row, u)


class TestEvictionDistribution:
    """An eviction distribution row as ``_distributions`` checks it."""

    def test_tiny_negative_clamped(self):
        d = _distributions(np.array([1.0 + 1e-13, -1e-13]))
        assert d[1] == 0.0

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            _distributions(np.array([0.7, 0.2]))

    def test_large_negative_rejected(self):
        with pytest.raises(ValueError):
            _distributions(np.array([1.1, -0.1]))

    def test_messages_print_plain_floats(self):
        """The value is a float's repr, not numpy 2's ``np.float64(...)``."""
        with pytest.raises(ValueError, match=r"^negative probability -0\.1$"):
            _distributions(np.array([1.1, -0.1]))
        with pytest.raises(ValueError, match=r"^probabilities sum to 0\.8999999999999999$"):
            _distributions(np.array([0.7, 0.2]))

    def test_nan_row_rejected(self):
        with pytest.raises(ValueError, match=r"^probabilities sum to nan$"):
            _distributions(np.array([[0.5, 0.5], [np.nan, 1.0]]))


def test_small_pivot_lp_keeps_its_equality_row():
    cache = np.array([0, 1, 2, 3, 4])
    a = alpha_table(SMALL_PIVOT_CHAIN).values[cache[:, None], cache[None, :], 5]
    x = _assert_stack_matches_loop(_dominating_lp(a[None]))[0]
    assert abs(x[:5].sum() - 1.0) <= 1e-12
    mu = dominating_distribution(a[None])[0]
    assert abs(mu.sum() - 1.0) <= 1e-12
    assert abs((mu @ a).max() - 0.0128557870) <= 1e-9


def _miss_blocks(table, k):
    """Every (cache, request not in cache) block, in cache-rank, then request,
    order, as ``(idx, caches, rank, req, blocks)``; the caches and ranks come
    from ``itertools.combinations``, not from the subset index ``idx``."""
    caches, _ = sorted_caches(table.n, k)
    rank, req = np.array([(r, j) for r, cache in enumerate(caches) for j in range(table.n) if j not in cache]).T
    blocks = np.concatenate([block_stack(table, caches[r], j) for r, j in zip(rank, req)])
    return subset_index(table.n, k), caches, rank, req, blocks


def _dominating_lp(a):
    """The min-max LP of ``dominating_distribution`` for each block of ``a``."""
    B, k = a.shape[:2]
    c = np.zeros((B, k + 1))
    c[:, k] = 1.0
    a_ub = np.concatenate([a.transpose(0, 2, 1), np.full((B, k, 1), -1.0)], axis=2)
    return c, a_ub, np.zeros(k), k


def _adversarial_lp(a, slots):
    """The LP of ``dominating_distribution`` with the target in row ``slots[i]``."""
    B, k = a.shape[:2]
    c = np.zeros((B, k))
    c[np.arange(B), slots] = -1.0
    return c, a.transpose(0, 2, 1), np.full(k, 0.5), k


def _assert_stack_matches_loop(lp):
    """The stacked solve equals the one-LP loop, which takes the prefix
    ``x[:p].sum() == 1`` as its one equality row."""
    c, a_ub, b_ub, p = lp
    x, val = solve_lp(c, a_ub, b_ub, p)
    a_eq = [np.where(np.arange(c.shape[1]) < p, 1.0, 0.0)]
    for i in range(len(c)):
        ref_x, ref_val = loop_solve_lp(c[i], a_ub=a_ub[i], b_ub=b_ub, a_eq=a_eq, b_eq=[1.0])
        assert np.array_equal(x[i], ref_x) and val[i] == ref_val, i
    return x


class TestStackedTables:
    @settings(max_examples=30, deadline=None)
    @given(sparse_chain_specs(n_min=3, n_max=8), st.data())
    def test_tables_match_loop_oracle(self, chain, data):
        try:
            table = alpha_table(chain)
        except SingularSystem:
            assume(False)
        k = data.draw(st.integers(min_value=1, max_value=chain.n - 1), label="k")
        target = data.draw(st.integers(min_value=0, max_value=chain.n - 1), label="target")
        idx, caches, rank, req, blocks = _miss_blocks(table, k)
        pages = np.array(caches)[rank]
        slots = np.where((pages == target).any(axis=1), (pages == target).argmax(axis=1), 0)
        x_dom = _assert_stack_matches_loop(_dominating_lp(blocks))[:, :k]
        x_adv = _assert_stack_matches_loop(_adversarial_lp(blocks, slots))
        for pol, x in ((DominatingPolicy(table), x_dom), (DominatingPolicy(table, target=target), x_adv)):
            probs = pol.kernel_probs(idx, chain)
            assert probs.shape == (len(idx), chain.n, k) and not probs.flags.writeable
            assert np.array_equal(probs[rank, req], np.where(x < 0.0, 0.0, x))
            assert not probs[idx.member].any()

    def test_stack_rows_equal_single_blocks(self):
        table = alpha_table(random_chain(5, 8))
        blocks = _miss_blocks(table, 3)[-1]
        stacked = dominating_distribution(blocks)
        assert stacked.shape == (len(blocks), 3) and not stacked.flags.writeable
        rows = np.arange(len(blocks)) % 3  # one target row per block
        adv = dominating_distribution(blocks, rows)
        for i in range(len(blocks)):
            assert np.array_equal(stacked[i], dominating_distribution(blocks[i : i + 1])[0])
            assert np.array_equal(adv[i], dominating_distribution(blocks[i : i + 1], rows[i])[0])

    def test_one_solve_per_chain_and_k(self, monkeypatch):
        calls = []
        real = policies_mod.dominating_distribution

        def counting(alpha_sub, target=None):
            calls.append(np.shape(alpha_sub))
            return real(alpha_sub, target)

        monkeypatch.setattr(policies_mod, "dominating_distribution", counting)
        chain = random_chain(6, 2)
        first = DominatingPolicy().kernel_probs(subset_index(6, 3), chain)
        assert DominatingPolicy().kernel_probs(subset_index(6, 3), chain) is first  # fresh policy, kept table
        assert calls == [(20 * 3, 3, 3)]
        DominatingPolicy().kernel_probs(subset_index(6, 2), chain)
        assert calls[1:] == [(15 * 4, 2, 2)]

    def test_evict_draws_as_the_single_block_distribution(self):
        chain = random_chain(5, 4)
        table = alpha_table(chain)
        _, caches, rank, req, blocks = _miss_blocks(table, 2)
        for pol, single in (
            (DominatingPolicy(table), lambda b, c: dominating_distribution(b)[0]),
            (DominatingPolicy(table, target=3), lambda b, c: dominating_distribution(b, c.index(3) if 3 in c else 0)[0]),
        ):
            for i, (r, j) in enumerate(zip(rank, req)):
                cache = caches[r]
                got = [replay(pol, chain, 2, np.array([j]), cache, [i, t])[0] for t in range(8)]
                mu = single(blocks[i : i + 1], cache)
                want = [_draw(cache, mu, np.random.default_rng([i, t])) for t in range(8)]
                assert got == want

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_chunked_solve_equals_unchunked(self, block, monkeypatch):
        chain = random_chain(7, 1)
        table = alpha_table(chain)
        idx = subset_index(7, 3)
        whole = [DominatingPolicy(table).kernel_probs(idx, None),
                 DominatingPolicy(table, target=2).kernel_probs(idx, None)]
        monkeypatch.setattr(policies_mod, "LP_BLOCK", block)
        stacks = []
        real = policies_mod.solve_lp

        def counting(c, a_ub, *rest):
            stacks.append(len(a_ub))
            return real(c, a_ub, *rest)

        monkeypatch.setattr(policies_mod, "solve_lp", counting)
        # a pinned table is solved on each call, so the chunked solve runs
        fresh = AlphaTable(table.values.copy())
        parts = [DominatingPolicy(fresh).kernel_probs(idx, None),
                 DominatingPolicy(fresh, target=2).kernel_probs(idx, None)]
        lps = math.comb(7, 3) * (7 - 3)
        assert stacks == 2 * ([block] * (lps // block) + ([lps % block] if lps % block else []))
        for a, b in zip(whole, parts):
            assert np.array_equal(a, b) and not b.flags.writeable

    @pytest.mark.parametrize("block", [1, 4096])
    def test_infeasible_names_first_pair(self, block, monkeypatch):
        monkeypatch.setattr(policies_mod, "LP_BLOCK", block)
        table = corrupt_alpha_table()
        idx = subset_index(4, 3)
        with pytest.raises(Infeasible) as err:
            DominatingPolicy(table).kernel_probs(idx, None)
        assert (err.value.cache, err.value.requested, err.value.target) == ((0, 2, 3), 1, None)
        assert str(err.value).startswith("cache (0, 2, 3), request 1: ")
        with pytest.raises(Infeasible) as err:
            DominatingPolicy(table, target=1).kernel_probs(idx, None)
        # page 1 is not resident in (0, 2, 3), so the lowest page stands in
        assert (err.value.cache, err.value.requested, err.value.target) == ((0, 2, 3), 1, 0)
        assert str(err.value).startswith("cache (0, 2, 3), request 1, target 0: ")

    @pytest.mark.parametrize("table_n", [3, 5])
    def test_pinned_table_of_another_size_is_rejected(self, table_n):
        # a 5-page table once ran on a 4-page chain, its rows read as 4-page
        # cells; a 3-page one failed with an IndexError
        table = alpha_table(random_chain(table_n, 1))
        chain = random_chain(4, 2)
        runs = (lambda pol: simulate(pol, chain, 2, 10, (0, 1), 10, 1), lambda pol: exact_cost(pol, chain, 2, 10, (0, 1)))
        for run in runs:
            for pol in (DominatingPolicy(table), DominatingPolicy(table, target=0)):
                with pytest.raises(ValueError, match=f"pinned precedence table has {table_n} pages, the chain has 4"):
                    run(pol)


class TestStackGuards:
    """Each guard of the stacked solve rejects a bad LP of the stack on its own."""

    @pytest.mark.parametrize("where,value", [((2, 1, 1), 0.25), ((1, 0, 2), 1.5), ((3, 2, 0), -0.1)])
    def test_block_check_runs_on_every_block(self, where, value):
        blocks = np.array([uniform_block(3)] * 4)
        blocks[where] = value
        for solve in (dominating_distribution, lambda a: dominating_distribution(a, 0)):
            with pytest.raises(ValueError):
                solve(blocks)

    @staticmethod
    def _fake_solve(monkeypatch, edit):
        """``solve_lp`` as seen by the policies, with ``edit(x, value)`` applied."""

        def fake(*args, **kwargs):
            x, val = solve_lp(*args, **kwargs)
            x, val = x.copy(), val.copy()
            edit(x, val)
            return x, val

        monkeypatch.setattr(policies_mod, "solve_lp", fake)

    def test_value_above_half_rejected(self, monkeypatch):
        self._fake_solve(monkeypatch, lambda x, val: val.__setitem__(2, 0.6))
        with pytest.raises(Infeasible, match="min-max load 0.6") as err:
            dominating_distribution(np.array([uniform_block(3)] * 4))
        assert err.value.index == 2

    def test_replay_rejects_overloaded_column(self, monkeypatch):
        # all mass on page 0 loads column 1 with 0.9; the reported value stays 0.45
        blocks = np.array([[[0.0, 0.1], [0.1, 0.0]]] * 2 + [[[0.0, 0.9], [0.1, 0.0]]])

        def concentrate(x, val):
            x[2, :2] = [1.0, 0.0]

        self._fake_solve(monkeypatch, concentrate)
        for solve in (dominating_distribution, lambda a: dominating_distribution(a, 1)):
            with pytest.raises(Infeasible, match="column load 0.9") as err:
                solve(blocks)
            assert err.value.index == 2

    def test_roundoff_negatives_clipped_in_stack(self, monkeypatch):
        def nudge(x, val):
            x[1, :3] = [0.5 + 1e-13, 0.5, -1e-13]

        self._fake_solve(monkeypatch, nudge)
        probs = dominating_distribution(np.array([uniform_block(3)] * 3))
        assert probs[1, 2] == 0.0 and probs[1, 0] == 0.5 + 1e-13

    def test_nan_solution_rejected(self, monkeypatch):
        """A NaN in an LP's x, as an overflow in the tableau would give,
        fails the replay check of both rules, and a NaN value the min-max
        rule's value check."""
        blocks = np.array([uniform_block(3)] * 3)
        self._fake_solve(monkeypatch, lambda x, val: x.__setitem__((1, 0), np.nan))
        for solve in (dominating_distribution, lambda a: dominating_distribution(a, 0)):
            with pytest.raises(Infeasible, match="column load nan") as err:
                solve(blocks)
            assert err.value.index == 1
        self._fake_solve(monkeypatch, lambda x, val: val.__setitem__(2, np.nan))
        with pytest.raises(Infeasible, match="min-max load nan") as err:
            dominating_distribution(blocks)
        assert err.value.index == 2

    @pytest.mark.parametrize("row", [[0.7, 0.2, 0.0], [1.1, 0.0, -0.1]])
    def test_rows_must_be_distributions(self, row, monkeypatch):
        # zero blocks load no column, so the replay check passes any row
        self._fake_solve(monkeypatch, lambda x, val: x[:, :3].__setitem__(2, row))
        with pytest.raises(ValueError, match="probabilit"):
            dominating_distribution(np.zeros((3, 3, 3)))
