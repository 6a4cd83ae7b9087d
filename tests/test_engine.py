import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_paging import engine
from markov_paging.alpha import SingularSystem, alpha_table
from markov_paging.chain import build_lb_chain, chain_hash, random_chain, sample_sequence, sample_trials, validate_chain
from markov_paging.engine import (
    NonMemoryless,
    ReportRow,
    _scatter,
    build_kernel,
    exact_cost,
    joint_operator,
    ratio_report,
    replay,
    report_csv_lines,
    simulate,
    trial_misses,
)
from markov_paging.lowerbound import LBParams, closed_form_costs, geometric_sum
from markov_paging.optdp import BudgetExceeded, opt_expected_cost, subset_index
from markov_paging.policies import (
    AdversarialDominatingPolicy,
    DominatingPolicy,
    FarthestInFuture,
    FifoPolicy,
    LruPolicy,
    MedianPolicy,
    OptReplayPolicy,
    PinnedPolicy,
    RandomEvictionPolicy,
    _stamped_misses,
    parse_policy,
)

from .conftest import caches, chain_specs, horizons, sparse_chain, sparse_chain_specs
from .oracles import (
    loop_exact_cost,
    loop_kernel_probs,
    loop_simulate_generic,
    loop_simulate_kernel,
    ordered_exact_cost,
    sorted_caches,
    successor,
)


def test_reused_dominating_policy_follows_each_chain():
    # one unpinned policy costs chain a (also inside an audit) and then chain
    # b; b must cost what a fresh policy gives, not a's eviction table
    from markov_paging.audit import run_audit

    a, b = random_chain(4, 1), random_chain(4, 2)
    pol = DominatingPolicy()
    exact_cost(pol, a, 2, 30, (0, 1))
    run_audit(sample_sequence(a, 20, 0), pol, LruPolicy(), 2, (0, 1), "updated", 0, 20, chain=a)
    fresh = exact_cost(DominatingPolicy(), b, 2, 30, (0, 1)).mean
    assert exact_cost(pol, b, 2, 30, (0, 1)).mean == fresh
    assert simulate(pol, b, 2, 30, (0, 1), 200, 5) == simulate(DominatingPolicy(), b, 2, 30, (0, 1), 200, 5)


def test_no_misses_when_requests_stay_resident():
    ch = validate_chain([[1.0, 0.0], [1.0, 0.0]], init=[1.0, 0.0])
    est = simulate(DominatingPolicy(), ch, 1, 50, (0,), trials=20, seed=1)
    assert est.mean == 0.0 and est.half_width == 0.0
    est2 = simulate(LruPolicy(), ch, 1, 50, (0,), trials=5, seed=1)
    assert est2.mean == 0.0


def test_kernel_request_on_a_cumulative_entry_is_the_next_page():
    """The kernel path, as ``sample_sequence``, reads a uniform equal to a
    cumulative entry as lying past it. With one trial whose first request
    (page 0) hits, the stream's second uniform draws the second request; both
    rows are built from it (at least 1/2, so the row sums to 1 exactly)."""
    seed = 1
    u = np.random.default_rng((seed,)).random(2)
    assert u[1] >= 0.5
    ch = validate_chain([[u[1], 1 - u[1]]] * 2, init=[1.0, 0.0])
    assert ch.transition[0, 0] == u[1]
    assert trial_misses([(RandomEvictionPolicy(), seed)], ch, 1, 2, (0,), 1).tolist() == [[1]]


def test_pinned_reference_rate_on_warmup_chain():
    eps, T = 0.1, 1000
    ch = build_lb_chain(eps, eps / 2)
    est = simulate(PinnedPolicy({0}), ch, 2, T, (0, 1), trials=4000, seed=3)
    assert abs(est.mean - eps * T / 2) <= 3 * est.half_width / 1.96 * 3  # ~4.6 sd


def test_exact_single_step_miss_probability():
    ch = build_lb_chain(0.1, 0.05)
    est = exact_cost(AdversarialDominatingPolicy(0), ch, 2, 1, (0, 1))
    assert est.mode == "exact" and est.trials == 0 and est.half_width == 0.0
    assert est.mean == pytest.approx(0.05, abs=1e-15)  # only page 2 misses


def test_exact_matches_closed_form_stress_instance():
    params = LBParams(1e-3, 0.5e-3, 2000)
    cost_dom, _ = closed_form_costs(params)
    ch = build_lb_chain(params.eps, params.eps1)
    est = exact_cost(AdversarialDominatingPolicy(0), ch, 2, params.T, (0, 1))
    assert est.mean == pytest.approx(cost_dom, abs=1e-10)


def test_simulate_agrees_with_exact_on_memoryless_battery():
    rng = np.random.default_rng(0)
    for trial in range(4):
        ch = random_chain(4, int(rng.integers(10**6)), floor=0.1)
        for pol in (DominatingPolicy(), MedianPolicy(), RandomEvictionPolicy()):
            exact = exact_cost(pol, ch, 2, 10, (0, 1)).mean
            mc = simulate(pol, ch, 2, 10, (0, 1), trials=4000, seed=trial)
            sd = mc.half_width / 1.96
            assert abs(mc.mean - exact) <= 4.5 * max(sd, 1e-9)


def test_history_dependent_policies_rejected_by_exact():
    ch = random_chain(3, 1)
    for pol in (FarthestInFuture(), LruPolicy()):
        with pytest.raises(NonMemoryless):
            exact_cost(pol, ch, 2, 5, (0, 1))
        with pytest.raises(NonMemoryless):
            joint_operator(pol, ch, 2, (0, 1))


def test_kernel_none_for_history_dependent():
    # rules without a kernel never read a subset index, so none is built for them
    subset_index.cache_clear()
    ch = random_chain(6, 3)
    assert build_kernel(FarthestInFuture(), ch, 2) is None
    for pol in (LruPolicy(), FifoPolicy()):
        trial_misses([(pol, 1)], ch, 3, 20, (0, 1, 2), 5)
    assert subset_index.cache_info().currsize == 0
    assert build_kernel(DominatingPolicy(), ch, 2) is not None


@pytest.mark.parametrize("make", [DominatingPolicy, LruPolicy])
def test_one_trial_has_an_unbounded_interval(make):
    # one sample gives no variance estimate, on the kernel and batched paths alike
    est = simulate(make(), random_chain(4, 2), 2, 10, (0, 1), trials=1, seed=1)
    assert est.trials == 1 and est.half_width == float("inf")
    (row,) = ratio_report(random_chain(4, 2), 2, 10, [make()], "opt-dp", 1, 1, (0, 1))
    assert row.ratio_low == 0.0 and row.ratio_high == float("inf")


def memoryless_rules(k):
    """One fresh policy of every memoryless rule; page 0 is pinned only when
    another page fits beside it."""
    rules = [DominatingPolicy(), AdversarialDominatingPolicy(0), MedianPolicy(), RandomEvictionPolicy()]
    return rules + [PinnedPolicy([0])] * (k > 1)


def _doubled_cost(policy, chain, k, T, init):
    R, miss, first = joint_operator(policy, chain, k, init)
    return float(miss @ geometric_sum(R, T) @ first)


@settings(max_examples=20, deadline=None)
@given(chain_specs(n_min=3, n_max=6), st.data())
def test_joint_operator_columns_sum_to_one(chain, data):
    k = data.draw(st.integers(min_value=1, max_value=chain.n - 1))
    init = data.draw(caches(chain.n, k))
    for policy in memoryless_rules(k):
        R, miss, first = joint_operator(policy, chain, k, init)
        assert R.shape == (len(subset_index(chain.n, k)) * chain.n,) * 2 and miss.shape == first.shape == R.shape[:1]
        assert np.allclose(R.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)
        # the first request's mass: the chain's init on cache init's row
        rows, r = first.reshape(-1, chain.n), subset_index(chain.n, k).rank[init]
        assert np.array_equal(rows[r], chain.init) and not np.delete(rows, r, axis=0).any()


@settings(max_examples=20, deadline=None)
@given(chain_specs(n_min=3, n_max=6), st.integers(min_value=1, max_value=200), st.data())
def test_doubled_operator_matches_stepping(chain, T, data):
    k = data.draw(st.integers(min_value=1, max_value=chain.n - 1))
    init = data.draw(caches(chain.n, k))
    for policy in memoryless_rules(k):
        want = exact_cost(policy, chain, k, T, init).mean
        assert _doubled_cost(policy, chain, k, T, init) == pytest.approx(want, rel=1e-12, abs=0.0), policy.name


def test_scatter_entries_follow_succ_in_cache_page_slot_order():
    """``_scatter`` reads the index's slot-major ``cells``, yet gives, entry
    for entry in (cache, page, slot) order (the order ``np.bincount`` sums
    in), the ``(target, weight)`` of caches from ``itertools.combinations``
    and successors from sets: a miss on j that evicts slot e of cache r goes
    to (the successor's rank, j) with the rule's weight, a hit stays in
    (r, j) with weight 1 in slot 0."""
    battery = [(build_lb_chain(0.1, 0.07069), 2), (build_lb_chain(0.3, 0.2), 2)]
    battery += [(random_chain(n, [8300, n], floor=f), k) for n in range(3, 8) for k in range(1, n) for f in (0.0, 0.3)]
    for chain, k in battery:
        idx = subset_index(chain.n, k)
        n = chain.n
        subsets, rank = sorted_caches(n, k)
        hit = np.array([[j in cache for j in range(n)] for cache in subsets])[:, :, None]
        want_target = [
            r * n + j if j in cache else rank[successor(cache, p, j)] * n + j
            for r, cache in enumerate(subsets) for j in range(n) for p in cache
        ]
        for policy in memoryless_rules(k):
            probs = build_kernel(policy, chain, k)
            want_weight = np.where(hit, np.arange(k) == 0, probs)
            target, weight = _scatter(idx, probs)
            assert np.array_equal(target, want_target), (policy.name, n, k)
            assert np.array_equal(weight, want_weight) and weight.dtype == want_weight.dtype, (policy.name, n, k)


def test_exact_cost_budget():
    # 3 caches of 2 of 3 pages times 3 last pages is 9 state-steps per request
    T = 10**8 // 9 + 1
    with pytest.raises(BudgetExceeded, match="needs 100000008 state-steps, budget is 100000000"):
        exact_cost(RandomEvictionPolicy(), random_chain(3, 1), 2, T, (0, 1))


def test_joint_operator_budget():
    # 924 caches of 6 of 12 pages: (924 * 12)**2 entries exceed the default budget
    with pytest.raises(BudgetExceeded):
        joint_operator(RandomEvictionPolicy(), random_chain(12, 1), 6, tuple(range(6)))


def test_budgets_refuse_before_the_scatter(monkeypatch):
    def scatter(idx, probs):
        raise AssertionError("scatter built past the budget")

    monkeypatch.setattr(engine, "_scatter", scatter)
    with pytest.raises(BudgetExceeded, match="needs 100000008 state-steps"):
        exact_cost(RandomEvictionPolicy(), random_chain(3, 1), 2, 10**8 // 9 + 1, (0, 1))
    with pytest.raises(BudgetExceeded):
        joint_operator(RandomEvictionPolicy(), random_chain(12, 1), 6, tuple(range(6)))


def test_simulate_deterministic_given_seed():
    ch = random_chain(4, 4)
    a = simulate(DominatingPolicy(), ch, 2, 30, (0, 1), trials=500, seed=9)
    b = simulate(DominatingPolicy(), ch, 2, 30, (0, 1), trials=500, seed=9)
    assert a == b
    c = simulate(FarthestInFuture(), ch, 2, 30, (0, 1), trials=50, seed=9)
    d = simulate(FarthestInFuture(), ch, 2, 30, (0, 1), trials=50, seed=9)
    assert c == d


def test_farthest_in_future_dominates_opt_on_every_shared_sequence():
    ch = random_chain(4, 13, floor=0.1)
    T = 30
    _, table = opt_expected_cost(ch, 2, T, (0, 1))
    fif, opt = FarthestInFuture(), OptReplayPolicy(table)
    for trial in range(40):
        pages = sample_sequence(ch, T, (77, trial, 0))
        m_fif = len(replay(fif, ch, 2, pages, (0, 1), (77, trial, 1)))
        m_opt = len(replay(opt, ch, 2, pages, (0, 1), (77, trial, 1)))
        assert m_fif <= m_opt  # clairvoyance dominates on every shared sequence


def test_ratio_report_against_exact_baseline():
    ch = random_chain(4, 3, floor=0.1)
    rows = ratio_report(
        ch, 2, 20, [DominatingPolicy(), MedianPolicy()], "opt-dp",
        trials=2000, seed=5, init_cache=(0, 1),
    )
    assert [r.policy for r in rows] == ["dominating", "median"]
    for r in rows:
        assert r.baseline_ci == 0.0
        assert r.ratio_low <= r.mean / r.baseline_mean <= r.ratio_high
    lines = report_csv_lines(rows)
    assert lines[0].startswith("policy,mean,ci")
    assert len(lines) == 3


def _per_rule_rows(chain, k, T, names, baseline, trials, seed, init):
    """``ratio_report``'s rows with one ``simulate`` call per rule, rule i on
    seed ``(seed, i + 1)`` and a policy baseline on ``(seed, 0)``, and its
    interval arithmetic written out."""
    if baseline == "opt-dp":
        base_mean, base_ci = opt_expected_cost(chain, k, T, init, record_actions=False)[0], 0.0
    else:
        est = simulate(parse_policy(baseline), chain, k, T, init, trials, (seed, 0))
        base_mean, base_ci = est.mean, est.half_width
    rows = []
    for i, name in enumerate(names):
        est = simulate(parse_policy(name), chain, k, T, init, trials, (seed, i + 1))
        top, bottom = base_mean + base_ci, base_mean - base_ci
        low = max(est.mean - est.half_width, 0.0) / top if top > 0 else float("inf")
        high = (est.mean + est.half_width) / bottom if bottom > 0 else float("inf")
        rows.append(ReportRow(name, est.mean, est.half_width, base_mean, base_ci, low, high, chain_hash(chain), k, T, seed))
    return rows


@pytest.mark.parametrize("baseline", ["opt-dp", "lru", "median"])
@pytest.mark.parametrize("trials,T", [(300, 25), (1, 25), (40, 0)])
@pytest.mark.parametrize("names", [("dominating", "median", "random", "lru", "fifo", "fif"), ()])
def test_ratio_report_rows_equal_per_rule_simulate(baseline, trials, T, names):
    """Every rule of a report, stepped beside the others in one Monte Carlo
    call, gives the row that its own ``simulate`` gives: a rule's counts do
    not depend on which other rules share its report."""
    chain, init = random_chain(5, [8500, 1], floor=0.1), (1, 3)
    policies = [parse_policy(name) for name in names]
    rows = ratio_report(chain, 2, T, policies, baseline if baseline == "opt-dp" else parse_policy(baseline), trials, 7, init)
    assert rows == _per_rule_rows(chain, 2, T, names, baseline, trials, 7, init)


def test_ratio_report_deterministic():
    ch = random_chain(3, 9)
    a = ratio_report(ch, 2, 10, [RandomEvictionPolicy()], "opt-dp", 500, 11, (0, 1))
    b = ratio_report(ch, 2, 10, [RandomEvictionPolicy()], "opt-dp", 500, 11, (0, 1))
    assert report_csv_lines(a) == report_csv_lines(b)


def test_dp_value_lower_bounds_online_policies():
    ch = random_chain(4, 17, floor=0.1)
    k, T = 2, 25
    opt_value, _ = opt_expected_cost(ch, k, T, (0, 1), record_actions=False)
    for pol in (DominatingPolicy(), MedianPolicy(), LruPolicy(), FifoPolicy(), RandomEvictionPolicy()):
        est = simulate(pol, ch, k, T, (0, 1), trials=3000, seed=18)
        assert est.mean >= opt_value - 3 * est.half_width, pol.name


class LeakyEviction(RandomEvictionPolicy):
    """Uniform eviction whose distribution sums to 1 - 1e-6: it loses mass."""

    name = "leaky"

    def kernel_probs(self, idx, chain):
        return super().kernel_probs(idx, chain) * (1.0 - 1e-6)


class SkewedEviction(RandomEvictionPolicy):
    """Evicts slot e with probability proportional to e + 1: unlike uniform
    eviction, its cost depends on which successor each slot leads to."""

    name = "skewed"

    def kernel_probs(self, idx, chain):
        return super().kernel_probs(idx, chain) * (2.0 * np.arange(1, idx.k + 1) / (idx.k + 1))


def test_mass_conservation_guard():
    # exact evolution asserts total probability stays 1 at every step
    ch = build_lb_chain(0.3, 0.2)
    est = exact_cost(DominatingPolicy(), ch, 2, 500, (0, 1))
    assert est.mean > 0
    # step 1 misses with probability 1/3 and loses 1e-6 of that mass
    with pytest.raises(AssertionError, match="mass drifted .* at step 1$"):
        exact_cost(LeakyEviction(), ch, 2, 500, (0, 1))


def _assert_matches_loop_oracle(policy, chain, k, T, init):
    est = exact_cost(policy, chain, k, T, init)
    ref = loop_exact_cost(build_kernel(policy, chain, k), chain, T, init)
    assert est.mean == pytest.approx(ref, rel=1e-12, abs=0.0)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_exact_matches_per_rank_loop_oracle(data):
    chain = data.draw(sparse_chain_specs())
    k = data.draw(st.integers(min_value=1, max_value=chain.n - 1))
    policy = data.draw(st.sampled_from([MedianPolicy(), RandomEvictionPolicy(), SkewedEviction()]))
    _assert_matches_loop_oracle(policy, chain, k, data.draw(horizons), data.draw(caches(chain.n, k)))


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_exact_dominating_matches_per_rank_loop_oracle(data):
    chain = data.draw(chain_specs(n_min=3, n_max=6))
    k = data.draw(st.integers(min_value=1, max_value=chain.n - 1))
    _assert_matches_loop_oracle(DominatingPolicy(), chain, k, data.draw(horizons), data.draw(caches(chain.n, k)))


@pytest.mark.parametrize("n", range(3, 9))
def test_exact_matches_per_rank_loop_oracle_for_every_k(n):
    for k in range(1, n):
        chain = sparse_chain(n, [n, k], 0.3)
        for policy in (RandomEvictionPolicy(), SkewedEviction()):
            _assert_matches_loop_oracle(policy, chain, k, 6, tuple(range(n - k, n)))


def test_kernel_uses_shared_index():
    # the table's ranks are those of the one shared index for (n, k)
    seen = []

    class Recording(MedianPolicy):
        def kernel_probs(self, idx, chain):
            seen.append(idx)
            return super().kernel_probs(idx, chain)

    build_kernel(Recording(), random_chain(5, 2), 3)
    assert seen[0] is subset_index(5, 3)


@settings(max_examples=25, deadline=None)
@given(sparse_chain_specs(n_min=3, n_max=8), st.data())
def test_memoryless_tables_match_per_key_oracle(chain, data):
    pinned = data.draw(st.sets(st.integers(min_value=0, max_value=chain.n - 1), max_size=chain.n - 1), label="pinned")
    for k in range(1, chain.n):
        for policy in (MedianPolicy(), PinnedPolicy(pinned), RandomEvictionPolicy()):
            try:
                want = loop_kernel_probs(policy, chain, k)
            except RuntimeError:
                with pytest.raises(RuntimeError, match="all resident pages are pinned"):
                    build_kernel(policy, chain, k)
                continue
            probs = build_kernel(policy, chain, k)
            assert np.array_equal(probs, want) and not probs.flags.writeable, (policy.name, k)


@pytest.mark.parametrize("cache", [(0, 9), (0, 0), (1,)])
def test_bad_init_cache_rejected(cache):
    ch = random_chain(4, 1)
    for pol in (LruPolicy(), DominatingPolicy()):
        with pytest.raises(ValueError, match="distinct pages in 0..3"):
            simulate(pol, ch, 2, 10, cache, trials=10, seed=1)
    with pytest.raises(ValueError, match="distinct pages in 0..3"):
        exact_cost(MedianPolicy(), ch, 2, 10, cache)


def unsorted_caches(n, k):
    """k distinct pages of range(n), in any order."""
    return st.permutations(range(n)).map(lambda perm: tuple(perm[:k]))


# one- and two-word seeds: SeedSequence hashes each word count differently
SEEDS = st.integers(min_value=0, max_value=2**31 - 1).map(lambda s: (s,)) | st.tuples(
    st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([0, 2**32, 2**40 + 3])
)


def _runs(data, rules):
    """One drawn rule list, each rule with its own distinct seed."""
    makes = data.draw(st.lists(st.sampled_from(rules), min_size=1, max_size=5))
    seeds = data.draw(st.lists(SEEDS, min_size=len(makes), max_size=len(makes), unique=True))
    return [(make(), seed) for make, seed in zip(makes, seeds)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sampled_paths_match_per_trial_loop_oracle(data):
    """LRU and FIFO (stamped path) and farthest-in-future (generic path),
    drawn into one call with a seed each, give every row the per-trial miss
    counts of the one-trial-at-a-time loop on its own seed."""
    chain = data.draw(sparse_chain_specs(n_min=2, n_max=7))
    k = data.draw(st.sampled_from(sorted({1, chain.n - 1, (chain.n + 1) // 2})))
    T = data.draw(horizons)
    init = data.draw(unsorted_caches(chain.n, k))
    trials = data.draw(st.integers(min_value=1, max_value=12))
    runs = _runs(data, [LruPolicy, FifoPolicy, FarthestInFuture])
    got = trial_misses(runs, chain, k, T, init, trials)
    assert got.shape == (len(runs), trials)
    for (policy, seed), row in zip(runs, got):
        assert np.array_equal(row, loop_simulate_generic(policy, chain, k, T, init, trials, seed)), policy.name
    seed = runs[0][1]
    pages = sample_trials(chain, T, [seed], trials=range(trials))[0]
    for make in (LruPolicy, FifoPolicy):  # the stamped count, given the unsorted cache itself
        ref = loop_simulate_generic(make(), chain, k, T, init, trials, seed)
        assert np.array_equal(_stamped_misses(pages, init, np.full(trials, make.stamp_on_hit)), ref), make.name


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_path_matches_per_trial_loop_oracle(data):
    """Each run of the kernel path reads its own stream as the
    one-trial-at-a-time loop does: per step, request uniforms in trial order,
    then eviction uniforms for the missing trials in trial order. The rules
    are drawn into one call with a seed each, beside an LRU run, whose row
    is the loop's of its path."""
    chain = data.draw(sparse_chain_specs(n_min=2, n_max=7))
    k = data.draw(st.integers(min_value=1, max_value=chain.n - 1))
    T = data.draw(horizons)
    init = data.draw(caches(chain.n, k))
    trials = data.draw(st.integers(min_value=1, max_value=12))
    pinned = data.draw(st.sets(st.integers(min_value=0, max_value=chain.n - 1), max_size=k - 1))
    rules = [MedianPolicy, RandomEvictionPolicy, lambda: PinnedPolicy(pinned)]
    try:
        alpha_table(chain)
        rules.append(DominatingPolicy)
    except SingularSystem:
        pass  # the dominating rule is undefined on this chain
    runs = _runs(data, rules)
    lru = (LruPolicy(), data.draw(SEEDS))
    got = trial_misses(runs + [lru], chain, k, T, init, trials)
    for (policy, seed), row in zip(runs, got):
        ref = loop_simulate_kernel(build_kernel(policy, chain, k), chain, T, init, trials, seed)
        assert np.array_equal(row, ref), policy.name
    assert np.array_equal(got[-1], loop_simulate_generic(LruPolicy(), chain, k, T, init, trials, lru[1]))


@pytest.mark.parametrize("make", [LruPolicy, FifoPolicy])
def test_batched_path_matches_loop_oracle_on_a_large_cache(make):
    """n = 12, k = 6, where trials rarely revisit one of the 665,280 ordered caches."""
    chain = random_chain(12, [8200, 1])
    init, trials, T, seed = (0, 2, 4, 6, 8, 10), 20, 200, (11,)
    (got,) = trial_misses([(make(), seed)], chain, 6, T, init, trials)
    assert np.array_equal(got, loop_simulate_generic(make(), chain, 6, T, init, trials, seed))


# (n, k, T, chain seed): both ends of k, and the mc-ratio shapes
ORDERED_BATTERY = [(3, 1, 25, 1), (4, 2, 20, 2), (5, 2, 30, 3), (5, 3, 30, 4), (6, 2, 40, 5), (6, 3, 20, 6), (6, 5, 15, 7)]


@pytest.mark.parametrize("n,k,T,chain_seed", ORDERED_BATTERY)
def test_lru_fifo_monte_carlo_within_exact_ordered_cost(n, k, T, chain_seed):
    chain = random_chain(n, [8100, chain_seed], floor=0.15)
    init = tuple(range(k))
    for policy, move_on_hit in ((LruPolicy(), True), (FifoPolicy(), False)):
        exact = ordered_exact_cost(chain, T, init, move_on_hit)
        est = simulate(policy, chain, k, T, init, trials=2000, seed=chain_seed)
        assert est.half_width > 0
        assert abs(est.mean - exact) <= 4 * est.half_width, policy.name


@pytest.mark.parametrize("n", [2, 3, 5])
def test_ordered_exact_cost_at_k1_equals_any_rule(n):
    """With one slot every rule evicts the same page, so LRU, FIFO and the
    dominating rule share one exact cost."""
    for chain in (random_chain(n, [8200, n]), sparse_chain(n, [8200, n], 0.5)):
        dom = exact_cost(DominatingPolicy(), chain, 1, 30, (n - 1,)).mean
        for move_on_hit in (True, False):
            assert ordered_exact_cost(chain, 30, (n - 1,), move_on_hit) == pytest.approx(dom, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("make", [DominatingPolicy, LruPolicy, FifoPolicy, FarthestInFuture])
def test_horizon_rule_on_every_path(make):
    ch = random_chain(4, 8)
    est = simulate(make(), ch, 2, 0, (0, 1), trials=10, seed=1)
    assert est.mean == 0.0 and est.half_width == 0.0
    with pytest.raises(ValueError, match="T must be >= 0"):
        simulate(make(), ch, 2, -1, (0, 1), trials=10, seed=1)


def test_horizon_rule_on_exact_paths():
    ch = random_chain(4, 8)
    assert exact_cost(MedianPolicy(), ch, 2, 0, (0, 1)).mean == 0.0
    assert opt_expected_cost(ch, 2, 0, (0, 1))[0] == 0.0
    with pytest.raises(ValueError, match="T must be >= 0"):
        exact_cost(MedianPolicy(), ch, 2, -2, (0, 1))
    with pytest.raises(ValueError, match="T must be >= 0"):
        opt_expected_cost(ch, 2, -3, (0, 1))


def test_sampled_paths_split_trials_into_blocks(monkeypatch):
    """Trials sampled in several blocks keep their seeds and miss counts."""
    from markov_paging import engine

    monkeypatch.setattr(engine, "TRIAL_BLOCK_CELLS", 50)  # T=20: blocks of 2 trials, of 1 for two runs
    ch = random_chain(5, 21)
    for makes in ([LruPolicy], [FarthestInFuture], [LruPolicy, FarthestInFuture]):
        got = trial_misses([(make(), (4, i)) for i, make in enumerate(makes)], ch, 2, 20, (3, 1), 7)
        for i, (make, row) in enumerate(zip(makes, got)):
            assert np.array_equal(row, loop_simulate_generic(make(), ch, 2, 20, (3, 1), 7, (4, i))), make.name
