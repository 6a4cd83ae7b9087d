import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_paging.chain import build_lb_chain, random_chain, validate_chain
from markov_paging.engine import (
    NonMemoryless,
    build_kernel,
    exact_cost,
    ratio_report,
    report_csv_lines,
    simulate,
)
from markov_paging.lowerbound import LBParams, closed_form_costs
from markov_paging.optdp import opt_expected_cost, subset_index
from markov_paging.policies import (
    AdversarialDominatingPolicy,
    DominatingPolicy,
    FarthestInFuture,
    LruPolicy,
    MedianPolicy,
    OptReplayPolicy,
    PinnedPolicy,
    RandomEvictionPolicy,
)

from .conftest import caches, chain_specs, horizons, sparse_chain, sparse_chain_specs
from .oracles import loop_exact_cost


def test_no_misses_when_requests_stay_resident():
    ch = validate_chain([[1.0, 0.0], [1.0, 0.0]], init=[1.0, 0.0])
    est = simulate(DominatingPolicy(), ch, 1, 50, (0,), trials=20, seed=1)
    assert est.mean == 0.0 and est.half_width == 0.0
    est2 = simulate(LruPolicy(), ch, 1, 50, (0,), trials=5, seed=1)
    assert est2.mean == 0.0


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


def test_kernel_none_for_history_dependent():
    ch = random_chain(3, 1)
    assert build_kernel(FarthestInFuture(), ch, 2) is None
    assert build_kernel(DominatingPolicy(), ch, 2) is not None


def test_simulate_deterministic_given_seed():
    ch = random_chain(4, 4)
    a = simulate(DominatingPolicy(), ch, 2, 30, (0, 1), trials=500, seed=9)
    b = simulate(DominatingPolicy(), ch, 2, 30, (0, 1), trials=500, seed=9)
    assert a == b
    c = simulate(FarthestInFuture(), ch, 2, 30, (0, 1), trials=50, seed=9)
    d = simulate(FarthestInFuture(), ch, 2, 30, (0, 1), trials=50, seed=9)
    assert c == d


def test_threaded_generic_path_matches_sequential():
    ch = random_chain(4, 6)
    seq1 = simulate(LruPolicy(), ch, 2, 25, (0, 1), trials=60, seed=2, threads=1)
    par = simulate(LruPolicy(), ch, 2, 25, (0, 1), trials=60, seed=2, threads=4)
    assert seq1 == par


def test_farthest_in_future_dominates_opt_on_every_shared_sequence():
    from markov_paging.engine import _run_one_trial

    ch = random_chain(4, 13, floor=0.1)
    T = 30
    _, table = opt_expected_cost(ch, 2, T, (0, 1))
    fif, opt = FarthestInFuture(), OptReplayPolicy(table)
    for trial in range(40):
        m_fif = _run_one_trial(fif, ch, 2, T, (0, 1), (77,), trial, None)
        m_opt = _run_one_trial(opt, ch, 2, T, (0, 1), (77,), trial, None)
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


def test_ratio_report_deterministic():
    ch = random_chain(3, 9)
    a = ratio_report(ch, 2, 10, [RandomEvictionPolicy()], "opt-dp", 500, 11, (0, 1))
    b = ratio_report(ch, 2, 10, [RandomEvictionPolicy()], "opt-dp", 500, 11, (0, 1))
    assert report_csv_lines(a) == report_csv_lines(b)


def test_dp_value_lower_bounds_online_policies():
    from markov_paging.policies import FifoPolicy

    ch = random_chain(4, 17, floor=0.1)
    k, T = 2, 25
    opt_value, _ = opt_expected_cost(ch, k, T, (0, 1), record_actions=False)
    for pol in (DominatingPolicy(), MedianPolicy(), LruPolicy(), FifoPolicy(), RandomEvictionPolicy()):
        est = simulate(pol, ch, k, T, (0, 1), trials=3000, seed=18)
        assert est.mean >= opt_value - 3 * est.half_width, pol.name


class LeakyEviction(RandomEvictionPolicy):
    """Uniform eviction whose distribution sums to 1 - 1e-6: it loses mass."""

    name = "leaky"

    def kernel_probs(self, cache, requested, chain, table):
        return super().kernel_probs(cache, requested, chain, table) * (1.0 - 1e-6)


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
    policy = data.draw(st.sampled_from([MedianPolicy(), RandomEvictionPolicy()]))
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
        _assert_matches_loop_oracle(RandomEvictionPolicy(), chain, k, 6, tuple(range(n - k, n)))


def test_kernel_uses_shared_index():
    assert build_kernel(MedianPolicy(), random_chain(5, 2), 3).index is subset_index(5, 3)


@pytest.mark.parametrize("cache", [(0, 9), (0, 0), (1,)])
def test_bad_init_cache_rejected(cache):
    ch = random_chain(4, 1)
    for pol in (LruPolicy(), DominatingPolicy()):
        with pytest.raises(ValueError, match="distinct pages in 0..3"):
            simulate(pol, ch, 2, 10, cache, trials=10, seed=1)
    with pytest.raises(ValueError, match="distinct pages in 0..3"):
        exact_cost(MedianPolicy(), ch, 2, 10, cache)
