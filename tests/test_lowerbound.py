import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_paging.alpha import SingularSystem
from markov_paging.chain import build_lb_chain
from markov_paging.engine import build_kernel, exact_cost
from markov_paging.lowerbound import LBParams, _reference_cost, closed_form_costs, geometric_sum, search, warmup_ratio
from markov_paging.optdp import subset_index
from markov_paging.policies import DominatingPolicy, PinnedPolicy

from .oracles import adversarial_evictions, lb_matrices, naive_geometric_sum, naive_warmup_costs

# scripts/reproduce_lowerbound.py's default grid
REPRODUCE_EPS = (1e-4, 1e-5, 1e-6)
REPRODUCE_FRACS = (0.5, 0.6, 0.65, 0.7, 0.7069, 0.75, 0.8)
REPRODUCE_T = (10**7, 10**8, 10**9)


@st.composite
def valid_params(draw):
    eps = draw(st.floats(min_value=1e-4, max_value=0.5))
    frac = draw(st.floats(min_value=0.5, max_value=0.95))
    T = draw(st.integers(min_value=1, max_value=500))
    return LBParams(eps=eps, eps1=frac * eps, T=T)


def test_params_regime_validation():
    LBParams(0.2, 0.1, 5)  # boundary eps1 = eps/2 is fine
    with pytest.raises(ValueError):
        LBParams(0.2, 0.2, 5)
    with pytest.raises(ValueError):
        LBParams(0.2, 0.09, 5)
    with pytest.raises(ValueError):
        LBParams(0.1, 0.05, 0)


@pytest.mark.parametrize("eps", [0.3, 0.1, 1e-2, 1e-3])
@pytest.mark.parametrize("frac", [0.5, 0.7069, 0.9])
def test_pinned_reference_closed_form_matches_engine(eps, frac):
    # the denominator of every stress ratio, against the exact evolution
    chain = build_lb_chain(eps, frac * eps)
    for T in (1, 7, 50, 2000):
        want = exact_cost(PinnedPolicy({0}), chain, 2, T, (0, 1)).mean
        assert _reference_cost(eps, frac * eps, T) == pytest.approx(want, rel=1e-12, abs=0.0), T


def test_matrix_entries_at_reference_point():
    B, miss_row = lb_matrices(LBParams(0.1, 0.05, 10))
    assert B[0, 0] == pytest.approx(0.95, abs=1e-15)  # 1 - eps + eps1
    assert np.allclose(miss_row, [0.05, 0.05, 0.9], atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(valid_params())
def test_columns_sum_to_one(params):
    B, _ = lb_matrices(params)
    assert np.allclose(B.sum(axis=0), 1.0, atol=1e-12)


def test_symmetric_split_reduces_to_warmup_eviction():
    eps = 0.3
    ev = adversarial_evictions(eps, eps / 2)
    assert ev[((0, 1), 0)] == pytest.approx((2 - eps) / (4 - 4 * eps), abs=1e-15)


class TestGeometricSum:
    def test_single_term_is_identity(self):
        B = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(geometric_sum(B, 1), np.eye(3))

    def test_scalar_series(self):
        S = geometric_sum(np.diag([0.5, 0.5, 0.5]), 3)
        assert np.allclose(S, np.diag([1.75, 1.75, 1.75]), atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=10**6))
    def test_matches_naive_accumulation(self, T, seed):
        rng = np.random.default_rng(seed)
        B = rng.random((3, 3))
        B /= B.sum(axis=0, keepdims=True)
        assert np.allclose(geometric_sum(B, T), naive_geometric_sum(B, T), atol=1e-12)


def test_reported_stress_point():
    cost_dom, cost_ref = closed_form_costs(LBParams(1e-5, 0.7069e-5, 10**8))
    assert cost_dom / cost_ref >= 1.5907


def test_closed_form_matches_engine_evolution():
    params = LBParams(1e-3, 0.5e-3, 1500)
    cost_dom, _ = closed_form_costs(params)
    chain = build_lb_chain(params.eps, params.eps1)
    est = exact_cost(DominatingPolicy(target=0), chain, 2, params.T, (0, 1))
    assert est.mean == pytest.approx(cost_dom, abs=1e-9)


@pytest.mark.parametrize(
    "eps,eps1",
    [(0.1, 0.05), (0.1, 0.07), (0.3, 0.2), (1e-3, 0.7069e-3), (0.4, 0.3), (0.25, 0.125)],
)
def test_kernel_reproduces_hand_derived_evictions(eps, eps1):
    # the operator's inputs, built from the policy's LPs, against the closed forms
    probs = build_kernel(DominatingPolicy(target=0), build_lb_chain(eps, eps1), 2)
    idx = subset_index(3, 2)
    for (cache, victim), prob in adversarial_evictions(eps, eps1).items():
        (requested,) = set(range(3)) - set(cache)
        got = probs[idx.rank[cache], requested, cache.index(victim)]
        assert got == pytest.approx(prob, rel=1e-12, abs=1e-12)


def _hand_cost(params):
    """The adversarial policy's cost from the hand-built 3x3 cache-state matrix."""
    B, miss_row = lb_matrices(params)
    return float(miss_row @ geometric_sum(B, params.T)[:, 0])  # initial cache {0,1}


@pytest.mark.parametrize("T", REPRODUCE_T)
def test_operator_cost_matches_hand_matrix_on_reproduce_grid(T):
    # doubling roundoff grows with T; both sides are within 6e-8 of a 60-digit evaluation
    rel = 1e-8 if T <= 10**8 else 1e-7
    for eps in REPRODUCE_EPS:
        for frac in REPRODUCE_FRACS:
            params = LBParams(eps, frac * eps, T)
            cost_dom, _ = closed_form_costs(params)
            assert cost_dom == pytest.approx(_hand_cost(params), rel=rel, abs=0.0), (eps, frac)


@pytest.mark.parametrize("T", [1, 2, 3, 10, 137])
def test_operator_cost_matches_hand_matrix_at_short_horizons(T):
    params = LBParams(0.1, 0.07, T)
    assert closed_form_costs(params)[0] == pytest.approx(_hand_cost(params), rel=1e-12, abs=0.0)


def test_singular_chain_is_refused():
    # at eps <= 1e-12 the precedence solve's condition guard rejects the chain
    with pytest.raises(SingularSystem):
        closed_form_costs(LBParams(1e-12, 0.7e-12, 10))
    assert closed_form_costs(LBParams(1.1e-12, 0.77e-12, 10))[0] > 0


class TestWarmupRatio:
    def test_limit_approaches_three_halves(self):
        assert warmup_ratio(1e-6) == pytest.approx(1.5, abs=1e-3)

    def test_moderate_eps_stays_near(self):
        r = warmup_ratio(1e-2)
        assert 1.4 <= r <= 1.6

    def test_consistent_with_general_closed_form(self):
        eps = 1e-2
        cost_dom, cost_ref = closed_form_costs(LBParams(eps, eps / 2, 10**9))
        assert warmup_ratio(eps) == pytest.approx(cost_dom / cost_ref, abs=1e-3)

    def test_finite_horizon_matches_termwise_sum(self):
        eps, T = 0.1, 10
        dom, ref = naive_warmup_costs(eps, T)
        assert warmup_ratio(eps, T) == pytest.approx(dom / ref, rel=1e-12)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            warmup_ratio(0.7)


@settings(max_examples=40, deadline=None)
@given(valid_params())
def test_adversary_never_cheaper_and_within_double(params):
    cost_dom, cost_ref = closed_form_costs(params)
    assert cost_dom >= cost_ref - 1e-9
    assert cost_dom <= 2.0 * cost_ref + 1e-9


class TestSearch:
    def test_singleton_grid(self):
        res = search([1e-5], [0.7069], [10**8])
        assert res.best_ratio == pytest.approx(1.59070534, abs=1e-6)
        assert res.best_params.T == 10**8
        assert len(res.rows) == 1

    def test_reported_point_found_in_grid(self):
        res = search([1e-4, 1e-5], [0.6, 0.7069], [10**6, 10**8])
        assert res.best_ratio >= 1.5907

    def test_symmetric_split_capped_near_three_halves(self):
        res = search([1e-2, 1e-4, 1e-6], [0.5], [10**6, 10**8])
        assert res.best_ratio <= 1.5 + 1e-3

    def test_argmax_is_max_of_rows(self):
        res = search([1e-4, 1e-5], [0.55, 0.7], [10**4, 10**6])
        assert res.best_ratio == max(r[-1] for r in res.rows)

    def test_invalid_grid_point_raises(self):
        with pytest.raises(ValueError):
            search([0.2], [1.0], [10])  # eps1 = eps leaves no third-page mass

    def test_empty_grid_raises(self):
        with pytest.raises(ValueError):
            search([], [0.7], [10])
