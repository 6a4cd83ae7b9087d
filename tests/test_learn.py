import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_paging.alpha import AlphaTable, alpha_table, gamma
from markov_paging.chain import random_chain, sample_sequence, validate_chain
from markov_paging.learn import (
    ConditionViolated,
    GuaranteeVacuous,
    approx_dominating_policy,
    estimate_transition,
    multiplicative_factor,
    perturbation_eps,
    symmetrize,
)

from .conftest import chain_specs
from .oracles import add_at_estimate, loop_symmetrize


def test_alternating_trace_recovers_swap_matrix():
    trace = np.tile([0, 1], 5000)
    est = estimate_transition(trace, n=2)
    assert np.allclose(est.m_hat, [[0, 1], [1, 0]], atol=1e-2)
    assert est.m_hat.min() > 0  # smoothing keeps everything positive


def test_minimal_trace_and_unvisited_rows():
    est = estimate_transition(np.array([0, 1]), n=3)
    assert est.sample_count == 2
    assert np.allclose(est.m_hat[1], 1 / 3)  # never left page 1: uniform row
    assert np.allclose(est.m_hat[2], 1 / 3)
    assert est.m_hat[0, 1] == pytest.approx(2 / 4)  # (1+1)/(1+3)


def test_too_short_trace_rejected():
    with pytest.raises(ValueError):
        estimate_transition(np.array([0]), n=2)
    with pytest.raises(ValueError):
        estimate_transition(np.array([0, 1]), n=2, smoothing=0.0)


@pytest.mark.parametrize("smoothing", [float("nan"), float("inf")])
def test_non_finite_smoothing_rejected(smoothing):
    with pytest.raises(ValueError, match="smoothing must be positive and finite"):
        estimate_transition(np.array([0, 1, 0]), n=2, smoothing=smoothing)


@pytest.mark.parametrize("trace,n", [([0, 1, 5, 0], 3), ([0, -1, 1, 0], None), ([0, -1, 1, 0], 2)])
def test_out_of_range_pages_rejected(trace, n):
    with pytest.raises(ValueError, match="outside 0.."):
        estimate_transition(np.array(trace), n=n)


@settings(max_examples=20, deadline=None)
@given(chain_specs(n_min=2, n_max=5), st.integers(min_value=0, max_value=10**6))
def test_estimates_are_valid_chains(chain, seed):
    trace = sample_sequence(chain, 200, seed)
    est = estimate_transition(trace, n=chain.n)
    validate_chain(est.m_hat)  # row-stochastic within tolerance


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=2, max_value=400),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([1.0, 0.5, 1e-3]),
)
def test_counts_match_add_at_oracle(n, length, seed, smoothing):
    """Bit for bit the ``np.add.at`` estimate, also for pages the trace never
    visits (it only draws pages below ``visited``)."""
    rng = np.random.default_rng(seed)
    visited = int(rng.integers(1, n + 1))
    pages = rng.integers(0, visited, size=length)
    truth = random_chain(n, seed)
    est = estimate_transition(pages, n=n, smoothing=smoothing, truth=truth)
    expected = add_at_estimate(pages, n, smoothing)
    assert est.m_hat.dtype == expected.dtype and np.array_equal(est.m_hat, expected)
    assert est.linf_error == float(np.abs(expected - truth.transition).sum(axis=1).max())


def test_error_shrinks_with_more_samples():
    truth = random_chain(4, 3, floor=0.3)
    med = []
    for m in (10**3, 10**4, 10**5):
        errs = [
            estimate_transition(sample_sequence(truth, m, [m, rep]), n=4, truth=truth).linf_error
            for rep in range(5)
        ]
        med.append(sorted(errs)[2])
    assert med[0] >= med[1] >= med[2]


class TestPerturbationBound:
    def test_exact_data(self):
        assert perturbation_eps(3.0, 0.0) == 0.0

    def test_formula_point(self):
        assert perturbation_eps(2.0, 0.1) == pytest.approx(0.25, abs=1e-15)

    def test_validity_condition(self):
        with pytest.raises(ConditionViolated):
            perturbation_eps(2.0, 0.5)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=0.15),
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.04),
    )
    def test_monotone_in_both_arguments(self, g, d, dg, dd):
        if (g + dg) * (d + dd) >= 1.0:
            return
        base = perturbation_eps(g, d)
        assert perturbation_eps(g + dg, d) >= base
        assert perturbation_eps(g, d + dd) >= base

    def test_dominates_measured_alpha_error(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            truth = random_chain(4, int(rng.integers(10**6)), floor=0.2)
            delta = 0.01
            m = np.array(truth.transition)
            for i in range(4):
                hi, lo = int(np.argmax(m[i])), int(np.argmin(m[i]))
                m[i, hi] -= delta / 2
                m[i, lo] += delta / 2
            perturbed = validate_chain(m)
            measured = np.abs(perturbed.transition - truth.transition).sum(axis=1).max()
            bound = perturbation_eps(gamma(truth), measured)
            diff = np.abs(
                alpha_table(perturbed).values - alpha_table(truth).values
            ).max()
            assert diff <= bound + 1e-12, trial


def test_symmetrize_is_exactly_complementary():
    table = alpha_table(random_chain(5, 9))
    sym = symmetrize(table)
    v = sym.values
    for p in range(5):
        assert np.all(v[p, p] == 0.0)
        for q in range(5):
            if p != q:
                assert np.all(v[p, q] + v[q, p] == 1.0)  # exact, not approximate


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**31 - 1))
def test_symmetrize_matches_pair_loop_oracle(n, seed):
    """Bit for bit the per-pair loop, on tables whose entries need not be
    near-complementary to begin with."""
    values = np.random.default_rng(seed).random((n, n, n))
    got = symmetrize(AlphaTable(n=n, values=values.copy())).values
    assert np.array_equal(got, loop_symmetrize(values))


class TestApproxPolicy:
    def test_exact_knowledge_recovers_factor_two(self):
        truth = random_chain(3, 4, floor=0.2)
        trace = sample_sequence(truth, 2000, 0)
        est = estimate_transition(trace, n=3, truth=truth)
        policy, factor, bundle = approx_dominating_policy(est, true_chain=truth, delta_inf=0.0)
        assert factor == 2.0 and bundle.eps_bound == 0.0

    def test_quarter_error_factor(self):
        truth = random_chain(3, 4, floor=0.2)
        est = estimate_transition(sample_sequence(truth, 2000, 0), n=3, truth=truth)
        _, factor, bundle = approx_dominating_policy(
            est, gamma_value=2.0, delta_inf=0.05
        )
        assert bundle.eps_bound == pytest.approx(1 / 9, abs=1e-12)
        assert factor == pytest.approx(2 / (1 - 2 / 9), abs=1e-12)

    def test_vacuous_guarantee_raises(self):
        truth = random_chain(3, 4, floor=0.2)
        est = estimate_transition(sample_sequence(truth, 2000, 0), n=3, truth=truth)
        with pytest.raises(GuaranteeVacuous):
            approx_dominating_policy(est, gamma_value=2.0, delta_inf=0.25)

    def test_needs_delta_source(self):
        truth = random_chain(3, 4, floor=0.2)
        est = estimate_transition(sample_sequence(truth, 2000, 0), n=3)
        with pytest.raises(ValueError):
            approx_dominating_policy(est)

    def test_gamma_source_labels(self):
        truth = random_chain(3, 4, floor=0.2)
        est = estimate_transition(sample_sequence(truth, 5000, 0), n=3, truth=truth)
        _, _, on_truth = approx_dominating_policy(est, true_chain=truth)
        assert on_truth.gamma_source == "true"
        _, _, on_est = approx_dominating_policy(est, delta_inf=est.linf_error)
        assert on_est.gamma_source == "estimated"


def test_multiplicative_factor_formula():
    assert multiplicative_factor(0.0) == 2.0
    assert multiplicative_factor(0.1) == pytest.approx(1.8 / 0.8, abs=1e-15)
    with pytest.raises(ValueError):
        multiplicative_factor(0.5)
